"""Experiment harness: seeded sweeps emitting deterministic CSV rows.

Each experiment kind maps to a function returning ``(header, rows)``.
Replicas are independent seeded runs whose results are averaged; the
per-replica seed is ``seed + 1009 * point_index + replica`` so sweeps
stay reproducible point by point.
"""

import math
from dataclasses import replace
from statistics import fmean, stdev

from .analysis import (
    _rates,
    degree_fraction_oracle,
    empirical_bound_inputs,
    fit_tail_exponent,
    modularity_lower_bound_general,
    predict_beta_h,
)
from .files import write_csv
from .genh import HParams, generate_h
from .geng import GParams, InterCommunityProfile, generate_g
from .louvain import detect_communities
from .modularity import flatten, hypergraph_modularity_score
from .sampling import CardinalityDistribution


def diagonal_profile(num_communities, alpha):
    """Within-community mass (1-alpha)/r per community; the rest spread
    uniformly over all two-community pairs."""
    r = num_communities
    entries = {(i,): (1.0 - alpha) / r for i in range(r)}
    if alpha > 0:
        pairs = r * (r - 1) // 2
        share = alpha / pairs
        for i in range(r):
            for j in range(i + 1, r):
                entries[(i, j)] = share
    return InterCommunityProfile(entries, r)


def uniform_block_params(num_communities, alpha, edge_size, p, gamma, target_vertices):
    """Community-model parameters for a k-uniform diagonal-profile sweep.

    Steps are chosen so the expected vertex count reaches the target.
    """
    r = num_communities
    steps = max(1, math.ceil((target_vertices - r) / p))
    return GParams(
        p_vertex=p,
        membership=[1.0 / r] * r,
        profile=diagonal_profile(r, alpha),
        edge_sizes=[CardinalityDistribution.constant(edge_size)] * r,
        gamma=gamma,
        steps=steps,
    )


def _replica_seed(seed, point_index, replica):
    return seed + 1009 * point_index + replica


def detected_partition_score(h, seed):
    """Flatten, detect on the weighted graph, score the result on the
    original hypergraph."""
    part = detect_communities(flatten(h), seed=seed)
    return hypergraph_modularity_score(h, part).score, part


def fig1_bound_vs_detected(options, replicas, seed):
    header = ["alpha", "lemma3_bound", "detected_q2", "planted_q2"]
    rows = []
    for idx, alpha in enumerate(options["alphas"]):
        bounds, detected, planted = [], [], []
        for rep in range(replicas):
            run_seed = _replica_seed(seed, idx, rep)
            params = uniform_block_params(
                options["communities"], alpha, options["uniformity"],
                options["p"], options["gamma"], options["target_vertices"],
            )
            g, planted_part, _ = generate_g(params, run_seed)
            planted.append(hypergraph_modularity_score(g, planted_part).score)
            q_det, _ = detected_partition_score(g, run_seed)
            detected.append(q_det)
            bounds.append(modularity_lower_bound_general(empirical_bound_inputs(g, planted_part)))
        rows.append((alpha, fmean(bounds), fmean(detected), fmean(planted)))
    return header, rows


def matched_background_params(options, alpha):
    """Community-free growth configured to match the sweep's hyperedge
    cardinality mix: sizes k and 2k with weights (1-alpha, alpha)."""
    k = options["uniformity"]
    p = options["p"]
    if alpha > 0:
        mix = CardinalityDistribution.categorical([k, 2 * k], [1.0 - alpha, alpha])
    else:
        mix = CardinalityDistribution.constant(k)
    steps = max(1, math.ceil((options["target_vertices"] - 1) / p))
    return HParams(
        p_vertex=0.0,
        p_vertex_edge=p,
        p_edge=[1.0 - p],
        attach_size=mix,
        edge_sizes=[mix],
        edges_per_event=1,
        gamma=0.0,
        steps=steps,
    )


def g_vs_avin(options, replicas, seed):
    header = ["alpha", "detected_q2_g", "detected_q2_background"]
    rows = []
    for idx, alpha in enumerate(options["alphas"]):
        q_g, q_a = [], []
        for rep in range(replicas):
            run_seed = _replica_seed(seed, idx, rep)
            gparams = uniform_block_params(
                options["communities"], alpha, options["uniformity"],
                options["p"], options["gamma"], options["target_vertices"],
            )
            g, _, _ = generate_g(gparams, run_seed)
            q_g.append(detected_partition_score(g, run_seed)[0])
            aparams = matched_background_params(options, alpha)
            a, _ = generate_h(aparams, run_seed)
            q_a.append(detected_partition_score(a, run_seed)[0])
        rows.append((alpha, fmean(q_g), fmean(q_a)))
    return header, rows


def beta_sweep(options, replicas, seed):
    """Fitted tail exponents of ``options["params"]`` at each ``gamma_values`` entry."""
    header = ["gamma", "beta_theory", "beta_hat_mean", "beta_hat_sd"]
    rows = []
    for idx, gamma in enumerate(options["gamma_values"]):
        params = replace(options["params"], gamma=gamma)
        theory = predict_beta_h(params).beta
        fits = []
        for rep in range(replicas):
            h, _ = generate_h(params, _replica_seed(seed, idx, rep))
            fits.append(fit_tail_exponent(h.degree_histogram()).beta_hat)
        sd = stdev(fits) if len(fits) > 1 else 0.0
        rows.append((gamma, theory, fmean(fits), sd))
    return header, rows


def example_regressions(options, replicas, seed):
    """Closed-form exponent checks for three classic configurations.

    The exponent is ``predict_beta_h``'s beta, taken from the rates alone:
    its amplitude needs scipy's log-gamma and no row reads it.
    """
    two = CardinalityDistribution.constant(2)
    rows = []
    ba = HParams(0.0, 1.0, [], two, [], edges_per_event=3, gamma=0.0)
    rows.append(("ba_m3", 1.0 + _rates(ba)[2], 3.0))
    for p in (0.1, 0.5, 0.9):
        cl = HParams(0.0, p, [1.0 - p], two, [two], edges_per_event=1, gamma=0.0)
        rows.append((f"chung_lu_p{p}", 1.0 + _rates(cl)[2], 2.0 + p / (2.0 - p)))
    three = CardinalityDistribution.constant(3)
    p = 0.5
    avin = HParams(0.0, p, [1.0 - p], three, [three], edges_per_event=1, gamma=0.0)
    degree_rate = p * 3 + (1 - p) * 3
    rows.append(("avin_p0.5", 1.0 + _rates(avin)[2], 1.0 + degree_rate / (degree_rate - p)))
    return ["case", "beta_predicted", "beta_expected"], rows


def recurrence_check(options, replicas, seed):
    """Per-vertex degree fractions of ``options["params"]``, measured and exact."""
    params = options["params"]
    k_max = options["k_max"]
    table = degree_fraction_oracle(params, k_max)
    samples = [[] for _ in range(k_max + 1)]
    for rep in range(replicas):
        h, _ = generate_h(params, seed + rep)
        hist = h.degree_histogram()
        n = hist.total_vertices
        for k in range(k_max + 1):
            samples[k].append(hist.counts.get(k, 0) / n)
    header = ["k", "per_vertex_limit", "empirical_mean", "empirical_stderr", "z"]
    rows = []
    for k in range(k_max + 1):
        mean = fmean(samples[k])
        sd = stdev(samples[k]) if len(samples[k]) > 1 else 0.0
        se = sd / math.sqrt(len(samples[k])) if sd > 0 else 0.0
        limit = table.per_vertex[k]
        z = (mean - limit) / se if se > 0 else 0.0
        rows.append((k, limit, mean, se, z))
    return header, rows


_RUNNERS = {
    "fig1_bound_vs_detected": fig1_bound_vs_detected,
    "g_vs_avin": g_vs_avin,
    "beta_sweep": beta_sweep,
    "example_regressions": example_regressions,
    "recurrence_check": recurrence_check,
}


def run_experiment(spec, seed, out_path):
    """Run one experiment spec and write its CSV."""
    header, rows = _RUNNERS[spec.kind](spec.options, spec.replicas, seed)
    write_csv(out_path, header, rows)
    return header, rows
