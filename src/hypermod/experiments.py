"""Experiment harness: seeded sweeps emitting deterministic CSV rows.

Each kind of ``config._EXPERIMENT_KEYS`` names its function here, which
returns ``(header, rows)``. Every sweep runs its replicas through
``_sweep``: replicas are independent seeded runs, the seed of replica r
at point i is ``seed + 1009 * i + r`` (a one-point sweep uses
``seed + r``), and each row averages its replicas in replica order.
"""

import math

from .analysis import (
    degree_fraction_oracle,
    empirical_bound_inputs,
    fit_tail_exponent,
    modularity_lower_bound_general,
    predicted_beta,
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


def _sweep(points, replicas, seed, run):
    """For each point in order, the list of ``run(point, replica_seed)``
    results in replica order; replica r of point i has seed
    ``seed + 1009 * i + r``."""
    return [[run(point, seed + 1009 * i + r) for r in range(replicas)]
            for i, point in enumerate(points)]


def fmean(xs):
    """``statistics.fmean`` of a non-empty sequence, bit for bit: importing
    ``statistics`` loads ``fractions`` and ``decimal`` into every command."""
    return math.fsum(xs) / len(xs)


def _stdev(xs):
    from statistics import stdev
    return stdev(xs) if len(xs) > 1 else 0.0


def detected_partition_score(h, seed):
    """Flatten, detect on the weighted graph, score the result on the
    original hypergraph."""
    return hypergraph_modularity_score(h, detect_communities(flatten(h), seed=seed)).score


def _g_points(options):
    return [uniform_block_params(options["communities"], alpha, options["uniformity"],
                                 options["p"], options["gamma"], options["target_vertices"])
            for alpha in options["alphas"]]


def _g_replica(params, run_seed):
    """One planted ``g`` run, its communities and its detected score."""
    g, planted, _ = generate_g(params, run_seed)
    return g, planted, detected_partition_score(g, run_seed)


def fig1_bound_vs_detected(options, replicas, seed):
    def run(params, run_seed):
        g, planted, detected = _g_replica(params, run_seed)
        return (modularity_lower_bound_general(empirical_bound_inputs(g, planted)), detected,
                hypergraph_modularity_score(g, planted).score)

    results = _sweep(_g_points(options), replicas, seed, run)
    return ["alpha", "lemma3_bound", "detected_q2", "planted_q2"], [
        (alpha, *map(fmean, zip(*reps))) for alpha, reps in zip(options["alphas"], results)]


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
    def run(point, run_seed):
        gparams, aparams = point
        a, _ = generate_h(aparams, run_seed)
        return _g_replica(gparams, run_seed)[2], detected_partition_score(a, run_seed)

    background = [matched_background_params(options, alpha) for alpha in options["alphas"]]
    results = _sweep(list(zip(_g_points(options), background)), replicas, seed, run)
    return ["alpha", "detected_q2_g", "detected_q2_background"], [
        (alpha, *map(fmean, zip(*reps))) for alpha, reps in zip(options["alphas"], results)]


def beta_sweep(options, replicas, seed):
    """Fitted tail exponents of ``options["params"]`` at each ``gamma_values`` entry.

    The theory column is ``predicted_beta``, so a sweep loads no scipy module.
    """
    def run(params, run_seed):
        return fit_tail_exponent(generate_h(params, run_seed)[0].degree_histogram()).beta_hat

    gammas = options["gamma_values"]
    points = [options["params"]._replace(gamma=gamma) for gamma in gammas]
    fits = _sweep(points, replicas, seed, run)
    return ["gamma", "beta_theory", "beta_hat_mean", "beta_hat_sd"], [
        (gamma, predicted_beta(params), fmean(f), _stdev(f))
        for gamma, params, f in zip(gammas, points, fits)]


def example_regressions(options, replicas, seed):
    """Closed-form exponent checks for three classic configurations.

    The exponent is ``predicted_beta``: ``predict_beta_h``'s amplitude needs
    scipy's log-gamma and no row reads it.
    """
    two = CardinalityDistribution.constant(2)
    rows = []
    ba = HParams(0.0, 1.0, [], two, [], edges_per_event=3, gamma=0.0)
    rows.append(("ba_m3", predicted_beta(ba), 3.0))
    for p in (0.1, 0.5, 0.9):
        cl = HParams(0.0, p, [1.0 - p], two, [two], edges_per_event=1, gamma=0.0)
        rows.append((f"chung_lu_p{p}", predicted_beta(cl), 2.0 + p / (2.0 - p)))
    three = CardinalityDistribution.constant(3)
    p = 0.5
    avin = HParams(0.0, p, [1.0 - p], three, [three], edges_per_event=1, gamma=0.0)
    degree_rate = p * 3 + (1 - p) * 3
    rows.append(("avin_p0.5", predicted_beta(avin), 1.0 + degree_rate / (degree_rate - p)))
    return ["case", "beta_predicted", "beta_expected"], rows


def recurrence_check(options, replicas, seed):
    """Per-vertex degree fractions of ``options["params"]``, measured and exact."""
    k_max = options["k_max"]
    table = degree_fraction_oracle(options["params"], k_max)

    def run(params, run_seed):
        hist = generate_h(params, run_seed)[0].degree_histogram()
        return [hist.counts.get(k, 0) / hist.total_vertices for k in range(k_max + 1)]

    (fractions,) = _sweep([options["params"]], replicas, seed, run)
    rows = []
    for k, samples in enumerate(zip(*fractions)):
        mean = fmean(samples)
        se = _stdev(samples) / math.sqrt(len(samples))
        limit = table.per_vertex[k]
        z = (mean - limit) / se if se > 0 else 0.0
        rows.append((k, limit, mean, se, z))
    return ["k", "per_vertex_limit", "empirical_mean", "empirical_stderr", "z"], rows


def run_experiment(spec, seed, out_path):
    """Run one experiment spec and write its CSV."""
    header, rows = spec.run(spec.options, spec.replicas, seed)
    write_csv(out_path, header, rows)
    return header, rows
