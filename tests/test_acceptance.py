"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers once its assertions hold."""

import math
import random
import time
from collections import Counter
from statistics import fmean, stdev

import pytest

from hypermod import (
    CardinalityDistribution,
    CardinalityProfile,
    GParams,
    HParams,
    Hypergraph,
    InterCommunityProfile,
    Partition,
    brute_force_modularity,
    degree_fraction_oracle,
    detect_communities,
    fit_tail_exponent,
    flatten,
    generate_g,
    generate_h,
    graph_modularity_score,
    hypergraph_modularity_score,
    modularity_lower_bound_ab,
    predict_beta_g,
    predict_beta_h,
)
from hypermod.cli import run_cli
from hypermod.experiments import (
    fig1_bound_vs_detected,
    g_vs_avin,
    uniform_block_params,
)
from hypermod.hypergraph import DegreeHistogram

CONST = CardinalityDistribution.constant


def _report(number, message):
    print(f"PASS criterion {number}: {message}")


def test_criterion_1_closed_form_regressions():
    t0 = time.time()
    for m in (1, 2, 3):
        ba = HParams(0.0, 1.0, [], CONST(2), [], edges_per_event=m, gamma=0.0)
        assert predict_beta_h(ba).beta == pytest.approx(3.0, abs=1e-12)
    for p in (0.1, 0.5, 0.9):
        cl = HParams(0.0, p, [1 - p], CONST(2), [CONST(2)], gamma=0.0)
        assert predict_beta_h(cl).beta == pytest.approx(2 + p / (2 - p), abs=1e-12)
    for p, size in ((0.3, 3), (0.5, 5)):
        av = HParams(0.0, p, [1 - p], CONST(size), [CONST(size)], gamma=0.0)
        degree_rate = size
        assert predict_beta_h(av).beta == pytest.approx(
            1 + degree_rate / (degree_rate - p), abs=1e-12
        )
    _report(1, f"closed-form exponents exact to 1e-12 ({time.time() - t0:.3f}s)")


def test_criterion_2_ba_exponent_reproduction():
    params = HParams(0.0, 1.0, [], CONST(2), [], edges_per_event=3, gamma=0.0,
                     steps=1_000_000)
    fits = []
    worst = 0.0
    for seed in range(11, 16):
        t0 = time.time()
        h, _ = generate_h(params, seed=seed)
        fit = fit_tail_exponent(h.degree_histogram())
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert elapsed < 60.0
        fits.append(fit.beta_hat)
    mean = fmean(fits)
    assert 2.7 <= mean <= 3.3
    _report(2, f"BA batch mean beta_hat={mean:.3f} in [2.7, 3.3], slowest run {worst:.1f}s")


def test_criterion_3_recurrence_oracle_agreement():
    t0 = time.time()
    params = HParams(0.3, 0.3, [0.4], CONST(3), [CONST(3)], edges_per_event=1,
                     gamma=1.0, steps=100_000)
    table = degree_fraction_oracle(params, 20)
    samples = [[] for _ in range(21)]
    for rep in range(50):
        h, _ = generate_h(params, seed=5000 + rep)
        hist = h.degree_histogram()
        n = hist.total_vertices
        for k in range(21):
            samples[k].append(hist.counts.get(k, 0) / n)
    worst_z = 0.0
    for k in range(21):
        mean = fmean(samples[k])
        se = stdev(samples[k]) / math.sqrt(len(samples[k]))
        assert se > 0
        z = abs(mean - table.per_vertex[k]) / se
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"degree {k}: z={z:.2f}"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(3, f"50-seed fractions match oracle for k<=20, worst |z|={worst_z:.2f} ({elapsed:.0f}s)")


def test_criterion_4_tight_bound_case():
    two_uniform = CardinalityProfile({2: 1.0}, 2.0)
    gaps = []
    for r in (2, 5, 10):
        t0 = time.time()
        exact = modularity_lower_bound_ab(0.0, 1.0 / r, two_uniform, 2, r)
        assert exact == pytest.approx(1 - 1 / r, abs=1e-12)
        params = uniform_block_params(r, 0.0, 2, 0.25, 1.0, 10_000)
        g, _, _ = generate_g(params, seed=100 + r)
        part = detect_communities(flatten(g), seed=100 + r)
        q = hypergraph_modularity_score(g, part).score
        assert abs(q - (1 - 1 / r)) <= 0.05
        gaps.append(abs(q - (1 - 1 / r)))
        assert time.time() - t0 < 30.0
    _report(4, f"detected within 0.05 of 1-1/r (max gap {max(gaps):.4f}), bound tight to 1e-12")


def test_criterion_5_fig1_reproduction():
    t0 = time.time()
    alphas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    worst_gap = 0.0
    for uniformity in (2, 20):
        options = {
            "uniformity": uniformity, "communities": 47, "alphas": alphas,
            "p": 0.25, "gamma": 1.0, "target_vertices": 10_000,
        }
        _, rows = fig1_bound_vs_detected(options, replicas=1, seed=42)
        for alpha, bound, detected, planted in rows:
            assert bound <= planted + 1e-9, f"{uniformity}-uniform alpha={alpha}"
            assert planted <= detected + 0.02, f"{uniformity}-uniform alpha={alpha}"
            if uniformity == 20:
                gap = abs(bound - detected)
                worst_gap = max(worst_gap, gap)
                assert gap <= 0.05, f"alpha={alpha}: |bound-detected|={gap:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(5, f"sweep ordering holds; worst 20-uniform |bound-detected|={worst_gap:.4f} ({elapsed:.0f}s)")


def _naive_definition_score(h, part):
    """Independent evaluation straight from the definition."""
    ne = h.num_edges
    degrees, edges = h.degrees, h.edges
    vol_total = sum(degrees)
    card = Counter(len(e) for e in edges)
    score = 0.0
    for b in range(part.num_blocks):
        block = {v for v in range(h.num_vertices) if part.block_of[v] == b}
        within = sum(1 for e in edges if set(e) <= block)
        vol = sum(degrees[v] for v in block)
        score += within / ne
        score -= sum((cnt / ne) * (vol / vol_total) ** ell for ell, cnt in card.items())
    return score


def test_criterion_6_brute_force_equivalence():
    t0 = time.time()
    rng = random.Random(2718)
    checked_two_uniform = 0
    for trial in range(200):
        n = rng.randint(4, 8)
        two_uniform = trial % 4 == 0
        h = Hypergraph()
        for _ in range(n):
            h.add_vertex()
        for _ in range(rng.randint(1, 6)):
            size = 2 if two_uniform else rng.randint(1, 5)
            h.add_hyperedge([rng.randrange(n) for _ in range(size)])
        part = Partition([rng.randrange(3) for _ in range(n)], 3)
        fast = hypergraph_modularity_score(h, part).score
        assert fast == pytest.approx(_naive_definition_score(h, part), abs=1e-12)
        _, best_q = brute_force_modularity(h)
        detected = detect_communities(flatten(h), seed=trial)
        assert hypergraph_modularity_score(h, detected).score <= best_q + 1e-9
        if two_uniform:
            checked_two_uniform += 1
            assert hypergraph_modularity_score(h, part).score == pytest.approx(
                graph_modularity_score(h, part).score, abs=1e-12
            )
    elapsed = time.time() - t0
    assert elapsed < 120.0
    assert checked_two_uniform == 50
    _report(6, f"200 instances: naive agreement, detector <= optimum, 2-uniform identity ({elapsed:.0f}s)")


def test_criterion_7_per_community_reduction():
    t0 = time.time()
    profile = InterCommunityProfile(
        {(0,): 0.5, (1,): 0.05, (2,): 0.05, (0, 1): 0.25, (0, 2): 0.15}, 3
    )
    params = GParams(0.4, [0.6, 0.25, 0.15], profile, [CONST(3)] * 3,
                     gamma=2.0, steps=100_000)
    beta_global, betas = predict_beta_g(params)
    g, planted, _ = generate_g(params, seed=77)
    worst = 0.0
    g_degrees = g.degrees
    for j in range(3):
        degrees = [g_degrees[v] for v in range(g.num_vertices) if planted.block_of[v] == j]
        hist = DegreeHistogram(dict(Counter(degrees)), len(degrees))
        fit = fit_tail_exponent(hist)
        diff = abs(fit.beta_hat - betas[j])
        worst = max(worst, diff)
        assert diff <= 0.4, f"community {j}: beta_hat={fit.beta_hat:.3f} vs {betas[j]:.3f}"
    pooled = fit_tail_exponent(g.degree_histogram())
    pooled_diff = abs(pooled.beta_hat - beta_global)
    assert pooled_diff <= 0.4
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(7, f"per-community fits within 0.4 (worst {worst:.3f}), pooled within {pooled_diff:.3f} ({elapsed:.0f}s)")


def test_criterion_8_structured_vs_background_gap():
    t0 = time.time()
    options = {
        "uniformity": 20, "communities": 47, "alphas": [0.21],
        "p": 0.3, "gamma": 1.0, "target_vertices": 10_000,
    }
    _, rows = g_vs_avin(options, replicas=1, seed=2024)
    alpha, q_structured, q_background = rows[0]
    assert alpha == 0.21
    assert q_structured - q_background >= 0.4
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(8, f"detected q gap {q_structured - q_background:.3f} >= 0.4 "
               f"(q_g={q_structured:.3f}, q_background={q_background:.3f}, {elapsed:.0f}s)")


def test_criterion_9_cli_byte_determinism(tmp_path):
    g_cfg = tmp_path / "g.cfg"
    g_cfg.write_text(
        "model: g\np: 0.4\nmembership: 0.6, 0.4\nx: constant(3); constant(3)\n"
        "gamma: 1.0\nsteps: 2000\n0: 0.5\n1: 0.3\n0,1: 0.2\n"
    )
    h_cfg = tmp_path / "h.cfg"
    h_cfg.write_text(
        "model: h\np_v: 0.3\np_ve: 0.3\np_e: 0.4\ny: constant(3)\nx: constant(3)\n"
        "gamma: 1.0\nsteps: 1000\n"
    )
    exp_cfg = tmp_path / "exp.cfg"
    exp_cfg.write_text(
        "kind: recurrence_check\nsteps: 2000\nreplicas: 3\nk_max: 8\n"
        "p_v: 0.3\np_ve: 0.3\np_e: 0.4\ny: constant(3)\nx: constant(3)\n"
        "m: 1\ngamma: 1.0\n"
    )
    invocations = [
        ["generate-g", "--config", str(g_cfg), "--seed", "9",
         "--out", "{d}/g.txt", "--communities", "{d}/c.tsv", "--stats", "{d}/s.csv"],
        ["generate-h", "--config", str(h_cfg), "--seed", "9",
         "--out", "{d}/h.txt", "--stats", "{d}/hs.csv"],
        ["oracle", "--config", str(h_cfg), "--kmax", "12", "--out", "{d}/o.csv"],
        ["experiment", "--config", str(exp_cfg), "--seed", "5", "--out", "{d}/e.csv"],
    ]
    for argv in invocations:
        outputs = []
        for run in ("a", "b"):
            d = tmp_path / f"{argv[0]}-{run}"
            d.mkdir()
            concrete = [tok.format(d=d) for tok in argv]
            assert run_cli(concrete) == 0
            outputs.append(sorted(p.name for p in d.iterdir()))
            assert outputs[-1], "invocation produced no files"
        dir_a, dir_b = tmp_path / f"{argv[0]}-a", tmp_path / f"{argv[0]}-b"
        assert outputs[0] == outputs[1]
        for name in outputs[0]:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), (
                f"{argv[0]}: {name} differs between identical runs"
            )
    _report(9, "repeated CLI invocations are byte-identical for fixed seeds")
