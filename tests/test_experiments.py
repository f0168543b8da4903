import math

import pytest

from hypermod import (
    CardinalityDistribution,
    HParams,
    community_marginals,
    generate_g,
)
from hypermod.experiments import (
    beta_sweep,
    diagonal_profile,
    example_regressions,
    fig1_bound_vs_detected,
    g_vs_avin,
    matched_background_params,
    recurrence_check,
    uniform_block_params,
)


CONST = CardinalityDistribution.constant


def test_diagonal_profile_mass_split():
    for alpha in (0.0, 0.3):
        profile = diagonal_profile(5, alpha)
        assert sum(profile.probability((i,)) for i in range(5)) == pytest.approx(1 - alpha)
        s = community_marginals(profile)
        assert s == pytest.approx([(1 - alpha) / 5 + 2 * alpha / 5] * 5)
    assert len(diagonal_profile(5, 0.0).entries) == 5
    assert len(diagonal_profile(5, 0.2).entries) == 5 + 10


def test_uniform_block_params_targets_vertex_count():
    params = uniform_block_params(10, 0.2, 2, 0.25, 1.0, 5000)
    assert params.steps == math.ceil((5000 - 10) / 0.25)
    g, _, _ = generate_g(params, seed=0)
    assert abs(g.num_vertices - 5000) < 4 * math.sqrt(params.steps * 0.25 * 0.75)


def test_fig1_rows_small():
    options = {
        "uniformity": 2, "communities": 5, "alphas": [0.0, 0.4],
        "p": 0.25, "gamma": 1.0, "target_vertices": 800,
    }
    header, rows = fig1_bound_vs_detected(options, replicas=2, seed=1)
    assert header == ["alpha", "lemma3_bound", "detected_q2", "planted_q2"]
    assert [r[0] for r in rows] == [0.0, 0.4]
    for _, bound, detected, planted in rows:
        assert bound <= planted + 1e-9
        assert -1 < detected < 1


def test_fig1_deterministic():
    options = {
        "uniformity": 2, "communities": 4, "alphas": [0.2],
        "p": 0.25, "gamma": 1.0, "target_vertices": 400,
    }
    assert fig1_bound_vs_detected(options, 1, 7) == fig1_bound_vs_detected(options, 1, 7)


def test_matched_background_cardinality_mix():
    options = {"uniformity": 20, "p": 0.3, "target_vertices": 1000}
    params = matched_background_params(options, alpha=0.25)
    items = dict(params.attach_size.pmf_items())
    assert items == {20: pytest.approx(0.75), 40: pytest.approx(0.25)}
    assert params.p_vertex_edge == 0.3
    assert params.gamma == 0.0
    params0 = matched_background_params(options, alpha=0.0)
    assert params0.attach_size.max_value() == 20


def test_g_vs_avin_small():
    options = {
        "uniformity": 5, "communities": 5, "alphas": [0.2],
        "p": 0.3, "gamma": 1.0, "target_vertices": 1500,
    }
    header, rows = g_vs_avin(options, replicas=1, seed=3)
    assert header == ["alpha", "detected_q2_g", "detected_q2_background"]
    alpha, q_g, q_a = rows[0]
    assert q_g > q_a


def test_g_sweeps_share_one_g_replica():
    """For the same options and seed, both community sweeps detect on the
    same planted ``g`` replicas, so their ``g`` columns agree exactly."""
    options = {
        "uniformity": 3, "communities": 4, "alphas": [0.0, 0.3],
        "p": 0.3, "gamma": 1.0, "target_vertices": 300,
    }
    _, fig1 = fig1_bound_vs_detected(options, replicas=2, seed=5)
    _, versus = g_vs_avin(options, replicas=2, seed=5)
    assert [row[2] for row in fig1] == [row[1] for row in versus]


def test_beta_sweep_small():
    options = {
        "gamma_values": [0.0, 2.0],
        "params": HParams(0.0, 0.5, [0.5], CONST(3), [CONST(3)], edges_per_event=1, steps=20_000),
    }
    header, rows = beta_sweep(options, replicas=2, seed=4)
    assert header == ["gamma", "beta_theory", "beta_hat_mean", "beta_hat_sd"]
    # theory exponent grows with smoothing, and fits follow loosely
    assert rows[0][1] < rows[1][1]
    for _, theory, fitted, _sd in rows:
        assert abs(fitted - theory) < 0.5


def test_example_regressions_rows_are_exact():
    _, rows = example_regressions({}, 1, 0)
    assert len(rows) == 5
    for _, predicted, expected in rows:
        assert predicted == pytest.approx(expected, abs=1e-12)


def test_recurrence_check_rows():
    options = {
        "k_max": 6,
        "params": HParams(0.3, 0.3, [0.4], CONST(3), [CONST(3)], edges_per_event=1, gamma=1.0,
                          steps=5000),
    }
    header, rows = recurrence_check(options, replicas=5, seed=6)
    assert header == ["k", "per_vertex_limit", "empirical_mean", "empirical_stderr", "z"]
    assert [r[0] for r in rows] == list(range(7))
    for _, limit, mean, se, z in rows:
        assert se >= 0
        assert abs(z) < 6
