import math

import pytest
from scipy.stats import binom, chi2

from hypermod import CardinalityDistribution, HParams, generate_h
from hypermod import genh
from hypermod.genh import (
    EVENT_NOTHING,
    EVENT_VERTEX,
    EVENT_VERTEX_EDGES,
    RunStats,
    checkpoint_times,
    h_step,
    initial_hypergraph,
    sample_size,
)
from hypermod.sampling import make_rng, select_vertices

from helpers import recomputed_degrees, reference_select

CONST = CardinalityDistribution.constant


def ba_params(m=3, steps=0):
    return HParams(0.0, 1.0, [], CONST(2), [], edges_per_event=m, gamma=0.0, steps=steps)


def test_zero_steps_is_the_seed_hypergraph():
    h, stats = generate_h(ba_params(steps=0), seed=0)
    assert (h.num_vertices, h.num_edges, h.degree_sum) == (1, 1, 1)
    assert stats.records == [(0, 1, 1, 1, 1.0)]


def test_pure_vertex_process():
    params = HParams(1.0, 0.0, [], CONST(1), [], steps=50)
    h, _ = generate_h(params, seed=1)
    assert h.num_vertices == 51
    assert h.num_edges == 1
    assert h.degrees[1:] == [0] * 50


def test_ba_configuration_counts():
    h, _ = generate_h(ba_params(m=3, steps=400), seed=2)
    assert h.num_vertices == 401
    assert h.num_edges == 3 * 400 + 1
    assert h.degree_sum == 6 * 400 + 1
    assert all(len(e) == 2 for e in h.edges[1:])


def test_edges_only_event_accounting():
    params = HParams(0.0, 0.0, [1.0], CONST(1), [CONST(3)], edges_per_event=2, steps=30)
    h, _ = generate_h(params, seed=3)
    assert h.num_vertices == 1
    assert h.num_edges == 1 + 2 * 30
    assert all(len(e) == 3 for e in h.edges[1:])


def test_attachment_edges_contain_the_new_vertex():
    params = HParams(0.1, 0.6, [0.3], CONST(3), [CONST(2)], edges_per_event=2,
                     gamma=1.0, steps=500)
    h = initial_hypergraph()
    rng = make_rng(17)
    for t in range(1, params.steps + 1):
        before = h.num_edges
        n_before = h.num_vertices
        tag = h_step(h, params, t, rng)
        if tag == "vertex+edges":
            new_vertex = h.num_vertices - 1
            added = h.edges[before:]
            assert len(added) == 2
            assert all(new_vertex in e for e in added)
            assert all(len(e) == 3 for e in added)
        elif tag == "vertex":
            assert h.num_vertices == n_before + 1 and h.num_edges == before
    assert h.degrees == recomputed_degrees(h)


def test_shared_cardinality_across_batch():
    params = HParams(0.0, 0.0, [1.0], CONST(1), [CardinalityDistribution.uniform_int(1, 6)],
                     edges_per_event=3, steps=200)
    h, _ = generate_h(params, seed=4)
    edges = h.edges
    for i in range(1, h.num_edges, 3):
        batch = edges[i:i + 3]
        assert len({len(e) for e in batch}) == 1


def test_nothing_event_absorbs_remaining_mass():
    params = HParams(0.1, 0.0, [0.1], CONST(1), [CONST(2)], steps=2000)
    h, stats = generate_h(params, seed=5)
    assert stats.event_counts.get("nothing", 0) > 1000
    assert h.num_vertices - 1 + (h.num_edges - 1) == 2000 - stats.event_counts["nothing"]


def test_vertex_count_law():
    # p_v + p_ve = 1 makes the binomial count deterministic
    params = HParams(0.5, 0.5, [], CONST(2), [], gamma=0.0, steps=100_000)
    h, _ = generate_h(params, seed=6)
    assert h.num_vertices == params.steps + 1
    # a mixed configuration stays within four sigma of its binomial mean
    params = HParams(0.25, 0.25, [0.25], CONST(2), [CONST(2)], gamma=0.0, steps=100_000)
    h, _ = generate_h(params, seed=7)
    mean = 0.5 * params.steps + 1
    sigma = math.sqrt(params.steps * 0.5 * 0.5)
    assert abs(h.num_vertices - mean) < 4 * sigma


def _chi_square_binomial(observed, n, p, bins=8):
    """Chi-square statistic of observed counts against Binomial(n, p)."""
    quantiles = [binom.ppf(i / bins, n, p) for i in range(1, bins)]
    edges = sorted(set(int(q) for q in quantiles))
    cells = len(edges) + 1

    def cell_of(x):
        for i, e in enumerate(edges):
            if x <= e:
                return i
        return len(edges)

    counts = [0] * cells
    for x in observed:
        counts[cell_of(x)] += 1
    prev = 0.0
    stat = 0.0
    total = len(observed)
    for i in range(cells):
        hi = binom.cdf(edges[i], n, p) if i < len(edges) else 1.0
        expected = (hi - prev) * total
        prev = hi
        if expected > 0:
            stat += (counts[i] - expected) ** 2 / expected
    return stat, cells - 1


def test_count_laws_by_chi_square():
    params = HParams(0.3, 0.3, [0.2], CONST(2), [CONST(3)], edges_per_event=2,
                     gamma=1.0, steps=1000)
    vs, es = [], []
    for s in range(200):
        h, _ = generate_h(params, seed=3000 + s)
        vs.append(h.num_vertices - 1)
        es.append((h.num_edges - 1) // 2)
        assert (h.num_edges - 1) % 2 == 0
    for observed, p in ((vs, 0.6), (es, 0.5)):
        stat, df = _chi_square_binomial(observed, 1000, p)
        assert stat < chi2.ppf(1 - 1e-4, df)


def test_cardinality_cap_rejects_large_sizes():
    params = HParams(0.0, 0.5, [0.5], CardinalityDistribution.uniform_int(1, 50),
                     [CardinalityDistribution.uniform_int(1, 50)],
                     gamma=1.0, steps=300, cap_sizes=True)
    h = initial_hypergraph()
    rng = make_rng(8)
    for t in range(1, params.steps + 1):
        before = h.num_edges
        h_step(h, params, t, rng)
        cap = max(2, math.ceil(t ** 0.25))
        for e in h.edges[before:]:
            assert len(e) < cap


def test_weight_sum_concentration():
    # attachment sizes >= 2 so the additive drift bound applies
    params = HParams(0.2, 0.4, [0.3], CONST(3), [CardinalityDistribution.uniform_int(2, 4)],
                     edges_per_event=2, gamma=1.5, steps=10_000)
    vertex_rate = 0.6
    degree_rate = 2 * (0.4 * 3 + 0.3 * 3.0)
    drift = degree_rate + params.gamma * vertex_rate
    t = params.steps
    margin = params.edges_per_event * t ** 0.75 * math.sqrt(2 * math.log(t))
    w0 = 1 + params.gamma
    inside = 0
    for s in range(100):
        _, stats = generate_h(params, seed=900 + s)
        w_t = stats.records[-1][4]
        if abs(w_t - (drift * t + w0)) <= margin:
            inside += 1
    assert inside >= 99


def test_checkpoints_are_geometric_plus_final():
    assert checkpoint_times(10) == {1, 2, 4, 8, 10}
    assert checkpoint_times(8) == {1, 2, 4, 8}
    assert checkpoint_times(0) == set()
    _, stats = generate_h(ba_params(m=1, steps=10), seed=0)
    assert [r[0] for r in stats.records] == [0, 1, 2, 4, 8, 10]
    for t, v, e, d, w in stats.records:
        assert w == d + 0.0 * v


def test_invalid_params_rejected_before_stepping():
    with pytest.raises(ValueError):
        generate_h(HParams(0.6, 0.6, [], CONST(2), [], steps=10), seed=0)
    with pytest.raises(ValueError):
        generate_h(HParams(0.0, 0.0, [], CONST(2), [], steps=10), seed=0)
    with pytest.raises(ValueError):
        generate_h(HParams(0.5, 0.0, [0.5], CONST(2), [], steps=10), seed=0)
    with pytest.raises(ValueError):
        generate_h(HParams(0.5, 0.5, [], CONST(2), [], edges_per_event=0, steps=10), seed=0)
    with pytest.raises(ValueError):
        generate_h(HParams(0.5, 0.5, [], CONST(2), [], gamma=-1.0, steps=10), seed=0)


def test_attachment_size_one_creates_lone_vertex_edge():
    # size-1 attachment: the new vertex's edge contains nobody else
    params = HParams(0.0, 1.0, [], CONST(1), [], edges_per_event=2, gamma=1.0, steps=50)
    h, _ = generate_h(params, seed=9)
    assert h.num_vertices == 51
    for i, e in enumerate(h.edges[1:], start=0):
        assert len(e) == 1
    assert h.degrees[1:] == [2] * 50  # two edges per event, one slot each


def test_stats_weight_column_tracks_smoothing():
    params = HParams(0.3, 0.3, [0.4], CONST(3), [CONST(3)], gamma=2.5, steps=64)
    _, stats = generate_h(params, seed=10)
    for t, v, e, d, w in stats.records:
        assert w == pytest.approx(d + 2.5 * v)


def _reference_h_step(h, params, occ, pool, t, rng):
    """One step of the general process drawn from an occurrence list of its
    own, grown one membership at a time: the simple path ``h_step`` replaces."""
    u = rng.random()
    if u < params.p_vertex:
        pool.append(h.add_vertex())
        return EVENT_VERTEX
    u -= params.p_vertex
    m, gamma = params.edges_per_event, params.gamma
    if u < params.p_vertex_edge:
        y = sample_size(params.attach_size, t, params.cap_sizes, rng)
        new_edges = [reference_select(occ, pool, y - 1, gamma, rng) for _ in range(m)]
        v = h.add_vertex()
        pool.append(v)
        for others in new_edges:
            others.append(v)
            h.add_hyperedge(others)
            occ.extend(others)
        return EVENT_VERTEX_EDGES
    u -= params.p_vertex_edge
    for i, p in enumerate(params.p_edge):
        if u < p:
            x = sample_size(params.edge_sizes[i], t, params.cap_sizes, rng)
            new_edges = [reference_select(occ, pool, x, gamma, rng) for _ in range(m)]
            for members in new_edges:
                h.add_hyperedge(members)
                occ.extend(members)
            return f"edges:{i}"
        u -= p
    return EVENT_NOTHING


def _reference_generate_h(params, seed):
    rng = make_rng(seed)
    h = initial_hypergraph()
    occ, pool = [0], [0]
    stats = RunStats()
    stats.record(0, h, params.gamma)
    marks = checkpoint_times(params.steps)
    for t in range(1, params.steps + 1):
        tag = _reference_h_step(h, params, occ, pool, t, rng)
        stats.event_counts[tag] = stats.event_counts.get(tag, 0) + 1
        if t in marks:
            stats.record(t, h, params.gamma)
    assert list(h.members) == occ
    return h, stats, rng


POISSON = CardinalityDistribution.shifted_poisson(1.5, 2)
CATEGORICAL = CardinalityDistribution.categorical([2, 5], [0.7, 0.3])
UNIFORM = CardinalityDistribution.uniform_int(1, 50)


@pytest.mark.parametrize("params", [
    ba_params(m=3, steps=3000),
    HParams(0.2, 0.4, [0.4], CONST(3), [CONST(2)], edges_per_event=2, gamma=1.5, steps=3000),
    HParams(0.2, 0.4, [0.4], POISSON, [CATEGORICAL], edges_per_event=2, gamma=1.0, steps=3000),
    HParams(0.0, 0.5, [0.5], UNIFORM, [UNIFORM], gamma=1.0, steps=3000, cap_sizes=True),
    HParams(0.1, 0.2, [0.2, 0.1], CONST(2), [POISSON, CONST(1)], edges_per_event=3,
            gamma=0.5, steps=3000),
    # size-1 attachment edges: the step draws no vertex for its m >= 2 edges
    HParams(0.2, 0.5, [0.3], CONST(1), [CONST(2)], edges_per_event=3, steps=3000),
    # the early cap of 2 and the fallback to size 1 give size-1 attachment edges
    HParams(0.1, 0.6, [0.3], UNIFORM, [POISSON], edges_per_event=2, gamma=0.5, steps=3000,
            cap_sizes=True),
], ids=["ba", "gamma", "poisson_categorical", "cap_sizes", "p_nothing", "size_one_attach",
        "cap_sizes_m2"])
def test_generate_h_matches_selector_reference(monkeypatch, params):
    rngs = []

    def recording_rng(seed):
        rngs.append(make_rng(seed))
        return rngs[-1]

    monkeypatch.setattr(genh, "make_rng", recording_rng)
    h, stats = generate_h(params, seed=21)
    ref, ref_stats, ref_rng = _reference_generate_h(params, seed=21)
    assert h.edges == ref.edges
    assert h.degrees == ref.degrees
    assert stats.records == ref_stats.records
    assert stats.event_counts == ref_stats.event_counts
    assert rngs[0].getstate() == ref_rng.getstate()


def test_one_selection_call_per_edge_step(monkeypatch):
    calls = []

    def spy(occ, pool, count, gamma, rng):
        calls.append(count)
        return select_vertices(occ, pool, count, gamma, rng)

    monkeypatch.setattr(genh, "select_vertices", spy)
    params = HParams(0.1, 0.3, [0.3, 0.2], POISSON, [CATEGORICAL, CONST(1)],
                     edges_per_event=3, gamma=1.0, steps=2000)
    _, stats = generate_h(params, seed=5)
    counts = stats.event_counts
    assert counts[EVENT_VERTEX_EDGES] and counts["edges:0"] and counts["edges:1"]
    assert len(calls) == counts[EVENT_VERTEX_EDGES] + counts["edges:0"] + counts["edges:1"]
    assert all(count % 3 == 0 for count in calls)
