import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest
from scipy.stats import chi2

from hypermod import (
    CardinalityDistribution,
    GParams,
    HParams,
    InterCommunityProfile,
    community_marginals,
    generate_g,
    generate_h,
    predict_beta_h,
    reduce_community,
)
from hypermod import geng
from hypermod.genh import checkpoint_times
from hypermod.geng import expected_cardinality_size_pmf
from hypermod.hypergraph import Hypergraph
from hypermod.sampling import PreferentialSelector, make_rng

from helpers import recomputed_degrees, reference_select

CONST = CardinalityDistribution.constant


def make_gparams(p=0.4, gamma=1.0, steps=0):
    profile = InterCommunityProfile(
        {(0,): 0.6, (1,): 0.3, (0, 1): 0.1}, 2
    )
    return GParams(p, [0.5, 0.5], profile, [CONST(3), CONST(2)], gamma=gamma, steps=steps)


class TestProfile:
    def test_marginals_hand_sum(self):
        profile = InterCommunityProfile({(0,): 0.6, (1,): 0.3, (0, 1): 0.1}, 2)
        assert community_marginals(profile) == pytest.approx([0.7, 0.4])

    def test_singleton_only_marginals(self):
        profile = InterCommunityProfile({(0,): 0.4, (1,): 0.35, (2,): 0.25}, 3)
        assert community_marginals(profile) == pytest.approx([0.4, 0.35, 0.25])

    def test_full_set_marginals_are_one(self):
        profile = InterCommunityProfile({(0, 1, 2): 1.0}, 3)
        assert community_marginals(profile) == pytest.approx([1.0, 1.0, 1.0])

    def test_normalizes_small_drift(self):
        profile = InterCommunityProfile({(0,): 0.5 + 2e-7, (1,): 0.5}, 2)
        assert sum(profile.entries.values()) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            InterCommunityProfile({(0,): 0.4, (1,): 0.4}, 2)  # sums to 0.8
        with pytest.raises(ValueError):
            InterCommunityProfile({(0, 2): 1.0}, 2)  # community out of range
        with pytest.raises(ValueError):
            InterCommunityProfile({(0,): -0.5, (1,): 1.5}, 2)
        with pytest.raises(ValueError):
            InterCommunityProfile({}, 2)
        with pytest.raises(ValueError):
            InterCommunityProfile({(0, 0): 1.0}, 2)


def test_zero_steps_seed_hypergraph():
    g, planted, _ = generate_g(make_gparams(steps=0), seed=0)
    assert g.num_vertices == 2 and g.num_edges == 2
    assert planted.block_of == [0, 1]
    assert g.edges == [(0,), (1,)]


def test_vertices_only_when_p_is_one():
    profile = InterCommunityProfile({(0,): 0.7, (1,): 0.3}, 2)
    params = GParams(1.0, [0.7, 0.3], profile, [CONST(2), CONST(2)], steps=400)
    g, planted, stats = generate_g(params, seed=1)
    assert g.num_edges == 2
    assert g.num_vertices == 402
    sizes = Counter(planted.block_of)
    # multinomial(400, M) + 1 per community
    for j, m in enumerate([0.7, 0.3]):
        mean = 400 * m + 1
        sigma = math.sqrt(400 * m * (1 - m))
        assert abs(sizes[j] - mean) < 4 * sigma


def test_singleton_profile_keeps_edges_within_communities():
    profile = InterCommunityProfile({(0,): 0.5, (1,): 0.5}, 2)
    params = GParams(0.3, [0.5, 0.5], profile, [CONST(3), CONST(3)], gamma=1.0, steps=2000)
    g, planted, _ = generate_g(params, seed=2)
    for e in g.edges:
        assert len({planted.block_of[v] for v in e}) == 1


def test_forced_pair_profile_gives_one_vertex_per_community():
    profile = InterCommunityProfile({(0, 1): 1.0}, 2)
    params = GParams(0.3, [0.5, 0.5], profile, [CONST(1), CONST(1)], gamma=1.0, steps=1000)
    g, planted, _ = generate_g(params, seed=3)
    for e in g.edges[2:]:
        assert len(e) == 2
        assert sorted(planted.block_of[v] for v in e) == [0, 1]


def test_realized_community_sets_match_profile_frequencies():
    profile = InterCommunityProfile(
        {(0,): 0.35, (1,): 0.2, (2,): 0.15, (0, 1): 0.2, (1, 2): 0.1}, 3
    )
    params = GParams(0.2, [1 / 3] * 3, profile, [CONST(2)] * 3, gamma=1.0, steps=100_000)
    g, planted, stats = generate_g(params, seed=4)
    observed = Counter(
        tuple(sorted({planted.block_of[v] for v in e})) for e in g.edges[3:]
    )
    n = sum(observed.values())
    assert n == stats.event_counts["hyperedge"]
    stat = 0.0
    for subset, p in profile.items():
        expected = p * n
        stat += (observed.get(subset, 0) - expected) ** 2 / expected
    assert stat < chi2.ppf(1 - 1e-4, len(profile.entries) - 1)


def test_community_sizes_multinomial():
    params = make_gparams(p=0.5, steps=20_000)
    g, planted, stats = generate_g(params, seed=5)
    sizes = Counter(planted.block_of)
    n = stats.event_counts["vertex"]
    stat = sum(
        (sizes[j] - 1 - n * m) ** 2 / (n * m) for j, m in enumerate(params.membership)
    )
    assert stat < chi2.ppf(1 - 1e-4, params.num_communities - 1)


def test_crossing_fraction_converges_to_alpha():
    profile = InterCommunityProfile({(0,): 0.45, (1,): 0.25, (0, 1): 0.3}, 2)
    params = GParams(0.3, [0.5, 0.5], profile, [CONST(2), CONST(2)], gamma=1.0, steps=50_000)
    g, planted, stats = generate_g(params, seed=6)
    crossing = sum(1 for e in g.edges[2:] if len({planted.block_of[v] for v in e}) >= 2)
    alpha = 1 - (0.45 + 0.25)
    n = stats.event_counts["hyperedge"]
    sigma = math.sqrt(alpha * (1 - alpha) / n)
    assert abs(crossing / n - alpha) < 4 * sigma


def test_single_community_reduction_is_bit_identical():
    profile = InterCommunityProfile({(0,): 1.0}, 1)
    gparams = GParams(0.5, [1.0], profile, [CONST(3)], gamma=1.0, steps=5000)
    hparams = HParams(0.5, 0.0, [0.5], CONST(1), [CONST(3)], edges_per_event=1,
                      gamma=1.0, steps=5000)
    g, _, _ = generate_g(gparams, seed=42)
    h, _ = generate_h(hparams, seed=42)
    assert g.edges == h.edges
    assert g.num_vertices == h.num_vertices
    assert g.degrees == h.degrees


def _reference_g_step(g, community, params, urns, rng):
    """One step of the community process whose urns ``[(occ, pool), ...]``
    grow one membership at a time, each routed by the vertex's label in
    ``community``."""
    r = params.num_communities
    if rng.random() < params.p_vertex:
        cum = list(accumulate(params.membership))
        cum[-1] = 1.0
        j = 0 if r == 1 else bisect_right(cum, rng.random())
        urns[j][1].append(g.add_vertex())
        community.append(j)
        return ("vertex", j)
    subset = params.profile.sample(rng)
    members = []
    for c in subset:
        slot = 0 if r == 1 else int(rng.random() * r)
        count = params.edge_sizes[slot].sample(rng)
        members.extend(reference_select(*urns[c], count, params.gamma, rng))
    g.add_hyperedge(members)
    for v in members:
        urns[community[v]][0].append(v)
    return ("hyperedge", subset)


def _reference_generate_g(params, seed):
    """``generate_g`` on the reference step, with its statistics written out."""
    params.validate()
    rng = make_rng(seed)
    r = params.num_communities
    g = Hypergraph()
    community = list(range(r))
    urns = []
    for j in range(r):
        v = g.add_vertex()
        g.add_hyperedge([v])
        urns.append(([v], [v]))
    records, event_counts = [], {}

    def record(t):
        records.append((t, g.num_vertices, g.num_edges, g.degree_sum,
                        *[len(p) for _, p in urns], *[len(o) for o, _ in urns]))

    record(0)
    marks = checkpoint_times(params.steps)
    for t in range(1, params.steps + 1):
        kind = _reference_g_step(g, community, params, urns, rng)[0]
        event_counts[kind] = event_counts.get(kind, 0) + 1
        if t in marks:
            record(t)
    return g, community, (records, event_counts), rng


THREE = InterCommunityProfile(
    {(0,): 0.3, (1,): 0.2, (2,): 0.2, (0, 1): 0.15, (1, 2): 0.1, (0, 1, 2): 0.05}, 3
)
THREE_SIZES = [
    CardinalityDistribution.uniform_int(1, 4),
    CardinalityDistribution.shifted_poisson(1.5, 1),
    CONST(2),
]


@pytest.mark.parametrize("params", [
    GParams(0.5, [1.0], InterCommunityProfile({(0,): 1.0}, 1), [CONST(3)], gamma=1.0,
            steps=3000),
    GParams(0.3, [0.5, 0.3, 0.2], THREE, THREE_SIZES, gamma=0.0, steps=3000),
    GParams(0.3, [0.5, 0.3, 0.2], THREE, THREE_SIZES, gamma=1.5, steps=3000),
    GParams(1.0, [0.5, 0.3, 0.2], THREE, THREE_SIZES, gamma=1.0, steps=500),
], ids=["one_community", "three_gamma0", "three_gamma1.5", "p_one"])
def test_generate_g_matches_reference(monkeypatch, params):
    rngs, urns = [], []

    def recording_rng(seed):
        rngs.append(make_rng(seed))
        return rngs[-1]

    class RecordingSelector(PreferentialSelector):
        def __init__(self, gamma):
            super().__init__(gamma)
            urns.append(self)

    monkeypatch.setattr(geng, "make_rng", recording_rng)
    monkeypatch.setattr(geng, "PreferentialSelector", RecordingSelector)
    g, planted, stats = generate_g(params, seed=21)
    ref, ref_community, (records, event_counts), ref_rng = _reference_generate_g(params, 21)
    assert g.edges == ref.edges
    assert planted.block_of == ref_community
    assert stats.records == records
    assert stats.event_counts == event_counts
    r = params.num_communities
    assert stats.header == ["t", "vertices", "edges", "degree_sum",
                            *(f"size_{j}" for j in range(r)), *(f"deg_{j}" for j in range(r))]
    assert rngs[0].getstate() == ref_rng.getstate()
    # every urn holds exactly its community's memberships, in order
    for j, urn in enumerate(urns):
        assert list(urn.occurrences) == [v for v in g.members if planted.block_of[v] == j]
        assert urn.members == [v for v in range(g.num_vertices) if planted.block_of[v] == j]


def test_degree_cache_consistent_after_run():
    g, planted, _ = generate_g(make_gparams(steps=3000), seed=7)
    assert g.degrees == recomputed_degrees(g)
    assert g.degree_sum == sum(len(e) for e in g.edges)
    assert len(planted) == g.num_vertices


class TestReduceCommunity:
    def test_hand_reduction(self):
        profile = InterCommunityProfile({(0, 1): 1.0}, 2)
        params = GParams(0.5, [0.5, 0.5], profile, [CONST(2), CONST(2)], gamma=1.0)
        reduced = reduce_community(params, 0)
        assert reduced.p_vertex == pytest.approx(0.25)
        assert reduced.p_vertex_edge == 0.0
        # each of the r edge events carries (1-p) * s_j / r = 0.25, so the
        # total edge-event rate matches (1-p) * s_j
        assert reduced.p_edge == pytest.approx([0.25, 0.25])
        assert sum(reduced.p_edge) == pytest.approx((1 - 0.5) * 1.0)
        assert reduced.edges_per_event == 1

    def test_zero_touch_probability_disables_edges(self):
        profile = InterCommunityProfile({(0,): 1.0}, 2)
        params = GParams(0.5, [0.5, 0.5], profile, [CONST(2), CONST(2)], gamma=1.0)
        reduced = reduce_community(params, 1)
        assert reduced.p_edge == [0.0, 0.0]
        assert reduced.p_vertex == pytest.approx(0.25)

    def test_reduction_beta_matches_direct_formula(self):
        import random

        rng = random.Random(13)
        for _ in range(25):
            r = rng.randint(1, 4)
            mem = [rng.random() + 0.1 for _ in range(r)]
            total = sum(mem)
            mem = [m / total for m in mem]
            entries = {}
            subsets = [(i,) for i in range(r)]
            if r >= 2:
                subsets += [(i, j) for i in range(r) for j in range(i + 1, r)]
            weights = [rng.random() + 0.05 for _ in subsets]
            wtotal = sum(weights)
            for s, w in zip(subsets, weights):
                entries[s] = w / wtotal
            profile = InterCommunityProfile(entries, r)
            sizes = [CONST(rng.randint(1, 5)) for _ in range(r)]
            p = rng.uniform(0.1, 0.9)
            gamma = rng.uniform(0.0, 3.0)
            params = GParams(p, mem, profile, sizes, gamma=gamma)
            s = community_marginals(profile)
            mu_bar = sum(d.mean() for d in sizes) / r
            for j in range(r):
                beta_direct = 2 + gamma * p * mem[j] / ((1 - p) * s[j] * mu_bar)
                beta_reduced = predict_beta_h(reduce_community(params, j)).beta
                assert beta_reduced == pytest.approx(beta_direct, abs=1e-12)


def test_expected_size_pmf_matches_empirical():
    profile = InterCommunityProfile({(0,): 0.5, (1,): 0.2, (0, 1): 0.3}, 2)
    params = GParams(
        0.3, [0.5, 0.5], profile,
        [CardinalityDistribution.categorical([2, 3], [0.5, 0.5]), CONST(4)],
        gamma=1.0, steps=100_000,
    )
    pmf = expected_cardinality_size_pmf(params)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-9)
    g, _, stats = generate_g(params, seed=8)
    observed = Counter(len(e) for e in g.edges[2:])
    n = stats.event_counts["hyperedge"]
    for size, p in pmf.items():
        if p < 1e-4:
            continue
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(observed.get(size, 0) / n - p) < 4 * sigma


def test_validate_and_generate_leave_membership_as_given():
    """Validation checks the membership law and never rewrites it: a
    replica that re-divided it by its sum would draw from a law that drifts
    with the number of runs."""
    r = 47
    membership = [1.0 / r] * r
    profile = InterCommunityProfile({(j,): 1.0 / r for j in range(r)}, r)
    params = GParams(0.5, list(membership), profile, [CONST(2)] * r, steps=50)
    params.validate()
    assert params.membership == membership
    for seed in range(4):
        generate_g(params, seed)
        assert all(a.hex() == b.hex() for a, b in zip(params.membership, membership))


def test_invalid_params_rejected():
    profile = InterCommunityProfile({(0,): 1.0}, 1)
    with pytest.raises(ValueError):
        GParams(0.0, [1.0], profile, [CONST(2)]).validate()
    with pytest.raises(ValueError):
        GParams(0.5, [0.6, 0.6], profile, [CONST(2)]).validate()
    with pytest.raises(ValueError):
        GParams(0.5, [1.0], profile, [CONST(2), CONST(2)]).validate()
    with pytest.raises(ValueError):
        GParams(0.5, [0.5, 0.5], profile, [CONST(2), CONST(2)]).validate()
