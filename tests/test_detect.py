import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hypermod import (
    Hypergraph,
    Partition,
    WeightedGraph,
    brute_force_modularity,
    detect_communities,
    flatten,
    graph_modularity_score,
    hypergraph_modularity_score,
    weighted_graph_modularity,
)
from hypermod.experiments import uniform_block_params
from hypermod.geng import generate_g
from hypermod.louvain import MIN_GAIN, _aggregate, _one_level


def clique_hypergraph(cliques, extra_edges=()):
    n = max(max(c) for c in cliques) + 1
    h = Hypergraph()
    for _ in range(n):
        h.add_vertex()
    for c in cliques:
        for u, v in itertools.combinations(c, 2):
            h.add_hyperedge([u, v])
    for u, v in extra_edges:
        h.add_hyperedge([u, v])
    return h


def weighted_graph(n, triples):
    """A graph on ``n`` vertices from (u, v, weight) triples with integer
    weights; repeated pairs add up."""
    weights = Counter()
    for u, v, w in triples:
        weights[min(u, v), max(u, v)] += w
    pairs = sorted(weights)
    return WeightedGraph.from_pair_counts(n, [u * n + v for u, v in pairs],
                                          [weights[pair] for pair in pairs])


def one_level(wg, order):
    """``_one_level`` on a whole graph, every vertex starting alone."""
    return _one_level(wg.indptr.tolist(), wg.indices.tolist(), wg.data.tolist(),
                      wg.degrees().tolist(), wg.total_weight, order, list(range(wg.num_vertices)))


def random_triples(rng, n, count, weights):
    """``count`` draws of a vertex pair, self-pairs dropped, each with a drawn weight."""
    triples = []
    for _ in range(count):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            triples.append((u, v, rng.choice(weights)))
    return triples


def test_two_cliques_recovered_exactly():
    h = clique_hypergraph([range(5), range(5, 10)])
    part = detect_communities(flatten(h), seed=0)
    assert part == Partition([0] * 5 + [1] * 5)
    assert graph_modularity_score(h, part).score == pytest.approx(0.5)


def test_ring_of_cliques():
    cliques = [range(i * 8, (i + 1) * 8) for i in range(4)]
    bridges = [(7, 8), (15, 16), (23, 24), (31, 0)]
    h = clique_hypergraph(cliques, bridges)
    planted = Partition([v // 8 for v in range(32)])
    planted_q = graph_modularity_score(h, planted).score
    assert planted_q > 0.7
    part = detect_communities(flatten(h), seed=1)
    detected_q = graph_modularity_score(h, part).score
    assert detected_q >= planted_q - 1e-12
    assert part.num_blocks == 4


def test_matches_brute_force_on_disjoint_cliques():
    h = clique_hypergraph([range(4), range(4, 8)])
    part = detect_communities(flatten(h), seed=2)
    best_part, best_q = brute_force_modularity(h)
    assert hypergraph_modularity_score(h, part).score == pytest.approx(best_q)
    assert part == best_part


def test_never_beats_brute_force_on_small_instances():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(3, 8)
        h = Hypergraph()
        for _ in range(n):
            h.add_vertex()
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, 4)
            h.add_hyperedge([rng.randrange(n) for _ in range(size)])
        _, best_q = brute_force_modularity(h)
        part = detect_communities(flatten(h), seed=rng.randrange(1000))
        assert hypergraph_modularity_score(h, part).score <= best_q + 1e-9


def test_planted_two_uniform_blocks_near_tight_score():
    params = uniform_block_params(10, 0.0, 2, 0.25, 1.0, 2000)
    g, _, _ = generate_g(params, seed=5)
    part = detect_communities(flatten(g), seed=5)
    assert hypergraph_modularity_score(g, part).score == pytest.approx(0.9, abs=0.05)


def test_result_at_least_singletons_and_one_block():
    rng = random.Random(6)
    for trial in range(15):
        n = rng.randint(3, 12)
        wg = weighted_graph(n, random_triples(rng, n, rng.randint(1, 2 * n), [1, 2]))
        if not wg.total_weight:
            continue
        part = detect_communities(wg, seed=trial)
        q = weighted_graph_modularity(wg, part)
        assert q >= weighted_graph_modularity(wg, Partition.singletons(n)) - 1e-12
        assert q >= 0.0


def test_empty_graph_gives_singletons():
    wg = WeightedGraph.from_pair_counts(4, [], [])
    part = detect_communities(wg, seed=0)
    assert part == Partition.singletons(4)


def test_deterministic_for_fixed_seed():
    rng = random.Random(7)
    wg = weighted_graph(30, random_triples(rng, 30, 80, [1]))
    a = detect_communities(wg, seed=11)
    b = detect_communities(wg, seed=11)
    assert a.block_of == b.block_of


def test_aggregate_sums_member_degrees_and_crossing_weights():
    # blocks {0, 1} and {2, 3} are joined by an edge; blocks {4} and {5, 6} have
    # none outside themselves
    wg = weighted_graph(7, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (5, 6, 3)])
    agg, new_k = _aggregate(wg, wg.degrees(), np.array([0, 0, 1, 1, 2, 3, 3]), 4)
    # rows 0: {1: 2}, 1: {0: 2}; the edgeless supervertices 2 and 3 have empty rows
    assert agg.indptr.tolist() == [0, 1, 2, 2, 2]
    assert agg.indices.tolist() == [1, 0] and agg.data.tolist() == [2, 2]
    assert new_k.tolist() == [4, 4, 0, 6]


def test_one_level_leaves_no_improving_move():
    rng = random.Random(8)
    moves_checked = 0
    for _ in range(120):
        n = rng.randint(4, 10)
        # weights 1, 2 and 4: the 0.5, 1 and 2 of the float-weight graphs, doubled,
        # which leaves every modularity value as it was
        wg = weighted_graph(n, random_triples(rng, n, rng.randint(3, 20), [1, 2, 4]))
        if not wg.total_weight:
            continue
        order = list(range(n))
        rng.shuffle(order)
        block = one_level(wg, order)
        part = Partition(block)
        q = weighted_graph_modularity(wg, part)
        assert q >= weighted_graph_modularity(wg, Partition.singletons(n))
        # every single-vertex move, to an existing block or a fresh one
        for v in range(n):
            for target in range(part.num_blocks + 1):
                if target == block[v]:
                    continue
                moved = list(block)
                moved[v] = target
                after = weighted_graph_modularity(wg, Partition(moved, part.num_blocks + 1))
                assert after - q <= MIN_GAIN
                moves_checked += 1
    assert moves_checked > 1000


def test_detection_memory_is_linear_in_the_csr_arrays():
    # 200k vertices and one edge: flatten makes an 8-byte indptr entry per
    # vertex. Detection then holds, per vertex, the block list of local moving
    # (an 8-byte slot and a 32-byte int), lists of small ints (8 bytes a slot)
    # and int64 arrays (8 bytes an entry), about 13 indptr entries' worth at
    # its peak. The bound allows 20: a dict per vertex costs 64 bytes on its
    # own, and a dict-of-dicts adjacency peaks at about 38.
    n = 200_000
    h = Hypergraph()
    for _ in range(n):
        h.add_vertex()
    h.add_hyperedge([0, n - 1])
    tracemalloc.start()
    try:
        wg = flatten(h)
        part = detect_communities(wg, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.num_blocks == n - 1
    assert peak < 20 * wg.indptr.nbytes
