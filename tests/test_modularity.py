import random

import pytest

from hypermod import (
    Hypergraph,
    Partition,
    brute_force_modularity,
    cardinality_profile,
    flatten,
    graph_modularity_score,
    hypergraph_modularity_score,
    weighted_graph_modularity,
)

from helpers import blocks, naive_score


def build(num_vertices, edges):
    h = Hypergraph()
    for _ in range(num_vertices):
        h.add_vertex()
    for e in edges:
        h.add_hyperedge(e)
    return h


def random_hypergraph(rng, max_vertices=10, max_edges=8):
    n = rng.randint(2, max_vertices)
    h = Hypergraph()
    for _ in range(n):
        h.add_vertex()
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(1, 5)
        h.add_hyperedge([rng.randrange(n) for _ in range(size)])
    return h


class TestGraphScore:
    def test_single_edge_one_block_is_zero(self):
        h = build(2, [[0, 1]])
        assert graph_modularity_score(h, Partition([0, 0])).score == pytest.approx(0.0)

    def test_single_edge_split(self):
        h = build(2, [[0, 1]])
        res = graph_modularity_score(h, Partition([0, 1]))
        assert res.score == pytest.approx(-0.5)
        assert res.edge_contribution == 0.0
        assert res.degree_tax == pytest.approx(0.5)

    def test_two_disjoint_edges_by_component(self):
        h = build(4, [[0, 1], [2, 3]])
        res = graph_modularity_score(h, Partition([0, 0, 1, 1]))
        assert res.score == pytest.approx(0.5)

    def test_self_loop_is_internal(self):
        h = build(2, [[0, 0], [0, 1]])
        res = graph_modularity_score(h, Partition([0, 1]))
        assert res.edge_contribution == pytest.approx(0.5)

    def test_rejects_non_two_uniform(self):
        h = build(3, [[0, 1, 2]])
        with pytest.raises(ValueError):
            graph_modularity_score(h, Partition([0, 0, 0]))

    def test_non_two_uniform_error_names_first_offending_size(self):
        h = build(3, [[0, 1], [0, 1, 2], [2], [0, 1]])
        with pytest.raises(ValueError, match=r"^graph modularity needs 2-uniform input, "
                                             r"found cardinality 3$"):
            graph_modularity_score(h, Partition([0, 0, 0]))

    def test_empty_edge_set_scores_zero(self):
        h = build(3, [])
        assert graph_modularity_score(h, Partition([0, 0, 0])).score == 0.0


class TestHypergraphScore:
    def test_one_block_scores_zero(self):
        rng = random.Random(0)
        for _ in range(20):
            h = random_hypergraph(rng)
            res = hypergraph_modularity_score(h, Partition.one_block(h.num_vertices))
            assert res.score == pytest.approx(0.0, abs=1e-12)

    def test_two_disjoint_triples(self):
        h = build(6, [[0, 1, 2], [3, 4, 5]])
        res = hypergraph_modularity_score(h, Partition([0, 0, 0, 1, 1, 1]))
        assert res.score == pytest.approx(0.75)

    def test_two_uniform_matches_graph_definition(self):
        # a multigraph keeps parallel edges and self-loops, as the 2-uniform score does
        nx = pytest.importorskip("networkx")
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(2, 9)
            h = build(n, [])
            graph = nx.MultiGraph()
            graph.add_nodes_from(range(n))
            for _ in range(rng.randint(1, 8)):
                e = [rng.randrange(n), rng.randrange(n)]
                h.add_hyperedge(e)
                graph.add_edge(*e)
            part = Partition([rng.randrange(3) for _ in range(n)], 3)
            expected = nx.community.modularity(graph, [b for b in blocks(part) if b])
            assert graph_modularity_score(h, part).score == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_evaluation_on_random_instances(self):
        rng = random.Random(2)
        for _ in range(60):
            h = random_hypergraph(rng)
            part = Partition([rng.randrange(4) for _ in range(h.num_vertices)], 4)
            assert hypergraph_modularity_score(h, part).score == pytest.approx(
                naive_score(h, part), abs=1e-12
            )

    def test_relabeling_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            h = random_hypergraph(rng)
            n = h.num_vertices
            labels = [rng.randrange(3) for _ in range(n)]
            base = hypergraph_modularity_score(h, Partition(labels, 3)).score
            # permute vertices
            perm = list(range(n))
            rng.shuffle(perm)
            h2 = Hypergraph()
            for _ in range(n):
                h2.add_vertex()
            for e in h.edges:
                h2.add_hyperedge([perm[v] for v in e])
            relabeled = [0] * n
            for v in range(n):
                relabeled[perm[v]] = labels[v]
            assert hypergraph_modularity_score(h2, Partition(relabeled, 3)).score == pytest.approx(
                base, abs=1e-12
            )
            # permute block names
            blockperm = [2, 0, 1]
            renamed = [blockperm[b] for b in labels]
            assert hypergraph_modularity_score(h, Partition(renamed, 3)).score == pytest.approx(
                base, abs=1e-12
            )

    def test_score_in_open_interval(self):
        rng = random.Random(4)
        for _ in range(40):
            h = random_hypergraph(rng)
            part = Partition([rng.randrange(5) for _ in range(h.num_vertices)], 5)
            assert -1.0 < hypergraph_modularity_score(h, part).score < 1.0


class TestBruteForce:
    def test_disjoint_triangles(self):
        h = build(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
        part, q = brute_force_modularity(h)
        assert q == pytest.approx(0.5)
        assert part == Partition([0, 0, 0, 1, 1, 1])

    def test_single_hyperedge_maximum_is_zero(self):
        h = build(3, [[0, 1, 2]])
        _, q = brute_force_modularity(h)
        assert q == pytest.approx(0.0)

    def test_isolated_vertices_do_not_change_optimum(self):
        h = build(5, [[0, 1]])
        _, q = brute_force_modularity(h)
        assert q == pytest.approx(0.0)

    def test_vertex_cap_enforced(self):
        h = build(13, [[0, 1]])
        with pytest.raises(ValueError):
            brute_force_modularity(h)

    def test_never_below_any_sampled_partition(self):
        rng = random.Random(5)
        for _ in range(10):
            h = random_hypergraph(rng, max_vertices=7, max_edges=5)
            _, q = brute_force_modularity(h)
            for _ in range(30):
                part = Partition([rng.randrange(3) for _ in range(h.num_vertices)], 3)
                assert q >= hypergraph_modularity_score(h, part).score - 1e-12


class TestFlatten:
    def test_triple_becomes_triangle(self):
        wg = flatten(build(3, [[0, 1, 2]]))
        assert wg.weights == {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}

    def test_repeated_vertex_contributes_single_pair(self):
        wg = flatten(build(2, [[0, 0, 1]]))
        assert wg.weights == {(0, 1): 1.0}

    def test_parallel_edges_accumulate_weight(self):
        wg = flatten(build(2, [[0, 1], [0, 1]]))
        assert wg.weights == {(0, 1): 2.0}

    def test_pure_self_loop_vanishes(self):
        wg = flatten(build(1, [[0, 0]]))
        assert wg.weights == {}

    def test_adjacency_is_symmetric_and_views_derive_from_it(self):
        wg = flatten(build(4, [[0, 1, 2], [2, 1], [3, 3]]))
        # CSR rows 0: {1: 1, 2: 1}, 1: {0: 1, 2: 2}, 2: {0: 1, 1: 2}, 3: {}
        assert wg.indptr.tolist() == [0, 2, 4, 6, 6]
        assert wg.indices.tolist() == [1, 2, 0, 2, 0, 1]
        assert wg.data.tolist() == [1, 1, 1, 2, 1, 2]
        assert wg.degrees().tolist() == [2, 3, 3, 0]
        assert wg.weights == {(0, 1): 1, (0, 2): 1, (1, 2): 2}
        assert wg.total_weight == 4.0
        assert wg.edge_list() == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 2.0)]

    def test_weighted_modularity_of_flattened_matches_graph_score(self):
        # without multiplicities or self-loops flattening is the identity
        h = build(4, [[0, 1], [2, 3], [1, 2]])
        wg = flatten(h)
        part = Partition([0, 0, 1, 1])
        assert weighted_graph_modularity(wg, part) == pytest.approx(
            graph_modularity_score(h, part).score
        )


class TestCardinalityProfile:
    def test_uniform_hypergraph(self):
        h = build(25, [list(range(i, i + 20)) for i in range(5)])
        prof = cardinality_profile(h)
        assert prof.a == {20: 1.0}
        assert prof.delta == 20.0
        assert prof.max_cardinality == 20

    def test_mixed_cardinalities(self):
        h = build(5, [[0, 1], [1, 2], [0, 1, 2], [2, 3, 4]])
        prof = cardinality_profile(h)
        assert prof.a == {2: 0.5, 3: 0.5}
        assert prof.delta == pytest.approx(2.5)

    def test_empty_edge_set_errors(self):
        with pytest.raises(ValueError):
            cardinality_profile(build(3, []))


def test_partition_helpers():
    part = Partition([2, 2, 0, 1])
    assert part.num_blocks == 3
    assert blocks(part) == [[2], [3], [0, 1]]
    assert part.relabeled().block_of == [0, 0, 1, 2]
    assert Partition([0, 0, 1]) == Partition([1, 1, 0])
    with pytest.raises(ValueError):
        Partition([0, 3], num_blocks=2)
