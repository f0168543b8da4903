import random
from array import array

import pytest

from hypermod import Hypergraph

from helpers import recomputed_degrees


def test_first_vertex_of_empty_hypergraph():
    h = Hypergraph()
    v = h.add_vertex()
    assert v == 0
    assert h.degrees[0] == 0


def test_vertex_ids_are_contiguous():
    h = Hypergraph()
    for _ in range(5):
        h.add_vertex()
    assert h.add_vertex() == 5


def test_self_loop_multiplicity_counts_twice():
    h = Hypergraph()
    h.add_vertex()
    h.add_hyperedge([0, 0])
    assert h.degrees[0] == 2
    assert h.degree_sum == 2


def test_plain_edge_increments_each_member():
    h = Hypergraph()
    for _ in range(3):
        h.add_vertex()
    h.add_hyperedge([0, 1, 2])
    assert h.degrees == [1, 1, 1]
    assert h.degree_sum == 3


def test_triple_appearance_lands_in_histogram():
    h = Hypergraph()
    for _ in range(2):
        h.add_vertex()
    h.add_hyperedge([1, 1, 1])
    hist = h.degree_histogram()
    assert hist.counts[3] == 1
    assert hist.counts[0] == 1


def test_rejects_empty_edge_and_bad_ids():
    h = Hypergraph()
    for _ in range(5):
        h.add_vertex()
    h.add_hyperedge([0, 4, 4])
    cases = [
        ([], "hyperedge must be non-empty"),
        ([0, -1], "invalid vertex id -1"),
        ([1, 5], "invalid vertex id 5"),
        ([5, -1], "invalid vertex id -1"),  # the low end is reported first
    ]
    for ids, message in cases:
        for members in (list(ids), array("q", ids)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                h.add_hyperedge(members)
            assert list(h.members) == [0, 4, 4]
            assert list(h.sizes) == [3]
            assert h.num_edges == 1


def test_histogram_of_single_seed_edge():
    h = Hypergraph()
    v = h.add_vertex()
    h.add_hyperedge([v])
    assert h.degree_histogram().counts == {1: 1}


def test_histogram_counts_isolated_vertices():
    h = Hypergraph()
    for _ in range(3):
        h.add_vertex()
    assert h.degree_histogram().counts == {0: 3}


def test_histogram_groups_by_degree():
    h = Hypergraph()
    for _ in range(3):
        h.add_vertex()
    h.add_hyperedge([0, 1])
    h.add_hyperedge([0, 1])
    h.add_hyperedge([2] * 5)
    assert h.degree_histogram().counts == {2: 2, 5: 1}


def test_degree_cache_matches_recount_after_random_ops():
    rng = random.Random(4)
    h = Hypergraph()
    for _ in range(20):
        h.add_vertex()
    for _ in range(200):
        size = rng.randint(1, 6)
        h.add_hyperedge([rng.randrange(20) for _ in range(size)])
    assert h.degrees == recomputed_degrees(h)
    assert h.degree_sum == sum(len(e) for e in h.edges)
    hist = h.degree_histogram()
    assert sum(hist.counts.values()) == hist.total_vertices == h.num_vertices
    assert all(len(e) == sum(e.count(v) for v in set(e)) for e in h.edges)


def test_store_keeps_only_its_primary_facts():
    rng = random.Random(5)
    h = Hypergraph()
    for _ in range(30):
        if rng.random() < 0.3 or not h.num_vertices:
            h.add_vertex()
        else:
            h.add_hyperedge([rng.randrange(h.num_vertices) for _ in range(rng.randint(1, 4))])
        h.degrees, h.edges, h.degree_histogram()
    assert set(vars(h)) == {"num_vertices", "members", "sizes"}
    assert h.degrees == recomputed_degrees(h)

