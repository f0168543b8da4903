"""The store's width rule: ``Hypergraph.members`` starts narrow (int32) and
``sizes`` as int8, and a value that does not fit widens its array to the
narrower of int32 and int64 that holds it (``hypergraph.widened``). The
occurrence array of each of ``g``'s community urns follows the same rule.

The members' narrow type code is patched to int8 (``"b"``), so that they
widen at 128 vertices, and every result must equal the one of a store that
is int64 from the start (``"q"``, ``sizes`` copied to int64 too).
"""

import random
from array import array
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest

from hypermod import (
    CardinalityDistribution,
    GParams,
    HParams,
    Hypergraph,
    InterCommunityProfile,
    Partition,
    brute_force_modularity,
    cardinality_profile,
    detect_communities,
    empirical_bound_inputs,
    files,
    flatten,
    generate_g,
    generate_h,
    geng,
    graph_modularity_score,
    hypergraph,
    hypergraph_modularity_score,
    modularity,
)
from hypermod.files import parse_hypergraph
from hypermod.modularity import edge_batches

CONST = CardinalityDistribution.constant


def store(edges, num_vertices):
    h = Hypergraph()
    for _ in range(num_vertices):
        h.add_vertex()
    for e in edges:
        h.add_hyperedge(e)
    return h


def state(h):
    return h.members.typecode, h.sizes.typecode, list(h.members), list(h.sizes)


def random_edges(seed, num_vertices, memberships, max_size=4):
    rng = random.Random(seed)
    edges, total = [], 0
    while total < memberships:
        e = [rng.randrange(num_vertices) for _ in range(rng.randint(1, max_size))]
        edges.append(e)
        total += len(e)
    return edges


# (vertices, memberships, largest edge) for each pair of widths: both arrays
# int8, only the members wide, only the sizes wide, both wide
SHAPES = {"narrow": (9, 60, 4), "wide_members": (300, 100, 4), "wide_sizes": (9, 400, 200),
          "wide": (300, 900, 200)}
WIDTHS = {"narrow": ("b", "b"), "wide_members": ("i", "b"), "wide_sizes": ("b", "i"),
          "wide": ("i", "i")}


@pytest.fixture
def int8(monkeypatch):
    monkeypatch.setattr(hypergraph, "_NARROW", "b")


def test_a_new_store_has_int32_members_and_int8_sizes():
    h = store([[0, 1]], 2)
    assert (h.members.typecode, h.sizes.typecode) == ("i", "b")
    members, offsets = h.arrays()
    assert (members.dtype, offsets.dtype) == (np.int32, np.int64)


def test_members_widen_at_the_first_id_that_does_not_fit(int8):
    h = store([[0, 127]], 200)
    assert state(h) == ("b", "b", [0, 127], [2])
    h.add_hyperedge([1, 128, 2])
    assert state(h) == ("i", "b", [0, 127, 1, 128, 2], [2, 3])
    h.num_vertices = 2 ** 31 + 1
    h.add_hyperedge([2 ** 31 - 1])
    assert state(h)[:2] == ("i", "b")
    h.add_hyperedge([2 ** 31, 0])
    assert state(h) == ("q", "b", [0, 127, 1, 128, 2, 2 ** 31 - 1, 2 ** 31, 0], [2, 3, 1, 2])


def test_sizes_widen_at_the_first_size_that_does_not_fit():
    h = store([[1] * 127], 2)
    assert state(h)[:2] == ("i", "b")
    h.add_hyperedge([0] * 128)
    assert state(h) == ("i", "i", [1] * 127 + [0] * 128, [127, 128])
    h.add_hyperedge(array("q", [1] * 300))  # a foreign type code on the widened sizes
    assert (h.sizes.typecode, list(h.sizes)) == ("i", [127, 128, 300])


@pytest.mark.parametrize("code", ["b", "i"])
def test_a_size_widens_to_the_narrowest_type_that_holds_it(code):
    """An edge of 128 members or more makes ``sizes`` int32, never int64,
    unless its size reaches 2**31."""
    sizes = array(code, [3])
    for value, wide in [(127, code), (128, "i"), (2 ** 31 - 1, "i"), (2 ** 31, "q")]:
        got = hypergraph.widened(sizes, value)
        assert (got.typecode, list(got)) == (wide, [3])
    assert hypergraph.widened(array("q", [3]), 2 ** 40).typecode == "q"


@pytest.mark.parametrize("edges", [[], [[0, 1, 1]], [[0], [1] * 200, [0, 1]]],
                         ids=["empty", "one_edge", "widened"])
def test_offsets_are_the_running_sum_of_sizes(edges):
    h = store(edges, 2)
    offsets = h.arrays()[1]
    assert offsets.dtype == np.int64
    assert offsets.tolist() == list(accumulate(h.sizes, initial=0))
    assert offsets.tolist() == list(accumulate(map(len, edges), initial=0))


def test_a_ba_store_holds_four_bytes_a_membership_and_one_an_edge():
    params = HParams(0.0, 1.0, [], CONST(2), [], edges_per_event=1, gamma=0.0, steps=20_000)
    h, _ = generate_h(params, 0)
    used = sum(a.buffer_info()[1] * a.itemsize for a in (h.members, h.sizes))
    assert (h.num_edges, h.degree_sum) == (20_001, 40_001)
    assert used == 4 * h.degree_sum + h.num_edges


def test_edges_of_any_type_code_enter_either_width(int8):
    h = store([[0, 1]], 5)
    h.add_hyperedge(array("q", [4, 3]))  # a valid int64 edge stays narrow
    h.add_hyperedge(array("i", [2]))
    assert state(h) == ("b", "b", [0, 1, 4, 3, 2], [2, 2, 1])
    for _ in range(200):
        h.add_vertex()
    h.add_hyperedge(array("q", [204, 0]))
    h.add_hyperedge(array("i", [3, 200]))  # an int32 edge enters a widened store
    h.add_hyperedge(array("b", [7]))
    assert state(h) == ("i", "b", [0, 1, 4, 3, 2, 204, 0, 3, 200, 7], [2, 2, 1, 2, 2, 1])


@pytest.mark.parametrize("shape", ["narrow", "wide"])
def test_errors_leave_the_store_as_it_was(int8, shape):
    n, memberships, max_size = SHAPES[shape]
    h = store(random_edges(1, n, memberships, max_size), n)
    for _ in range(150):
        h.add_vertex()
    before = state(h)
    assert before[:2] == WIDTHS[shape]
    cases = [
        ([], ValueError, "hyperedge must be non-empty"),
        ([0, -1], ValueError, "invalid vertex id -1"),
        ([1, h.num_vertices], ValueError, f"invalid vertex id {h.num_vertices}"),
        # valid ids with a float: extend appends 3, on the narrow store
        # overflows at 140, and meets 1.5
        ([3, 140, 1.5], TypeError, "'float' object cannot be interpreted as an integer"),
        ([3, 1.5], TypeError, "'float' object cannot be interpreted as an integer"),
        # 199 members go in before the float, past what an int8 size holds
        ([1] * 199 + [1.5], TypeError, "'float' object cannot be interpreted as an integer"),
    ]
    for members, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            h.add_hyperedge(members)
        assert state(h) == before


def test_generators_match_an_int64_store(monkeypatch):
    """Over 128 vertices, so the store and every community urn of ``g``
    widen along the run."""
    h_params = HParams(0.2, 0.5, [0.3], CONST(3), [CONST(2)], edges_per_event=2,
                       gamma=1.0, steps=400)
    profile = InterCommunityProfile({(0,): 0.6, (1,): 0.3, (0, 1): 0.1}, 2)
    g_params = GParams(0.4, [0.5, 0.5], profile, [CONST(3), CONST(2)], gamma=1.0, steps=400)
    urns = []

    class Recorded(geng.PreferentialSelector):
        def __init__(self, gamma):
            super().__init__(gamma)
            urns.append(self)

    monkeypatch.setattr(geng, "PreferentialSelector", Recorded)
    runs = {}
    for code in ("b", "q"):
        monkeypatch.setattr(hypergraph, "_NARROW", code)
        urns.clear()
        h, h_stats = generate_h(h_params, 3)
        g, planted, g_stats = generate_g(g_params, 3)
        wide = "i" if code == "b" else "q"
        assert state(h)[:2] == state(g)[:2] == (wide, "b")
        assert [urn.occurrences.typecode for urn in urns] == [wide, wide]
        runs[code] = (state(h)[2:], h_stats, state(g)[2:], planted, g_stats,
                      [list(urn.occurrences) for urn in urns])
    assert runs["b"] == runs["q"]


def test_a_new_urn_takes_the_narrow_code(int8):
    urn = geng.PreferentialSelector(0.0)
    urn.add_member(127)
    urn.record_degree_increment([127])
    assert urn.occurrences.typecode == "b"
    urn.add_member(128)
    urn.record_degree_increment([128, 127])
    assert (urn.occurrences.typecode, list(urn.occurrences)) == ("i", [127, 128, 127])


@pytest.mark.parametrize("chunk", [16, 1 << 13])
def test_parse_matches_an_int64_store(monkeypatch, tmp_path, chunk):
    """Ids grow past 127 along the file, and every seventh line, with a
    ``+`` sign, takes the per-line rule, so widening happens in either
    path, in a later chunk or in the first."""
    rng = random.Random(3)
    lines = []
    for i in range(300):
        ids = [str(rng.randrange(i + 1)) for _ in range(rng.randint(1, 4))]
        lines.append(" ".join(ids) if i % 7 else "+" + " ".join(ids))
    path = tmp_path / "h.txt"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(files, "_CHUNK_CHARS", chunk)
    parsed = {}
    for code in ("b", "q"):
        monkeypatch.setattr(hypergraph, "_NARROW", code)
        h = parse_hypergraph(path)
        parsed[code] = state(h)
    assert parsed["b"][2:] == parsed["q"][2:]
    assert (parsed["b"][:2], parsed["q"][:2]) == (("i", "b"), ("q", "b"))


def consumers(h, part):
    """What each numpy reader of the store makes of ``h``."""
    two_uniform = store([e[:1] * 2 for e in h.edge_members()], h.num_vertices)
    two_uniform.sizes = array(h.sizes.typecode, two_uniform.sizes)
    with mock.patch.object(modularity, "EDGE_BATCH", 7):
        batches = [(m.tolist(), o.tolist()) for m, o in edge_batches(h)]
    out = {
        "batches": batches,
        "flatten": flatten(h).weights,
        "score": hypergraph_modularity_score(h, part),
        "graph_score": graph_modularity_score(two_uniform, part),
        "profile": cardinality_profile(h),
        "bounds": empirical_bound_inputs(h, part),
        "detected": detect_communities(flatten(h), seed=1).block_of,
    }
    if h.num_vertices <= 9:
        out["brute_force"] = brute_force_modularity(h)
    return out


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_numpy_readers_match_an_int64_store(monkeypatch, shape):
    n, memberships, max_size = SHAPES[shape]
    edges = random_edges(2, n, memberships, max_size)
    part = Partition([v % 3 for v in range(n)], 3)
    results = {}
    for code in ("b", "q"):
        monkeypatch.setattr(hypergraph, "_NARROW", code)
        h = store(edges, n)
        if code == "q":
            h.sizes = array("q", h.sizes)
        assert state(h)[:2] == (WIDTHS[shape] if code == "b" else ("q", "q"))
        results[code] = consumers(h, part)
    assert results["b"] == results["q"]
