"""The store's width rule: ``Hypergraph.members`` and ``offsets`` start
narrow and each widens once, to int64, when a value first does not fit.

The narrow type code is patched to int8 (``"b"``), so that widening happens
at 128 vertices or memberships, and every result must equal the one of a
store that is int64 from the start (``"q"``).
"""

import random
from array import array
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
    return h.members.typecode, h.offsets.typecode, list(h.members), list(h.offsets)


def random_edges(seed, num_vertices, memberships, max_size=4):
    rng = random.Random(seed)
    edges, total = [], 0
    while total < memberships:
        e = [rng.randrange(num_vertices) for _ in range(rng.randint(1, max_size))]
        edges.append(e)
        total += len(e)
    return edges


# (vertices, memberships) for each pair of widths: both arrays narrow, only
# the members wide, only the offsets wide, both wide
SHAPES = {"narrow": (9, 60), "wide_members": (300, 100), "wide_offsets": (9, 400),
          "wide": (300, 900)}
WIDTHS = {"narrow": ("b", "b"), "wide_members": ("q", "b"), "wide_offsets": ("b", "q"),
          "wide": ("q", "q")}


@pytest.fixture
def int8(monkeypatch):
    monkeypatch.setattr(hypergraph, "_NARROW", "b")


def test_a_new_store_is_int32():
    h = store([[0, 1]], 2)
    assert (h.members.typecode, h.offsets.typecode) == ("i", "i")
    members, offsets = h.arrays()
    assert (members.dtype, offsets.dtype) == (np.int32, np.int32)


def test_members_widen_at_the_first_id_that_does_not_fit(int8):
    h = store([[0, 127]], 200)
    assert state(h) == ("b", "b", [0, 127], [0, 2])
    h.add_hyperedge([1, 128, 2])
    assert state(h) == ("q", "b", [0, 127, 1, 128, 2], [0, 2, 5])


def test_offsets_widen_at_the_first_count_that_does_not_fit(int8):
    h = store([[1] * 127], 2)
    assert state(h)[:2] == ("b", "b")
    h.add_hyperedge([0])
    assert state(h) == ("b", "q", [1] * 127 + [0], [0, 127, 128])
    members, offsets = h.arrays()
    assert (members.dtype, offsets.dtype) == (np.int8, np.int64)


def test_edges_of_any_type_code_enter_either_width(int8):
    h = store([[0, 1]], 5)
    h.add_hyperedge(array("q", [4, 3]))  # a valid int64 edge stays narrow
    h.add_hyperedge(array("i", [2]))
    assert state(h) == ("b", "b", [0, 1, 4, 3, 2], [0, 2, 4, 5])
    for _ in range(200):
        h.add_vertex()
    h.add_hyperedge(array("q", [204, 0]))
    h.add_hyperedge(array("i", [3, 200]))  # an int32 edge enters a widened store
    h.add_hyperedge(array("b", [7]))
    assert state(h) == ("q", "b", [0, 1, 4, 3, 2, 204, 0, 3, 200, 7], [0, 2, 4, 5, 7, 9, 10])


@pytest.mark.parametrize("shape", ["narrow", "wide"])
def test_errors_leave_the_store_as_it_was(int8, shape):
    n, memberships = SHAPES[shape]
    h = store(random_edges(1, n, memberships), n)
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
    ]
    for members, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            h.add_hyperedge(members)
        assert state(h) == before


def test_generators_match_an_int64_store(monkeypatch):
    h_params = HParams(0.2, 0.5, [0.3], CONST(3), [CONST(2)], edges_per_event=2,
                       gamma=1.0, steps=400)
    profile = InterCommunityProfile({(0,): 0.6, (1,): 0.3, (0, 1): 0.1}, 2)
    g_params = GParams(0.4, [0.5, 0.5], profile, [CONST(3), CONST(2)], gamma=1.0, steps=400)
    runs = {}
    for code in ("b", "q"):
        monkeypatch.setattr(hypergraph, "_NARROW", code)
        h, h_stats = generate_h(h_params, 3)
        g, planted, g_stats = generate_g(g_params, 3)
        assert state(h)[:2] == state(g)[:2] == ("q", "q")
        runs[code] = (state(h)[2:], h_stats, state(g)[2:], planted, g_stats)
    assert runs["b"] == runs["q"]


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
    assert parsed["b"] == parsed["q"]
    assert parsed["b"][:2] == ("q", "q")


def consumers(h, part):
    """What each numpy reader of the store makes of ``h``."""
    two_uniform = store([e[:1] * 2 for e in h.edge_members()], h.num_vertices)
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
        out["brute_force"] = brute_force_modularity(h, max_vertices=9)
    return out


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_numpy_readers_match_an_int64_store(monkeypatch, shape):
    n, memberships = SHAPES[shape]
    edges = random_edges(2, n, memberships)
    part = Partition([v % 3 for v in range(n)], 3)
    results = {}
    for code in ("b", "q"):
        monkeypatch.setattr(hypergraph, "_NARROW", code)
        h = store(edges, n)
        assert state(h)[:2] == (WIDTHS[shape] if code == "b" else ("q", "q"))
        results[code] = consumers(h, part)
    assert results["b"] == results["q"]
