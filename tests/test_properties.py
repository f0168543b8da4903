"""Property tests of the flat hypergraph store and the code that reads it."""

import tempfile
from math import comb
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hypermod import Hypergraph, flatten
from hypermod.files import parse_hypergraph, write_hypergraph

# An operation is ("vertex", None) or ("edge", raw ids), each followed by a
# flag saying whether to read the derived views right after it. Raw ids are
# reduced modulo the vertex count when the edge is added.
OPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("vertex"), st.none()),
            st.tuples(st.just("edge"), st.lists(st.integers(0, 1000), min_size=1, max_size=6)),
        ),
        st.booleans(),
    ),
    max_size=60,
)


def build(ops, check=None):
    """Apply ``ops`` to a fresh hypergraph; returns it and the added edges."""
    h = Hypergraph()
    added = []
    for (kind, raw), read in ops:
        if kind == "vertex":
            h.add_vertex()
        elif h.num_vertices:
            members = [x % h.num_vertices for x in raw]
            h.add_hyperedge(members)
            added.append(members)
        if read and check:
            check(h, added)
    return h, added


def check_views(h, added):
    assert h.degrees == h.recomputed_degrees()
    assert h.edges == [tuple(sorted(e)) for e in added]
    assert h.num_edges == len(added)
    assert h.degree_sum == sum(map(len, added))
    assert [list(e) for e in h.edge_members()] == added


@given(OPS)
def test_derived_views_follow_every_mutation(ops):
    h, added = build(ops, check_views)
    check_views(h, added)


@settings(max_examples=50)
@given(OPS, st.integers(0, 3), st.booleans())
def test_file_round_trip_is_exact(ops, isolated, header):
    h, _ = build(ops)
    for _ in range(isolated):
        h.add_vertex()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.txt"
        write_hypergraph(h, path)
        text = path.read_text()
        if not header:
            path.write_text(text.split("\n", 1)[1])
        back = parse_hypergraph(path)
        assert back.edges == h.edges
        assert back.degrees == h.degrees[:back.num_vertices]
        if header:
            assert back.num_vertices == h.num_vertices
            write_hypergraph(back, path)
            assert path.read_text() == text
        else:
            # without the header, vertices after the largest id are not known
            assert back.num_vertices == max(h.members, default=-1) + 1


@given(OPS)
def test_flatten_weight_counts_distinct_member_pairs(ops):
    h, added = build(ops)
    wg = flatten(h)
    assert wg.total_weight == sum(comb(len(set(e)), 2) for e in added)
