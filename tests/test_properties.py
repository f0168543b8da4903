"""Property tests of the flat hypergraph store, the code that reads it, and
the CLI's handling of malformed input."""

import io
import tempfile
from collections import Counter
from contextlib import redirect_stderr
from itertools import combinations
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermod import (
    Hypergraph,
    Partition,
    detect_communities,
    flatten,
    hypergraph_modularity_score,
    weighted_graph_modularity,
)
from hypermod import files, hypergraph
from hypermod.cli import run_cli
from hypermod.files import parse_hypergraph, write_hypergraph

from helpers import blocks, recomputed_degrees, reference_parse_hypergraph

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
    assert h.degrees == recomputed_degrees(h)
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


def flattened_pairs(added):
    """Pair weights of the flattened graph, counted from the definition."""
    return Counter(pair for e in added for pair in combinations(sorted(set(e)), 2))


@given(OPS)
def test_flatten_weight_counts_distinct_member_pairs(ops):
    h, added = build(ops)
    wg = flatten(h)
    assert wg.total_weight == sum(comb(len(set(e)), 2) for e in added)
    assert wg.weights == flattened_pairs(added)
    rows = wg.row_values(range(wg.num_vertices)).tolist()
    entries = set(zip(rows, wg.indices.tolist(), wg.data.tolist()))
    assert all((v, u, w) in entries for u, v, w in entries)
    assert all(wg.indices[a:b].tolist() == sorted(set(wg.indices[a:b].tolist()))
               for a, b in zip(wg.indptr[:-1], wg.indptr[1:]))


@settings(max_examples=200)
@given(OPS, st.data())
def test_flattened_score_matches_networkx(ops, data):
    nx = pytest.importorskip("networkx")
    h, added = build(ops)
    pairs = flattened_pairs(added)
    if not pairs:
        return
    n = h.num_vertices
    part = Partition(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), 4)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_weighted_edges_from((u, v, w) for (u, v), w in pairs.items())
    expected = nx.community.modularity(graph, [b for b in blocks(part) if b], weight="weight")
    assert weighted_graph_modularity(flatten(h), part) == pytest.approx(expected, abs=1e-12)


@given(OPS, st.data())
def test_strict_score_ignores_block_names(ops, data):
    h, _ = build(ops)
    n = h.num_vertices
    part = Partition(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), 4)
    perm = data.draw(st.permutations(range(4)))
    renamed = Partition([perm[b] for b in part.block_of], 4)
    assert hypergraph_modularity_score(h, renamed).score == pytest.approx(
        hypergraph_modularity_score(h, part).score, abs=1e-12)


@given(OPS)
def test_one_block_scores_zero(ops):
    h, _ = build(ops)
    score = hypergraph_modularity_score(h, Partition.one_block(h.num_vertices)).score
    assert score == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=50)
@given(OPS, st.integers(0, 100))
def test_detection_never_below_singletons(ops, seed):
    h, _ = build(ops)
    wg = flatten(h)
    q = weighted_graph_modularity(wg, detect_communities(wg, seed=seed))
    assert q >= weighted_graph_modularity(wg, Partition.singletons(h.num_vertices)) - 1e-12


@settings(max_examples=50)
@given(OPS, st.integers(0, 100))
def test_detection_keeps_edgeless_vertices_alone(ops, seed):
    h, _ = build(ops)
    wg = flatten(h)
    part = detect_communities(wg, seed=seed)
    sizes = Counter(part.block_of)
    edgeless = (wg.degrees() == 0).tolist()
    assert all(sizes[part.block_of[v]] == 1 for v in range(h.num_vertices) if edgeless[v])
    assert part.block_of == part.relabeled().block_of


# Hyperedge-list text mixing lines the bulk reader takes (ASCII digits and
# whitespace) with every kind that takes the per-line rule, under all three
# line endings and with or without a final newline; at most one line is
# malformed, so that the lines before it are read.
SMALL_ID = st.integers(0, 40)
PLAIN_ID = st.one_of(SMALL_ID.map(str), SMALL_ID.map(str), SMALL_ID.map("00{}".format),
                     st.integers(0, 10 ** 18 - 1).map(str))
ODD_ID = st.sampled_from(["+5", "1_0", "-0", "\u0663", "0" * 19 + "7", "0" * 24 + "12",
                          "9223372036854775807"])
BAD_ID = st.sampled_from(["x", "2.5", "-3", "9223372036854775808"])
GAP = st.sampled_from([" ", "  ", "\t", " \t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0"])


def edge_line(ids):
    return st.tuples(st.lists(st.tuples(ids, GAP), min_size=1, max_size=6),
                     st.sampled_from(["", " ", "\t"])).map(
        lambda t: t[1] + "".join(tok + gap for tok, gap in t[0]))


GOOD_LINE = st.one_of(
    edge_line(st.one_of(PLAIN_ID, PLAIN_ID, PLAIN_ID, ODD_ID)),
    edge_line(PLAIN_ID),
    edge_line(PLAIN_ID),
    st.sampled_from(["", " ", "\t", "\x0b", "# note", "#", "# 1 2 3", "#vertex 5",
                     "#vertices \u0663", "# vertices 0012"]),
    st.integers(0, 60).map("#vertices {}".format))
BAD_LINE = st.one_of(
    st.tuples(edge_line(PLAIN_ID), BAD_ID, GAP, st.booleans()).map(
        lambda t: t[0] + t[1] + t[2] if t[3] else t[1] + t[2] + t[0]),
    st.sampled_from(["#vertices", "#vertices ten", "#vertices 1 2", "#vertices -1",
                     "#vertices 9223372036854775808"]))
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
HYPEREDGE_TEXT = st.tuples(
    st.lists(st.tuples(GOOD_LINE, LINE_END), min_size=1, max_size=12),
    st.lists(st.tuples(BAD_LINE, LINE_END), max_size=1), st.integers(0, 12), st.booleans()).map(
    lambda t: "".join(line + end for line, end in t[0][:t[2]] + t[1] + t[0][t[2]:])
    + ("7 8" if t[3] else ""))


@settings(max_examples=300, deadline=None)
@given(HYPEREDGE_TEXT, st.integers(1, 12), st.sampled_from(["i", "b"]))
def test_bulk_reader_matches_line_rule(text, chunk, narrow):
    """Small chunks make lines straddle chunk boundaries, and some lines are
    longer than a chunk. A store that starts as int8 (``narrow`` "b")
    widens at the first id from 128 up, in the bulk reader or in a line
    that takes the per-line rule."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.txt"
        path.write_bytes(text.encode())
        try:
            expected = reference_parse_hypergraph(path)
        except ValueError as e:
            expected = str(e)
        with mock.patch.object(files, "_CHUNK_CHARS", chunk), \
                mock.patch.object(hypergraph, "_NARROW", narrow):
            try:
                h = parse_hypergraph(path)
                got = (h.num_vertices, list(h.members), list(h.offsets))
            except ValueError as e:
                got = str(e)
    assert got == expected


# Malformed input for the CLI: well-formed input with one fault that every
# reader must reject. Vertex ids and block ids stay small, because a file
# may legitimately name a vertex or block that many entries must exist for.
G_MODEL = "model: g\np: 0.5\nmembership: 0.5,0.5\nx: constant(2); constant(2)\n0: 0.5\n1: 0.5\n"
# each valid config with the commands that read it
CONFIGS = [
    ("model: h\np_v: 0.2\np_ve: 0.4\np_e: 0.4\ny: shifted_poisson(1.5,2)\n"
     "x: categorical(2:0.7,5:0.3)\nm: 2\ngamma: 1\nsteps: 10\n",
     [["predict"], ["generate-h", "--out", "{d}/out"], ["oracle", "--out", "{d}/out"]]),
    (G_MODEL, [["predict"], ["generate-g", "--out", "{d}/out"], ["bounds"]]),
    ("kind: recurrence_check\nreplicas: 2\nsteps: 10\nk_max: 5\np_v: 0.3\np_ve: 0.3\n"
     "p_e: 0.4\ny: constant(3)\nx: constant(3)\nm: 1\ngamma: 1\n",
     [["experiment", "--out", "{d}/out"]]),
    ("kind: beta_sweep\nsteps: 10\ngamma_values: 0, 1\np_ve: 1\ny: categorical(2:0.5,3:0.5)\n",
     [["experiment", "--out", "{d}/out"]]),
    ("kind: fig1_bound_vs_detected\nuniformity: 2\ncommunities: 2\nalphas: 0, 0.5\np: 0.5\n"
     "gamma: 1\ntarget_vertices: 10\n", [["experiment", "--out", "{d}/out"]]),
]


@st.composite
def malformed_config(draw):
    """A config of ``CONFIGS`` with one value made non-finite or one bad line
    added, and a command that reads it."""
    text, commands = draw(st.sampled_from(CONFIGS))
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        key = lines[i].split(":")[0]
        lines[i] = f"{key}: {draw(st.sampled_from(['nan', 'inf', '-inf', '1e999']))}"
    else:
        lines.insert(i, draw(st.sampled_from(["no separator", ": 1", lines[i]])))
    return "\n".join(lines) + "\n", draw(st.sampled_from(commands))


EDGE_LINES = st.lists(st.integers(0, 12), min_size=1, max_size=5).map(
    lambda ids: " ".join(map(str, ids)))
EDGE_FAULTS = st.sampled_from(["x", "1 -2", "0 1.5", "#vertices", "#vertices -1",
                               "#vertices 1 2", "3 a 4", "0 9223372036854775808",
                               "#vertices 9223372036854775808"])
LABEL_LINES = st.builds("{}\t{}".format, st.integers(0, 12), st.integers(0, 3))
LABEL_FAULTS = st.sampled_from(["0", "a\t0", "0\t-1", "0\t0\t0", "0\tx", "99\t0"])


def with_fault(lines, fault):
    """``lines`` with ``fault`` inserted at a drawn position, as file text."""
    return st.tuples(lines, fault, st.integers(0, 10)).map(
        lambda t: "\n".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:]) + "\n")


def rejects(files, argv):
    """Run the CLI on ``files`` ({name: text}); it must fail with one line."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        err = io.StringIO()
        with redirect_stderr(err):
            code = run_cli([a.format(d=tmp) for a in argv])
        assert not list(Path(tmp).glob("out*"))
    assert code in (1, 2)
    assert err.getvalue().count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(malformed_config())
def test_cli_rejects_malformed_config(config):
    text, command = config
    rejects({"cfg": text}, command[:1] + ["--config", "{d}/cfg"] + command[1:])


@settings(max_examples=60, deadline=None)
@given(with_fault(st.lists(EDGE_LINES, max_size=8), EDGE_FAULTS),
       st.sampled_from([["detect"], ["flatten", "--out", "{d}/out"], ["fit-powerlaw"],
                        ["modularity", "--partition", "{d}/labels"]]))
def test_cli_rejects_malformed_hyperedge_file(text, command):
    files = {"h.txt": text, "labels": "0\t0\n"}
    rejects(files, command[:1] + ["--input", "{d}/h.txt"] + command[1:])


@settings(max_examples=60, deadline=None)
@given(st.lists(EDGE_LINES, max_size=8),
       with_fault(st.lists(LABEL_LINES, max_size=8), LABEL_FAULTS), st.booleans())
def test_cli_rejects_malformed_label_file(edges, labels, bounds):
    files = {"h.txt": "\n".join(edges) + "\n", "labels": labels, "g.cfg": G_MODEL}
    if bounds:
        argv = ["bounds", "--config", "{d}/g.cfg", "--input", "{d}/h.txt",
                "--communities", "{d}/labels"]
    else:
        argv = ["modularity", "--input", "{d}/h.txt", "--partition", "{d}/labels"]
    rejects(files, argv)
