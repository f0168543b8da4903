import pytest

from hypermod import Hypergraph, Partition, cardinality_profile, hypergraph_modularity_score
from hypermod.files import (
    _LABEL_LINES,
    format_value,
    parse_hypergraph,
    parse_labels,
    parse_partition,
    write_csv,
    write_hypergraph,
    write_labels,
    write_partition,
)


def test_parse_simple_hyperedge_list(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("0 1 2\n0 0\n")
    h = parse_hypergraph(path)
    assert h.num_vertices == 3
    assert h.edges == [(0, 1, 2), (0, 0)]
    assert h.degrees == [3, 1, 1]


def test_header_preserves_isolated_vertices(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("#vertices 5\n")
    h = parse_hypergraph(path)
    assert h.num_vertices == 5
    assert h.num_edges == 0


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# a comment\n\n0 1\n# another\n1 2\n")
    h = parse_hypergraph(path)
    assert h.num_edges == 2


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("0 1\nx y\n")
    with pytest.raises(ValueError, match=":2:"):
        parse_hypergraph(path)


def test_negative_id_rejected(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("0 -1\n")
    with pytest.raises(ValueError, match="negative"):
        parse_hypergraph(path)


def test_header_below_max_id_rejected(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("#vertices 2\n0 5\n")
    with pytest.raises(ValueError):
        parse_hypergraph(path)


@pytest.mark.parametrize("text, message", [
    ("0 1\n1 x\n", "{path}:2: non-integer vertex id in '1 x'"),
    ("0 1\n2 -3\n", "{path}:2: negative vertex id"),
    ("#vertices ten\n0 1\n", "{path}:1: malformed #vertices header"),
    ("#vertices ²\n0 1\n", "{path}:1: malformed #vertices header"),
    ("#vertices 2\n0 1\n0 5\n", "{path}: header declares 2 vertices but ids reach 5"),
    ("0 1\n\n# note\n1 2.5\n", "{path}:4: non-integer vertex id in '1 2.5'"),
    ("0 1\n0 9223372036854775808\n", "{path}:2: vertex id out of range in '0 9223372036854775808'"),
    ("#vertices 9223372036854775808\n0 1\n",
     "{path}:1: vertex count out of range in '#vertices 9223372036854775808'"),
], ids=["non_integer", "negative", "bad_header", "superscript_header", "header_below_ids",
        "after_blank_line", "id_beyond_int64", "count_beyond_int64"])
def test_malformed_hyperedge_file_errors(tmp_path, capsys, text, message):
    from hypermod.cli import run_cli

    path = tmp_path / "h.txt"
    path.write_text(text)
    expected = message.format(path=path)
    with pytest.raises(ValueError) as info:
        parse_hypergraph(path)
    assert str(info.value) == expected
    assert run_cli(["fit-powerlaw", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {expected}\n"
    assert "Traceback" not in captured.out + captured.err


def test_each_edge_line_is_one_add_hyperedge_call(tmp_path, monkeypatch):
    """Every edge line enters through one ``Hypergraph.add_hyperedge`` call
    with that line's ids, whether the bulk reader or the per-line rule
    reads it. perfbench/tracing.py counts the calls and the memberships
    there, so the benchmark's exact counts rely on it."""
    calls = []
    add = Hypergraph.add_hyperedge

    def spy(h, members):
        calls.append(list(members))
        return add(h, members)

    monkeypatch.setattr(Hypergraph, "add_hyperedge", spy)
    lines = [[i % 97, (i * 7) % 89, i % 5] for i in range(4000)]  # several chunks
    lines[1234] = [3, 3]
    text = "#vertices 100\n" + "".join(" ".join(map(str, e)) + "\n" for e in lines)
    text = text.replace("\n3 3\n", "\n# note\n\n+3\t03\n")
    path = tmp_path / "h.txt"
    path.write_text(text)
    h = parse_hypergraph(path)
    assert calls == lines
    assert h.num_edges == len(lines)


def test_roundtrip_preserves_structure(tmp_path):
    import random

    rng = random.Random(0)
    h = Hypergraph()
    for _ in range(30):
        h.add_vertex()
    for _ in range(100):
        h.add_hyperedge([rng.randrange(30) for _ in range(rng.randint(1, 5))])
    path = tmp_path / "h.txt"
    write_hypergraph(h, path)
    back = parse_hypergraph(path)
    assert back.num_vertices == h.num_vertices
    assert back.edges == h.edges
    assert back.degree_histogram().counts == h.degree_histogram().counts
    assert cardinality_profile(back).a == cardinality_profile(h).a
    part = Partition([rng.randrange(4) for _ in range(30)], 4)
    assert hypergraph_modularity_score(back, part).score == pytest.approx(
        hypergraph_modularity_score(h, part).score
    )


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.tsv"
    write_labels([0, 1, 1, 0], path)
    assert parse_labels(path, 4) == [0, 1, 1, 0]


def test_labels_written_in_slices_match_line_by_line(tmp_path):
    # more lines than two write slices, with a short last slice
    labels = [(v * 7919) % 13 for v in range(2 * _LABEL_LINES + 3)]
    path = tmp_path / "labels.tsv"
    write_labels(labels, path)
    assert path.read_text() == "".join(f"{v}\t{b}\n" for v, b in enumerate(labels))
    write_labels([], path)
    assert path.read_text() == ""


def test_labels_parse_examples(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("0\t0\n1\t1\n")
    assert parse_labels(path, 2) == [0, 1]


def test_missing_vertex_named_in_error(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("0\t0\n2\t1\n")
    with pytest.raises(ValueError, match="vertex 1"):
        parse_labels(path, 3)


def test_duplicate_vertex_rejected(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("0\t0\n0\t1\n1\t0\n")
    with pytest.raises(ValueError, match="twice"):
        parse_labels(path, 2)


def test_partition_roundtrip(tmp_path):
    path = tmp_path / "part.tsv"
    part = Partition([0, 2, 1, 2])
    write_partition(part, path)
    assert parse_partition(path, 4) == part


def test_partition_block_ids_become_ranks(tmp_path):
    path = tmp_path / "part.tsv"
    path.write_text("0\t7\n1\t3\n2\t7\n3\t90\n")
    part = parse_partition(path, 4)
    assert part.block_of == [1, 0, 1, 2]
    assert part.num_blocks == 3


def test_csv_formatting_is_repr_stable(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [(0.1, 1), (1 / 3, "x")])
    assert path.read_text() == "a,b\n0.1,1\n0.3333333333333333,x\n"
    assert format_value(2.0) == "2.0"
    assert format_value(7) == "7"


def test_generated_community_run_roundtrip(tmp_path):
    from hypermod import CardinalityDistribution, GParams, InterCommunityProfile, generate_g

    profile = InterCommunityProfile({(0,): 0.55, (1,): 0.25, (0, 1): 0.2}, 2)
    params = GParams(0.35, [0.5, 0.5], profile,
                     [CardinalityDistribution.constant(3)] * 2, gamma=1.0, steps=10_000)
    g, planted, _ = generate_g(params, seed=21)
    hpath, cpath = tmp_path / "g.txt", tmp_path / "c.tsv"
    write_hypergraph(g, hpath)
    write_labels(planted.block_of, cpath)
    back = parse_hypergraph(hpath)
    loaded_part = Partition(parse_labels(cpath, back.num_vertices), 2)
    assert back.num_vertices == g.num_vertices
    assert back.degree_histogram().counts == g.degree_histogram().counts
    assert hypergraph_modularity_score(back, planted).score == pytest.approx(
        hypergraph_modularity_score(g, planted).score, abs=1e-15
    )
    # per-community degree histograms survive the round trip
    g_degrees, back_degrees = g.degrees, back.degrees
    for j in range(2):
        orig = sorted(g_degrees[v] for v in range(g.num_vertices) if planted.block_of[v] == j)
        loaded = sorted(back_degrees[v] for v in range(back.num_vertices)
                        if loaded_part.block_of[v] == j)
        assert orig == loaded
