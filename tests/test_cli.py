import pytest

from hypermod import Partition, brute_force_modularity
from hypermod.cli import run_cli
from hypermod.files import parse_hypergraph, parse_labels, write_hypergraph, write_partition
from hypermod.hypergraph import Hypergraph

from test_golden import G_THREE

BA_CONFIG = """\
model: h
p_ve: 1.0
y: constant(2)
m: 3
steps: 100
"""

G_CONFIG = """\
model: g
p: 0.4
membership: 0.6, 0.4
x: constant(3); constant(3)
gamma: 1.0
steps: 300
0: 0.5
1: 0.3
0,1: 0.2
"""


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_predict_ba_prints_beta_three(tmp_path, capsys):
    cfg = write(tmp_path, BA_CONFIG, "ba.txt")
    assert run_cli(["predict", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "beta: 3.0" in out


def test_predict_g_lists_communities(tmp_path, capsys):
    cfg = write(tmp_path, G_CONFIG, "g.txt")
    assert run_cli(["predict", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "beta_0:" in out and "beta_1:" in out


def test_generate_h_writes_hypergraph_and_stats(tmp_path, capsys):
    cfg = write(tmp_path, BA_CONFIG, "ba.txt")
    out = tmp_path / "h.txt"
    stats = tmp_path / "stats.csv"
    code = run_cli([
        "generate-h", "--config", cfg, "--seed", "3",
        "--out", str(out), "--stats", str(stats),
    ])
    assert code == 0
    h = parse_hypergraph(out)
    assert h.num_vertices == 101
    assert h.num_edges == 301
    header = stats.read_text().splitlines()[0]
    assert header == "t,vertices,edges,degree_sum,weight_sum"


def test_generate_g_writes_labels(tmp_path):
    cfg = write(tmp_path, G_CONFIG, "g.txt")
    out = tmp_path / "g.txt.out"
    comm = tmp_path / "comm.tsv"
    code = run_cli([
        "generate-g", "--config", cfg, "--seed", "5",
        "--out", str(out), "--communities", str(comm), "--steps", "200",
    ])
    assert code == 0
    g = parse_hypergraph(out)
    labels = parse_labels(comm, g.num_vertices)
    assert set(labels) == {0, 1}


def test_modularity_subcommand_matches_library(tmp_path, capsys):
    h = Hypergraph()
    for _ in range(6):
        h.add_vertex()
    for e in ([0, 1, 2], [0, 1], [3, 4, 5], [3, 5], [2, 3]):
        h.add_hyperedge(e)
    hpath = tmp_path / "h.txt"
    write_hypergraph(h, hpath)
    best_part, best_q = brute_force_modularity(h)
    ppath = tmp_path / "p.tsv"
    write_partition(best_part, ppath)
    assert run_cli(["modularity", "--input", str(hpath), "--partition", str(ppath)]) == 0
    out = capsys.readouterr().out
    score_line = next(l for l in out.splitlines() if l.startswith("score:"))
    assert float(score_line.split(":")[1]) == pytest.approx(best_q, abs=1e-12)


def test_modularity_counts_distinct_block_ids(tmp_path, capsys):
    hpath = write(tmp_path, "0 1\n", "h.txt")
    lines = {}
    for name, text in (("sparse", "0\t0\n1\t4000000\n"), ("dense", "0\t0\n1\t1\n")):
        ppath = write(tmp_path, text, name)
        assert run_cli(["modularity", "--input", hpath, "--partition", ppath]) == 0
        lines[name] = capsys.readouterr().out.splitlines()
    assert lines["sparse"] == lines["dense"]
    assert "blocks: 2" in lines["sparse"]


def test_detect_and_flatten(tmp_path, capsys):
    import itertools

    h = Hypergraph()
    for _ in range(10):
        h.add_vertex()
    for a, b in itertools.combinations(range(5), 2):
        h.add_hyperedge([a, b])
    for a, b in itertools.combinations(range(5, 10), 2):
        h.add_hyperedge([a, b])
    hpath = tmp_path / "h.txt"
    write_hypergraph(h, hpath)
    part_path = tmp_path / "part.tsv"
    assert run_cli(["detect", "--input", str(hpath), "--seed", "1", "--out", str(part_path)]) == 0
    out = capsys.readouterr().out
    assert "blocks: 2" in out
    labels = parse_labels(part_path, 10)
    assert Partition(labels) == Partition([0] * 5 + [1] * 5)
    flat = tmp_path / "flat.csv"
    assert run_cli(["flatten", "--input", str(hpath), "--out", str(flat)]) == 0
    lines = flat.read_text().splitlines()
    assert lines[0] == "u,v,weight"
    assert len(lines) == 1 + 20


def test_fit_powerlaw_subcommand(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(3)
    sample = rng.zipf(2.5, 20000)
    h = Hypergraph()
    for _ in range(int(sample.size)):
        h.add_vertex()
    for v, d in enumerate(sample.tolist()):
        for _ in range(d):
            h.add_hyperedge([v])
    hpath = tmp_path / "h.txt"
    write_hypergraph(h, hpath)
    assert run_cli(["fit-powerlaw", "--input", str(hpath), "--kmin", "1"]) == 0
    out = capsys.readouterr().out
    beta = float(next(l for l in out.splitlines() if l.startswith("beta_hat:")).split(":")[1])
    assert 2.4 < beta < 2.6


def test_fit_powerlaw_underflowing_tail_is_one_line_error(tmp_path, capsys, recwarn):
    """49 vertices of degree 1000 and one of 1001: the fit's zeta underflows."""
    h = Hypergraph()
    for v in range(50):
        h.add_vertex()
        h.add_hyperedge([v] * (1001 if v == 49 else 1000))
    hpath = tmp_path / "h.txt"
    write_hypergraph(h, hpath)
    for kmin, message in ((["--kmin", "1000"], "the function value at x=128.0 is NaN; "
                                               "the solver cannot continue"),
                          ([], "no cutoff leaves 50 tail samples")):
        assert run_cli(["fit-powerlaw", "--input", str(hpath), *kmin]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not recwarn.list

def test_bounds_subcommand_analytic(tmp_path, capsys):
    cfg = write(tmp_path, G_CONFIG, "g.txt")
    assert run_cli(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "lemma3_bound:" in out and "lemma4_bound:" in out
    alpha = float(next(l for l in out.splitlines() if l.startswith("alpha_noise:")).split(":")[1])
    assert alpha == pytest.approx(0.2, abs=1e-12)


def test_bounds_config_only_with_an_unbounded_size_law_prints_nan(tmp_path, capsys):
    """A Poisson size law has no largest size, so the bounds' size cap, and
    with it both lemma bounds, are undefined; the noise lines stay."""
    cfg = write(tmp_path, G_THREE, "g.txt")
    assert run_cli(["bounds", "--config", cfg]) == 0
    assert capsys.readouterr().out == (
        "lemma3_bound: nan\nlemma4_bound: nan\nalpha_noise: 0.29999999999999993\nbeta_max: 0.4\n")


def test_bounds_config_only_with_bounded_sizes_keeps_its_output(tmp_path, capsys):
    """With every size law bounded, the size cap is the largest size the
    model draws (3 * 5 here), which is also the expected-size pmf's largest."""
    cfg = write(tmp_path, G_THREE.replace("shifted_poisson(1.0,2)", "uniform_int(1,5)"), "g.txt")
    assert run_cli(["bounds", "--config", cfg]) == 0
    assert capsys.readouterr().out == (
        "lemma3_bound: -876.1458686267705\nlemma4_bound: -80904766387954.89\n"
        "alpha_noise: 0.29999999999999993\nbeta_max: 0.4\n")


def test_oracle_subcommand(tmp_path):
    cfg = write(
        tmp_path,
        "model: h\np_v: 0.3\np_ve: 0.3\np_e: 0.4\ny: constant(3)\nx: constant(3)\ngamma: 1.0\n",
        "h.txt",
    )
    out = tmp_path / "oracle.csv"
    assert run_cli(["oracle", "--config", cfg, "--kmax", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,limit_fraction,per_vertex_fraction"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.18)


def test_experiment_example_regressions(tmp_path):
    cfg = write(tmp_path, "kind: example_regressions\n", "exp.txt")
    out = tmp_path / "reg.csv"
    assert run_cli(["experiment", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "case,beta_predicted,beta_expected"
    for line in lines[1:]:
        _, predicted, expected = line.split(",")
        assert float(predicted) == pytest.approx(float(expected), abs=1e-12)


def test_config_error_exit_code(tmp_path):
    cfg = write(tmp_path, "model: h\nbogus: 1\n", "bad.txt")
    assert run_cli(["predict", "--config", cfg]) == 2


def test_wrong_model_for_subcommand(tmp_path):
    cfg = write(tmp_path, G_CONFIG, "g.txt")
    assert run_cli(["generate-h", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_unknown_subcommand_exit_code(capsys):
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_runtime_error_exit_code(tmp_path):
    assert run_cli(["fit-powerlaw", "--input", str(tmp_path / "missing.txt")]) == 1


def test_missing_partition_vertex_is_runtime_error(tmp_path):
    h = Hypergraph()
    for _ in range(3):
        h.add_vertex()
    h.add_hyperedge([0, 1, 2])
    hpath = tmp_path / "h.txt"
    write_hypergraph(h, hpath)
    ppath = tmp_path / "p.tsv"
    ppath.write_text("0\t0\n1\t0\n")
    assert run_cli(["modularity", "--input", str(hpath), "--partition", str(ppath)]) == 1


def test_bounds_subcommand_empirical(tmp_path, capsys):
    cfg = write(tmp_path, G_CONFIG, "g.txt")
    out = tmp_path / "gh.txt"
    comm = tmp_path / "gc.tsv"
    assert run_cli([
        "generate-g", "--config", cfg, "--seed", "4", "--steps", "5000",
        "--out", str(out), "--communities", str(comm),
    ]) == 0
    capsys.readouterr()
    assert run_cli(["bounds", "--config", cfg, "--input", str(out),
                    "--communities", str(comm)]) == 0
    outtext = capsys.readouterr().out
    alpha = float(next(l for l in outtext.splitlines() if l.startswith("alpha_noise:")).split(":")[1])
    assert alpha == pytest.approx(0.2, abs=0.03)


def test_bounds_input_without_communities_is_a_config_error(tmp_path, capsys):
    """The missing flag is reported before --input is read, so a
    nonexistent input still exits 2 with one config error line."""
    cfg = write(tmp_path, G_CONFIG, "g.txt")
    assert run_cli(["bounds", "--config", cfg, "--input", str(tmp_path / "missing.txt")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: --input also needs --communities for the labels\n"


def test_bounds_communities_without_input_is_a_config_error(tmp_path, capsys):
    """Labels without a hyperedge list would be ignored, so they are refused
    before the labels file is read."""
    cfg = write(tmp_path, G_CONFIG, "g.txt")
    assert run_cli(["bounds", "--config", cfg, "--communities",
                    str(tmp_path / "missing.tsv")]) == 2
    assert capsys.readouterr() == (
        "", "config error: --communities also needs --input for the hyperedge list\n")


def test_bounds_label_beyond_the_config_communities_is_one_line(tmp_path, capsys):
    cfg = write(tmp_path, G_CONFIG, "g.txt")  # two communities
    hpath = write(tmp_path, "0 1\n1 2\n", "h.txt")
    labels = write(tmp_path, "0\t0\n1\t5\n2\t5\n", "labels.tsv")
    assert run_cli(["bounds", "--config", cfg, "--input", hpath, "--communities", labels]) == 1
    assert capsys.readouterr() == (
        "", f"error: {labels}: vertex 1 has block 5, but {cfg} has 2 communities\n")


def test_experiment_fig1_csv_columns(tmp_path):
    cfg = write(
        tmp_path,
        "kind: fig1_bound_vs_detected\nuniformity: 2\ncommunities: 4\n"
        "alphas: 0, 0.3\np: 0.25\ngamma: 1.0\ntarget_vertices: 400\n",
        "exp.cfg",
    )
    out = tmp_path / "fig1.csv"
    assert run_cli(["experiment", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,lemma3_bound,detected_q2,planted_q2"
    assert len(lines) == 3


@pytest.mark.parametrize("text, key", [
    ("kind: fig1_bound_vs_detected\ncommunities: 1\nalphas: 0.2\n", "alphas"),
    ("kind: fig1_bound_vs_detected\np: 0\n", "p"),
    ("kind: g_vs_avin\nalphas: 1.5\n", "alphas"),
    ("kind: fig1_bound_vs_detected\nuniformity: 0\n", "uniformity"),
    ("kind: recurrence_check\nk_max: 0\n", "k_max"),
    ("kind: beta_sweep\n", "p_ve"),
    ("kind: recurrence_check\np_v: 0\np_ve: 0\np_e: 1\n", "p_ve"),
])
def test_experiment_option_error_exit_code(tmp_path, capsys, text, key):
    cfg = write(tmp_path, text, "exp.cfg")
    assert run_cli(["experiment", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"'{key}'" in err


@pytest.mark.parametrize("text, key", [
    ("model: h\np_v: 0.9\np_ve: 0.3\n", "p_ve"),
    ("model: h\np_v: -0.1\np_ve: 0.5\n", "p_v"),
    ("model: h\np_ve: 0.5\np_e: 0.1\n", "x"),
    ("model: h\np_ve: 1\nm: 0\n", "m"),
    ("model: g\np: 1.5\nmembership: 0.5,0.5\nx: constant(2); constant(2)\n0: 0.5\n1: 0.5\n", "p"),
    ("model: g\np: 0.5\nmembership: 0.5,0.5\nx: constant(2)\n0: 0.5\n1: 0.5\n", "x"),
    # non-finite numbers pass every range check written as a comparison
    ("model: h\np_ve: 1\ny: constant(2)\ngamma: nan\n", "gamma"),
    ("model: h\np_ve: 1\ny: constant(2)\ngamma: inf\n", "gamma"),
    ("model: g\np: 0.5\nmembership: nan,nan\nx: constant(2); constant(2)\n0: 0.5\n1: 0.5\n",
     "membership"),
    ("model: g\np: 0.5\nmembership: 0.5,0.5\nx: constant(2); constant(2)\n0: nan\n1: 0.5\n", "0"),
    ("model: h\np_ve: 1\ny: shifted_poisson(nan,2)\n", "y"),
    ("model: h\np_ve: 0.5\np_e: 0.5\ny: constant(2)\nx: categorical(2:nan,3:0.5)\n", "x"),
])
def test_model_config_error_names_key(tmp_path, capsys, text, key):
    cfg = write(tmp_path, text, "model.cfg")
    assert run_cli(["predict", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"'{key}'" in err
    assert "p_vertex" not in err


@pytest.mark.parametrize("args, text, keys", [
    (["predict"], "model: h\np_ve: 1\ny: constant(1)\n", ["p_ve", "p_e", "y", "x"]),
    (["oracle"], "model: h\np_e: 1\nx: constant(2)\n", ["p_v", "p_ve"]),
    (["predict"], "model: g\np: 1\nmembership: 0.5,0.5\nx: constant(2); constant(2)\n"
                  "0: 0.5\n1: 0.5\n", ["p"]),
    (["oracle", "--kmax", "3"], "model: h\np_ve: 1\ny: constant(2)\nm: 5\n", ["--kmax", "m"]),
    (["predict"], "model: g\np: 0.5\nmembership: 0.5,0.5\nx: constant(2); constant(2)\n0: 1\n",
     ["i,j: prob"]),
], ids=["predict_degenerate_h", "oracle_no_vertices", "predict_g_p_one", "oracle_kmax_below_m",
        "predict_g_untouched_community"])
def test_degenerate_model_config_exit_code(tmp_path, capsys, args, text, keys):
    cfg = write(tmp_path, text, "model.cfg")
    out = tmp_path / "out.csv"
    argv = args[:1] + ["--config", cfg] + args[1:]
    if args[0] == "oracle":
        argv += ["--out", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert all(f"'{key}'" in err for key in keys)
    assert "p_vertex" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [("generate-h", BA_CONFIG), ("generate-g", G_CONFIG)])
def test_negative_steps_rejected_at_argument_parsing(tmp_path, capsys, command, config):
    cfg = write(tmp_path, config, "model.cfg")
    out = tmp_path / "out.txt"
    assert run_cli([command, "--config", cfg, "--steps", "-1", "--out", str(out)]) == 2
    assert "argument --steps: steps must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_negative_kmax_rejected_at_argument_parsing(tmp_path, capsys):
    cfg = write(tmp_path, BA_CONFIG, "ba.cfg")
    out = tmp_path / "oracle.csv"
    assert run_cli(["oracle", "--config", cfg, "--kmax", "-1", "--out", str(out)]) == 2
    assert "argument --kmax: kmax must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kmin", ["0", "-4"])
def test_kmin_below_one_rejected_at_argument_parsing(tmp_path, capsys, kmin):
    cfg = write(tmp_path, BA_CONFIG, "ba.cfg")
    hpath = tmp_path / "h.txt"
    assert run_cli(["generate-h", "--config", cfg, "--steps", "2000", "--out", str(hpath)]) == 0
    capsys.readouterr()
    assert run_cli(["fit-powerlaw", "--input", str(hpath), "--kmin", kmin]) == 2
    captured = capsys.readouterr()
    assert f"argument --kmin: kmin must be >= 1, got {kmin}" in captured.err
    assert captured.out == ""


# Hypergraphs with no pair to flatten: no vertex, no edge, only size-1 edges,
# and one edge on one vertex. Each with a partition for ``modularity`` and the
# exact lines ``detect`` and ``modularity`` print.
DEGENERATE = {
    "empty_file": ("", "", "blocks: 0\nscore: 0.0\nflattened_score: 0.0\n",
                   "score: 0.0\nedge_contribution: 0.0\ndegree_tax: 0.0\nblocks: 0\n"),
    "zero_vertices": ("#vertices 0\n", "", "blocks: 0\nscore: 0.0\nflattened_score: 0.0\n",
                      "score: 0.0\nedge_contribution: 0.0\ndegree_tax: 0.0\nblocks: 0\n"),
    "size_one_edges": ("#vertices 3\n0\n1\n", "0\t0\n1\t1\n2\t1\n",
                       "blocks: 3\nscore: 0.0\nflattened_score: 0.0\n",
                       "score: 0.0\nedge_contribution: 1.0\ndegree_tax: 1.0\nblocks: 2\n"),
    "one_vertex_thrice": ("0 0 0\n", "0\t0\n", "blocks: 1\nscore: 0.0\nflattened_score: 0.0\n",
                          "score: 0.0\nedge_contribution: 1.0\ndegree_tax: 1.0\nblocks: 1\n"),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_inputs_detect_flatten_and_score(tmp_path, capsys, case):
    text, labels, detected, scored = DEGENERATE[case]
    hpath = write(tmp_path, text, "h.txt")
    part, csv = tmp_path / "part.tsv", tmp_path / "flat.csv"
    assert run_cli(["detect", "--input", hpath, "--seed", "0", "--out", str(part)]) == 0
    assert capsys.readouterr().out == detected
    num_vertices = int(detected.split()[1])
    assert part.read_text() == "".join(f"{v}\t{v}\n" for v in range(num_vertices))
    assert run_cli(["flatten", "--input", hpath, "--out", str(csv)]) == 0
    assert csv.read_text() == "u,v,weight\n"
    assert run_cli(["modularity", "--input", hpath,
                    "--partition", write(tmp_path, labels, "labels.tsv")]) == 0
    assert capsys.readouterr().out == scored


@pytest.mark.parametrize("command", ["detect", "flatten"])
def test_vertex_count_past_the_pair_key_range_is_runtime_error(tmp_path, capsys, command):
    # pair keys u * n + v are int64, so n may not pass isqrt(2**63 - 1)
    hpath = write(tmp_path, "#vertices 3037000500\n0 1\n", "h.txt")
    argv = [command, "--input", hpath, "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.strip().endswith("3037000500 vertices are too many to flatten")
