"""Golden fingerprints: SHA-256 of CLI stdout and of every written file.

Small seeded runs cover both generators (gamma = 0 and > 0, m > 1,
Poisson and categorical sizes, the cardinality cap, several communities
with a cross-community profile), and the detect/score path and the
flattened graph of the `g` output. The analysis commands are covered
too: both exponent predictions (the `h` one with both log-gamma terms),
the degree-fraction oracle, tail fits with and without a fixed cutoff,
both bound inputs, and the two experiments that predict or fit
exponents. The two community sweeps (Figure 1, and `g` against the
community-free background) are pinned at two replicas and two alphas.
A changed hash means the output bytes changed for a fixed seed.
"""

import hashlib

import pytest

from hypermod.cli import run_cli

H_GAMMA0 = """\
model: h
p_ve: 0.5
p_e: 0.5
y: categorical(2:0.5,3:0.5)
x: categorical(2:0.3,4:0.7)
m: 2
steps: 300
"""

H_SMOOTHED_CAPPED = """\
model: h
p_v: 0.2
p_ve: 0.3
p_e: 0.3, 0.2
y: shifted_poisson(1.5,2)
x: shifted_poisson(2.0,1); categorical(1:0.2,3:0.8)
gamma: 1.5
cardinality_cap: on
steps: 400
"""

G_THREE = """\
model: g
p: 0.35
membership: 0.5, 0.3, 0.2
x: constant(3); categorical(2:0.5,4:0.5); shifted_poisson(1.0,2)
gamma: 1.0
steps: 600
0: 0.4
1: 0.2
2: 0.1
0,1: 0.15
0,2: 0.1
0,1,2: 0.05
"""

BA = """\
model: h
p_ve: 1
y: constant(2)
m: 3
steps: 3000
"""

RECURRENCE = """\
kind: recurrence_check
replicas: 3
k_max: 8
steps: 2000
"""

BETA_SWEEP = """\
kind: beta_sweep
replicas: 2
gamma_values: 0, 1.5
p_ve: 0.5
p_e: 0.5
y: constant(3)
x: constant(3)
steps: 3000
"""

FIG1 = """\
kind: fig1_bound_vs_detected
replicas: 2
uniformity: 2
communities: 4
alphas: 0, 0.3
p: 0.25
gamma: 1.0
target_vertices: 300
"""

G_VS_AVIN = """\
kind: g_vs_avin
replicas: 2
uniformity: 3
communities: 3
alphas: 0, 0.3
p: 0.3
gamma: 1.0
target_vertices: 300
"""

# Each case: config text and the commands run in order. "{d}" is the
# working directory; files named "out_*" are fingerprinted after the run.
CASES = {
    "h_gamma0": (H_GAMMA0, [
        ["generate-h", "--config", "{d}/cfg", "--seed", "3",
         "--out", "{d}/out_h.txt", "--stats", "{d}/out_stats.csv"],
    ]),
    "h_smoothed_capped": (H_SMOOTHED_CAPPED, [
        ["generate-h", "--config", "{d}/cfg", "--seed", "7",
         "--out", "{d}/out_h.txt", "--stats", "{d}/out_stats.csv"],
    ]),
    "g_detect_score": (G_THREE, [
        ["generate-g", "--config", "{d}/cfg", "--seed", "5", "--out", "{d}/out_g.txt",
         "--communities", "{d}/out_labels.tsv", "--stats", "{d}/out_stats.csv"],
        ["detect", "--input", "{d}/out_g.txt", "--seed", "2", "--out", "{d}/out_part.tsv"],
        ["modularity", "--input", "{d}/out_g.txt", "--partition", "{d}/out_part.tsv"],
        ["modularity", "--input", "{d}/out_g.txt", "--partition", "{d}/out_labels.tsv"],
        ["flatten", "--input", "{d}/out_g.txt", "--out", "{d}/out_flat.csv"],
    ]),
    "h_predict_oracle": (H_SMOOTHED_CAPPED, [
        ["predict", "--config", "{d}/cfg"],
        ["oracle", "--config", "{d}/cfg", "--kmax", "12", "--out", "{d}/out_oracle.csv"],
    ]),
    "g_predict_bounds": (G_THREE, [
        ["predict", "--config", "{d}/cfg"],
        ["bounds", "--config", "{d}/cfg"],
        ["generate-g", "--config", "{d}/cfg", "--seed", "5", "--out", "{d}/out_g.txt",
         "--communities", "{d}/out_labels.tsv"],
        ["bounds", "--config", "{d}/cfg", "--input", "{d}/out_g.txt",
         "--communities", "{d}/out_labels.tsv"],
    ]),
    "ba_fit": (BA, [
        ["generate-h", "--config", "{d}/cfg", "--seed", "11", "--out", "{d}/out_h.txt"],
        ["fit-powerlaw", "--input", "{d}/out_h.txt"],
        ["fit-powerlaw", "--input", "{d}/out_h.txt", "--kmin", "5"],
    ]),
    "exp_recurrence": (RECURRENCE, [
        ["experiment", "--config", "{d}/cfg", "--seed", "4", "--out", "{d}/out_exp.csv"],
    ]),
    "exp_beta_sweep": (BETA_SWEEP, [
        ["experiment", "--config", "{d}/cfg", "--seed", "4", "--out", "{d}/out_exp.csv"],
    ]),
    "exp_fig1": (FIG1, [
        ["experiment", "--config", "{d}/cfg", "--seed", "4", "--out", "{d}/out_exp.csv"],
    ]),
    "exp_g_vs_avin": (G_VS_AVIN, [
        ["experiment", "--config", "{d}/cfg", "--seed", "4", "--out", "{d}/out_exp.csv"],
    ]),
}

GOLDEN = {
    "ba_fit": {
        "stdout_0": "0519df283139a5377138c35314bea67c75078bb2c5b0f27a49160fe1d29d3d0a",
        "stdout_1": "223427b3f251611a55c4ab6260354f1bef26d42400b7dbfecaebe8255c5e3d3b",
        "stdout_2": "4ad07fc2b1a9e48a61792cf9cf29a18cc9340c036fb352dc84780eefc461f334",
        "out_h.txt": "6c88373f67ec65ddd0c3fc54250e13e691de4156c79a27bfdb4019a8c85035ab",
    },
    "exp_beta_sweep": {
        "stdout_0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_exp.csv": "d53fc17619ab4724a6aaad28e3d0bea1b3f85df6678920ea8eb9f706141c92ad",
    },
    "exp_fig1": {
        "stdout_0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_exp.csv": "91e6f89d6b859441177d4dfae0ccc3899a52554bd3a1325f6c18a50420556ddc",
    },
    "exp_g_vs_avin": {
        "stdout_0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_exp.csv": "7882251a68b87af9bab52e25c7694c64f0615322ea6af5211b5975ec4b704afc",
    },
    "exp_recurrence": {
        "stdout_0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_exp.csv": "245ac9df6f9bf04475d444d4baddb67caa379ec5b57a5439dcb6af05c615042b",
    },
    "g_detect_score": {
        "stdout_0": "afadbcdcb5a44c2aa4f6505a538e67ceee24e7a89d652ca2d7f397ed4b58d326",
        "stdout_1": "96aa59009365fbe8090d3bd41373f4aa8fcadd3764b5d45f9daf5e5ec0c9dc85",
        "stdout_2": "1b346bdc86edbcf97cf3a25c665dc9678a25efc85eed1ff096220f101eab9029",
        "stdout_3": "207514c4be7e3525eada6b1842b56c475c60fe5218dd62a873a6ee5f83bc9eb7",
        "stdout_4": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_flat.csv": "b7baaafbe9514699817b1f958ebbe79db81380d366d6e8b2ee3ead67a33eb9a0",
        "out_g.txt": "553de47dba7346b2aed5f303dbc79402550620399e0109fca92825fc38374e31",
        "out_labels.tsv": "31c8c5f49ae69bfbc9f771b283a5fe0ea4c2627718f861687232afade1f349ed",
        "out_part.tsv": "5c3ce0e6c6b30e33282595e22cc9fa63ab91ad023ffc56cd9a658da8f4b1e806",
        "out_stats.csv": "c95d0c1efb191970038e7642d2dc6740042274dc84e10499e70b24bf30807b90",
    },
    "g_predict_bounds": {
        "stdout_0": "edf518a5b67e38a708c2afec0fd4f026f08ce5d327603e1585f960649174246c",
        "stdout_1": "3ea72695eab3d92ad9c31cb36ded5526a393dfbfdf81f94689055b352403aaa2",
        "stdout_2": "afadbcdcb5a44c2aa4f6505a538e67ceee24e7a89d652ca2d7f397ed4b58d326",
        "stdout_3": "743dbfa32ff8b1f232324ee1eb05ff8470813c5617a7d21363feeb7a6ac55697",
        "out_g.txt": "553de47dba7346b2aed5f303dbc79402550620399e0109fca92825fc38374e31",
        "out_labels.tsv": "31c8c5f49ae69bfbc9f771b283a5fe0ea4c2627718f861687232afade1f349ed",
    },
    "h_gamma0": {
        "stdout_0": "d011765acf2812afac10e9b70903c14a2c7e1b7fe731564bd706e031a022fd16",
        "out_h.txt": "e37da40879e5a562ab89b1af63f901c46135f94deb47013576eef828c65c8906",
        "out_stats.csv": "b8d4cebad6d82bdfd5a153cf892402b89b40863649f5211277b8d24d5abfb992",
    },
    "h_predict_oracle": {
        "stdout_0": "c93d25c67fb7f65f94aa9e9c75cad9f51e64f0e4cb12309510bf784c47a15afc",
        "stdout_1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out_oracle.csv": "3bfbce9dd7d399927cdd9b4c66182578a2a5a4449f427b88070d5ba83c72f533",
    },
    "h_smoothed_capped": {
        "stdout_0": "7b6645e11ec4b422685f8a90468ffba5625aec974ad70bcf9fff9802dad257dd",
        "out_h.txt": "1cc1b9b34e778da28f6add8aa1cbbfab87c6f8e71d90880ae9980206258fb314",
        "out_stats.csv": "070f682b2de7af3e77f446bc6d8aeae63eab47fd566fc4470c9ddcebe34a7bc0",
    },
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def fingerprints(case, tmp_path, capsys):
    text, commands = CASES[case]
    (tmp_path / "cfg").write_text(text)
    out = {}
    for i, argv in enumerate(commands):
        assert run_cli([a.format(d=tmp_path) for a in argv]) == 0
        out[f"stdout_{i}"] = _sha(capsys.readouterr().out.encode())
    for path in sorted(tmp_path.glob("out_*")):
        out[path.name] = _sha(path.read_bytes())
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_fingerprints(case, tmp_path, capsys):
    assert fingerprints(case, tmp_path, capsys) == GOLDEN[case]
