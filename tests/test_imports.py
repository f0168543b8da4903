"""Which numpy and scipy modules a run loads.

The growth models, the degree-fraction oracle, the exponents of the
community model and of the example regressions, the bounds of a config
and the tail fit need only the standard library. So importing the package,
running ``generate-h``, ``generate-g``, ``oracle``, ``predict`` on a ``g``
config, ``bounds --config`` and the ``recurrence_check``,
``example_regressions`` and ``beta_sweep`` experiments, and fitting a
histogram's tail load neither numpy nor scipy: the fit's Hurwitz zeta,
root solver and sums are in the package. Parsing a hyperedge file (and so
``fit-powerlaw``), flatten, Louvain, scoring and the measured bound inputs
compute on numpy arrays and load numpy, but no scipy module and not
``numpy.ma``: their distinct keys come from a sort, since a plain
``np.unique`` imports ``numpy.ma`` on numpy >= 2.3. Only the amplitude of
``predict`` on an ``h`` config loads ``scipy.special`` (for log-gamma),
and nothing loads ``scipy.optimize``.
No command but the experiments with replicas loads ``statistics`` (and with
it ``fractions`` and ``decimal``): a mean is ``math.fsum`` over a length.
The records (parameters, run stats, fits, bound inputs) are
``typing.NamedTuple``s, so no command that loads no numpy loads
``dataclasses`` or ``inspect`` (nor ``inspect``'s ``ast``, ``dis`` and
``tokenize``); numpy imports ``inspect`` itself, so the commands that load
numpy are exempt.
pytest itself loads numpy and scipy, so each case runs in a fresh
interpreter.

Since the numpy-free commands need nothing but the standard library, they
also run under every other ``python3.X`` (X from 10 to 19) on ``PATH``, with
``PYTHONPATH`` at the package's source, and must print and write the same
bytes as under the running interpreter.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hypermod

SRC = str(Path(hypermod.__file__).resolve().parents[1])

G_CONFIG = """\
model: g
p: 0.4
membership: 0.5, 0.5
x: constant(3); constant(2)
steps: 200
0: 0.45
1: 0.45
0,1: 0.1
"""

H_CONFIG = """\
model: h
p_v: 0.2
p_ve: 0.4
p_e: 0.4
y: constant(2)
x: constant(3)
gamma: 0.5
"""

RECURRENCE = """\
kind: recurrence_check
replicas: 2
k_max: 5
steps: 300
"""

BETA_SWEEP = """\
kind: beta_sweep
replicas: 1
gamma_values: 0, 0.5
p_ve: 0.5
p_e: 0.5
x: constant(2)
steps: 2000
"""

REGRESSIONS = "kind: example_regressions\n"

PRELUDE = """\
import json, sys
from pathlib import Path
from hypermod.cli import run_cli
d = Path(sys.argv[1])
def run(*argv):
    assert run_cli([a.format(d=d) for a in argv]) == 0, argv
"""

CASES = {
    "import": "import hypermod, hypermod.cli\n",
    "generate-h": 'run("generate-h", "--config", "{d}/h.cfg", "--steps", "2000", "--out", "{d}/h.txt")\n',
    "generate-g": 'run("generate-g", "--config", "{d}/g.cfg", "--out", "{d}/g.txt", '
                  '"--communities", "{d}/labels.tsv")\n',
    "bounds_config": 'run("bounds", "--config", "{d}/g.cfg")\n',
    "detect": 'run("detect", "--input", "{d}/small.txt", "--out", "{d}/part.tsv")\n',
    "modularity": """\
run("detect", "--input", "{d}/small.txt", "--out", "{d}/part.tsv")
run("modularity", "--input", "{d}/small.txt", "--partition", "{d}/part.tsv")
""",
    "oracle": 'run("oracle", "--config", "{d}/h.cfg", "--kmax", "8", "--out", "{d}/oracle.csv")\n',
    "predict_g": 'run("predict", "--config", "{d}/g.cfg")\n',
    "recurrence_check": 'run("experiment", "--config", "{d}/exp.cfg", "--out", "{d}/exp.csv")\n',
    "example_regressions":
        'run("experiment", "--config", "{d}/regressions.cfg", "--out", "{d}/regressions.csv")\n',
    "generate_detect_score_bounds": """\
run("generate-g", "--config", "{d}/g.cfg", "--seed", "1", "--out", "{d}/g.txt",
    "--communities", "{d}/labels.tsv")
run("detect", "--input", "{d}/g.txt", "--out", "{d}/part.tsv")
run("modularity", "--input", "{d}/g.txt", "--partition", "{d}/part.tsv")
run("bounds", "--config", "{d}/g.cfg")
run("bounds", "--config", "{d}/g.cfg", "--input", "{d}/g.txt", "--communities", "{d}/labels.tsv")
""",
    "fit_tail_exponent": """\
from hypermod import DegreeHistogram, fit_tail_exponent
counts = {k: 10_000 // k ** 2 for k in range(1, 60)}
fit_tail_exponent(DegreeHistogram(counts, sum(counts.values())))
""",
    "fit-powerlaw": """\
run("generate-h", "--config", "{d}/h.cfg", "--seed", "1", "--steps", "2000", "--out", "{d}/h.txt")
run("fit-powerlaw", "--input", "{d}/h.txt")
run("fit-powerlaw", "--input", "{d}/h.txt", "--kmin", "3")
""",
    "beta_sweep": 'run("experiment", "--config", "{d}/sweep.cfg", "--out", "{d}/sweep.csv")\n',
    "predict_h": 'run("predict", "--config", "{d}/h.cfg")\n',
}


# the cases that load no numpy; every other one computes on arrays
NO_NUMPY = {"import", "generate-h", "generate-g", "oracle", "predict_g", "bounds_config",
            "recurrence_check", "example_regressions", "fit_tail_exponent", "beta_sweep"}


def loaded_modules(case, tmp_path):
    """Names of the scipy modules, and ``numpy``, ``numpy.ma``,
    ``statistics``, ``dataclasses`` and ``inspect`` if they are loaded, after
    running ``case`` in a fresh interpreter."""
    (tmp_path / "g.cfg").write_text(G_CONFIG)
    (tmp_path / "small.txt").write_text("0 1 2\n1 2\n2 3 4\n3 4\n")
    (tmp_path / "h.cfg").write_text(H_CONFIG)
    (tmp_path / "exp.cfg").write_text(RECURRENCE)
    (tmp_path / "sweep.cfg").write_text(BETA_SWEEP)
    (tmp_path / "regressions.cfg").write_text(REGRESSIONS)
    code = PRELUDE + CASES[case] + (
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy'\n"
        "                        or m in ('numpy', 'numpy.ma', 'statistics',\n"
        "                                 'dataclasses', 'inspect'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=False,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", ["import", "oracle", "predict_g", "recurrence_check",
                                  "example_regressions", "generate_detect_score_bounds",
                                  "fit_tail_exponent", "fit-powerlaw", "beta_sweep",
                                  "generate-h", "generate-g", "bounds_config", "detect"])
def test_no_scipy_without_special_functions(case, tmp_path):
    loaded = loaded_modules(case, tmp_path)
    assert [m for m in loaded
            if m not in ("numpy", "statistics", "dataclasses", "inspect")] == []
    assert ("numpy" in loaded) == (case not in NO_NUMPY)


@pytest.mark.parametrize("case", sorted(NO_NUMPY))
def test_numpy_free_commands_load_no_inspect(case, tmp_path):
    loaded = loaded_modules(case, tmp_path)
    assert "dataclasses" not in loaded and "inspect" not in loaded


@pytest.mark.parametrize("case", ["generate-g", "detect", "modularity"])
def test_commands_load_no_statistics(case, tmp_path):
    assert "statistics" not in loaded_modules(case, tmp_path)


def test_h_prediction_loads_special_not_optimize(tmp_path):
    """gamma 0.5 in the ``h`` config: the amplitude evaluates log-gamma."""
    loaded = loaded_modules("predict_h", tmp_path)
    assert "scipy.special" in loaded and "numpy" in loaded
    assert not [m for m in loaded if m.split(".")[:2] == ["scipy", "optimize"]]


# the numpy-free commands whose stdout and files every interpreter must reproduce
CONTRACT_COMMANDS = [
    ["generate-h", "--config", "h.cfg", "--seed", "3", "--steps", "2000", "--out", "h.txt",
     "--stats", "h_stats.csv"],
    ["generate-g", "--config", "g.cfg", "--seed", "3", "--out", "g.txt",
     "--communities", "labels.tsv", "--stats", "g_stats.csv"],
    ["oracle", "--config", "h.cfg", "--kmax", "8", "--out", "oracle.csv"],
    ["predict", "--config", "g.cfg"],
    ["bounds", "--config", "g.cfg"],
    ["experiment", "--config", "exp.cfg", "--seed", "3", "--out", "exp.csv"],
]


def other_interpreters():
    """Every ``python3.X`` on PATH, X from 10 to 19, that starts and reports
    another version than the running interpreter's."""
    found = []
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        # a pyenv shim of a version that is not installed exits 127
        probe = subprocess.run([exe, "-c", "import sys; print(sys.version)"],
                               capture_output=True, text=True, timeout=60, check=False)
        if probe.returncode == 0 and probe.stdout.strip() != sys.version:
            found.append(exe)
    return found


def contract_outputs(exe, workdir):
    """The stdout of each contract command and the bytes of every file they
    write, when ``exe`` runs them in ``workdir``."""
    workdir.mkdir()
    configs = {"h.cfg": H_CONFIG, "g.cfg": G_CONFIG, "exp.cfg": RECURRENCE}
    for name, text in configs.items():
        (workdir / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    out = {}
    for argv in CONTRACT_COMMANDS:
        done = subprocess.run([exe, "-m", "hypermod.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, timeout=120, check=False)
        assert done.returncode == 0, (exe, argv, done.stderr)
        out[" ".join(argv)] = done.stdout
    out.update((p.name, p.read_bytes()) for p in workdir.iterdir() if p.name not in configs)
    return out


def test_other_interpreters_print_and_write_the_same_bytes(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.X (X >= 10) on PATH")
    expected = contract_outputs(sys.executable, tmp_path / "running")
    assert len(expected) == len(CONTRACT_COMMANDS) + 7  # stdouts and seven files
    for i, exe in enumerate(interpreters):
        assert contract_outputs(exe, tmp_path / f"other{i}") == expected, exe
