"""The benchmark harness still drives the package.

``perfbench/tracing.py`` wraps methods and module globals of hypermod by
name (``PreferentialSelector.select_vertices``/``record_degree_increment``,
``genh.h_step``, ``geng.g_step``, ...); a rename or signature change breaks
it without breaking any unit test. ``--smoke`` runs every workload at toy
size, traced and untraced, and checks the results. ``pins.json`` applies
only at bench size, so each workload also runs there once, for a pinned
seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ok = [line for line in proc.stdout.splitlines() if line.startswith("smoke ") and " ok " in line]
    assert len(ok) == 4, proc.stdout


@pytest.mark.parametrize("workload", ["h_ba", "h_sweep", "g_2u", "g_20u"])
def test_bench_size_run_matches_pins(workload):
    """Seed 0 is pinned: the untraced run must write ``pins.json``'s
    fingerprints, and the traced run the same ones and its exact counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout


TRACED_CLI = """\
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracing
from hypermod.cli import run_cli

tracer = tracing.Tracer()
tracing.install(tracer)
h_cfg, g_cfg = sys.argv[1:3]
assert run_cli(["generate-h", "--config", h_cfg, "--steps", "70", "--out", "h.txt"]) == 0
assert run_cli(["generate-g", "--config", g_cfg, "--steps", "90", "--out", "g.txt",
                "--communities", "labels.tsv"]) == 0
assert run_cli(["bounds", "--config", g_cfg]) == 0
from_config = tracer.snapshot()["analysis.bound_inputs_s"]
assert run_cli(["bounds", "--config", g_cfg, "--input", "g.txt",
                "--communities", "labels.tsv"]) == 0
values = tracer.snapshot()
print(values["genh.steps"], values["geng.steps"], values["genh.generate_s"] > 0,
      values["geng.generate_s"] > 0, from_config > 0,
      values["analysis.bound_inputs_s"] > from_config)
"""


def test_tracer_cli_spans_are_reached(tmp_path):
    """The tracer patches ``cli``'s module globals by name. A handler that
    reached the library some other way would leave its spans at zero while
    the smoke run's fingerprints and exact counts still agree, so each span
    the CLI should cross is checked here, in a fresh interpreter that keeps
    the patches out of the other tests."""
    h_cfg = tmp_path / "h.cfg"
    h_cfg.write_text("model: h\np_ve: 1.0\ny: constant(2)\nm: 2\n")
    g_cfg = tmp_path / "g.cfg"
    g_cfg.write_text("model: g\np: 0.4\nmembership: 0.5, 0.5\nx: constant(2); constant(3)\n"
                     "0: 0.7\n1: 0.2\n0,1: 0.1\n")
    script = TRACED_CLI.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(h_cfg), str(g_cfg)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the last line, after the subcommands' own key-value output
    assert proc.stdout.splitlines()[-1].split() == ["70", "90"] + ["True"] * 4, proc.stdout
