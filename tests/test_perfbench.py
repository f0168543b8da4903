"""The benchmark harness still drives the package.

``perfbench/tracing.py`` wraps methods and module globals of hypermod by
name (``PreferentialSelector.select_vertices``/``record_degree_increment``,
``genh.h_step``, ``geng.g_step``, ...); a rename or signature change breaks
it without breaking any unit test. ``--smoke`` runs every workload at toy
size, traced and untraced, and checks the results.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ok = [line for line in proc.stdout.splitlines() if line.startswith("smoke ") and " ok " in line]
    assert len(ok) == 4, proc.stdout
