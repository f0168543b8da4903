"""The committed benchmark records, ``BENCH_*.json`` at the repository root.

Each file compares a commit with its parent on every workload that
``BENCHMARK.json`` declares. Per workload it keeps the seed, the number of
alternating parent/change pairs, and the last stdout line of
``perfbench/run.py`` (one JSON object, whose metrics are exactly the
end-to-end ones of ``BENCHMARK.json``, with their units) for every run on
each side; at the top it keeps the run length and the machine: ``nproc``
and the Python and numpy versions.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_a_record_exists():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_every_workload_and_run(path):
    record = json.loads(path.read_text())
    assert {"seconds", "nproc", "python", "numpy", "workloads"} <= record.keys()
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    for runs in record["workloads"].values():
        assert {"seed", "pairs", "parent", "change"} <= runs.keys()
        assert runs["pairs"] >= 1
        for side in ("parent", "change"):
            assert len(runs[side]) == runs["pairs"]
            for result in runs[side]:
                assert {"correct", "attempted", "failed", "metrics"} <= result.keys()
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                assert units == END_TO_END
