"""hypermod benchmark: seeded workloads, end-to-end metrics, traced per-layer runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # every workload at toy size, in seconds
    python3 perfbench/run.py --scale-up     # traced g_20u at 100k vertices, h_ba at 1M steps
    python3 perfbench/run.py --write-pins 0 1 2 ...   # re-pin fingerprints for these seeds

Each repetition runs in a fresh interpreter (``workloads.py``), one after
another, never two at once, so that import cost and heap growth belong to
one workload. With ``--trace 0`` repetitions run until ``--seconds`` is
spent and the end-to-end metrics are medians over them: ``run_s`` (start
of the interpreter to the end of the last operation), ``setup_s`` (start
of the interpreter to just before the first operation: interpreter start,
``import hypermod``, writing the configs and, for the API workload,
parsing them) and ``peak_rss_mb``. With ``--trace 1`` an untraced and a
traced repetition of the same seed alternate, and the per-layer metrics
come from the traced ones; ``trace_overhead`` is the ratio of their
``run_s`` medians.

Every repetition's outputs are fingerprinted. A fingerprint that differs
from the first repetition's, or from ``pins.json`` for a pinned seed, or a
failed independent check, fails the operation that produced the output.
A traced repetition fails as a whole if its fingerprints or exact counts
differ from the untraced run. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import SIZES  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Quality of the outputs: deterministic for a seed, printed for reading and
# guarded by the checks in workloads.py. name -> direction.
QUALITY = {
    "beta_hat": "closer to 3",
    "beta_err": "lower",
    "oracle_max_z": "lower",
    "detected_q": "higher",
    "planted_q": "higher",
    "lemma3_bound": "higher",
    "bound_gap": "lower",
}
PINS = HERE / "pins.json"
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


class Runner:
    """Starts repetitions one at a time in fresh interpreters under ``tmp``."""

    def __init__(self, tmp, limit_s):
        self.tmp = tmp
        self.deadline = time.monotonic() + limit_s
        self.count = 0

    def rep(self, workload, seed, scale, trace, full_checks):
        self.count += 1
        workdir = self.tmp / f"rep{self.count}"
        workdir.mkdir()
        spec = {"workload": workload, "seed": seed, "scale": scale, "trace": trace,
                "full_checks": full_checks, "workdir": str(workdir)}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the repetition started")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
                capture_output=True, text=True, timeout=timeout, cwd=workdir,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} repetition exceeded {timeout:.0f} s") from None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} repetition exited with {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-2000:]}")
        report = json.loads(lines[-1])
        report["setup_s"] = report["ready"] - started
        report["run_s"] = report["done"] - started
        return report


def load_pins(workload, seed, scale):
    if scale != "bench" or not PINS.exists():
        return {}
    return json.loads(PINS.read_text()).get(workload, {}).get(str(seed), {})


def judge(untraced, traced, pins):
    """Fold fingerprint and count comparisons into each repetition's errors."""
    first = untraced[0]
    expected = pins.get("fingerprints", first["fingerprints"])
    for rep in untraced:
        for key, value in rep["fingerprints"].items():
            if expected.get(key, value) != value:
                op = key.split(":", 1)[0]
                source = "pins.json" if pins else "the first repetition"
                rep["errors"][op] = rep["errors"][op] or f"{key} differs from {source}"
    counts = dict(first["derived"])
    counts.update(pins.get("counts", {}))
    for rep in traced:
        layers = rep["layers"]
        problems = [f"fingerprint {key}" for key, value in first["fingerprints"].items()
                    if rep["fingerprints"].get(key) != value]
        problems += [f"count {key}: {layers[key]} traced, {counts[key]} expected"
                     for key in EXACT_COUNTS if key in counts and layers[key] != counts[key]]
        problems += [f"count {key} differs between traced runs" for key in EXACT_COUNTS
                     if layers[key] != traced[0]["layers"][key]]
        if problems:
            message = "traced run differs from untraced: " + "; ".join(problems)
            rep["errors"] = {op: message for op in rep["errors"]}


def run_workload(workload, seed, seconds, trace, scale="bench", tmp=None, limit_s=RUN_LIMIT_S):
    """Run repetitions for ``seconds``; returns (untraced, traced) reports."""
    runner = Runner(tmp, limit_s)
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        untraced.append(runner.rep(workload, seed, scale, False, full_checks=not untraced))
        if trace:
            traced.append(runner.rep(workload, seed, scale, True, full_checks=False))
        elapsed = time.monotonic() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            break
    judge(untraced, traced, load_pins(workload, seed, scale))
    return untraced, traced


def median(reps, key):
    return statistics.median(rep[key] for rep in reps)


def summarize(untraced, traced):
    """The result object run.py prints last, plus the failures behind it."""
    reps = untraced + traced
    failures = [(op, err) for rep in reps for op, err in rep["errors"].items() if err]
    attempted = sum(len(rep["errors"]) for rep in reps)
    if traced:
        metrics = {}
        for name, (unit, _) in LAYER_METRICS.items():
            if name == "trace_overhead":
                value = median(traced, "run_s") / median(untraced, "run_s")
            elif unit == "s":
                value = statistics.median(rep["layers"][name] for rep in traced)
            else:  # counts repeat exactly for a seed
                value = traced[0]["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": median(untraced, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, failures


def report(workload, seed, untraced, traced, result, failures):
    """Human-readable lines; the JSON result follows them."""
    mode = "traced" if traced else "untraced"
    print(f"workload {workload}  seed {seed}  {len(untraced)} untraced + {len(traced)} traced "
          f"repetitions, one fresh interpreter each ({mode} metrics)")
    for name, unit in END_TO_END.items():
        values = [rep[name] for rep in untraced]
        print(f"  {name:<13} {statistics.median(values):10.4f} {unit:<3} median  "
              f"min {min(values):.4f}  max {max(values):.4f}  n={len(values)}")
    print(f"  {'error_rate':<13} {result['failed'] / result['attempted']:10.4f}     "
          f"{result['failed']} of {result['attempted']} operations failed")
    for name, value in untraced[0]["quality"].items():
        print(f"  {name:<13} {value:10.4f}     quality ({QUALITY[name]} is better)")
    if traced:
        for name, entry in result["metrics"].items():
            print(f"  {name:<32} {entry['value']:14.4f} {entry['unit']}")
    for op, err in failures[:10]:
        print(f"FAILED {op}: {err}", file=sys.stderr)


def check_declared(result, key):
    """Metric names and units must be exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    return want == got


def smoke(tmp):
    """Every workload at toy size: metrics emitted, checks pass, trace matches."""
    ok = True
    for workload in SIZES:
        t0 = time.monotonic()
        untraced, traced = run_workload(workload, 1, 0, True, scale="toy", tmp=tmp)
        plain, _ = summarize(untraced, [])
        full, failures = summarize(untraced, traced)
        good = (plain["correct"] and full["correct"] and check_declared(plain, "end_to_end")
                and check_declared(full, "per_layer"))
        ok = ok and good
        print(f"smoke {workload:<8} {'ok' if good else 'FAILED'}  {time.monotonic() - t0:.1f} s")
        for op, err in failures:
            print(f"  {op}: {err}")
    return ok


def scale_up(tmp):
    """One traced repetition each of g_20u at 100k vertices and h_ba at 1M steps."""
    ok = True
    for workload in ("g_20u", "h_ba"):
        untraced, traced = run_workload(workload, 1, 0, True, scale="large", tmp=tmp, limit_s=1800)
        result, failures = summarize(untraced, traced)
        print(f"scale-up {SIZES[workload]['large']}")
        report(workload, 1, untraced, traced, result, failures)
        ok = ok and result["correct"]
    return ok


def write_pins(seeds, tmp):
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload in SIZES:
        for seed in seeds:
            untraced, traced = run_workload(workload, seed, 0, True, tmp=tmp)
            result, failures = summarize(untraced, traced)
            if failures:
                raise BenchError(f"{workload} seed {seed} fails, not pinned: {failures}")
            pins.setdefault(workload, {})[str(seed)] = {
                "fingerprints": untraced[0]["fingerprints"],
                "counts": {key: traced[0]["layers"][key] for key in EXACT_COUNTS},
            }
            print(f"pinned {workload} seed {seed}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scale-up", action="store_true")
    parser.add_argument("--write-pins", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args()
    if not (ROOT / "src" / "hypermod" / "__init__.py").is_file():
        parser.exit(2, f"error: hypermod sources not found under {ROOT / 'src'}\n")

    # on SIGTERM unwind like an exception: subprocess.run kills and reaps the
    # running repetition and the finally below removes the scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        if args.smoke:
            return 0 if smoke(tmp) else 1
        if args.scale_up:
            return 0 if scale_up(tmp) else 1
        if args.write_pins:
            write_pins(args.write_pins, tmp)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        untraced, traced = run_workload(args.workload, args.seed, args.seconds, args.trace, tmp=tmp)
        result, failures = summarize(untraced, traced)
        report(args.workload, args.seed, untraced, traced, result, failures)
        print(json.dumps(result))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
