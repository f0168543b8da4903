"""The benchmark's workloads; one repetition per fresh interpreter.

    python3 perfbench/workloads.py '{"workload": "g_2u", "seed": 1, "scale": "bench",
                                     "trace": false, "full_checks": true, "workdir": "..."}'

writes the configs the program is fed, runs the workload's operations,
fingerprints and checks the outputs, and prints one JSON report as its
last line. An operation is one CLI invocation or one top-level API call;
it fails on an exception, a nonzero exit or a failed output check. The
report carries monotonic-clock stamps (``ready`` just before the first
operation, ``done`` just after the last) so that ``run.py``, which knows
when it started the interpreter, can split set-up from the run.

``full_checks`` recomputes results independently of hypermod (strict
modularity from the written files, partition validity, acceptance bands).
The other repetitions of a run only have to match the first one's
fingerprints, which ``run.py`` compares.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

# Workload sizes. "bench" is what the benchmark measures and what pins.json
# pins; "toy" is for the smoke check; "large" is the one-off scale-up run.
SIZES = {
    "h_ba": {"toy": {"steps": 20_000}, "bench": {"steps": 150_000}, "large": {"steps": 1_000_000}},
    "h_sweep": {"toy": {"steps": 5_000, "replicas": 8}, "bench": {"steps": 20_000, "replicas": 8}},
    "g_2u": {"toy": {"vertices": 3_000}, "bench": {"vertices": 20_000}},
    "g_20u": {"toy": {"vertices": 3_000}, "bench": {"vertices": 10_000}, "large": {"vertices": 100_000}},
}

# Figure-1 row shapes: (uniformity, communities, alpha, p, gamma).
G_SHAPES = {"g_2u": (2, 47, 0.2, 0.25, 1.0), "g_20u": (20, 47, 0.21, 0.3, 1.0)}

BA_M, BA_Y = 3, 2
BETA_BAND = 0.3        # criterion 2: beta_hat within [2.7, 3.3]
BOUND_GAP_BAND = 0.05  # criterion 5: 20-uniform |lemma3 - detected| <= 0.05
PLANTED_SLACK = 0.02   # criterion 5: planted <= detected + 0.02
ORACLE_K_MAX = 20
# Largest |empirical - limit| degree fraction allowed; 8 x 20k steps stay
# within about 0.001 of the exact recurrence. |z| itself is reported, not
# bounded: with 8 replicas it follows a heavy-tailed t law.
ORACLE_ABS_BAND = 0.01
SCORE_TOL = 1e-9


class CliFailed(Exception):
    """A CLI invocation exited with a nonzero code."""


class Rep:
    """One repetition: operation outcomes, fingerprints and measurements."""

    def __init__(self, workdir, op_names):
        self.workdir = workdir
        self.errors = dict.fromkeys(op_names)
        self.fingerprints = {}
        self.quality = {}
        self.derived = {}
        self.ready_at = self.done_at = None
        self.peak_rss_mb = None

    def ready(self):
        self.ready_at = time.monotonic()

    def done(self):
        self.done_at = time.monotonic()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def fail(self, op, message):
        if self.errors[op] is None:
            self.errors[op] = message

    def check(self, op, condition, message):
        if not condition:
            self.fail(op, message)

    def cli(self, cli, op, *argv):
        """Run one CLI invocation in-process; returns its ``key: value`` lines."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_cli([op, *map(str, argv)])
        if code != 0:
            raise CliFailed(f"exit code {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        self.fingerprints[f"{op}:stdout"] = sha256(text.encode())
        return dict(line.split(": ", 1) for line in text.splitlines())

    def file(self, op, name):
        self.fingerprints[f"{op}:{name}"] = sha256((self.workdir / name).read_bytes())

    def report(self):
        return {
            "ready": self.ready_at,
            "done": self.done_at,
            "peak_rss_mb": self.peak_rss_mb,
            "errors": self.errors,
            "fingerprints": self.fingerprints,
            "quality": self.quality,
            "derived": self.derived,
        }


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_ops(rep, ops):
    """Run ``(name, thunk)`` pairs in order; after a failure the rest are not run."""
    results = {}
    for name, thunk in ops:
        try:
            results[name] = thunk(results)
        except Exception as exc:  # any failure of the program is a failed operation
            rep.fail(name, f"{type(exc).__name__}: {exc}")
            break
    rep.done()
    if len(results) == len(ops):
        return results
    for name, _ in ops[len(results) + 1:]:
        rep.fail(name, "not run")
    return None


# ---------------------------------------------------------------- h_ba

def h_ba(rep, hm, seed, size, full_checks):
    steps = size["steps"]
    cfg = rep.workdir / "h.cfg"
    cfg.write_text(
        f"model: h\np_v: 0\np_ve: 1\ny: constant({BA_Y})\nm: {BA_M}\ngamma: 0\nsteps: {steps}\n"
    )
    params = hm.config.parse_model_config(cfg)
    rep.ready()
    res = run_ops(rep, [
        ("generate_h", lambda r: hm.genh.generate_h(params, seed)[0]),
        ("degree_histogram", lambda r: r["generate_h"].degree_histogram()),
        ("fit_tail_exponent", lambda r: hm.analysis.fit_tail_exponent(r["degree_histogram"])),
    ])
    if res is None:
        return
    h, hist, fit = res["generate_h"], res["degree_histogram"], res["fit_tail_exponent"]
    rep.fingerprints["generate_h:edges"] = sha256(repr(h.edges).encode())
    rep.fingerprints["degree_histogram:counts"] = sha256(repr(sorted(hist.counts.items())).encode())
    rep.fingerprints["fit_tail_exponent:beta_hat"] = repr(fit.beta_hat)
    rep.quality["beta_hat"] = fit.beta_hat
    rep.quality["beta_err"] = abs(fit.beta_hat - 3.0)
    # every step draws its event and one uniform per selection (gamma = 0)
    rep.derived.update({
        "genh.steps": steps,
        "sampling.uniforms": steps * (1 + BA_M * (BA_Y - 1)),
        "hypergraph.memberships": h.degree_sum,
    })
    if not full_checks:
        return
    rep.check("generate_h", h.num_vertices == steps + 1, "vertex count is not steps + 1")
    rep.check("generate_h", h.num_edges == BA_M * steps + 1, "edge count is not m * steps + 1")
    rep.check("generate_h", h.degree_sum == sum(map(len, h.edges)), "degree_sum != sum of |e|")
    rep.check("degree_histogram", sum(hist.counts.values()) == h.num_vertices,
              "histogram does not cover every vertex")
    rep.check("degree_histogram", sum(k * c for k, c in hist.counts.items()) == h.degree_sum,
              "histogram degrees do not sum to degree_sum")
    rep.check("fit_tail_exponent", rep.quality["beta_err"] <= BETA_BAND,
              f"beta_hat {fit.beta_hat} outside 3 +- {BETA_BAND}")


# ---------------------------------------------------------------- h_sweep

def h_sweep(rep, hm, seed, size, full_checks):
    cfg = rep.workdir / "exp.cfg"
    cfg.write_text(
        "kind: recurrence_check\n"
        f"replicas: {size['replicas']}\nsteps: {size['steps']}\nk_max: {ORACLE_K_MAX}\n"
        "p_v: 0.2\np_ve: 0.4\np_e: 0.4\n"
        "y: shifted_poisson(1.5,2)\nx: categorical(2:0.7,5:0.3)\nm: 2\ngamma: 1\n"
    )
    csv = rep.workdir / "oracle.csv"
    rep.ready()
    res = run_ops(rep, [
        ("experiment", lambda r: rep.cli(hm.cli, "experiment", "--config", cfg,
                                         "--seed", seed, "--out", csv)),
    ])
    if res is None:
        return
    rep.file("experiment", csv.name)
    lines = csv.read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    rep.quality["oracle_max_z"] = max(abs(row[4]) for row in rows)
    rep.derived.update({
        "genh.steps": size["steps"] * size["replicas"],
        "files.write_bytes": csv.stat().st_size,
    })
    if not full_checks:
        return
    op = "experiment"
    rep.check(op, lines[0] == "k,per_vertex_limit,empirical_mean,empirical_stderr,z", "bad CSV header")
    rep.check(op, [row[0] for row in rows] == list(range(ORACLE_K_MAX + 1)), "CSV rows are not k = 0..k_max")
    for k, limit, mean, se, z in rows:
        rep.check(op, all(map(math.isfinite, (limit, mean, se, z))), f"k={k}: non-finite value")
        rep.check(op, 0.0 <= limit <= 1.0 and 0.0 <= mean <= 1.0, f"k={k}: fraction outside [0, 1]")
        expected = (mean - limit) / se if se > 0 else 0.0
        rep.check(op, abs(z - expected) <= SCORE_TOL * max(1.0, abs(z)), f"k={k}: z inconsistent")
    rep.check(op, sum(row[1] for row in rows) <= 1.0 + SCORE_TOL, "oracle fractions sum above 1")
    worst = max(abs(mean - limit) for _, limit, mean, _, _ in rows)
    rep.check(op, worst <= ORACLE_ABS_BAND, f"a degree fraction is {worst} off the oracle")


# ---------------------------------------------------------------- g_2u, g_20u

def g_config(uniformity, r, alpha, p, gamma, vertices):
    """Figure-1 row: r equal communities, diagonal profile with noise alpha."""
    steps = max(1, math.ceil((vertices - r) / p))
    lines = [
        "model: g",
        f"p: {p!r}",
        "membership: " + ",".join([repr(1.0 / r)] * r),
        "x: " + "; ".join([f"constant({uniformity})"] * r),
        f"gamma: {gamma!r}",
        f"steps: {steps}",
    ]
    lines += [f"{i}: {(1.0 - alpha) / r!r}" for i in range(r)]
    share = alpha / (r * (r - 1) // 2)
    lines += [f"{i},{j}: {share!r}" for i in range(r) for j in range(i + 1, r)]
    return "\n".join(lines) + "\n", steps


def g_pipeline(rep, hm, seed, size, full_checks, shape):
    uniformity, r, alpha, p, gamma = shape
    text, steps = g_config(uniformity, r, alpha, p, gamma, size["vertices"])
    cfg = rep.workdir / "g.cfg"
    cfg.write_text(text)
    g, labels, part = (rep.workdir / n for n in ("g.txt", "labels.tsv", "part.tsv"))
    cli = hm.cli
    rep.ready()
    res = run_ops(rep, [
        ("generate-g", lambda _: rep.cli(cli, "generate-g", "--config", cfg, "--seed", seed,
                                         "--out", g, "--communities", labels)),
        ("detect", lambda _: rep.cli(cli, "detect", "--input", g, "--seed", seed, "--out", part)),
        ("modularity", lambda _: rep.cli(cli, "modularity", "--input", g, "--partition", labels)),
        ("bounds", lambda _: rep.cli(cli, "bounds", "--config", cfg, "--input", g,
                                     "--communities", labels)),
    ])
    if res is None:
        return
    for op, name in (("generate-g", g.name), ("generate-g", labels.name), ("detect", part.name)):
        rep.file(op, name)
    gen, det, planted, bounds = (res[op] for op in ("generate-g", "detect", "modularity", "bounds"))
    detected_q = float(det["score"])
    planted_q = float(planted["score"])
    lemma3 = float(bounds["lemma3_bound"])
    rep.quality.update({
        "detected_q": detected_q,
        "planted_q": planted_q,
        "lemma3_bound": lemma3,
        "bound_gap": abs(lemma3 - detected_q),
    })
    g_bytes, labels_bytes = g.stat().st_size, labels.stat().st_size
    rep.derived.update({
        "geng.steps": steps,
        "louvain.blocks": int(det["blocks"]),
        # g.txt is written once and parsed by detect, modularity and bounds,
        # each parse adding every membership again; the labels are read by
        # modularity and bounds
        "hypergraph.memberships": 4 * int(gen["degree_sum"]),
        "files.write_bytes": g_bytes + labels_bytes + part.stat().st_size,
        "files.parse_bytes": 3 * g_bytes + 2 * labels_bytes,
    })
    if not full_checks:
        return
    n, edges = read_hypergraph(g)
    rep.check("generate-g", n == int(gen["vertices"]), "#vertices header != printed vertices")
    rep.check("generate-g", len(edges) == int(gen["edges"]), "edge lines != printed edges")
    rep.check("generate-g", sum(map(len, edges)) == int(gen["degree_sum"]), "degree_sum != sum of |e|")
    community, problem = read_labels(labels, n)
    rep.check("generate-g", problem is None and max(community) < r, f"labels: {problem}")
    blocks, problem = read_labels(part, n)
    rep.check("detect", problem is None, f"partition: {problem}")
    if problem is None:
        rep.check("detect", sorted(set(blocks)) == list(range(int(det["blocks"]))),
                  "partition blocks are not 0..blocks-1")
        rep.check("detect", close(strict_modularity(edges, blocks), detected_q),
                  "detected score differs from the definition")
        singletons = strict_modularity(edges, list(range(n)))
        rep.check("detect", detected_q >= singletons - SCORE_TOL,
                  f"detected {detected_q} below the singleton score {singletons}")
    if community is not None:
        rep.check("modularity", close(strict_modularity(edges, community), planted_q),
                  "planted score differs from the definition")
    rep.check("bounds", lemma3 <= planted_q + SCORE_TOL, "lemma-3 bound above the planted score")
    rep.check("bounds", planted_q <= detected_q + PLANTED_SLACK,
              f"planted {planted_q} above detected {detected_q} + {PLANTED_SLACK}")
    if uniformity == 20:
        rep.check("bounds", rep.quality["bound_gap"] <= BOUND_GAP_BAND,
                  f"|bound - detected| {rep.quality['bound_gap']} above {BOUND_GAP_BAND}")


def close(a, b):
    return abs(a - b) <= SCORE_TOL * max(1.0, abs(b))


def read_hypergraph(path):
    n, edges = None, []
    with open(path) as f:
        for line in f:
            if line.startswith("#vertices"):
                n = int(line.split()[1])
            elif line.strip() and not line.startswith("#"):
                edges.append([int(tok) for tok in line.split()])
    return n, edges


def read_labels(path, n):
    """Labels of vertices 0..n-1; (None, reason) unless each appears once."""
    labels = [None] * n
    with open(path) as f:
        for line in f:
            v, b = (int(tok) for tok in line.split("\t"))
            if not 0 <= v < n or labels[v] is not None or b < 0:
                return None, f"bad or repeated line {line.strip()!r}"
            labels[v] = b
    if None in labels:
        return None, "a vertex has no label"
    return labels, None


def strict_modularity(edges, block_of):
    """Strict hypergraph modularity straight from the definition: an edge is
    internal when all its members share a block; the tax of a block is
    sum over cardinalities l of a_l * (vol / total vol) ** l."""
    ne = len(edges)
    vol = Counter()
    internal = 0
    for e in edges:
        first = block_of[e[0]]
        same = True
        for v in e:
            vol[block_of[v]] += 1
            same = same and block_of[v] == first
        internal += same
    total = sum(vol.values())
    cards = [(ell, cnt / ne) for ell, cnt in Counter(map(len, edges)).items()]
    tax = sum(a * (x / total) ** ell for x in vol.values() for ell, a in cards)
    return internal / ne - tax


G_OPS = ["generate-g", "detect", "modularity", "bounds"]

# name -> (function, its operations in order)
WORKLOADS = {
    "h_ba": (h_ba, ["generate_h", "degree_histogram", "fit_tail_exponent"]),
    "h_sweep": (h_sweep, ["experiment"]),
    "g_2u": (partial(g_pipeline, shape=G_SHAPES["g_2u"]), G_OPS),
    "g_20u": (partial(g_pipeline, shape=G_SHAPES["g_20u"]), G_OPS),
}


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import hypermod
    import hypermod.cli
    import hypermod.config

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload, op_names = WORKLOADS[spec["workload"]]
    rep = Rep(Path(spec["workdir"]), op_names)
    try:
        workload(rep, hypermod, spec["seed"], SIZES[spec["workload"]][spec["scale"]],
                 spec["full_checks"])
    except Exception as exc:  # set-up failed or an output is malformed
        for op in op_names:
            rep.fail(op, f"{type(exc).__name__} while reading outputs: {exc}")
        if rep.done_at is None:
            rep.ready()
            rep.done()
    report = rep.report()
    if tracer is not None:
        report["layers"] = tracer.snapshot()
    print(json.dumps(report), flush=True)
    # the report is out; skip tearing down a heap of millions of objects
    os._exit(0)


if __name__ == "__main__":
    main()
