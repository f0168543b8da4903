"""Outside-in tracing: timing and counting spans around hypermod's public calls.

Nothing under ``src/`` knows about this module. Each wrapper is installed
in the namespace its caller looks the name up in: ``cli`` and
``experiments`` bind generators, scoring and detection with
``from ... import``, ``generate_h`` and ``generate_g`` look ``h_step`` and
``g_step`` up as module globals, and selector, size and hyperedge calls
are methods, so those are wrapped on the class. Uniform draws are counted
by handing the generators a ``random.Random`` subclass that yields the
same stream.

A traced run must consume the same random stream and write the same bytes
as an untraced one; ``run.py`` compares the two. Tracing roughly doubles
the run time, so end-to-end numbers come from untraced runs only.
"""

import os
import random
import time

# Per-layer metric -> (unit, which end-to-end metric it should move, and where).
# A ``*_self_s`` entry is the span's time minus the time of the spans it encloses.
LAYER_METRICS = {
    "sampling.select_calls": ("count", "run_s on h_ba and h_sweep (most of the run), less on g_20u, barely on g_2u"),
    "sampling.selected": ("count", "run_s on h_ba and h_sweep, less on g_20u, barely on g_2u"),
    "sampling.select_s": ("s", "run_s on h_ba and h_sweep, less on g_20u, barely on g_2u"),
    "sampling.increments": ("count", "run_s on h_ba and h_sweep, less on g_20u, barely on g_2u"),
    "sampling.increment_s": ("s", "run_s on h_ba and h_sweep, less on g_20u, barely on g_2u"),
    "sampling.size_draws": ("count", "run_s on h_ba and h_sweep, less on g_20u, barely on g_2u"),
    "sampling.size_s": ("s", "run_s on h_ba and h_sweep, less on g_20u, barely on g_2u"),
    "sampling.uniforms": ("count", "anchor for RNG and kernel rewrites; must never change for a seed"),
    "hypergraph.add_hyperedge_calls": ("count", "run_s on h_ba"),
    "hypergraph.add_hyperedge_s": ("s", "run_s on h_ba"),
    "hypergraph.memberships": ("count", "peak_rss_mb on g_20u and h_ba"),
    "genh.steps": ("count", "run_s on h_ba and h_sweep, nothing on g_*"),
    "genh.step_self_s": ("s", "run_s on h_ba and h_sweep, nothing on g_*"),
    "genh.generate_s": ("s", "run_s on h_ba and h_sweep, nothing on g_*"),
    "geng.steps": ("count", "run_s on g_20u more than on g_2u, nothing on h_*"),
    "geng.step_self_s": ("s", "run_s on g_20u more than on g_2u, nothing on h_*"),
    "geng.generate_s": ("s", "run_s on g_20u more than on g_2u, nothing on h_*"),
    "files.write_s": ("s", "run_s on g_20u more than on g_2u, about zero on h_ba"),
    "files.write_bytes": ("bytes", "run_s on g_20u more than on g_2u, about zero on h_ba"),
    "files.parse_s": ("s", "run_s on g_20u more than on g_2u, about zero on h_ba"),
    "files.parse_bytes": ("bytes", "run_s on g_20u more than on g_2u, about zero on h_ba"),
    "files.labels_s": ("s", "run_s on g_20u more than on g_2u, about zero on h_ba"),
    "modularity.flatten_s": ("s", "run_s on g_20u (many pairs per edge), little on g_2u"),
    "modularity.flatten_pairs": ("count", "run_s and peak_rss_mb on g_20u, little on g_2u"),
    "modularity.score_s": ("s", "run_s on g_20u, little on g_2u"),
    "louvain.detect_s": ("s", "run_s on g_2u more than on g_20u, nothing on h_*"),
    "louvain.blocks": ("count", "quality guard for detection on g_*"),
    "analysis.fit_s": ("s", "small everywhere; regression guard (h_ba)"),
    "analysis.bound_inputs_s": ("s", "small everywhere; regression guard (g_*)"),
    "analysis.oracle_s": ("s", "small everywhere; regression guard (h_sweep)"),
    "config.parse_s": ("s", "setup_s everywhere, run_s on h_sweep"),
    "cli.self_s": ("s", "setup_s everywhere, run_s on h_sweep"),
    "experiments.self_s": ("s", "setup_s everywhere, run_s on h_sweep"),
    "experiments.replicas": ("count", "run_s on h_sweep (sequential replica loop)"),
    "trace_overhead": ("ratio", "traced run_s over untraced run_s; not a program metric"),
}

# Counts that repeat exactly for a seed. run.py fails a traced run whose
# counts differ from the untraced run's outputs, the other traced runs, or
# the pinned values.
EXACT_COUNTS = (
    "genh.steps",
    "geng.steps",
    "sampling.uniforms",
    "hypergraph.memberships",
    "modularity.flatten_pairs",
    "louvain.blocks",
    "files.write_bytes",
    "files.parse_bytes",
)

_uniform = random.Random.random


class CountingRandom(random.Random):
    """``random.Random`` that counts calls to ``random()``.

    Overriding ``random`` would switch ``_randbelow`` to the algorithm that
    consumes floats; pinning it keeps every method on the base stream.
    """

    _randbelow = random.Random._randbelow_with_getrandbits
    uniforms = 0

    def random(self):
        self.uniforms += 1
        return _uniform(self)


class Tracer:
    """Counters and span timers filled in by the installed wrappers."""

    def __init__(self):
        self.values = {name: 0 for name in LAYER_METRICS if name != "trace_overhead"}
        # covered[i] accumulates the time of child spans of the i-th open span
        self._covered = [0.0]
        self._rngs = []

    def wrap(self, fn, total=None, self_time=None, calls=None, count=None):
        """Span around ``fn``: time into ``total``/``self_time``, one call into
        ``calls``, and ``count(args, result)`` -> [(key, n)] into counters."""
        values = self.values
        covered = self._covered
        clock = time.perf_counter

        def traced(*args, **kwargs):
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = covered.pop()
                covered[-1] += dt
                if total:
                    values[total] += dt
                if self_time:
                    values[self_time] += dt - inner
            if calls:
                values[calls] += 1
            if count:
                for key, n in count(args, result):
                    values[key] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def make_rng(self, seed):
        rng = CountingRandom(seed)
        self._rngs.append(rng)
        return rng

    def snapshot(self):
        out = dict(self.values)
        out["sampling.uniforms"] = sum(r.uniforms for r in self._rngs)
        return out


def _file_size(key, i):
    """Counter callback: size of the file named by positional argument ``i``."""
    return lambda args, result: [(key, os.path.getsize(args[i]))]


def install(tracer):
    """Patch hypermod in place; call once, before the workload runs."""
    from hypermod import analysis, cli, config, experiments, files, genh, geng
    from hypermod.hypergraph import Hypergraph
    from hypermod.sampling import CardinalityDistribution, PreferentialSelector

    def patch(owners, name, **spans):
        for owner in owners:
            setattr(owner, name, tracer.wrap(getattr(owner, name), **spans))

    patch([PreferentialSelector], "select_vertices", total="sampling.select_s",
          calls="sampling.select_calls", count=lambda a, r: [("sampling.selected", a[1])])
    patch([PreferentialSelector], "record_degree_increment", total="sampling.increment_s",
          calls="sampling.increments")
    patch([CardinalityDistribution], "sample", total="sampling.size_s", calls="sampling.size_draws")
    genh.make_rng = geng.make_rng = tracer.make_rng

    patch([Hypergraph], "add_hyperedge", total="hypergraph.add_hyperedge_s",
          calls="hypergraph.add_hyperedge_calls",
          count=lambda a, r: [("hypergraph.memberships", len(a[1]))])

    patch([genh], "h_step", self_time="genh.step_self_s", calls="genh.steps")
    patch([geng], "g_step", self_time="geng.step_self_s", calls="geng.steps")
    patch([genh, cli], "generate_h", total="genh.generate_s")
    patch([geng, cli], "generate_g", total="geng.generate_s")
    replica = lambda a, r: [("experiments.replicas", 1)]
    patch([experiments], "generate_h", total="genh.generate_s", count=replica)
    patch([experiments], "generate_g", total="geng.generate_s", count=replica)

    patch([files], "write_hypergraph", total="files.write_s", count=_file_size("files.write_bytes", 1))
    patch([files, experiments], "write_csv", total="files.write_s", count=_file_size("files.write_bytes", 0))
    patch([files], "write_labels", total="files.labels_s", count=_file_size("files.write_bytes", 1))
    patch([files], "parse_hypergraph", total="files.parse_s", count=_file_size("files.parse_bytes", 0))
    patch([files], "parse_labels", total="files.labels_s", count=_file_size("files.parse_bytes", 0))

    patch([cli, experiments], "flatten", total="modularity.flatten_s",
          count=lambda a, r: [("modularity.flatten_pairs", len(r.weights))])
    patch([cli, experiments], "hypergraph_modularity_score", total="modularity.score_s")
    patch([cli], "weighted_graph_modularity", total="modularity.score_s")
    patch([cli, experiments], "detect_communities", total="louvain.detect_s",
          count=lambda a, r: [("louvain.blocks", r.num_blocks)])

    patch([analysis, cli, experiments], "fit_tail_exponent", total="analysis.fit_s")
    patch([cli, experiments], "empirical_bound_inputs", total="analysis.bound_inputs_s")
    patch([cli], "bound_inputs_from_profile", total="analysis.bound_inputs_s")
    patch([cli, experiments], "degree_fraction_oracle", total="analysis.oracle_s")

    patch([config, cli], "parse_model_config", total="config.parse_s")
    patch([cli], "parse_experiment_config", total="config.parse_s")
    patch([cli], "run_experiment", self_time="experiments.self_s")
    patch([cli], "run_cli", self_time="cli.self_s")
