"""Preferential-attachment hypergraph growth with four event types.

At every time step exactly one event happens: a new isolated vertex, a
new vertex attached by ``edges_per_event`` hyperedges, a batch of
``edges_per_event`` hyperedges on existing vertices (one of several size
distributions), or nothing. Vertex selection within a step always uses
the state from before the step, so the hyperedges of one step are
exchangeable and a new vertex can never land in its own attachment
edges beyond the one guaranteed slot per edge.
"""

import math
from typing import NamedTuple

from .hypergraph import Hypergraph
from .sampling import CardinalityDistribution, make_rng, select_vertices

EVENT_VERTEX = "vertex"
EVENT_VERTEX_EDGES = "vertex+edges"
EVENT_NOTHING = "nothing"

_PROB_TOL = 1e-9
CAP_TRIES = 100  # the draws ``sample_size`` makes before a capped size falls back to 1


class ParamError(ValueError):
    """An invalid generator parameter; ``fields`` names the parameters at fault."""

    def __init__(self, fields, rule):
        super().__init__(f"{', '.join(fields)}: {rule}")
        self.fields = fields
        self.rule = rule


class HParams(NamedTuple):
    """Parameters of the general growth process.

    An immutable ``NamedTuple``: a changed copy is ``params._replace(steps=...)``.

    ``p_vertex``      probability of adding an isolated vertex
    ``p_vertex_edge`` probability of adding a vertex with attachment edges
    ``p_edge``        per-distribution probabilities of an edges-only event
    ``attach_size``   size distribution of attachment edges (new vertex included)
    ``edge_sizes``    size distributions of edges-only events, one per p_edge entry
    ``edges_per_event`` number of hyperedges added by a single event
    ``gamma``         additive smoothing of preferential selection
    ``steps``         number of time steps of ``generate_h``
    ``cap_sizes``     reject sampled sizes >= ``size_cap(t)``; a law that an event
                      draws must fall back less often than not at t = steps
    """

    p_vertex: float
    p_vertex_edge: float
    p_edge: list
    attach_size: CardinalityDistribution
    edge_sizes: list
    edges_per_event: int = 1
    gamma: float = 0.0
    steps: int = 0
    cap_sizes: bool = False

    def validate(self):
        for name, probs in (("p_vertex", [self.p_vertex]),
                            ("p_vertex_edge", [self.p_vertex_edge]),
                            ("p_edge", self.p_edge)):
            if any(p < 0 for p in probs):
                raise ParamError((name,), "must be non-negative")
        total = self.p_vertex + self.p_vertex_edge + sum(self.p_edge)
        if not (0.0 < total <= 1.0 + _PROB_TOL):
            raise ParamError(("p_vertex", "p_vertex_edge", "p_edge"),
                             f"event probabilities sum to {total}, expected a value in (0, 1]")
        if len(self.p_edge) != len(self.edge_sizes):
            raise ParamError(
                ("p_edge", "edge_sizes"),
                f"{len(self.p_edge)} probabilities but {len(self.edge_sizes)} size distributions",
            )
        if self.edges_per_event < 1:
            raise ParamError(("edges_per_event",), "must be >= 1")
        if self.gamma < 0:
            raise ParamError(("gamma",), "must be non-negative")
        if self.steps < 0:
            raise ParamError(("steps",), "must be >= 0")
        if self.cap_sizes and self.steps >= 1:
            # the cap never falls, so t = steps is the step where a draw passes most often
            cap = size_cap(self.steps)
            laws = [("attach_size", self.p_vertex_edge, self.attach_size)]
            laws += [("edge_sizes", p, d) for p, d in zip(self.p_edge, self.edge_sizes)]
            for name, p, law in laws:
                mass = law.mass_below(cap)
                if p > 0 and (1.0 - mass) ** CAP_TRIES >= 0.5:
                    raise ParamError((name, "cap_sizes"),
                                     f"mass {mass:.6g} below the cap {cap} at step {self.steps}: "
                                     f"most edges fall back to size 1 after {CAP_TRIES} tries")


class RunStats(NamedTuple):
    """Checkpointed trajectory of a run of either generator, kept by ``grow``.

    ``records`` holds one row per checkpoint, the rows of the model's
    ``--stats`` CSV, and ``header`` names their columns: ``h`` adds
    weight_sum, the selection law's normalizer ``D + gamma * n``, and ``g``
    each community's member count, then each one's degree total.
    ``event_counts`` counts the step tags.
    """

    header: list
    records: list
    event_counts: dict


def initial_hypergraph():
    """Single vertex carrying a single size-1 hyperedge."""
    h = Hypergraph()
    v = h.add_vertex()
    h.add_hyperedge([v])
    return h


def size_cap(t):
    """The bound that capped sizes stay below at step t: max(2, ceil(t^0.25))."""
    return max(2, math.ceil(t ** 0.25))


def sample_size(dist, t, cap_sizes, rng):
    """Draw a hyperedge size, optionally rejecting values >= ``size_cap(t)``."""
    if not cap_sizes:
        return dist.sample(rng)
    cap = size_cap(t)
    for _ in range(CAP_TRIES):
        z = dist.sample(rng)
        if z < cap:
            return z
    return 1


def h_step(h, params, t, rng):
    """Apply one time step, returning the event tag.

    Tags are ``"vertex"``, ``"vertex+edges"``, ``"edges:<i>"`` and
    ``"nothing"``. The step's edges are drawn edge after edge in one
    ``select_vertices`` call, before any of its vertices or edges is added,
    so they see the pre-step degrees.
    """
    u = rng.random()
    if u < params.p_vertex:
        h.add_vertex()
        return EVENT_VERTEX
    u -= params.p_vertex
    m = params.edges_per_event
    gamma = params.gamma
    occ = h.members
    pool = range(h.num_vertices) if gamma > 0 else None  # read only when smoothing
    if u < params.p_vertex_edge:
        k = sample_size(params.attach_size, t, params.cap_sizes, rng) - 1
        drawn = select_vertices(occ, pool, m * k, gamma, rng)
        v = h.add_vertex()
        for j in range(m):
            h.add_hyperedge(drawn[j * k:(j + 1) * k] + [v])
        return EVENT_VERTEX_EDGES
    u -= params.p_vertex_edge
    for i, p in enumerate(params.p_edge):
        if u < p:
            x = sample_size(params.edge_sizes[i], t, params.cap_sizes, rng)
            drawn = select_vertices(occ, pool, m * x, gamma, rng)
            for j in range(m):
                h.add_hyperedge(drawn[j * x:(j + 1) * x])
            return f"edges:{i}"
        u -= p
    return EVENT_NOTHING


def checkpoint_times(steps):
    """Geometric checkpoints 1, 2, 4, ... plus the final step."""
    powers = {2 ** i for i in range(steps.bit_length())}  # those <= steps
    return powers | {steps} if steps else powers


def grow(h, steps, step, names, columns):
    """Run ``step(t)`` on ``h`` for t = 1..steps, counting the tags it returns, and
    keep the row (t, vertices, edges, degree_sum, *columns()) at t = 0 and at each
    ``checkpoint_times`` mark; ``names`` names the ``columns()`` values."""
    stats = RunStats(["t", "vertices", "edges", "degree_sum", *names], [], {})
    counts = stats.event_counts
    marks = checkpoint_times(steps) | {0}
    for t in range(steps + 1):
        if t:
            tag = step(t)
            counts[tag] = counts.get(tag, 0) + 1
        if t in marks:
            stats.records.append((t, h.num_vertices, h.num_edges, h.degree_sum, *columns()))
    return stats


def generate_h(params, seed):
    """Run the process for ``params.steps`` steps from the initial hypergraph."""
    params.validate()
    rng = make_rng(seed)
    h = initial_hypergraph()
    # h_step is looked up on each call, so a wrapper set on the module sees every step
    stats = grow(h, params.steps, lambda t: h_step(h, params, t, rng), ["weight_sum"],
                 lambda: [h.degree_sum + params.gamma * h.num_vertices])
    return h, stats
