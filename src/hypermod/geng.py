"""Community-partitioned preferential-attachment hypergraph.

The vertex set is split into a fixed number of communities. A step
either adds a vertex to a community drawn from the membership vector, or
adds one hyperedge: a set of communities is drawn from a sparse profile,
each selected community is independently assigned one of the size
distributions uniformly at random (with replacement), and that many
vertices are selected inside the community in proportion to degrees.
Each community therefore evolves like the general single-population
process, which is what the per-community reduction below exposes.
"""

from typing import NamedTuple

from .hypergraph import Hypergraph
from .modularity import Partition
from .sampling import (PROB_SUM_TOL, CardinalityDistribution, Categorical, PreferentialSelector,
                       make_rng, uniform_index)
from .genh import HParams, ParamError, grow


class InterCommunityProfile:
    """Sparse map from non-empty community subsets to hyperedge probability.

    Keys are sorted tuples of community indices. Probabilities are
    normalized when they sum to 1 within 1e-6, otherwise rejected; at
    most 2^r - 1 entries exist, one per non-empty subset.
    """

    def __init__(self, entries, num_communities):
        if num_communities < 1:
            raise ValueError("need at least one community")
        if not entries:
            raise ValueError("profile needs at least one entry")
        self.num_communities = num_communities
        cleaned = {}
        for subset, prob in entries.items():
            key = tuple(sorted(set(subset)))
            if not key:
                raise ValueError("profile subsets must be non-empty")
            if key[0] < 0 or key[-1] >= num_communities:
                raise ValueError(f"subset {key} has a community outside [0, {num_communities})")
            if len(key) != len(tuple(subset)):
                raise ValueError(f"subset {tuple(subset)} repeats a community")
            if prob < 0:
                raise ValueError(f"subset {key}: negative probability {prob}")
            if key in cleaned:
                raise ValueError(f"subset {key} appears twice")
            cleaned[key] = float(prob)
        total = sum(cleaned.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"profile probabilities sum to {total}, "
                             f"expected 1 within {PROB_SUM_TOL}")
        self.entries = {k: v / total for k, v in sorted(cleaned.items())}
        self._law = Categorical(self.entries.keys(), self.entries.values())

    def probability(self, subset):
        return self.entries.get(tuple(sorted(set(subset))), 0.0)

    def sample(self, rng):
        return self._law.sample(rng)

    def items(self):
        return self.entries.items()


def community_marginals(profile):
    """Probability that a new hyperedge touches each community."""
    s = [0.0] * profile.num_communities
    for subset, prob in profile.items():
        for c in subset:
            s[c] += prob
    return s


class GParams(NamedTuple):
    """Parameters of the community-structured process.

    An immutable ``NamedTuple``: a changed copy is ``params._replace(steps=...)``.

    ``p_vertex``   probability of a vertex step (in (0,1))
    ``membership`` community probabilities of a new vertex, one per community
    ``profile``    InterCommunityProfile over community subsets
    ``edge_sizes`` per-community-slot size distributions, one per community
    ``gamma``      additive smoothing of within-community selection
    """

    p_vertex: float
    membership: list
    profile: InterCommunityProfile
    edge_sizes: list
    gamma: float = 0.0
    steps: int = 0

    def validate(self):
        # p_vertex == 1 is allowed as a degenerate vertices-only process;
        # exponent predictions additionally require p_vertex < 1
        if not 0.0 < self.p_vertex <= 1.0:
            raise ParamError(("p_vertex",), f"must lie in (0, 1], got {self.p_vertex}")
        r = len(self.membership)
        if r < 1:
            raise ParamError(("membership",), "need at least one community")
        if any(m <= 0 for m in self.membership):
            raise ParamError(("membership",), "probabilities must be positive")
        total = sum(self.membership)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ParamError(("membership",), f"probabilities sum to {total}, expected 1")
        if self.profile.num_communities != r:
            raise ParamError(
                ("profile", "membership"),
                f"profile covers {self.profile.num_communities} communities, membership {r}",
            )
        if len(self.edge_sizes) != r:
            raise ParamError(
                ("edge_sizes",), f"expected {r} size distributions, got {len(self.edge_sizes)}"
            )
        if self.gamma < 0:
            raise ParamError(("gamma",), "must be non-negative")
        if self.steps < 0:
            raise ParamError(("steps",), "must be >= 0")

    @property
    def num_communities(self):
        return len(self.membership)


def g_step(g, params, selectors, membership, rng):
    """Apply one step, returning its tag, ``"vertex"`` or ``"hyperedge"``.
    ``membership`` is the ``Categorical`` law of a new vertex's community."""
    if rng.random() < params.p_vertex:
        j = membership.sample(rng)
        selectors[j].add_member(g.add_vertex())
        return "vertex"
    subset = params.profile.sample(rng)
    r = params.num_communities
    chunks = []
    for c in subset:
        count = params.edge_sizes[uniform_index(r, rng)].sample(rng)
        chunks.append(selectors[c].select_vertices(count, rng))
    g.add_hyperedge([v for chunk in chunks for v in chunk])
    # each chunk was drawn from its own community's urn
    for c, chunk in zip(subset, chunks):
        selectors[c].record_degree_increment(chunk)
    return "hyperedge"


def generate_g(params, seed):
    """Run the community process for ``params.steps`` steps.

    Starts from one vertex per community, each carrying a size-1
    hyperedge. Returns the hypergraph, the planted ``Partition`` (block j
    is community j) and run statistics.
    """
    params.validate()
    rng = make_rng(seed)
    r = params.num_communities
    g = Hypergraph()
    selectors = [PreferentialSelector(params.gamma) for _ in range(r)]
    for j in range(r):
        v = g.add_vertex()
        g.add_hyperedge([v])
        selectors[j].add_member(v)
        selectors[j].record_degree_increment([v])
    membership = Categorical(range(r), params.membership)
    names = [f"size_{j}" for j in range(r)] + [f"deg_{j}" for j in range(r)]
    # g_step is looked up on each call, so a wrapper set on the module sees every step
    stats = grow(g, params.steps, lambda t: g_step(g, params, selectors, membership, rng), names,
                 lambda: [*(len(s.members) for s in selectors),
                          *(len(s.occurrences) for s in selectors)])
    # each vertex is a member of exactly one community's urn
    community = [0] * g.num_vertices
    for j, sel in enumerate(selectors):
        for v in sel.members:
            community[v] = j
    return g, Partition(community, r), stats


def reduce_community(params, j):
    """Single-community view of the process as general-growth parameters.

    Community j gains an isolated vertex with probability
    ``p_vertex * membership[j]`` and, for each size distribution, has its
    vertices join a new hyperedge with probability
    ``(1 - p_vertex) * s_j / r`` where s_j is the community's touch
    probability under the profile.
    """
    if not 0 <= j < params.num_communities:
        raise ValueError(f"community {j} out of range")
    r = params.num_communities
    s = community_marginals(params.profile)
    share = (1.0 - params.p_vertex) * s[j] / r
    return HParams(
        p_vertex=params.p_vertex * params.membership[j],
        p_vertex_edge=0.0,
        p_edge=[share] * r,
        attach_size=CardinalityDistribution.constant(1),
        edge_sizes=list(params.edge_sizes),
        edges_per_event=1,
        gamma=params.gamma,
        steps=params.steps,
    )


def expected_cardinality_size_pmf(params):
    """Asymptotic hyperedge-size law of the process as {size: probability}.

    For a drawn community subset the per-community counts are independent
    uniform mixtures of the size distributions, so the subset's total is
    the |S|-fold convolution of the mixture law.
    """
    r = params.num_communities
    mixture = {}
    for dist in params.edge_sizes:
        for v, p in dist.pmf_items():
            mixture[v] = mixture.get(v, 0.0) + p / r
    out = {}
    for subset, prob in params.profile.items():
        conv = {0: 1.0}
        for _ in subset:
            nxt = {}
            for a, pa in conv.items():
                for b, pb in mixture.items():
                    nxt[a + b] = nxt.get(a + b, 0.0) + pa * pb
            conv = nxt
        for total, p in conv.items():
            out[total] = out.get(total, 0.0) + prob * p
    return dict(sorted(out.items()))
