"""Modularity scoring for graphs and hypergraphs, flattening, brute force.

A hyperedge is internal to a block only when every one of its vertices
(with multiplicity) lies in the block. The hypergraph degree tax raises
each block's volume fraction to the power of the edge cardinality,
weighted by the cardinality mix, which reduces to the familiar
``(vol/2|E|)^2`` graph tax on 2-uniform inputs. A hypergraph with no
edges scores 0 by convention.
"""

from collections import Counter
from dataclasses import dataclass


class Partition:
    """Assignment of every vertex to exactly one block."""

    def __init__(self, block_of, num_blocks=None):
        block_of = list(block_of)
        if num_blocks is None:
            num_blocks = max(block_of) + 1 if block_of else 0
        for v, b in enumerate(block_of):
            if not 0 <= b < num_blocks:
                raise ValueError(f"vertex {v}: block {b} out of range [0, {num_blocks})")
        self.block_of = block_of
        self.num_blocks = num_blocks

    @classmethod
    def singletons(cls, num_vertices):
        return cls(list(range(num_vertices)), num_vertices)

    @classmethod
    def one_block(cls, num_vertices):
        return cls([0] * num_vertices, 1 if num_vertices else 0)

    def blocks(self):
        out = [[] for _ in range(self.num_blocks)]
        for v, b in enumerate(self.block_of):
            out[b].append(v)
        return out

    def relabeled(self):
        """Blocks renumbered by first appearance; canonical for comparisons."""
        mapping = {}
        labels = []
        for b in self.block_of:
            if b not in mapping:
                mapping[b] = len(mapping)
            labels.append(mapping[b])
        return Partition(labels, len(mapping) if labels else 0)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.relabeled().block_of == other.relabeled().block_of

    def __len__(self):
        return len(self.block_of)


@dataclass
class ModularityBreakdown:
    """Score split into its edge contribution and degree tax."""

    edge_contribution: float
    degree_tax: float
    score: float


@dataclass
class CardinalityProfile:
    """Fractions of hyperedges per cardinality and mean cardinality."""

    a: dict
    delta: float

    @property
    def max_cardinality(self):
        return max(self.a)


def _strict_score(edges, ne, degrees, block_of, num_blocks, card_fracs):
    """(edge contribution, degree tax) of the strict score.

    ``edges`` iterates the members of the ``ne >= 1`` hyperedges, in any
    order within an edge; ``card_fracs`` lists (cardinality, fraction)
    pairs in increasing cardinality. A hyperedge is internal to block b
    only when all of its members lie in b; block b pays
    ``sum_l a_l * (vol_b / vol_total) ** l`` over the cardinality mix.
    Both sums are accumulated in block order.
    """
    vol_total = float(sum(degrees))
    vol = [0.0] * num_blocks
    for v, b in enumerate(block_of):
        vol[b] += degrees[v]
    internal = [0] * num_blocks
    for e in edges:
        b = block_of[e[0]]
        for v in e:
            if block_of[v] != b:
                break
        else:
            internal[b] += 1
    ec_total = 0.0
    tax_total = 0.0
    for b in range(num_blocks):
        frac = vol[b] / vol_total
        tax = 0.0
        for ell, a_ell in card_fracs:
            tax += a_ell * frac ** ell
        ec_total += internal[b] / ne
        tax_total += tax
    return ec_total, tax_total


def graph_modularity_score(h, part):
    """Score a 2-uniform hypergraph under the classic graph definition.

    This is the 2-uniform case of ``hypergraph_modularity_score``, whose
    tax reduces to ``(vol/2|E|)^2``; other cardinalities are rejected.
    """
    for size in h.edge_sizes():
        if size != 2:
            raise ValueError(f"graph modularity needs 2-uniform input, found cardinality {size}")
    return hypergraph_modularity_score(h, part)


def hypergraph_modularity_score(h, part):
    """Score any hypergraph: edge contribution minus cardinality-weighted tax."""
    if len(part) != h.num_vertices:
        raise ValueError("partition size does not match the vertex count")
    if h.num_edges == 0:
        return ModularityBreakdown(0.0, 0.0, 0.0)
    ec, tax = _strict_score(
        h.edge_members(), h.num_edges, h.degrees, part.block_of, part.num_blocks,
        cardinality_profile(h).a.items(),
    )
    return ModularityBreakdown(ec, tax, ec - tax)


def cardinality_profile(h):
    """Empirical cardinality fractions and mean cardinality of a hypergraph."""
    ne = h.num_edges
    if ne == 0:
        raise ValueError("cardinality profile needs at least one hyperedge")
    counts = Counter(h.edge_sizes())
    a = {ell: counts[ell] / ne for ell in sorted(counts)}
    return CardinalityProfile(a, h.degree_sum / ne)


def _restricted_growth_strings(n):
    """All set partitions of range(n) as block-index arrays, in place."""
    a = [0] * n
    m = [0] * n
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] > m[i - 1]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        m[i] = max(m[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            m[j] = m[i]


def brute_force_modularity(h, max_vertices=12):
    """A maximizer of the strict score over every set partition of the vertices.

    Exhaustive over Bell(n) partitions, so n is capped (Bell(12) is
    about 4.2 million). Returns a maximizing partition and its score.
    When several partitions share the exact optimum, floating-point
    rounding decides which of them is returned.
    """
    n = h.num_vertices
    if n > max_vertices:
        raise ValueError(f"{n} vertices exceed the brute-force cap of {max_vertices}")
    if n == 0:
        return Partition([], 0), 0.0
    if h.num_edges == 0:
        return Partition.one_block(n), 0.0
    edges = list(h.edge_members())
    ne = len(edges)
    degrees = h.degrees
    card_fracs = cardinality_profile(h).a.items()
    best_q = None
    best = None
    for a in _restricted_growth_strings(n):
        ec, tax = _strict_score(edges, ne, degrees, a, max(a) + 1, card_fracs)
        q = ec - tax
        if best_q is None or q > best_q:
            best_q = q
            best = list(a)
    return Partition(best).relabeled(), best_q


class WeightedGraph:
    """Undirected weighted graph on dense vertex ids, no self-loops.

    Stored only as ``adj``: ``adj[u][v] == adj[v][u]`` is the weight of {u, v}.
    """

    def __init__(self, num_vertices):
        self.num_vertices = num_vertices
        self.adj = [{} for _ in range(num_vertices)]

    @property
    def weights(self):
        """Every edge once, as ``{(u, v): weight}`` with ``u < v``."""
        return {(u, v): w for u, nbrs in enumerate(self.adj) for v, w in nbrs.items() if u < v}

    @property
    def total_weight(self):
        return sum(sum(nbrs.values()) for nbrs in self.adj) / 2

    def edge_list(self):
        """Deterministically ordered (u, v, weight) triples, weights as floats."""
        return [(u, v, float(w)) for (u, v), w in sorted(self.weights.items())]


def flatten(h):
    """Replace each hyperedge by a clique on its distinct vertices.

    Every unordered pair of distinct members contributes weight 1;
    repeated appearances of a vertex inside one hyperedge contribute
    nothing on their own. Weights are integer counts.
    """
    wg = WeightedGraph(h.num_vertices)
    adj = wg.adj
    for e in h.edge_members():
        distinct = set(e)
        for u in distinct:
            nbrs = adj[u]
            for v in distinct:
                if v != u:
                    nbrs[v] = nbrs.get(v, 0) + 1
    return wg


def weighted_graph_modularity(wg, part):
    """Graph modularity with weights in place of edge counts."""
    if len(part) != wg.num_vertices:
        raise ValueError("partition size does not match the vertex count")
    total = wg.total_weight
    if total == 0:
        return 0.0
    block_of = part.block_of
    internal = 0.0
    vol = [0.0] * part.num_blocks
    for u, nbrs in enumerate(wg.adj):
        bu = block_of[u]
        for v, w in nbrs.items():
            vol[bu] += w
            if block_of[v] == bu:
                internal += w
    # adj holds each edge twice, so internal is twice the internal weight
    q = internal / (2.0 * total)
    for x in vol:
        q -= (x / (2.0 * total)) ** 2
    return q
