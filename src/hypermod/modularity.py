"""Modularity scoring for graphs and hypergraphs, flattening, brute force.

A hyperedge is internal to a block only when every one of its vertices
(with multiplicity) lies in the block. The hypergraph degree tax raises
each block's volume fraction to the power of the edge cardinality,
weighted by the cardinality mix, which reduces to the familiar
``(vol/2|E|)^2`` graph tax on 2-uniform inputs. A hypergraph with no
edges scores 0 by convention.

Each function imports numpy itself: the generators import ``Partition``
from here, and they run on the standard library alone.
"""

import itertools
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

    def relabeled(self):
        """Blocks renumbered by first appearance; canonical for comparisons."""
        import numpy as np
        labels, num_blocks = first_appearance_labels(np.asarray(self.block_of, dtype=np.int64))
        return Partition(labels.tolist(), num_blocks)

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


def first_appearance_labels(block):
    """``block`` (an int64 array) renumbered 0, 1, ... in order of first
    appearance, and the number of blocks."""
    import numpy as np
    _, first, inverse = np.unique(block, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse], len(first)


# memberships per batch of a per-edge pass: bounds every temporary array
# (a batch of 20-member edges makes about 300k pair keys in ``flatten``),
# while batches stay few enough that their merges cost little
EDGE_BATCH = 1 << 15


def edge_batches(h):
    """The hyperedges in runs of at most ``EDGE_BATCH`` memberships (or of one
    edge): per run, its members and its edge offsets counted from 0, as views
    in the store's dtypes (``Hypergraph.arrays``)."""
    import numpy as np
    members, offsets = h.arrays()
    first = 0
    while first < h.num_edges:
        start = int(offsets[first])  # a narrow scalar's sum could wrap
        last = max(first + 1, int(np.searchsorted(offsets, start + EDGE_BATCH, side="right")) - 1)
        yield members[start:offsets[last]], offsets[first:last + 1] - start
        first = last


def block_counts(batches, block_of, num_blocks):
    """Per block, its volume (the memberships of its vertices) and the number
    of hyperedges all of whose members lie in it, as int64 arrays; ``batches``
    are ``edge_batches`` runs and ``block_of`` is an int64 array."""
    import numpy as np
    vol = np.zeros(num_blocks, dtype=np.int64)
    internal = np.zeros(num_blocks, dtype=np.int64)
    for members, offsets in batches:
        blocks = block_of[members]
        vol += np.bincount(blocks, minlength=num_blocks)
        starts = offsets[:-1]
        lo, hi = np.minimum.reduceat(blocks, starts), np.maximum.reduceat(blocks, starts)
        internal += np.bincount(lo[lo == hi], minlength=num_blocks)
    return vol, internal


def _strict_score(vol, internal, ne, card_fracs):
    """(edge contribution, degree tax) of the strict score.

    ``vol`` and ``internal`` list each block's ``block_counts`` as ints, for
    ``ne >= 1`` hyperedges; ``card_fracs`` lists (cardinality, fraction)
    pairs in increasing cardinality. A hyperedge is internal to block b only
    when all of its members lie in b; block b pays
    ``sum_l a_l * (vol_b / vol_total) ** l`` over the cardinality mix. Both
    sums are accumulated in block order; an empty block adds exactly 0.0 to
    each, so it is skipped.
    """
    vol_total = float(sum(vol))
    ec_total = 0.0
    tax_total = 0.0
    for vol_b, internal_b in zip(vol, internal):
        if not vol_b:
            continue
        frac = vol_b / vol_total
        tax = 0.0
        for ell, a_ell in card_fracs:
            tax += a_ell * frac ** ell
        ec_total += internal_b / ne
        tax_total += tax
    return ec_total, tax_total


def graph_modularity_score(h, part):
    """Score a 2-uniform hypergraph under the classic graph definition.

    This is the 2-uniform case of ``hypergraph_modularity_score``, whose
    tax reduces to ``(vol/2|E|)^2``; other cardinalities are rejected.
    """
    import numpy as np
    sizes = np.diff(h.arrays()[1])
    if (sizes != 2).any():
        raise ValueError("graph modularity needs 2-uniform input, "
                         f"found cardinality {sizes[sizes != 2][0]}")
    return hypergraph_modularity_score(h, part)


def hypergraph_modularity_score(h, part):
    """Score any hypergraph: edge contribution minus cardinality-weighted tax."""
    import numpy as np
    if len(part) != h.num_vertices:
        raise ValueError("partition size does not match the vertex count")
    if h.num_edges == 0:
        return ModularityBreakdown(0.0, 0.0, 0.0)
    vol, internal = block_counts(edge_batches(h), np.asarray(part.block_of, dtype=np.int64),
                                 part.num_blocks)
    ec, tax = _strict_score(vol.tolist(), internal.tolist(), h.num_edges,
                            cardinality_profile(h).a.items())
    return ModularityBreakdown(ec, tax, ec - tax)


def cardinality_profile(h):
    """Empirical cardinality fractions and mean cardinality of a hypergraph."""
    import numpy as np
    ne = h.num_edges
    if ne == 0:
        raise ValueError("cardinality profile needs at least one hyperedge")
    sizes, counts = np.unique(np.diff(h.arrays()[1]), return_counts=True)
    a = {ell: count / ne for ell, count in zip(sizes.tolist(), counts.tolist())}
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


_BRUTE_FORCE_CHUNK = 4096  # partitions scored together


def brute_force_modularity(h, max_vertices=12):
    """A maximizer of the strict score over every set partition of the vertices.

    Exhaustive over Bell(n) partitions, so n is capped (Bell(12) is
    about 4.2 million). Returns a maximizing partition and its score.
    When several partitions share the exact optimum, floating-point
    rounding decides which of them is returned.
    """
    import numpy as np
    n = h.num_vertices
    if n > max_vertices:
        raise ValueError(f"{n} vertices exceed the brute-force cap of {max_vertices}")
    if n == 0:
        return Partition([], 0), 0.0
    if h.num_edges == 0:
        return Partition.one_block(n), 0.0
    members, offsets = h.arrays()
    ne = h.num_edges
    card_fracs = cardinality_profile(h).a.items()
    best_q = None
    best = None
    strings = map(tuple, _restricted_growth_strings(n))
    while chunk := list(itertools.islice(strings, _BRUTE_FORCE_CHUNK)):
        # the chunk's partitions score at once, as one partition of as many
        # disjoint copies of h: copy i holds partition i, block b becomes i * n + b
        copies = len(chunk)
        shift = np.arange(copies)[:, None]
        block_of = (np.array(chunk) + shift * n).ravel()
        copy_members = (members + shift * n).ravel()
        copy_offsets = np.append((offsets[:-1] + shift * len(members)).ravel(),
                                 copies * len(members))
        vol, internal = block_counts([(copy_members, copy_offsets)], block_of, copies * n)
        for a, vol_a, internal_a in zip(chunk, vol.reshape(copies, n).tolist(),
                                        internal.reshape(copies, n).tolist()):
            ec, tax = _strict_score(vol_a, internal_a, ne, card_fracs)
            q = ec - tax
            if best_q is None or q > best_q:
                best_q = q
                best = list(a)
    return Partition(best).relabeled(), best_q


# a pair key u * n + v must fit in an int64
_MAX_FLATTEN_VERTICES = 3_037_000_499


class WeightedGraph:
    """Undirected weighted graph on dense vertex ids, no self-loops, in CSR form.

    Row u lists u's neighbours ``indices[indptr[u]:indptr[u + 1]]`` in
    increasing order, with the integer weight of each edge at the same
    position of ``data``; every edge is stored in both of its rows. All
    three arrays are int64. Build one with ``from_pair_counts``.
    """

    def __init__(self, num_vertices, indptr, indices, data):
        self.num_vertices = num_vertices
        self.indptr = indptr
        self.indices = indices
        self.data = data

    @classmethod
    def from_pair_counts(cls, num_vertices, keys, counts):
        """The graph whose edge {u, v} has weight ``counts[i]`` for each key
        ``keys[i] == u * num_vertices + v``; keys are distinct, with u < v."""
        import numpy as np
        keys = np.asarray(keys, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        n = max(num_vertices, 1)
        u, v = np.divmod(keys, n)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=num_vertices) + np.bincount(v, minlength=num_vertices),
                  out=indptr[1:])
        # both directions' keys, sorted: row by row, columns increasing; the
        # steps run in place where they can, since the pair arrays are large
        v *= n
        v += u
        entries = np.concatenate((keys, v))
        del u, v
        order = np.argsort(entries)
        indices = entries[order]
        del entries
        indices %= n
        order %= max(len(keys), 1)
        return cls(num_vertices, indptr, indices, counts[order])

    def row_values(self, values):
        """``values[u]`` at every stored entry of row u, aligned with ``indices``."""
        import numpy as np
        return np.repeat(values, np.diff(self.indptr))

    def degrees(self):
        """Weighted degree of every vertex, as an int64 array."""
        import numpy as np
        ends = np.concatenate(([0], np.cumsum(self.data)))
        return ends[self.indptr[1:]] - ends[self.indptr[:-1]]

    def _upper(self):
        import numpy as np
        rows = self.row_values(np.arange(self.num_vertices))
        upper = rows < self.indices
        return zip(rows[upper].tolist(), self.indices[upper].tolist(), self.data[upper].tolist())

    @property
    def weights(self):
        """Every edge once, as ``{(u, v): weight}`` with ``u < v``."""
        return {(u, v): w for u, v, w in self._upper()}

    @property
    def total_weight(self):
        return int(self.data.sum()) / 2

    def edge_list(self):
        """(u, v, weight) triples ordered by (u, v), weights as floats."""
        return [(u, v, float(w)) for u, v, w in self._upper()]


def _run_starts(keys):
    """Where each run of equal values starts in the sorted ``keys``."""
    import numpy as np
    change = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    return np.flatnonzero(change)


def sum_by_key(keys, counts):
    """The distinct ``keys`` in increasing order, and the sum of
    ``counts`` over each one's occurrences (int64 arrays)."""
    import numpy as np
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    first = _run_starts(keys)
    return keys[first], np.add.reduceat(counts, first) if len(first) else counts


def _pair_counts(members, offsets, n, triu):
    """Sorted distinct ``u * n + v`` keys (u < v) over the pairs of distinct
    members of each edge ``members[offsets[i]:offsets[i + 1]]``, and how
    many edges hold each pair; ``triu`` caches ``np.triu_indices(s, 1)`` by s."""
    import numpy as np
    ne = len(offsets) - 1
    distinct = np.unique(np.repeat(np.arange(ne, dtype=np.int64) * n, np.diff(offsets)) + members)
    edge, member = np.divmod(distinct, n)
    count = np.bincount(edge, minlength=ne)
    start = np.cumsum(count) - count
    sizes, groups = np.unique(count[count > 1], return_counts=True)
    keys = np.empty(int(groups @ (sizes * (sizes - 1) // 2)), dtype=np.int64)
    at = 0
    for s, edges in zip(sizes.tolist(), groups.tolist()):
        if s not in triu:
            triu[s] = np.triu_indices(s, 1)
        iu, ju = triu[s]
        clique = member[start[count == s][:, None] + np.arange(s)]
        pairs = keys[at:at + edges * len(iu)].reshape(edges, len(iu))
        np.take(clique, iu, axis=1, out=pairs)
        pairs *= n
        pairs += clique[:, ju]
        at += pairs.size
    keys.sort()
    first = _run_starts(keys)
    return keys[first], np.diff(first, append=len(keys))


def flatten(h):
    """Replace each hyperedge by a clique on its distinct vertices.

    Every unordered pair of distinct members contributes weight 1;
    repeated appearances of a vertex inside one hyperedge contribute
    nothing on their own. Weights are integer counts. Pairs are counted
    one ``edge_batches`` run at a time, so that no temporary grows with
    the whole hypergraph.
    """
    import numpy as np
    n = h.num_vertices
    if n > _MAX_FLATTEN_VERTICES:
        raise ValueError(f"{n} vertices are too many to flatten")
    keys = counts = np.empty(0, dtype=np.int64)
    runs = []
    pending = 0
    triu = {}
    for members, offsets in edge_batches(h):
        runs.append(_pair_counts(members, offsets, n, triu))
        pending += len(runs[-1][0])
        # merging once the runs hold as many keys as the total keeps the
        # merges' cost linear in the pairs counted, not in the runs times the total
        if pending >= len(keys):
            keys, counts = _merge(keys, counts, runs)
            runs, pending = [], 0
    keys, counts = _merge(keys, counts, runs)
    return WeightedGraph.from_pair_counts(n, keys, counts)


def _merge(keys, counts, runs):
    """``sum_by_key`` of the sorted total and the sorted, counted runs."""
    import numpy as np
    return sum_by_key(np.concatenate([keys] + [k for k, _ in runs]),
                      np.concatenate([counts] + [c for _, c in runs]))


def weighted_graph_modularity(wg, part):
    """Graph modularity with weights in place of edge counts."""
    import numpy as np
    if len(part) != wg.num_vertices:
        raise ValueError("partition size does not match the vertex count")
    total = wg.total_weight
    if total == 0:
        return 0.0
    block_of = np.asarray(part.block_of, dtype=np.int64)
    row_block = wg.row_values(block_of)
    # every edge is stored twice, so internal is twice the internal weight;
    # both sums are exact integers
    internal = int(wg.data.sum(where=row_block == block_of[wg.indices]))
    vol = np.bincount(row_block, weights=wg.data)
    q = internal / (2.0 * total)
    # in block order; a block without edges subtracts exactly 0.0, so it is skipped
    for x in vol[vol > 0].tolist():
        q -= (x / (2.0 * total)) ** 2
    return q
