"""Reference computations shared by the tests.

Besides the small helpers, this module keeps plain-Python versions of the
array paths in ``hypermod``: the dict-of-dicts ``flatten``, the Louvain
levels on that adjacency, the loop strict score and the loop bound
inputs. The array paths must agree with them bit for bit. The other way
round, the tail fit runs on plain lists, and its numpy version is kept
here as the reference.
"""

import math
import random
from collections import Counter, defaultdict

from hypermod import CardinalityProfile, Partition
from hypermod.analysis import MIN_TAIL_SAMPLES, BoundInputs, TailFit, _hurwitz_zeta, _mle_beta
from hypermod.louvain import MAX_LEVELS, MIN_GAIN


def recomputed_degrees(h):
    """Fresh degree count from the member array, for validating ``h.degrees``."""
    deg = [0] * h.num_vertices
    for v in h.members:
        deg[v] += 1
    return deg


def edge_sizes(h):
    """Cardinality of every hyperedge, in insertion order, from ``h.offsets``."""
    offsets = h.offsets
    return [offsets[i + 1] - offsets[i] for i in range(h.num_edges)]


def naive_score(h, part):
    """The strict score straight from the definition, kept independent of
    ``hypermod.modularity`` on purpose."""
    ne = h.num_edges
    if ne == 0:
        return 0.0
    degrees, edges = h.degrees, h.edges
    vol_v = sum(degrees)
    card = Counter(len(e) for e in edges)
    q = 0.0
    for b in range(part.num_blocks):
        verts = {v for v in range(h.num_vertices) if part.block_of[v] == b}
        within = sum(1 for e in edges if set(e) <= verts)
        vol_a = sum(degrees[v] for v in verts)
        q += within / ne
        q -= sum((cnt / ne) * (vol_a / vol_v) ** ell for ell, cnt in card.items())
    return q


def reference_select(occ, pool, count, gamma, rng):
    """The selection law drawn one vertex at a time, sharing no code with
    ``sampling.select_vertices``: ``occ`` lists each vertex of the population
    once per unit of degree, ``pool`` each vertex once."""
    out = []
    for _ in range(count):
        d, n = len(occ), len(pool)
        if gamma == 0.0:
            out.append(occ[int(rng.random() * d)])
        elif rng.random() * (d + gamma * n) < d:
            out.append(occ[int(rng.random() * d)])
        else:
            out.append(pool[int(rng.random() * n)])
    return out


def marginals(sel):
    """Exact selection probability of every member of a ``PreferentialSelector``."""
    total = len(sel.occurrences) + sel.gamma * len(sel.members)
    deg = Counter(sel.occurrences)
    return {v: (deg.get(v, 0) + sel.gamma) / total for v in sel.members}


def reference_parse_hypergraph(path):
    """The hyperedge-list format read one line at a time, as plain Python.

    Returns ``(num_vertices, members, offsets)`` as lists, or raises the
    ``ValueError`` that ``files.parse_hypergraph`` must raise, message for
    message.
    """
    limit = 2 ** 63
    num_vertices, members, offsets = 0, [], [0]
    declared = None
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if fields and fields[0] == "vertices":
                    if len(fields) != 2 or not fields[1].isdecimal():
                        raise ValueError(f"{path}:{lineno}: malformed #vertices header")
                    declared = int(fields[1])
                    if declared >= limit:
                        raise ValueError(f"{path}:{lineno}: vertex count out of range in {line!r}")
                continue
            try:
                ids = [int(tok) for tok in line.split()]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer vertex id in {line!r}") from None
            if min(ids) < 0:
                raise ValueError(f"{path}:{lineno}: negative vertex id")
            if max(ids) >= limit:
                raise ValueError(f"{path}:{lineno}: vertex id out of range in {line!r}")
            num_vertices = max(num_vertices, max(ids) + 1)
            members.extend(ids)
            offsets.append(len(members))
    if declared is not None:
        if declared < num_vertices:
            raise ValueError(
                f"{path}: header declares {declared} vertices but ids reach {num_vertices - 1}"
            )
        num_vertices = declared
    return num_vertices, members, offsets


def blocks(part):
    """The vertices of every block of a ``Partition``, block by block."""
    out = [[] for _ in range(part.num_blocks)]
    for v, b in enumerate(part.block_of):
        out[b].append(v)
    return out


def reference_flatten(h):
    """The flattened graph as a symmetric adjacency, one dict per vertex:
    ``adj[u][v]`` counts the edges holding both u and v (u != v)."""
    adj = [{} for _ in range(h.num_vertices)]
    for e in h.edge_members():
        distinct = set(e)
        for u in distinct:
            nbrs = adj[u]
            for v in distinct:
                if v != u:
                    nbrs[v] = nbrs.get(v, 0) + 1
    return adj


def adjacency_weights(adj):
    """Every edge of a symmetric adjacency once, as ``{(u, v): weight}`` with u < v."""
    return {(u, v): w for u, nbrs in enumerate(adj) for v, w in nbrs.items() if u < v}


def reference_weighted_modularity(adj, block_of, num_blocks):
    """Weighted graph modularity of a partition of a symmetric adjacency."""
    total = sum(sum(nbrs.values()) for nbrs in adj) / 2
    if total == 0:
        return 0.0
    internal = 0.0
    vol = [0.0] * num_blocks
    for u, nbrs in enumerate(adj):
        bu = block_of[u]
        for v, w in nbrs.items():
            vol[bu] += w
            if block_of[v] == bu:
                internal += w
    q = internal / (2.0 * total)
    for x in vol:
        q -= (x / (2.0 * total)) ** 2
    return q


def reference_relabeled(block_of):
    """Blocks renumbered by first appearance, and how many there are."""
    mapping = {}
    labels = []
    for b in block_of:
        if b not in mapping:
            mapping[b] = len(mapping)
        labels.append(mapping[b])
    return labels, len(mapping)


def reference_one_level(adj, k, total, order):
    """Greedy local moving on a symmetric adjacency; returns the block assignment."""
    block = list(range(len(adj)))
    vol = list(k)
    two_m2 = 2.0 * total * total
    while True:
        moves = 0
        for v in order:
            bv = block[v]
            kv = k[v]
            w_to = {}
            for u, w in adj[v].items():
                b = block[u]
                w_to[b] = w_to.get(b, 0.0) + w
            vol[bv] -= kv
            stay = w_to.get(bv, 0.0) / total - vol[bv] * kv / two_m2
            best_b, best_score = bv, stay
            for b in sorted(w_to):
                if b == bv:
                    continue
                score = w_to[b] / total - vol[b] * kv / two_m2
                if score > best_score:
                    best_b, best_score = b, score
            if 0.0 > best_score:
                best_b, best_score = len(vol), 0.0
            if best_b != bv and best_score - stay > MIN_GAIN:
                if best_b == len(vol):
                    vol.append(0.0)
                vol[best_b] += kv
                block[v] = best_b
                moves += 1
            else:
                vol[bv] += kv
        if moves == 0:
            return block


def reference_aggregate(adj, k, block, num_blocks):
    """Blocks collapsed into supervertices: their adjacency and degrees."""
    rows = defaultdict(dict)
    new_k = [0.0] * num_blocks
    for v, kv in enumerate(k):
        new_k[block[v]] += kv
    for v, nbrs in enumerate(adj):
        bv = block[v]
        for u, w in nbrs.items():
            bu = block[u]
            if bu != bv:
                row = rows[bv]
                row[bu] = row.get(bu, 0.0) + w
    return [rows.get(b, {}) for b in range(num_blocks)], new_k


def reference_detect_communities(adj, seed=0):
    """Louvain on a symmetric adjacency, with the RNG use of ``detect_communities``."""
    n = len(adj)
    graph = adj
    k = [sum(nbrs.values()) for nbrs in adj]
    total = sum(k) / 2
    if total == 0:
        return Partition.singletons(n)
    rng = random.Random(seed)
    labels = list(range(n))
    for _level in range(MAX_LEVELS):
        order = list(range(len(adj)))
        rng.shuffle(order)
        order = [v for v in order if adj[v]]
        level, num_blocks = reference_relabeled(reference_one_level(adj, k, total, order))
        labels = [level[b] for b in labels]
        if num_blocks == len(adj):
            break
        adj, k = reference_aggregate(adj, k, level, num_blocks)
    part = Partition(labels)
    if reference_weighted_modularity(graph, part.block_of, part.num_blocks) < 0.0:
        return Partition.one_block(n)
    return part


def reference_strict_score(h, block_of, num_blocks):
    """(edge contribution, degree tax) of the strict score, one edge at a time."""
    ne = h.num_edges
    degrees = h.degrees
    counts = Counter(edge_sizes(h))
    card_fracs = [(ell, counts[ell] / ne) for ell in sorted(counts)]
    vol_total = float(sum(degrees))
    vol = [0.0] * num_blocks
    for v, b in enumerate(block_of):
        vol[b] += degrees[v]
    internal = [0] * num_blocks
    for e in h.edge_members():
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


def reference_bound_inputs(h, communities):
    """``empirical_bound_inputs``, one edge at a time."""
    r = communities.num_blocks
    ne = h.num_edges
    within = [0] * r
    touch = [0] * r
    community = communities.block_of
    for e in h.edge_members():
        seen = {community[v] for v in e}
        if len(seen) == 1:
            within[next(iter(seen))] += 1
        for c in seen:
            touch[c] += 1
    sizes = Counter(edge_sizes(h))
    return BoundInputs(
        p_within=[w / ne for w in within],
        s_touch=[t / ne for t in touch],
        profile=CardinalityProfile({ell: sizes[ell] / ne for ell in sorted(sizes)},
                                   h.degree_sum / ne),
        max_cardinality=max(sizes),
        num_communities=r,
    )


def reference_fit_at(ks, counts, k_min):
    import numpy as np
    mask = ks >= k_min
    tail_ks = ks[mask]
    tail_counts = counts[mask]
    n = int(tail_counts.sum())
    if n < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"only {n} samples with degree >= {k_min}; need {MIN_TAIL_SAMPLES}"
        )
    if len(tail_ks) < 2:
        raise ValueError("tail has a single distinct degree; no slope to fit")
    mean_ln = float((tail_counts * np.log(tail_ks)).sum() / n)
    beta = _mle_beta(mean_ln, int(k_min))
    return beta, n, tail_ks, tail_counts


def reference_ks_distance(beta, k_min, tail_ks, tail_counts):
    import numpy as np
    n = tail_counts.sum()
    ecdf = np.cumsum(tail_counts) / n
    z = _hurwitz_zeta(beta, k_min)
    model_cdf = 1.0 - np.array([_hurwitz_zeta(beta, k + 1.0) for k in tail_ks.tolist()]) / z
    return float(np.max(np.abs(ecdf - model_cdf)))


def reference_fit_tail_exponent(hist, k_min=None):
    """``fit_tail_exponent`` on numpy arrays, with one zeta call per tail
    degree in the Kolmogorov-Smirnov scan."""
    import numpy as np
    items = sorted((k, c) for k, c in hist.counts.items() if k >= 1 and c > 0)
    if not items:
        raise ValueError("histogram has no vertices of positive degree")
    ks = np.array([k for k, _ in items], dtype=float)
    counts = np.array([c for _, c in items], dtype=float)
    if k_min is not None:
        if k_min < 1:
            raise ValueError(f"k_min must be >= 1, got {k_min}")
        beta, n, _, _ = reference_fit_at(ks, counts, k_min)
        return TailFit(beta, int(k_min), n, (beta - 1.0) / math.sqrt(n))
    best = None
    for candidate in ks.tolist():
        try:
            beta, n, tail_ks, tail_counts = reference_fit_at(ks, counts, candidate)
        except ValueError:
            break  # tails only shrink from here on
        dist = reference_ks_distance(beta, candidate, tail_ks, tail_counts)
        if best is None or dist < best[0] - 1e-12:
            best = (dist, beta, int(candidate), n)
    if best is None:
        raise ValueError(f"no cutoff leaves {MIN_TAIL_SAMPLES} tail samples")
    _, beta, kmin, n = best
    return TailFit(beta, kmin, n, (beta - 1.0) / math.sqrt(n))
