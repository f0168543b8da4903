"""Louvain-style community detection on weighted flattened graphs.

Local moving followed by graph aggregation, repeated until no single
move improves weighted graph modularity by more than ``MIN_GAIN``.
The vertex visit order is shuffled once per level with the given seed;
ties between target blocks break toward the lowest block index, so runs
are fully deterministic.
"""

import random
from collections import defaultdict
from types import MappingProxyType

from .modularity import Partition, weighted_graph_modularity

MIN_GAIN = 1e-9
MAX_LEVELS = 32  # cap on aggregation levels; detection stops sooner once a level moves nothing
_NO_NEIGHBOURS = MappingProxyType({})  # the shared, read-only row of every supervertex without edges


def _one_level(adj, k, total, order):
    """Greedy local moving; returns the block assignment."""
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
                # detaching into a fresh singleton block scores exactly 0
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


def _aggregate(adj, k, block, num_blocks):
    """Collapse blocks into supervertices; each one's degree is the sum of
    its members' degrees, so weight inside a block needs no self-loop.
    Only a supervertex with an edge gets a dict of its own."""
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
    new_adj = [rows.get(b, _NO_NEIGHBOURS) for b in range(num_blocks)]
    return new_adj, new_k


def detect_communities(graph, seed=0):
    """Partition a weighted graph by greedy modularity maximization.

    Returns a partition of the graph's vertices; vertices without edges
    stay in singleton blocks. A graph with no edges yields the singleton
    partition.
    """
    n = graph.num_vertices
    # Level 0 walks graph.adj itself. Flattened weights are integer counts and
    # every sum stays below 2**53, so no order of additions changes a value;
    # candidate blocks are visited in sorted order.
    adj = graph.adj
    k = [sum(nbrs.values()) for nbrs in adj]
    total = sum(k) / 2
    if total == 0:
        return Partition.singletons(n)
    rng = random.Random(seed)

    labels = list(range(n))
    for _level in range(MAX_LEVELS):
        order = list(range(len(adj)))
        rng.shuffle(order)
        # a vertex without edges never moves, so it is not visited
        order = [v for v in order if adj[v]]
        level = Partition(_one_level(adj, k, total, order)).relabeled()
        labels = [level.block_of[b] for b in labels]
        # a level that moved nothing leaves every vertex its own block, so this
        # also stops detection once a level moves nothing
        if level.num_blocks == len(adj):
            break
        adj, k = _aggregate(adj, k, level.block_of, level.num_blocks)

    # each level's relabeling is by first appearance, and so is their composition
    part = Partition(labels)
    if weighted_graph_modularity(graph, part) < 0.0:
        return Partition.one_block(n)
    return part
