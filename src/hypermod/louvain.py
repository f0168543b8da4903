"""Louvain-style community detection on weighted flattened graphs.

Local moving followed by graph aggregation, repeated until no single
move improves weighted graph modularity by more than ``MIN_GAIN``.
The vertex visit order is shuffled once per level with the given seed;
ties between target blocks break toward the lowest block index, so runs
are fully deterministic.
"""

import random

from .modularity import (
    Partition,
    WeightedGraph,
    first_appearance_labels,
    sum_by_key,
    weighted_graph_modularity,
)

MIN_GAIN = 1e-9
MAX_LEVELS = 32  # cap on aggregation levels; detection stops sooner once a level moves nothing


def _one_level(indptr, indices, data, k, total, order, block):
    """Greedy local moving over the level's CSR rows, read in place through
    memoryviews, from ``block`` (every vertex alone), which it updates in
    place and returns."""
    vol = list(k)
    two_m2 = 2.0 * total * total
    while True:
        moves = 0
        for v in order:
            bv = block[v]
            kv = k[v]
            w_to = {}
            lo, hi = indptr[v], indptr[v + 1]
            for u, w in zip(indices[lo:hi], data[lo:hi]):
                b = block[u]
                w_to[b] = w_to.get(b, 0.0) + w
            vol[bv] -= kv
            stay = w_to.get(bv, 0.0) / total - vol[bv] * kv / two_m2
            best_b, best_score = bv, stay
            # one pass in any order picks what a scan in increasing block id
            # picks: the lowest block of the best score, and ``bv`` on a tie
            for b, w in w_to.items():
                score = w / total - vol[b] * kv / two_m2
                if score > best_score or (score == best_score and best_b != bv and b < best_b):
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


def _aggregate(graph, k, block, num_blocks):
    """Collapse blocks into supervertices; each one's degree is the sum of
    its members' degrees, so weight inside a block needs no self-loop.
    ``k`` and ``block`` are int64 arrays over the graph's vertices."""
    import numpy as np
    row_block = graph.row_values(block)
    col_block = block[graph.indices]
    # each edge between two blocks is stored once with its lower block first
    crossing = row_block < col_block
    keys = row_block[crossing] * num_blocks
    keys += col_block[crossing]
    del row_block, col_block
    keys, weights = sum_by_key(keys, graph.data[crossing])
    # degree sums are integers below 2**53, so the float sums are exact
    new_k = np.bincount(block, weights=k, minlength=num_blocks).astype(np.int64)
    return WeightedGraph.from_pair_counts(num_blocks, keys, weights), new_k


def detect_communities(graph, seed=0):
    """Partition a weighted graph by greedy modularity maximization.

    Returns a partition of the graph's vertices; vertices without edges
    stay in singleton blocks. A graph with no edges yields the singleton
    partition.
    """
    import numpy as np
    n = graph.num_vertices
    # Flattened weights are integer counts and every sum stays below 2**53,
    # so no order of additions changes a value, and ties between candidate
    # blocks go to the lowest block id.
    k = graph.degrees()
    total = int(k.sum()) / 2
    if total == 0:
        return Partition.singletons(n)
    rng = random.Random(seed)

    level_graph = graph
    labels = np.arange(n)
    for _level in range(MAX_LEVELS):
        size = level_graph.num_vertices
        block = list(range(size))
        order = list(block)
        rng.shuffle(order)
        indptr = memoryview(level_graph.indptr)
        # a vertex without edges never moves, so it is not visited
        order = [v for v in order if indptr[v] != indptr[v + 1]]
        _one_level(indptr, memoryview(level_graph.indices), memoryview(level_graph.data),
                   k.tolist(), total, order, block)
        block = np.array(block)
        block, num_blocks = first_appearance_labels(block)
        labels = block[labels]
        # a level that moved nothing leaves every vertex its own block, so this
        # also stops detection once a level moves nothing
        if num_blocks == size:
            break
        level_graph, k = _aggregate(level_graph, k, block, num_blocks)

    # each level's relabeling is by first appearance, and so is their composition
    part = Partition(labels.tolist())
    if weighted_graph_modularity(graph, part) < 0.0:
        return Partition.one_block(n)
    return part
