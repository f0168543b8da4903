"""The array paths against the plain-Python references they replaced.

``flatten``, Louvain, the strict score, the weighted score and the bound
inputs run on numpy arrays; ``helpers`` keeps the dict and loop versions.
Their distinct keys and counts come from ``modularity.distinct_counts``,
a sort, whose reference is ``np.unique(x, return_counts=True)``.
Every value must agree bit for bit, not only approximately: the output
bytes of ``detect``, ``flatten``, ``modularity`` and the experiments
depend on it. The other way round, ``Hypergraph.degrees`` counts in a plain
list, so that the generators load no numpy, and ``np.bincount`` is its
reference; the tail fit runs on plain lists and ``math``, and its numpy
version is the reference. That fit takes ``ln k`` from ``math.log``
(libm), which numpy's vectorized ``np.log`` rounds differently for a few
integers on some CPUs, so the comparison draws only degrees where the two
agree; ``_pairwise_sum`` adds in ``np.sum``'s order on every CPU.
"""

import math
import random
from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermod import (
    CardinalityDistribution,
    DegreeHistogram,
    HParams,
    Hypergraph,
    Partition,
    cardinality_profile,
    detect_communities,
    empirical_bound_inputs,
    fit_tail_exponent,
    flatten,
    hypergraph_modularity_score,
    modularity,
    weighted_graph_modularity,
)
from hypermod.analysis import _mle_beta, _pairwise_sum
from hypermod.experiments import uniform_block_params
from hypermod.geng import generate_g
from hypermod.genh import generate_h
from hypermod.louvain import _one_level
from hypermod.modularity import WeightedGraph, _strict_score, block_counts, distinct_counts

from helpers import (
    adjacency_weights,
    reference_bound_inputs,
    reference_detect_communities,
    reference_fit_tail_exponent,
    reference_flatten,
    reference_one_level,
    reference_strict_score,
    reference_weighted_modularity,
)


@st.composite
def hypergraphs(draw, max_vertices=12, max_edges=10, max_size=6):
    """Hypergraphs with repeated members, size-1 edges and isolated vertices;
    zero edges and zero vertices included."""
    n = draw(st.integers(0, max_vertices))
    h = Hypergraph()
    for _ in range(n):
        h.add_vertex()
    if n:
        member = st.integers(0, n - 1)
        for e in draw(st.lists(st.lists(member, min_size=1, max_size=max_size),
                               max_size=max_edges)):
            h.add_hyperedge(e)
    return h


def partitions(n):
    """A partition into 4 block ids, some of them possibly empty."""
    return st.lists(st.integers(0, 3), min_size=n, max_size=n).map(lambda b: Partition(b, 4))


# runs of at most this many memberships make several runs per hypergraph, so
# the merges between runs are exercised too
SMALL_BATCH = 4


@contextmanager
def small_batches():
    """``edge_batches`` cut into runs of ``SMALL_BATCH`` memberships, wherever it is called."""
    with mock.patch.object(modularity, "EDGE_BATCH", SMALL_BATCH):
        yield


def assert_same_graph(wg, adj):
    assert wg.num_vertices == len(adj)
    rows = [list(zip(wg.indices[a:b].tolist(), wg.data[a:b].tolist()))
            for a, b in zip(wg.indptr[:-1].tolist(), wg.indptr[1:].tolist())]
    assert rows == [sorted(nbrs.items()) for nbrs in adj]
    assert wg.weights == adjacency_weights(adj)
    assert wg.degrees().tolist() == [sum(nbrs.values()) for nbrs in adj]


@given(hypergraphs())
def test_degrees_equal_bincount(h):
    expected = np.bincount(h.arrays()[0], minlength=h.num_vertices).tolist()
    assert h.degrees == expected
    hist = h.degree_histogram()
    # the dict's insertion order too, not only its items
    assert list(hist.counts.items()) == list(Counter(expected).items())
    assert hist.total_vertices == h.num_vertices


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("length, high", [(0, 1), (1, 5), (7, 1), (1000, 1), (1000, 10),
                                          (1000, 1 << 20), (40_000, 300)])
def test_distinct_counts_equal_unique(dtype, length, high):
    keys = np.random.default_rng(length + high).integers(-high, high, length, dtype=dtype)
    expected = np.unique(keys, return_counts=True)
    distinct, counts = distinct_counts(keys.copy())
    assert distinct.dtype == dtype and counts.dtype == np.int64
    assert distinct.tolist() == expected[0].tolist()
    assert counts.tolist() == expected[1].tolist()


@given(hypergraphs(), st.booleans())
def test_flatten_equals_reference(h, small):
    with small_batches() if small else nullcontext():
        wg = flatten(h)
    assert_same_graph(wg, reference_flatten(h))


@settings(max_examples=200)
@given(hypergraphs(max_vertices=30, max_edges=40, max_size=5), st.integers(0, 1000))
def test_detection_equals_reference(h, seed):
    adj = reference_flatten(h)
    part = detect_communities(flatten(h), seed=seed)
    expected = reference_detect_communities(adj, seed)
    assert part.block_of == expected.block_of
    assert part.num_blocks == expected.num_blocks


@settings(max_examples=50)
@given(st.integers(3, 8), st.integers(2, 4), st.randoms(use_true_random=False),
       st.integers(0, 1000))
def test_detection_breaks_ties_like_reference(cliques, size, rng, seed):
    # a ring of equal cliques under a shuffled vertex numbering: many moves tie,
    # and a neighbour's vertex id says little about its block id
    n = cliques * size
    ids = list(range(n))
    rng.shuffle(ids)
    h = Hypergraph()
    for _ in range(n):
        h.add_vertex()
    for c in range(cliques):
        members = ids[c * size:(c + 1) * size]
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                h.add_hyperedge([u, v])
        h.add_hyperedge([members[-1], ids[(c + 1) * size % n]])
    part = detect_communities(flatten(h), seed=seed)
    assert part.block_of == reference_detect_communities(reference_flatten(h), seed).block_of


@st.composite
def weighted_graphs(draw):
    """A symmetric adjacency on 2-10 vertices with weights 1 and 2, so that
    many candidate blocks tie, and a visiting order of its vertices."""
    n = draw(st.integers(2, 10))
    adj = [{} for _ in range(n)]
    for u, v, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(1, 2)), max_size=30)):
        if u != v:
            adj[u][v] = adj[v][u] = adj[u].get(v, 0) + w
    order = draw(st.permutations(range(n)))
    return adj, [v for v in order if adj[v]]


@settings(max_examples=300)
@given(weighted_graphs())
def test_one_pass_block_choice_equals_sorted_scan(graph):
    """``_one_level`` picks each vertex's block in one pass over its
    candidates; the reference scans them in increasing block id."""
    adj, order = graph
    n = len(adj)
    pairs = sorted((u, v) for u in range(n) for v in adj[u] if u < v)
    wg = WeightedGraph.from_pair_counts(n, [u * n + v for u, v in pairs],
                                        [adj[u][v] for u, v in pairs])
    k = [sum(nbrs.values()) for nbrs in adj]
    total = sum(k) / 2
    if total == 0:
        return
    got = _one_level(memoryview(wg.indptr), memoryview(wg.indices), memoryview(wg.data), k,
                     total, order, list(range(n)))
    assert got == reference_one_level(adj, k, total, order)


@given(hypergraphs(), st.data())
def test_scores_equal_reference(h, data):
    n = h.num_vertices
    part = data.draw(partitions(n))
    adj = reference_flatten(h)
    with small_batches():
        wg = flatten(h)
        flattened = weighted_graph_modularity(wg, part)
        if h.num_edges:
            vol, internal = block_counts(modularity.edge_batches(h),
                                         np.asarray(part.block_of, dtype=np.int64),
                                         part.num_blocks)
            strict = _strict_score(vol.tolist(), internal.tolist(), h.num_edges,
                                   cardinality_profile(h).a.items())
            inputs = empirical_bound_inputs(h, part)
    assert flattened == reference_weighted_modularity(adj, part.block_of, part.num_blocks)
    if h.num_edges:
        expected = reference_strict_score(h, part.block_of, part.num_blocks)
        assert strict == expected
        assert hypergraph_modularity_score(h, part).score == expected[0] - expected[1]
        assert inputs == reference_bound_inputs(h, part)


@pytest.mark.parametrize("uniformity, seed", [(2, 0), (2, 1), (3, 2), (5, 3)])
def test_planted_runs_equal_reference(uniformity, seed):
    # Figure-1 shaped runs: several Louvain levels on a few hundred vertices
    params = uniform_block_params(6, 0.2, uniformity, 0.3, 1.0, 1500)
    g, planted, _ = generate_g(params, seed=seed)
    adj = reference_flatten(g)
    wg = flatten(g)
    assert_same_graph(wg, adj)
    part = detect_communities(wg, seed=seed)
    assert part.block_of == reference_detect_communities(adj, seed).block_of
    assert weighted_graph_modularity(wg, part) == reference_weighted_modularity(
        adj, part.block_of, part.num_blocks)
    for p in (part, planted):
        breakdown = hypergraph_modularity_score(g, p)
        assert (breakdown.edge_contribution, breakdown.degree_tax) == reference_strict_score(
            g, p.block_of, p.num_blocks)
    assert empirical_bound_inputs(g, planted) == reference_bound_inputs(g, planted)


@st.composite
def degree_histograms(draw):
    """Zipf samples, BA-like grown hypergraphs and Zipf tails under a
    uniform head, with degrees where ``np.log`` and ``math.log`` agree."""
    kind = draw(st.sampled_from(["zipf", "ba", "head"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "ba":
        params = HParams(0.0, 1.0, [], CardinalityDistribution.constant(2), [],
                         edges_per_event=draw(st.integers(1, 3)),
                         gamma=draw(st.sampled_from([0.0, 0.5, 2.0])),
                         steps=draw(st.integers(50, 3000)))
        hist = generate_h(params, seed)[0].degree_histogram()
    else:
        rng = np.random.default_rng(seed)
        size = draw(st.integers(1, 5000))
        degrees = np.minimum(rng.zipf(draw(st.floats(1.8, 3.5)), size), 10 ** 6)
        if kind == "head":
            shift = draw(st.integers(1, 8))
            degrees = np.concatenate([degrees + shift, rng.integers(1, shift + 1, size)])
        hist = DegreeHistogram(dict(Counter(degrees.tolist())), len(degrees))
    ks = sorted(k for k in hist.counts if k >= 1)
    assume(np.log(np.array(ks, dtype=float)).tolist() == [math.log(k) for k in ks])
    return hist


def fit_or_error(fit, hist, k_min):
    try:
        return fit(hist, k_min)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=150, deadline=None)
@given(degree_histograms(), st.one_of(st.none(), st.integers(1, 30)))
def test_tail_fit_equals_reference(hist, k_min):
    # the cutoff, the tail size and every bit of beta_hat and stderr, or the message
    assert fit_or_error(fit_tail_exponent, hist, k_min) == \
        fit_or_error(reference_fit_tail_exponent, hist, k_min)


@pytest.mark.parametrize("length", [7, 8, 9, 127, 128, 129, 255, 256, 257, None])
@settings(max_examples=40)
@given(st.integers(0, 600), st.integers(0, 2 ** 32 - 1))
def test_pairwise_sum_adds_like_numpy(length, drawn_length, seed):
    # the forced lengths sit at the 8-value and 128-value block edges; the
    # summands mix signs and 24 decades of magnitude
    rng = random.Random(seed)
    xs = [rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-12, 12)
          for _ in range(drawn_length if length is None else length)]
    assert _pairwise_sum(xs, 0, len(xs)) == float(np.sum(np.array(xs, dtype=float)))


def test_tail_fit_takes_logs_from_math_log():
    """ln 9170 is one of the integers that numpy's vectorized log rounds
    differently from libm's on some CPUs (numpy 2.4 on AVX-512); the fit's
    mean of ln k is the ``np.sum`` of ``c * math.log(k)`` divided by the
    tail size. With 1000 extra vertices of degree 9170 the two logs give
    betas that differ from the 1e-10 digit on, where they differ."""
    rng = random.Random(2)
    degrees = Counter(int(9000 * (1.0 - rng.random()) ** -0.5) for _ in range(2000))
    degrees[9170] += 1000
    hist = DegreeHistogram(dict(degrees), sum(degrees.values()))
    tail = sorted(degrees.items())
    n = sum(c for _, c in tail)
    mean_ln = float(np.sum(np.array([c * math.log(k) for k, c in tail]))) / n
    fit = fit_tail_exponent(hist, k_min=9000)
    assert (fit.beta_hat, fit.n_tail) == (_mle_beta(mean_ln, 9000), n)
