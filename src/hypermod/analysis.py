"""Closed-form degree-distribution predictions, tail fitting and bounds.

The growth process drives a limiting recurrence for the fraction of
vertices of each degree; its solution decays like ``k**-beta`` with an
explicit amplitude, which both the exponent prediction and the exact
degree-fraction table below evaluate. Tail exponents of empirical degree
histograms are estimated by discrete maximum likelihood with an optional
Kolmogorov-Smirnov choice of the lower cutoff. Modularity lower bounds
for the community model come in a profile-aware form and a two-parameter
relaxation of it.

scipy supplies log-gamma, imported inside the one function that evaluates
it, and numpy is imported inside the measured bound inputs, so importing
this module (and the package) loads neither. The predictions, the
degree-fraction table, the bounds of a profile and the tail fit need only
the standard library: the fit's zeta and root solver are bit-exact ports of
scipy's, its ``ln k`` is libm's ``math.log`` and its sum of ``c * ln k``
follows ``np.sum``'s pairwise order. numpy's vectorized log rounds a few
integers differently (9,170 among them, with numpy 2.4 on AVX-512), and
only a tail holding such a degree can fit differently from a numpy fit.
"""

import math
import sys
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, repeat
from operator import add
from typing import NamedTuple

from .genh import ParamError
from .geng import community_marginals, expected_cardinality_size_pmf, reduce_community
from .modularity import (CardinalityProfile, block_counts, cardinality_profile, distinct_counts,
                         edge_batches)

MIN_TAIL_SAMPLES = 50
# a Hurwitz zeta call costs about as much as this many math.pow terms
_DIRECT_GAP = 32
_DBETA = 1e-7  # the central-difference step of zeta's derivative in beta


class TheoryPrediction(NamedTuple):
    """Power-law exponent and the per-step rates behind it.

    ``vertex_rate``  expected vertices added per step
    ``degree_rate``  expected degree increments per step
    ``tail_ratio``   (degree_rate + gamma*vertex_rate) / (degree_rate - m*p_vertex_edge),
                     the decay ratio of the degree recurrence; beta = 1 + tail_ratio
    ``amplitude``    constant c with fraction-of-degree-k ~ c * k**-beta
    """

    beta: float
    vertex_rate: float
    degree_rate: float
    tail_ratio: float
    amplitude: float


class DegreeFractionTable(NamedTuple):
    """Exact limit fractions of degree-k vertices per time step.

    ``limits[k]`` is the limiting value of (number of degree-k vertices)/t;
    ``per_vertex[k]`` divides by the vertex rate, giving the limiting
    fraction of vertices that have degree k.
    """

    limits: list
    per_vertex: list


class TailFit(NamedTuple):
    """Discrete power-law fit of a degree histogram tail."""

    beta_hat: float
    k_min: int
    n_tail: int
    stderr: float


class BoundInputs(NamedTuple):
    """Per-community edge statistics feeding the modularity bounds.

    ``p_within[i]`` probability a hyperedge lies entirely inside community i;
    ``s_touch[i]``  probability it touches community i at all;
    ``profile``     cardinality mix of the hypergraph;
    ``max_cardinality`` the bound's uniform cap on hyperedge size, or None if unbounded.
    """

    p_within: list
    s_touch: list
    profile: CardinalityProfile
    max_cardinality: int

    @property
    def num_communities(self):
        return len(self.p_within)

    @property
    def alpha_noise(self):
        return 1.0 - sum(self.p_within)

    @property
    def beta_max(self):
        return max(self.p_within)


def _rates(params):
    """``(vertex_rate, degree_rate, tail_ratio)`` of a validated process."""
    params.validate()
    m = params.edges_per_event
    vertex_rate = params.p_vertex + params.p_vertex_edge
    degree_rate = m * (
        params.p_vertex_edge * params.attach_size.mean()
        + sum(p * d.mean() for p, d in zip(params.p_edge, params.edge_sizes))
    )
    denom = degree_rate - m * params.p_vertex_edge
    if denom <= 0:
        raise ParamError(
            ("p_vertex_edge", "p_edge", "attach_size", "edge_sizes"),
            "degenerate process: expected degree increments do not exceed "
            "the new vertex's own attachment degree",
        )
    return vertex_rate, degree_rate, (degree_rate + params.gamma * vertex_rate) / denom


def predicted_beta(params):
    """``predict_beta_h``'s beta from the rates alone, without the amplitude
    and so without scipy."""
    return 1.0 + _rates(params)[2]


def predict_beta_h(params):
    """Exponent of the degree power law of the general growth process."""
    from scipy.special import gammaln

    vertex_rate, degree_rate, ratio = _rates(params)
    m = params.edges_per_event
    gamma = params.gamma
    beta = 1.0 + ratio
    # amplitude via log-gamma; the isolated-vertex term vanishes as gamma -> 0
    if gamma > 0:
        term_v = params.p_vertex * ratio * math.exp(gammaln(gamma + ratio) - gammaln(gamma))
    else:
        term_v = 0.0
    term_ve = params.p_vertex_edge * ratio * math.exp(
        gammaln(m + gamma + ratio) - gammaln(m + gamma)
    )
    return TheoryPrediction(beta, vertex_rate, degree_rate, ratio, term_v + term_ve)


def degree_fraction_oracle(params, k_max):
    """Exact limiting fractions of degree-k vertices for k = 0..k_max.

    Solves the recurrence
    ``L_0 = p_vertex * D / (gamma + D)`` and
    ``L_k = (L_{k-1} * (k-1+gamma) + [k == m] * p_vertex_edge * D) / (k + gamma + D)``
    with D the tail ratio of ``predict_beta_h``.
    """
    if k_max < params.edges_per_event:
        raise ParamError(("k_max", "edges_per_event"),
                         f"k_max {k_max} is below the attachment degree {params.edges_per_event}")
    vertex_rate, _, d = _rates(params)
    if vertex_rate <= 0:
        raise ParamError(("p_vertex", "p_vertex_edge"),
                         "no vertices are ever added; per-vertex fractions undefined")
    gamma = params.gamma
    m = params.edges_per_event
    limits = [params.p_vertex * d / (gamma + d)]
    for k in range(1, k_max + 1):
        bump = params.p_vertex_edge * d if k == m else 0.0
        limits.append((limits[k - 1] * (k - 1 + gamma) + bump) / (k + gamma + d))
    per_vertex = [x / vertex_rate for x in limits]
    return DegreeFractionTable(limits, per_vertex)


def predict_beta_g(params):
    """Global and per-community power-law exponents of the community model.

    Every community evolves like a reduced single-population process, so
    its exponent comes from that reduction (``predict_beta_h``'s beta,
    without the amplitude); the global exponent is the smallest one.
    """
    params.validate()
    if params.p_vertex >= 1.0:
        raise ParamError(("p_vertex",), "must be below 1 for an exponent prediction "
                                        "(hyperedges must occur)")
    s = community_marginals(params.profile)
    betas = []
    for j in range(params.num_communities):
        if s[j] <= 0:
            raise ParamError(
                ("profile",),
                f"community {j} receives vertices but never hyperedges (touch probability 0)",
            )
        betas.append(predicted_beta(reduce_community(params, j)))
    return min(betas), betas


# Cephes' Euler-Maclaurin coefficients (2k)!/B_2k and its loop exit tolerance
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def _hurwitz_zeta(x, q):
    """Hurwitz zeta, the sum of ``(k + q)**-x`` over k >= 0, of two floats.

    A port of Cephes' ``zeta`` (Moshier, "Methods and Programs for
    Mathematical Functions", 1989), which scipy's ``zeta`` is built on, with
    the same operations in the same order and libm's ``pow``, so it returns
    the same double. x = 1 and non-positive integer q give inf, x < 1 and
    negative q with non-integer x give nan, and an underflowing sum gives 0.
    For q < 1, where C's ``pow`` may overflow to inf, ``math.pow`` raises
    ``OverflowError``; the tail fit's q is at least 1.
    """
    if x == 1.0:
        return math.inf
    if x < 1.0:
        return math.nan
    if q <= 0.0:
        if q == math.floor(q):
            return math.inf
        if x != math.floor(x):
            return math.nan
    if q > 1e8:  # asymptotic expansion, DLMF 25.11.43
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q, 1 - x)
    # Euler-Maclaurin summation. Where C divides by a zero sum, its NaN or
    # infinite ratio fails the exit test, so a zero sum never exits.
    s, a, i, b = math.pow(q, -x), q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if s and abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    for j, coefficient in enumerate(_ZETA_A):
        a *= x + 2 * j
        b /= w
        t = a * b / coefficient
        s += t
        if s and abs(t / s) < _MACHEP:
            return s
        a *= x + (2 * j + 1)
        b /= w
    return s


def _mean_log_zeta(beta, k_min):
    """-zeta'(beta, k_min) / zeta(beta, k_min), the model mean of ln k."""
    q = float(k_min)
    z = _hurwitz_zeta(beta, q)
    dz = (_hurwitz_zeta(beta + _DBETA, q) - _hurwitz_zeta(beta - _DBETA, q)) / (2.0 * _DBETA)
    if not z:  # zeta underflowed: IEEE's 0/0 = nan and x/0 = inf, where Python raises
        return math.copysign(math.inf, -dz) if abs(dz) > 0 else math.nan
    return -dz / z


def _brentq(f, xa, xb, xtol):
    """Root of ``f`` in the sign-changing bracket [xa, xb] by Brent's method.

    A port of scipy's ``brentq`` (its C ``brentq``, after Brent,
    "Algorithms for Minimization Without Derivatives", 1973) with its
    default ``rtol`` and ``maxiter`` and the same operations in the same
    order, so it returns the same double. A NaN from ``f``, a bracket
    without a sign change and failure to converge raise ``ValueError``.
    """
    rtol, maxiter = 4 * sys.float_info.epsilon, 100

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; the solver cannot continue")
        return fx

    def negative(x):  # C's signbit
        return math.copysign(1.0, x) < 0

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # where C divides by zero, its infinite or NaN step bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise ValueError(f"root solve failed to converge after {maxiter} iterations")


def _mle_beta(mean_ln, k_min):
    """Solve the discrete power-law likelihood equation for the exponent."""
    if mean_ln <= math.log(k_min) + 1e-12:
        raise ValueError("degenerate tail: every sampled degree equals the cutoff")

    known = {}

    def f(b):
        # _brentq starts by evaluating both ends of the bracket found below
        if b not in known:
            known[b] = _mean_log_zeta(b, k_min) - mean_ln
        return known[b]

    lo = 1.0 + 1e-5
    if f(lo) <= 0:
        return lo
    hi = 4.0
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("no finite exponent fits the tail (degenerate degrees)")
    return _brentq(f, lo, hi, xtol=1e-10)


def _pairwise_sum(a, lo, n):
    """Sum of ``a[lo:lo + n]`` in the order of numpy's float64 ``sum``: eight
    running sums over a block of at most 128 values, and larger runs split
    in halves rounded down to a multiple of 8."""
    if n < 8:
        return reduce(add, a[lo:lo + n], 0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, a[lo + j:lo + m:8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, a[lo + m:lo + n], head)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)


def _fit_at(ks, counts, k_min):
    lo = bisect_left(ks, k_min)
    n = sum(counts[lo:])
    if n < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"only {n} samples with degree >= {k_min}; need {MIN_TAIL_SAMPLES}"
        )
    if len(ks) - lo < 2:
        raise ValueError("tail has a single distinct degree; no slope to fit")
    terms = [c * math.log(k) for k, c in zip(ks[lo:], counts[lo:])]
    return _mle_beta(_pairwise_sum(terms, 0, len(terms)) / n, int(k_min)), n, lo


def _ks_distance(beta, tail_ks, tail_counts, n):
    """Largest gap between the tail's empirical CDF and the fitted law's at
    the observed degrees. The law's upper sums are walked down the observed
    degrees, from each k' to the next k below it, by
    ``zeta(beta, k + 1) = zeta(beta, k' + 1) + sum_{j=k+1..k'} j**-beta``,
    so a candidate cutoff costs two zeta calls plus one per gap wider than
    ``_DIRECT_GAP``."""
    z = _hurwitz_zeta(beta, float(tail_ks[0]))
    upper, above, uppers = 0.0, math.inf, []
    for k in reversed(tail_ks):
        if above - k > _DIRECT_GAP:
            upper = _hurwitz_zeta(beta, k + 1.0)
        else:
            upper = reduce(add, map(math.pow, range(above, k, -1), repeat(-beta)), upper)
        uppers.append(upper)
        above = k
    uppers.reverse()
    return max(abs(c / n - (1.0 - u / z)) for c, u in zip(accumulate(tail_counts), uppers))


def fit_tail_exponent(hist, k_min=None):
    """Fit a discrete power law to a degree histogram tail.

    With ``k_min`` (an integer >= 1) given, fits degrees >= k_min by exact
    discrete maximum likelihood. Otherwise scans candidate cutoffs and keeps
    the one whose fitted law is closest to the empirical tail in
    Kolmogorov-Smirnov distance. Degree-0 vertices never participate.
    """
    items = sorted((k, c) for k, c in hist.counts.items() if k >= 1 and c > 0)
    if not items:
        raise ValueError("histogram has no vertices of positive degree")
    ks = [k for k, _ in items]
    counts = [c for _, c in items]
    if k_min is not None:
        if k_min < 1:
            raise ValueError(f"k_min must be >= 1, got {k_min}")
        if k_min % 1:
            raise ValueError(f"k_min must be an integer, got {k_min}")
        beta, n, _ = _fit_at(ks, counts, k_min)
        return TailFit(beta, int(k_min), n, (beta - 1.0) / math.sqrt(n))
    best = None
    for candidate in ks:
        try:
            beta, n, lo = _fit_at(ks, counts, candidate)
        except ValueError:
            break  # tails only shrink from here on
        dist = _ks_distance(beta, ks[lo:], counts[lo:], n)
        if best is None or dist < best[0] - 1e-12:
            best = (dist, beta, candidate, n)
    if best is None:
        raise ValueError(f"no cutoff leaves {MIN_TAIL_SAMPLES} tail samples")
    _, beta, kmin, n = best
    return TailFit(beta, kmin, n, (beta - 1.0) / math.sqrt(n))


def bound_inputs_from_profile(params):
    """Bound inputs of a community model's ``GParams``, from the config alone.

    A hyperedge lies within community i exactly when its community set is
    the singleton {i}; the touch probabilities are the profile marginals and
    the cardinality mix is the expected hyperedge-size law. The size cap d
    is that law's largest size, or None when a size law is unbounded.
    """
    profile = params.profile
    pmf = expected_cardinality_size_pmf(params)
    tops = [dist.max_value() for dist in params.edge_sizes]
    return BoundInputs(
        p_within=[profile.probability((i,)) for i in range(profile.num_communities)],
        s_touch=community_marginals(profile),
        profile=CardinalityProfile(pmf, sum(ell * p for ell, p in pmf.items())),
        max_cardinality=None if None in tops else max(pmf),
    )


def empirical_bound_inputs(h, communities):
    """Bound inputs measured from a hypergraph and its planted ``Partition``."""
    import numpy as np
    if len(communities) != h.num_vertices:
        raise ValueError("partition size does not match the vertex count")
    r = communities.num_blocks
    ne = h.num_edges
    if ne == 0:
        raise ValueError("need at least one hyperedge")
    profile = cardinality_profile(h)
    community = np.asarray(communities.block_of, dtype=np.int64)
    _, within = block_counts(edge_batches(h), community, r)
    touch = np.zeros(r, dtype=np.int64)
    for members, offsets in edge_batches(h):
        # an edge touches each of its distinct communities once: count the
        # distinct (edge, community) keys
        keys = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64) * r, np.diff(offsets))
        keys += community[members]
        touch += np.bincount(distinct_counts(keys)[0] % r, minlength=r)
    return BoundInputs(
        p_within=[w / ne for w in within.tolist()],
        s_touch=[t / ne for t in touch.tolist()],
        profile=profile,
        max_cardinality=profile.max_cardinality,
    )


def modularity_lower_bound_general(inputs):
    """Profile-aware lower bound on the achievable hypergraph modularity."""
    delta = inputs.profile.delta
    if delta <= 0:
        raise ValueError("mean cardinality must be positive")
    d = inputs.max_cardinality
    total = 0.0
    for p_i, s_i in zip(inputs.p_within, inputs.s_touch):
        inner = ((d - 1) * s_i + p_i) / delta
        total += sum(a_ell * inner ** ell for ell, a_ell in inputs.profile.a.items())
    return sum(inputs.p_within) - total


def modularity_lower_bound_ab(alpha_noise, beta_max, card_profile, d, r):
    """Two-parameter modularity lower bound from the cross-community noise
    fraction and the largest within-community probability."""
    if not 0.0 <= alpha_noise <= 1.0 or not 0.0 <= beta_max <= 1.0:
        raise ValueError("alpha_noise and beta_max must lie in [0, 1]")
    delta = card_profile.delta
    ratio = d / delta
    a1 = card_profile.a.get(1, 0.0)
    value = 1.0 - alpha_noise - a1 * ratio * ((d - 2) * alpha_noise + 1.0)
    for ell, a_ell in card_profile.a.items():
        if ell >= 2:
            value -= a_ell * ratio ** ell * (
                (r - 1) * beta_max ** ell + ((d - 1) * alpha_noise + beta_max) ** ell
            )
    return value
