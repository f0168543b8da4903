"""Seeded randomness, hyperedge-size distributions and preferential selection.

All generation runs draw from a single Mersenne Twister stream
(``random.Random``), which is reproducible across platforms for a given
seed. The draw order within a time step is fixed: event type first, then
hyperedge sizes, then vertex selections. Draws whose outcome is forced
(constant distributions, single-entry categoricals, a single community)
consume no randomness (``Categorical`` and ``uniform_index`` hold that
rule; preferential selection draws even when its outcome is forced), so
structurally equivalent parameterizations of different models produce
identical streams. A size law's constructor checks its arguments and fixes
its closed forms; only its support walk and its draw read its kind.
"""

import math
import random
import sys
from array import array
from bisect import bisect_right
from itertools import accumulate, takewhile

from . import hypergraph

PROB_SUM_TOL = 1e-6  # how far from 1 the probabilities of a finite law may sum
PMF_TAIL_MASS = 1e-12  # the tail mass that ``pmf_items`` drops from a Poisson law
# the largest lam whose exp(-lam), where the pmf walk and the sampler start, is normal
POISSON_MAX_LAM = -math.log(sys.float_info.min)


def make_rng(seed):
    """Deterministic generator stream for one run."""
    return random.Random(seed)


class Categorical:
    """A finite law: one of ``values``, drawn with the matching ``probs``.

    A uniform u picks the first value whose running sum exceeds u; the last
    sum is pinned to 1.0, and a single value is returned without a draw.
    ``probs`` must already be normalized: summing them again, in another
    order, could move a running sum by an ulp and so change the draws.
    """

    def __init__(self, values, probs):
        self.values = list(values)
        self.cum = list(accumulate(probs))
        self.cum[-1] = 1.0

    def sample(self, rng):
        if len(self.values) == 1:
            return self.values[0]
        return self.values[bisect_right(self.cum, rng.random())]


def uniform_index(n, rng):
    """A uniform index of ``range(n)``, ``int(u * n)``; no draw when n == 1."""
    return 0 if n == 1 else int(rng.random() * n)


class CardinalityDistribution:
    """Sampleable distribution over hyperedge sizes (integers >= 1).

    Build one with a kind's constructor: ``constant``, ``uniform_int``,
    ``categorical`` or ``shifted_poisson``. Each checks its arguments and
    fixes the law's mean and largest size in closed form, so only the
    support walk (shared by ``pmf_items`` and ``mass_below``) and
    ``sample`` read the kind.
    """

    def __init__(self, kind, params, mean, max_value, law=None):
        self.kind, self.params, self._law = kind, params, law  # law: a categorical's draw
        self._mean, self._max_value = mean, max_value

    @classmethod
    def constant(cls, value):
        if value < 1:
            raise ValueError("constant size must be >= 1")
        return cls("constant", {"value": value}, float(value), value)

    @classmethod
    def uniform_int(cls, lo, hi):
        if lo < 1 or hi < lo:
            raise ValueError(f"uniform_int needs 1 <= lo <= hi, got ({lo}, {hi})")
        return cls("uniform_int", {"lo": lo, "hi": hi}, (lo + hi) / 2.0, hi)

    @classmethod
    def categorical(cls, values, probs):
        if len(values) != len(probs) or not values:
            raise ValueError("categorical needs matching non-empty values/probs")
        if any(v < 1 for v in values):
            raise ValueError("categorical values must be >= 1")
        if any(p < 0 for p in probs):
            raise ValueError("categorical probabilities must be non-negative")
        total = sum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"categorical probabilities sum to {total}, expected 1")
        values, probs = list(values), [p / total for p in probs]
        return cls("categorical", {"values": values, "probs": probs},
                   sum(v * q for v, q in zip(values, probs)), max(values),
                   Categorical(values, probs))

    @classmethod
    def shifted_poisson(cls, lam, shift=1):
        if lam < 0 or shift < 1:
            raise ValueError("shifted_poisson needs lam >= 0 and shift >= 1")
        if not lam <= POISSON_MAX_LAM:
            raise ValueError(f"shifted_poisson needs lam <= {POISSON_MAX_LAM:.6g}, got {lam}")
        return cls("shifted_poisson", {"lam": lam, "shift": shift}, lam + shift,
                   None if lam > 0 else shift)

    def mean(self):
        return self._mean

    def max_value(self):
        """The support's largest value; None for a Poisson law with ``lam > 0``."""
        return self._max_value

    def _support(self):
        """(value, probability) pairs in increasing value, walked lazily."""
        p = self.params
        if self.kind == "constant":
            yield p["value"], 1.0
        elif self.kind == "uniform_int":
            n = p["hi"] - p["lo"] + 1
            yield from ((v, 1.0 / n) for v in range(p["lo"], p["hi"] + 1))
        elif self.kind == "categorical":
            yield from sorted(zip(p["values"], p["probs"]))
        else:
            lam, shift = p["lam"], p["shift"]
            q, k, acc = math.exp(-lam), 0, 0.0
            while acc < 1.0 - PMF_TAIL_MASS:
                yield k + shift, q
                acc += q
                k += 1
                q *= lam / k

    def pmf_items(self):
        """(value, probability) pairs; a Poisson support stops at mass 1 - ``PMF_TAIL_MASS``."""
        return list(self._support())

    def mass_below(self, cap):
        """The mass below ``cap``, walked up to the cap; ``fsum``, so every CPython agrees."""
        return math.fsum(q for _, q in takewhile(lambda item: item[0] < cap, self._support()))

    def sample(self, rng):
        p = self.params
        if self.kind == "constant":
            return p["value"]
        if self.kind == "uniform_int":
            return p["lo"] + uniform_index(p["hi"] - p["lo"] + 1, rng)
        if self.kind == "categorical":
            return self._law.sample(rng)
        # shifted_poisson, Knuth's product-of-uniforms: about lam + 1 uniforms a draw
        lam, shift = p["lam"], p["shift"]
        if lam == 0:
            return shift
        limit = math.exp(-lam)
        k, prod = 0, rng.random()
        while prod > limit:
            k += 1
            prod *= rng.random()
        return k + shift

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"CardinalityDistribution.{self.kind}({inner})"


def select_vertices(occ, pool, count, gamma, rng):
    """Draw ``count`` vertices independently and with repetition, each vertex
    v of ``pool`` with probability ``(deg(v) + gamma) / (D + gamma * n)``.

    This is the selection law of both generators. ``occ`` holds every
    vertex of the population once per unit of degree (D = len(occ)), so a
    degree-proportional draw is a uniform slot of it; ``pool`` holds the n
    vertices once each. With ``gamma > 0`` a first uniform chooses between
    the two, and the smoothing draw is a uniform slot of ``pool``. Needs
    ``D >= 1`` when ``gamma == 0`` and ``n >= 1`` otherwise.
    """
    d = len(occ)
    random = rng.random
    if gamma == 0.0:
        return [occ[int(random() * d)] for _ in range(count)]
    n = len(pool)
    weight = d + gamma * n
    return [
        occ[int(random() * d)] if random() * weight < d else pool[int(random() * n)]
        for _ in range(count)
    ]


class PreferentialSelector:
    """One community's urn in the community model: its members, and an
    occurrence array in which each member appears once per unit of degree.

    ``select_vertices`` draws through the shared ``select_vertices``
    function with ``(occurrences, members)``, so each community grows
    under the same law as the general model, which passes
    ``(Hypergraph.members, range(num_vertices))``. Selection never mutates
    the urn, so all draws of one time step see the same state.

    The occurrence array follows the store's width rule: it starts in
    ``hypergraph._NARROW`` (int32) and widens through ``hypergraph.widened``,
    to int64, when a new member's id does not fit.
    """

    def __init__(self, gamma):
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        self.gamma = gamma
        self.occurrences = array(hypergraph._NARROW)
        self.members = []

    def add_member(self, v):
        self.occurrences = hypergraph.widened(self.occurrences, v)
        self.members.append(v)

    def record_degree_increment(self, vertices):
        """Add one unit of degree to each of ``vertices``, all of them members."""
        self.occurrences.extend(vertices)

    def select_vertices(self, count, rng):
        """Draw ``count`` members independently (repetitions allowed)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if not self.members:
            raise ValueError("cannot select from an empty population")
        if self.gamma == 0.0 and not self.occurrences:
            raise ValueError("gamma=0 selection undefined when all degrees are 0")
        return select_vertices(self.occurrences, self.members, count, self.gamma, rng)
