"""Seeded randomness, hyperedge-size distributions and preferential selection.

All generation runs draw from a single Mersenne Twister stream
(``random.Random``), which is reproducible across platforms for a given
seed. The draw order within a time step is fixed: event type first, then
hyperedge sizes, then vertex selections. Draws whose outcome is forced
(constant distributions, single-entry categoricals, a single community)
consume no randomness, so structurally equivalent parameterizations of
different models produce identical streams.
"""

import math
import random
from array import array
from bisect import bisect_right
from itertools import accumulate

PMF_TAIL_MASS = 1e-12  # the tail mass that ``pmf_items`` drops from a Poisson law


def make_rng(seed):
    """Deterministic generator stream for one run."""
    return random.Random(seed)


def cumulative(probs):
    """Running sums of non-empty ``probs`` with the last pinned to 1.0.

    ``bisect_right(cumulative(probs), u)`` maps a uniform u in [0, 1) to
    an index drawn with the given probabilities.
    """
    cum = list(accumulate(probs))
    cum[-1] = 1.0
    return cum


class CardinalityDistribution:
    """Sampleable distribution over hyperedge sizes (integers >= 1).

    Supported kinds: ``constant``, ``uniform_int``, ``categorical`` and
    ``shifted_poisson``. The mean is available in closed form for each.
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params
        if kind == "constant":
            v = params["value"]
            if v < 1:
                raise ValueError("constant size must be >= 1")
        elif kind == "uniform_int":
            lo, hi = params["lo"], params["hi"]
            if lo < 1 or hi < lo:
                raise ValueError(f"uniform_int needs 1 <= lo <= hi, got ({lo}, {hi})")
        elif kind == "categorical":
            values, probs = params["values"], params["probs"]
            if len(values) != len(probs) or not values:
                raise ValueError("categorical needs matching non-empty values/probs")
            if any(v < 1 for v in values):
                raise ValueError("categorical values must be >= 1")
            if any(p < 0 for p in probs):
                raise ValueError("categorical probabilities must be non-negative")
            total = sum(probs)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"categorical probabilities sum to {total}, expected 1")
            probs = [p / total for p in probs]
            self.params = {"values": list(values), "probs": probs}
            self._cum = cumulative(probs)
        elif kind == "shifted_poisson":
            lam, shift = params["lam"], params["shift"]
            if lam < 0 or shift < 1:
                raise ValueError("shifted_poisson needs lam >= 0 and shift >= 1")
        else:
            raise ValueError(f"unknown distribution kind {kind!r}")

    @classmethod
    def constant(cls, value):
        return cls("constant", value=value)

    @classmethod
    def uniform_int(cls, lo, hi):
        return cls("uniform_int", lo=lo, hi=hi)

    @classmethod
    def categorical(cls, values, probs):
        return cls("categorical", values=values, probs=probs)

    @classmethod
    def shifted_poisson(cls, lam, shift=1):
        return cls("shifted_poisson", lam=lam, shift=shift)

    def mean(self):
        p = self.params
        if self.kind == "constant":
            return float(p["value"])
        if self.kind == "uniform_int":
            return (p["lo"] + p["hi"]) / 2.0
        if self.kind == "categorical":
            return sum(v * q for v, q in zip(p["values"], p["probs"]))
        return p["lam"] + p["shift"]

    def pmf_items(self):
        """(value, probability) pairs; a Poisson support stops at mass 1 - ``PMF_TAIL_MASS``."""
        p = self.params
        if self.kind == "constant":
            return [(p["value"], 1.0)]
        if self.kind == "uniform_int":
            n = p["hi"] - p["lo"] + 1
            return [(v, 1.0 / n) for v in range(p["lo"], p["hi"] + 1)]
        if self.kind == "categorical":
            return sorted(zip(p["values"], p["probs"]))
        lam, shift = p["lam"], p["shift"]
        items = []
        q = math.exp(-lam)
        k, acc = 0, 0.0
        while acc < 1.0 - PMF_TAIL_MASS:
            items.append((k + shift, q))
            acc += q
            k += 1
            q *= lam / k
        return items

    def max_value(self):
        """The support's largest value; None for a Poisson law with ``lam > 0``."""
        if self.kind == "shifted_poisson" and self.params["lam"] > 0:
            return None
        return max(v for v, _ in self.pmf_items())

    def sample(self, rng):
        p = self.params
        if self.kind == "constant":
            return p["value"]
        if self.kind == "uniform_int":
            lo, hi = p["lo"], p["hi"]
            if lo == hi:
                return lo
            return lo + int(rng.random() * (hi - lo + 1))
        if self.kind == "categorical":
            values = p["values"]
            if len(values) == 1:
                return values[0]
            return values[bisect_right(self._cum, rng.random())]
        # shifted_poisson, Knuth's product-of-uniforms; lam is small here
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
    """

    def __init__(self, gamma):
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        self.gamma = gamma
        self.occurrences = array("q")
        self.members = []

    @property
    def num_members(self):
        return len(self.members)

    @property
    def degree_total(self):
        return len(self.occurrences)

    def add_member(self, v):
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
