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
from collections import Counter
from itertools import accumulate


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

    def max_value(self):
        """Largest value in the support, or None when unbounded."""
        p = self.params
        if self.kind == "constant":
            return p["value"]
        if self.kind == "uniform_int":
            return p["hi"]
        if self.kind == "categorical":
            return max(p["values"])
        return None

    def pmf_items(self, eps=1e-12):
        """(value, probability) pairs; Poisson support truncated to mass 1-eps."""
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
        while acc < 1.0 - eps:
            items.append((k + shift, q))
            acc += q
            k += 1
            q *= lam / k
        return items

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


class PreferentialSelector:
    """Degree-proportional vertex selection with additive smoothing, over a
    subset of the vertices: the community model keeps one per community.

    Each member vertex u is drawn with probability
    ``(deg(u) + gamma) / (D + gamma * n)`` where D is the tracked degree
    total and n the member count. The selector keeps a flat occurrence
    list in which a vertex appears once per unit of degree; a draw is a
    two-part mixture between a uniform occurrence (degree-proportional
    part) and a uniform member (smoothing part). Selection never mutates
    the selector, so all draws of one time step see the same state.

    The general model needs no selector: its population is every vertex,
    so ``Hypergraph.members`` already is the occurrence list
    (``genh.select_vertices``).
    """

    def __init__(self, gamma):
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        self.gamma = gamma
        self.occurrences = array("q")
        self.members = []
        self._member_set = set()

    @property
    def num_members(self):
        return len(self.members)

    @property
    def degree_total(self):
        return len(self.occurrences)

    @property
    def weight_total(self):
        """Normalizing constant D + gamma * n of the selection law."""
        return len(self.occurrences) + self.gamma * len(self.members)

    def add_member(self, v):
        if v in self._member_set:
            raise ValueError(f"vertex {v} already tracked")
        self.members.append(v)
        self._member_set.add(v)

    def record_degree_increment(self, v):
        if v not in self._member_set:
            raise ValueError(f"vertex {v} is not tracked by this selector")
        self.occurrences.append(v)

    def select_one(self, rng):
        members = self.members
        n = len(members)
        if n == 0:
            raise ValueError("cannot select from an empty population")
        occ = self.occurrences
        d = len(occ)
        if self.gamma == 0.0:
            if d == 0:
                raise ValueError("gamma=0 selection undefined when all degrees are 0")
            return occ[int(rng.random() * d)]
        if rng.random() * (d + self.gamma * n) < d:
            return occ[int(rng.random() * d)]
        return members[int(rng.random() * n)]

    def select_vertices(self, count, rng):
        """Draw ``count`` independent vertices (repetitions allowed)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        select_one = self.select_one
        return [select_one(rng) for _ in range(count)]

    def marginals(self):
        """Exact selection probability of every member, for verification."""
        n = len(self.members)
        total = self.weight_total
        deg = Counter(self.occurrences)
        return {v: (deg.get(v, 0) + self.gamma) / total for v in self.members}
