"""Reference computations shared by the tests."""

from collections import Counter


def recomputed_degrees(h):
    """Fresh degree count from the member array, for validating ``h.degrees``."""
    deg = [0] * h.num_vertices
    for v in h.members:
        deg[v] += 1
    return deg


def max_value(dist):
    """Largest value in the support of a ``CardinalityDistribution``, or None
    when unbounded."""
    p = dist.params
    if dist.kind == "constant":
        return p["value"]
    if dist.kind == "uniform_int":
        return p["hi"]
    if dist.kind == "categorical":
        return max(p["values"])
    return None


def marginals(sel):
    """Exact selection probability of every member of a ``PreferentialSelector``."""
    total = len(sel.occurrences) + sel.gamma * len(sel.members)
    deg = Counter(sel.occurrences)
    return {v: (deg.get(v, 0) + sel.gamma) / total for v in sel.members}
