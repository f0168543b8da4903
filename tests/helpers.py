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
