"""Plain-text formats: hyperedge lists, community/partition labels, CSV.

Hyperedge lists have one whitespace-separated line of vertex ids per
hyperedge (repetitions mark multiplicity). Lines starting with ``#`` are
comments, except an optional ``#vertices N`` header which pins the
vertex count so trailing isolated vertices survive a round trip.
Community labels and partitions share one format: ``vertex<TAB>block``.
"""

from .hypergraph import Hypergraph
from .modularity import Partition


def write_hypergraph(h, path):
    with open(path, "w") as f:
        f.write(f"#vertices {h.num_vertices}\n")
        for e in h.edge_members():
            f.write(" ".join(map(str, sorted(e))))
            f.write("\n")


def parse_hypergraph(path):
    """Read a hyperedge list, adding each line to the hypergraph as it is read.

    Vertices are added as ids first need them; a ``#vertices`` header,
    checked once the whole file is read, can add trailing isolated ones.
    """
    h = Hypergraph()
    declared = None
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if fields and fields[0] == "vertices":
                    if len(fields) != 2 or not fields[1].isdigit():
                        raise ValueError(f"{path}:{lineno}: malformed #vertices header")
                    declared = int(fields[1])
                continue
            try:
                members = [int(tok) for tok in line.split()]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer vertex id in {line!r}") from None
            if min(members) < 0:
                raise ValueError(f"{path}:{lineno}: negative vertex id")
            _add_vertices(h, max(members) + 1)
            h.add_hyperedge(members)
    if declared is not None:
        if declared < h.num_vertices:
            raise ValueError(
                f"{path}: header declares {declared} vertices but ids reach {h.num_vertices - 1}"
            )
        _add_vertices(h, declared)
    return h


def _add_vertices(h, n):
    """Grow ``h`` to at least ``n`` vertices."""
    for _ in range(n - h.num_vertices):
        h.add_vertex()


def write_labels(labels, path):
    with open(path, "w") as f:
        for v, b in enumerate(labels):
            f.write(f"{v}\t{b}\n")


def parse_labels(path, num_vertices):
    """Read one label per vertex; every vertex must appear exactly once."""
    labels = [None] * num_vertices
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t") if "\t" in line else line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'vertex<TAB>block', got {line!r}")
            try:
                v, b = int(fields[0]), int(fields[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field in {line!r}") from None
            if not 0 <= v < num_vertices:
                raise ValueError(f"{path}:{lineno}: vertex {v} out of range [0, {num_vertices})")
            if b < 0:
                raise ValueError(f"{path}:{lineno}: negative block {b}")
            if labels[v] is not None:
                raise ValueError(f"{path}:{lineno}: vertex {v} labeled twice")
            labels[v] = b
    for v, b in enumerate(labels):
        if b is None:
            raise ValueError(f"{path}: vertex {v} has no label")
    return labels


def parse_partition(path, num_vertices):
    """Read a partition, renumbering block ids by rank: no block is empty."""
    labels = parse_labels(path, num_vertices)
    rank = {b: i for i, b in enumerate(sorted(set(labels)))}
    return Partition([rank[b] for b in labels], len(rank))


def write_partition(part, path):
    write_labels(part.block_of, path)


def format_value(x):
    """Stable text for CSV cells: repr for floats, str otherwise."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header))
        f.write("\n")
        for row in rows:
            f.write(",".join(format_value(x) for x in row))
            f.write("\n")


def write_weighted_graph_csv(wg, path):
    write_csv(path, ["u", "v", "weight"], wg.edge_list())
