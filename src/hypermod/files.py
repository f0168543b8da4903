"""Plain-text formats: hyperedge lists, community/partition labels, CSV.

Hyperedge lists have one whitespace-separated line of vertex ids per
hyperedge (repetitions mark multiplicity). Lines starting with ``#`` are
comments, except an optional ``#vertices N`` header which pins the
vertex count so trailing isolated vertices survive a round trip.
Community labels and partitions share one format: ``vertex<TAB>block``.
"""

from array import array
from functools import cache

from .hypergraph import Hypergraph
from .modularity import Partition

# Vertex ids and #vertices counts must be below this: the store's arrays
# start as int32 and widen to int64 when a value needs it, but go no wider.
_ID_LIMIT = 2 ** 63
# Characters per read. It keeps the bulk reader's arrays (at most 8 bytes
# per character) below 128 KiB, glibc's initial mmap threshold: freeing a
# larger array raises that threshold, after which the heap keeps freed
# memory (5 MB more peak RSS in the 20-uniform g pipeline at 32K).
_CHUNK_CHARS = 1 << 13
# Every run of at most this many decimal digits fits in int64.
_MAX_DIGITS = 18
# Byte codes of the bulk reader: a digit's value, or a class. Whitespace is
# what str.split sees among ASCII bytes; a line with an _OTHER byte takes
# the per-line rule. The code table is built on the first parse
# (``_byte_tables``), so importing this module loads no numpy.
_SPACE, _NEWLINE, _OTHER = 10, 11, 12
_LABEL_LINES = 1 << 12  # label lines per write call; bounds the text held at once


def write_hypergraph(h, path):
    with open(path, "w") as f:
        f.write(f"#vertices {h.num_vertices}\n")
        for e in h.edge_members():
            f.write(" ".join(map(str, sorted(e))))
            f.write("\n")


def parse_hypergraph(path):
    """Read a hyperedge list, adding each line to the hypergraph as it is read.

    The text is read in pieces of about ``_CHUNK_CHARS`` characters, each
    cut after its last newline. In a piece, a line of ASCII digits and
    whitespace is read in bulk; every other line (comments, the header,
    other ``int()`` spellings, ids of more than ``_MAX_DIGITS`` digits)
    takes ``_read_line``, the format's per-line rule. Vertices grow once
    per piece; a ``#vertices`` header, checked once the whole file is
    read, can add trailing isolated ones.
    """
    h = Hypergraph()
    declared = None
    lineno = 0
    with open(path) as f:
        for body in _whole_lines(f):
            declared = _add_lines(h, path, body, lineno, declared)
            lineno += body.count("\n")
    if declared is not None:
        if declared < h.num_vertices:
            raise ValueError(
                f"{path}: header declares {declared} vertices but ids reach {h.num_vertices - 1}"
            )
        _add_vertices(h, declared)
    return h


def _whole_lines(f):
    """Yield the text of ``f`` in pieces that each end with a newline."""
    carry = ""
    while chunk := f.read(_CHUNK_CHARS):
        text = carry + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        carry = text[cut:]
    if carry:
        yield carry + "\n"


@cache
def _byte_tables():
    """Each byte's code, and ten to the power of each digit place."""
    import numpy as np
    code = np.full(256, _OTHER, dtype=np.int8)
    code[ord("0"):ord("9") + 1] = np.arange(10)
    code[list(b" \t\x0b\x0c\r\x1c\x1d\x1e\x1f")] = _SPACE
    code[ord("\n")] = _NEWLINE
    return code, 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)


def _add_lines(h, path, body, lineno, declared):
    """Add the lines of ``body``, which follow line ``lineno`` of the file,
    to ``h``; returns the last ``#vertices`` count read, else ``declared``."""
    import numpy as np
    byte_code, pow10 = _byte_tables()
    code = byte_code[np.frombuffer(body.encode("utf-8", "surrogatepass"), dtype=np.uint8)]
    newlines = np.flatnonzero(code == _NEWLINE)
    digits = np.flatnonzero(code < _SPACE)
    first = np.flatnonzero(np.diff(digits, prepend=-2) != 1)  # each run's first digit
    lengths = np.diff(first, append=len(digits))
    starts = digits[first]
    odd = np.concatenate((np.flatnonzero(code == _OTHER), starts[lengths > _MAX_DIGITS]))
    by_rule = np.zeros(len(newlines), dtype=bool)
    by_rule[np.searchsorted(newlines, odd)] = True
    rule_lines = set(np.flatnonzero(by_rule).tolist())
    # each digit times ten to its place in its run, summed per run
    place = np.repeat(starts + (lengths - 1), lengths) - digits
    values = code[digits] * np.take(pow10, place, mode="clip")
    if len(first):
        values = np.add.reduceat(values, first)
    if rule_lines:  # their ids come from the per-line rule
        values[by_rule[np.searchsorted(newlines, starts)]] = -1
    _add_vertices(h, int(values.max(initial=-1)) + 1)
    h.widen()
    ids = array(h.members.typecode, values.astype(h.members.typecode).tobytes())
    lines = None
    lo = 0
    for i, hi in enumerate(np.searchsorted(starts, newlines).tolist()):
        if i in rule_lines:
            if lines is None:
                lines = body.split("\n")
            members, count = _read_line(path, lineno + i + 1, lines[i])
            if count is not None:
                declared = count
            elif members:
                _add_vertices(h, max(members) + 1)
                h.add_hyperedge(members)
        elif hi > lo:
            h.add_hyperedge(ids[lo:hi])
        lo = hi
    return declared


def _read_line(path, lineno, raw):
    """The format's rule for one line: ``(ids, None)`` for a hyperedge,
    ``(None, count)`` for a ``#vertices`` header, ``(None, None)`` for a
    blank or comment line. Raises ``ValueError`` naming the line."""
    line = raw.strip()
    if not line:
        return None, None
    if line.startswith("#"):
        fields = line[1:].split()
        if not fields or fields[0] != "vertices":
            return None, None
        if len(fields) != 2 or not fields[1].isdecimal():
            raise ValueError(f"{path}:{lineno}: malformed #vertices header")
        count = int(fields[1])
        if count >= _ID_LIMIT:
            raise ValueError(f"{path}:{lineno}: vertex count out of range in {line!r}")
        return None, count
    try:
        members = [int(tok) for tok in line.split()]
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-integer vertex id in {line!r}") from None
    if min(members) < 0:
        raise ValueError(f"{path}:{lineno}: negative vertex id")
    if max(members) >= _ID_LIMIT:
        raise ValueError(f"{path}:{lineno}: vertex id out of range in {line!r}")
    return members, None


def _add_vertices(h, n):
    """Grow ``h`` to at least ``n`` vertices; ids are dense, so only the count moves."""
    h.num_vertices = max(h.num_vertices, n)


def write_labels(labels, path):
    """Write one ``vertex<TAB>block`` line per vertex."""
    with open(path, "w") as f:
        for lo in range(0, len(labels), _LABEL_LINES):
            part = enumerate(labels[lo:lo + _LABEL_LINES], start=lo)
            f.write("".join([f"{v}\t{b}\n" for v, b in part]))


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
