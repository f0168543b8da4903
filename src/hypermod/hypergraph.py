"""Growable hypergraph stored as one flat member array."""

from array import array
from collections import Counter
from typing import NamedTuple

# Type code of a new store's member array (int32). It widens once, to
# int64, the first time an id does not fit.
_NARROW = "i"


def widened(a, value):
    """``a``, or a copy of it in the narrower of int32 and int64 that holds the
    non-negative ``value``, when ``a``'s signed type does not."""
    if value < 1 << (8 * a.itemsize - 1):
        return a
    return array("i" if value < 1 << 31 else "q", a)


class DegreeHistogram(NamedTuple):
    """Number of vertices per degree, degree-0 vertices included."""

    counts: dict
    total_vertices: int


class Hypergraph:
    """Hypergraph whose hyperedges are unordered multisets of vertex ids.

    The members of all hyperedges live in one flat array, ``members``, in
    insertion order, and ``sizes`` holds each hyperedge's member count:
    hyperedge i is the ``sizes[i]`` members that follow the first
    ``sizes[0] + ... + sizes[i - 1]``. A vertex appears in ``members`` once
    per unit of degree, so the array is also the urn a degree-proportional
    draw picks from. A vertex may appear several times in one edge and
    every appearance counts toward its degree and toward the edge
    cardinality. Vertices are never removed; ids are dense in
    ``0..num_vertices-1``.

    ``members`` starts as int32 (``array('i')``) and ``sizes`` as int8
    (``array('b')``), so a 2-member edge costs 9 bytes. Each widens, through
    ``widened``, when a value first does not fit: ``members`` to int64 when
    an id does (ids are below ``num_vertices``), ``sizes`` to int32 at the
    first edge of 128 members or more and to int64 only at 2**31.

    Nothing else is stored: ``degree_sum`` and ``num_edges`` are lengths,
    and ``degrees``, ``edges`` and the offsets of ``arrays()`` are rebuilt
    from the store on every read, so a loop reads them once, before the
    loop.
    """

    def __init__(self):
        self.num_vertices = 0
        self.members = array(_NARROW)
        self.sizes = array("b")

    @property
    def num_edges(self):
        return len(self.sizes)

    @property
    def degree_sum(self):
        return len(self.members)

    @property
    def degrees(self):
        """Degree of every vertex, as a list, counted without numpy."""
        counts = [0] * self.num_vertices
        for v in self.members:
            counts[v] += 1
        return counts

    def arrays(self):
        """``members`` as a numpy view, without a copy, in its array's own
        dtype (int32 until it widens, then int64), and the int64 offsets of
        the hyperedges: hyperedge i is ``members[offsets[i]:offsets[i + 1]]``.

        The offsets are a new array, the running sum of ``sizes`` from 0,
        built on each call. The store cannot grow while the view is alive,
        so callers drop it before the next ``add_hyperedge``.
        """
        import numpy as np
        offsets = np.zeros(len(self.sizes) + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(self.sizes, dtype=self.sizes.typecode), dtype=np.int64,
                  out=offsets[1:])
        return np.frombuffer(self.members, dtype=self.members.typecode), offsets

    @property
    def edges(self):
        """Hyperedges as sorted tuples, in insertion order."""
        return [tuple(sorted(e)) for e in self.edge_members()]

    def edge_members(self):
        """Iterate the hyperedges' members in insertion order, one array slice each."""
        members = self.members
        end = 0
        for size in self.sizes:
            start, end = end, end + size
            yield members[start:end]

    def add_vertex(self):
        """Append a new isolated vertex, returning its id."""
        self.num_vertices += 1
        return self.num_vertices - 1

    def add_hyperedge(self, members):
        """Add a hyperedge (a non-empty sequence of vertex ids, such as a
        list or an array of any integer type code)."""
        if not members or min(members) < 0 or max(members) >= self.num_vertices:
            if not members:
                raise ValueError("hyperedge must be non-empty")
            lo = min(members)
            raise ValueError(f"invalid vertex id {lo if lo < 0 else max(members)}")
        try:
            self.members.extend(members)
            self.sizes.append(len(members))
        except (OverflowError, TypeError):
            self._add_converted(members)

    def _add_converted(self, members):
        """``add_hyperedge``'s rare path: ``members`` is an array of another
        type code than the store's, an id overflows ``members``' type or the
        size overflows ``sizes``'. Undoes a partial extend, widens what needs
        it and adds the edge.

        A failed extend keeps the members before the first one that does not
        convert, and so does the same extend into an empty array of the
        store's type code: its length is the count to drop, found in the
        edge's own time, never by summing ``sizes``."""
        kept = array(self.members.typecode)
        try:
            kept.extend(members)
        except (OverflowError, TypeError):
            pass
        del self.members[len(self.members) - len(kept):]
        edge = array("q", members)  # a non-integer member raises here, the store as it was
        self.widen()
        self.members.extend(array(self.members.typecode, edge))
        self.sizes = widened(self.sizes, len(edge))
        self.sizes.append(len(edge))

    def widen(self):
        """Widen ``members`` to int64 if an id below ``num_vertices`` does not fit it."""
        self.members = widened(self.members, self.num_vertices - 1)

    def degree_histogram(self):
        counts = Counter(self.degrees)
        return DegreeHistogram(dict(counts), self.num_vertices)

