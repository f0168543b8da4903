"""Growable hypergraph stored as one flat member array."""

from array import array
from collections import Counter
from dataclasses import dataclass

# Type code of a new store's arrays (int32). Each array widens once, to
# int64, the first time one of its values does not fit.
_NARROW = "i"


def widened(a, value):
    """``a``, or an int64 copy of it when the non-negative ``value`` does not
    fit its signed type."""
    return a if value < 1 << (8 * a.itemsize - 1) else array("q", a)


@dataclass
class DegreeHistogram:
    """Number of vertices per degree, degree-0 vertices included."""

    counts: dict
    total_vertices: int


class Hypergraph:
    """Hypergraph whose hyperedges are unordered multisets of vertex ids.

    The members of all hyperedges live in one flat array, ``members``, in
    insertion order; hyperedge i is ``members[offsets[i]:offsets[i + 1]]``.
    A vertex appears there once per unit of degree, so the array is also
    the urn a degree-proportional draw picks from. A vertex may appear
    several times in one edge and every appearance counts toward its
    degree and toward the edge cardinality. Vertices are never removed;
    ids are dense in ``0..num_vertices-1``.

    Both arrays start as int32 (``array('i')``). Each widens once, to
    int64 (``array('q')``), when a value first does not fit: ``members``
    when an id does (ids are below ``num_vertices``), ``offsets`` when the
    membership count does.

    Nothing else is stored: ``degree_sum`` and ``num_edges`` are lengths,
    and ``degrees`` and ``edges`` are views rebuilt from the store on every
    read, so a loop reads them once, before the loop.
    """

    def __init__(self):
        self.num_vertices = 0
        self.members = array(_NARROW)
        self.offsets = array(_NARROW, [0])

    @property
    def num_edges(self):
        return len(self.offsets) - 1

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
        """``members`` and ``offsets`` as numpy views, without a copy, each in
        its array's own dtype (int32 until it widens, then int64).

        The store cannot grow while a view is alive, so callers drop them
        before the next ``add_hyperedge``. Arithmetic on a scalar read from
        a view stays in its dtype, so an offset that can pass the int32
        range is summed as a Python int.
        """
        import numpy as np
        return (np.frombuffer(self.members, dtype=self.members.typecode),
                np.frombuffer(self.offsets, dtype=self.offsets.typecode))

    @property
    def edges(self):
        """Hyperedges as sorted tuples, in insertion order."""
        return [tuple(sorted(e)) for e in self.edge_members()]

    def edge_members(self):
        """Iterate the hyperedges' members in insertion order, one array slice each."""
        members, offsets = self.members, self.offsets
        for i in range(len(offsets) - 1):
            yield members[offsets[i]:offsets[i + 1]]

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
            self.offsets.append(len(self.members))
        except (OverflowError, TypeError):
            self._add_converted(members)

    def _add_converted(self, members):
        """``add_hyperedge``'s rare path: ``members`` is an array of another
        type code than the store's, or a value overflows the store's type.
        Undoes a partial extend, widens what needs it and adds the edge."""
        end = self.offsets[-1]
        del self.members[end:]
        edge = array("q", members)  # a non-integer member raises here, the store as it was
        self.widen(len(edge))
        self.members.extend(array(self.members.typecode, edge))
        self.offsets.append(len(self.members))

    def widen(self, added=0):
        """Widen ``members`` to int64 if an id below ``num_vertices`` does not
        fit it, and ``offsets`` if ``added`` more memberships would not."""
        self.members = widened(self.members, self.num_vertices - 1)
        self.offsets = widened(self.offsets, len(self.members) + added)

    def degree_histogram(self):
        counts = Counter(self.degrees)
        return DegreeHistogram(dict(counts), self.num_vertices)

