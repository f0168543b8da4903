"""Growable hypergraph stored as one flat member array."""

from array import array
from collections import Counter
from dataclasses import dataclass


@dataclass
class DegreeHistogram:
    """Number of vertices per degree, degree-0 vertices included."""

    counts: dict
    total_vertices: int


class Hypergraph:
    """Hypergraph whose hyperedges are unordered multisets of vertex ids.

    The members of all hyperedges live in one ``array('q')``, ``members``,
    in insertion order; hyperedge i is ``members[offsets[i]:offsets[i + 1]]``.
    A vertex appears there once per unit of degree, so the array is also
    the urn a degree-proportional draw picks from. A vertex may appear
    several times in one edge and every appearance counts toward its
    degree and toward the edge cardinality. Vertices are never removed;
    ids are dense in ``0..num_vertices-1``.

    Nothing else is stored: ``degree_sum`` and ``num_edges`` are lengths,
    and ``degrees`` and ``edges`` are views rebuilt from the store on every
    read, so a loop reads them once, before the loop.
    """

    def __init__(self):
        self.num_vertices = 0
        self.members = array("q")
        self.offsets = array("q", [0])

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
        """``members`` and ``offsets`` as int64 numpy views, without a copy.

        The store cannot grow while a view is alive, so callers drop them
        before the next ``add_hyperedge``.
        """
        import numpy as np
        return (np.frombuffer(self.members, dtype=np.int64),
                np.frombuffer(self.offsets, dtype=np.int64))

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
        """Add a hyperedge (a non-empty sequence of vertex ids)."""
        if not members or min(members) < 0 or max(members) >= self.num_vertices:
            if not members:
                raise ValueError("hyperedge must be non-empty")
            lo = min(members)
            raise ValueError(f"invalid vertex id {lo if lo < 0 else max(members)}")
        self.members.extend(members)
        self.offsets.append(len(self.members))

    def degree_histogram(self):
        counts = Counter(self.degrees)
        return DegreeHistogram(dict(counts), self.num_vertices)

