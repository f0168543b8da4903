"""Reference computations shared by the tests."""


def recomputed_degrees(h):
    """Fresh degree count from the member array, for validating ``h.degrees``."""
    deg = [0] * h.num_vertices
    for v in h.members:
        deg[v] += 1
    return deg
