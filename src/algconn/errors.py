"""Exception hierarchy shared across the package, plus its integer check."""

import operator


class AlgConnError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(AlgConnError, ValueError):
    """Invalid graph data or graph operation precondition."""


class EdgeExistsError(GraphError):
    """add_edge called with an edge that is already present."""


class EdgeMissingError(GraphError):
    """remove_edge called with an edge that is not present."""


class VertexSetError(GraphError):
    """Bad vertices: a label that is out of range or not an integer, a
    loop, a bad vertex count, a graph union whose added graph has more
    vertices, or flow endpoints that are not two distinct vertices."""


class Graph6Error(GraphError):
    """Malformed or unsupported graph6 text."""


class OrderLimitError(GraphError):
    """Graph order exceeds the fixed limit of this operation (canonical
    forms, Hamiltonian search and enumeration each have one)."""


class FamilySpecError(GraphError):
    """Family description violates a structural bound."""


class DisconnectedGraphError(GraphError):
    """Operation requires a connected graph."""


class ConvergenceError(AlgConnError, RuntimeError):
    """The LAPACK eigensolver did not converge; ``.matrix`` holds its input."""


class RewireDefectError(AlgConnError):
    """Internal consistency failure while building a rewire certificate.

    Raised when the off-cycle interval assignment fails to partition the
    off-cycle vertex set, the telescoping inequality fails on a pair of
    P1, the quadratic-form chain q(G') <= q(C) <= q(G) breaks, the rewired
    graph is not one spanning cycle, or a cycle sequence repeats a vertex.
    This indicates a defect, not bad input.
    """


class VerificationError(AlgConnError):
    """A verification sweep found a bound violation, an equality mismatch
    or a class count other than the known one."""


def as_index(value, error: type[AlgConnError], what: str) -> int:
    """value as a plain int by operator.index (ints, bools and numpy
    integers pass); anything else raises error, naming the value."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
