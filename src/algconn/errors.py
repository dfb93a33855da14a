"""Exception hierarchy shared across the package."""


class AlgConnError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(AlgConnError, ValueError):
    """Invalid graph data or graph operation precondition."""


class EdgeExistsError(GraphError):
    """add_edge called with an edge that is already present."""


class EdgeMissingError(GraphError):
    """remove_edge called with an edge that is not present."""


class VertexSetError(GraphError):
    """Graph union called with incompatible vertex sets."""


class Graph6Error(GraphError):
    """Malformed or unsupported graph6 text."""


class OrderLimitError(GraphError):
    """Graph order exceeds the configured limit for this operation."""


class FamilySpecError(GraphError):
    """Family description violates a structural bound."""


class DisconnectedGraphError(GraphError):
    """Operation requires a connected graph."""


class ConvergenceError(AlgConnError, RuntimeError):
    """The LAPACK eigensolver did not converge; ``.matrix`` holds its input."""


class RewireDefectError(AlgConnError):
    """Internal consistency failure while building a rewire certificate.

    Raised when the off-cycle interval assignment fails to partition the
    off-cycle vertex set. This indicates a defect, not bad input.
    """


class VerificationError(AlgConnError):
    """A verification sweep found a bound violation or equality mismatch."""
