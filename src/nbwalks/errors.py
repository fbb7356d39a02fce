"""Exception hierarchy shared by all nbwalks modules."""


class NBWalksError(Exception):
    """Base class for every error raised by this package."""


class GraphConstructionError(NBWalksError):
    """Base class for invalid graph input."""


class LoopEdgeError(GraphConstructionError):
    """An edge with identical source and destination."""


class DuplicateEdgeError(GraphConstructionError):
    """The same (source, destination) pair listed twice."""


class NonPositiveWeightError(GraphConstructionError):
    """An edge weight that is zero or negative."""


class GraphParseError(GraphConstructionError):
    """Malformed edge-list text; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NotUndirectedError(NBWalksError):
    """Operation requires a symmetric adjacency matrix."""


class WeightedUnsupportedError(NBWalksError):
    """Operation is defined for unit-weight graphs only."""


class TauOutOfRangeError(NBWalksError):
    """Downweighting parameter tau outside its admissible interval."""


class OmegaOutOfRangeError(NBWalksError):
    """Backtrack penalty omega outside [0, 1]."""


class EnumerationBudgetExceededError(NBWalksError):
    """Brute-force walk enumeration aborted after too many edge extensions."""


class FloatRangeError(NBWalksError):
    """A nonzero value that overflows the float range or rounds to 0.0."""


class IterationBudgetExceededError(NBWalksError):
    """Certified eigenvalue bracket did not tighten within the iteration cap."""


class PoleAtTError(NBWalksError):
    """Generating function evaluated at a pole (singular linear system)."""


class AboveRadiusError(NBWalksError):
    """Centrality requested at a parameter not certifiably below the radius."""


class NegativeEntryError(NBWalksError):
    """Matrix argument must be entrywise nonnegative."""


class NotSquareError(NBWalksError):
    """Determinant-style operation on a rectangular matrix."""


class ZeroPolynomialError(NBWalksError):
    """Root isolation called on the identically zero polynomial."""


class SingularPolyMatrixError(NBWalksError):
    """Polynomial matrix with identically zero determinant."""


class IrrationalLambdaUnsupportedError(NBWalksError):
    """Multiplicity report requested at a non-rational point."""
