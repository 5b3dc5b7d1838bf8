"""Exception types shared across the package."""


class NilcommError(Exception):
    """Base class for all package errors."""


class DiagramSyntaxError(NilcommError):
    """Malformed diagram text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class AlternationError(DiagramSyntaxError):
    """Row text does not alternate between the two letters."""


class SizeMismatch(NilcommError):
    """Diagram cell count disagrees with the ambient dimension."""


class BoundExceeded(NilcommError):
    """Requested enumeration is larger than the configured bound."""


class ShapeMismatch(NilcommError):
    """Diagrams live in different posets (size, signature or representation)."""


class NotComparable(NilcommError):
    """Reduction queries need strictly comparable diagrams."""


class WrongType(NilcommError):
    """Operation is not defined for this symmetric pair type."""


class UnrealizableDiagram(NilcommError):
    """No sign assignment realizes the diagram as matrices; the diagram is invalid."""


class NoAdjacentLengths(NilcommError):
    """Witness construction needs two rows with lengths differing by one."""


class NotNilpotent(NilcommError):
    """Jordan type is only defined for nilpotent matrices."""


class UnknownCase(NilcommError):
    """Unrecognized exceptional case label."""


class OracleCheckFailed(NilcommError):
    """A matrix identity that the oracle's construction guarantees does not
    hold; the message names the identity."""


class ClaimViolated(NilcommError):
    """A verified-rank-bound claim failed; the message names the pair and orbit."""
