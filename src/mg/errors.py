"""Exception hierarchy shared across the library.

Two branches matter to the command line front end: InputError (malformed or
inconsistent input, exit code 2) and PreconditionError (a mathematically
invalid request, exit code 3).
"""


class Error(Exception):
    """Base class for all library errors."""


class InputError(Error):
    """Malformed or inconsistent input data."""


class PreconditionError(Error):
    """A mathematical precondition of the requested computation fails."""


class Disconnected(InputError):
    pass


class NonpositiveLength(InputError):
    pass


class DanglingEndpoint(InputError):
    pass


class PointOffGraph(InputError):
    pass


class EdgeNotFound(InputError):
    pass


class NodeNotFound(InputError):
    pass


class UnknownVertex(InputError):
    """A name in a graph file does not resolve to a vertex, edge or point."""


class UnknownComponent(InputError):
    pass


class BadRational(InputError):
    pass


class BadDelta(InputError, ValueError):
    """A delta vector with a negative entry, or with nodes on a smooth
    fibration.  Also a ValueError, for callers that catch that."""


class BadGridSize(InputError, ValueError):
    """An oracle grid size h that is not positive, or so small that the grid
    would exceed `mg.oracle.MAX_GRID_NODES`.  Also a ValueError, for callers
    that catch that."""


class MissingExtra(InputError):
    """An optional dependency that is not installed; the message names the
    extra of the package that installs it."""


class UnreadableFile(InputError):
    """An input file that cannot be read, or is not UTF-8 text."""


class GenusTooLarge(InputError):
    """A genus above `mg.bounds.MAX_GENUS`."""


class SizeMismatch(InputError):
    pass


class RegimeUnspecified(InputError):
    pass


class ParseError(InputError):
    """Malformed line in an input file; carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DegreeMinusTwo(PreconditionError):
    """The divisor has degree -2, for which no admissible pair exists."""


class DegenerateDivisor(PreconditionError):
    pass


class NonpositiveCoefficient(PreconditionError):
    pass


class GenusTooSmall(PreconditionError):
    pass


class NotAChain(PreconditionError):
    pass


class ConstancyViolation(PreconditionError):
    """g(D,y) + g(y,y) failed to be constant; a measure-construction bug."""


class NoBoundWarning(UserWarning):
    """Admissible self-intersection was nonpositive, so no positive radius."""
