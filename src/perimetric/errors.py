"""Exception types shared across the package.

Everything raised on purpose derives from PerimetricError so callers (and
the CLI) can distinguish input problems from genuine bugs.
"""


class PerimetricError(Exception):
    """Base class for all errors raised by this package."""


# -- hierarchy ---------------------------------------------------------------

class MissingRoot(PerimetricError):
    """No tenant-root node in the input."""


class MultipleRoots(PerimetricError):
    """More than one tenant-root node."""


class CycleDetected(PerimetricError):
    """Parent chain loops back on itself."""


class UnknownParent(PerimetricError):
    """A node names a parent id that does not exist."""


class IllegalParentKind(PerimetricError):
    """A node's parent has a kind the node may not attach to."""


class MgDepthExceeded(PerimetricError):
    """Management groups nested deeper than the 6-level limit."""


class UnknownNode(PerimetricError):
    """A node id is not present in the tree being queried."""


class DuplicateId(PerimetricError):
    """The same identifier appears twice within one namespace."""


# -- metric / ranking --------------------------------------------------------

class UnbandableRadius(PerimetricError):
    """A nonzero blast radius outside the band census; signals a metric bug."""


# -- perimeter ---------------------------------------------------------------

class EmptyInput(PerimetricError):
    """An operation that needs at least one grant received none."""


class TooLarge(PerimetricError):
    """Instance too big for the exhaustive tour oracle."""


class UndefinedMean(PerimetricError):
    """Mean pairwise distance requested for fewer than two grants."""


# -- ingestion ---------------------------------------------------------------

class SnapshotSyntaxError(PerimetricError):
    """Snapshot document is not well-formed."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownReference(PerimetricError):
    """Snapshot refers to an id that is not declared anywhere."""


class UnsupportedSchemaVersion(PerimetricError):
    """Snapshot schema version this build does not understand."""


class GroupCycle(PerimetricError):
    """Group membership graph contains a cycle."""


class UnknownPrincipal(PerimetricError):
    """Requested service principal is not declared in the snapshot."""


class InvalidConfig(PerimetricError):
    """Synthetic tenant generator configuration is unusable."""
