"""Exception types shared across the package.

Everything raised on purpose derives from PerimetricError. An InputError is
the user's mistake, and the CLI exits 2 on it; any other exception is a bug
there and exits 3. The CLI's commands raise, and only its `main` reports.
"""


class PerimetricError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PerimetricError):
    """The user's mistake, such as a bad snapshot: the CLI exits 2 on it, where any other error exits 3."""


class UsageError(InputError):
    """A command line or argument the CLI cannot use, so exit 2."""


# -- hierarchy ---------------------------------------------------------------

class MissingRoot(InputError):
    """No tenant-root node in the input."""


class MultipleRoots(InputError):
    """More than one tenant-root node."""


class CycleDetected(InputError):
    """Parent chain loops back on itself."""


class UnknownParent(InputError):
    """A node names a parent id that does not exist."""


class IllegalParentKind(InputError):
    """A node's parent has a kind the node may not attach to."""


class MgDepthExceeded(InputError):
    """Management groups nested deeper than the 6-level limit."""


class UnknownNode(PerimetricError):
    """A node id is not present in the tree being queried."""


class DuplicateId(InputError):
    """The same identifier appears twice within one namespace."""


# -- metric / ranking --------------------------------------------------------

class UnbandableRadius(PerimetricError):
    """A nonzero blast radius outside the band census; signals a metric bug."""


# -- perimeter ---------------------------------------------------------------
# the tour oracles raise these; a PrincipalRisk reads every figure without one

class EmptyInput(PerimetricError):
    """A tour oracle got no grant, or a start index outside the grants."""


class TooLarge(PerimetricError):
    """Instance too big for the exhaustive tour oracle."""


# -- ingestion ---------------------------------------------------------------

class SnapshotSyntaxError(InputError):
    """Snapshot document is not well-formed."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownReference(InputError):
    """Snapshot refers to an id that is not declared anywhere."""


class UnsupportedSchemaVersion(InputError):
    """Snapshot schema version this build does not understand."""


class GroupCycle(InputError):
    """Group membership graph contains a cycle."""


class UnknownPrincipal(InputError):
    """Requested service principal is not declared in the snapshot."""


class InvalidConfig(InputError):
    """Synthetic tenant generator configuration is unusable."""
