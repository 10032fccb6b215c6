"""Shared exception types.

The distinction matters for the command line front end: bad input and
resource refusals exit with status 2, failed verification claims with
status 1, and internal inconsistencies, which always indicate a bug in
the engine itself, with status 3 (shared with operating-system errors
such as an unusable cache directory).
"""


class UsageError(Exception):
    """Malformed input: unknown type symbol, mismatched scalars, bad flags."""


class RefusalError(UsageError):
    """The request is well formed but exceeds a configured resource bound."""


class CacheInvalidError(Exception):
    """On-disk cache that does not match the requesting group or format
    version, or that cannot be read or decoded."""


class InternalInconsistencyError(Exception):
    """An invariant that should hold by theorem failed; the engine is buggy."""
