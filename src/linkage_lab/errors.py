"""Shared exception types.

The caps of `config` fail loudly: a truncated Groebner or resolution
computation is a wrong answer, so exceeding a cap raises instead of
returning partial data.
"""

from __future__ import annotations


class LinkageLabError(Exception):
    pass


class BudgetError(LinkageLabError):
    """An internal degree / rank / search cap was exceeded."""

    def __init__(self, what: str, limit):
        self.what = what
        self.limit = limit
        super().__init__(f"budget exceeded: {what} (limit {limit})")


class HomogeneityError(LinkageLabError):
    """A polynomial or matrix entry is not homogeneous of the right degree."""


class InapplicableError(LinkageLabError):
    """An operation's mathematical precondition failed; names the precondition."""


class ConsistencyError(LinkageLabError):
    """Two independent computations of the same fact disagree: a bug certificate."""
