"""Shared exception types.

The caps of `config` fail loudly: a truncated Groebner or resolution
computation is a wrong answer, so exceeding a cap raises instead of
returning partial data.  A Groebner run limited to a degree on request
(`ModuleGB(..., through=d)`) is not such a truncation: it is exact
through d, answers only its syzygies of degree <= d, and raises at a
cap as the full run would for its pairs at or below d.
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
