"""Computation budgets.

Budgets exist to fail loudly, not to approximate: exceeding one raises
BudgetError and never yields a partial answer.  The vanishing bound used
by Ext/Tor-searching invariants defaults to 2*(n+1) per ring and lives in
the calling layer; the caps here bound single kernel computations.
"""

from __future__ import annotations

from dataclasses import dataclass

# The value of an infinite invariant (the depth of the zero module, say);
# reports write it as the string "infinity".
INFINITY = float("inf")


@dataclass(frozen=True)
class Budgets:
    max_degree: int = 24
    max_rank: int = 512


DEFAULT_BUDGETS = Budgets()


def default_bound(ring) -> int:
    """Default Ext/Tor vanishing bound for a ring: 2*(n+1)."""
    return 2 * (ring.nvars + 1)
