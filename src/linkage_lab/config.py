"""Computation caps.

Two constants bound single kernel computations: `MAX_DEGREE` caps the
pair degree of every Groebner run over a module (the ring's own basis
and the final basis of an annihilator run uncapped), and `MAX_RANK`
caps the rank of every free module of a minimal resolution.  Caps exist
to fail loudly, not to approximate: exceeding one raises BudgetError,
which names the cap, and never yields a partial answer.  The library
reads them at call time (`config.MAX_RANK`), and no memo key names
them, so a caller that changes them, a test say, empties the memo
first; the resolution store names them in its keys, so a store written
under other caps is never read.  The vanishing bound used by
Ext/Tor-searching invariants is an int passed by the caller:
`default_bound`, 2*(n+1) for a ring in n variables, when a run gives
none.  A theorem check resolves it once, for M's ring, in
`theorems._run`; the invariants resolve a bound left at None the same
way for the ring of their first module.
"""

from __future__ import annotations

# The value of an infinite invariant (the depth of the zero module, say);
# reports write it as the string "infinity".
INFINITY = float("inf")

MAX_DEGREE = 24
MAX_RANK = 512


def default_bound(ring) -> int:
    """Default Ext/Tor vanishing bound for a ring: 2*(n+1)."""
    return 2 * (ring.nvars + 1)
