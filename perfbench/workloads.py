"""The benchmark's workloads: fixed DSL scripts over three rings.

Each workload is the text a user would hand to `linkage-lab run --json`.
Ring relations are kept here as variable-name products as well as in the
script, so the oracles can reduce modulo I without the code under test.

The seed only permutes the order of a workload's independent work
statements (ring and module declarations stay first).  Reports are keyed
by theorem id and instance, so the verdict ledger does not depend on the
order, and the same seed always gives the same script.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Ring:
    name: str
    field: str
    variables: tuple
    relations: tuple  # squarefree monomials, as tuples of variable names

    def declarations(self) -> list:
        base = f"{self.name}0"
        rels = ", ".join("*".join(r) for r in self.relations)
        return [
            f"ring {base} = poly({self.field}, {', '.join(self.variables)});",
            f"ring {self.name} = quotient({base}, [{rels}]);",
        ]


H = Ring("H", "QQ", ("x", "y"), (("x", "y"),))
T = Ring("T", "QQ", ("x", "y", "z"), (("y", "z"), ("x", "z"), ("x", "y")))
N = Ring("N", "GF(32003)", ("x", "y", "z", "w"),
         (("x", "z"), ("x", "w"), ("y", "z"), ("y", "w")))


@dataclass(frozen=True)
class Workload:
    name: str
    rings: tuple
    modules: tuple  # module declarations, after the rings
    body: tuple  # independent work statements; the seed orders them
    warm_reruns: int  # reruns per pass in the same interpreter, memo cleared
    store: bool  # passes fill a new disk store and the reruns read it

    def script(self, seed: int) -> str:
        body = list(self.body)
        random.Random(seed).shuffle(body)
        lines = [d for r in self.rings for d in r.declarations()]
        return "\n".join(lines + list(self.modules) + body) + "\n"

    def declarations(self) -> str:
        """The script's rings and modules alone: what set-up builds."""
        lines = [d for r in self.rings for d in r.declarations()]
        return "\n".join(lines + list(self.modules)) + "\n"


# corpus(T, 2) holds free[0] and the residue field: the residue field's
# G3_AB_FORMULA check runs out of resolution rank (> 512) after scanning
# Ext^i(k, omega) and is the hotspot of the full criterion-10 suite.
# The full corpus(T, 8) takes about 90 s a pass, too long to repeat.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="suite-qq",
            rings=(H, T),
            modules=(),
            body=("suite [] on corpus(H, 8);", "suite [] on corpus(T, 2);"),
            warm_reruns=1,
            store=False,
        ),
        Workload(
            name="resolve-qq",
            rings=(T,),
            modules=(
                "module K = coker(T, twists=[0], matrix=[[x, y, z]]);",
                "module W = coker(T, twists=[0, 0], "
                "matrix=[[x, y, 0], [0, y - z, x]]);",
            ),
            body=("print betti(K, 8);", "print betti(W, 8);"),
            warm_reruns=30,
            store=True,
        ),
        Workload(
            name="suite-noncm-gf",
            rings=(N,),
            modules=(),
            body=("suite [] on corpus(N, 8);",),
            warm_reruns=1,
            store=False,
        ),
    )
}

# The Koszul oracle: K is the residue field of T, resolved to this length.
KOSZUL = {"resolve-qq": ("K", T, 8)}
