"""Correctness checks that do not trust the code under test.

* Report summary: every op of a JSON report (a theorem check, a print or
  assert, or an error entry) reduced to what the ledger compares.
* Verdict ledger: the verdicts the seed commit gave.  A weaker verdict, a
  changed exact outcome or any Refuted check fails; upgrades are counted.
* Resolution oracles: consecutive maps compose to zero modulo I and no
  entry is a unit, with polynomial arithmetic written here; the Koszul
  ranks of the residue field come from Froberg's formula P(t) = 1/H(-t).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

BUDGET_NOTE = "Inapplicable-by-budget"
EXACT_LABELS = ("Exact", "Failed")
# How much a verdict says, for checks whose seed verdict was not exact.
# An exact result is an upgrade only as Verified, or where the seed ran
# out of budget; an exact Inapplicable after a non-budget Verified or
# PartiallyVerified means a hypothesis newly fails, and is a weakening.
RANK = {"Inapplicable": 1, "PartiallyVerified": 2, "Verified": 3}


# -- report summary -----------------------------------------------------------


def _check_entry(rep: dict) -> dict:
    labels = [h["label"] for h in rep["hypothesis_status"]]
    budget = BUDGET_NOTE in rep["notes"]
    return {
        "verdict": rep["verdict"],
        "failed": sorted(h["name"] for h in rep["hypothesis_status"]
                         if h["label"] == "Failed"),
        "budget": budget,
        "exact": (rep["verdict"] in ("Verified", "Inapplicable")
                  and not budget
                  and all(label in EXACT_LABELS for label in labels)),
    }


def summarize(report: dict) -> dict:
    """{"checks": {id | instance: entry}, "values": {name: value}, ...}."""
    checks, values, errors, duplicates = {}, {}, [], []
    reports = []
    for r in report["results"]:
        if r["kind"] == "suite":
            reports.extend(r["report"]["reports"])
        elif r["kind"] == "check":
            reports.append(r["report"])
        elif r["kind"] in ("print", "assert"):
            values[r["name"]] = r["value"]
        elif r["kind"] == "error":
            errors.append(f"{r['name']}: {r['value']}")
    for rep in reports:
        key = f"{rep['theorem_id']} | {rep['instance']}"
        if key in checks:
            duplicates.append(key)
        checks[key] = _check_entry(rep)
    return {"checks": checks, "values": values, "errors": errors,
            "duplicates": duplicates}


def op_counts(summary: dict) -> tuple:
    """(ops attempted, ops ended by a budget or an error, ops exact)."""
    checks = summary["checks"].values()
    n_errors = len(summary["errors"])
    ops = len(summary["checks"]) + len(summary["values"]) + n_errors
    failed = sum(c["budget"] for c in checks) + n_errors
    exact = sum(c["exact"] for c in checks) + len(summary["values"])
    return ops, failed, exact


def expected_exit(summary: dict) -> int:
    """The CLI exit code a report implies: 3 budget, 1 failure, else 0."""
    errors = summary["errors"]
    if (any(c["budget"] for c in summary["checks"].values())
            or any("budget exhausted" in e for e in errors)):
        return 3
    if errors or any(c["verdict"] == "Refuted"
                     for c in summary["checks"].values()):
        return 1
    return 0


# -- verdict ledger -------------------------------------------------------------


def compare_ledger(ledger: dict, summary: dict) -> tuple:
    """(problems, upgrades) of a pass against the seed ledger."""
    problems = [f"{key}: reported twice" for key in summary["duplicates"]]
    upgrades = []
    got = summary["checks"]
    for key, want in ledger["checks"].items():
        have = got.get(key)
        if have is None:
            problems.append(f"{key}: missing")
        elif have["verdict"] == "Refuted":
            problems.append(f"{key}: Refuted")
        elif want["failed"]:
            if have["failed"] != want["failed"]:
                problems.append(f"{key}: exactly failed hypotheses "
                                f"{want['failed']} became {have['failed']}")
        elif want["exact"]:
            if have["verdict"] != want["verdict"] or not have["exact"]:
                problems.append(f"{key}: exact {want['verdict']} became "
                                f"{have['verdict']} (exact={have['exact']})")
        elif have["exact"] and (have["verdict"] == "Verified"
                                or want["budget"]):
            upgrades.append(key)
        elif RANK[have["verdict"]] < RANK[want["verdict"]] or (
                have["budget"] and not want["budget"]):
            problems.append(f"{key}: {want['verdict']} weakened to "
                            f"{have['verdict']} (failed hypotheses "
                            f"{have['failed']})")
        elif (RANK[have["verdict"]] > RANK[want["verdict"]]
              or want["budget"] and not have["budget"]):
            upgrades.append(key)
    for key in sorted(got.keys() - ledger["checks"].keys()):
        problems.append(f"{key}: not in the ledger")
    for name, value in ledger["values"].items():
        if summary["values"].get(name) != value:
            problems.append(f"{name} = {summary['values'].get(name)}, "
                            f"the ledger has {value}")
    for err in summary["errors"]:
        if err not in ledger["errors"]:
            problems.append(f"new error entry: {err}")
    return problems, upgrades


# -- resolution oracles ----------------------------------------------------------


def _field_ops(field_name: str):
    if field_name == "QQ":
        return lambda a, b: a + b, lambda a, b: a * b, Fraction
    p = int(field_name[3:-1])
    return (lambda a, b: (a + b) % p), (lambda a, b: (a * b) % p), int


def _relations(ring) -> list:
    idx = {v: i for i, v in enumerate(ring.variables)}
    out = []
    for rel in ring.relations:
        e = [0] * len(ring.variables)
        for v in rel:
            e[idx[v]] += 1
        out.append(tuple(e))
    return out


def _in_ideal(mono, relations) -> bool:
    return any(all(a >= b for a, b in zip(mono, g)) for g in relations)


def _terms(poly, coeff) -> dict:
    return {tuple(m): coeff(c) for m, c in poly.terms.items()}


def check_resolution(maps, ring) -> list:
    """Problems of one resolution given as lists of {row: Poly} columns.

    I is a monomial ideal, so reducing modulo I drops the terms that a
    generator divides.  Resolutions over the ambient polynomial ring
    compose to zero exactly, hence also modulo I.
    """
    add, mul, coeff = _field_ops(ring.field)
    rels = _relations(ring)
    problems = []
    for i, cols in enumerate(maps):
        for j, col in enumerate(cols):
            for row, p in col.items():
                if any(sum(m) == 0 for m in p.terms):
                    problems.append(f"d_{i + 1}[{row},{j}] = {p} is a unit")
    for i in range(len(maps) - 1):
        lower = [{r: _terms(p, coeff) for r, p in col.items()}
                 for col in maps[i]]
        for j, col in enumerate(maps[i + 1]):
            acc: dict = {}
            for k, p in col.items():
                left = _terms(p, coeff)
                for r, right in lower[k].items():
                    out = acc.setdefault(r, {})
                    for m1, c1 in left.items():
                        for m2, c2 in right.items():
                            m = tuple(a + b for a, b in zip(m1, m2))
                            if not _in_ideal(m, rels):
                                out[m] = add(out.get(m, 0), mul(c1, c2))
            if any(c != 0 for terms in acc.values() for c in terms.values()):
                problems.append(f"d_{i + 1} * d_{i + 2} column {j} is not "
                                f"zero modulo I")
                break
    return problems


def froberg_ranks(ring, length: int) -> list:
    """Betti numbers of k over S/I for a quadratic monomial I: 1/H(-t).

    H counts the monomials of each degree outside I; Froberg showed the
    Poincare series of k over such a ring is 1/H(-t), all in degree i.
    """
    rels = _relations(ring)
    n = len(ring.variables)
    h = []
    for d in range(length + 1):
        count = 0
        for combo in itertools.combinations_with_replacement(range(n), d):
            e = [0] * n
            for v in combo:
                e[v] += 1
            count += not _in_ideal(tuple(e), rels)
        h.append(count)
    q = [(-1) ** d * h[d] for d in range(length + 1)]
    p = [1]
    for k in range(1, length + 1):
        p.append(-sum(q[j] * p[k - j] for j in range(1, k + 1)))
    return p
