"""Printers that faster ones replaced, kept as test oracles.

The two polynomial printers that the text-table join of
``IntPolynomial.__str__`` and ``qpoly._format_terms`` replaced:
``IntPolynomial.__str__`` and ``BivariatePolynomial.__str__`` each had
their own loop over the terms, with the same three rules: zero coefficients
are skipped, a coefficient of +-1 on a nonconstant monomial prints only its
sign, and each term after the first carries its sign.

The ``verify`` report as it was rendered from one frozen dataclass row per
group element, formatted row by row; ``verify_csp_roots`` now returns one
``sieve.RootRow`` per divisor of the order, and the text and JSON read each
j's row through ``sieve.element_orders``.

The JSON reports as ``json.dumps(..., indent=2)`` rendered them whole, which
encodes in Python; ``cli`` now joins text pieces from the C encoder.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from csplab import cli, sieve
from csplab.errors import NonIntegerEvaluation
from csplab.qpoly import eval_at_root


def int_polynomial_str(coeffs: tuple[int, ...]) -> str:
    """The printer of ``IntPolynomial``, on its coefficient tuple."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            var = "q" if i == 1 else f"q^{i}"
            term = ("-" if c < 0 else "") + mag + var
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


def bivariate_str(terms: dict[tuple[int, int], int]) -> str:
    """The printer of ``BivariatePolynomial``, on its nonzero terms."""
    if not terms:
        return "0"

    def fmt(pair: tuple[int, int], c: int) -> str:
        i, j = pair
        bits = [] if abs(c) == 1 and (i or j) else [str(abs(c))]
        if i:
            bits.append("q" if i == 1 else f"q^{i}")
        if j:
            bits.append("t" if j == 1 else f"t^{j}")
        return ("-" if c < 0 else "") + "".join(bits)

    parts = []
    for pair in sorted(terms):
        term = fmt(pair, terms[pair])
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


@dataclass(frozen=True)
class RootRow:
    j: int
    elem_order: int
    fixed: int
    value: int | None  # None when the evaluation is not a rational integer
    match: bool


def root_rows(inst: sieve.CSPInstance) -> tuple[RootRow, ...]:
    """One row per group element g^j: its order d, the points it fixes, and
    f at a primitive d-th root of unity, evaluated once per d."""
    order = inst.action.order
    values: dict[int, int | None] = {}
    rows = []
    for j in range(order):
        d = order // math.gcd(order, j)
        if d not in values:
            try:
                values[d] = eval_at_root(inst.polynomial, d)
            except NonIntegerEvaluation:
                values[d] = None
        fixed = sieve.fixed_count(inst.action, j)
        rows.append(RootRow(j, d, fixed, values[d], values[d] == fixed))
    return tuple(rows)


def verdict(inst: sieve.CSPInstance, checker: str) -> str:
    """"pass" when every row the checker reads matches, else "fail"."""
    a, census = sieve.verify_csp_orbits(inst)
    roots, orbits = all(r.match for r in root_rows(inst)), a == census
    ok = {"roots": roots, "orbits": orbits, "both": roots and orbits}[checker]
    return "pass" if ok else "fail"


def verify_text(inst: sieve.CSPInstance, checker: str) -> str:
    """The text report of ``csp-lab verify``, formatted one row at a time."""
    rows = root_rows(inst)
    a, census = sieve.verify_csp_orbits(inst)
    lines = [cli._title(inst) + f"  f = {inst.polynomial}", "  j  ord  fixed  eval  match"]
    for r in rows:
        value = "-" if r.value is None else r.value
        lines.append(
            f"{r.j:>3} {r.elem_order:>4} {r.fixed:>6} {value!s:>5}  "
            + ("yes" if r.match else "NO")
        )
    sizes = inst.action.orbit_lengths
    stabs = [inst.action.order // length for length in sizes]
    lines.append(f"orbits: {len(sizes)} (sizes {sizes}, stabilizers {stabs})")
    lines.append(f"a: {list(a)}  census: {list(census)}")
    lines.append(f"verdict: {verdict(inst, checker).upper()}")
    return "\n".join(lines)


def verify_json(inst: sieve.CSPInstance, checker: str) -> str:
    """The JSON report of ``csp-lab verify --json``, one dict per row."""
    rows = root_rows(inst)
    a, _ = sieve.verify_csp_orbits(inst)
    return json.dumps({
        **inst.header(),
        "rows": [
            {"j": r.j, "elem_order": r.elem_order, "fixed": r.fixed, "eval": r.value,
             "match": r.match}
            for r in rows
        ],
        "orbits": [
            {"size": length, "stab": inst.action.order // length}
            for length in inst.action.orbit_lengths
        ],
        "a": list(a),
        "verdict": verdict(inst, checker),
    }, indent=2)


def orbits_json(inst: sieve.CSPInstance) -> str:
    """The JSON of ``csp-lab orbits --json``, one dict per orbit."""
    a, _ = sieve.verify_csp_orbits(inst)
    labels = inst.action.labels
    return json.dumps({
        **inst.header(),
        "orbits": [
            {
                "size": len(o.members),
                "stab": o.stabilizer_order,
                "members": list(map(labels.__getitem__, o.members)),
            }
            for o in inst.action.orbits
        ],
        "a": list(a),
    }, indent=2)
