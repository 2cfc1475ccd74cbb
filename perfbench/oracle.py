"""Independent checks of ``csp-lab`` output.

Every timed request's output is checked against facts the benchmark
computes itself (see ``workloads``): the closed-form |X| and group order,
the expected exit code, phi(d) and Phi_d(1) for cyclotomic polynomials,
Burnside's count, and the orbit census recomputed from the printed
stabilizer orders.  On verify runs the roots verdict (every row matches)
and the orbits verdict (folded coefficients equal the census) must agree
with each other and with the exit code.
"""
from __future__ import annotations

import json
import math
import re

from workloads import Request


class Mismatch(Exception):
    """The output disagrees with a fact the benchmark computed."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def check(req: Request, code: object, out: str) -> str | None:
    """None if the output is right, else a one-line description."""
    if code != req.exit_code:
        return f"exit code {code}, expected {req.exit_code}"
    try:
        if req.command == "poly":
            _check_poly(req, out)
        elif req.command == "verify":
            _check_report(req, _parse_verify_json(out) if req.json else _parse_verify_text(out))
        else:
            _check_orbits(req, _parse_orbits_json(out) if req.json else _parse_orbits_text(out))
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def census(stabs: list[int], order: int) -> list[int]:
    """Number of orbits whose stabilizer order divides i, for each i."""
    counts: dict[int, int] = {}
    for s in stabs:
        counts[s] = counts.get(s, 0) + 1
    return [sum(c for s, c in counts.items() if i % s == 0) for i in range(order)]


# ---------------------------------------------------------------------------
# poly


def _check_poly(req: Request, out: str) -> None:
    line = out.splitlines()[1]
    m = re.fullmatch(r"coeffs: (\[.*\])  value at q=1: (-?\d+)", line)
    _expect(m is not None, "no coefficient line")
    coeffs = json.loads(m.group(1))
    _expect(len(coeffs) - 1 == req.degree, f"degree {len(coeffs) - 1}, expected {req.degree}")
    _expect(coeffs[-1] == 1, "not monic")
    value = int(m.group(2))
    _expect(value == sum(coeffs) == req.value_at_1,
            f"value at 1 is {value}, expected {req.value_at_1}")


# ---------------------------------------------------------------------------
# verify


def _parse_verify_text(out: str) -> dict:
    lines = out.splitlines()
    m = re.match(r"size (\d+)  order (\d+)  f = ", lines[1])
    size, order = int(m.group(1)), int(m.group(2))
    rows = []
    for line in lines[3 : 3 + order]:
        j, elem_order, fixed, value, match = line.split()
        rows.append({
            "j": int(j), "elem_order": int(elem_order), "fixed": int(fixed),
            "eval": None if value == "-" else int(value), "match": match == "yes",
        })
    m = re.fullmatch(r"orbits: (\d+) \(sizes (\[.*\]), stabilizers (\[.*\])\)", lines[3 + order])
    sizes, stabs = json.loads(m.group(2)), json.loads(m.group(3))
    _expect(int(m.group(1)) == len(sizes) == len(stabs), "orbit count disagrees with its lists")
    m = re.fullmatch(r"a: (\[.*\])  census: (\[.*\])", lines[4 + order])
    printed_census = json.loads(m.group(2))
    _expect(printed_census == census(stabs, order), "printed census is wrong")
    verdict = lines[5 + order].removeprefix("verdict: ").lower()
    return {
        "size": size, "order": order, "rows": rows,
        "orbits": [{"size": s, "stab": t} for s, t in zip(sizes, stabs)],
        "a": json.loads(m.group(1)), "verdict": verdict,
    }


def _parse_verify_json(out: str) -> dict:
    report = json.loads(out)
    _expect(set(report) == {"family", "params", "size", "order", "rows", "orbits", "a", "verdict"},
            "JSON report keys changed")
    return report


def _check_report(req: Request, rep: dict) -> None:
    size, order, rows = rep["size"], rep["order"], rep["rows"]
    _expect(size == req.size, f"size {size}, expected {req.size}")
    _expect(order == req.order, f"order {order}, expected {req.order}")
    _expect([r["j"] for r in rows] == list(range(order)), "rows are not j = 0..order-1")
    for r in rows:
        _expect(r["elem_order"] == order // math.gcd(order, r["j"]), f"wrong element order at j={r['j']}")
        _expect(r["match"] == (r["eval"] is not None and r["eval"] == r["fixed"]),
                f"match flag wrong at j={r['j']}")
    _expect(rows[0]["fixed"] == size, "identity does not fix every point")
    orbits = rep["orbits"]
    _expect(sum(o["size"] for o in orbits) == size, "orbit sizes do not sum to |X|")
    _expect(all(o["size"] * o["stab"] == order for o in orbits), "orbit size times stabilizer != order")
    _expect(sum(r["fixed"] for r in rows) == order * len(orbits), "Burnside count fails")
    roots_ok = all(r["match"] for r in rows)
    orbits_ok = rep["a"] == census([o["stab"] for o in orbits], order)
    _expect(roots_ok == orbits_ok, f"checkers disagree: roots {roots_ok}, orbits {orbits_ok}")
    honest = req.exit_code == 0
    _expect(roots_ok == honest, "verdict is pass on a corrupted polynomial" if roots_ok
            else "verdict is fail on an honest instance")
    _expect(rep["verdict"] == ("pass" if honest else "fail"), f"verdict {rep['verdict']}")


# ---------------------------------------------------------------------------
# orbits


def _parse_orbits_text(out: str) -> dict:
    lines = out.splitlines()
    m = re.fullmatch(r"size (\d+)  order (\d+)", lines[1])
    orbits = []
    for line in lines[2:-1]:
        o = re.fullmatch(r"orbit size\s+(\d+)  stab\s+(\d+)  (.*)", line)
        orbits.append({"size": int(o.group(1)), "stab": int(o.group(2)),
                       "members": o.group(3).split(" ")})
    a = json.loads(lines[-1].removeprefix("a: "))
    return {"size": int(m.group(1)), "order": int(m.group(2)), "orbits": orbits, "a": a}


def _parse_orbits_json(out: str) -> dict:
    payload = json.loads(out)
    _expect(set(payload) == {"family", "params", "size", "order", "orbits", "a"},
            "JSON orbit keys changed")
    return payload


def _check_orbits(req: Request, rep: dict) -> None:
    size, order, orbits = rep["size"], rep["order"], rep["orbits"]
    _expect(size == req.size, f"size {size}, expected {req.size}")
    _expect(order == req.order, f"order {order}, expected {req.order}")
    members = [label for o in orbits for label in o["members"]]
    _expect(all(len(o["members"]) == o["size"] for o in orbits), "orbit lists its size wrongly")
    _expect(len(members) == len(set(members)) == size, "members are not |X| distinct labels")
    _expect(all(o["size"] * o["stab"] == order for o in orbits), "orbit size times stabilizer != order")
    _expect(rep["a"] == census([o["stab"] for o in orbits], order), "folded a differs from the census")
