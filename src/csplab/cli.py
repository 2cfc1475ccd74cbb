"""Command line front end.

    csp-lab list
    csp-lab verify <family> [--param val]... [--checker roots|orbits|both]
                            [--json] [--out PATH] [--cap N] [--corrupt-coeff I]
    csp-lab orbits <family> [--param val]... [--json] [--out PATH] [--cap N]
    csp-lab poly <name> <args>...

Exit codes: 0 pass, 1 sieving mismatch, 2 usage or cap error, 3 internal
error (an invariant breach or any unexpected exception).  CSP_LAB_CAP
overrides the default size cap.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import operator
import os
import sys
from typing import Iterable, Sequence

from . import perms, qpoly, sieve, tableaux
from .errors import (
    CspLabError,
    InexactDivision,
    InternalInvariantError,
    NegativeExponent,
    NonIntegerEvaluation,
    PreconditionError,
)

INTERNAL_ERRORS = (
    InexactDivision, NonIntegerEvaluation, NegativeExponent,
    InternalInvariantError,
)

POLY_BUILDERS = {
    "qint": (1, lambda n: qpoly.q_int(n)),
    "qfact": (1, lambda n: qpoly.q_factorial(n)),
    "qbinom": (2, lambda n, k: qpoly.gaussian_binomial(n, k)),
    "qcatalan": (1, lambda n: qpoly.q_catalan(n)),
    "qfuss": (2, lambda n, m: qpoly.q_fuss_catalan_A(n, m)),
    "eulerian": (1, lambda n: qpoly.eulerian_poly(n)),
    "cyclotomic": (1, lambda d: qpoly.cyclotomic(d)),
    "qhook": (-1, lambda *lam: tableaux.q_count_syt(lam)),
    "face": (3, lambda k, n, d: qpoly.face_poly(k, n, d)),
    "propertri": (1, lambda n: qpoly.q_proper_triangulations(n)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csp-lab",
        description="construct sieving families and verify fixed-point counts "
        "against exact root-of-unity evaluations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the family catalogue")

    def add_family_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("family", choices=sorted(sieve.FAMILIES))
        for flag, text in sieve.FLAGS.items():
            p.add_argument(f"--{flag}", help=text)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out")
        p.add_argument("--cap", help="size cap override")

    pv = sub.add_parser("verify", help="run the sieving checkers on a family instance")
    add_family_options(pv)
    pv.add_argument("--checker", choices=("roots", "orbits", "both"), default="both")
    pv.add_argument(
        "--corrupt-coeff", metavar="I",
        help="test hook: bump the coefficient of q^I before checking",
    )

    po = sub.add_parser("orbits", help="print the orbit table of a family instance")
    add_family_options(po)

    pp = sub.add_parser("poly", help="print a named polynomial")
    pp.add_argument("name", choices=sorted(POLY_BUILDERS))
    pp.add_argument("args", nargs="*")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads with, built on its first call rather than at
    import: a caller of ``main`` inside one process builds it once.  A parse
    leaves no state in the parser; help text reads COLUMNS when it is printed."""
    return build_parser()


def _collect_params(ns: argparse.Namespace) -> dict:
    """The family parameters given on the command line; the registry reads them."""
    given = vars(ns)
    return {key: given[key] for key in sieve.FLAGS if given[key] is not None}


def _size_cap(ns: argparse.Namespace) -> int | None:
    """--cap, or else CSP_LAB_CAP, as an integer; the registry bounds it."""
    if ns.cap is not None:
        return sieve.read_int("--cap", ns.cap, least=None)
    env = os.environ.get("CSP_LAB_CAP")
    return sieve.read_int("CSP_LAB_CAP", env, least=None) if env else None


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                print(text, file=fh)
        except OSError as exc:
            raise PreconditionError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        print(text)


def _title(inst: sieve.CSPInstance) -> str:
    """The two lines of the header that both text reports start with."""
    head = inst.header()
    params = " ".join(f"{k}={v}" for k, v in head["params"].items())
    return f"family {head['family']}  params {params}\nsize {head['size']}  order {head['order']}"


# The texts that start each j's row, in the text report and in the JSON.
_J_TEXT = qpoly.Texts("{:>3}".format)
_J_JSON = qpoly.Texts('{{\n      "j": {},'.format)


def _row_tail(r: sieve.RootRow) -> str:
    """A text row less its j."""
    value = "-" if r.value is None else r.value
    return f" {r.elem_order:>4} {r.fixed:>6} {value!s:>5}  " + ("yes" if r.match else "NO")


def _format_report(report: sieve.CSPReport) -> str:
    """The text report.  Each divisor's row tail is formatted once, and each
    g^j's row joins j to the tail of its order."""
    inst, order = report.instance, report.instance.action.order
    tail = {r.elem_order: _row_tail(r) for r in report.rows}
    lines = [_title(inst) + f"  f = {inst.polynomial}", "  j  ord  fixed  eval  match"]
    lines += map(operator.add, _J_TEXT.upto(order),
                 map(tail.__getitem__, sieve.element_orders(order)))
    sizes = inst.action.orbit_lengths
    stabs = [order // length for length in sizes]
    lines.append(f"orbits: {len(sizes)} (sizes {sizes}, stabilizers {stabs})")
    lines.append(f"a: {list(report.a)}  census: {list(report.census)}")
    lines.append(f"verdict: {report.verdict.upper()}")
    return "\n".join(lines)


def _json_list(items: list, depth: int) -> str:
    """What ``json.dumps(items, indent=2)`` prints for a nonempty list of
    scalars ``depth`` levels into a report (``a``, an orbit's ``members``).
    Given an indent, json encodes in Python; without one it encodes in C, so
    the item separator carries each newline and indent instead."""
    pad = "\n" + "  " * depth
    return f"[{pad}  {json.dumps(items, separators=(',' + pad + '  ', ': '))[1:-1]}{pad}]"


def _json_object(fields: Iterable[tuple[str, str]], depth: int) -> str:
    """The ``indent=2`` layout of an object ``depth`` levels into a report,
    from each key and the JSON text of its value."""
    pad = "\n" + "  " * depth
    return "{" + ",".join(f'{pad}  "{key}": {text}' for key, text in fields) + pad + "}"


def _json_objects(texts: Iterable[str]) -> str:
    """The layout of a list, one level into a report, of objects two levels in."""
    body = ",\n    ".join(texts)
    return f"[\n    {body}\n  ]" if body else "[]"


def _json_report(inst: sieve.CSPInstance, fields: Iterable[tuple[str, str]]) -> str:
    """``json.dumps({**inst.header(), **dict(fields)}, indent=2)``, from each
    field's key and the JSON text of its value laid out one level in.  Only the
    small header goes through the indent encoder; the report is joined once."""
    head = json.dumps(inst.header(), indent=2)
    parts = [head[:-2]]
    for key, text in fields:
        parts += f',\n  "{key}": ', text
    parts.append("\n}")
    return "".join(parts)


def _verify_json(report: sieve.CSPReport) -> str:
    """``json.dumps(report.to_dict(), indent=2)``.  As in the text report,
    each divisor's row less its j is laid out once and joined to each j; each
    orbit length's object is laid out once and repeated for each orbit."""
    action = report.instance.action
    keys = ("elem_order", "fixed", "eval", "match")
    tail = {r.elem_order: _json_object(zip(keys, map(json.dumps, r)), 2)[1:] for r in report.rows}
    rows = map(operator.add, _J_JSON.upto(action.order),
               map(tail.__getitem__, sieve.element_orders(action.order)))
    orbit = {length: _json_object((("size", str(length)), ("stab", str(action.order // length))), 2)
             for length in action.histogram}
    return _json_report(report.instance, (
        ("rows", _json_objects(rows)),
        ("orbits", _json_objects(map(orbit.__getitem__, action.orbit_lengths))),
        ("a", _json_list(list(report.a), 1)),
        ("verdict", json.dumps(report.verdict)),
    ))


def cmd_verify(ns: argparse.Namespace) -> int:
    inst = sieve.registry_instantiate(ns.family, _collect_params(ns), _size_cap(ns))
    if ns.corrupt_coeff is not None:
        i = sieve.read_int("--corrupt-coeff", ns.corrupt_coeff, least=0)
        inst = dataclasses.replace(inst, polynomial=sieve.corrupt_polynomial(inst.polynomial, i))
    report = sieve.build_report(inst, ns.checker)
    if ns.json:
        _emit(_verify_json(report), ns.out)
    else:
        _emit(_format_report(report), ns.out)
    return 0 if report.verdict == "pass" else 1


def cmd_orbits(ns: argparse.Namespace) -> int:
    inst = sieve.registry_instantiate(ns.family, _collect_params(ns), _size_cap(ns))
    a, _ = sieve.verify_csp_orbits(inst)
    orbits, labels = inst.action.orbits, inst.action.labels
    if ns.json:
        _emit(_json_report(inst, (
            ("orbits", _json_objects(
                _json_object((
                    ("size", str(len(o.members))),
                    ("stab", str(o.stabilizer_order)),
                    ("members", _json_list(list(map(labels.__getitem__, o.members)), 3)),
                ), 2)
                for o in orbits)),
            ("a", _json_list(list(a), 1)),
        )), ns.out)
        return 0
    lines = [_title(inst)]
    for o in orbits:
        members = " ".join(map(labels.__getitem__, o.members))
        lines.append(f"orbit size {len(o.members):>4}  stab {o.stabilizer_order:>4}  {members}")
    lines.append(f"a: {list(a)}")
    _emit("\n".join(lines), ns.out)
    return 0


def cmd_poly(ns: argparse.Namespace) -> int:
    arity, builder = POLY_BUILDERS[ns.name]
    args = [sieve.read_int(f"each poly {ns.name} argument", a, least=None) for a in ns.args]
    if arity >= 0 and len(args) != arity:
        raise PreconditionError(f"poly {ns.name} takes {arity} integer argument(s)")
    f = builder(*args)
    print(f"{f}")
    print(f"coeffs: {list(f.coeffs)}  value at q=1: {f(1)}")
    return 0


def cmd_list(ns: argparse.Namespace) -> int:
    families = sieve.list_families()
    width = max(len(fam.signature) for fam in families)
    for fam in families:
        print(f"{fam.name:<22} {fam.signature:<{width}} {fam.description}")
    print(f"caps: size {sieve.DEFAULT_SIZE_CAP} (override with --cap or CSP_LAB_CAP), "
          f"order {sieve.ORDER_CAP}, conj_class n {perms.CLASS_CAP}, "
          f"syt_rect cells {tableaux.FLAT_CELL_CAP} (m, n > 1)")
    return 0


COMMANDS = {"list": cmd_list, "verify": cmd_verify, "orbits": cmd_orbits, "poly": cmd_poly}


def main(argv: Sequence[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        return COMMANDS[ns.command](ns)
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (CspLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
