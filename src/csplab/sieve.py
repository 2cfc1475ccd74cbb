"""The verification engine: cyclic actions materialized as index
permutations, orbit decomposition, fixed-point counting, two independent
sieving checkers, the bicyclic checker, and the family registry.

A triple (X, C, f) passes the root-of-unity check when, for every power g^j
of the generator, the number of fixed points equals f evaluated exactly at a
primitive root of unity whose order is the order of g^j in C.  The orbit
check instead folds f modulo 1 - q^order and compares each folded
coefficient a_i with the number of orbits whose stabilizer-order divides i.
The two checks are equivalent theorems; running both guards the
implementation.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import catalan, perms, tableaux
from .errors import (
    SHOWN_DIGITS,
    InternalInvariantError,
    NonCommutingActions,
    NonIntegerEvaluation,
    NotNearlyFree,
    PreconditionError,
    UnknownFamily,
    check_cap,
)
from .qpoly import (
    BivariatePolynomial,
    IntPolynomial,
    eval_at_root,
    fold_mod_qn,
    gaussian_binomial,
    plethysm_e,
    plethysm_h,
    q_catalan,
    q_int,
    q_proper_triangulations,
    subst_t_q_inverse,
)

__all__ = [
    "CyclicAction", "Orbit", "CSPInstance", "RootRow", "CSPReport",
    "BicspCell", "BicspReport", "action_from_objects", "orbit_decompose",
    "fixed_count", "divisors", "element_orders", "verify_csp_roots", "verify_csp_orbits",
    "build_report", "verify_bicsp", "berget_eu_reiner_toy",
    "registry_instantiate", "list_families", "corrupt_polynomial", "read_int",
    "FLAGS", "DEFAULT_SIZE_CAP", "ORDER_CAP", "ORBIT_LIST_CAP",
]

DEFAULT_SIZE_CAP = 200_000
ORDER_CAP = 10_000
# A report lists each orbit's size and stabilizer.  Under a 1 GiB address
# space the JSON of 1.2e6 orbits takes about 0.6 s and 130 MB, joined from
# one text per orbit length; the bound holds the list, not the encoder.
ORBIT_LIST_CAP = 1_200_000
LABELS_NOT_DISTINCT = "labels must be distinct canonical encodings"


class CyclicAction:
    """A cyclic group acting on an indexed label list.

    ``generator`` permutes indices 0..size-1; ``order`` is the order of the
    acting group, which the permutation's own order must divide (theorems are
    stated for a group that may act unfaithfully, e.g. conjugation on a
    central class).  The checkers read only ``histogram``, the number of
    orbits of each length.  A counted action (``CyclicAction.counted``) is
    given its histogram, and builds its labels, generator and orbits on first
    access.
    """

    def __init__(self, labels: Sequence[str], generator: Sequence[int], order: int):
        labels, generator = tuple(labels), tuple(generator)
        if len(set(labels)) != len(labels):
            raise PreconditionError(LABELS_NOT_DISTINCT)
        _check_declared_order(order)
        if len(generator) != len(labels):
            raise PreconditionError(perms.NOT_A_PERMUTATION)
        self._walk(labels, generator, order)

    def _walk(self, labels: tuple[str, ...], generator: tuple[int, ...], order: int) -> None:
        """Hold labels, generator and order, and list the orbits: the one
        walk checks the generator and the orbit lengths.  Called directly, it
        trusts the caller to have checked the rest."""
        self.__dict__.update(labels=labels, generator=generator, order=order)
        self.__dict__["orbits"] = orbit_decompose(self)

    @classmethod
    def counted(
        cls, histogram: Mapping[int, int], order: int, build: Callable[[], CyclicAction]
    ) -> CyclicAction:
        """The action whose orbit-length histogram is given, counted or read
        off a walk in enumeration order: ``build`` materializes it sorted by
        label, once, when its labels, generator or orbits are read."""
        action = cls.__new__(cls)
        action.__dict__.update(histogram=dict(sorted(histogram.items())), order=order,
                               _build=build)
        return action

    @functools.cached_property
    def histogram(self) -> dict[int, int]:
        """{orbit length: number of orbits}, in increasing length."""
        return dict(sorted(collections.Counter(len(o.members) for o in self.orbits).items()))

    @functools.cached_property
    def size(self) -> int:
        return sum(length * count for length, count in self.histogram.items())

    @property
    def orbit_lengths(self) -> list[int]:
        """Every orbit's length, in increasing order: the order reports list them in.
        Their number is read off the histogram and held to ``ORBIT_LIST_CAP``
        before any is listed."""
        check_cap("listed orbit count", sum(self.histogram.values()), ORBIT_LIST_CAP)
        return [length for length, count in self.histogram.items() for _ in range(count)]

    @functools.cached_property
    def _built(self) -> CyclicAction:
        built = self._build()
        if (built.histogram, built.order) != (self.histogram, self.order):
            raise InternalInvariantError("the built action's orbits differ from the count")
        return built

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return self._built.labels

    @functools.cached_property
    def generator(self) -> tuple[int, ...]:
        return self._built.generator

    @functools.cached_property
    def orbits(self) -> tuple[Orbit, ...]:
        return self._built.orbits


@dataclass(frozen=True)
class Orbit:
    members: tuple[int, ...]
    stabilizer_order: int


@dataclass(frozen=True)
class CSPInstance:
    action: CyclicAction
    polynomial: IntPolynomial
    family: str = ""
    params: tuple[tuple[str, object], ...] = ()

    def header(self) -> dict:
        """What every report of the instance starts with, text or JSON."""
        return {
            "family": self.family,
            "params": dict(self.params),
            "size": self.action.size,
            "order": self.action.order,
        }


def action_from_objects(
    objects: Iterable,
    images: Iterable,
    labels: Iterable[str],
    order: int,
) -> CyclicAction:
    """Materialize an action: index the objects in enumeration order, walk
    the generator's cycles once for the orbit-length histogram, and leave
    the action sorted by label to be built when its labels, generator or
    orbits are read.  ``images`` and ``labels`` are aligned with
    ``objects``: the i-th image is the generator applied to the i-th object,
    and the i-th label is its canonical encoding.  The index is keyed by the
    object, so every image must be the canonical object, equal to and
    hashing like the enumerated one.  Nothing is called per object here, so
    iterables built in C (``map``, ``itertools``) run with no Python frame
    per object.  Non-injective labels are refused here; a repeated object
    leaves an index no image reaches, so the generator is not a permutation."""
    labels, gen = _indexed(objects, images, labels, order)
    histogram = collections.Counter(map(len, perms.index_cycles(gen)))
    for length in histogram:
        _stabilizer_order(length, order)
    return CyclicAction.counted(histogram, order,
                                functools.partial(_sorted_by_label, [labels, gen], order))


def _indexed(
    objects: Iterable, images: Iterable, labels: Iterable[str], order: int
) -> tuple[tuple[str, ...], list[int]]:
    """The labels and the generator as an index list, in enumeration order,
    for ``action_from_objects`` (which says what the three iterables hold):
    checks everything but that the generator is a permutation, which the
    walk of its cycles checks."""
    objects, labels = tuple(objects), tuple(labels)
    n = len(objects)
    if len(labels) != n:
        raise PreconditionError(f"{len(labels)} labels for {n} objects")
    index = dict(zip(objects, range(n)))
    del objects
    try:
        gen = list(map(index.__getitem__, images))
    except KeyError as exc:
        raise PreconditionError(f"generator leaves the set: {exc}") from exc
    if len(gen) != n:
        raise PreconditionError(f"{len(gen)} images for {n} objects")
    del index
    if len(set(labels)) != n:
        raise PreconditionError(LABELS_NOT_DISTINCT)
    _check_declared_order(order)
    return labels, gen


def _sorted_by_label(state: list, order: int) -> CyclicAction:
    """The action ``_indexed`` read, sorted by label, its orbits walked once.
    It takes the labels and the generator out of ``state`` so that they are
    freed before the orbits are walked."""
    labels, gen = state
    state.clear()
    # gen holds each index once, so sorting it rather than a range reuses
    # its int objects
    perm = sorted(gen, key=labels.__getitem__)
    rank = sorted(gen, key=perm.__getitem__)  # the inverse of perm
    sorted_labels = tuple(map(labels.__getitem__, perm))
    sorted_gen = tuple(map(rank.__getitem__, map(gen.__getitem__, perm)))
    del labels, gen, perm, rank
    # the labels and the order were checked when they were indexed
    action = CyclicAction.__new__(CyclicAction)
    action._walk(sorted_labels, sorted_gen, order)
    return action


def orbit_decompose(action: CyclicAction) -> tuple[Orbit, ...]:
    """Generator orbits in order of least member, with stabilizer-orders
    order/|orbit| in the declared group.  ``perms.index_cycles`` walks them
    and rejects a generator that is not a permutation of the indices."""
    return tuple(Orbit(members, _stabilizer_order(len(members), action.order))
                 for members in perms.index_cycles(action.generator))


def _check_declared_order(order: int) -> None:
    if order < 1:
        raise PreconditionError(f"declared order {order} is not positive")


def _stabilizer_order(length: int, order: int) -> int:
    """order / length, the stabilizer order of an orbit of that length."""
    stab, rem = divmod(order, length)
    if rem:
        raise PreconditionError(f"orbit length {length} does not divide the declared order {order}")
    return stab


def fixed_count(action: CyclicAction, j: int) -> int:
    """Number of points fixed by generator^j: generator^j fixes exactly the
    points whose orbit length divides j."""
    return sum(length * count for length, count in action.histogram.items() if j % length == 0)


# ---------------------------------------------------------------------------
# the two checkers


class RootRow(NamedTuple):
    """The check of the elements of order ``elem_order``: the points each fixes
    against f at a primitive root of unity of that order."""

    elem_order: int
    fixed: int
    value: int | None  # None when the evaluation is not a rational integer
    match: bool


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, in increasing order: the e <= sqrt(n) that
    divide n, then their cofactors n / e, the square root once."""
    small = [e for e in range(1, math.isqrt(n) + 1) if n % e == 0]
    return small + [n // e for e in reversed(small) if e * e != n]


def element_orders(order: int) -> Iterator[int]:
    """The order d = order / gcd(order, j) of g^j, for j = 0, 1, ..., order - 1,
    in a cyclic group of that order: the one map from j to its row."""
    return map(operator.floordiv, itertools.repeat(order),
               map(math.gcd, range(order), itertools.repeat(order)))


def verify_csp_roots(inst: CSPInstance) -> tuple[RootRow, ...]:
    """Fixed-point counts against exact evaluations of the polynomial at roots
    of unity, one row per divisor d of the order, in increasing d.  Every g^j
    of order d fixes the points whose orbit length divides order / d and is
    checked at a primitive d-th root, so the rows of the group elements are
    these rows, read through ``element_orders``.

    f(w) for w of order d depends only on f modulo q^d - 1, and f modulo
    q^m - 1 determines it when d divides m.  So f is folded once modulo
    q^order - 1, and each divisor, in decreasing order, folds the fold of
    its least multiple folded so far, d p with p the least prime of
    order / d: at most p d coefficients."""
    action = inst.action
    order = action.order
    folds: dict[int, IntPolynomial] = {}  # d -> f modulo q^d - 1, d decreasing
    rows = []
    for d in reversed(divisors(order)):
        m = next((m for m in reversed(folds) if m % d == 0), None)  # None at d = order
        fold = folds[d] = IntPolynomial(fold_mod_qn(folds[m] if m else inst.polynomial, d))
        fixed = fixed_count(action, order // d)
        try:
            value = eval_at_root(fold, d)
        except NonIntegerEvaluation:
            value = None
        rows.append(RootRow(d, fixed, value, value == fixed))
    return tuple(reversed(rows))


def verify_csp_orbits(inst: CSPInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Fold the polynomial modulo 1 - q^order into (a_0, ..., a_{order-1}),
    and count for each i the orbits whose stabilizer-order divides i (every
    stabilizer-order divides 0, so a_0 counts all orbits): the orbits of
    stabilizer-order s add their count to every s-th entry.  The check
    passes when the two agree.

    Returns (a, census).
    """
    order = inst.action.order
    a = fold_mod_qn(inst.polynomial, order)
    census = [0] * order
    for length, count in inst.action.histogram.items():
        stab = order // length
        census[::stab] = map(operator.add, census[::stab], itertools.repeat(count))
    return a, tuple(census)


@dataclass
class CSPReport:
    """Both checkers' results on ``instance``, which holds what they checked."""

    instance: CSPInstance
    rows: tuple[RootRow, ...]
    a: tuple[int, ...]
    census: tuple[int, ...]
    checker: str = "both"

    @property
    def roots_pass(self) -> bool:
        return all(r.match for r in self.rows)

    @property
    def orbits_pass(self) -> bool:
        return self.a == self.census

    @property
    def verdict(self) -> str:
        ok = {
            "roots": self.roots_pass,
            "orbits": self.orbits_pass,
            "both": self.roots_pass and self.orbits_pass,
        }[self.checker]
        return "pass" if ok else "fail"

    def to_dict(self) -> dict:
        """The JSON report: one row per group element g^j, its divisor's row
        with j in front."""
        action = self.instance.action
        row_of = {r.elem_order: dict(zip(("elem_order", "fixed", "eval", "match"), r))
                  for r in self.rows}
        return {
            **self.instance.header(),
            "rows": [{"j": j, **row_of[d]} for j, d in enumerate(element_orders(action.order))],
            "orbits": [
                {"size": length, "stab": action.order // length}
                for length in action.orbit_lengths
            ],
            "a": list(self.a),
            "verdict": self.verdict,
        }


def build_report(inst: CSPInstance, checker: str = "both") -> CSPReport:
    if checker not in ("roots", "orbits", "both"):
        raise PreconditionError("checker must be roots, orbits, or both")
    a, census = verify_csp_orbits(inst)
    return CSPReport(inst, verify_csp_roots(inst), a, census, checker)


def corrupt_polynomial(f: IntPolynomial, i: int) -> IntPolynomial:
    """Test hook: bump the coefficient of q^i by one so checkers must fail."""
    return f + IntPolynomial.monomial(1, i)


# ---------------------------------------------------------------------------
# bicyclic checking


@dataclass(frozen=True)
class BicspCell:
    j: int
    k: int
    fixed: int
    value: int | None
    match: bool


@dataclass(frozen=True)
class BicspReport:
    order1: int
    order2: int
    cells: tuple[BicspCell, ...]

    @property
    def verdict(self) -> str:
        return "pass" if all(c.match for c in self.cells) else "fail"

    def cell(self, j: int, k: int) -> BicspCell:
        """The cell of g^j h^k; j and k are read modulo the two orders."""
        return self.cells[j % self.order1 * self.order2 + k % self.order2]


def verify_bicsp(
    labels: Sequence[str],
    gen1: tuple[int, ...],
    gen2: tuple[int, ...],
    F: BivariatePolynomial,
    e1: int = 1,
    e2: int = 1,
    order1: int | None = None,
    order2: int | None = None,
) -> BicspReport:
    """Check #X^{(g^j, h^k)} = F(w^(e1*j), w'^(e2*k)) for commuting index
    permutations g, h, where w and w' are primitive roots of unity of the
    two group orders and e1, e2 fix the embeddings.  Evaluation is exact, in
    the cyclotomic integers of order lcm(order1, order2).  Fixed points come
    from the orbits of g: if h^k moves one point of a g-orbit O p steps along
    O, it so moves every point of O, and g^j h^k fixes O iff j = -p mod |O|."""
    def action(gen: tuple[int, ...], order: int | None) -> CyclicAction:
        if order is None:
            order = math.lcm(*map(len, perms.index_cycles(gen)))
        return CyclicAction(tuple(labels), gen, order)

    g = action(gen1, order1)
    o1, o2 = g.order, action(gen2, order2).order
    if any(gen1[y] != gen2[x] for x, y in zip(gen1, gen2)):
        raise NonCommutingActions("the two generators do not commute")
    if math.gcd(e1, o1) != 1 or math.gcd(e2, o2) != 1:
        raise PreconditionError("embedding exponents must be units mod the orders")
    landed: list[dict] = [{} for _ in range(o2)]  # k -> |O| -> j mod |O| -> #fixed
    for orbit in g.orbits:
        size, x = len(orbit.members), orbit.members[0]
        step = dict(zip(orbit.members, range(size)))
        for k in range(o2):
            if x in step:
                landed[k].setdefault(size, [0] * size)[-step[x] % size] += size
            x = gen2[x]
    D = math.lcm(o1, o2)
    cells = []
    for j in range(o1):
        for k in range(o2):
            fixed = sum(r[j % len(r)] for r in landed[k].values())
            qexp = (D // o1) * e1 * j % D
            texp = (D // o2) * e2 * k % D
            coeffs = [0] * D
            for (i, l), c in F.terms.items():
                coeffs[(qexp * i + texp * l) % D] += c
            try:
                value = eval_at_root(IntPolynomial(coeffs), D)
            except NonIntegerEvaluation:
                value = None
            cells.append(BicspCell(j, k, fixed, value, value == fixed))
    return BicspReport(o1, o2, tuple(cells))


def berget_eu_reiner_toy() -> tuple[tuple[str, ...], tuple[int, ...], BivariatePolynomial]:
    """The three cube roots of unity under multiplication by (w, w'):
    labels, the shared 3-cycle generator, and the polynomial 1 + qt + q^2t^2."""
    labels = ("1", "w", "w2")
    gen = (1, 2, 0)
    F = BivariatePolynomial({(0, 0): 1, (1, 1): 1, (2, 2): 1})
    return labels, gen, F


# ---------------------------------------------------------------------------
# the family registry

# every flag the signatures list, in the CLI's order, with its --help text
FLAGS = {"n": None, "k": None, "m": None, "lam": "partition, e.g. 3,1",
         "gen": "generator cycles, e.g. (1,2)(3,4)",
         "base": "base family for plethysm_derived", "kind": None}
_LEAST = {"n": 1, "k": 0, "m": 1}  # the integer flags and their lower bounds
_DECIMAL = re.compile(r"[-+]?[0-9]+")


def read_int(name: str, value: object, *, least: int | None) -> int:
    """The one reader of an integer from outside the package: an int, not a
    bool, or its decimal digits, at least ``least`` (None: the caller bounds
    it).  Anything else raises a PreconditionError naming ``name``, not the value."""
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        try:
            value = int(value)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise PreconditionError(f"{name} has more digits than Python converts") from None
    if not isinstance(value, int) or isinstance(value, bool):
        raise PreconditionError(f"{name} must be an integer")
    if least is not None and value < least:
        raise PreconditionError(f"{name} must be at least {least}")
    return value


def _comb(n: int, k: int, cap: int) -> int:
    """C(n, k), or a lower bound on it once that bound is above the cap and
    too long to print: C(n, j) grows with j up to min(k, n - k)."""
    if not 0 <= k <= n:
        return 0
    count, enough = 1, max(cap + 1, 10**SHOWN_DIGITS)
    for j in range(min(k, n - k)):
        count = count * (n - j) // (j + 1)
        if count >= enough:
            break
    return count


def _ground(params: Mapping, n: int, order: int | None) -> tuple[CyclicAction, str | None]:
    """The action on [n] of the full cycle, of the admitted order n, by
    default, or of a supplied nearly-free generator in cycle notation, and
    its label.  It is counted from the generator's cycle type (the points a
    --gen does not list are fixed) and built only when its labels, generator
    or orbits are read.  A --gen's order (None when admitted) is the one the
    registry cannot read off a closed form: it is checked here."""
    gen = params.get("gen")
    if gen is None:
        cycles, label = [range(1, n + 1)], None
    elif isinstance(gen, str):
        cycles, label = perms.read_cycles(gen, n), gen
    else:
        raise PreconditionError("--gen must be cycle notation, e.g. (1,2)(3,4)")
    lengths = collections.Counter(map(len, cycles))
    unlisted = n - sum(length * count for length, count in lengths.items())
    if unlisted:
        lengths[1] += unlisted
    if perms.cycle_type_kind(lengths) == "neither":
        ground = f"[{n}]" if n < 10**SHOWN_DIGITS else f"[n], n of {SHOWN_DIGITS} or more digits"
        raise NotNearlyFree(f"the generator acts neither freely nor nearly freely on {ground}")
    if order is None:
        order = check_cap("group order", math.lcm(*lengths), ORDER_CAP)
    return CyclicAction.counted(lengths, order, lambda: CyclicAction(
        tuple(map(str, range(1, n + 1))), [x - 1 for x in perms.from_cycles(n, cycles)], order,
    )), label


def _k_sets(
    labels: Sequence[str], gen: Sequence[int], k: int, repeat: bool, sep: str,
    order: int,
) -> CyclicAction:
    """The action on the k-subsets of an indexed ground set, or on its
    k-multisets when ``repeat`` is set, induced by the index permutation
    ``gen``, built sorted by label; a (multi)set is labelled by its members'
    labels, the empty one by "-".  The three iterables enumerate the same
    combinations of positions, in the same order, all in C.  The caller
    counted the orbits, so no walk in enumeration order reads them: the
    cycles are walked once, sorted."""
    pick = itertools.combinations_with_replacement if repeat else itertools.combinations
    return _sorted_by_label(list(_indexed(
        pick(range(len(labels)), k),
        map(tuple, map(sorted, pick(gen, k))),
        map(sep.join, pick(labels, k)) if k else ("-",),
        order,
    )), order)


def _fixed_k_sets(cycles: Mapping[int, int], k: int, repeat: bool) -> int:
    """The k-multisets (``repeat``) or k-subsets that a permutation with
    ``cycles`` {length: count} fixes: those constant on each of its cycles,
    or the unions of its cycles.  This is the coefficient of x^k in the
    product over its cycle lengths l of 1/(1 - x^l), or of 1 + x^l (Polya),
    expanded factor by factor, longest cycles first; the last factor's
    binomial is read off for each term."""
    def term(count: int, i: int) -> int:  # [x^(l*i)] of a factor's power
        return math.comb(count + i - 1, i) if repeat else math.comb(count, i)

    *first, (last, last_count) = sorted(cycles.items(), reverse=True)
    series = {0: 1}  # exponent <= k -> coefficient
    for length, count in first:
        grown: collections.Counter = collections.Counter()
        for t, c in series.items():
            for i in range((k - t) // length + 1):
                grown[t + length * i] += c * term(count, i)
        series = grown
    return sum(c * term(last_count, (k - t) // last)
               for t, c in series.items() if (k - t) % last == 0)


def _counted_k_sets(
    ground: CyclicAction, k: int, repeat: bool, sep: str, size: int
) -> CyclicAction:
    """The action on the k-multisets (``repeat``) or k-subsets of the points
    of ``ground``, its orbit-length histogram read off that of ``ground``;
    ``_k_sets`` builds its members only when they are read.  For each e
    dividing the order, g^e splits an orbit of length l into gcd(l, e)
    cycles of length l / gcd(l, e); the k-sets in orbits of length e are
    those g^e fixes less those in orbits of a length dividing e (Moebius
    inversion).  A subset is counted as its complement when that is smaller,
    an equivariant bijection.  ``size`` is |X| in closed form."""
    count = min(k, ground.size - k) if not repeat else k
    order, points = ground.order, {}  # e -> k-sets in orbits of length e
    for e in divisors(order):
        cycles: collections.Counter = collections.Counter()
        for length, orbits in ground.histogram.items():
            g = math.gcd(length, e)
            cycles[length // g] += orbits * g
        fixed = _fixed_k_sets(cycles, count, repeat) if count >= 0 and cycles else int(count == 0)
        points[e] = fixed - sum(p for d, p in points.items() if e % d == 0)
    if any(p < 0 or p % e for e, p in points.items()) or sum(points.values()) != size:
        raise InternalInvariantError(f"the counted orbits do not hold the {size} k-sets")
    return CyclicAction.counted(
        {e: p // e for e, p in points.items() if p}, order,
        lambda: _k_sets(ground.labels, ground.generator, k, repeat, sep, order),
    )


def _build_k_sets(params: Mapping, order: int | None, size: int, repeat: bool) -> CSPInstance:
    """k-multisets (``repeat``) or k-subsets of [n] under a permutation of [n]."""
    name = "multiset" if repeat else "subset"
    n, k = params["n"], params["k"]
    ground, gen_label = _ground(params, n, order)
    # f first: its degree cap bounds the series that counts the orbits
    f = gaussian_binomial(n + k - 1 if repeat else n, k)
    action = _counted_k_sets(ground, k, repeat, "" if n <= 9 else ",", size)
    p = [("n", n), ("k", k)] + ([("gen", gen_label)] if gen_label else [])
    return CSPInstance(action, f, name, tuple(p))


def _build_syt_rect(params: Mapping, order: int, size: int) -> CSPInstance:
    """Promotion on the standard tableaux of the m-by-n rectangle.  A row or
    a column holds one tableau, which promotion fixes: it is counted, and
    built, labelled by ``tableau_label``, only when it is read."""
    m, n = params["m"], params["n"]
    lam = (n,) * m
    if m == 1 or n == 1:
        rows = tableaux._unflatten(range(1, m * n + 1), lam)
        action = CyclicAction.counted({1: 1}, order, lambda: CyclicAction(
            (tableaux.tableau_label(rows),), (0,), order))
    else:
        action = action_from_objects(*tableaux.promotion_of_syt(lam, cap=m * n), order)
    return CSPInstance(
        action, tableaux.q_count_syt(lam), "syt_rect", (("m", m), ("n", n))
    )


def _successor_code(part: tuple[int, ...], base: int, order: int) -> int:
    """A block's or an edge's digits of its object's key: each member i's
    jump to the next member, cyclically, (succ(i) - i) mod order, at digit
    i - 1.  The successors are the object's blocks as cycles (Biane)."""
    return sum((b - a) % order * base ** (a - 1) for a, b in zip(part, part[1:] + part[:1]))


def _degree_code(diagonal: tuple[int, int], base: int, order: int) -> int:
    """A diagonal's digits of its triangulation's key: one at each of its
    two ends, so digit i - 1 counts the diagonals at vertex i (its quiddity
    less one, which determines the triangulation: Conway and Coxeter)."""
    return sum(base ** (a - 1) for a in diagonal)


def _part_keys(X: Sequence, order: int, code: Callable) -> list[int]:
    """The key of each object of X, a tuple of parts on 1..order: the sum of
    its parts' codes, from one table over the distinct parts, made by
    ``map`` and ``sum`` with no Python frame per object."""
    base = order + 1
    table = {p: code(p, base, order) for p in set(itertools.chain.from_iterable(X))}
    return list(map(sum, map(map, itertools.repeat(table.__getitem__), X)))


def _position_keys(W: Sequence, order: int) -> list[int]:
    """The key of each permutation w in W: digit i - 1 is (w(i) - i) mod
    order, read from one table per position, with no Python frame per
    permutation."""
    base = order + 1
    tables = [[(x - i) % order * base ** (i - 1) for x in range(order + 1)]
              for i in range(1, order + 1)]
    return list(map(sum, map(map, itertools.repeat(operator.getitem), itertools.repeat(tables), W)))


def _rotated(keys: Iterable[int], order: int, shift: int) -> Iterator[int]:
    """The key of each object's image under i -> i + shift (mod order).  A
    key reads a statistic on the points as base-B digits, B = order + 1,
    digit i - 1 for point i, and the rotation moves point i's digit to
    point i + shift.  B^order = 1 modulo B^order - 1, so that is the key
    times B^shift modulo B^order - 1: every digit is at most order - 1 <
    B - 1, so the key is below the modulus."""
    base = order + 1
    return map(operator.mod, map(operator.mul, keys, itertools.repeat(base ** (shift % order))),
               itertools.repeat(base ** order - 1))


def _rotations(X: Sequence, keys: list[int], order: int, shift: int,
               label: Callable) -> CyclicAction:
    """The rotation i -> i + shift (mod order) of the objects X, indexed by
    their ``keys`` and labelled by ``label`` as its module holds it at the
    call.  A repeated key leaves an image that no index holds, or an index
    that no image reaches, and ``action_from_objects`` refuses either."""
    return action_from_objects(keys, _rotated(keys, order, shift), map(label, X), order)


def _build_ncm(params: Mapping, order: int, size: int) -> CSPInstance:
    n = params["n"]
    # promotion transports to the clockwise rotation i -> i-1 (mod 2n)
    X = catalan.enumerate_nc_matchings(n, cap=n)
    action = _rotations(X, _part_keys(X, order, _successor_code), order, -1,
                        catalan.matching_label)
    return CSPInstance(action, tableaux.q_count_syt((n, n)), "ncm", (("n", n),))


def _build_ncp(params: Mapping, order: int, size: int) -> CSPInstance:
    n = params["n"]
    X = catalan.enumerate_nc_partitions(n, cap=n)
    action = _rotations(X, _part_keys(X, order, _successor_code), order, 1,
                        catalan.partition_label)
    return CSPInstance(action, q_catalan(n), "ncp", (("n", n),))


def _build_triangulation(params: Mapping, order: int, size: int) -> CSPInstance:
    n = params["n"]
    X = catalan.enumerate_triangulations(n + 2, cap=n + 2)
    action = _rotations(X, _part_keys(X, order, _degree_code), order, 1,
                        catalan.triangulation_label)
    return CSPInstance(action, q_catalan(n), "triangulation", (("n", n),))


def _build_conj_class(params: Mapping, order: int, size: int) -> CSPInstance:
    """Conjugation by the long cycle c: (c w c^-1)(i + 1) = w(i) + 1, so it
    is the rotation of w's jumps (w(i) - i) mod n."""
    lam = params["lam"]
    cls = perms.conjugacy_class(lam)
    f = subst_t_q_inverse(perms.maj_exc_genfun(cls))
    action = _rotations(cls, _position_keys(cls, order), order, 1, perms.perm_label)
    return CSPInstance(action, f, "conj_class", (("lam", lam),))


def _proper_order(params: Mapping) -> int:
    """N + 2, the rotations of the (N+2)-gon; an odd N has no instance."""
    if params["n"] % 2:
        raise PreconditionError("proper_triangulation needs even n >= 2")
    return params["n"] + 2


def _build_proper_triangulation(params: Mapping, order: int, size: int) -> CSPInstance:
    N = params["n"]
    if N == 4:
        # The closed form q_proper_triangulations(2) evaluates to 0 at q=-1,
        # but six proper hexagon triangulations are fixed by the half turn;
        # no polynomial of that factored shape can give 6 there (a mod-2
        # obstruction).  Use the unique degree-<6 polynomial taking the
        # forced values at every sixth root of unity.
        f = IntPolynomial((3, 1, 3, 1, 3, 1))
    else:
        f = q_proper_triangulations(N // 2)
    X = catalan.enumerate_proper_triangulations(N + 2, cap=N + 2)
    action = _rotations(X, _part_keys(X, order, _degree_code), order, 1,
                        catalan.triangulation_label)
    return CSPInstance(action, f, "proper_triangulation", (("n", N),))


def _build_cycle(params: Mapping, order: int, size: int) -> CSPInstance:
    """The counted ground of ``subset`` and ``multiset``."""
    n = params["n"]
    action, _ = _ground(params, n, order)
    return CSPInstance(action, q_int(n), "cycle", (("n", n),))


def _plethysm_size(params: Mapping, cap: int) -> int:
    """The k-multisets (h) or k-subsets (e) of the admitted base's points;
    the e_k construction is refused first over a base of even order."""
    (_, _, order, N), k = params["base"], params["k"]
    if params["kind"] == "e" and order % 2 == 0:
        raise PreconditionError("the e_k construction needs a group of odd order")
    return _comb(N + k - 1, k, cap) if params["kind"] == "h" else _comb(N, k, cap)


def _build_plethysm(params: Mapping, order: int, size: int) -> CSPInstance:
    k, kind = params["k"], params["kind"]
    fam, *admitted = params["base"]  # the base family, its parameters, order and size
    base = fam.builder(*admitted)
    f = (plethysm_h if kind == "h" else plethysm_e)(k, base.polynomial)
    action = _counted_k_sets(base.action, k, kind == "h", ",", size)
    p = (("base", base.family), ("k", k), ("kind", kind)) + base.params
    return CSPInstance(action, f, "plethysm_derived", p)


@dataclass(frozen=True)
class Family:
    """A registered family.  ``order`` and ``size`` are its group order (None
    when a --gen gives it) and |X| in closed form, ``size`` past the cap a
    lower bound on it; ``bounded`` names the flags the size cap also bounds.
    The registry admits all three before it calls ``builder``."""

    name: str
    signature: str
    description: str
    order: Callable[[Mapping], int | None] = field(compare=False)
    size: Callable[[Mapping, int], int] = field(compare=False)
    builder: Callable[[Mapping, int | None, int], CSPInstance] = field(compare=False)
    bounded: tuple[tuple[str, str], ...] = ()  # (flag, its name in the cap message)


# a size of 0 or 1 bounds neither n nor k; any other size bounds both
_K_SET_BOUNDS = (("n", "ground set size n"), ("k", "k"))


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "multiset", "--n N --k K [--gen CYCLES]",
            "k-multisets on [n] under a (nearly) free generator; "
            "polynomial [n+k-1 choose k]_q",
            lambda p: None if "gen" in p else p["n"],
            lambda p, cap: _comb(p["n"] + p["k"] - 1, p["k"], cap),
            functools.partial(_build_k_sets, repeat=True), _K_SET_BOUNDS,
        ),
        Family(
            "subset", "--n N --k K [--gen CYCLES]",
            "k-subsets of [n] under a (nearly) free generator; "
            "polynomial [n choose k]_q",
            lambda p: None if "gen" in p else p["n"],
            lambda p, cap: _comb(p["n"], p["k"], cap),
            functools.partial(_build_k_sets, repeat=False), _K_SET_BOUNDS,
        ),
        Family(
            "syt_rect", "--m M --n N",
            "standard tableaux of the m-by-n rectangle under promotion; "
            "q-hooklength polynomial",
            lambda p: p["m"] * p["n"],
            lambda p, cap: tableaux.count_syt((p["n"],) * p["m"]),
            _build_syt_rect,
        ),
        Family(
            "ncm", "--n N",
            "noncrossing perfect matchings on [2n] under rotation; "
            "q-hooklength polynomial of (n,n)",
            lambda p: 2 * p["n"], lambda p, cap: catalan.catalan_number(p["n"]), _build_ncm,
        ),
        Family(
            "ncp", "--n N",
            "noncrossing partitions of [n] under rotation; q-Catalan",
            lambda p: p["n"], lambda p, cap: catalan.catalan_number(p["n"]), _build_ncp,
        ),
        Family(
            "triangulation", "--n N",
            "triangulations of the (n+2)-gon under rotation; q-Catalan",
            lambda p: p["n"] + 2, lambda p, cap: catalan.catalan_number(p["n"]),
            _build_triangulation,
        ),
        Family(
            "conj_class", "--lam P1,P2,...",
            "a conjugacy class under conjugation by the long cycle; "
            "maj/exc polynomial at t=1/q",
            lambda p: max(sum(p["lam"]), 1),  # the long cycle of S_0 is the identity
            lambda p, cap: math.factorial(sum(p["lam"])) // math.prod(
                i ** c * math.factorial(c) for i, c in collections.Counter(p["lam"]).items()),
            _build_conj_class,
        ),
        Family(
            "proper_triangulation", "--n N (even)",
            "proper 2-colored triangulations of the (n+2)-gon under rotation",
            _proper_order, lambda p, cap: catalan.proper_count(p["n"]),
            _build_proper_triangulation,
        ),
        Family(
            "cycle", "--n N",
            "the ground set [n] under rotation; polynomial [n]_q",
            lambda p: p["n"], lambda p, cap: p["n"], _build_cycle,
        ),
        Family(
            "plethysm_derived", "--base FAMILY --k K [--kind h|e] [base params]",
            "k-multisets (h) or k-subsets (e, odd order) of a base instance",
            # its base, admitted first: (family, parameters, order, size)
            lambda p: p["base"][2], _plethysm_size, _build_plethysm, (("k", "k"),),
        ),
    )
}


def list_families() -> tuple[Family, ...]:
    return tuple(FAMILIES[name] for name in sorted(FAMILIES))


def _parameters(family_id: str) -> tuple[Family, dict[str, bool]]:
    """A registered family and its parameter table, read off its signature:
    each flag the signature lists, and whether it is required (not in brackets)."""
    if family_id not in FAMILIES:
        raise UnknownFamily(family_id)
    fam = FAMILIES[family_id]
    return fam, {flag: not opt for opt, flag in re.findall(r"(\[?)--(\w+)", fam.signature)}


def _read(family_id: str, params: Mapping) -> tuple[Family, dict]:
    """A registered family and its parameters, read: they match the family's
    table (and its base family's, which may not share a flag with it), none
    unlisted, none of the required ones missing; then the integers, --kind
    and --lam are read, and --base becomes the base family and its own
    parameters, read."""
    fam, table = _parameters(family_id)
    accepted, signature = set(table), fam.signature
    if "base" in table and "base" in params:
        base, base_table = _parameters(params["base"])
        shared = " ".join(f"--{flag}" for flag in base_table if flag in table)
        if shared:
            raise PreconditionError(f"family {family_id} cannot take base {base.name}, "
                                    f"which also takes {shared}")
        accepted |= set(base_table)
        signature += f"; base {base.name}: {base.signature}"
    extra = " ".join(f"--{key}" for key in params if key not in accepted)
    if extra:
        raise PreconditionError(f"family {family_id} does not take {extra}; "
                                f"signature: {signature}")
    missing = [flag for flag, required in table.items() if required and flag not in params]
    if missing:
        raise PreconditionError(f"family {family_id} needs parameter {missing[0]!r}; "
                                f"signature: {fam.signature}")
    params = {key: read_int(f"--{key}", value, least=_LEAST[key]) if key in _LEAST else value
              for key, value in params.items()}
    if "kind" in table and params.setdefault("kind", "h") not in ("h", "e"):
        raise PreconditionError("plethysm kind must be 'h' or 'e'")
    if "lam" in table:
        lam = params["lam"]
        if isinstance(lam, str):  # the empty string is the empty partition
            lam = lam.split(",") if lam else ()
        params["lam"] = tableaux._check_partition(
            read_int("each --lam part", x, least=None) for x in lam)
    if "base" in table:
        params["base"] = _read(base.name, {key: params[key] for key in base_table if key in params})
    return fam, params


def _admit(fam: Family, params: Mapping, cap: int) -> tuple[int | None, int]:
    """The one admission of every family and caller: the group order, then
    the size, then the flags the size cap also bounds, each checked from its
    closed form before anything is built.  Returns the order and the size."""
    order = fam.order(params)
    if order is not None:
        check_cap("group order", order, ORDER_CAP)
    size = check_cap("instance size", fam.size(params, cap), cap)
    for flag, what in fam.bounded:
        check_cap(what, params[flag], cap)
    return order, size


def registry_instantiate(
    family_id: str, params: Mapping, size_cap: int | None = None
) -> CSPInstance:
    """Build the (X, generator, f) triple for a registered family.  The size
    cap and the parameters are read, and the instance admitted, before the
    builder runs.  A base is admitted first, and its order and size join it:
    the family's order is its base's, and its size counts the base's points."""
    cap = DEFAULT_SIZE_CAP if size_cap is None else read_int(
        "the size cap (--cap or CSP_LAB_CAP)", size_cap, least=1)
    fam, params = _read(family_id, params)
    if "base" in params:
        params["base"] += _admit(*params["base"], cap)
    return fam.builder(params, *_admit(fam, params, cap))
