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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from . import catalan, perms, tableaux
from .errors import (
    CapExceeded,
    NegativeExponent,
    NonCommutingActions,
    NonIntegerEvaluation,
    NotNearlyFree,
    PreconditionError,
    StatisticMismatch,
    UnknownFamily,
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
    "fixed_count", "verify_csp_roots", "verify_csp_orbits", "build_report",
    "verify_bicsp", "verify_block_partition", "berget_eu_reiner_toy",
    "registry_instantiate", "list_families", "corrupt_polynomial",
    "DEFAULT_SIZE_CAP", "ORDER_CAP",
]

DEFAULT_SIZE_CAP = 200_000
ORDER_CAP = 10_000
_NOT_A_PERMUTATION = "generator is not a permutation of the indices"


@dataclass(frozen=True)
class CyclicAction:
    """A cyclic group acting on an indexed label list.

    ``generator`` permutes indices 0..size-1; ``order`` is the order of the
    acting group, which the permutation's own order must divide (theorems are
    stated for a group that may act unfaithfully, e.g. conjugation on a
    central class).
    """

    labels: tuple[str, ...]
    generator: tuple[int, ...]
    order: int

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise PreconditionError("labels must be distinct canonical encodings")
        if self.order < 1:
            raise PreconditionError(f"declared order {self.order} is not positive")
        self.orbits  # the one walk checks the generator and the orbit lengths

    @property
    def size(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def orbits(self) -> tuple[Orbit, ...]:
        """The generator's orbits, decomposed once per action; fixed points,
        the orbit census and the reports all read them from here."""
        return orbit_decompose(self)


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

    def params_dict(self) -> dict:
        return dict(self.params)


def action_from_objects(
    objects: Iterable,
    images: Iterable,
    labels: Iterable[str],
    order: int,
) -> CyclicAction:
    """Materialize an action: sort the objects by label, then store the
    generator as an index permutation.  ``images`` and ``labels`` are aligned
    with ``objects``: the i-th image is the generator applied to the i-th
    object, and the i-th label is its canonical encoding.  The index is keyed
    by the object, so every image must be the canonical object, equal to and
    hashing like the enumerated one.  Nothing is called per object here, so
    iterables built in C (``map``, ``itertools``) run with no Python frame
    per object.  Repeated objects and non-injective labels show up as
    repeated labels."""
    objects, labels = tuple(objects), tuple(labels)
    n = len(objects)
    if len(labels) != n:
        raise PreconditionError(f"{len(labels)} labels for {n} objects")
    perm = sorted(range(n), key=labels.__getitem__)
    sorted_labels = tuple(map(labels.__getitem__, perm))
    index = dict(zip(map(objects.__getitem__, perm), range(n)))
    del objects, labels
    try:
        image_index = list(map(index.__getitem__, images))
    except KeyError as exc:
        raise PreconditionError(f"generator leaves the set: {exc}") from exc
    if len(image_index) != n:
        raise PreconditionError(f"{len(image_index)} images for {n} objects")
    gen = tuple(map(image_index.__getitem__, perm))
    del index, image_index, perm  # freed before CyclicAction walks the orbits
    return CyclicAction(sorted_labels, gen, order)


def orbit_decompose(action: CyclicAction) -> tuple[Orbit, ...]:
    """Generator orbits in order of least member, with stabilizer-orders
    order/|orbit| in the declared group.  A generator that is not a
    permutation of the indices is rejected as ``perms.cycles_of`` rejects
    one: once every entry is an index, a walk that closes on a point other
    than its start has met a point with two preimages."""
    gen, n = action.generator, action.size
    if len(gen) != n or n and not 0 <= min(gen) <= max(gen) < n:
        raise PreconditionError(_NOT_A_PERMUTATION)
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        members = []
        x = start
        while not seen[x]:
            seen[x] = True
            members.append(x)
            x = gen[x]
        if x != start:
            raise PreconditionError(_NOT_A_PERMUTATION)
        stab, rem = divmod(action.order, len(members))
        if rem:
            raise PreconditionError(f"orbit length {len(members)} does not divide "
                                    f"the declared order {action.order}")
        orbits.append(Orbit(tuple(members), stab))
    return tuple(orbits)


def fixed_count(action: CyclicAction, j: int) -> int:
    """Number of points fixed by generator^j: generator^j fixes exactly the
    points whose orbit length divides j."""
    return sum(len(o.members) for o in action.orbits if j % len(o.members) == 0)


# ---------------------------------------------------------------------------
# the two checkers


@dataclass(frozen=True)
class RootRow:
    j: int
    elem_order: int
    fixed: int
    value: int | None  # None when the evaluation is not a rational integer
    match: bool


def verify_csp_roots(inst: CSPInstance) -> tuple[RootRow, ...]:
    """Fixed-point counts of every group element against exact evaluations
    of the polynomial at roots of unity of matching orders."""
    action, f = inst.action, inst.polynomial
    rows = []
    cache: dict[int, tuple[int, int | None]] = {}  # d -> (fixed, value)
    for j in range(action.order):
        d = action.order // math.gcd(action.order, j)
        if d not in cache:
            try:
                value = eval_at_root(f, d)
            except NonIntegerEvaluation:
                value = None
            cache[d] = (fixed_count(action, j), value)
        fixed, value = cache[d]
        rows.append(RootRow(j, d, fixed, value, value == fixed))
    return tuple(rows)


def verify_csp_orbits(
    inst: CSPInstance,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[bool, ...]]:
    """Fold the polynomial modulo 1 - q^order and compare each coefficient
    a_i with the number of orbits whose stabilizer-order divides i (every
    stabilizer-order divides 0, so a_0 counts all orbits).

    Returns (a, census, matches).
    """
    action = inst.action
    a = fold_mod_qn(inst.polynomial, action.order)
    stabs = collections.Counter(o.stabilizer_order for o in action.orbits).items()
    census = tuple(sum(c for s, c in stabs if i % s == 0) for i in range(action.order))
    matches = tuple(x == y for x, y in zip(a, census))
    return a, census, matches


@dataclass
class CSPReport:
    family: str
    params: dict
    size: int
    order: int
    polynomial: IntPolynomial
    rows: tuple[RootRow, ...]
    orbits: tuple[Orbit, ...]
    a: tuple[int, ...]
    census: tuple[int, ...]
    orbit_matches: tuple[bool, ...]
    checker: str = "both"

    @property
    def roots_pass(self) -> bool:
        return all(r.match for r in self.rows)

    @property
    def orbits_pass(self) -> bool:
        return all(self.orbit_matches)

    @property
    def verdict(self) -> str:
        ok = {
            "roots": self.roots_pass,
            "orbits": self.orbits_pass,
            "both": self.roots_pass and self.orbits_pass,
        }[self.checker]
        return "pass" if ok else "fail"

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "size": self.size,
            "order": self.order,
            "rows": [
                {
                    "j": r.j,
                    "elem_order": r.elem_order,
                    "fixed": r.fixed,
                    "eval": r.value,
                    "match": r.match,
                }
                for r in self.rows
            ],
            "orbits": [
                {"size": len(o.members), "stab": o.stabilizer_order}
                for o in self.orbits
            ],
            "a": list(self.a),
            "verdict": self.verdict,
        }


def build_report(inst: CSPInstance, checker: str = "both") -> CSPReport:
    if checker not in ("roots", "orbits", "both"):
        raise PreconditionError("checker must be roots, orbits, or both")
    a, census, matches = verify_csp_orbits(inst)
    return CSPReport(
        family=inst.family,
        params=inst.params_dict(),
        size=inst.action.size,
        order=inst.action.order,
        polynomial=inst.polynomial,
        rows=verify_csp_roots(inst),
        orbits=inst.action.orbits,
        a=a,
        census=census,
        orbit_matches=matches,
        checker=checker,
    )


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
            try:  # perm_order's own message would name the 1-based copy of gen
                order = perms.perm_order(tuple(x + 1 for x in gen))
            except PreconditionError:
                raise PreconditionError(_NOT_A_PERMUTATION) from None
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
# block-partition certificates


def verify_block_partition(
    inst: CSPInstance,
    stat: Mapping[str, int] | Callable[[str], int],
    blocks: Sequence[Sequence[int]],
    j: int,
) -> bool:
    """Check a combinatorial sieving certificate at g^j: with a statistic
    whose generating function over X is the instance polynomial, the first
    #X^{g^j} blocks must have weight evaluating to 1 at the root of unity
    and the rest to 0."""
    action = inst.action
    value_of = stat.__getitem__ if isinstance(stat, Mapping) else stat
    flat = sorted(i for block in blocks for i in block)
    if flat != list(range(action.size)):
        raise PreconditionError("blocks must partition the index set")

    def genfun(indices: Iterable[int]) -> IntPolynomial:
        counts = collections.Counter(value_of(action.labels[i]) for i in indices)
        try:
            return IntPolynomial.from_exponents(counts)
        except NegativeExponent:
            raise PreconditionError("statistic values must be nonnegative") from None

    if genfun(range(action.size)) != inst.polynomial:
        raise StatisticMismatch(
            "statistic generating function differs from the instance polynomial"
        )
    d = action.order // math.gcd(action.order, j)
    m = fixed_count(action, j)
    for i, block in enumerate(blocks, start=1):
        try:
            value = eval_at_root(genfun(block), d)
        except NonIntegerEvaluation:
            return False
        if value != (1 if i <= m else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# the family registry


def _check_size(count: int, cap: int) -> int:
    if count > cap:
        raise CapExceeded(f"instance size {count} exceeds the cap {cap}")
    return count


def _check_order(order: int) -> int:
    if order > ORDER_CAP:
        raise CapExceeded(f"group order {order} exceeds the cap {ORDER_CAP}")
    return order


def _generator_on_ground(params: Mapping, n: int) -> tuple[perms.Permutation, str | None]:
    """Resolve the acting permutation of [n]: the full cycle by default, or
    a supplied nearly-free generator."""
    gen = params.get("gen")
    if gen is None:
        g = perms.from_cycles(n, [tuple(range(1, n + 1))] if n else [])
        return g, None
    g = perms.parse_cycles(gen, n) if isinstance(gen, str) else tuple(gen)
    kind = perms.nearly_free_kind(g, n)
    if kind == "neither":
        raise NotNearlyFree(
            f"generator {gen} acts neither freely nor nearly freely on [{n}]"
        )
    return g, gen if isinstance(gen, str) else perms.perm_label(g)


def _k_sets(
    labels: Sequence[str], gen: Sequence[int], k: int, repeat: bool, sep: str,
    order: int,
) -> CyclicAction:
    """The action on the k-subsets of an indexed ground set, or on its
    k-multisets when ``repeat`` is set, induced by the index permutation
    ``gen``; a (multi)set is labelled by its members' labels, the empty one
    by "-".  The three iterables enumerate the same combinations of
    positions, in the same order, all in C."""
    pick = itertools.combinations_with_replacement if repeat else itertools.combinations
    return action_from_objects(
        pick(range(len(labels)), k),
        map(tuple, map(sorted, pick(gen, k))),
        map(sep.join, pick(labels, k)) if k else ("-",),
        order,
    )


def _build_k_sets(params: Mapping, cap: int, repeat: bool) -> CSPInstance:
    """k-multisets (``repeat``) or k-subsets of [n] under a permutation of [n]."""
    name = "multiset" if repeat else "subset"
    n, k = int(params["n"]), int(params["k"])
    if n < 1 or k < 0:
        raise PreconditionError(f"{name} needs n >= 1 and k >= 0")
    top = n + k - 1 if repeat else n
    _check_size(math.comb(top, k), cap)
    g, gen_label = _generator_on_ground(params, n)
    order = _check_order(perms.perm_order(g))
    action = _k_sets(
        [str(x) for x in range(1, n + 1)], [x - 1 for x in g], k, repeat,
        "" if n <= 9 else ",", order,
    )
    p = [("n", n), ("k", k)] + ([("gen", gen_label)] if gen_label else [])
    return CSPInstance(action, gaussian_binomial(top, k), name, tuple(p))


def _build_syt_rect(params: Mapping, cap: int) -> CSPInstance:
    m, n = int(params["m"]), int(params["n"])
    if m < 1 or n < 1:
        raise PreconditionError("syt_rect needs m, n >= 1")
    lam = (n,) * m
    _check_size(tableaux.count_syt(lam), cap)
    order = _check_order(m * n)
    X = tableaux.enumerate_syt(lam, cap=m * n)
    action = action_from_objects(
        X, map(tableaux.promote, X), map(tableaux.tableau_label, X), order
    )
    return CSPInstance(
        action, tableaux.q_count_syt(lam), "syt_rect", (("m", m), ("n", n))
    )


def _build_ncm(params: Mapping, cap: int) -> CSPInstance:
    n = int(params["n"])
    if n < 1:
        raise PreconditionError("ncm needs n >= 1")
    _check_size(catalan.catalan_number(n), cap)
    order = _check_order(2 * n)
    # promotion transports to the clockwise rotation i -> i-1 (mod 2n)
    X = catalan.enumerate_nc_matchings(n, cap=n)
    action = action_from_objects(
        X,
        map(catalan.rotate_blocks, X, itertools.repeat(2 * n), itertools.repeat(-1)),
        map(catalan.matching_label, X),
        order,
    )
    return CSPInstance(action, tableaux.q_count_syt((n, n)), "ncm", (("n", n),))


def _build_ncp(params: Mapping, cap: int) -> CSPInstance:
    n = int(params["n"])
    if n < 1:
        raise PreconditionError("ncp needs n >= 1")
    _check_size(catalan.catalan_number(n), cap)
    order = _check_order(n)
    X = catalan.enumerate_nc_partitions(n, cap=n)
    action = action_from_objects(
        X,
        map(catalan.rotate_blocks, X, itertools.repeat(n)),
        map(catalan.partition_label, X),
        order,
    )
    return CSPInstance(action, q_catalan(n), "ncp", (("n", n),))


def _build_triangulation(params: Mapping, cap: int) -> CSPInstance:
    n = int(params["n"])
    if n < 1:
        raise PreconditionError("triangulation needs n >= 1")
    _check_size(catalan.catalan_number(n), cap)
    order = _check_order(n + 2)
    X = catalan.enumerate_triangulations(n + 2, cap=n + 2)
    action = action_from_objects(
        X,
        map(catalan.rotate_triangulation, X, itertools.repeat(n + 2)),
        map(catalan.triangulation_label, X),
        order,
    )
    return CSPInstance(action, q_catalan(n), "triangulation", (("n", n),))


def _build_conj_class(params: Mapping, cap: int) -> CSPInstance:
    lam = params["lam"]
    if isinstance(lam, str):
        lam = tuple(int(x) for x in lam.split(",") if x)
    lam = tableaux._check_partition(lam)
    n = sum(lam)
    z = math.prod(
        i ** lam.count(i) * math.factorial(lam.count(i)) for i in set(lam)
    )
    _check_size(math.factorial(n) // z, cap)
    order = _check_order(max(n, 1))  # the long cycle of S_0 is the identity
    c = tuple(range(2, n + 1)) + (1,)
    cls = perms.conjugacy_class(lam)
    f = subst_t_q_inverse(perms.maj_exc_genfun(cls))
    action = action_from_objects(
        cls, map(perms.conjugate, itertools.repeat(c), cls), map(perms.perm_label, cls),
        order,
    )
    return CSPInstance(action, f, "conj_class", (("lam", lam),))


def _build_proper_triangulation(params: Mapping, cap: int) -> CSPInstance:
    N = int(params["n"])
    if N < 2 or N % 2:
        raise PreconditionError("proper_triangulation needs even n >= 2")
    half = N // 2
    _check_size(catalan.proper_count(N), cap)
    order = _check_order(N + 2)
    if N == 4:
        # The closed form q_proper_triangulations(2) evaluates to 0 at q=-1,
        # but six proper hexagon triangulations are fixed by the half turn;
        # no polynomial of that factored shape can give 6 there (a mod-2
        # obstruction).  Use the unique degree-<6 polynomial taking the
        # forced values at every sixth root of unity.
        f = IntPolynomial((3, 1, 3, 1, 3, 1))
    else:
        f = q_proper_triangulations(half)
    X = catalan.enumerate_proper_triangulations(N + 2, cap=N + 2)
    action = action_from_objects(
        X,
        map(catalan.rotate_triangulation, X, itertools.repeat(N + 2)),
        map(catalan.triangulation_label, X),
        order,
    )
    return CSPInstance(action, f, "proper_triangulation", (("n", N),))


def _build_cycle(params: Mapping, cap: int) -> CSPInstance:
    n = int(params["n"])
    if n < 1:
        raise PreconditionError("cycle needs n >= 1")
    _check_size(n, cap)
    order = _check_order(n)
    action = action_from_objects(
        range(1, n + 1),
        itertools.chain(range(2, n + 1), (1,)),
        map(str, range(1, n + 1)),
        order,
    )
    return CSPInstance(action, q_int(n), "cycle", (("n", n),))


def _build_plethysm(params: Mapping, cap: int) -> CSPInstance:
    base_id = params["base"]
    k = int(params["k"])
    kind = params.get("kind", "h")
    if kind not in ("h", "e"):
        raise PreconditionError("plethysm kind must be 'h' or 'e'")
    if k < 0:
        raise PreconditionError("plethysm_derived needs k >= 0")
    base_params = {
        key: val for key, val in params.items() if key not in ("base", "k", "kind")
    }
    base = registry_instantiate(base_id, base_params, cap)
    N = base.action.size
    if kind == "h":
        _check_size(math.comb(N + k - 1, k), cap)
        f = plethysm_h(k, base.polynomial)
    else:
        if base.action.order % 2 == 0:
            raise PreconditionError(
                "the e_k construction needs a group of odd order"
            )
        _check_size(math.comb(N, k), cap)
        f = plethysm_e(k, base.polynomial)
    action = _k_sets(
        base.action.labels, base.action.generator, k, kind == "h", ",",
        base.action.order,
    )
    p = (("base", base_id), ("k", k), ("kind", kind)) + base.params
    return CSPInstance(action, f, "plethysm_derived", p)


@dataclass(frozen=True)
class Family:
    name: str
    signature: str
    description: str
    builder: Callable[[Mapping, int], CSPInstance] = field(compare=False)


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "multiset", "--n N --k K [--gen CYCLES]",
            "k-multisets on [n] under a (nearly) free generator; "
            "polynomial [n+k-1 choose k]_q",
            functools.partial(_build_k_sets, repeat=True),
        ),
        Family(
            "subset", "--n N --k K [--gen CYCLES]",
            "k-subsets of [n] under a (nearly) free generator; "
            "polynomial [n choose k]_q",
            functools.partial(_build_k_sets, repeat=False),
        ),
        Family(
            "syt_rect", "--m M --n N",
            "standard tableaux of the m-by-n rectangle under promotion; "
            "q-hooklength polynomial",
            _build_syt_rect,
        ),
        Family(
            "ncm", "--n N",
            "noncrossing perfect matchings on [2n] under rotation; "
            "q-hooklength polynomial of (n,n)",
            _build_ncm,
        ),
        Family(
            "ncp", "--n N",
            "noncrossing partitions of [n] under rotation; q-Catalan",
            _build_ncp,
        ),
        Family(
            "triangulation", "--n N",
            "triangulations of the (n+2)-gon under rotation; q-Catalan",
            _build_triangulation,
        ),
        Family(
            "conj_class", "--lam P1,P2,...",
            "a conjugacy class under conjugation by the long cycle; "
            "maj/exc polynomial at t=1/q",
            _build_conj_class,
        ),
        Family(
            "proper_triangulation", "--n N (even)",
            "proper 2-colored triangulations of the (n+2)-gon under rotation",
            _build_proper_triangulation,
        ),
        Family(
            "cycle", "--n N",
            "the ground set [n] under rotation; polynomial [n]_q",
            _build_cycle,
        ),
        Family(
            "plethysm_derived", "--base FAMILY --k K --kind h|e [base params]",
            "k-multisets (h) or k-subsets (e, odd order) of a base instance",
            _build_plethysm,
        ),
    )
}


def list_families() -> tuple[Family, ...]:
    return tuple(FAMILIES[name] for name in sorted(FAMILIES))


def registry_instantiate(
    family_id: str, params: Mapping, size_cap: int | None = None
) -> CSPInstance:
    """Build the (X, generator, f) triple for a registered family."""
    if family_id not in FAMILIES:
        raise UnknownFamily(family_id)
    fam = FAMILIES[family_id]
    cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
    try:
        return fam.builder(params, cap)
    except UnknownFamily:  # a base family of plethysm_derived
        raise
    except KeyError as exc:
        raise PreconditionError(
            f"family {family_id} needs parameter {exc}; signature: {fam.signature}"
        ) from exc
