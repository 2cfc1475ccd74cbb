"""Seeded request streams for the benchmark workloads.

A workload is a deck of request templates.  Every pass over the deck draws
the parameters that do not change the cost of a request (the labelling of a
free generator, the corrupted coefficient, the conjugacy class of a fixed
n, the checker where both checkers run anyway) from the seed and shuffles
the deck.  The run measures whole decks, so every seed measures the same
mix of instance sizes and the latency percentiles sit on the same
templates from run to run.

Each request carries the facts the oracle checks its output against, all
computed here from closed forms and independent of ``csplab``.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Request:
    """One ``csp-lab`` call and the facts its output must show."""

    argv: tuple[str, ...]
    size: int | None = None  # |X| for verify and orbits
    order: int | None = None  # group order; d for poly cyclotomic
    exit_code: int = 0
    degree: int | None = None  # poly: degree of the printed polynomial
    value_at_1: int | None = None  # poly: its value at q = 1
    poly_key: tuple = ()  # identifies the polynomial, for the sharing property

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def json(self) -> bool:
        return "--json" in self.argv


# ---------------------------------------------------------------------------
# closed forms


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def rectangle_tableaux(m: int, n: int) -> int:
    """Standard tableaux of the m-by-n rectangle, by the hook-length formula."""
    hooks = math.prod((n - j) + (m - i) - 1 for i in range(m) for j in range(n))
    return math.factorial(m * n) // hooks


def class_size(lam: tuple[int, ...]) -> int:
    """Permutations of cycle type lam: n! / prod_i i^m_i m_i!."""
    z = math.prod(i ** lam.count(i) * math.factorial(lam.count(i)) for i in set(lam))
    return math.factorial(sum(lam)) // z


def proper_triangulations(N: int) -> int:
    """Proper 2-coloured triangulations of the (N+2)-gon, N = 2m even:
    2^m C(3m, m) / (2m + 1)."""
    m = N // 2
    return 2**m * math.comb(3 * m, m) // (2 * m + 1)


def totient(d: int) -> int:
    result, rest, p = d, d, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def cyclotomic_at_1(d: int) -> int:
    """Phi_d(1): 0 for d = 1, p for a prime power p^k, 1 otherwise."""
    if d == 1:
        return 0
    p = next(p for p in range(2, d + 1) if d % p == 0)
    while d % p == 0:
        d //= p
    return p if d == 1 else 1


def family_facts(family: str, p: dict) -> tuple[int, int, tuple]:
    """(|X|, group order, polynomial key) of a family instance."""
    if family == "multiset":
        n, k = p["n"], p["k"]
        return math.comb(n + k - 1, k), n, ("qbinom", n + k - 1, k)
    if family == "subset":
        n, k = p["n"], p["k"]
        return math.comb(n, k), n, ("qbinom", n, k)
    if family == "syt_rect":
        m, n = p["m"], p["n"]
        return rectangle_tableaux(m, n), m * n, ("qhook", m, n)
    if family == "ncm":
        return catalan(p["n"]), 2 * p["n"], ("qhook", 2, p["n"])
    if family == "ncp":
        return catalan(p["n"]), p["n"], ("qcatalan", p["n"])
    if family == "triangulation":
        return catalan(p["n"]), p["n"] + 2, ("qcatalan", p["n"])
    if family == "proper_triangulation":
        return proper_triangulations(p["n"]), p["n"] + 2, ("propertri", p["n"])
    if family == "conj_class":
        lam = p["lam"]
        return class_size(lam), sum(lam), ("majexc", lam)
    if family == "cycle":
        return p["n"], p["n"], ("qint", p["n"])
    if family == "plethysm_derived":
        base = {key: v for key, v in p.items() if key not in ("base", "kind", "k")}
        size, order, key = family_facts(p["base"], base)
        k = p["k"]
        count = math.comb(size + k - 1, k) if p["kind"] == "h" else math.comb(size, k)
        return count, order, ("plethysm", p["kind"], k, key)
    raise ValueError(f"no closed form for family {family}")


# ---------------------------------------------------------------------------
# request builders


def _family_argv(command: str, family: str, p: dict) -> list[str]:
    argv = [command, family]
    for key, value in p.items():
        if key == "lam":
            value = ",".join(str(x) for x in value)
        argv += [f"--{key}", str(value)]
    return argv


def verify(
    family: str,
    *,
    json: bool = False,
    checker: str | None = None,
    corrupt: int | None = None,
    **p,
) -> Request:
    size, order, key = family_facts(family, p)
    argv = _family_argv("verify", family, p)
    if checker:
        argv += ["--checker", checker]
    if corrupt is not None:
        argv += ["--corrupt-coeff", str(corrupt)]
    if json:
        argv.append("--json")
    return Request(tuple(argv), size, order, 0 if corrupt is None else 1, poly_key=key)


def orbits(family: str, *, json: bool = False, **p) -> Request:
    size, order, key = family_facts(family, p)
    argv = _family_argv("orbits", family, p) + (["--json"] if json else [])
    return Request(tuple(argv), size, order, poly_key=key)


def poly(name: str, *args: int) -> Request:
    argv = ("poly", name) + tuple(str(a) for a in args)
    if name == "cyclotomic":
        (d,) = args
        return Request(argv, order=d, degree=totient(d),
                       value_at_1=cyclotomic_at_1(d), poly_key=("cyclotomic", d))
    if name == "qbinom":
        n, k = args
        return Request(argv, degree=k * (n - k), value_at_1=math.comb(n, k),
                       poly_key=("qbinom", n, k))
    raise ValueError(f"no closed form for poly {name}")


def free_cycle(rng: random.Random, n: int) -> str:
    """A random relabelling of the long cycle of [n]: same order, same orbit
    sizes, so the same cost as the default generator."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    return "(" + ",".join(map(str, points)) + ")"


# ---------------------------------------------------------------------------
# the decks
#
# Per-request costs measured when the benchmark was added, on a 2-core x86
# machine, set the decks.  Each deck has an odd number of requests, B cheap
# ones, a plateau in the middle and B dearer ones, so each deck's median
# falls in the plateau; the dearest requests come in groups of near-equal
# cost, with p90 inside a group rather than between two.  A deck takes
# about 5 s on enumerate_heavy and 8 s on high_order, so a 50 s run
# measures more than 100 requests in whole decks even when the machine
# runs 1.5 times slower than usual.

# conjugacy classes of S_7: enumerating S_7 dominates, so these cost the same
CLASSES_7 = ((3, 3, 1), (3, 2, 2), (4, 3), (5, 2), (4, 2, 1), (3, 2, 1, 1), (7,))
HIGH_ORDERS = (360, 720, 840, 1260, 2520, 5040)
BOTH = ("both", "roots", "orbits")  # both checkers run at every setting


def enumerate_heavy_deck(rng: random.Random) -> list[Request]:
    def gen(n: int) -> str:
        return free_cycle(rng, n)

    return [
        # cheap (9), under the plateau's cost
        verify("syt_rect", m=3, n=4), verify("syt_rect", m=2, n=7),
        verify("triangulation", n=7), verify("ncm", n=7),
        verify("multiset", n=8, k=6, gen=gen(8)), verify("multiset", n=10, k=5, gen=gen(10)),
        verify("subset", n=12, k=6, gen=gen(12)),
        verify("plethysm_derived", base="cycle", kind="e", k=4, n=15),
        verify("plethysm_derived", base="ncm", kind="h", k=3, n=4),
        # plateau (7), in graded steps, the families interleaved: a catalan,
        # tableaux or perms gain moves its members across the median
        verify("triangulation", n=8), verify("subset", n=14, k=7, gen=gen(14)),
        verify("conj_class", lam=rng.choice(CLASSES_7)),
        verify("conj_class", lam=rng.choice(CLASSES_7)),
        verify("syt_rect", m=2, n=8), verify("syt_rect", m=2, n=8), verify("ncm", n=8),
        # dearer (5), over the plateau's cost
        verify("proper_triangulation", n=8), verify("ncp", n=8),
        verify("subset", n=16, k=8, gen=gen(16)), verify("triangulation", n=9),
        verify("syt_rect", m=3, n=5),
        # dearest (4): p90 falls in the lower pair
        verify("ncp", n=10), verify("syt_rect", m=4, n=4),
        verify("triangulation", n=10), verify("subset", n=18, k=9, gen=gen(18)),
    ]


def high_order_deck(rng: random.Random) -> list[Request]:
    def gen(n: int) -> str:
        return free_cycle(rng, n)

    def checker() -> str:
        return rng.choice(BOTH)

    def cc(order: int) -> int:
        return rng.randrange(order)

    return [
        # cheap once Phi_d is cached (11), under half the plateau's cost
        *(poly("cyclotomic", d) for d in HIGH_ORDERS),
        verify("cycle", n=360, checker=checker()), verify("cycle", n=360, corrupt=cc(360)),
        verify("subset", n=60, k=2, gen=gen(60), checker=checker()),
        orbits("subset", n=60, k=2, gen=gen(60), json=True),
        verify("multiset", n=60, k=2, gen=gen(60), checker=checker()),
        # plateau (7)
        *(verify("multiset", n=90, k=2, gen=gen(90), checker=checker()) for _ in range(7)),
        # dearer (6), twice the plateau's cost or more
        verify("cycle", n=840, checker=checker()), verify("cycle", n=840, corrupt=cc(840)),
        verify("subset", n=120, k=2, gen=gen(120), checker=checker()),
        orbits("subset", n=120, k=2, gen=gen(120)),
        verify("cycle", n=1008, checker=checker(), json=True),
        verify("cycle", n=1260, corrupt=cc(1260)),
        # dearest (5): p90 falls in the lower three
        verify("cycle", n=2520, checker=checker()),
        verify("subset", n=240, k=2, gen=gen(240), checker=checker()),
        verify("cycle", n=1440, checker=checker()),
        verify("subset", n=180, k=2, gen=gen(180), checker=checker()),
        verify("multiset", n=180, k=2, gen=gen(180), checker=checker()),
    ]


@dataclass(frozen=True)
class Workload:
    """A deck of requests; BENCHMARK.json says why each workload exists."""

    name: str
    deck: Callable[[random.Random], list[Request]]
    trace_decks: int  # decks in a traced run: 8-10 s of requests
    probes: tuple[Request, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate_heavy",
            enumerate_heavy_deck,
            trace_decks=2,
        ),
        Workload(
            "high_order",
            high_order_deck,
            trace_decks=1,
            # inputs the caps admit that failed when the benchmark was added; run
            # untimed after the timed loop
            probes=(
                verify("multiset", n=1000, k=1),
                verify("subset", n=1200, k=1),
                poly("qbinom", 1500, 2),
            ),
        ),
    )
}


def decks(workload: str, seed: int) -> Iterator[list[Request]]:
    """The endless, seeded sequence of shuffled decks of a workload."""
    rng = random.Random(f"{workload}/{seed}")
    make = WORKLOADS[workload].deck
    while True:
        deck = make(rng)
        rng.shuffle(deck)
        yield deck


def request_hash(workload: str, seed: int, n_decks: int) -> str:
    """SHA-256 over the argv of the first n_decks decks."""
    h = hashlib.sha256()
    stream = decks(workload, seed)
    for _ in range(n_decks):
        for req in next(stream):
            h.update("\x1f".join(req.argv).encode() + b"\n")
    return h.hexdigest()


def repeat_share(requests: list[Request]) -> float:
    """Share of requests whose polynomial or group order occurred earlier
    in the list: the requests a cache keyed on either could serve."""
    seen_polys: set = set()
    seen_orders: set = set()
    repeats = 0
    for req in requests:
        if req.poly_key in seen_polys or req.order in seen_orders:
            repeats += 1
        seen_polys.add(req.poly_key)
        if req.order is not None:
            seen_orders.add(req.order)
    return repeats / len(requests) if requests else 0.0
