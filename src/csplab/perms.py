"""Permutations of [n] = {1, ..., n} in one-line notation, their statistics,
and conjugacy classes.

A permutation is a tuple w with w[i-1] = w(i); composition is right to left.
"""
from __future__ import annotations

import collections
import itertools
import math
import re
from typing import Iterable, Iterator

from .errors import CapExceeded, PreconditionError
from .qpoly import BivariatePolynomial, IntPolynomial
from .tableaux import _check_partition

__all__ = [
    "Permutation", "identity", "compose", "inverse", "perm_order",
    "from_cycles", "cycles_of", "parse_cycles", "perm_label",
    "symmetric_group", "stat", "stat_genfun", "cycle_type",
    "conjugacy_class", "conjugate", "maj_exc_genfun", "nearly_free_kind",
    "CLASS_CAP",
]

Permutation = tuple[int, ...]

CLASS_CAP = 8  # full S_n is filtered for class enumeration; 8! is trivial

STATISTICS = ("inv", "maj", "des", "exc")


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(v: Permutation, w: Permutation) -> Permutation:
    """(v o w)(i) = v(w(i))."""
    return tuple(v[x - 1] for x in w)


def inverse(w: Permutation) -> Permutation:
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def cycles_of(w: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting at its minimum, sorted by minimum.
    Raises PreconditionError when w is not a permutation of [len(w)]: the
    walk then leaves [1, len(w)] or meets a point before its cycle closes."""
    n = len(w)
    seen = [False] * n
    cycles = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        x = w[start - 1]
        while x != start:
            if not 1 <= x <= n or seen[x - 1]:
                raise PreconditionError(f"{w} is not a permutation of [{n}]")
            cyc.append(x)
            seen[x - 1] = True
            x = w[x - 1]
        cycles.append(tuple(cyc))
    return cycles


def perm_order(w: Permutation) -> int:
    return math.lcm(*(len(c) for c in cycles_of(w))) if w else 1


def from_cycles(n: int, cycles: Iterable[Iterable[int]]) -> Permutation:
    """Permutation of [n] from disjoint cycles; unlisted points are fixed."""
    out = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        cyc = list(cyc)
        for a in cyc:
            if not 1 <= a <= n:
                raise PreconditionError(f"cycle entry {a} outside [{n}]")
            if a in seen:
                raise PreconditionError(f"cycles are not disjoint at {a}")
            seen.add(a)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            out[a - 1] = b
    return tuple(out)


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(1,2)(3,4)" into a permutation of [n]."""
    text = text.strip()
    if not re.fullmatch(r"(\(\s*\d+(\s*,\s*\d+)*\s*\))+", text):
        raise PreconditionError(f"cannot parse cycle notation: {text!r}")
    cycles = [
        [int(x) for x in group.split(",")]
        for group in re.findall(r"\(([^()]*)\)", text)
    ]
    return from_cycles(n, cycles)


def perm_label(w: Permutation) -> str:
    """Canonical one-line encoding: digits for n <= 9, else comma-joined."""
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def symmetric_group(n: int) -> Iterator[Permutation]:
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# statistics


def stat(w: Permutation, which: str) -> int:
    """One of the four classical statistics.

    inv: pairs i<j with w(i)>w(j); des/maj: count and sum of the descent
    positions {i : w(i)>w(i+1)}; exc: positions with w(i)>i.
    """
    if which == "inv":
        return sum(
            1
            for i, j in itertools.combinations(range(len(w)), 2)
            if w[i] > w[j]
        )
    if which == "des":
        return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])
    if which == "maj":
        return sum(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])
    if which == "exc":
        return sum(1 for i, x in enumerate(w, start=1) if x > i)
    raise PreconditionError(f"unknown statistic {which!r}; pick from {STATISTICS}")


def stat_genfun(X: Iterable[Permutation], which: str) -> IntPolynomial:
    """Weight generating function: the sum of q^stat(w) over w in X."""
    return IntPolynomial.from_exponents(collections.Counter(stat(w, which) for w in X))


# ---------------------------------------------------------------------------
# cycle type and conjugacy


def cycle_type(w: Permutation) -> tuple[int, ...]:
    """Cycle lengths in weakly decreasing order."""
    return tuple(sorted((len(c) for c in cycles_of(w)), reverse=True))


def conjugacy_class(lam: tuple[int, ...], cap: int = CLASS_CAP) -> tuple[Permutation, ...]:
    """All permutations with the given cycle type, by filtering S_n."""
    lam = _check_partition(lam)
    n = sum(lam)
    if n > cap:
        raise CapExceeded(f"conjugacy class enumeration capped at n <= {cap}")
    return tuple(w for w in symmetric_group(n) if cycle_type(w) == lam)


def conjugate(c: Permutation, w: Permutation) -> Permutation:
    """c w c^-1, i.e. relabel w's cycle entries through c."""
    c_inv = inverse(c)
    return tuple(c[w[c_inv[i - 1] - 1] - 1] for i in range(1, len(w) + 1))


def maj_exc_genfun(X: Iterable[Permutation]) -> BivariatePolynomial:
    """Joint distribution: the sum of q^maj(w) t^exc(w) over w in X."""
    return BivariatePolynomial(
        collections.Counter((stat(w, "maj"), stat(w, "exc")) for w in X))


def nearly_free_kind(g: Permutation, N: int) -> str:
    """Classify g's action on [N]: "free" if every cycle has length equal to
    the order of g, "nearly_free" if additionally exactly one fixed point is
    allowed, "neither" otherwise."""
    if len(g) != N:
        raise PreconditionError(f"generator must permute [{N}]")
    n = perm_order(g)
    lengths = sorted((len(c) for c in cycles_of(g)), reverse=True)
    if all(l == n for l in lengths):
        return "free"
    if lengths.count(1) == 1 and all(l == n for l in lengths[:-1]):
        return "nearly_free"
    return "neither"
