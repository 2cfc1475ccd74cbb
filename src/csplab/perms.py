"""Permutations of [n] = {1, ..., n} in one-line notation, their statistics,
and conjugacy classes.

A permutation is a tuple w with w[i-1] = w(i); composition is right to left.
"""
from __future__ import annotations

import collections
import itertools
import math
import re
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError, check_cap
from .qpoly import BivariatePolynomial
from .tableaux import _check_partition

__all__ = [
    "Permutation", "inverse",
    "from_cycles", "index_cycles", "read_cycles", "perm_label",
    "stat",
    "conjugacy_class", "conjugate", "maj_exc_genfun", "cycle_type_kind",
    "CLASS_CAP",
]

Permutation = tuple[int, ...]

CLASS_CAP = 8  # a class of S_8 has at most 8!/7 = 5,760 members

STATISTICS = ("inv", "maj", "des", "exc")

NOT_A_PERMUTATION = "generator is not a permutation of the indices"


def inverse(w: Permutation) -> Permutation:
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def index_cycles(gen: Sequence[int]) -> list[tuple[int, ...]]:
    """The cycles of a permutation of the indices 0..len(gen)-1, each from
    its least member, in order of least member.  Raises PreconditionError
    when gen is not one: after one bounds check every entry is an index, so
    a walk that closes on a point other than its start has met a point with
    two preimages."""
    n = len(gen)
    if n and not 0 <= min(gen) <= max(gen) < n:
        raise PreconditionError(NOT_A_PERMUTATION)
    seen = [False] * n
    cycles = []
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
            raise PreconditionError(NOT_A_PERMUTATION)
        cycles.append(tuple(members))
    return cycles


def from_cycles(n: int, cycles: Iterable[Iterable[int]]) -> Permutation:
    """Permutation of [n] from disjoint cycles; unlisted points are fixed."""
    out = list(range(1, n + 1))
    for cyc in _disjoint_cycles(n, cycles):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            out[a - 1] = b
    return tuple(out)


def _disjoint_cycles(n: int, cycles: Iterable[Iterable[int]]) -> list[list[int]]:
    """The cycles as lists, once each entry is in [n] and none repeats."""
    out: list[list[int]] = []
    seen: set[int] = set()
    for cyc in cycles:
        cyc = list(cyc)
        for a in cyc:
            if not 1 <= a <= n:
                raise PreconditionError(f"cycle entry {a} outside [{n}]")
            if a in seen:
                raise PreconditionError(f"cycles are not disjoint at {a}")
            seen.add(a)
        out.append(cyc)
    return out


def read_cycles(text: str, n: int) -> list[list[int]]:
    """Parse cycle notation like "(1,2)(3,4)" into disjoint cycles on [n],
    building nothing of size n.  Entries are ASCII digits; one whose value
    has more digits than n (a nonzero digit and as many more) is outside
    [n] before it is converted.  No message repeats the text."""
    text = text.strip()
    if not re.fullmatch(r"(\(\s*[0-9]+(\s*,\s*[0-9]+)*\s*\))+", text):
        raise PreconditionError("cannot parse the cycle notation; write each cycle as (a,b,...)")
    if re.search(f"[1-9][0-9]{{{len(str(n))}}}", text):
        raise PreconditionError(f"cycle entry outside [{n}]")
    return _disjoint_cycles(n, (
        [int(x.strip().lstrip("0") or 0) for x in group.split(",")]
        for group in re.findall(r"\(([^()]*)\)", text)
    ))


def perm_label(w: Permutation) -> str:
    """Canonical one-line encoding: digits for n <= 9, else comma-joined."""
    if len(w) <= 9:
        return "".join(map(str, w))
    return ",".join(map(str, w))


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


# ---------------------------------------------------------------------------
# cycle type and conjugacy


def conjugacy_class(lam: tuple[int, ...], cap: int = CLASS_CAP) -> tuple[Permutation, ...]:
    """All permutations with cycle type lam.  The cycle through the least
    point not yet placed takes each distinct length left in lam, and each
    arrangement of that many other unplaced points after it, so every
    permutation of the class is made once."""
    lam = _check_partition(lam)
    n = sum(lam)
    check_cap("conjugacy class ground set size", n, cap)
    w = list(range(n + 1))  # w[i] = w(i); index 0 is unused
    out = []

    def place(free: tuple[int, ...], lengths: list[int]) -> None:
        if not free:
            out.append(tuple(w[1:]))
            return
        first, rest = free[0], free[1:]
        for length in dict.fromkeys(lengths):
            left = lengths.copy()
            left.remove(length)
            for others in itertools.permutations(rest, length - 1):
                cycle = (first, *others)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    w[a] = b
                place(tuple(x for x in rest if x not in others), left)

    place(tuple(range(1, n + 1)), list(lam))
    return tuple(out)


def conjugate(c: Permutation, w: Permutation) -> Permutation:
    """c w c^-1, i.e. relabel w's cycle entries through c."""
    c_inv = inverse(c)
    return tuple(c[w[c_inv[i - 1] - 1] - 1] for i in range(1, len(w) + 1))


def maj_exc_genfun(X: Iterable[Permutation]) -> BivariatePolynomial:
    """Joint distribution: the sum of q^maj(w) t^exc(w) over w in X."""
    return BivariatePolynomial(
        collections.Counter((stat(w, "maj"), stat(w, "exc")) for w in X))


def cycle_type_kind(lengths: Mapping[int, int]) -> str:
    """Classify a permutation by its {cycle length: count}: "free" if every
    cycle has length equal to its order, "nearly_free" if additionally
    exactly one fixed point is allowed, "neither" otherwise."""
    order = math.lcm(*lengths)
    shorter = {length: count for length, count in lengths.items() if length != order}
    return "free" if not shorter else "nearly_free" if shorter == {1: 1} else "neither"
