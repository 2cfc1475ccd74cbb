"""Noncrossing partitions, noncrossing matchings, and polygon triangulations,
with their rotation actions.

Objects are canonical tuples so equality is structural: a set partition is a
tuple of blocks sorted by minimum (each block a sorted tuple), a matching is
a sorted tuple of (a, b) pairs with a < b, and a triangulation of an n-gon is
a sorted tuple of noncrossing diagonal pairs (vertices 1..n clockwise).
The enumerators return each object once, in the order their recursion makes
them.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import Iterator, Sequence

from .errors import PreconditionError, check_cap
from .qpoly import Texts

__all__ = [
    "SetPartition", "Matching", "Diagonals", "enumerate_nc_partitions",
    "enumerate_nc_matchings", "enumerate_triangulations",
    "enumerate_proper_triangulations", "rotate_blocks", "rotate_triangulation",
    "triangulation_triangles", "is_proper_triangulation", "catalan_number",
    "fuss_catalan", "proper_count", "partition_label", "matching_label",
    "triangulation_label", "NC_CAP",
]

SetPartition = tuple[tuple[int, ...], ...]
Matching = tuple[tuple[int, int], ...]
Diagonals = tuple[tuple[int, int], ...]

NC_CAP = 12


def _nc_blocks(n: int, sizes: Sequence[int]) -> list[SetPartition]:
    """Noncrossing partitions of [n] whose block sizes lie in `sizes`.

    The block holding the least point of a range splits the rest of it into
    gaps: one between each two consecutive members and one after the last.
    A block reaching across a gap's end would cross the leading block, so
    each gap is an independent contiguous range.  Each range is built once
    and cached until the enumeration returns.  Blocks come out in order of
    their minima, so results need no canonicalization.
    """
    @functools.cache
    def build(lo: int, hi: int) -> list[SetPartition]:
        if lo > hi:
            return [()]
        out = []
        for size in sizes:
            for picks in itertools.combinations(range(lo + 1, hi + 1), size - 1):
                block = (lo,) + picks
                gaps = [build(a + 1, b - 1) for a, b in zip(block, picks + (hi + 1,))]
                out.extend(sum(sub, (block,)) for sub in itertools.product(*gaps))
        return out

    parts = build(1, n)
    build.cache_clear()  # build closes over itself: free the ranges now, not at a GC pass
    return parts


def enumerate_nc_partitions(n: int, cap: int = NC_CAP) -> tuple[SetPartition, ...]:
    """All noncrossing partitions of [n]; there are Catalan(n) of them."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    check_cap("noncrossing partition ground set size", n, cap)
    return tuple(_nc_blocks(n, range(1, n + 1)))


def enumerate_nc_matchings(n: int, cap: int = NC_CAP) -> tuple[Matching, ...]:
    """All noncrossing perfect matchings on [2n]; Catalan(n) of them."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    check_cap("noncrossing matching arc count", n, cap)
    return tuple(_nc_blocks(2 * n, (2,)))


def _cells(n: int, proper: bool) -> list[Diagonals]:
    """Triangulations of the n-gon; with `proper`, only those in which no
    triangle has three vertices of one parity.

    The triangle over the edge (lo, hi) of the polygon on lo..hi has an apex
    k between them, and splits the rest into the polygons on lo..k and
    k..hi.  For proper triangulations an apex of the parity of lo and hi is
    pruned there, so every triangle is tested once, when it is made.  Each
    range is built once and cached until the enumeration returns.  It is
    kept with its chord (lo, hi) in place, beside the number of its
    diagonals that start at lo: a triangulation is its two sides
    concatenated, and a chord over it goes in after those diagonals.
    """
    def fill(lo: int, hi: int) -> Iterator[tuple[Diagonals, int]]:
        for k in range(lo + 1, hi):
            if proper and lo % 2 == k % 2 == hi % 2:
                continue
            right = chorded(k, hi)
            for left, j in chorded(lo, k):
                for r, _ in right:
                    yield left + r, j

    @functools.cache
    def chorded(lo: int, hi: int) -> list[tuple[Diagonals, int]]:
        if hi - lo < 2:
            return [((), 0)]
        chord = ((lo, hi),)
        return [(d[:j] + chord + d[j:], j + 1) for d, j in fill(lo, hi)]

    triangulations = [d for d, _ in fill(1, n)]
    chorded.cache_clear()  # the closures form a cycle: free the ranges now, not at a GC pass
    return triangulations


def _check_polygon(n: int, cap: int) -> None:
    if n < 3:
        raise PreconditionError("a polygon needs at least 3 vertices")
    check_cap("triangulated polygon size", n, cap)


def enumerate_triangulations(n: int, cap: int = NC_CAP + 2) -> tuple[Diagonals, ...]:
    """All triangulations of the n-gon by noncrossing diagonals; there are
    Catalan(n-2) of them."""
    _check_polygon(n, cap)
    return tuple(_cells(n, proper=False))


def enumerate_proper_triangulations(n: int, cap: int = NC_CAP + 2) -> tuple[Diagonals, ...]:
    """The triangulations of the n-gon that `is_proper_triangulation`
    accepts, generated directly; there are proper_count(n-2) of them."""
    _check_polygon(n, cap)
    return tuple(_cells(n, proper=True))


# ---------------------------------------------------------------------------
# rotation


def rotate_blocks(blocks: SetPartition, n: int, step: int = 1) -> SetPartition:
    """Rotate every point i of [n] to i + step (mod n), for step 1 or -1.
    Works for set partitions and matchings alike.

    Only the block holding n (step 1) or 1 (step -1) wraps around, and the
    others keep their order: the wrapped block goes to the front (step 1),
    or to its place among them by its new least point (step -1).
    """
    if step == 1:
        out = []
        for b in blocks:
            if b[-1] == n:
                wrapped = (1,) + tuple([x + 1 for x in b[:-1]])
            else:
                out.append(tuple([x + 1 for x in b]))
        return (wrapped,) + tuple(out)
    if step == -1:
        out = [tuple([x - 1 for x in b]) for b in blocks[1:]]
        bisect.insort(out, tuple([x - 1 for x in blocks[0][1:]]) + (n,))
        return tuple(out)
    raise PreconditionError(f"rotate_blocks steps by 1 or -1, not {step}")


def rotate_triangulation(diags: Diagonals, n: int) -> Diagonals:
    """Rotate vertex i to i + 1 (mod n).  The diagonals (a, n) become
    (1, a + 1) and come first, already in order; every other pair keeps its
    place."""
    wrapped = tuple([(1, a + 1) for a, b in diags if b == n])
    return wrapped + tuple([(a + 1, b + 1) for a, b in diags if b != n])


def triangulation_triangles(diags: Diagonals, n: int) -> tuple[tuple[int, int, int], ...]:
    """The n-2 triangles of a triangulation.  Because the diagonals are
    noncrossing chords of a convex polygon, every 3-clique of the edge set
    bounds a face."""
    edges = {tuple(sorted((i + 1, (i + 1) % n + 1))) for i in range(n)}
    edges.update(diags)
    tris = [
        (a, b, c)
        for a, b, c in itertools.combinations(range(1, n + 1), 3)
        if (a, b) in edges and (b, c) in edges and (a, c) in edges
    ]
    if len(diags) == n - 3 and len(tris) != n - 2:
        raise PreconditionError(f"{diags} is not a triangulation of the {n}-gon")
    return tuple(tris)


def is_proper_triangulation(diags: Diagonals, n: int) -> bool:
    """With vertices colored 1,2,1,2,... clockwise, true iff no triangle has
    all three vertices of one color (equal parity)."""
    return all(
        not (a % 2 == b % 2 == c % 2)
        for a, b, c in triangulation_triangles(diags, n)
    )


# ---------------------------------------------------------------------------
# counting


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def fuss_catalan(n: int, m: int) -> int:
    """C((m+1)n, n) / (mn+1); fuss_catalan(n, 1) is the Catalan number."""
    if n < 1 or m < 1:
        raise PreconditionError("fuss_catalan needs n, m >= 1")
    return math.comb((m + 1) * n, n) // (m * n + 1)


def proper_count(N: int) -> int:
    """Number of proper 2-colored triangulations of an (N+2)-gon:
    2^n/(2n+1) C(3n, n) for N = 2n, and 2^(n+1)/(2n+2) C(3n+1, n) for
    N = 2n+1."""
    if N < 1:
        raise PreconditionError("proper_count needs N >= 1")
    n, odd = divmod(N, 2)
    if odd:
        return 2 ** (n + 1) * math.comb(3 * n + 1, n) // (2 * n + 2)
    return 2**n * math.comb(3 * n, n) // (2 * n + 1)


# ---------------------------------------------------------------------------
# canonical labels

# The text of each part (a block or an edge) joined by a separator, made the
# first time a label needs it, so a label joins its parts' texts with no
# Python frame per part.  The families under NC_CAP have at most 4,095
# distinct blocks and 276 distinct edges, of at most 26 characters: all kept.
_DIGITS = Texts(lambda part: "".join(map(str, part)))
_COMMAS = Texts(lambda part: ",".join(map(str, part)))
_DASHES = Texts(lambda part: "-".join(map(str, part)))
_LAST = operator.itemgetter(-1)
_WIDE = (9).__lt__  # an entry above 9 takes the separated style


def partition_label(blocks: SetPartition) -> str:
    """Blocks joined by '|', digit strings while elements fit one digit."""
    texts = _COMMAS if any(map(_WIDE, map(_LAST, blocks))) else _DIGITS
    return "|".join(map(texts.__getitem__, blocks))


def matching_label(edges: Matching) -> str:
    """Edges joined by commas: "18,23,47,56" style for one-digit vertices,
    "1-14" style otherwise."""
    texts = _DASHES if any(map(_WIDE, map(_LAST, edges))) else _DIGITS
    return ",".join(map(texts.__getitem__, edges))


def triangulation_label(diags: Diagonals) -> str:
    return matching_label(diags) if diags else "-"
