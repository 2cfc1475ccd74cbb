"""Noncrossing partitions, noncrossing matchings, and polygon triangulations,
with their rotation actions.

Objects are canonical tuples so equality is structural: a set partition is a
tuple of blocks sorted by minimum (each block a sorted tuple), a matching is
a sorted tuple of (a, b) pairs with a < b, and a triangulation of an n-gon is
a sorted tuple of noncrossing diagonal pairs (vertices 1..n clockwise).
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, PreconditionError

__all__ = [
    "SetPartition", "Matching", "Diagonals", "canonical_blocks",
    "is_noncrossing", "enumerate_set_partitions", "enumerate_nc_partitions",
    "enumerate_nc_matchings", "enumerate_triangulations",
    "rotate_blocks", "rotate_triangulation", "triangulation_triangles",
    "is_proper_triangulation", "catalan_number", "fuss_catalan",
    "proper_count", "partition_label", "matching_label",
    "triangulation_label", "NC_CAP",
]

SetPartition = tuple[tuple[int, ...], ...]
Matching = tuple[tuple[int, int], ...]
Diagonals = tuple[tuple[int, int], ...]

NC_CAP = 12


def canonical_blocks(blocks: Iterable[Iterable[int]]) -> SetPartition:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def is_noncrossing(blocks: SetPartition) -> bool:
    """No a < c < b < d with a, b in one block and c, d in another.
    Literal four-index scan; quick at these sizes."""
    owner: dict[int, int] = {}
    for idx, block in enumerate(blocks):
        for x in block:
            owner[x] = idx
    elems = sorted(owner)
    for a, c, b, d in itertools.combinations(elems, 4):
        if owner[a] == owner[b] != owner[c] == owner[d]:
            return False
    return True


def enumerate_set_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n] (restricted-growth enumeration)."""
    if n == 0:
        yield ()
        return
    assignment = [0] * n

    def grow(i: int, blocks: int) -> Iterator[SetPartition]:
        if i == n:
            out: list[list[int]] = [[] for _ in range(blocks)]
            for x, b in enumerate(assignment, start=1):
                out[b].append(x)
            yield canonical_blocks(out)
            return
        for b in range(blocks + 1):
            assignment[i] = b
            yield from grow(i + 1, max(blocks, b + 1))

    yield from grow(0, 0)


def _nc_partitions_of(elems: tuple[int, ...]) -> Iterator[SetPartition]:
    """Noncrossing partitions of an increasing element list.

    The block containing the least element splits the rest into independent
    gap segments (between consecutive block members) and a tail; any block
    straddling a boundary would cross the leading block.  Blocks come out
    in order of their minima, so results need no canonicalization.
    """
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for picks in itertools.chain.from_iterable(
        itertools.combinations(range(len(rest)), r) for r in range(len(rest) + 1)
    ):
        block = (first,) + tuple(rest[i] for i in picks)
        bounds = list(picks) + [len(rest)]
        segments = []
        prev = -1
        for b in bounds:
            segments.append(rest[prev + 1 : b])
            prev = b
        for sub in itertools.product(*(_nc_partitions_of(seg) for seg in segments)):
            yield (block,) + tuple(itertools.chain.from_iterable(sub))


def enumerate_nc_partitions(n: int, cap: int = NC_CAP) -> tuple[SetPartition, ...]:
    """All noncrossing partitions of [n]; there are Catalan(n) of them."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n > cap:
        raise CapExceeded(f"noncrossing partitions capped at n <= {cap}")
    return tuple(sorted(_nc_partitions_of(tuple(range(1, n + 1)))))


def _nc_matchings_of(verts: tuple[int, ...]) -> Iterator[Matching]:
    """Noncrossing matchings of an increasing vertex list; pairs come out sorted."""
    if not verts:
        yield ()
        return
    first = verts[0]
    for k in range(1, len(verts), 2):
        inner, outer = verts[1:k], verts[k + 1 :]
        for m1 in _nc_matchings_of(inner):
            for m2 in _nc_matchings_of(outer):
                yield ((first, verts[k]),) + m1 + m2


def enumerate_nc_matchings(n: int, cap: int = NC_CAP) -> tuple[Matching, ...]:
    """All noncrossing perfect matchings on [2n]; Catalan(n) of them."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n > cap:
        raise CapExceeded(f"noncrossing matchings capped at n <= {cap}")
    return tuple(sorted(_nc_matchings_of(tuple(range(1, 2 * n + 1)))))


def _triangulations_of(verts: tuple[int, ...]) -> Iterator[Diagonals]:
    """Triangulations of the polygon on the given vertex cycle, as diagonal
    sets; recursion on the triangle over the edge (first, last)."""
    m = len(verts)
    if m < 3:
        yield ()
        return
    first, last = verts[0], verts[-1]
    for k in range(1, m - 1):
        apex = verts[k]
        diags = []
        if k > 1:
            diags.append(tuple(sorted((first, apex))))
        if k < m - 2:
            diags.append(tuple(sorted((apex, last))))
        for left in _triangulations_of(verts[: k + 1]):
            for right in _triangulations_of(verts[k:]):
                yield tuple(sorted(tuple(diags) + left + right))


def enumerate_triangulations(n: int, cap: int = NC_CAP + 2) -> tuple[Diagonals, ...]:
    """All triangulations of the n-gon by noncrossing diagonals; there are
    Catalan(n-2) of them."""
    if n < 3:
        raise PreconditionError("a polygon needs at least 3 vertices")
    if n > cap:
        raise CapExceeded(f"triangulations capped at polygon size {cap}")
    return tuple(sorted(_triangulations_of(tuple(range(1, n + 1)))))


# ---------------------------------------------------------------------------
# rotation


def rotate_blocks(blocks: SetPartition, g: Sequence[int]) -> SetPartition:
    """Relabel every element through the permutation g and re-canonicalize.
    Works for set partitions and matchings alike."""
    return canonical_blocks(tuple(g[x - 1] for x in block) for block in blocks)


def rotate_triangulation(diags: Diagonals, n: int, step: int = 1) -> Diagonals:
    """Rotate vertex i to i + step (mod n)."""
    def move(v: int) -> int:
        return (v - 1 + step) % n + 1

    return tuple(sorted(tuple(sorted((move(a), move(b)))) for a, b in diags))


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


def _seq_label(seq: Sequence[int], compact: bool) -> str:
    if compact:
        return "".join(str(x) for x in seq)
    return ",".join(str(x) for x in seq)


def partition_label(blocks: SetPartition) -> str:
    """Blocks joined by '|', digit strings while elements fit one digit."""
    compact = all(x <= 9 for b in blocks for x in b)
    return "|".join(_seq_label(b, compact) for b in blocks)


def matching_label(edges: Matching) -> str:
    """Edges joined by commas: "18,23,47,56" style for one-digit vertices,
    "1-14" style otherwise."""
    if all(b <= 9 for _, b in edges):
        return ",".join(f"{a}{b}" for a, b in edges)
    return ",".join(f"{a}-{b}" for a, b in edges)


def triangulation_label(diags: Diagonals) -> str:
    return matching_label(diags) if diags else "-"
