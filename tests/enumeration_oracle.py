"""The first noncrossing generators and rotations, and the first
conjugacy-class enumeration, kept as test oracles.

``csplab.catalan`` builds each contiguous range of points once and reuses
it, and its rotations move only the block or diagonals that wrap around.
This module does the same work the plain way: three separate recursions
that rebuild every gap from its elements, rotations that relabel every
point and sort the result again, and the set-partition filter that the
noncrossing condition is defined by.  ``csplab.perms.conjugacy_class``
generates a class cycle by cycle; here it is S_n filtered by cycle type.
``parse_cycles`` and ``perm_order`` give a ``--gen`` text as the
permutation of [n] and its order, which ``csplab.sieve`` reads off the
cycle type instead.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from csplab.catalan import Diagonals, Matching, SetPartition
from csplab.perms import Permutation, cycles_of, from_cycles, read_cycles


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


def nc_partitions_of(elems: tuple[int, ...]) -> Iterator[SetPartition]:
    """Noncrossing partitions of an increasing element list.

    The block containing the least element splits the rest into independent
    gap segments (between consecutive block members) and a tail; any block
    straddling a boundary would cross the leading block.
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
        for sub in itertools.product(*(nc_partitions_of(seg) for seg in segments)):
            yield (block,) + tuple(itertools.chain.from_iterable(sub))


def nc_matchings_of(verts: tuple[int, ...]) -> Iterator[Matching]:
    """Noncrossing matchings of an increasing vertex list; pairs come out sorted."""
    if not verts:
        yield ()
        return
    first = verts[0]
    for k in range(1, len(verts), 2):
        inner, outer = verts[1:k], verts[k + 1 :]
        for m1 in nc_matchings_of(inner):
            for m2 in nc_matchings_of(outer):
                yield ((first, verts[k]),) + m1 + m2


def triangulations_of(verts: tuple[int, ...]) -> Iterator[Diagonals]:
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
        for left in triangulations_of(verts[: k + 1]):
            for right in triangulations_of(verts[k:]):
                yield tuple(sorted(tuple(diags) + left + right))


def nc_partitions(n: int) -> list[SetPartition]:
    return sorted(nc_partitions_of(tuple(range(1, n + 1))))


def nc_matchings(n: int) -> list[Matching]:
    return sorted(nc_matchings_of(tuple(range(1, 2 * n + 1))))


def triangulations(n: int) -> list[Diagonals]:
    return sorted(triangulations_of(tuple(range(1, n + 1))))


def rotate_blocks(blocks: SetPartition, g: Sequence[int]) -> SetPartition:
    """Relabel every element through the permutation g and re-canonicalize."""
    return canonical_blocks(tuple(g[x - 1] for x in block) for block in blocks)


def rotate_triangulation(diags: Diagonals, n: int) -> Diagonals:
    """Rotate vertex i to i + 1 (mod n), sorting every pair and the result."""
    return tuple(sorted(tuple(sorted((a % n + 1, b % n + 1))) for a, b in diags))


def symmetric_group(n: int) -> Iterator[Permutation]:
    return itertools.permutations(range(1, n + 1))


def parse_cycles(text: str, n: int) -> Permutation:
    return from_cycles(n, read_cycles(text, n))


def perm_order(w: Permutation) -> int:
    return math.lcm(*map(len, cycles_of(w)))


def cycle_type(w: Permutation) -> tuple[int, ...]:
    """Cycle lengths in weakly decreasing order."""
    return tuple(sorted(map(len, cycles_of(w)), reverse=True))


def conjugacy_class(lam: tuple[int, ...]) -> tuple[Permutation, ...]:
    """All permutations with cycle type lam, by filtering S_n."""
    return tuple(w for w in symmetric_group(sum(lam)) if cycle_type(w) == tuple(lam))
