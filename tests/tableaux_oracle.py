"""Test oracle for the tableau code: recursive fill and hand-written slides.

``csplab.tableaux`` enumerates, promotes and labels standard tableaux as
flat row-major ``bytes``: enumeration level by level over shapes, promotion
by one slide over per-shape neighbour tables, labels from a per-cell text
table.  It builds evacuation from promotion: it promotes the tableau
of entries 1..m for m = n, ..., 1.  This module keeps the direct forms on
row tuples instead: the recursive row-wise fill, the slide on rows, labels
joined row by row, the q-count with [n]_q! multiplied out, and evacuation
sliding among cells that freeze as they are filled.  It also keeps the flat
code's former forms on tuples of ints, which hold entries of any size: the
level-by-level enumeration and the slide over neighbour tables.
"""

from typing import Iterator, Sequence

from csplab.qpoly import IntPolynomial
from csplab.tableaux import Tableau, _growths, hooklengths
from qpoly_oracle import exact_divide, product


def enumerate_syt(lam: tuple[int, ...]) -> tuple[Tableau, ...]:
    """All standard tableaux of the partition lam, by filling 1..n row-wise
    under the usual column constraint; lexicographic in the ballot word."""
    n = sum(lam)
    rows: list[list[int]] = [[] for _ in lam]

    def fill(m: int) -> Iterator[Tableau]:
        if m > n:
            yield tuple(tuple(row) for row in rows)
            return
        for r in range(len(lam)):
            if len(rows[r]) < lam[r] and (r == 0 or len(rows[r - 1]) > len(rows[r])):
                rows[r].append(m)
                yield from fill(m + 1)
                rows[r].pop()

    return tuple(fill(1))


def enumerate_syt_flat(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All standard tableaux of shape lam as flat tuples, level by level in
    the order ``tableaux.enumerate_syt_flat`` makes them."""
    level: dict[tuple, list[tuple[int, ...]]] = {(): [()]}
    for m in range(1, sum(lam) + 1):
        nxt: dict[tuple, list[tuple[int, ...]]] = {}
        for corners, fillings in level.items():
            for pos, child in _growths(corners, lam):
                nxt.setdefault(child, []).extend([T[:pos] + (m,) + T[pos:] for T in fillings])
        level = nxt
    (fillings,) = level.values()
    return fillings


def promote_flat(T: tuple[int, ...], below: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    """Promotion of a nonempty flat tuple over its shape's neighbour tables:
    the slide of ``tableaux.promote_flat`` ending in a tuple of ints."""
    n = len(T)
    t = [*T, n + 1]
    i = 0
    while True:
        b, r = below[i], right[i]
        if t[b] < t[r]:
            t[i] = t[b]
            i = b
        elif r < n:
            t[i] = t[r]
            i = r
        else:
            break
    t[i] = n + 1
    del t[n]
    return tuple(x - 1 for x in t)


def q_count_syt(lam: tuple[int, ...]) -> IntPolynomial:
    """[n]_q! multiplied out as a product of q-integers, divided by every
    hooklength's q-integer; neither side goes through ``q_ratio``."""
    hooks = [h for row in hooklengths(lam) for h in row]
    return exact_divide(product(range(1, sum(lam) + 1)), product(hooks))


def promote(T: Tableau) -> Tableau:
    """Remove the 1, slide the hole to a corner by always exchanging with
    the smaller of the neighbors below and to the right, then decrement
    everything and write n in the freed corner."""
    rows = [list(row) for row in T]
    n = sum(len(r) for r in rows)
    if n == 0:
        return T
    i = j = 0
    while True:
        below = rows[i + 1][j] if i + 1 < len(rows) and j < len(rows[i + 1]) else None
        right = rows[i][j + 1] if j + 1 < len(rows[i]) else None
        if below is None and right is None:
            break
        if right is None or (below is not None and below < right):
            rows[i][j] = below
            i += 1
        else:
            rows[i][j] = right
            j += 1
    out = [[x - 1 for x in row] for row in rows]
    out[i][j] = n
    return tuple(tuple(row) for row in out)


def tableau_label(T: Tableau) -> str:
    """Rows joined by '/'; digit strings while entries fit in one digit."""
    if all(x <= 9 for row in T for x in row):
        return "/".join("".join(str(x) for x in row) for row in T)
    return "/".join(",".join(str(x) for x in row) for row in T)


def evacuate(T: Tableau) -> Tableau:
    """n truncated promotions: after the i-th slide the freed cell receives
    n-i+1 and freezes; frozen cells block later slides."""
    rows = [list(row) for row in T]
    n = sum(len(r) for r in rows)
    frozen = [[False] * len(row) for row in rows]

    def movable(r: int, c: int) -> int | None:
        if r < len(rows) and c < len(rows[r]) and not frozen[r][c]:
            return rows[r][c]
        return None

    for step in range(n):
        i = j = 0
        while True:
            below = movable(i + 1, j)
            right = movable(i, j + 1)
            if below is None and right is None:
                break
            if right is None or (below is not None and below < right):
                rows[i][j] = below
                i += 1
            else:
                rows[i][j] = right
                j += 1
        for r, row in enumerate(rows):
            for c in range(len(row)):
                if not frozen[r][c]:
                    row[c] -= 1
        rows[i][j] = n - step
        frozen[i][j] = True
    return tuple(tuple(row) for row in rows)
