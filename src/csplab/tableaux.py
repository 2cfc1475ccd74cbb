"""Partitions, Young tableaux, promotion, evacuation, and row insertion.

Tableaux are tuples of row tuples in English notation, addressed (row,
column) 1-based.  A standard tableau of shape lam holds 1..n with rows and
columns strictly increasing; a semistandard one weakly increases along rows
and strictly down columns.

Standard tableaux are enumerated and promoted as flat ``bytes`` of their
entries read row by row, the shape held apart, so a shape has at most
``FLAT_CELL_CAP`` = 254 cells: every entry and promotion's sentinel n + 1
fit in a byte.  ``enumerate_syt``, ``promote`` and ``tableau_label``
convert from and to row tuples around that flat code.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import Iterator, Sequence

from .errors import InternalInvariantError, PreconditionError, check_cap
from .qpoly import DEGREE_CAP, IntPolynomial, q_ratio

__all__ = [
    "Tableau", "shape", "is_standard", "is_semistandard",
    "tableau_label", "hooklengths", "count_syt", "q_count_syt",
    "enumerate_syt", "promote", "evacuate",
    "enumerate_syt_flat", "promote_flat", "neighbour_tables", "label_template",
    "promotion_of_syt",
    "transpose_tableau", "pon_wang_iota", "rsk_word", "rsk_matrix",
    "ballot_sequence", "tableau_to_matching",
    "SYT_CELL_CAP", "FLAT_CELL_CAP",
]

Tableau = tuple[tuple[int, ...], ...]
Flat = bytes  # a tableau's entries read row by row

SYT_CELL_CAP = 12  # default bound on cells for single-shape enumeration
FLAT_CELL_CAP = 254  # a flat tableau's entries and the sentinel n + 1 are bytes


def _check_partition(lam: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(lam)
    if any(p <= 0 for p in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise PreconditionError("the sequence is not a partition: parts must be positive "
                                "and weakly decreasing")
    return lam


def shape(T: Tableau) -> tuple[int, ...]:
    return tuple(len(row) for row in T)


def is_standard(T: Tableau) -> bool:
    n = sum(len(row) for row in T)
    entries = sorted(x for row in T for x in row)
    if entries != list(range(1, n + 1)):
        return False
    return is_semistandard(T) and all(
        row[j] < row[j + 1] for row in T for j in range(len(row) - 1)
    )


def is_semistandard(T: Tableau) -> bool:
    lam = shape(T)
    if lam and tuple(sorted(lam, reverse=True)) != lam:
        return False
    for row in T:
        if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(T) - 1):
        for j in range(len(T[i + 1])):
            if T[i][j] >= T[i + 1][j]:
                return False
    return True


def tableau_label(T: Tableau) -> str:
    """Rows joined by '/'; digit strings while entries fit in one digit."""
    flat = _flatten(T)
    return label_template(shape(T), max(flat, default=0) <= 9).format(*flat)


@functools.lru_cache(maxsize=256)
def label_template(lam: tuple[int, ...], digits: bool) -> str:
    """The label of a flat tableau of shape lam is ``template.format(*T)``:
    one field per cell, rows joined by '/', cells by ',' unless ``digits``."""
    sep = "" if digits else ","
    return "/".join(sep.join(["{}"] * p) for p in lam)


def _flatten(T: Tableau) -> tuple[int, ...]:
    return tuple(itertools.chain.from_iterable(T))


def _unflatten(T: Sequence[int], lam: Sequence[int]) -> Tableau:
    ends = tuple(itertools.accumulate(lam))
    return tuple(tuple(T[end - p:end]) for p, end in zip(lam, ends))


# ---------------------------------------------------------------------------
# hooklengths and counts


def hooklengths(lam: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Hooklength of each cell: arm + leg + 1."""
    lam = _check_partition(lam)
    cols = [sum(1 for p in lam if p >= j + 1) for j in range(lam[0] if lam else 0)]
    return tuple(
        tuple(lam[i] - (j + 1) + cols[j] - (i + 1) + 1 for j in range(lam[i]))
        for i in range(len(lam))
    )


def count_syt(lam: Sequence[int]) -> int:
    """Number of standard tableaux of shape lam: n! over the hook product."""
    lam = _check_partition(lam)
    n = sum(lam)
    hooks = math.prod(h for row in hooklengths(lam) for h in row)
    count, rem = divmod(math.factorial(n), hooks)
    if rem:
        raise InternalInvariantError(f"hook product does not divide {n}!")
    return count


def q_count_syt(lam: Sequence[int]) -> IntPolynomial:
    """q-analogue of count_syt: [n]_q! divided by the product of the
    q-analogues of the hooklengths.  q_ratio cancels the hooklengths
    against 1..n first, so a long row or column multiplies nothing out."""
    lam = _check_partition(lam)
    check_cap("q_count_syt cell count", sum(lam), DEGREE_CAP)  # q_ratio's factors a side
    return q_ratio(range(1, sum(lam) + 1), [h for row in hooklengths(lam) for h in row])


def enumerate_syt(lam: Sequence[int], cap: int = SYT_CELL_CAP) -> tuple[Tableau, ...]:
    """All standard tableaux of shape lam, as row tuples."""
    lam = _check_partition(lam)
    return tuple(_unflatten(T, lam) for T in enumerate_syt_flat(lam, cap))


def _growths(corners: tuple, lam: tuple[int, ...]) -> Iterator[tuple[int, tuple]]:
    """Each way to add a cell to a shape inside lam: the cell's flat position
    and the new shape.  A shape is held as its corners, the (row, length) of
    each row longer than the row below it, top to bottom; a cell can go in
    row 0 or in the row just below a corner, so no row is scanned."""
    above = 0  # cells in the rows above row i
    prev_row, prev_len = -1, 0
    for k in range(len(corners) + 1):
        i = prev_row + 1
        nxt = corners[k] if k < len(corners) else None
        length = nxt[1] if nxt else 0
        if i < len(lam) and length < lam[i]:
            head = corners[:k - 1] if prev_len == length + 1 else corners[:k]
            tail = corners[k + 1:] if nxt and nxt[0] == i else corners[k:]
            yield above + length, head + ((i, length + 1),) + tail
        if nxt:
            above += (nxt[0] - prev_row) * nxt[1]
            prev_row, prev_len = nxt


def enumerate_syt_flat(lam: Sequence[int], cap: int = SYT_CELL_CAP) -> list[Flat]:
    """All standard tableaux of shape lam as flat ``bytes``, built level by
    level.  Level m maps each shape of m cells inside lam to its fillings
    by 1..m, and each cell the shape can take extends all of them with one
    slice and concatenation.  A shape of more than ``FLAT_CELL_CAP`` cells
    is refused whatever ``cap`` says."""
    lam = _check_partition(lam)
    n = sum(lam)
    check_cap("shape cell count", n, cap)
    check_cap("flat tableau cell count", n, FLAT_CELL_CAP)
    level: dict[tuple, list[Flat]] = {(): [b""]}
    for m in range(1, n + 1):
        cell = bytes((m,))
        nxt: dict[tuple, list[Flat]] = {}
        for corners, fillings in level.items():
            for pos, child in _growths(corners, lam):
                nxt.setdefault(child, []).extend([T[:pos] + cell + T[pos:] for T in fillings])
        level = nxt
    (fillings,) = level.values()
    return fillings


# ---------------------------------------------------------------------------
# promotion and evacuation


def promote(T: Tableau) -> Tableau:
    """Promotion of a standard tableau given as row tuples (see
    ``promote_flat``), of at most ``FLAT_CELL_CAP`` cells."""
    lam = shape(T)
    if not any(lam):
        return T
    check_cap("flat tableau cell count", sum(lam), FLAT_CELL_CAP)
    return _unflatten(promote_flat(_flatten(T), *neighbour_tables(lam)), lam)


@functools.lru_cache(maxsize=256)
def neighbour_tables(lam: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each cell of lam in flat order, the flat index of the cell below
    it and of the cell to its right; n, one past the last cell, where there
    is none."""
    n = sum(lam)
    below: list[int] = []
    right: list[int] = []
    start = 0
    for r, p in enumerate(lam):
        under = lam[r + 1] if r + 1 < len(lam) else 0
        below += [start + p + c if c < under else n for c in range(p)]
        right += [start + c + 1 if c + 1 < p else n for c in range(p)]
        start += p
    return tuple(below), tuple(right)


def promotion_of_syt(
    lam: Sequence[int], cap: int = SYT_CELL_CAP
) -> tuple[list[Flat], Iterator[Flat], Iterator[str]]:
    """The standard tableaux of shape lam as flat ``bytes``, and their
    images under promotion and their labels as iterables aligned with them,
    made by ``map`` with no Python frame per tableau.  A label is the texts
    of its cells joined: ``texts[i][v]`` is entry v followed by cell i's
    separator, so a label reads one string per cell and parses nothing."""
    lam = _check_partition(lam)
    X = enumerate_syt_flat(lam, cap)
    below, right = neighbour_tables(lam)
    texts = _cell_texts(lam)
    return (
        X,
        map(promote_flat, X, itertools.repeat(below), itertools.repeat(right)),
        map("".join, map(map, itertools.repeat(operator.getitem), itertools.repeat(texts), X)),
    )


def _cell_texts(lam: tuple[int, ...]) -> list[tuple[str, ...]]:
    """For each cell of lam in flat order, the text of each entry 0..n
    followed by the cell's separator in ``label_template``'s layout: '/'
    after a row's last cell, nothing after the tableau's last, and between
    cells of a row nothing while n <= 9, else ','."""
    n = sum(lam)
    sep = "" if n <= 9 else ","
    seps = [sep] * n
    for end in itertools.accumulate(lam):
        seps[end - 1] = "/"
    if n:
        seps[-1] = ""
    values = list(map(str, range(n + 1)))
    return [tuple([v + s for v in values]) for s in seps]


_DECREMENT = bytes((0, *range(255)))  # bytes.translate table: v -> v - 1


def promote_flat(T: Sequence[int], below: Sequence[int], right: Sequence[int]) -> Flat:
    """Promotion: remove the 1, slide the hole to a corner by always
    exchanging with the smaller of the neighbors below and to the right,
    then decrement everything and write n in the freed corner.  T is a
    nonempty flat standard tableau of at most ``FLAT_CELL_CAP`` cells, and
    ``below`` and ``right`` are the ``neighbour_tables`` of its shape;
    index n holds n + 1, larger than every entry, so a missing neighbour is
    never the smaller."""
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
    return bytes(t).translate(_DECREMENT)


def evacuate(T: Tableau) -> Tableau:
    """Evacuation: for m = n, ..., 1, promote the tableau of entries 1..m;
    the cell that receives m keeps it and drops out.  An involution on
    standard tableaux."""
    out = [list(row) for row in T]
    rows = T
    for m in range(sum(map(len, T)), 0, -1):
        rows = promote(rows)
        r = next(r for r, row in enumerate(rows) if row and row[-1] == m)
        out[r][len(rows[r]) - 1] = m
        rows = rows[:r] + (rows[r][:-1],) + rows[r + 1:]
    return tuple(map(tuple, out))


def transpose_tableau(T: Tableau) -> Tableau:
    """Reflect through the main diagonal: cell (i,j) goes to (j,i)."""
    if not T:
        return T
    return tuple(
        tuple(T[i][j] for i in range(len(T)) if j < len(T[i]))
        for j in range(len(T[0]))
    )


def pon_wang_iota(T: Tableau) -> Tableau:
    """Embed a staircase tableau of shape (n, n-1, ..., 1) into a rectangle
    of shape (n^(n+1)): evacuate, complement entries through n(n+1)+1,
    reflect in the anti-diagonal, and paste below/right of the original.
    Commutes with promotion."""
    lam = shape(T)
    n = len(lam)
    if lam != tuple(range(n, 0, -1)) or not is_standard(T):
        raise PreconditionError("input must be a standard staircase tableau")
    total = n * (n + 1)
    comp = tuple(
        tuple(total + 1 - x for x in row) for row in evacuate(T)
    )
    out = []
    for r in range(1, n + 2):
        row = []
        for c in range(1, n + 1):
            if r <= n and c <= lam[r - 1]:
                row.append(T[r - 1][c - 1])
            else:
                row.append(comp[n - c][n + 1 - r])
        out.append(tuple(row))
    result = tuple(out)
    if not is_standard(result):
        raise InternalInvariantError("pasted tableau is not standard")
    return result


# ---------------------------------------------------------------------------
# row insertion


def _insert(rows: list[list[int]], record: list[list[int]], x: int, mark: int) -> None:
    """Insert x by bumping; write mark into the recording rows at the new cell."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([x])
            record.append([mark])
            return
        row = rows[r]
        lo = bisect.bisect_right(row, x)  # leftmost entry strictly greater than x
        if lo == len(row):
            row.append(x)
            record[r].append(mark)
            return
        row[lo], x = x, row[lo]
        r += 1


def rsk_word(w: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Row-insert w(1), ..., w(n); P is the insertion tableau and Q records
    the growth, giving the classical bijection with same-shape pairs."""
    rows: list[list[int]] = []
    record: list[list[int]] = []
    for step, x in enumerate(w, start=1):
        _insert(rows, record, x, step)
    P = tuple(tuple(r) for r in rows)
    Q = tuple(tuple(r) for r in record)
    return P, Q


def rsk_matrix(M: Sequence[Sequence[int]]) -> tuple[Tableau, Tableau]:
    """Knuth's generalization: expand M into the lexicographic two-line
    array with column (i over j) repeated M[i][j] times, insert the bottom
    row, and record the top row."""
    if any(len(row) != len(M[0]) for row in M):
        raise PreconditionError("matrix rows must have equal length")
    if any(x < 0 for row in M for x in row):
        raise PreconditionError("matrix entries must be nonnegative")
    rows: list[list[int]] = []
    record: list[list[int]] = []
    for i, row in enumerate(M, start=1):
        for j, mult in enumerate(row, start=1):
            for _ in range(mult):
                _insert(rows, record, j, i)
    P = tuple(tuple(r) for r in rows)
    Q = tuple(tuple(r) for r in record)
    return P, Q


# ---------------------------------------------------------------------------
# ballot words and matchings


def ballot_sequence(T: Tableau) -> tuple[int, ...]:
    """b_m is the row containing m; standardness makes every prefix have at
    least as many i's as (i+1)'s, which is re-checked here."""
    if not is_standard(T):
        raise PreconditionError("ballot sequences are read off standard tableaux")
    n = sum(len(r) for r in T)
    b = [0] * n
    for r, row in enumerate(T, start=1):
        for x in row:
            b[x - 1] = r
    counts = [0] * (len(T) + 1)
    for x in b:
        counts[x] += 1
        if x > 1 and counts[x] > counts[x - 1]:
            raise InternalInvariantError("prefix condition failed")
    return tuple(b)


def tableau_to_matching(T: Tableau) -> tuple[tuple[int, int], ...]:
    """Two-row rectangular tableaux to noncrossing perfect matchings: read
    the ballot word as parentheses (row 1 opens, row 2 closes) and match
    them.  Promotion corresponds to rotating vertex i to i-1 (mod 2n)."""
    lam = shape(T)
    if len(lam) != 2 or lam[0] != lam[1]:
        raise PreconditionError("need a tableau of shape (n, n)")
    stack: list[int] = []
    edges = []
    for pos, r in enumerate(ballot_sequence(T), start=1):
        if r == 1:
            stack.append(pos)
        else:
            edges.append((stack.pop(), pos))
    return tuple(sorted(edges))
