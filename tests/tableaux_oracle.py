"""Test oracle for evacuation and inverse promotion: hand-written slides.

``csplab.tableaux`` builds both from ``promote``: evacuation promotes the
tableau of entries 1..m for m = n, ..., 1, and inverse promotion is
evacuation, promotion, evacuation.  This module keeps the direct slides
instead: evacuation slides among cells that freeze as they are filled, and
inverse promotion slides the hole from n's cell back to the origin.
"""

from csplab.tableaux import Tableau


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


def promote_inverse(T: Tableau) -> Tableau:
    """Remove n, slide the hole back to (1,1) exchanging with the larger of
    the neighbors above and to the left, increment, and write 1 at the
    origin."""
    rows = [list(row) for row in T]
    n = sum(len(r) for r in rows)
    if n == 0:
        return T
    i, j = next(
        (r, c) for r, row in enumerate(rows) for c, x in enumerate(row) if x == n
    )
    while (i, j) != (0, 0):
        above = rows[i - 1][j] if i > 0 else None
        left = rows[i][j - 1] if j > 0 else None
        if left is None or (above is not None and above > left):
            rows[i][j] = above
            i -= 1
        else:
            rows[i][j] = left
            j -= 1
    out = [[x + 1 for x in row] for row in rows]
    out[0][0] = 1
    return tuple(tuple(row) for row in out)
