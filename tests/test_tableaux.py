"""Tableau combinatorics: hooklengths, promotion, evacuation, insertion."""

import itertools
import math
from collections import Counter

import pytest

import labels_oracle
import tableaux_oracle
from csplab import cli
from csplab import tableaux as tb
from csplab.errors import CapExceeded, PreconditionError
from csplab.qpoly import IntPolynomial, q_catalan


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_hooklengths():
    assert tb.hooklengths((5, 4, 4, 2)) == (
        (8, 7, 5, 4, 1),
        (6, 5, 3, 2),
        (5, 4, 2, 1),
        (2, 1),
    )
    assert tb.hooklengths((5, 4, 4, 2))[1][1] == 5
    assert tb.hooklengths((3, 2)) == ((4, 3, 1), (2, 1))
    assert tb.hooklengths((1,)) == ((1,),)


def test_count_syt():
    assert tb.count_syt((3, 2)) == 5
    assert tb.count_syt((3, 3)) == 5
    assert tb.count_syt((7,)) == 1
    assert tb.count_syt((2, 2)) == 2


def test_q_count_syt():
    assert tb.q_count_syt((3, 2)) == IntPolynomial([1, 1, 1, 1, 1])
    assert tb.q_count_syt((6,)) == IntPolynomial([1])
    assert tb.q_count_syt((3, 3)) == IntPolynomial([1, 0, 1, 1, 1, 0, 1])
    assert tb.q_count_syt((3, 3)) == q_catalan(3)


@pytest.mark.parametrize("n", range(9))
def test_enumerate_matches_count(n):
    for lam in _partitions(n):
        tabs = tb.enumerate_syt(lam, cap=8)
        assert len(tabs) == tb.count_syt(lam)
        assert len(set(tabs)) == len(tabs)
        assert all(tb.is_standard(T) for T in tabs)
        assert tb.q_count_syt(lam)(1) == len(tabs)


def test_enumerate_syt_golden():
    assert sorted(tb.enumerate_syt((3, 2))) == [
        ((1, 2, 3), (4, 5)),
        ((1, 2, 4), (3, 5)),
        ((1, 2, 5), (3, 4)),
        ((1, 3, 4), (2, 5)),
        ((1, 3, 5), (2, 4)),
    ]
    assert tb.enumerate_syt((1, 1, 1)) == (((1,), (2,), (3,)),)
    assert len(tb.enumerate_syt((2, 2))) == 2
    with pytest.raises(CapExceeded):
        tb.enumerate_syt((8, 8))


def test_promote_golden():
    assert tb.promote(((1, 3, 5), (2, 4, 6), (7,))) == ((1, 2, 4), (3, 5, 7), (6,))
    row = ((1, 2, 3, 4, 5),)
    assert tb.promote(row) == row
    cycle_a = [((1, 2, 3), (4, 5, 6)), ((1, 2, 5), (3, 4, 6)), ((1, 3, 4), (2, 5, 6))]
    cycle_b = [((1, 2, 4), (3, 5, 6)), ((1, 3, 5), (2, 4, 6))]
    for cyc in (cycle_a, cycle_b):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert tb.promote(a) == b


@pytest.mark.parametrize("n", range(1, 8))
def test_promote_bijection(n):
    for lam in _partitions(n):
        tabs = tb.enumerate_syt(lam, cap=7)
        images = {tb.promote(T) for T in tabs}
        assert len(images) == len(tabs) and images == set(tabs)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
def test_promotion_order_on_rectangles(m, n):
    lam = (n,) * m
    for T in tb.enumerate_syt(lam, cap=m * n):
        S = T
        for _ in range(m * n):
            S = tb.promote(S)
        assert S == T


def test_evacuate_golden():
    assert tb.evacuate(((1, 3, 6), (2, 4), (5,))) == ((1, 2, 5), (3, 6), (4,))
    assert tb.evacuate(((1,),)) == ((1,),)


@pytest.mark.parametrize("n", range(1, 8))
def test_evacuate_involution(n):
    for lam in _partitions(n):
        for T in tb.enumerate_syt(lam, cap=7):
            assert tb.evacuate(tb.evacuate(T)) == T


_ORACLE_SHAPES = [lam for n in range(11) for lam in _partitions(n)] + [
    (n,) * m for m in range(1, 5) for n in range(1, 5) if m * n > 10
]


@pytest.mark.parametrize("lam", _ORACLE_SHAPES, ids=str)
def test_flat_tableaux_match_oracle(lam):
    """Level-by-level enumeration, the slide over neighbour tables and the
    per-cell label texts equal the recursive fill, the slide on rows and the
    labels joined row by row, and the same enumeration, slide and label
    templates on tuples, on every partition of n <= 10 and on the
    rectangles up to 4x4.  Flat tableaux are bytes, read through tuple()."""
    n = sum(lam)
    expected = tableaux_oracle.enumerate_syt(lam)
    tabs = tb.enumerate_syt(lam, cap=n)
    assert sorted(tabs) == sorted(expected)
    flat = tb.enumerate_syt_flat(lam, cap=n)
    assert all(type(F) is bytes for F in flat)
    as_tuples = list(map(tuple, flat))
    assert as_tuples == [tuple(x for row in T for x in row) for T in tabs]
    assert as_tuples == tableaux_oracle.enumerate_syt_flat(lam)
    below, right = tb.neighbour_tables(lam)
    X, images, labels = tb.promotion_of_syt(lam, cap=n)
    assert X == flat
    labels = list(labels)
    assert labels == list(labels_oracle.tableau_labels(lam, flat))
    for T, F, label in zip(tabs, flat, labels, strict=True):
        image = tableaux_oracle.promote(T)
        assert tb.promote(T) == image
        if n:
            G = tb.promote_flat(F, below, right)
            assert type(G) is bytes
            assert tuple(G) == tuple(x for row in image for x in row)
            assert tuple(G) == tableaux_oracle.promote_flat(tuple(F), below, right)
        assert label == tableaux_oracle.tableau_label(T) == tb.tableau_label(T)
    if n:
        assert list(images) == [tb.promote_flat(F, below, right) for F in flat]


def _corners(mu):
    return tuple((r, p) for r, p in enumerate(mu) if r + 1 == len(mu) or mu[r + 1] < p)


def test_growths_keep_shapes_as_their_corners():
    """Each shape inside lam grows at every addable row, to the corners of
    the grown shape, with the new cell after the cells of rows 0..r."""
    for lam in [lam for n in range(8) for lam in _partitions(n)]:
        for mu in {nu for n in range(sum(lam)) for nu in _partitions(n)}:
            if len(mu) > len(lam) or any(a > b for a, b in zip(mu, lam)):
                continue
            grown = []
            for r in range(min(len(mu) + 1, len(lam))):
                nu = list(mu) + [0] * (r + 1 - len(mu))
                nu[r] += 1
                if nu[r] <= lam[r] and (r == 0 or nu[r] <= nu[r - 1]):
                    grown.append((sum(nu[:r + 1]) - 1, _corners(tuple(nu))))
            assert list(tb._growths(_corners(mu), lam)) == grown


@pytest.mark.parametrize("lam", [
    (4, 4, 4, 4), (5, 5, 5), (8, 8), (2,) * 6, (3, 2, 1), (6, 3, 3, 1),
    (7,), (1,) * 7, (5, 1), (),
])
def test_q_count_syt_matches_q_factorial_quotient(lam):
    assert tb.q_count_syt(lam) == tableaux_oracle.q_count_syt(lam)


def test_long_row_and_column_are_one_tableau(monkeypatch, capsys):
    """A flat tableau is bytes, so 254 cells enumerate and 255 are refused
    before any level is built; a longer row or column goes through the
    counted rectangle, which enumerates nothing."""
    for lam in ((254,), (1,) * 254):
        (T,) = tb.enumerate_syt_flat(lam, cap=3000)
        assert T == bytes(range(1, 255))
        assert tb.promote_flat(T, *tb.neighbour_tables(lam)) == T
    for T in ((tuple(range(1, 256)),), tuple((x,) for x in range(1, 256))):
        with pytest.raises(CapExceeded, match="^flat tableau cell count 255 exceeds the cap 254$"):
            tb.enumerate_syt_flat(tb.shape(T), cap=3000)
        with pytest.raises(CapExceeded):
            tb.promote(T)
    for lam in ((3000,), (1,) * 3000):
        assert tb.q_count_syt(lam) == IntPolynomial([1])

    def refuse(*args, **kwargs):
        raise AssertionError("a row or a column is counted, not enumerated")

    monkeypatch.setattr(tb, "promotion_of_syt", refuse)
    for m, n, label in ((1, 3000, ",".join(map(str, range(1, 3001)))),
                        (3000, 1, "/".join(map(str, range(1, 3001))))):
        assert cli.main(["verify", "syt_rect", "--m", str(m), "--n", str(n)]) == 0
        assert capsys.readouterr().out.endswith("verdict: PASS\n")
        assert cli.main(["orbits", "syt_rect", "--m", str(m), "--n", str(n)]) == 0
        assert f"orbit size    1  stab 3000  {label}\n" in capsys.readouterr().out


def test_slides_built_from_promotion_match_oracle():
    """Evacuation, built from promotion, equals the hand-written slide among
    freezing cells on every standard tableau with at most 9 cells."""
    tabs = [T for n in range(10) for lam in _partitions(n) for T in tb.enumerate_syt(lam)]
    assert len(tabs) == 3736
    for T in tabs:
        assert tb.evacuate(T) == tableaux_oracle.evacuate(T)


def _staircase(n):
    return tuple(range(n, 0, -1))


def test_iota_golden():
    assert tb.pon_wang_iota(((1, 3, 6), (2, 4), (5,))) == (
        (1, 3, 6),
        (2, 4, 8),
        (5, 7, 11),
        (9, 10, 12),
    )
    assert tb.pon_wang_iota(((1,),)) == ((1,), (2,))
    with pytest.raises(PreconditionError):
        tb.pon_wang_iota(((1, 2), (3, 4)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_iota_commutes_with_promotion(n):
    for T in tb.enumerate_syt(_staircase(n), cap=12):
        assert tb.promote(tb.pon_wang_iota(T)) == tb.pon_wang_iota(tb.promote(T))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_staircase_promotion_power_is_transpose(n):
    N = n * (n + 1) // 2
    for T in tb.enumerate_syt(_staircase(n), cap=N):
        S = T
        for _ in range(N):
            S = tb.promote(S)
        assert S == tb.transpose_tableau(T)


def test_rsk_word_golden():
    P, Q = tb.rsk_word((3, 1, 4, 5, 2))
    assert P == ((1, 2, 5), (3, 4))
    assert Q == ((1, 3, 4), (2, 5))
    P, Q = tb.rsk_word((1, 2, 3, 4))
    assert P == Q == ((1, 2, 3, 4),)


@pytest.mark.parametrize("n", range(7))
def test_rsk_bijection_and_square_sum(n):
    shapes = {}
    pairs = set()
    for w in itertools.permutations(range(1, n + 1)):
        P, Q = tb.rsk_word(w)
        assert tb.shape(P) == tb.shape(Q)
        assert tb.is_standard(P) and tb.is_standard(Q)
        pairs.add((P, Q))
        shapes[tb.shape(P)] = shapes.get(tb.shape(P), 0) + 1
    # rsk_word is injective on S_n: n! distinct pairs
    assert len(pairs) == sum(shapes.values()) == math.factorial(n)
    assert sum(tb.count_syt(lam) ** 2 for lam in _partitions(n)) == math.factorial(n)
    for lam, cnt in shapes.items():
        assert cnt == tb.count_syt(lam) ** 2


def test_rsk_matrix_golden():
    P, Q = tb.rsk_matrix([[1, 2, 0], [1, 0, 1]])
    assert P == ((1, 1, 2, 3), (2,))
    assert Q == ((1, 1, 1, 2), (2,))
    assert tb.rsk_matrix([[0, 0], [0, 0]]) == ((), ())


def test_rsk_matrix_permutation_case():
    w = (3, 1, 4, 5, 2)
    M = [[1 if w[i] == j + 1 else 0 for j in range(5)] for i in range(5)]
    assert tb.rsk_matrix(M) == tb.rsk_word(w)


def _matrices(nrows, ncols, total):
    cells = nrows * ncols
    for entries in itertools.product(range(total + 1), repeat=cells):
        if sum(entries) <= total:
            yield tuple(
                tuple(entries[r * ncols : (r + 1) * ncols]) for r in range(nrows)
            )


@pytest.mark.parametrize("nrows,ncols,total", [(2, 2, 4), (2, 3, 4), (3, 3, 3)])
def test_rsk_matrix_roundtrip(nrows, ncols, total):
    def strip(seq):
        out = list(seq)
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def content(T):
        counts = Counter(x for row in T for x in row)
        return strip(counts[x] for x in range(1, max(counts, default=0) + 1))

    matrices = list(_matrices(nrows, ncols, total))
    pairs = set()
    for M in matrices:
        P, Q = tb.rsk_matrix(M)
        assert tb.is_semistandard(P) and tb.is_semistandard(Q)
        assert tb.shape(P) == tb.shape(Q)
        # content of P is the column sums, content of Q the row sums
        assert content(P) == strip(sum(col) for col in zip(*M))
        assert content(Q) == strip(sum(row) for row in M)
        pairs.add((P, Q))
    assert len(pairs) == len(matrices)  # no two matrices share a pair


def test_ballot():
    assert tb.ballot_sequence(((1, 3, 5), (2, 4, 6), (7,))) == (1, 2, 1, 2, 1, 2, 3)
    assert tb.ballot_sequence(((1, 2, 3),)) == (1, 1, 1)
    assert tb.ballot_sequence(((1, 2), (3, 4))) == (1, 1, 2, 2)
    with pytest.raises(PreconditionError):
        tb.ballot_sequence(((2, 3), (1,)))


def test_tableau_to_matching_golden():
    assert tb.tableau_to_matching(((1, 2, 4, 5), (3, 6, 7, 8))) == (
        (1, 8),
        (2, 3),
        (4, 7),
        (5, 6),
    )
    assert tb.tableau_to_matching(((1, 2), (3, 4))) == ((1, 4), (2, 3))
    with pytest.raises(PreconditionError):
        tb.tableau_to_matching(((1, 2, 3), (4, 5)))


@pytest.mark.parametrize("n", range(1, 7))
def test_tableau_matching_bijection(n):
    tabs = tb.enumerate_syt((n, n), cap=2 * n)
    images = {tb.tableau_to_matching(T) for T in tabs}
    assert len(images) == len(tabs) == math.comb(2 * n, n) // (n + 1)


def test_tableau_labels():
    assert tb.tableau_label(((1, 2, 5), (3, 4))) == "125/34"
    assert tb.tableau_label(((1, 2, 10), (3, 11))) == "1,2,10/3,11"
