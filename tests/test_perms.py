"""Permutation statistics, classes, and the free/nearly-free classification."""

import math
from collections import Counter

import pytest
from child import run_child
from enumeration_oracle import conjugacy_class as filtered_class
from enumeration_oracle import cycle_type, cycles_of, parse_cycles, perm_order, symmetric_group
from hypothesis import given, strategies as st

from csplab import perms, tableaux
from csplab.errors import CapExceeded, PreconditionError
from csplab.qpoly import (
    BivariatePolynomial,
    IntPolynomial,
    eulerian_poly,
    gaussian_binomial,
    q_factorial,
    subst_t_q_inverse,
)


def test_cycles_and_order():
    g = perms.from_cycles(9, [(1, 5, 2), (3, 7), (4, 8, 9)])
    assert cycles_of(g) == [(1, 5, 2), (3, 7), (4, 8, 9), (6,)]
    assert cycle_type(g) == (3, 3, 2, 1)
    assert perm_order(g) == 6
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((1, 2, 3, 4)) == (1, 1, 1, 1)


@pytest.mark.parametrize("w", [(2, 2), (1, 1, 3), (0,), (5,), (2, 3, 1, 1)])
def test_non_permutations_are_rejected_not_walked_forever(w):
    done = run_child(code=(
        "from csplab import perms\n"
        "from csplab.errors import PreconditionError\n"
        "try:\n"
        f"    perms.index_cycles((0, *{w!r}))\n"
        "except PreconditionError as exc:\n"
        "    assert 'is not a permutation of' in str(exc), exc\n"
        "else:\n"
        "    raise SystemExit('the walk of (0, *w) accepted the input')\n"
    ))
    assert done.returncode == 0, done.stderr


def test_index_cycles():
    assert perms.index_cycles((4, 0, 2, 1, 3)) == [(0, 4, 3, 1), (2,)]
    assert perms.index_cycles(()) == []
    # the oracle cycles_of reads the same walk, of (0, *w)
    assert cycles_of((5, 1, 3, 2, 4)) == [(1, 5, 4, 2), (3,)]


@pytest.mark.parametrize("gen", [
    (0, 0), (1, 1), (1, 2, 1), (2, 0, 0),  # a point with two preimages
    (-1, 0), (0, -2),  # negative entries, which Python would wrap
    (0, 2), (1,),  # an entry past the end
])
def test_index_cycles_rejects_0_based_non_permutations(gen):
    done = run_child(code=(
        "from csplab import perms\n"
        "from csplab.errors import PreconditionError\n"
        "try:\n"
        f"    perms.index_cycles({gen!r})\n"
        "except PreconditionError as exc:\n"
        "    assert str(exc) == perms.NOT_A_PERMUTATION, exc\n"
        "else:\n"
        "    raise SystemExit('index_cycles accepted the input')\n"
    ))
    assert done.returncode == 0, done.stderr


def test_parse_cycles():
    assert perms.read_cycles("(1,2)(3,4)", 5) == [[1, 2], [3, 4]]
    assert parse_cycles("(1,2)(3,4)", 5) == (2, 1, 4, 3, 5)
    with pytest.raises(PreconditionError):
        perms.read_cycles("1 2 3", 3)
    with pytest.raises(PreconditionError):
        perms.read_cycles("(1,2)(2,3)", 3)
    # leading zeros are not digits of the value; a longer entry is outside [n]
    assert parse_cycles("(0001,03)", 3) == (3, 2, 1)
    with pytest.raises(PreconditionError, match=r"^cycle entry outside \[9\]$"):
        perms.read_cycles("(1,10)", 9)
    with pytest.raises(PreconditionError, match="cannot parse"):
        perms.read_cycles("(1,\u0662)", 3)  # an Arabic-Indic 2


def test_statistics_golden():
    w = (3, 1, 5, 2, 4)
    assert perms.stat(w, "inv") == 4
    assert perms.stat(w, "maj") == 4
    assert perms.stat(w, "des") == 2
    assert perms.stat(w, "exc") == 2
    assert perms.stat((2, 3, 1), "exc") == 2
    for which in perms.STATISTICS:
        assert perms.stat(tuple(range(1, 7)), which) == 0


def test_table_of_four_statistics_on_s3():
    table = {
        (1, 2, 3): (0, 0, 0, 0),
        (1, 3, 2): (1, 2, 1, 1),
        (2, 1, 3): (1, 1, 1, 1),
        (2, 3, 1): (2, 2, 1, 2),
        (3, 1, 2): (2, 1, 1, 1),
        (3, 2, 1): (3, 3, 2, 1),
    }
    for w, (inv, maj, des, exc) in table.items():
        assert perms.stat(w, "inv") == inv
        assert perms.stat(w, "maj") == maj
        assert perms.stat(w, "des") == des
        assert perms.stat(w, "exc") == exc


def _stat_genfun(X, which):
    """The sum of q^stat(w) over w in X."""
    return IntPolynomial.from_exponents(Counter(perms.stat(w, which) for w in X))


@pytest.mark.parametrize("n", range(7))
def test_inv_maj_mahonian(n):
    Sn = list(symmetric_group(n))
    assert _stat_genfun(Sn, "inv") == q_factorial(n)
    assert _stat_genfun(Sn, "maj") == q_factorial(n)


@pytest.mark.parametrize("n", range(9))
def test_des_exc_eulerian(n):
    Sn = list(symmetric_group(n))
    f = _stat_genfun(Sn, "des")
    assert f == _stat_genfun(Sn, "exc")
    assert f == eulerian_poly(n)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(n + 1)])
def test_minimal_coset_reps_inv_genfun(n, k):
    # permutations increasing on the first k and on the last n-k positions
    reps = [
        w
        for w in symmetric_group(n)
        if all(w[i] < w[i + 1] for i in range(k - 1))
        and all(w[i] < w[i + 1] for i in range(k, n - 1))
    ]
    assert _stat_genfun(reps, "inv") == gaussian_binomial(n, k)


def test_conjugacy_classes():
    assert set(perms.conjugacy_class((3,))) == {(2, 3, 1), (3, 1, 2)}
    assert perms.conjugacy_class((1, 1, 1, 1)) == ((1, 2, 3, 4),)
    assert set(perms.conjugacy_class((2, 1))) == {(2, 1, 3), (1, 3, 2), (3, 2, 1)}
    with pytest.raises(CapExceeded):
        perms.conjugacy_class((9,))
    with pytest.raises(PreconditionError):
        perms.conjugacy_class((1, 2))


def _class_size(lam):
    n = sum(lam)
    z = math.prod(i ** lam.count(i) * math.factorial(lam.count(i)) for i in set(lam))
    return math.factorial(n) // z


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("n", range(1, 7))
def test_classes_partition_sn(n):
    total = 0
    for lam in _partitions(n):
        cls = perms.conjugacy_class(lam)
        assert len(cls) == _class_size(lam)
        total += len(cls)
    assert total == math.factorial(n)


def test_maj_exc_genfun():
    def over_class(lam):
        return perms.maj_exc_genfun(perms.conjugacy_class(lam))

    assert over_class((3,)) == BivariatePolynomial({(2, 2): 1, (1, 1): 1})
    assert over_class((1, 1, 1)) == BivariatePolynomial({(0, 0): 1})
    assert over_class((2, 1)) == BivariatePolynomial(
        {(1, 1): 1, (2, 1): 1, (3, 1): 1}
    )
    assert subst_t_q_inverse(over_class((3,))) == IntPolynomial([2])
    assert perms.maj_exc_genfun(()) == BivariatePolynomial()


@pytest.mark.parametrize("lam", [(2, 0), (1, 2), (-1,)])
def test_one_partition_check(lam):
    # perms and tableaux share tableaux._check_partition
    with pytest.raises(PreconditionError, match="is not a partition"):
        perms.conjugacy_class(lam)
    with pytest.raises(PreconditionError, match="is not a partition"):
        tableaux.count_syt(lam)


@pytest.mark.parametrize("n", range(9))
def test_conjugacy_class_is_the_filtered_class(n):
    """Generating each class cycle by cycle gives every permutation of S_n
    with that cycle type, once."""
    for lam in _partitions(n):
        cls = perms.conjugacy_class(lam)
        expected = filtered_class(lam)
        assert len(cls) == len(expected) and set(cls) == set(expected), lam


def _kind(w):
    return perms.cycle_type_kind(Counter(cycle_type(w)))


def test_nearly_free_kind():
    assert _kind(parse_cycles("(1,2)(3,4)(5,6)", 6)) == "free"
    assert _kind(parse_cycles("(1,2)(3,4)(5,6)", 7)) == "nearly_free"
    assert _kind(parse_cycles("(1,2,4)(3,5)", 5)) == "neither"
    assert _kind((1, 2, 3, 4)) == "free"
    assert _kind(parse_cycles("(1,2)", 4)) == "neither"
    assert _kind((2, 3, 1, 4)) == "nearly_free"
    # read off the cycle type alone, at any n
    assert perms.cycle_type_kind({1: 10**10}) == "free"
    assert perms.cycle_type_kind({2: 1, 1: 10**10 - 2}) == "neither"
    assert perms.cycle_type_kind({6: 10**9, 1: 1}) == "nearly_free"


@pytest.mark.parametrize("n", range(1, 8))
def test_nearly_free_divisibility(n):
    for w in symmetric_group(n):
        kind = _kind(w)
        if kind != "neither":
            o = perm_order(w)
            assert n % o == 0 or (n - 1) % o == 0


@given(st.permutations(list(range(1, 8))))
def test_conjugate_preserves_cycle_type(w):
    w = tuple(w)
    c = tuple(range(2, 8)) + (1,)
    assert cycle_type(perms.conjugate(c, w)) == cycle_type(w)


@given(st.permutations(list(range(1, 7))))
def test_inverse_involution(w):
    w = tuple(w)
    assert perms.inverse(perms.inverse(w)) == w
    assert tuple(w[x - 1] for x in perms.inverse(w)) == tuple(range(1, 7))
    assert perms.stat(perms.inverse(w), "inv") == perms.stat(w, "inv")
