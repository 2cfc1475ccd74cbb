"""Permutation statistics, classes, and the free/nearly-free classification."""

import math
import os
import subprocess
import sys

import pytest
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
from csplab.sieve import registry_instantiate


def test_compose_right_to_left():
    v = (2, 1, 3)
    w = (3, 1, 2)
    assert perms.compose(v, w) == tuple(v[w[i] - 1] for i in range(3))
    assert perms.compose(v, perms.inverse(v)) == perms.identity(3)


def test_cycles_and_order():
    g = perms.from_cycles(9, [(1, 5, 2), (3, 7), (4, 8, 9)])
    assert perms.cycles_of(g) == [(1, 5, 2), (3, 7), (4, 8, 9), (6,)]
    assert perms.cycle_type(g) == (3, 3, 2, 1)
    assert perms.perm_order(g) == 6
    assert perms.cycle_type((2, 3, 1)) == (3,)
    assert perms.cycle_type(perms.identity(4)) == (1, 1, 1, 1)


@pytest.mark.parametrize("w", [(2, 2), (1, 1, 3), (0,), (5,), (2, 3, 1, 1)])
def test_non_permutations_are_rejected_not_walked_forever(w):
    # in a child process, so that a walk that never ends fails the test
    # through the timeout instead of stalling the suite
    code = (
        "from csplab import perms\n"
        "from csplab.errors import PreconditionError\n"
        "for fn in (perms.cycles_of, perms.perm_order, perms.cycle_type):\n"
        "    try:\n"
        f"        fn({w!r})\n"
        "    except PreconditionError as exc:\n"
        "        assert 'is not a permutation of' in str(exc), exc\n"
        "    else:\n"
        "        raise SystemExit(f'{fn.__name__} accepted the input')\n"
    )
    src = os.path.dirname(os.path.dirname(perms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert done.returncode == 0, done.stderr


def test_parse_cycles():
    assert perms.parse_cycles("(1,2)(3,4)", 5) == (2, 1, 4, 3, 5)
    with pytest.raises(PreconditionError):
        perms.parse_cycles("1 2 3", 3)
    with pytest.raises(PreconditionError):
        perms.parse_cycles("(1,2)(2,3)", 3)


def test_statistics_golden():
    w = (3, 1, 5, 2, 4)
    assert perms.stat(w, "inv") == 4
    assert perms.stat(w, "maj") == 4
    assert perms.stat(w, "des") == 2
    assert perms.stat(w, "exc") == 2
    assert perms.stat((2, 3, 1), "exc") == 2
    for which in perms.STATISTICS:
        assert perms.stat(perms.identity(6), which) == 0


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


def test_stat_genfun_s3():
    f = perms.stat_genfun(perms.symmetric_group(3), "inv")
    assert f == IntPolynomial([1, 2, 2, 1]) == q_factorial(3)


@pytest.mark.parametrize("n", range(7))
def test_inv_maj_mahonian(n):
    Sn = list(perms.symmetric_group(n))
    assert perms.stat_genfun(Sn, "inv") == q_factorial(n)
    assert perms.stat_genfun(Sn, "maj") == q_factorial(n)


@pytest.mark.parametrize("n", range(7))
def test_des_exc_eulerian(n):
    Sn = list(perms.symmetric_group(n))
    f = perms.stat_genfun(Sn, "des")
    assert f == perms.stat_genfun(Sn, "exc")
    assert f == eulerian_poly(n)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(n + 1)])
def test_minimal_coset_reps_inv_genfun(n, k):
    # permutations increasing on the first k and on the last n-k positions
    reps = [
        w
        for w in perms.symmetric_group(n)
        if all(w[i] < w[i + 1] for i in range(k - 1))
        and all(w[i] < w[i + 1] for i in range(k, n - 1))
    ]
    assert perms.stat_genfun(reps, "inv") == gaussian_binomial(n, k)


def test_conjugacy_classes():
    assert set(perms.conjugacy_class((3,))) == {(2, 3, 1), (3, 1, 2)}
    assert perms.conjugacy_class((1, 1, 1, 1)) == (perms.identity(4),)
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


def test_conj_class_enumerates_sn_once(monkeypatch):
    calls = []
    real = perms.symmetric_group

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(perms, "symmetric_group", counting)
    inst = registry_instantiate("conj_class", {"lam": (3, 3, 2)})
    assert calls == [8]
    assert inst.action.size == 1120


def test_nearly_free_kind():
    assert perms.nearly_free_kind(perms.parse_cycles("(1,2)(3,4)(5,6)", 6), 6) == "free"
    assert (
        perms.nearly_free_kind(perms.parse_cycles("(1,2)(3,4)(5,6)", 7), 7)
        == "nearly_free"
    )
    assert perms.nearly_free_kind(perms.parse_cycles("(1,2,4)(3,5)", 5), 5) == "neither"
    assert perms.nearly_free_kind(perms.identity(4), 4) == "free"
    assert perms.nearly_free_kind(perms.parse_cycles("(1,2)", 4), 4) == "neither"
    assert perms.nearly_free_kind((2, 3, 1, 4), 4) == "nearly_free"


@pytest.mark.parametrize("n", range(1, 8))
def test_nearly_free_divisibility(n):
    for w in perms.symmetric_group(n):
        kind = perms.nearly_free_kind(w, n)
        if kind != "neither":
            o = perms.perm_order(w)
            assert n % o == 0 or (n - 1) % o == 0


@given(st.permutations(list(range(1, 8))))
def test_conjugate_preserves_cycle_type(w):
    w = tuple(w)
    c = tuple(range(2, 8)) + (1,)
    assert perms.cycle_type(perms.conjugate(c, w)) == perms.cycle_type(w)


@given(st.permutations(list(range(1, 7))))
def test_inverse_involution(w):
    w = tuple(w)
    assert perms.inverse(perms.inverse(w)) == w
    assert perms.stat(perms.inverse(w), "inv") == perms.stat(w, "inv")
