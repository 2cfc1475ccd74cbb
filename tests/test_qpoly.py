"""Exact polynomial layer: constructors, root-of-unity evaluation, plethysm."""

import functools
import math

import pytest
from hypothesis import given, strategies as st

import evaluation_oracle
from evaluation_oracle import root_of_unity_binomial
from csplab.errors import (
    InexactDivision,
    NegativeExponent,
    NonIntegerEvaluation,
    PreconditionError,
)
from csplab.qpoly import (
    BivariatePolynomial,
    IntPolynomial,
    cyclotomic,
    eulerian_poly,
    eval_at_root,
    exact_divide,
    face_poly,
    fold_mod_qn,
    gaussian_binomial,
    plethysm_e,
    plethysm_h,
    q_catalan,
    q_factorial,
    q_fuss_catalan_A,
    q_int,
    q_proper_triangulations,
    subst_t_q_inverse,
)

P = IntPolynomial


def test_polynomial_canonical_form():
    assert P([1, 0, 2, 0, 0]).coeffs == (1, 0, 2)
    assert P().coeffs == ()
    assert P([0]).is_zero()
    assert str(P([1, 1, 2, 1, 1])) == "1+q+2q^2+q^3+q^4"
    assert str(P([1, -1, 1])) == "1-q+q^2"
    assert str(P()) == "0"


def test_q_int():
    assert q_int(1) == P([1])
    assert q_int(3) == P([1, 1, 1])
    assert q_int(0).is_zero()


def test_q_factorial():
    assert q_factorial(0) == P([1])
    assert q_factorial(3) == P([1, 2, 2, 1])
    # multiply q_int(1..4) by hand: (1+2q+2q^2+q^3)(1+q+q^2+q^3)
    assert q_factorial(4) == P([1, 3, 5, 6, 5, 3, 1])
    assert q_factorial(4).degree == 6
    assert q_factorial(4)(1) == 24


def test_gaussian_binomial_golden():
    assert gaussian_binomial(4, 2) == P([1, 1, 2, 1, 1])
    for n in range(9):
        assert gaussian_binomial(n, 0) == P([1])
    # run the Pascal-type recurrence by hand for (5,2)
    assert gaussian_binomial(5, 2) == P([1, 1, 2, 2, 2, 1, 1])
    assert gaussian_binomial(3, 5).is_zero()
    assert gaussian_binomial(3, -1).is_zero()


@functools.lru_cache(maxsize=None)
def _pascal_binomial(n, k):
    """Oracle: the Pascal-type recurrence run as a recursion of depth n."""
    if k < 0 or k > n:
        return P()
    if k == 0 or k == n:
        return P([1])
    return _pascal_binomial(n - 1, k) + _pascal_binomial(n - 1, k - 1).shift(n - k)


def test_gaussian_binomial_matches_pascal_recursion():
    for n in range(31):
        for k in range(-1, n + 2):
            assert gaussian_binomial(n, k) == _pascal_binomial(n, k), (n, k)


@pytest.mark.parametrize("n", range(13))
def test_gaussian_symmetry_and_positivity(n):
    for k in range(n + 1):
        f = gaussian_binomial(n, k)
        assert all(c >= 0 for c in f.coeffs)
        assert f.degree == k * (n - k)
        assert f.is_palindromic()
        assert f(1) == math.comb(n, k)


def test_cyclotomic_small():
    assert cyclotomic(1) == P([-1, 1])
    assert cyclotomic(2) == P([1, 1])
    assert cyclotomic(3) == P([1, 1, 1])
    assert cyclotomic(4) == P([1, 0, 1])
    assert cyclotomic(6) == P([1, -1, 1])
    assert cyclotomic(12) == P([1, 0, -1, 0, 1])


def test_eval_at_root_golden():
    # 1 + w + 2w^2 + w^3 + w^4 = 2 + 2w + 2w^2 = 0 at a primitive cube root
    assert eval_at_root(gaussian_binomial(4, 2), 3) == 0
    f = P([3, 1, 4, 1, 5])
    assert eval_at_root(f, 1) == f(1)
    # alternating-sign oracle at q = -1
    g = gaussian_binomial(5, 2)
    assert eval_at_root(g, 2) == sum((-1) ** i * c for i, c in enumerate(g.coeffs))
    assert eval_at_root(g, 2) == 2


def test_eval_at_root_non_integer():
    with pytest.raises(NonIntegerEvaluation):
        eval_at_root(P([0, 1]), 3)  # q itself is not rational at w_3


def _same_evaluation(f, d):
    """eval_at_root and the oracle give the same value, or raise the same
    NonIntegerEvaluation, whose message carries the residue mod Phi_d."""
    try:
        expected = evaluation_oracle.eval_at_root(f, d)
    except NonIntegerEvaluation as exc:
        with pytest.raises(NonIntegerEvaluation) as got:
            eval_at_root(f, d)
        assert str(got.value) == str(exc)
    else:
        assert eval_at_root(f, d) == expected


def test_eval_at_root_monomials_match_oracle():
    # q^exp past q^d exercises the fold; the residue in the message has
    # degree < phi(d) because the oracle's does
    for d in range(1, 16):
        for exp in range(0, 2 * d + 1):
            _same_evaluation(P.monomial(1, exp), d)


@pytest.mark.parametrize("d", [*range(1, 401), 720, 840, 1260])
def test_cyclotomic_matches_iterated_division(d):
    assert cyclotomic(d) == evaluation_oracle.cyclotomic(d)


@pytest.mark.parametrize("d,phi", [(5040, 1152), (9240, 1920)])
def test_cyclotomic_near_order_cap(d, phi):
    # the oracle is too slow here, so check identities instead
    f = cyclotomic(d)
    assert f.degree == phi
    assert f.coeffs[-1] == 1
    assert f.is_palindromic()
    assert f(1) == 1  # d is not a prime power


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=301),
    st.integers(min_value=1, max_value=120),
    st.one_of(st.none(), st.integers(min_value=-9, max_value=9)),
)
def test_eval_at_root_matches_oracle(coeffs, d, constant):
    f = P(coeffs)
    if constant is not None:
        # c + Phi_d * g is the integer c at every primitive d-th root
        f = evaluation_oracle.cyclotomic(d) * f + constant
    _same_evaluation(f, d)


@pytest.mark.parametrize("n", range(1, 13))
def test_q_int_at_roots(n):
    for d in range(1, n + 1):
        if n % d == 0:
            assert eval_at_root(q_int(n), d) == (n if d == 1 else 0)


def test_root_of_unity_binomial():
    assert root_of_unity_binomial(3, 2, 3) == 0
    assert root_of_unity_binomial(4, 2, 2) == 2
    for n in range(1, 7):
        for k in range(7):
            assert root_of_unity_binomial(n, k, 1) == math.comb(n + k - 1, k)
    with pytest.raises(PreconditionError):
        root_of_unity_binomial(4, 2, 3)


@pytest.mark.parametrize("n,k,d", [(n, k, d) for n in range(1, 9) for k in range(6)
                                   for d in range(1, n + 1) if n % d == 0])
def test_root_of_unity_binomial_agrees_with_eval(n, k, d):
    assert root_of_unity_binomial(n, k, d) == eval_at_root(
        gaussian_binomial(n + k - 1, k), d
    )


def test_fold_mod_qn():
    assert fold_mod_qn(gaussian_binomial(4, 2), 3) == (2, 2, 2)
    assert fold_mod_qn(P(), 4) == (0, 0, 0, 0)
    assert fold_mod_qn(P.monomial(1, 5), 3) == (0, 0, 1)


@given(
    st.lists(st.integers(min_value=0, max_value=9), max_size=24),
    st.integers(min_value=1, max_value=12),
)
def test_fold_consistent_with_eval(coeffs, n):
    f = P(coeffs)
    folded = P(fold_mod_qn(f, n))
    for d in range(1, n + 1):
        if n % d == 0:
            try:
                lhs = eval_at_root(f, d)
            except NonIntegerEvaluation:
                with pytest.raises(NonIntegerEvaluation):
                    eval_at_root(folded, d)
                continue
            assert eval_at_root(folded, d) == lhs


def test_exact_divide():
    assert exact_divide(gaussian_binomial(4, 2), q_int(3)) == P([1, 0, 1])
    f = P([2, 3, 5, 7])
    assert exact_divide(f, P([1])) == f
    with pytest.raises(InexactDivision):
        exact_divide(P([1, 1]), P([1, 0, 1]))
    with pytest.raises(InexactDivision):
        exact_divide(P([1, 1, 1]), P([1, 1]))


def test_q_catalan():
    assert q_catalan(0) == P([1])
    assert q_catalan(2) == P([1, 0, 1])
    assert q_catalan(3) == P([1, 0, 1, 1, 1, 0, 1])
    for n in range(11):
        assert q_catalan(n)(1) == math.comb(2 * n, n) // (n + 1)


def test_q_fuss_catalan():
    for n in range(1, 8):
        assert q_fuss_catalan_A(n, 1) == q_catalan(n)
    assert q_fuss_catalan_A(2, 2) == P([1, 0, 1, 0, 1])
    assert q_fuss_catalan_A(2, 2)(1) == 3
    assert q_fuss_catalan_A(3, 2)(1) == 12
    assert q_fuss_catalan_A(3, 3)(1) == math.comb(12, 3) // 10


def test_eulerian():
    assert eulerian_poly(0) == P([1])
    assert eulerian_poly(1) == P([1])
    assert eulerian_poly(2) == P([1, 1])
    assert eulerian_poly(3) == P([1, 4, 1])
    assert eulerian_poly(4) == P([1, 11, 11, 1])
    assert eulerian_poly(5) == P([1, 26, 66, 26, 1])


@pytest.mark.parametrize("n", range(8))
def test_eulerian_palindromic_and_total(n):
    f = eulerian_poly(n)
    assert f.is_palindromic()
    assert f(1) == math.factorial(n)


def test_plethysm_h():
    assert plethysm_h(2, P([1, 2])) == P([1, 2, 3])
    assert plethysm_h(0, P([5, 1])) == P([1])
    assert plethysm_h(2, q_int(3)) == gaussian_binomial(4, 2)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(9))
def test_plethysm_h_principal_specialization(n, k):
    assert plethysm_h(k, q_int(n)) == gaussian_binomial(n + k - 1, k)


def test_plethysm_e():
    assert plethysm_e(2, P([1, 2])) == P([0, 2, 1])
    f = P([2, 1, 3])
    assert plethysm_e(1, f) == f
    assert plethysm_e(2, q_int(3)) == P([0, 1, 1, 1])
    with pytest.raises(PreconditionError):
        plethysm_e(4, P([1, 2]))


@pytest.mark.parametrize("n", range(1, 13))
def test_plethysm_e_principal_specialization(n):
    # e_k(1, q, ..., q^(n-1)) = q^C(k,2) [n choose k]_q; gaussian_binomial
    # runs the h_k branch, so this checks the e_k branch against it
    for k in range(n + 1):
        expected = gaussian_binomial(n, k).shift(k * (k - 1) // 2)
        assert plethysm_e(k, q_int(n)) == expected


def _gale_facets(n, d):
    """Independent oracle: Gale's evenness condition for the facets of a
    cyclic polytope with n vertices in dimension d."""
    import itertools

    facets = []
    for S in itertools.combinations(range(1, n + 1), d):
        sset = set(S)
        ok = all(
            sum(1 for x in S if i < x < j) % 2 == 0
            for i, j in itertools.combinations(
                [v for v in range(1, n + 1) if v not in sset], 2
            )
        )
        if ok:
            facets.append(S)
    return facets


def test_face_poly():
    assert face_poly(1, 5, 2)(1) == 5
    for n in range(3, 9):
        assert face_poly(0, n, 2)(1) == n
    assert face_poly(3, 6, 4)(1) == 9
    assert face_poly(3, 6, 4)(1) == len(_gale_facets(6, 4))
    assert face_poly(3, 7, 4)(1) == len(_gale_facets(7, 4))
    assert face_poly(5, 8, 6)(1) == len(_gale_facets(8, 6))
    with pytest.raises(PreconditionError):
        face_poly(0, 5, 3)
    with pytest.raises(PreconditionError):
        face_poly(2, 4, 4)


def test_q_proper_triangulations():
    assert q_proper_triangulations(1) == P([1, 0, 1])
    for n in range(1, 6):
        expected = 2**n * math.comb(3 * n, n) // (2 * n + 1)
        assert q_proper_triangulations(n)(1) == expected


def test_from_exponents():
    assert P.from_exponents({0: 2, 3: -1}) == P([2, 0, 0, -1])
    assert P.from_exponents({}).is_zero()
    assert P.from_exponents({4: 0, 1: 1}) == P([0, 1])  # no trailing zero
    assert P.from_exponents({-2: 0, 0: 1}) == P([1])  # a cancelled term
    with pytest.raises(NegativeExponent, match=r"^a nonzero term at q\^-2$"):
        P.from_exponents({-1: 1, -2: 3, 0: 1})


def test_subst_t_q_inverse():
    F = BivariatePolynomial({(2, 2): 1, (1, 1): 1})
    assert subst_t_q_inverse(F) == P([2])
    assert subst_t_q_inverse(BivariatePolynomial({(0, 0): 1})) == P([1])
    assert subst_t_q_inverse(BivariatePolynomial({(3, 1): 1})) == P.monomial(1, 2)
    assert subst_t_q_inverse(BivariatePolynomial()).is_zero()
    message = r"^t = 1/q leaves a nonzero term at q\^-2 in t\^2$"
    with pytest.raises(NegativeExponent, match=message):
        subst_t_q_inverse(BivariatePolynomial({(0, 2): 1}))
    # q^-1 terms that cancel leave an ordinary polynomial
    G = BivariatePolynomial({(0, 1): 1, (1, 2): -1, (2, 0): 3})
    assert subst_t_q_inverse(G) == P([0, 0, 3])


@given(
    st.lists(st.integers(min_value=-5, max_value=5), max_size=10),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
)
def test_divide_after_multiply_roundtrip(a, b):
    f, g = P(a), P(b)
    if g.is_zero():
        return
    assert exact_divide(f * g, g) == f


def test_docstring_examples():
    import doctest

    import csplab.qpoly

    assert doctest.testmod(csplab.qpoly).failed == 0
