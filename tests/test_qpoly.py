"""Exact polynomial layer: constructors, root-of-unity evaluation, plethysm."""

import functools
import math
import pickle
import random
import sys
import threading

import pytest
from child import run_child
from hypothesis import example, given, settings, strategies as st

import evaluation_oracle
import printer_oracle
import qpoly_oracle
from csplab import qpoly
from evaluation_oracle import root_of_unity_binomial
from csplab.errors import (
    CapExceeded,
    InexactDivision,
    NegativeExponent,
    NonIntegerEvaluation,
    PreconditionError,
)
from csplab.qpoly import (
    DEGREE_CAP,
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
    q_ratio,
    subst_t_q_inverse,
)
from csplab.tableaux import q_count_syt

P = IntPolynomial


def test_polynomial_canonical_form():
    assert P([1, 0, 2, 0, 0]).coeffs == (1, 0, 2)
    assert P().coeffs == ()
    assert not P([0]) and P([0]) == P()
    assert str(P([1, 1, 2, 1, 1])) == "1+q+2q^2+q^3+q^4"
    assert str(P([1, -1, 1])) == "1-q+q^2"
    assert str(P()) == "0"


def test_q_int():
    assert q_int(1) == P([1])
    assert q_int(3) == P([1, 1, 1])
    assert q_int(0) == P()


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
    assert gaussian_binomial(3, 5) == P()
    assert gaussian_binomial(3, -1) == P()


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
        assert f.coeffs == f.coeffs[::-1]
        assert f(1) == math.comb(n, k)


PAST_THE_BOUND = qpoly.CACHE_SIZE + 16
ODD_PRIMES = [p for p in range(3, 1000) if all(p % x for x in range(2, p))]


@pytest.mark.parametrize("cached,calls", [
    (qpoly.gaussian_binomial, [(n, 2) for n in range(2, 2 + PAST_THE_BOUND)]),
    (qpoly.cyclotomic, [(d,) for d in range(1, 1 + PAST_THE_BOUND)]),
    (qpoly._crt_order, [((2, p),) for p in ODD_PRIMES[:PAST_THE_BOUND]]),
], ids=["gaussian_binomial", "cyclotomic", "crt_order"])
def test_polynomial_caches_are_bounded(cached, calls):
    # a long sweep kept every polynomial: Phi_2..Phi_3000 held 21.5 MB
    for args in calls:
        cached(*args)
    assert cached.cache_info().currsize == qpoly.CACHE_SIZE


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


def test_cyclotomic_matches_prime_steps():
    # one q_ratio of q-integers against exact division once per prime
    for d in range(1, 2001):
        assert cyclotomic(d) == evaluation_oracle.cyclotomic_by_prime_steps(d), d


@pytest.mark.parametrize("d", [5040, 9240, 30030, 60060, 117390])
def test_cyclotomic_matches_prime_steps_at_the_cap_edge(d):
    # 117390 = 2*3*5*7*13*43 is the dearest Phi_d that WORK_CAP admits up to
    # 200,000; the prime-step construction priced it above the cap
    assert cyclotomic(d) == evaluation_oracle.cyclotomic_by_prime_steps(d)


@pytest.mark.parametrize("d,phi", [(5040, 1152), (9240, 1920)])
def test_cyclotomic_near_order_cap(d, phi):
    # the oracle is too slow here, so check identities instead
    f = cyclotomic(d)
    assert f.degree == phi
    assert f.coeffs[-1] == 1
    assert f.coeffs == f.coeffs[::-1]
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


def _same_as_division(f, d):
    """eval_at_root and the fold-and-divide oracle give the same value, or
    raise the same exception with the same message."""
    try:
        expected = evaluation_oracle.eval_by_division(f, d)
    except Exception as exc:  # the oracle's exception is the expectation
        with pytest.raises(type(exc)) as got:
            eval_at_root(f, d)
        assert str(got.value) == str(exc)
    else:
        assert eval_at_root(f, d) == expected


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


PRIME_POWERS = [p**e for p, top in ((2, 13), (3, 8), (5, 5), (7, 4), (11, 3), (97, 1), (9973, 1))
                for e in range(1, top + 1)]


@pytest.mark.parametrize("d", sorted({*_divisors(5040), *_divisors(9240), *PRIME_POWERS}))
@settings(max_examples=4, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=3),
    st.one_of(st.none(), st.integers(min_value=-9, max_value=9)),
)
def test_eval_at_root_matches_division(d, seed, laps, constant):
    # up to three laps of q^d - 1, so the fold adds; with a constant, f is
    # that integer plus multiples of Phi_d and of q^d - 1
    rng = random.Random(seed)
    f = P(rng.randint(-3, 3) for _ in range(rng.randint(0, laps * d + 1)))
    if constant is not None:
        g = P(rng.randint(-3, 3) for _ in range(rng.randint(0, 9)))
        f = cyclotomic(d) * g + constant + f.shift(d) - f
    _same_as_division(f, d)


@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=200),
       st.integers(min_value=1, max_value=40))
def test_fold_mod_qn_matches_loop(coeffs, n):
    # strided sums when 8n <= len f, chunks otherwise
    f = P(coeffs)
    assert fold_mod_qn(f, n) == evaluation_oracle.fold_by_loop(f, n)


def test_non_integer_message_is_built_when_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("Phi_d was built or divided by")

    monkeypatch.setattr(qpoly, "_divmod", refuse)
    monkeypatch.setattr(qpoly, "cyclotomic", refuse)
    f = q_int(840) + P([0, 0, 0, 0, 0, 1])
    with pytest.raises(NonIntegerEvaluation) as got:
        eval_at_root(f, 840)
    assert got.value.args == ()  # until the message is read
    monkeypatch.undo()
    with pytest.raises(NonIntegerEvaluation) as oracle:
        evaluation_oracle.eval_by_division(f, 840)
    # repr reads the message; then args, str and a pickled copy hold it too
    assert repr(got.value) == repr(oracle.value)
    assert got.value.args == oracle.value.args
    assert str(got.value) == str(oracle.value) and str(got.value).startswith("residue ")
    assert repr(pickle.loads(pickle.dumps(got.value))) == repr(oracle.value)


@pytest.mark.parametrize("d,message", [
    (10**12, "Phi_d index d 1000000000000 exceeds the cap 80000000000"),
    (2 * 10**6, "Phi_d degree 800000 exceeds the cap 200000"),
])
def test_eval_at_root_admits_d_as_cyclotomic_does(d, message):
    # both caps run before the fold allocates d entries: d = 10^12 ended in
    # MemoryError under 1 GiB
    for build in (cyclotomic, functools.partial(eval_at_root, q_int(3))):
        with pytest.raises(CapExceeded) as got:
            build(d)
        assert str(got.value) == message
    done = run_child(code=f"from csplab.qpoly import eval_at_root, q_int\n"
                          f"eval_at_root(q_int(3), {d})", address_space=1 << 30)
    assert done.returncode == 1 and done.stderr.endswith(f"CapExceeded: {message}\n")


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
    assert f.coeffs == f.coeffs[::-1]
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


@given(st.lists(st.integers(0, 4), max_size=7), st.integers(0, 12))
def test_newton_plethysm_matches_the_loop(coeffs, k):
    """Newton's identities (and, past k = f(1), the e-to-h recurrence at
    q = 256^w) give the polynomial the one-monomial-at-a-time loop gives."""
    f = P(coeffs)
    assert plethysm_h(k, f) == qpoly_oracle.h_or_e(k, f, repeat=True)
    if k <= f(1):
        assert plethysm_e(k, f) == qpoly_oracle.h_or_e(k, f, repeat=False)


def test_newton_refuses_an_inexact_division(monkeypatch):
    """A power sum that is not f(q^r) leaves 2 h_2 odd, which is caught."""
    at_power = qpoly._at_power
    monkeypatch.setattr(qpoly, "_at_power", lambda f, r: at_power(f, r) + (r == 2))
    with pytest.raises(InexactDivision, match="degree 2 is not divisible by 2"):
        plethysm_h(2, q_int(3))


def test_plethysm_degree_is_capped_before_any_work():
    with pytest.raises(CapExceeded, match="^h_k degree 300000 exceeds the cap"):
        plethysm_h(2, q_int(150_001))
    with pytest.raises(CapExceeded, match="^e_k degree 299999 exceeds the cap"):
        plethysm_e(2, q_int(150_001))
    # past half of the values e_k is e_(n-k) reversed, so e_(n-1) of a
    # large f with small values is cheap
    f = P([3000, 1])
    assert plethysm_e(3000, f) == P([1, 3000])


def test_h_recurrence_is_priced_before_it_runs():
    # 10 (k^2/2 + 3k/2) for 1+q at w = 2 bytes: quadratic in k, refused at
    # k = 20,000 (0.9 s before) and at once for k = 10^40
    with pytest.raises(CapExceeded, match="^h_k recurrence work 2000300000 exceeds the cap"):
        plethysm_h(20_000, P([1, 1]))
    with pytest.raises(CapExceeded, match="^h_k recurrence work of 30 or more digits"):
        plethysm_h(10**40, P([1]))
    # a constant f keeps every h_m one word wide: linear in k, admitted
    assert plethysm_h(50_000, P([2])) == P([50_001])


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
    assert P.from_exponents({}) == P()
    assert P.from_exponents({4: 0, 1: 1}) == P([0, 1])  # no trailing zero
    assert P.from_exponents({-2: 0, 0: 1}) == P([1])  # a cancelled term
    with pytest.raises(NegativeExponent, match=r"^a nonzero term at q\^-2$"):
        P.from_exponents({-1: 1, -2: 3, 0: 1})


def test_subst_t_q_inverse():
    F = BivariatePolynomial({(2, 2): 1, (1, 1): 1})
    assert subst_t_q_inverse(F) == P([2])
    assert subst_t_q_inverse(BivariatePolynomial({(0, 0): 1})) == P([1])
    assert subst_t_q_inverse(BivariatePolynomial({(3, 1): 1})) == P.monomial(1, 2)
    assert subst_t_q_inverse(BivariatePolynomial()) == P()
    message = r"^t = 1/q leaves a nonzero term at q\^-2 in t\^2$"
    with pytest.raises(NegativeExponent, match=message):
        subst_t_q_inverse(BivariatePolynomial({(0, 2): 1}))
    # q^-1 terms that cancel leave an ordinary polynomial
    G = BivariatePolynomial({(0, 1): 1, (1, 2): -1, (2, 0): 3})
    assert subst_t_q_inverse(G) == P([0, 0, 3])


# coefficients where the printing rules differ: zero, +-1, other magnitudes
COEFFS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(min_value=-10**6, max_value=10**6))


@given(st.lists(COEFFS, max_size=12))
def test_str_matches_the_old_printer(coeffs):
    f = P(coeffs)
    assert str(f) == printer_oracle.int_polynomial_str(f.coeffs)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([13, 100, 2521, qpoly.TEXTS_CAP - 1, qpoly.TEXTS_CAP, qpoly.TEXTS_CAP + 1,
                     qpoly.TEXTS_CAP + 50]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(qpoly.TEXTS_CAP + 1, 1)  # the last length whose monomials are all kept
@example(2 * qpoly.TEXTS_CAP, 2)
def test_long_str_matches_the_old_printer(length, seed):
    """Long polynomials, below and past the degree the text tables cover,
    with zero, +-1, big and negative coefficients."""
    rng = random.Random(seed)
    draws = (0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-10**40, 10**40))
    f = P([*(rng.choice(draws) for _ in range(length - 1)), rng.choice(draws[2:]) or 1])
    assert f.degree == length - 1
    assert str(f) == printer_oracle.int_polynomial_str(f.coeffs)


def test_text_tables_hold_at_most_text_cap_entries(monkeypatch):
    """Printing past the bound, in degree or in distinct coefficients, leaves
    each table at no more than TEXTS_CAP entries, and a table lays out past
    the bound what it would have kept."""
    cap = qpoly.TEXTS_CAP
    monkeypatch.setattr(qpoly, "_SIGNED", qpoly.Texts(qpoly._SIGNED.make))
    monkeypatch.setattr(qpoly, "_MONOMIALS", qpoly.Texts(qpoly._MONOMIALS.make))
    for f in (P(range(1, cap + 501)), P(range(1, cap + 1)), P(range(-cap, 0)), P([0] * 20 + [7])):
        assert str(f) == printer_oracle.int_polynomial_str(f.coeffs)
        assert len(qpoly._MONOMIALS.dense) <= cap and len(qpoly._SIGNED) <= cap
    assert len(qpoly._SIGNED) == cap
    table = qpoly.Texts(str)
    assert [table[key] for key in range(cap + 5)] == list(map(str, range(cap + 5)))
    assert len(table) == cap
    assert list(table.upto(cap + 2)) == list(map(str, range(cap + 2)))
    assert table.dense == ()
    assert table.upto(3) == ("0", "1", "2")


def test_big_coefficients_are_printed_but_not_kept(monkeypatch):
    """The signed table keeps no text past SHORT_TEXT characters: the
    ~4,000-digit coefficients of eulerian_poly(1500) are printed and let go."""
    monkeypatch.setattr(qpoly, "_SIGNED", qpoly.Texts(qpoly._SIGNED.make))
    f = eulerian_poly(1500)
    assert str(f) == printer_oracle.int_polynomial_str(f.coeffs)
    assert qpoly._SIGNED and all(len(t) <= qpoly.SHORT_TEXT for t in qpoly._SIGNED.values())
    assert max(map(sys.getsizeof, qpoly._SIGNED.values())) < 100


def test_monomial_table_grown_from_many_threads(monkeypatch):
    """Threads that print polynomials of different lengths while the monomial
    table grows each print what the per-term printer prints, and leave a
    table of the monomials q, q^2, ... in order."""
    monkeypatch.setattr(qpoly, "_MONOMIALS", qpoly.Texts(qpoly._MONOMIALS.make))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        polys = [P([1] * length) for length in range(500, 4001, 500)]
        start = threading.Barrier(len(polys))
        texts = {}

        def show(f):
            start.wait()
            texts[f.degree] = str(f)

        threads = [threading.Thread(target=show, args=(f,)) for f in polys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert texts == {f.degree: printer_oracle.int_polynomial_str(f.coeffs) for f in polys}
    table = qpoly._MONOMIALS.dense
    assert table == tuple(f"q^{i}" if i > 1 else "q" for i in range(1, len(table) + 1))


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), COEFFS, max_size=10))
def test_bivariate_str_matches_the_old_printer(terms):
    F = BivariatePolynomial(terms)
    assert str(F) == printer_oracle.bivariate_str(F.terms)


@given(
    st.lists(st.integers(min_value=-5, max_value=5), max_size=10),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
)
def test_divide_after_multiply_roundtrip(a, b):
    f, g = P(a), P(b)
    if not g:
        return
    assert exact_divide(f * g, g) == f


def test_q_ratio():
    assert q_ratio([]) == P([1])
    assert q_ratio([7, 5, 1], [5, 1, 7]) == P([1])
    assert q_ratio([4], [2]) == P([1, 0, 1])
    assert q_ratio([6], [2, 3]) == P([1, -1, 1])  # Phi_6: a negative coefficient
    assert q_ratio([3, 3], [1]) == P([1, 2, 3, 2, 1])
    with pytest.raises(PreconditionError):
        q_ratio([0])
    with pytest.raises(PreconditionError):
        q_ratio([3], [-1])


@pytest.mark.parametrize("num,den", [([5], [2]), ([2], [4]), ([], [3]), ([4, 3], [6]), ([6], [4])])
def test_q_ratio_raises_on_a_remainder(num, den):
    with pytest.raises(InexactDivision):
        q_ratio(num, den)


@given(
    st.lists(st.integers(min_value=1, max_value=12), max_size=6),
    st.lists(st.integers(min_value=1, max_value=12), max_size=4),
)
def test_q_ratio_matches_multiply_then_divide(num, den):
    try:
        expected = exact_divide(qpoly_oracle.product(num), qpoly_oracle.product(den))
    except InexactDivision:
        with pytest.raises(InexactDivision):
            q_ratio(num, den)
    else:
        assert q_ratio(num, den) == expected


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=-1, max_value=41))
def test_gaussian_binomial_matches_h_k_loop(n, k):
    assert gaussian_binomial(n, k) == qpoly_oracle.gaussian_binomial(n, k)


@given(st.integers(min_value=0, max_value=30))
def test_q_factorial_and_q_catalan_match_exact_division(n):
    assert q_factorial(n) == qpoly_oracle.q_factorial(n)
    assert q_catalan(n) == qpoly_oracle.q_catalan(n)


@given(st.integers(min_value=1, max_value=14), st.integers(min_value=1, max_value=6))
def test_q_fuss_catalan_matches_exact_division(n, m):
    assert q_fuss_catalan_A(n, m) == qpoly_oracle.q_fuss_catalan_A(n, m)


@given(st.data())
def test_face_poly_matches_exact_division(data):
    d = data.draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
    n = data.draw(st.integers(min_value=d + 1, max_value=d + 16))
    k = data.draw(st.integers(min_value=0, max_value=d - 1))
    assert face_poly(k, n, d) == qpoly_oracle.face_poly(k, n, d)


@given(st.integers(min_value=1, max_value=24))
def test_q_proper_triangulations_matches_repeated_products(n):
    assert q_proper_triangulations(n) == qpoly_oracle.q_proper_triangulations(n)


def test_caps_admit_the_largest_verify_polynomial():
    # multiset --n 2 --k 199999, or subset --n 200000 --k 1 under a
    # fixed-point-free involution: within the default size and order caps
    assert gaussian_binomial(DEGREE_CAP, 1) == q_int(DEGREE_CAP)
    assert q_int(DEGREE_CAP + 1).degree == DEGREE_CAP


@pytest.mark.parametrize("build", [
    lambda: q_int(DEGREE_CAP + 2),
    lambda: q_ratio([DEGREE_CAP + 2]),
    lambda: q_ratio(range(1, DEGREE_CAP + 2)),  # more factors than it takes
    lambda: q_factorial(10**9),
    lambda: gaussian_binomial(400, 200),  # the degree is admitted, the work is not
    lambda: q_catalan(300),
    lambda: q_fuss_catalan_A(200, 3),
    lambda: face_poly(25, 8048, 50),  # every term is admitted, their sum is not
    lambda: face_poly(1, 10**12 + 1, 10**12),
    lambda: q_proper_triangulations(400),
    lambda: q_count_syt((DEGREE_CAP + 1,)),
    lambda: eulerian_poly(1559),  # 1559! has 4,303 digits
    lambda: cyclotomic(200_003),  # a prime: degree 200,002
    lambda: cyclotomic(2**19),  # Phi_2 at q^(2^18): degree 262,144
    lambda: cyclotomic(510_510),  # 2*3*5*7*11*13*17: degree 92,160, but dear
    lambda: cyclotomic(10**11),  # above 2 DEGREE_CAP^2: refused before factoring
], ids=[
    "q_int", "q_ratio-degree", "q_ratio-factors", "q_factorial", "gaussian_binomial",
    "q_catalan", "q_fuss_catalan_A", "face_poly-sum", "face_poly-d",
    "q_proper_triangulations", "q_count_syt", "eulerian_poly", "cyclotomic-prime",
    "cyclotomic-power", "cyclotomic-primorial", "cyclotomic-huge",
])
def test_caps_refuse_before_any_arithmetic(build):
    with pytest.raises(CapExceeded):
        build()


def test_q_ratio_counts_a_range_of_factors_of_any_length():
    # len() of a range longer than sys.maxsize raises OverflowError
    with pytest.raises(CapExceeded, match="^q_ratio factors a side 200001 exceeds the cap"):
        q_ratio(range(2, DEGREE_CAP + 3))
    with pytest.raises(CapExceeded, match="^q_ratio factors a side of 30 or more digits"):
        q_ratio(range(2, 10**40))


def test_docstring_examples():
    import doctest

    import csplab.qpoly

    assert doctest.testmod(csplab.qpoly).failed == 0
