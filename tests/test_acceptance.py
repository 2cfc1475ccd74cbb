"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every instance goes through BOTH checkers plus a Burnside consistency check.
"""

import itertools
import math
import time

import pytest
from fixed_point_oracle import burnside_ok

from csplab import catalan as ct
from csplab import cli, perms, sieve
from csplab import tableaux as tb
from csplab.errors import NotNearlyFree
from csplab.qpoly import (
    IntPolynomial,
    eulerian_poly,
    gaussian_binomial,
    plethysm_h,
    q_int,
)


def _checked(family, params, cap=None):
    """Instantiate, verify with both checkers, assert agreement + Burnside."""
    inst = sieve.registry_instantiate(family, params, cap)
    rep = sieve.build_report(inst, "both")
    assert rep.roots_pass, (family, params, rep.rows)
    assert rep.orbits_pass, (family, params, rep.a, rep.census)
    assert burnside_ok(inst.action), (family, params)
    return inst, rep


def _report(num, text):
    print(f"\n[criterion {num:02d}] PASS — {text}")


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_c01_multiset_family():
    t0 = time.monotonic()
    for n in range(1, 9):
        for k in range(0, 9):
            _checked("multiset", {"n": n, "k": k})
    inst, rep = _checked("multiset", {"n": 3, "k": 2})
    assert inst.polynomial == IntPolynomial([1, 1, 2, 1, 1])
    assert tuple(r["eval"] for r in rep.to_dict()["rows"]) == (6, 0, 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _report(1, f"multiset passes for n<=8, k<=8 in {elapsed:.1f}s; "
               "(3,2) reproduces 1+q+2q^2+q^3+q^4 with evals (6,0,0)")


def test_c02_subset_family():
    for n in range(1, 11):
        for k in range(0, n + 1):
            _checked("subset", {"n": n, "k": k})
    for k in range(7):
        _checked("subset", {"n": 6, "k": k, "gen": "(1,2)(3,4)(5,6)"})
        _checked("subset", {"n": 7, "k": k, "gen": "(1,2)(3,4)(5,6)(7)"})
    with pytest.raises(NotNearlyFree):
        sieve.registry_instantiate("subset", {"n": 5, "k": 2, "gen": "(1,2,4)(3,5)"})
    with pytest.raises(NotNearlyFree):
        sieve.registry_instantiate("subset", {"n": 6, "k": 2, "gen": "(1,2,3)(4,5)(6)"})
    _report(2, "subset passes for n<=10 (full cycle) and nearly-free "
               "generators; 'neither' generators rejected")


def test_c03_rectangle_promotion():
    t0 = time.monotonic()
    for m, n in [(2, k) for k in range(1, 8)] + [(3, 3), (3, 4), (4, 4)]:
        inst, _ = _checked("syt_rect", {"m": m, "n": n})
        assert inst.action.order == m * n
    inst, rep = _checked("syt_rect", {"m": 4, "n": 4})
    assert inst.action.size == 24024 and inst.action.order == 16
    inst, rep = _checked("syt_rect", {"m": 2, "n": 3})
    assert tuple(r["fixed"] for r in rep.to_dict()["rows"]) == (5, 0, 2, 3, 2, 0)
    assert inst.polynomial == IntPolynomial([1, 0, 1, 1, 1, 0, 1])
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(3, f"promotion on rectangles passes through 4x4 (|X|=24024, "
               f"order 16) in {elapsed:.1f}s; SYT(3,3) counts (5,0,2,3,2,0)")


def test_c04_noncrossing_matchings():
    for n in range(1, 8):
        _checked("ncm", {"n": n})
    for n in range(1, 7):
        for T in tb.enumerate_syt((n, n), cap=2 * n):
            assert tb.tableau_to_matching(tb.promote(T)) == ct.rotate_blocks(
                tb.tableau_to_matching(T), 2 * n, -1
            )
    _report(4, "matching rotation passes for n<=7 and equals conjugated "
               "promotion pointwise for n<=6")


def test_c05_noncrossing_partitions():
    t0 = time.monotonic()
    for n in range(1, 10):
        inst, _ = _checked("ncp", {"n": n})
    assert inst.action.size == 4862
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(5, f"noncrossing partitions pass for n<=9 (Cat_9=4862) in {elapsed:.1f}s")


def test_c06_triangulations():
    for n in range(1, 11):  # polygon sizes 3..12
        _checked("triangulation", {"n": n})
    inst, rep = _checked("triangulation", {"n": 3})
    assert [len(o.members) for o in inst.action.orbits] == [5]
    _report(6, "triangulation rotation passes for polygons up to 12; "
               "the pentagon is a single orbit of size 5")


def test_c07_conjugacy_classes():
    for n in range(1, 7):
        for lam in _partitions(n):
            _checked("conj_class", {"lam": lam})
    inst, rep = _checked("conj_class", {"lam": (3,)})
    assert inst.polynomial == IntPolynomial([2])
    assert tuple(r["fixed"] for r in rep.to_dict()["rows"]) == (2, 2, 2)
    _report(7, "conjugation passes for every class of S_n, n<=6; "
               "the 3-cycle class has constant polynomial 2 and counts (2,2,2)")


def test_c08_proper_triangulations():
    t0 = time.monotonic()
    for N in (2, 4, 6, 8, 10):
        _checked("proper_triangulation", {"n": N})
    inst, _ = _checked("proper_triangulation", {"n": 8})
    assert inst.action.size == 880
    inst, _ = _checked("proper_triangulation", {"n": 12})  # under the default cap
    assert inst.action.size == ct.proper_count(12) == 91392
    for N in (2, 4, 6, 8, 10):
        enumerated = sum(
            1
            for d in ct.enumerate_triangulations(N + 2, cap=N + 2)
            if ct.is_proper_triangulation(d, N + 2)
        )
        assert enumerated == ct.proper_count(N)
    assert ct.proper_count(4) == 12
    elapsed = time.monotonic() - t0
    _report(8, f"proper triangulations pass for N=2n, n<=6 (|P_10|=880, "
               f"|P_14|=91392) in {elapsed:.1f}s; filtered counts match the "
               f"closed form for n<=5, |P_6|=12")


def test_c09_plethysm_transforms():
    for n in range(1, 7):
        for k in range(0, 7):
            derived, _ = _checked(
                "plethysm_derived", {"base": "cycle", "k": k, "kind": "h", "n": n}
            )
            direct = sieve.registry_instantiate("multiset", {"n": n, "k": k})
            assert derived.action.size == direct.action.size
            assert derived.polynomial == direct.polynomial
    for n in (3, 5, 7):
        for k in range(0, n + 1):
            _checked("plethysm_derived", {"base": "cycle", "k": k, "kind": "e", "n": n})
    assert plethysm_h(2, q_int(3)) == gaussian_binomial(4, 2)
    _report(9, "h_k-derived instances pass and reproduce multisets for "
               "n,k<=6; e_k-derived pass for odd orders n in {3,5,7}")


def test_c10_bicyclic_toy():
    labels, gen, F = sieve.berget_eu_reiner_toy()
    good = sieve.verify_bicsp(labels, gen, gen, F, e1=1, e2=1)
    assert good.verdict == "pass"
    assert good.cell(1, 1).value == 0 and good.cell(1, 1).fixed == 0
    bad = sieve.verify_bicsp(labels, gen, gen, F, e1=1, e2=2)
    assert bad.verdict == "fail"
    assert bad.cell(1, 1).value == 3 and bad.cell(1, 1).fixed == 0
    assert not bad.cell(1, 1).match
    _report(10, "two-group toy passes with identity embeddings (value 0 at "
                "(1,1)) and fails with the inverted one (value 3)")


def test_c11_equivalence_and_falsifiability(capsys):
    cases = [
        ("multiset", {"n": 4, "k": 3}),
        ("subset", {"n": 8, "k": 3}),
        ("syt_rect", {"m": 2, "n": 4}),
        ("ncm", {"n": 5}),
        ("ncp", {"n": 7}),
        ("triangulation", {"n": 6}),
        ("conj_class", {"lam": (3, 2)}),
        ("proper_triangulation", {"n": 6}),
        ("cycle", {"n": 12}),
        ("plethysm_derived", {"base": "cycle", "k": 2, "kind": "h", "n": 5}),
    ]
    for family, params in cases:
        inst, rep = _checked(family, params)
        assert rep.roots_pass == rep.orbits_pass
        for coeff in (0, 1, max(0, inst.polynomial.degree)):
            bad = sieve.CSPInstance(
                inst.action, sieve.corrupt_polynomial(inst.polynomial, coeff)
            )
            bad_rep = sieve.build_report(bad)
            assert not bad_rep.roots_pass and not bad_rep.orbits_pass
    code = cli.main(["verify", "multiset", "--n", "3", "--k", "2",
                     "--corrupt-coeff", "2", "--checker", "roots"])
    assert code == 1
    code = cli.main(["verify", "multiset", "--n", "3", "--k", "2",
                     "--corrupt-coeff", "2", "--checker", "orbits"])
    assert code == 1
    capsys.readouterr()
    _report(11, "both checkers agree on every instance and both reject "
                "every corrupted polynomial")


def test_c12_golden_values():
    # four statistics on the six permutations of [3]
    table = {
        (1, 2, 3): (0, 0, 0, 0), (1, 3, 2): (1, 2, 1, 1),
        (2, 1, 3): (1, 1, 1, 1), (2, 3, 1): (2, 2, 1, 2),
        (3, 1, 2): (2, 1, 1, 1), (3, 2, 1): (3, 3, 2, 1),
    }
    for w, vals in table.items():
        got = tuple(perms.stat(w, s) for s in ("inv", "maj", "des", "exc"))
        assert got == vals
    assert eulerian_poly(3) == IntPolynomial([1, 4, 1])
    assert eulerian_poly(4) == IntPolynomial([1, 11, 11, 1])
    assert tb.hooklengths((5, 4, 4, 2))[1][1] == 5
    assert tb.hooklengths((3, 2)) == ((4, 3, 1), (2, 1))
    assert tb.count_syt((3, 2)) == 5
    P, Q = tb.rsk_word((3, 1, 4, 5, 2))
    assert (P, Q) == (((1, 2, 5), (3, 4)), ((1, 3, 4), (2, 5)))
    P, Q = tb.rsk_matrix([[1, 2, 0], [1, 0, 1]])
    assert (P, Q) == (((1, 1, 2, 3), (2,)), ((1, 1, 1, 2), (2,)))
    assert tb.promote(((1, 3, 5), (2, 4, 6), (7,))) == ((1, 2, 4), (3, 5, 7), (6,))
    assert tb.evacuate(((1, 3, 6), (2, 4), (5,))) == ((1, 2, 5), (3, 6), (4,))
    assert tb.pon_wang_iota(((1, 3, 6), (2, 4), (5,))) == (
        (1, 3, 6), (2, 4, 8), (5, 7, 11), (9, 10, 12),
    )
    assert tb.ballot_sequence(((1, 3, 5), (2, 4, 6), (7,))) == (1, 2, 1, 2, 1, 2, 3)
    assert tb.tableau_to_matching(((1, 2, 4, 5), (3, 6, 7, 8))) == (
        (1, 8), (2, 3), (4, 7), (5, 6),
    )
    from csplab.qpoly import fold_mod_qn, plethysm_h as ph

    assert fold_mod_qn(gaussian_binomial(4, 2), 3) == (2, 2, 2)
    assert ph(2, IntPolynomial([1, 2])) == IntPolynomial([1, 2, 3])
    assert gaussian_binomial(4, 2) == IntPolynomial([1, 1, 2, 1, 1])
    _report(12, "all quoted worked examples reproduce bit-exactly")


def test_c13_property_suites():
    # promotion has order dividing mn on rectangles, exactly as declared
    for m, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]:
        for T in tb.enumerate_syt((n,) * m, cap=m * n):
            S = T
            for _ in range(m * n):
                S = tb.promote(S)
            assert S == T
    # staircases: that many promotions is transposition
    for n in range(1, 5):
        N = n * (n + 1) // 2
        for T in tb.enumerate_syt(tuple(range(n, 0, -1)), cap=N):
            S = T
            for _ in range(N):
                S = tb.promote(S)
            assert S == tb.transpose_tableau(T)
    # evacuation is an involution
    for n in range(1, 8):
        for lam in _partitions(n):
            for T in tb.enumerate_syt(lam, cap=7):
                assert tb.evacuate(tb.evacuate(T)) == T
    # insertion is a bijection onto same-shape pairs
    for n in range(1, 8):
        seen = set()
        for w in itertools.permutations(range(1, n + 1)):
            P, Q = tb.rsk_word(w)
            assert tb.shape(P) == tb.shape(Q)
            seen.add((P, Q))
        assert len(seen) == math.factorial(n)
        assert (
            sum(tb.count_syt(lam) ** 2 for lam in _partitions(n))
            == math.factorial(n)
        )
    _report(13, "promotion order, staircase transposition, evacuation "
                "involution, insertion bijectivity, and Burnside checks hold")
