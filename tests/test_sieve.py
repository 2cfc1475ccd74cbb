"""The verification engine: actions, orbits, both checkers, registry."""

import math

import pytest
from fixed_point_oracle import burnside_ok, power_fixed_counts
from hypothesis import given, strategies as st

from csplab import perms, sieve
from csplab.errors import (
    CapExceeded,
    NonCommutingActions,
    NotNearlyFree,
    PreconditionError,
    StatisticMismatch,
    UnknownFamily,
)
from csplab.qpoly import BivariatePolynomial, IntPolynomial


def test_action_validation():
    a = sieve.CyclicAction(("a", "b", "c"), (1, 2, 0), 3)
    assert a.size == 3
    sieve.CyclicAction(("a", "b"), (0, 1), 4)  # unfaithful is fine
    with pytest.raises(PreconditionError):
        sieve.CyclicAction(("a", "b"), (1, 0), 3)  # 2 does not divide 3
    with pytest.raises(PreconditionError):
        sieve.CyclicAction(("a", "a"), (0, 1), 1)
    with pytest.raises(PreconditionError):
        sieve.CyclicAction(("a", "b"), (0, 0), 1)


def test_orbit_decompose_multiset():
    inst = sieve.registry_instantiate("multiset", {"n": 3, "k": 2})
    orbits = sieve.orbit_decompose(inst.action)
    assert sorted(len(o.members) for o in orbits) == [3, 3]
    assert all(o.stabilizer_order == 1 for o in orbits)
    labels = inst.action.labels
    sets = [{labels[i] for i in o.members} for o in orbits]
    assert {"11", "22", "33"} in sets and {"12", "23", "13"} in sets


def test_orbit_decompose_identity_and_syt():
    a = sieve.CyclicAction(("x", "y"), (0, 1), 1)
    assert [len(o.members) for o in sieve.orbit_decompose(a)] == [1, 1]
    inst = sieve.registry_instantiate("syt_rect", {"m": 2, "n": 3})
    assert sorted(len(o.members) for o in sieve.orbit_decompose(inst.action)) == [2, 3]


def test_fixed_count():
    inst = sieve.registry_instantiate("multiset", {"n": 3, "k": 2})
    assert sieve.fixed_count(inst.action, 0) == 6
    assert sieve.fixed_count(inst.action, 1) == 0
    assert sieve.fixed_count(inst.action, 2) == 0


def test_fixed_multisets_of_mixed_generator():
    # disjoint unions of the cycles of (1,2,4)(3,5) are the only fixed points
    g = perms.parse_cycles("(1,2,4)(3,5)", 5)
    fixed_labels = []
    for k in range(1, 6):
        import itertools

        for ms in itertools.combinations_with_replacement(range(1, 6), k):
            if tuple(sorted(g[x - 1] for x in ms)) == ms:
                fixed_labels.append("".join(map(str, ms)))
    assert fixed_labels == ["35", "124", "3355", "12345"]


@given(
    st.integers(min_value=0, max_value=10).flatmap(
        lambda m: st.permutations(list(range(m)))
    ),
    st.integers(min_value=1, max_value=3),
)
def test_fixed_count_matches_power_iteration(gen, mult):
    """Fixed points read off the orbit lengths agree with composing the
    generator j times, also when the declared order is a multiple of the
    permutation's own order (an unfaithful action)."""
    gen = tuple(gen)
    order = sieve._faithful_order(gen) * mult
    action = sieve.CyclicAction(tuple(f"x{i}" for i in range(len(gen))), gen, order)
    oracle = power_fixed_counts(action)
    assert [sieve.fixed_count(action, j) for j in range(order)] == oracle


def test_fixed_count_matches_power_iteration_conj_class():
    # conjugation by a 4-cycle acts on the class of (2,2) with order 2, not 4
    action = sieve.registry_instantiate("conj_class", {"lam": (2, 2)}).action
    assert sieve._faithful_order(action.generator) < action.order
    oracle = power_fixed_counts(action)
    assert [sieve.fixed_count(action, j) for j in range(action.order)] == oracle


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(6)])
def test_multiset_fixed_counts_match_closed_form(n, k):
    # counting disjoint unions of cycles agrees with the binomial formula
    from csplab.qpoly import root_of_unity_binomial

    inst = sieve.registry_instantiate("multiset", {"n": n, "k": k})
    for j in range(n):
        d = n // math.gcd(n, j)
        assert sieve.fixed_count(inst.action, j) == root_of_unity_binomial(n, k, d)


def test_verify_roots_multiset_golden():
    inst = sieve.registry_instantiate("multiset", {"n": 3, "k": 2})
    rows = sieve.verify_csp_roots(inst)
    assert [(r.j, r.elem_order, r.fixed, r.value) for r in rows] == [
        (0, 1, 6, 6),
        (1, 3, 0, 0),
        (2, 3, 0, 0),
    ]
    assert all(r.match for r in rows)


def test_verify_roots_syt33_golden():
    inst = sieve.registry_instantiate("syt_rect", {"m": 2, "n": 3})
    assert inst.polynomial == IntPolynomial([1, 0, 1, 1, 1, 0, 1])
    rows = sieve.verify_csp_roots(inst)
    assert tuple(r.fixed for r in rows) == (5, 0, 2, 3, 2, 0)
    assert tuple(r.elem_order for r in rows) == (1, 6, 3, 2, 3, 6)
    assert tuple(r.value for r in rows) == (5, 0, 2, 3, 2, 0)


def test_verify_orbits_multiset_golden():
    inst = sieve.registry_instantiate("multiset", {"n": 3, "k": 2})
    a, census, matches = sieve.verify_csp_orbits(inst)
    assert a == (2, 2, 2)
    assert census == (2, 2, 2)
    assert all(matches)


def test_verify_orbits_subset_golden():
    inst = sieve.registry_instantiate("subset", {"n": 4, "k": 2})
    a, census, matches = sieve.verify_csp_orbits(inst)
    assert a == (2, 1, 2, 1)
    assert census == (2, 1, 2, 1)
    orbits = sieve.orbit_decompose(inst.action)
    assert sorted(len(o.members) for o in orbits) == [2, 4]


def test_single_fixed_point_census():
    # one fixed point contributes to every a_i through its stabilizer
    a = sieve.CyclicAction(("p", "q", "r", "s"), (0, 2, 3, 1), 3)
    inst = sieve.CSPInstance(a, IntPolynomial([2, 1, 1]))
    _, census, _ = sieve.verify_csp_orbits(inst)
    assert census == (2, 1, 1)


def test_report_and_corruption():
    inst = sieve.registry_instantiate("multiset", {"n": 3, "k": 2})
    rep = sieve.build_report(inst)
    assert rep.verdict == "pass"
    assert rep.roots_pass and rep.orbits_pass
    bad = sieve.CSPInstance(
        inst.action,
        sieve.corrupt_polynomial(inst.polynomial, 2),
        inst.family,
        inst.params,
    )
    bad_rep = sieve.build_report(bad)
    assert not bad_rep.roots_pass
    assert not bad_rep.orbits_pass
    assert bad_rep.verdict == "fail"
    assert sieve.build_report(bad, "roots").verdict == "fail"
    assert sieve.build_report(bad, "orbits").verdict == "fail"


@pytest.mark.parametrize("coeff", range(5))
def test_every_single_coefficient_corruption_fails_both(coeff):
    inst = sieve.registry_instantiate("multiset", {"n": 3, "k": 2})
    bad = sieve.CSPInstance(
        inst.action, sieve.corrupt_polynomial(inst.polynomial, coeff)
    )
    rep = sieve.build_report(bad)
    assert not rep.roots_pass and not rep.orbits_pass


def test_burnside():
    for family, params in [
        ("multiset", {"n": 4, "k": 3}),
        ("syt_rect", {"m": 2, "n": 4}),
        ("ncp", {"n": 5}),
        ("conj_class", {"lam": (2, 2)}),
    ]:
        inst = sieve.registry_instantiate(family, params)
        assert burnside_ok(inst.action)


def test_registry_basics():
    with pytest.raises(UnknownFamily):
        sieve.registry_instantiate("nope", {})
    with pytest.raises(CapExceeded):
        sieve.registry_instantiate("multiset", {"n": 30, "k": 20})
    with pytest.raises(CapExceeded):
        sieve.registry_instantiate("multiset", {"n": 6, "k": 3}, size_cap=10)
    inst = sieve.registry_instantiate("multiset", {"n": 3, "k": 2})
    assert inst.polynomial == IntPolynomial([1, 1, 2, 1, 1])
    assert inst.action.size == 6
    assert len(sieve.list_families()) == 10


def test_registry_nearly_free_gate():
    inst = sieve.registry_instantiate(
        "subset", {"n": 6, "k": 2, "gen": "(1,2)(3,4)(5,6)"}
    )
    assert inst.action.order == 2
    assert sieve.build_report(inst).verdict == "pass"
    inst = sieve.registry_instantiate(
        "multiset", {"n": 7, "k": 2, "gen": "(1,2)(3,4)(5,6)"}
    )
    assert sieve.build_report(inst).verdict == "pass"
    with pytest.raises(NotNearlyFree):
        sieve.registry_instantiate("subset", {"n": 5, "k": 2, "gen": "(1,2,4)(3,5)"})
    with pytest.raises(NotNearlyFree):
        sieve.registry_instantiate("multiset", {"n": 4, "k": 2, "gen": "(1,2)"})


def test_conj_class_golden():
    inst = sieve.registry_instantiate("conj_class", {"lam": (3,)})
    assert inst.polynomial == IntPolynomial([2])
    rows = sieve.verify_csp_roots(inst)
    assert tuple(r.fixed for r in rows) == (2, 2, 2)
    assert sieve.build_report(inst).verdict == "pass"
    inst = sieve.registry_instantiate("conj_class", {"lam": "2,1"})
    assert inst.polynomial == IntPolynomial([1, 1, 1])
    assert sieve.build_report(inst).verdict == "pass"


def test_triangulation_pentagon_single_orbit():
    inst = sieve.registry_instantiate("triangulation", {"n": 3})
    orbits = sieve.orbit_decompose(inst.action)
    assert [len(o.members) for o in orbits] == [5]
    assert sieve.build_report(inst).verdict == "pass"


def test_plethysm_h_reproduces_multisets():
    for n in range(1, 7):
        for k in range(7):
            derived = sieve.registry_instantiate(
                "plethysm_derived", {"base": "cycle", "k": k, "kind": "h", "n": n}
            )
            direct = sieve.registry_instantiate("multiset", {"n": n, "k": k})
            assert derived.action.size == direct.action.size
            assert derived.polynomial == direct.polynomial
            assert sieve.build_report(derived).verdict == "pass"


def test_plethysm_e_odd_only():
    inst = sieve.registry_instantiate(
        "plethysm_derived", {"base": "cycle", "k": 2, "kind": "e", "n": 5}
    )
    assert sieve.build_report(inst).verdict == "pass"
    with pytest.raises(PreconditionError):
        sieve.registry_instantiate(
            "plethysm_derived", {"base": "cycle", "k": 2, "kind": "e", "n": 4}
        )


def test_bicsp_toy():
    labels, gen, F = sieve.berget_eu_reiner_toy()
    assert F == BivariatePolynomial({(0, 0): 1, (1, 1): 1, (2, 2): 1})
    report = sieve.verify_bicsp(labels, gen, gen, F)
    assert report.verdict == "pass"
    assert report.cell(1, 1).value == 0
    inverted = sieve.verify_bicsp(labels, gen, gen, F, e2=2)
    assert inverted.verdict == "fail"
    assert inverted.cell(1, 1).value == 3
    assert inverted.cell(1, 1).fixed == 0
    assert not inverted.cell(1, 1).match


def test_bicsp_trivial_side_degenerates():
    inst = sieve.registry_instantiate("multiset", {"n": 3, "k": 2})
    idgen = tuple(range(inst.action.size))
    F = BivariatePolynomial(
        {(i, 0): c for i, c in enumerate(inst.polynomial.coeffs)}
    )
    rep = sieve.verify_bicsp(
        inst.action.labels, inst.action.generator, idgen, F,
        order1=inst.action.order, order2=1,
    )
    assert rep.verdict == "pass"
    roots = sieve.verify_csp_roots(inst)
    assert [c.fixed for c in rep.cells] == [r.fixed for r in roots]


def test_bicsp_noncommuting_rejected():
    with pytest.raises(NonCommutingActions):
        sieve.verify_bicsp(
            ("a", "b", "c"), (1, 0, 2), (0, 2, 1), BivariatePolynomial({(0, 0): 3})
        )


def test_block_partition_shift():
    inst = sieve.registry_instantiate("cycle", {"n": 6})
    stat = {str(i): i - 1 for i in range(1, 7)}
    blocks = [list(range(6))]
    for j in (1, 2, 3):
        assert sieve.verify_block_partition(inst, stat, blocks, j)


def test_block_partition_degenerate_identity():
    inst = sieve.registry_instantiate("cycle", {"n": 1})
    assert sieve.verify_block_partition(inst, {"1": 0}, [[0]], 0)
    # j=0 with singleton zero-weight blocks passes for any constant polynomial
    inst = sieve.registry_instantiate("conj_class", {"lam": (3,)})
    stat = {label: 0 for label in inst.action.labels}
    assert sieve.verify_block_partition(inst, stat, [[0], [1]], 0)


def test_block_partition_multiset22():
    inst = sieve.registry_instantiate("multiset", {"n": 2, "k": 2})
    stat = {"11": 0, "22": 1, "12": 2}
    idx = {label: i for i, label in enumerate(inst.action.labels)}
    blocks = [[idx["12"]], [idx["11"], idx["22"]]]
    assert sieve.verify_block_partition(inst, stat, blocks, 1)
    with pytest.raises(StatisticMismatch):
        sieve.verify_block_partition(inst, {"11": 0, "22": 0, "12": 2}, blocks, 1)
    with pytest.raises(PreconditionError):
        sieve.verify_block_partition(inst, stat, [[0, 1]], 1)


def test_block_partition_rejects_wrong_blocks():
    # swapping the roles of the blocks must break the certificate
    inst = sieve.registry_instantiate("multiset", {"n": 2, "k": 2})
    stat = {"11": 0, "22": 1, "12": 2}
    idx = {label: i for i, label in enumerate(inst.action.labels)}
    blocks = [[idx["11"], idx["22"]], [idx["12"]]]
    assert not sieve.verify_block_partition(inst, stat, blocks, 1)


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda m: st.tuples(
            st.permutations(list(range(m))),
            st.lists(st.integers(min_value=0, max_value=4), max_size=12),
        )
    )
)
def test_checkers_agree_on_arbitrary_instances(data):
    """The two sieving definitions are equivalent, so the checkers must
    return the same verdict on any action and any nonnegative polynomial,
    not just on instances where a theorem promises a pass."""
    gen, coeffs = data
    labels = tuple(f"x{i}" for i in range(len(gen)))
    action = sieve.CyclicAction(labels, tuple(gen), sieve._faithful_order(tuple(gen)))
    inst = sieve.CSPInstance(action, IntPolynomial(coeffs))
    rep = sieve.build_report(inst)
    assert rep.roots_pass == rep.orbits_pass
    assert burnside_ok(action)


@given(st.permutations(list(range(10))), st.integers(min_value=1, max_value=3))
def test_census_polynomial_always_sieves(gen, mult):
    """Reading the polynomial off the orbit census produces a passing
    instance for any action; a strong self-test of the whole engine."""
    gen = tuple(gen)
    order = sieve._faithful_order(gen) * mult
    labels = tuple(f"x{i}" for i in range(len(gen)))
    action = sieve.CyclicAction(labels, gen, order)
    stabs = [o.stabilizer_order for o in sieve.orbit_decompose(action)]
    census = [sum(1 for s in stabs if i % s == 0) for i in range(order)]
    inst = sieve.CSPInstance(action, IntPolynomial(census))
    rep = sieve.build_report(inst)
    assert rep.verdict == "pass"


def test_report_serialization_schema():
    rep = sieve.build_report(sieve.registry_instantiate("multiset", {"n": 3, "k": 2}))
    d = rep.to_dict()
    assert set(d) == {"family", "params", "size", "order", "rows", "orbits", "a", "verdict"}
    assert d["rows"][0] == {"j": 0, "elem_order": 1, "fixed": 6, "eval": 6, "match": True}
    assert d["orbits"] == [{"size": 3, "stab": 1}, {"size": 3, "stab": 1}]
    assert d["a"] == [2, 2, 2]
    assert d["verdict"] == "pass"


@pytest.mark.parametrize(
    "family,params",
    [
        ("multiset", {"n": 5, "k": 3}),
        ("subset", {"n": 6, "k": 2}),
        ("subset", {"n": 7, "k": 3, "gen": "(1,2)(3,4)(5,6)(7)"}),
        ("syt_rect", {"m": 2, "n": 5}),
        ("syt_rect", {"m": 3, "n": 3}),
        ("ncm", {"n": 4}),
        ("ncp", {"n": 6}),
        ("triangulation", {"n": 5}),
        ("conj_class", {"lam": (2, 2, 1)}),
        ("conj_class", {"lam": (4, 1)}),
        ("proper_triangulation", {"n": 6}),
        ("cycle", {"n": 9}),
        ("plethysm_derived", {"base": "cycle", "k": 3, "kind": "h", "n": 4}),
        ("plethysm_derived", {"base": "cycle", "k": 3, "kind": "e", "n": 7}),
    ],
)
def test_checker_equivalence_across_families(family, params):
    inst = sieve.registry_instantiate(family, params)
    rep = sieve.build_report(inst)
    assert rep.roots_pass == rep.orbits_pass == True
    assert burnside_ok(inst.action)
    bad = sieve.CSPInstance(
        inst.action, sieve.corrupt_polynomial(inst.polynomial, 1), inst.family
    )
    bad_rep = sieve.build_report(bad)
    assert bad_rep.roots_pass == bad_rep.orbits_pass == False
