"""The verification engine: actions, orbits, both checkers, registry."""

import itertools
import math

import pytest
from evaluation_oracle import root_of_unity_binomial
from fixed_point_oracle import (
    bicyclic_burnside_ok,
    burnside_ok,
    compose_idx,
    faithful_order,
    power_fixed_counts,
    power_fixed_grid,
)
from materialize_oracle import FAMILIES as ORACLE_FAMILIES
from materialize_oracle import k_sets, label_keyed_action, oracle_action
from hypothesis import given, settings, strategies as st

from csplab import perms, sieve
from csplab.errors import (
    CapExceeded,
    CspLabError,
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
    message = "orbit length 2 does not divide the declared order 3"
    with pytest.raises(PreconditionError, match=message):
        sieve.CyclicAction(("a", "b"), (1, 0), 3)
    with pytest.raises(PreconditionError, match="not positive"):
        sieve.CyclicAction(("a", "b"), (1, 0), 0)
    with pytest.raises(PreconditionError):
        sieve.CyclicAction(("a", "a"), (0, 1), 1)
    # the orbit walk rejects these before any orbit length is checked against
    # the order, which 6 would admit
    for labels, gen in [
        (("a", "b"), (0, 0)),  # the walk from 1 closes on 0
        (("a", "b", "c"), (1, 1, 0)),  # the walk from 0 closes on 1
        (("a", "b"), (-1, 0)),  # a negative index, which Python would wrap
        (("a", "b"), (0, 2)),  # an index >= n
        (("a", "b"), (1, 0, 2)),  # a generator longer than the labels
        (("a", "b", "c"), (1, 0)),  # and one shorter
    ]:
        with pytest.raises(PreconditionError, match="generator is not a permutation"):
            sieve.CyclicAction(labels, gen, 6)
    empty = sieve.CyclicAction((), (), 1)
    assert empty.size == 0 and empty.orbits == ()


@pytest.mark.parametrize(
    "objects,step,encode,message",
    [
        ((1, 2, 3), lambda i: i + 1, str, "generator leaves the set"),
        ((1, 2, 2), lambda i: i, str, "labels must be distinct"),  # repeated object
        ((1, 2, 3), lambda i: i, lambda i: str(i % 2), "labels must be distinct"),
    ],
)
def test_action_from_objects_rejects_misuse(objects, step, encode, message):
    with pytest.raises(PreconditionError, match=message):
        sieve.action_from_objects(objects, map(step, objects), map(encode, objects), 1)


@pytest.mark.parametrize(
    "images,labels,message",
    [
        ((2, 1), ("1", "2", "3"), "2 images for 3 objects"),
        ((2, 3, 1, 1), ("1", "2", "3"), "4 images for 3 objects"),
        ((2, 3, 1), ("1", "2"), "2 labels for 3 objects"),
        ((2, 3, 1), ("1", "2", "3", "4"), "4 labels for 3 objects"),
        (iter((2, 3, 1)), iter(()), "0 labels for 3 objects"),
    ],
)
def test_action_from_objects_rejects_misaligned_iterables(images, labels, message):
    """Images or labels of another length than the objects are a usage
    error, not an IndexError."""
    with pytest.raises(PreconditionError, match=message):
        sieve.action_from_objects((1, 2, 3), images, labels, 3)


@pytest.mark.parametrize(
    "family,params",
    [
        ("multiset", {"n": 3, "k": 2}),
        ("multiset", {"n": 5, "k": 3, "gen": "(1,2,3,4)(5)"}),
        ("subset", {"n": 6, "k": 3}),
        ("subset", {"n": 12, "k": 2}),
        ("syt_rect", {"m": 2, "n": 4}),
        ("syt_rect", {"m": 3, "n": 3}),
        ("ncm", {"n": 3}),
        ("ncm", {"n": 5}),
        ("ncp", {"n": 5}),
        ("ncp", {"n": 8}),
        ("triangulation", {"n": 4}),
        ("triangulation", {"n": 8}),
        ("conj_class", {"lam": (2, 2)}),
        ("conj_class", {"lam": (3, 2, 1)}),
        ("proper_triangulation", {"n": 4}),
        ("proper_triangulation", {"n": 6}),
        ("cycle", {"n": 1}),
        ("cycle", {"n": 12}),
        ("plethysm_derived", {"base": "ncp", "k": 2, "kind": "h", "n": 4}),
        ("plethysm_derived", {"base": "cycle", "k": 3, "kind": "e", "n": 7}),
    ],
)
def test_materialization_matches_label_keyed_oracle(family, params):
    """Keying the index by object, fed aligned images and labels, gives the
    same labels, generator and order as calling step and encode per object
    and looking every image up by its label."""
    new = sieve.registry_instantiate(family, params).action
    old = oracle_action(family, params)
    assert (new.labels, new.generator, new.order) == (old.labels, old.generator, old.order)


def test_label_keyed_oracle_table_covers_every_family():
    assert sorted(ORACLE_FAMILIES) == sorted(sieve.FAMILIES)


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda m: st.permutations(list(range(m)))
    ),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
    st.sampled_from(["", ","]),
)
@settings(max_examples=60, deadline=None)
def test_k_sets_match_label_keyed_oracle(gen, k, repeat, sep):
    """The k-set builder, whose images and labels iterate in C, agrees with
    stepping and encoding every (multi)set one at a time."""
    labels = [str(x) for x in range(1, len(gen) + 1)]
    order = faithful_order(tuple(gen))
    new = sieve._k_sets(labels, gen, k, repeat, sep, order)
    old = label_keyed_action(*k_sets(labels, gen, k, repeat, sep, order))
    assert (new.labels, new.generator, new.order) == (old.labels, old.generator, old.order)


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
    order = faithful_order(gen) * mult
    action = sieve.CyclicAction(tuple(f"x{i}" for i in range(len(gen))), gen, order)
    oracle = power_fixed_counts(action)
    assert [sieve.fixed_count(action, j) for j in range(order)] == oracle


def test_fixed_count_matches_power_iteration_conj_class():
    # conjugation by a 4-cycle acts on the class of (2,2) with order 2, not 4
    action = sieve.registry_instantiate("conj_class", {"lam": (2, 2)}).action
    assert faithful_order(action.generator) < action.order
    oracle = power_fixed_counts(action)
    assert [sieve.fixed_count(action, j) for j in range(action.order)] == oracle


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(6)])
def test_multiset_fixed_counts_match_closed_form(n, k):
    # counting disjoint unions of cycles agrees with the binomial formula
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


def _assert_same_k_sets(derived, direct):
    assert derived.action.size == direct.action.size
    assert derived.action.generator == direct.action.generator
    # the base labels are joined by commas, the direct ones (n <= 9) are not
    assert [x.replace(",", "") for x in derived.action.labels] == list(
        direct.action.labels
    )
    assert sieve.build_report(derived).verdict == "pass"


def test_plethysm_h_reproduces_multisets():
    for n in range(1, 7):
        for k in range(7):
            derived = sieve.registry_instantiate(
                "plethysm_derived", {"base": "cycle", "k": k, "kind": "h", "n": n}
            )
            direct = sieve.registry_instantiate("multiset", {"n": n, "k": k})
            _assert_same_k_sets(derived, direct)
            assert derived.polynomial == direct.polynomial


def test_plethysm_e_reproduces_subsets():
    for n in (1, 3, 5, 7):
        for k in range(n + 1):
            derived = sieve.registry_instantiate(
                "plethysm_derived", {"base": "cycle", "k": k, "kind": "e", "n": n}
            )
            direct = sieve.registry_instantiate("subset", {"n": n, "k": k})
            _assert_same_k_sets(derived, direct)


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


NOT_A_PERMUTATION = "generator is not a permutation of the indices"

# (labels, gen1, gen2, order1) -> the exact message
INVALID_GENERATORS = {
    # not a permutation; the default order must not name a 1-based copy
    (("a", "b"), (0, 0), (0, 1), None): NOT_A_PERMUTATION,
    # labels and generator differ in length
    (("a", "b", "c"), (1, 0), (1, 0), None): NOT_A_PERMUTATION,
    # declared order not a multiple of 2
    (("a", "b"), (1, 0), (1, 0), 3): "orbit length 2 does not divide the declared order 3",
    # the toy; 0 is not "not given"
    (("1", "w", "w2"), (1, 2, 0), (1, 2, 0), 0): "declared order 0 is not positive",
    # the second generator is not a permutation
    (("a", "b"), (1, 0), (1, 1), None): NOT_A_PERMUTATION,
    # an entry past the end, under a declared order
    (("a", "b"), (0, 2), (0, 1), 2): NOT_A_PERMUTATION,
}


@pytest.mark.parametrize("labels,gen1,gen2,order1", list(INVALID_GENERATORS))
def test_bicsp_rejects_invalid_generators(labels, gen1, gen2, order1):
    message = INVALID_GENERATORS[labels, gen1, gen2, order1]
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        sieve.verify_bicsp(
            labels, gen1, gen2, BivariatePolynomial({(0, 0): 2}), order1=order1
        )


def test_bicsp_cell_reads_exponents_modulo_the_orders():
    labels, gen, F = sieve.berget_eu_reiner_toy()
    report = sieve.verify_bicsp(labels, gen, gen, F, order2=6)
    assert (report.order1, report.order2) == (3, 6)
    for j in range(-4, 8):
        for k in range(-7, 14):
            cell = report.cell(j, k)
            assert (cell.j, cell.k) == (j % 3, k % 6)


def _power(p: tuple[int, ...], e: int) -> tuple[int, ...]:
    out = tuple(range(len(p)))
    for _ in range(e):
        out = compose_idx(p, out)
    return out


def _long_cycle_multiplications(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Left and right multiplication by the long cycle c on S_n, as index
    permutations of the sorted permutations of 0..n-1: w -> c w, w -> w c."""
    X = sorted(itertools.permutations(range(n)))
    index = {w: i for i, w in enumerate(X)}
    c = tuple(range(1, n)) + (0,)
    left = tuple(index[compose_idx(c, w)] for w in X)
    right = tuple(index[compose_idx(w, c)] for w in X)
    return left, right


_one_permutation_powers = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)), st.integers(0, 6), st.integers(0, 6)
    ).map(lambda t: (_power(tuple(t[0]), t[1]), _power(tuple(t[0]), t[2])))
)


def _disjoint(p: list[int], q: list[int]) -> tuple[tuple[int, ...], ...]:
    """p on the first points, q on the rest, and their product."""
    m, r = len(p), len(q)
    return (
        tuple(p) + tuple(range(m, m + r)),
        tuple(range(m)) + tuple(m + x for x in q),
        tuple(p) + tuple(m + x for x in q),
    )


_disjoint_supports = st.tuples(
    st.integers(0, 5).flatmap(lambda m: st.permutations(range(m))),
    st.integers(0, 5).flatmap(lambda r: st.permutations(range(r))),
    st.integers(0, 2),
    st.integers(0, 2),
).filter(lambda t: t[0] or t[1]).map(
    lambda t: (_disjoint(t[0], t[1])[t[2]], _disjoint(t[0], t[1])[t[3]])
)

_long_cycle_pairs = st.sampled_from(
    [_long_cycle_multiplications(n) for n in range(1, 6)]
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_one_permutation_powers, _disjoint_supports, _long_cycle_pairs),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_bicsp_fixed_points_match_power_iteration(pair, m1, m2):
    """Every cell's fixed-point count, read off the orbits of g, equals the
    count of the composed permutation g^j h^k, for commuting pairs drawn
    three ways and declared orders up to three times the true ones."""
    gen1, gen2 = pair
    o1, o2 = faithful_order(gen1) * m1, faithful_order(gen2) * m2
    labels = tuple(map(str, range(len(gen1))))
    report = sieve.verify_bicsp(
        labels, gen1, gen2, BivariatePolynomial(), order1=o1, order2=o2
    )
    grid = power_fixed_grid(gen1, gen2, o1, o2)
    cells = itertools.product(range(o1), range(o2))
    assert [(c.j, c.k) for c in report.cells] == list(cells)
    assert [c.fixed for c in report.cells] == [x for row in grid for x in row]
    assert bicyclic_burnside_ok(gen1, gen2, o1, o2)


def test_bicsp_long_cycle_multiplications():
    """S_4 under w -> c w and w -> w c: g^j h^k fixes w iff c^j w c^k = w,
    i.e. iff w conjugates c^k to c^-j."""
    left, right = _long_cycle_multiplications(4)
    labels = tuple(map(str, range(24)))
    report = sieve.verify_bicsp(labels, left, right, BivariatePolynomial())
    assert [c.fixed for c in report.cells] == [
        x for row in power_fixed_grid(left, right, 4, 4) for x in row
    ]
    assert report.cell(0, 0).fixed == 24
    assert report.cell(1, 0).fixed == report.cell(0, 1).fixed == 0
    assert report.cell(1, 3).fixed == 4  # w c^-1 w^-1 = c^-1: the centralizer of c


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


def test_block_partition_rejects_negative_statistic():
    inst = sieve.registry_instantiate("cycle", {"n": 2})
    with pytest.raises(PreconditionError, match="^statistic values must be nonnegative$"):
        sieve.verify_block_partition(inst, {"1": -1, "2": 0}, [[0, 1]], 1)


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
    action = sieve.CyclicAction(labels, tuple(gen), faithful_order(tuple(gen)))
    inst = sieve.CSPInstance(action, IntPolynomial(coeffs))
    rep = sieve.build_report(inst)
    assert rep.roots_pass == rep.orbits_pass
    assert burnside_ok(action)


@given(st.permutations(list(range(10))), st.integers(min_value=1, max_value=3))
def test_census_polynomial_always_sieves(gen, mult):
    """Reading the polynomial off the orbit census produces a passing
    instance for any action; a strong self-test of the whole engine."""
    gen = tuple(gen)
    order = faithful_order(gen) * mult
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


_junk_int = st.integers(min_value=-2, max_value=7)


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(sorted(sieve.FAMILIES)),
    st.fixed_dictionaries(
        {
            "n": _junk_int,
            "k": _junk_int,
            "m": _junk_int,
            "lam": st.one_of(
                st.lists(st.integers(min_value=-1, max_value=3), max_size=3).map(tuple),
                st.text(alphabet="0123,-", max_size=5),
            ),
        },
        optional={
            "gen": st.sampled_from(["(1,2)", "(1,2,3)", "(1,2)(3,4)", "(1,1)", "(9)", "1,2"]),
            "base": st.sampled_from(sorted(sieve.FAMILIES) + ["nope"]),
            "kind": st.sampled_from(["h", "e", "x"]),
        },
    ),
)
def test_registry_ends_in_verdict_or_usage_error(family, params):
    """Any parameters, junk included, end in a verdict or in one of the
    errors the CLI maps to exit 2 (usage), never in another exception."""
    try:
        inst = sieve.registry_instantiate(family, params, size_cap=60)
    except (CspLabError, ValueError):
        return
    assert sieve.build_report(inst).verdict in ("pass", "fail")
