"""The verification engine: actions, orbits, both checkers, registry."""

import contextlib
import dataclasses
import io
import itertools
import math
import random

import evaluation_oracle
import printer_oracle
import pytest
from enumeration_oracle import cycle_type, parse_cycles
from evaluation_oracle import root_of_unity_binomial
from fixed_point_oracle import (
    bicyclic_burnside_ok,
    burnside_ok,
    census_by_divisibility,
    compose_idx,
    faithful_order,
    power_fixed_counts,
    power_fixed_grid,
)
from materialize_oracle import FAMILIES as ORACLE_FAMILIES
from materialize_oracle import k_sets, label_keyed_action, oracle_action
from hypothesis import assume, given, settings, strategies as st

from csplab import cli, perms, qpoly, sieve
from csplab.errors import (
    CapExceeded,
    CspLabError,
    InternalInvariantError,
    NonCommutingActions,
    NonIntegerEvaluation,
    NotNearlyFree,
    PreconditionError,
    UnknownFamily,
)
from csplab.qpoly import BivariatePolynomial, IntPolynomial, q_int


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


# one or two parameter sets of every family
FAMILY_GRID = [
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
]


@pytest.mark.parametrize("family,params", FAMILY_GRID)
def test_materialization_matches_label_keyed_oracle(family, params):
    """Keying the index by object, fed aligned images and labels, gives the
    same labels, generator and order as calling step and encode per object
    and looking every image up by its label."""
    new = sieve.registry_instantiate(family, params).action
    old = oracle_action(family, params)
    assert (new.labels, new.generator, new.order) == (old.labels, old.generator, old.order)


# plethysm_derived over each family that can be its base
BASES = [("syt_rect", {"m": 2, "n": 3}), ("ncm", {"n": 3}), ("ncp", {"n": 4}),
         ("triangulation", {"n": 3}), ("conj_class", {"lam": "3"}),
         ("proper_triangulation", {"n": 4}), ("cycle", {"n": 5})]


@pytest.mark.parametrize("family,params", FAMILY_GRID + [
    ("subset", {"n": 7, "k": 3, "gen": "(1,2,3)(4,5,6)"}),
] + [
    ("plethysm_derived", {"base": base, "k": 2, "kind": kind, **base_params})
    for base, base_params in BASES for kind in ("h", "e")
    if kind == "h" or base in ("conj_class", "cycle")
])
def test_admitted_order_and_size_are_the_built_ones(monkeypatch, family, params):
    """The order and the size the registry admitted from closed forms, and
    passed to each builder, a plethysm base's too, are the built action's.
    A --gen's order is admitted as None and read off the generator."""
    admitted = []
    for name, fam in list(sieve.FAMILIES.items()):
        def builder(p, order, size, build=fam.builder):
            inst = build(p, order, size)
            admitted.append((order, size, inst.action))
            return inst

        monkeypatch.setitem(sieve.FAMILIES, name, dataclasses.replace(fam, builder=builder))
    sieve.registry_instantiate(family, params)
    assert len(admitted) == (2 if family == "plethysm_derived" else 1)
    for order, size, action in admitted:
        if "gen" in params:
            assert order is None
            order = math.lcm(*map(len, perms.read_cycles(params["gen"], params["n"])))
        assert (order, size) == (action.order, action.size)


@pytest.mark.parametrize("m,n", [(1, 10), (2, 5), (5, 2), (3, 4), (1, 1)])
def test_syt_rect_matches_row_tuple_oracle(m, n):
    """The flat build labels with commas from 10 cells on, as the row-tuple
    labels do, and its slide moves the same cells."""
    new = sieve.registry_instantiate("syt_rect", {"m": m, "n": n}).action
    old = oracle_action("syt_rect", {"m": m, "n": n})
    assert (new.labels, new.generator, new.order) == (old.labels, old.generator, old.order)


def test_label_keyed_oracle_table_covers_every_family():
    assert sorted(ORACLE_FAMILIES) == sorted(sieve.FAMILIES)


# the code of each part of a rotation family's objects, summed into its key
PART_CODES = {
    "ncp": sieve._successor_code, "ncm": sieve._successor_code,
    "triangulation": sieve._degree_code, "proper_triangulation": sieve._degree_code,
}


def _key(obj, order, family):
    return sieve._part_keys([obj], order, PART_CODES[family])[0]


@pytest.mark.parametrize("family,n", [
    (family, n) for family in ("ncp", "ncm", "triangulation", "proper_triangulation")
    for n in range(1, 9) if family != "proper_triangulation" or n % 2 == 0
])
def test_rotation_table_gives_the_step_functions_images(monkeypatch, family, n):
    """The builder indexes every object by its key, and the image key of
    each object is the key of its image under the family's step function,
    ``catalan.rotate_blocks`` or ``catalan.rotate_triangulation``."""
    seen = []
    real = sieve.action_from_objects

    def capture(keys, images, labels, order):
        seen.append((keys, list(images), order))
        return real(keys, seen[-1][1], labels, order)

    monkeypatch.setattr(sieve, "action_from_objects", capture)
    sieve.registry_instantiate(family, {"n": n})
    [(keys, images, order)] = seen
    objects, step, _, oracle_order = ORACLE_FAMILIES[family]({"n": n})
    assert order == oracle_order
    image_of = dict(zip(keys, images))
    assert len(image_of) == len(keys) == len(objects)
    for obj in objects:
        assert image_of[_key(obj, order, family)] == _key(step(obj), order, family)


@pytest.mark.parametrize("family,n", [
    (family, n) for family in PART_CODES
    for n in (range(2, 11, 2) if family == "proper_triangulation" else range(1, 10))
])
def test_part_keys_are_injective_and_rotate_with_their_objects(family, n):
    """Every object has its own key, and rotating the key one place the way
    the family's step function turns (i -> i - 1 for ``ncm``, i -> i + 1
    otherwise), or back, gives the key of the object stepped, or of the
    object it was stepped from."""
    objects, step, _, order = ORACLE_FAMILIES[family]({"n": n})
    shift = -1 if family == "ncm" else 1
    keys = sieve._part_keys(objects, order, PART_CODES[family])
    assert len(set(keys)) == len(objects)
    stepped = sieve._part_keys(list(map(step, objects)), order, PART_CODES[family])
    assert list(sieve._rotated(keys, order, shift)) == stepped
    assert list(sieve._rotated(stepped, order, -shift)) == keys


@pytest.mark.parametrize("n", range(8))
def test_position_keys_are_injective_and_rotate_with_conjugation(n):
    """On every class of S_n, the permutations' keys are distinct, and
    rotating a key by one place either way gives the key of the permutation
    conjugated by the long cycle c, or by c^-1."""
    order = max(n, 1)
    c = tuple(range(2, n + 1)) + (1,) if n else ()
    c_inv = perms.inverse(c)
    for lam in {cycle_type(w) for w in itertools.permutations(range(1, n + 1))}:
        cls = perms.conjugacy_class(lam)
        keys = sieve._position_keys(cls, order)
        assert len(set(keys)) == len(cls)
        up = sieve._position_keys([perms.conjugate(c, w) for w in cls], order)
        down = sieve._position_keys([perms.conjugate(c_inv, w) for w in cls], order)
        assert list(sieve._rotated(keys, order, 1)) == up
        assert list(sieve._rotated(keys, order, -1)) == down


def _shared_part_code(family, coded_as):
    """The family's part code, with each part in ``coded_as`` coded as the
    part it maps to."""
    code = PART_CODES[family]
    return lambda p, base, order: code(coded_as.get(p, p), base, order)


def _first_two_keys_shared(W, order, position_keys=sieve._position_keys):
    keys = position_keys(W, order)
    keys[1] = keys[0]
    return keys


def _every_key_zero(W, order):
    return [0] * len(W)


@pytest.mark.parametrize("argv,name,patch", [
    # 12|3 and 1|23 share a key
    (["verify", "ncp", "--n", "3"], "_successor_code",
     _shared_part_code("ncp", {(2, 3): (1, 2)})),
    # so do the two matchings on [4]
    (["verify", "ncm", "--n", "2", "--json"], "_successor_code",
     _shared_part_code("ncm", {(1, 4): (1, 2), (2, 3): (3, 4)})),
    # and the two triangulations of the square
    (["verify", "triangulation", "--n", "2", "--checker", "orbits"], "_degree_code",
     _shared_part_code("triangulation", {(2, 4): (1, 3)})),
    (["verify", "conj_class", "--lam", "2,1"], "_position_keys", _first_two_keys_shared),
    # the images stay in the set, and both point at the one index left
    (["verify", "conj_class", "--lam", "3"], "_position_keys", _every_key_zero),
], ids=["ncp", "ncm-json", "triangulation-orbits", "conj_class", "conj_class-one-key"])
def test_a_shared_key_is_refused(monkeypatch, capsys, argv, name, patch):
    """Two objects that share a key leave an image that no index holds, or
    an index that no image reaches: the generator is refused, never
    passed."""
    monkeypatch.setattr(sieve, name, patch)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2, err
    assert "verdict: PASS" not in out and '"verdict": "pass"' not in out
    assert err.startswith(("error: generator leaves the set",
                           f"error: {perms.NOT_A_PERMUTATION}")), err


@pytest.mark.parametrize("family,params", [
    ("ncp", {"n": 7}), ("syt_rect", {"m": 3, "n": 3}), ("conj_class", {"lam": (3, 2, 1)}),
])
def test_verify_builds_no_label_sorted_action(family, params):
    """The checkers and both report forms read the histogram only; the
    action sorted by label is built once, on the first read of its labels."""
    inst = sieve.registry_instantiate(family, params)
    report = sieve.build_report(inst)
    report.to_dict()
    action = inst.action
    assert "_built" not in vars(action)
    builds = []
    build = action._build
    action._build = lambda: builds.append(1) or build()
    assert len(action.labels) == action.size
    assert (action.generator, action.orbits) and builds == [1]


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
    stepping and encoding every (multi)set one at a time, and refuses a
    generator that leaves the set or is not a permutation, and a ground set
    with repeated labels."""
    labels = [str(x) for x in range(1, len(gen) + 1)]
    order = faithful_order(tuple(gen))
    new = sieve._k_sets(labels, gen, k, repeat, sep, order)
    old = label_keyed_action(*k_sets(labels, gen, k, repeat, sep, order))
    assert (new.labels, new.generator, new.order) == (old.labels, old.generator, old.order)
    m = len(labels)
    if k and m >= 2 and (repeat or k <= m):
        leaving, repeated = list(gen), list(gen)
        leaving[0], repeated[0] = m, repeated[1]
        with pytest.raises(PreconditionError, match="generator leaves the set"):
            sieve._k_sets(labels, leaving, k, repeat, sep, order)
        with pytest.raises(PreconditionError) as refused:
            sieve._k_sets(labels, repeated, k, repeat, sep, order)
        assert str(refused.value).startswith(("generator leaves the set",
                                              perms.NOT_A_PERMUTATION))
    if m >= 2:
        with pytest.raises(PreconditionError, match=sieve.LABELS_NOT_DISTINCT):
            sieve._k_sets([labels[0]] * 2 + labels[2:], gen, 1, repeat, sep, order)


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
    g = parse_cycles("(1,2,4)(3,5)", 5)
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
    rows = sieve.build_report(inst).to_dict()["rows"]
    assert [(r["j"], r["elem_order"], r["fixed"], r["eval"]) for r in rows] == [
        (0, 1, 6, 6),
        (1, 3, 0, 0),
        (2, 3, 0, 0),
    ]
    assert all(r["match"] for r in rows)


def test_verify_roots_syt33_golden():
    inst = sieve.registry_instantiate("syt_rect", {"m": 2, "n": 3})
    assert inst.polynomial == IntPolynomial([1, 0, 1, 1, 1, 0, 1])
    rows = sieve.build_report(inst).to_dict()["rows"]
    assert tuple(r["fixed"] for r in rows) == (5, 0, 2, 3, 2, 0)
    assert tuple(r["elem_order"] for r in rows) == (1, 6, 3, 2, 3, 6)
    assert tuple(r["eval"] for r in rows) == (5, 0, 2, 3, 2, 0)


def test_verify_orbits_multiset_golden():
    inst = sieve.registry_instantiate("multiset", {"n": 3, "k": 2})
    a, census = sieve.verify_csp_orbits(inst)
    assert a == (2, 2, 2)
    assert census == (2, 2, 2)


def test_verify_orbits_subset_golden():
    inst = sieve.registry_instantiate("subset", {"n": 4, "k": 2})
    a, census = sieve.verify_csp_orbits(inst)
    assert a == (2, 1, 2, 1)
    assert census == (2, 1, 2, 1)
    orbits = sieve.orbit_decompose(inst.action)
    assert sorted(len(o.members) for o in orbits) == [2, 4]


def test_single_fixed_point_census():
    # one fixed point contributes to every a_i through its stabilizer
    a = sieve.CyclicAction(("p", "q", "r", "s"), (0, 2, 3, 1), 3)
    inst = sieve.CSPInstance(a, IntPolynomial([2, 1, 1]))
    _, census = sieve.verify_csp_orbits(inst)
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
    with pytest.raises(PreconditionError, match="^checker must be roots, orbits, or both$"):
        sieve.build_report(inst, "neither")


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
    # --gen is read as cycle notation only: 5 raised a bare TypeError, and
    # b"(1,2)" was read as a one-line permutation of its five bytes
    for gen in (5, (2, 3, 1), b"(1,2)"):
        with pytest.raises(PreconditionError, match="^--gen must be cycle notation"):
            sieve.registry_instantiate("subset", {"n": 3, "k": 1, "gen": gen})


def test_conj_class_golden():
    inst = sieve.registry_instantiate("conj_class", {"lam": (3,)})
    assert inst.polynomial == IntPolynomial([2])
    rows = sieve.build_report(inst).to_dict()["rows"]
    assert tuple(r["fixed"] for r in rows) == (2, 2, 2)
    assert sieve.build_report(inst).verdict == "pass"
    inst = sieve.registry_instantiate("conj_class", {"lam": "2,1"})
    assert inst.polynomial == IntPolynomial([1, 1, 1])
    assert sieve.build_report(inst).verdict == "pass"


def test_triangulation_pentagon_single_orbit():
    inst = sieve.registry_instantiate("triangulation", {"n": 3})
    orbits = sieve.orbit_decompose(inst.action)
    assert [len(o.members) for o in orbits] == [5]
    assert sieve.build_report(inst).verdict == "pass"


def _assert_same_k_sets(derived, direct, n):
    assert derived.action.size == direct.action.size
    assert derived.action.generator == direct.action.generator
    # the base labels are joined by commas, the direct ones only from n = 10 on
    labels = derived.action.labels
    if n <= 9:
        labels = [x.replace(",", "") for x in labels]
    assert list(labels) == list(direct.action.labels)
    assert sieve.build_report(derived).verdict == "pass"


def test_plethysm_h_reproduces_multisets():
    # from n = 10 on, both list a k-set's members in numeric order: 9,10
    for n in (*range(1, 7), 10, 11, 12):
        for k in range(7):
            derived = sieve.registry_instantiate(
                "plethysm_derived", {"base": "cycle", "k": k, "kind": "h", "n": n}
            )
            direct = sieve.registry_instantiate("multiset", {"n": n, "k": k})
            _assert_same_k_sets(derived, direct, n)
            assert derived.polynomial == direct.polynomial


def test_plethysm_e_reproduces_subsets():
    # n = 10 and 12 give even orders, which e_k refuses (test_plethysm_e_odd_only)
    for n in (1, 3, 5, 7, 9, 11):
        for k in range(n + 1):
            derived = sieve.registry_instantiate(
                "plethysm_derived", {"base": "cycle", "k": k, "kind": "e", "n": n}
            )
            direct = sieve.registry_instantiate("subset", {"n": n, "k": k})
            _assert_same_k_sets(derived, direct, n)


@pytest.mark.parametrize("family,params", [
    ("cycle", {"n": 2520}),
    ("plethysm_derived", {"base": "cycle", "n": 15, "k": 4, "kind": "e"}),
])
def test_verify_builds_nothing_for_the_n_cycle(monkeypatch, capsys, family, params):
    """cycle is the counted ground of subset and multiset: verify, of it or
    of a k-set family over it, materializes no action and lists no [n]."""
    def refuse(*args, **kwargs):
        raise AssertionError("verify built an action")

    monkeypatch.setattr(sieve, "action_from_objects", refuse)
    monkeypatch.setattr(perms, "from_cycles", refuse)
    argv = ["verify", family] + [f"--{key}={value}" for key, value in params.items()]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith("verdict: PASS\n")
    inst = sieve.registry_instantiate(family, params)
    sieve.build_report(inst)
    assert "_built" not in vars(inst.action)


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
    with pytest.raises(PreconditionError, match="^embedding exponents must be units mod the orders$"):
        sieve.verify_bicsp(labels, gen, gen, F, e1=3)


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
    roots = sieve.build_report(inst).to_dict()["rows"]
    assert [c.fixed for c in rep.cells] == [r["fixed"] for r in roots]


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


@given(st.integers(min_value=1, max_value=720).flatmap(lambda order: st.tuples(
    st.just(order),
    st.dictionaries(st.sampled_from([e for e in range(1, order + 1) if order % e == 0]),
                    st.integers(min_value=1, max_value=10**12), min_size=1),
)))
def test_slice_census_matches_divisibility_oracle(order_and_histogram):
    order, histogram = order_and_histogram
    action = sieve.CyclicAction.counted(histogram, order, lambda: None)
    _, census = sieve.verify_csp_orbits(sieve.CSPInstance(action, IntPolynomial()))
    assert census == census_by_divisibility(action)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=400).flatmap(lambda order: st.tuples(
    st.just(order),
    st.dictionaries(st.sampled_from(sieve.divisors(order)),
                    st.integers(min_value=1, max_value=50), min_size=1),
    st.integers(min_value=0, max_value=2 * order),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=2 * order),
)))
def test_divisor_rows_read_per_element_match_the_oracle(case):
    """verify_csp_roots returns one row per divisor of the order; g^j's row
    in the JSON report is the row of its order with j in front, as the
    per-element oracle computes it, whether f sieves or not."""
    order, histogram, i, coeffs = case
    action = sieve.CyclicAction.counted(histogram, order, lambda: None)
    _, census = sieve.verify_csp_orbits(sieve.CSPInstance(action, IntPolynomial()))
    f = IntPolynomial(census)
    for f in (f, sieve.corrupt_polynomial(f, i), f + IntPolynomial(coeffs)):
        inst = sieve.CSPInstance(action, f)
        rows = sieve.verify_csp_roots(inst)
        assert [r.elem_order for r in rows] == [d for d in range(1, order + 1) if order % d == 0]
        row_of = {r.elem_order: r for r in rows}
        oracle = printer_oracle.root_rows(inst)
        assert [dataclasses.astuple(r) for r in oracle] == [
            (j, *row_of[d]) for j, d in zip(range(order), sieve.element_orders(order))]
        rep = sieve.build_report(inst)
        assert rep.roots_pass == all(r.match for r in oracle)
        assert rep.to_dict()["rows"] == [
            {"j": r.j, "elem_order": r.elem_order, "fixed": r.fixed, "eval": r.value,
             "match": r.match} for r in oracle]


def test_divisors_are_the_linear_scan():
    """Trial division up to sqrt(n) lists the divisors in increasing order,
    each once, also at a square."""
    for n in [*range(1, 2001), 5040, 9240, sieve.ORDER_CAP - 1, sieve.ORDER_CAP]:
        assert sieve.divisors(n) == [e for e in range(1, n + 1) if n % e == 0], n


def _prime_count(n):
    """The number of distinct primes of n >= 1, by trial division."""
    count, p = 0, 2
    while n > 1:
        if p * p > n:
            return count + 1  # what is left is prime
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count


# the orders up to 2520 by their number of distinct primes, 1 to 4
ORDERS_BY_PRIMES = {k: [n for n in range(2, 2521) if _prime_count(n) == k] for k in range(1, 5)}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(range(1, 5)).flatmap(lambda k: st.sampled_from(ORDERS_BY_PRIMES[k])),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_chained_folds_evaluate_as_division_does(order, seed):
    """Each divisor's row holds what dividing f, folded modulo q^d - 1 by a
    loop, by Phi_d gives (None when that is not an integer), for an f that
    sieves, the same f corrupted past the order, and a random f longer than
    the order."""
    rng = random.Random(seed)
    divs = sieve.divisors(order)
    histogram = {e: rng.randint(1, 9) for e in rng.sample(divs, min(3, len(divs)))}
    action = sieve.CyclicAction.counted(histogram, order, lambda: None)
    _, census = sieve.verify_csp_orbits(sieve.CSPInstance(action, IntPolynomial()))
    f = IntPolynomial(census)
    noise = IntPolynomial(rng.randint(-3, 3) for _ in range(rng.randint(order, 3 * order)))
    for f in (f, sieve.corrupt_polynomial(f, rng.randint(order, 3 * order)), noise):
        rows = sieve.verify_csp_roots(sieve.CSPInstance(action, f))
        assert [r.elem_order for r in rows] == sieve.divisors(order)
        for r in rows:
            try:
                expected = evaluation_oracle.eval_by_division(f, r.elem_order)
            except NonIntegerEvaluation:
                expected = None
            assert r.value == expected
            assert r.fixed == sieve.fixed_count(action, order // r.elem_order)
            assert r.match == (expected == r.fixed)


def test_roots_checker_folds_f_once_per_report(monkeypatch):
    """f is folded exactly once per report, modulo q^order - 1, read
    through sieve's name, and no divisor is folded or evaluated on its own:
    one transform of that fold gives every row."""
    folds, evals = [], []
    fold = sieve.fold_mod_qn

    def evaluate(f, d):
        evals.append(d)
        raise AssertionError("a divisor was evaluated on its own")

    monkeypatch.setattr(sieve, "fold_mod_qn", lambda f, n: folds.append((len(f.coeffs), n))
                        or fold(f, n))
    monkeypatch.setattr(qpoly, "fold_mod_qn", lambda f, n: folds.append((len(f.coeffs), n))
                        or fold(f, n))
    for module in (sieve, qpoly):
        monkeypatch.setattr(module, "eval_at_root", evaluate)
    order = 2520
    inst = sieve.registry_instantiate("cycle", {"n": order})
    inst = dataclasses.replace(inst, polynomial=sieve.corrupt_polynomial(inst.polynomial, 9000))
    rows = sieve.verify_csp_roots(inst)
    assert folds == [(9001, order)]
    assert evals == []
    assert [r.elem_order for r in rows] == sieve.divisors(order)
    assert any(r.value is None for r in rows)


def _oracle_rows(f, order):
    """Each divisor's value by the CRT evaluation at that divisor alone."""
    values = []
    for d in sieve.divisors(order):
        try:
            values.append(evaluation_oracle.eval_by_crt(f, d))
        except NonIntegerEvaluation:
            values.append(None)
    return values


def _transform_rows(f, order):
    action = sieve.CyclicAction.counted({order: 1}, order, lambda: None)
    return [r.value for r in sieve.verify_csp_roots(sieve.CSPInstance(action, f))]


def test_every_divisor_row_matches_the_crt_evaluation():
    """Every order up to 1,200, on [N]_q and on [N]_q with one coefficient
    bumped past the order."""
    for order in range(1, 1201):
        for f in (q_int(order), sieve.corrupt_polynomial(q_int(order), order + order // 3)):
            assert _transform_rows(f, order) == _oracle_rows(f, order), order


# composite, prime powers, primes, and the library's order past ORDER_CAP
@pytest.mark.parametrize("order", [5040, 6561, 8192, 9240, 9973, 7919, 9998, 9999, 10002])
def test_every_divisor_row_matches_the_crt_evaluation_at_edge_orders(order):
    rng = random.Random(order)
    noise = IntPolynomial(rng.randint(-3, 3) for _ in range(2 * order + 5))
    for f in (q_int(order), sieve.corrupt_polynomial(q_int(order), order + 7), noise):
        assert _transform_rows(f, order) == _oracle_rows(f, order)


def test_roots_checker_divides_by_no_cyclotomic(monkeypatch):
    """verify_csp_roots discards the NonIntegerEvaluation message, so it
    never computes the residue modulo Phi_d that the message holds."""
    def refuse(*args):
        raise AssertionError("Phi_d was built or divided by")

    monkeypatch.setattr(qpoly, "_divmod", refuse)
    monkeypatch.setattr(qpoly, "cyclotomic", refuse)
    inst = sieve.registry_instantiate("cycle", {"n": 840})
    inst = dataclasses.replace(inst, polynomial=sieve.corrupt_polynomial(inst.polynomial, 5))
    rep = sieve.build_report(inst)
    assert rep.verdict == "fail" and not rep.roots_pass and not rep.orbits_pass
    assert any(r.value is None for r in rep.rows)


def test_sorted_build_repeats_no_check(monkeypatch):
    """action_from_objects checked the labels and the order; building the
    action sorted by label only walks its orbits, once."""
    action = sieve.registry_instantiate("ncp", {"n": 6}).action
    walks = []
    walk = sieve.orbit_decompose

    def counted_walk(built):
        walks.append(built)
        return walk(built)

    def refuse(*args):
        raise AssertionError("the order was checked again")

    monkeypatch.setattr(sieve, "orbit_decompose", counted_walk)
    monkeypatch.setattr(sieve, "_check_declared_order", refuse)
    assert len(action.labels) == len(action.generator) == action.size == 132
    assert sum(map(len, (o.members for o in action.orbits))) == 132
    assert len(walks) == 1


def test_k_set_listing_walks_each_action_once(monkeypatch):
    """Listing k-sets walks the ground set's cycles once and the k-sets'
    once, sorted: their histogram was counted, so no walk in enumeration
    order reads it again."""
    walks = []
    index_cycles = perms.index_cycles

    def counted_walk(gen):
        walks.append(len(gen))
        return index_cycles(gen)

    monkeypatch.setattr(perms, "index_cycles", counted_walk)
    action = sieve.registry_instantiate("subset", {"n": 120, "k": 2}).action
    assert sum(map(len, (o.members for o in action.orbits))) == 7140
    assert walks == [120, 7140]


@pytest.mark.parametrize("family", ["subset", "multiset"])
def test_built_k_sets_are_checked_against_the_count(family):
    action = sieve.registry_instantiate(family, {"n": 6, "k": 2}).action
    action.__dict__["histogram"] = {**action.histogram, 1: 1}
    with pytest.raises(InternalInvariantError, match="differ from the count"):
        action.orbits


@pytest.mark.parametrize("family,gen", [("subset", "(1,2,3)(4,5,6)"), ("multiset", "(1,2)"),
                                        ("subset", None)])
def test_ground_action_is_counted_from_the_cycle_type(monkeypatch, family, gen):
    """verify reads the ground set's histogram off the listed cycles; the
    permutation of [n] is built only when orbits lists the k-sets."""
    params = {"n": 7 if family == "subset" else 3, "k": 2, **({"gen": gen} if gen else {})}
    expected = sieve.build_report(sieve.registry_instantiate(family, params)).to_dict()
    orbits = sieve.registry_instantiate(family, params).action.orbits
    from_cycles = perms.from_cycles

    def refuse(*args):
        raise AssertionError("the ground permutation was built")

    monkeypatch.setattr(perms, "from_cycles", refuse)
    inst = sieve.registry_instantiate(family, params)
    assert sieve.build_report(inst).to_dict() == expected
    monkeypatch.setattr(perms, "from_cycles", from_cycles)
    assert inst.action.orbits == orbits


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


_junk_int = st.one_of(
    st.integers(min_value=-2, max_value=7),
    st.integers(min_value=-2, max_value=7).map(str),
    st.integers(min_value=10**39, max_value=10**40 - 1).map(str),
    st.floats(),
    st.booleans(),
    st.sampled_from(["4.7", "1_0", " 7 ", "-3", "", "x"]),
)

# junk values for every flag a family signature lists
_JUNK = {
    "n": _junk_int,
    "k": _junk_int,
    "m": _junk_int,
    "lam": st.one_of(
        st.lists(st.integers(min_value=-1, max_value=3), max_size=3).map(tuple),
        st.text(alphabet="0123,-", max_size=5),
    ),
    "gen": st.sampled_from(["(1,2)", "(1,2,3)", "(1,2)(3,4)", "(1,1)", "(9)", "1,2"]),
    "base": st.sampled_from(sorted(sieve.FAMILIES) + ["nope"]),
    "kind": st.sampled_from(["h", "e", "x"]),
}


def _junk_params(family):
    """Junk values for the flags the family's signature lists; the optional
    ones may be left out."""
    _, table = sieve._parameters(family)
    return st.fixed_dictionaries(
        {flag: _JUNK[flag] for flag, required in table.items() if required},
        optional={flag: _JUNK[flag] for flag, required in table.items() if not required},
    )


@st.composite
def _family_and_junk_params(draw):
    """A family and junk values for its flags, and for its base's flags when
    it takes a registered base; its own values win a flag both list."""
    family = draw(st.sampled_from(sorted(sieve.FAMILIES)))
    params = draw(_junk_params(family))
    if params.get("base") in sieve.FAMILIES:
        params = {**draw(_junk_params(params["base"])), **params}
    return family, params


@settings(deadline=None, max_examples=300)
@given(_family_and_junk_params())
def test_registry_ends_in_verdict_or_usage_error(family_and_params):
    """Junk values of the flags a family takes end in a verdict or in a
    package error, never in another exception: int("abc") got out as a
    bare ValueError."""
    family, params = family_and_params
    try:
        inst = sieve.registry_instantiate(family, params, size_cap=60)
    except CspLabError:
        return
    assert sieve.build_report(inst).verdict in ("pass", "fail")


# a value the CLI accepts for each family flag, in the order it collects them
_CLI_VALUES = {
    "n": "3", "k": "2", "m": "2", "lam": "2,1", "gen": "(1,2)", "base": "cycle",
    "kind": "h",
}


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(sorted(sieve.FAMILIES)),
    st.sets(
        st.sampled_from(sorted(_CLI_VALUES)) | st.text("abcxyz_", min_size=1, max_size=4),
        min_size=1, max_size=3,
    ),
)
def test_unlisted_parameters_are_refused_with_the_cli_message(family, names):
    """On the library path, a parameter the signature does not list raises
    the same PreconditionError that the CLI prints, before any builder runs;
    plethysm_derived also takes its base's flags (here cycle's --n)."""
    fam, table = sieve._parameters(family)
    accepted = set(table) | ({"n"} if "base" in table else set())
    extras = names - accepted
    assume(extras)
    params = {
        flag: value for flag, value in _CLI_VALUES.items()
        if flag in accepted or flag in extras
    }
    params.update((name, "1") for name in sorted(extras - set(_CLI_VALUES)))
    shown = " ".join(f"--{name}" for name in params if name not in accepted)
    signature = fam.signature + ("; base cycle: --n N" if "base" in table else "")
    message = f"family {family} does not take {shown}; signature: {signature}"
    with pytest.raises(PreconditionError) as exc:
        sieve.registry_instantiate(family, params)
    assert str(exc.value) == message
    if extras <= set(_CLI_VALUES):
        argv = ["verify", family]
        for name, value in params.items():
            argv += [f"--{name}", value]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(argv) == 2
        assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("value", [4.7, True, "4.7", "1_0", "abc", " 4 ", "4-", "\u0664", None])
def test_integer_parameters_are_read_not_coerced(value):
    # the registry built ncp --n 4 from 4.7, --n 1 from True, --n 10 from "1_0"
    with pytest.raises(PreconditionError, match="^--n must be an integer$"):
        sieve.registry_instantiate("ncp", {"n": value})


def test_decimal_digits_read_as_the_integer():
    for text in ("4", "+4"):
        inst, number = (sieve.registry_instantiate("ncp", {"n": n}) for n in (text, 4))
        assert inst.header() == number.header() and inst.polynomial == number.polynomial
    inst = sieve.registry_instantiate("subset", {"n": "5", "k": "0"}, "7")
    assert inst.params == (("n", 5), ("k", 0))
    with pytest.raises(PreconditionError, match="^--k must be at least 0$"):
        sieve.registry_instantiate("subset", {"n": 5, "k": -1})


@pytest.mark.parametrize("lam,parts", [("", ()), ("3,1", (3, 1)), ((2, 2), (2, 2))])
def test_partition_is_read_part_by_part(lam, parts):
    inst = sieve.registry_instantiate("conj_class", {"lam": lam})
    assert inst.params == (("lam", parts),)


@pytest.mark.parametrize("lam", ["3,,1", ",", "2,1,", (2, True), (2.0,), ("2", " 1")])
def test_partition_parts_are_integers(lam):
    # "3,,1" was read as (3, 1)
    with pytest.raises(PreconditionError, match="^each --lam part must be an integer$"):
        sieve.registry_instantiate("conj_class", {"lam": lam})


@pytest.mark.parametrize("cap", [0, -5, True, 2.5, "0", "abc"])
def test_library_size_cap_is_read_and_bounded(cap):
    # a cap of 0, -5, True or 2.5 failed every instance: "exceeds the cap 0"
    with pytest.raises(PreconditionError, match=r"^the size cap \(--cap or CSP_LAB_CAP\) must be"):
        sieve.registry_instantiate("cycle", {"n": 3}, cap)
    assert sieve.registry_instantiate("cycle", {"n": 3}, 3).action.size == 3


def test_unknown_parameter_is_refused_not_dropped():
    # the registry used to build `ncp --n 4` and ignore k
    with pytest.raises(PreconditionError, match="^family ncp does not take --k; "
                       "signature: --n N$"):
        sieve.registry_instantiate("ncp", {"n": 4, "k": 99})


@pytest.mark.parametrize(
    "params,missing", [({"n": 3}, "k"), ({}, "n"), ({"k": 2, "gen": "(1,2)"}, "n")]
)
def test_first_missing_parameter_is_named_before_the_builder_runs(monkeypatch, params,
                                                                  missing):
    def builder(params, order, size):
        raise AssertionError(f"builder ran on {params}")

    fam = sieve.FAMILIES["multiset"]
    monkeypatch.setitem(sieve.FAMILIES, "multiset", dataclasses.replace(fam, builder=builder))
    with pytest.raises(PreconditionError) as exc:
        sieve.registry_instantiate("multiset", params)
    assert str(exc.value) == (
        f"family multiset needs parameter '{missing}'; signature: {fam.signature}"
    )


@pytest.mark.parametrize(
    "base,shared",
    [("subset", "--k"), ("multiset", "--k"), ("plethysm_derived", "--base --k --kind")],
)
def test_plethysm_refuses_a_base_that_shares_its_flags(base, shared):
    # --k went to plethysm_derived, and the base was told it needed parameter 'k'
    params = {"base": base, "n": 4, "k": 2, "kind": "h"}
    with pytest.raises(PreconditionError) as exc:
        sieve.registry_instantiate("plethysm_derived", params)
    assert str(exc.value) == (
        f"family plethysm_derived cannot take base {base}, which also takes {shared}"
    )


@pytest.mark.parametrize(
    "base,base_params",
    [
        ("cycle", {"n": 3}),
        ("ncp", {"n": 3}),
        ("ncm", {"n": 2}),
        ("triangulation", {"n": 2}),
        ("syt_rect", {"m": 2, "n": 2}),
        ("conj_class", {"lam": "2,1"}),
        ("proper_triangulation", {"n": 2}),
    ],
)
def test_plethysm_builds_on_every_other_base(base, base_params):
    inst = sieve.registry_instantiate(
        "plethysm_derived", {"base": base, "k": 2, **base_params}
    )
    assert inst.params[:3] == (("base", base), ("k", 2), ("kind", "h"))
    assert sieve.build_report(inst).verdict == "pass"


def test_bounded_binomial():
    # exact while it is short enough to print, a lower bound above the cap
    # once it is not
    for n in range(0, 120):
        for k in range(-1, n + 2):
            exact = math.comb(n, k) if k >= 0 else 0
            got = sieve._comb(n, k, sieve.DEFAULT_SIZE_CAP)
            if exact < 10**30:
                assert got == exact, (n, k)
            else:
                assert 10**30 <= got <= exact, (n, k)
    assert sieve._comb(200, 100, 10**70) == math.comb(200, 100)


# ---------------------------------------------------------------------------
# counted k-set actions against the materialized ones
#
# Mutation note: a wrong sign in the Moebius inversion of ``_counted_k_sets``
# (adding the k-sets of the shorter orbits instead of subtracting them)
# fails test_counted_k_sets_match_the_materialized_oracle, and a subset
# count run at k rather than at min(k, n - k) fails
# test_subset_is_counted_at_its_smaller_side.  The count at k gives the
# same numbers, since the product of the 1 + x^l is palindromic, so only
# the side it runs at can show the complement.

PLETHYSM_BASES = {
    "cycle": st.fixed_dictionaries({"n": st.integers(1, 7)}),
    "ncp": st.fixed_dictionaries({"n": st.integers(1, 4)}),
    "ncm": st.fixed_dictionaries({"n": st.integers(1, 3)}),
    "triangulation": st.fixed_dictionaries({"n": st.integers(1, 3)}),
    "syt_rect": st.fixed_dictionaries({"m": st.integers(1, 2), "n": st.integers(1, 3)}),
    "conj_class": st.fixed_dictionaries(
        {"lam": st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 1, 1), (3, 1), (2, 2)])}),
    "proper_triangulation": st.fixed_dictionaries({"n": st.sampled_from([2, 4])}),
}


@st.composite
def _nearly_free_generator(draw, n):
    """Cycle notation of a free or nearly free permutation of [n]."""
    moved = draw(st.sampled_from([n, n - 1] if n > 1 else [n]))
    length = draw(st.sampled_from([d for d in range(1, moved + 1) if moved % d == 0]))
    points = draw(st.permutations(range(1, n + 1)))
    return "".join("(" + ",".join(map(str, points[i:i + length])) + ")"
                   for i in range(0, moved, length))


@st.composite
def _k_set_instances(draw):
    family = draw(st.sampled_from(["subset", "multiset", "plethysm_derived"]))
    if family == "plethysm_derived":
        base = draw(st.sampled_from(sorted(PLETHYSM_BASES)))
        params = {"base": base, "k": draw(st.integers(0, 3)),
                  "kind": draw(st.sampled_from("he")), **draw(PLETHYSM_BASES[base])}
    else:
        n = draw(st.integers(1, 9))
        params = {"n": n, "k": draw(st.integers(0, 7))}
        if draw(st.booleans()):
            params["gen"] = draw(_nearly_free_generator(n))
    return family, params


@settings(max_examples=300, deadline=None)
@given(_k_set_instances())
def test_counted_k_sets_match_the_materialized_oracle(instance):
    """The counted histogram, every fixed count and the verdict equal those of
    the action materialized the slow way, and f + q fails both checkers."""
    family, params = instance
    try:
        inst = sieve.registry_instantiate(family, params, size_cap=2000)
    except (CapExceeded, NotNearlyFree, PreconditionError):
        assume(False)
    counted = inst.action
    oracle = oracle_action(family, params)
    assert counted.histogram == oracle.histogram
    assert "_built" not in vars(counted)  # nothing above built a k-set
    assert counted.size == oracle.size and counted.order == oracle.order
    assert [sieve.fixed_count(counted, j) for j in range(counted.order)] == (
        [sieve.fixed_count(oracle, j) for j in range(oracle.order)])
    report = sieve.build_report(inst)
    assert report.verdict == sieve.build_report(
        sieve.CSPInstance(oracle, inst.polynomial)).verdict == "pass"
    bad = sieve.build_report(dataclasses.replace(
        inst, polynomial=sieve.corrupt_polynomial(inst.polynomial, 1)))
    assert not bad.roots_pass and not bad.orbits_pass
    # the lazy build is the same action as the oracle's, checked against the count
    assert (counted.labels, counted.generator) == (oracle.labels, oracle.generator)


@pytest.mark.parametrize("n,k", [(6, 5), (6, 1), (9, 7), (9, 2), (3000, 2999)])
def test_subset_is_counted_at_its_smaller_side(monkeypatch, n, k):
    """Complementing is an equivariant bijection, so a subset count runs at
    min(k, n - k)."""
    seen = []
    fixed = sieve._fixed_k_sets
    monkeypatch.setattr(sieve, "_fixed_k_sets",
                        lambda cycles, k, repeat: seen.append(k) or fixed(cycles, k, repeat))
    inst = sieve.registry_instantiate("subset", {"n": n, "k": k})
    assert set(seen) == {min(k, n - k)}
    assert sieve.build_report(inst).verdict == "pass"


def test_verify_builds_no_k_set(monkeypatch, capsys):
    """verify reads the counted histogram; only orbits builds the k-sets."""
    def refuse(*args):
        raise AssertionError("a k-set was built")

    monkeypatch.setattr(sieve, "_k_sets", refuse)
    for argv in (["verify", "subset", "--n", "7", "--k", "3", "--json"],
                 ["verify", "multiset", "--n", "4", "--k", "2", "--gen", "(1,2)(3,4)"],
                 ["verify", "plethysm_derived", "--base", "ncp", "--n", "4", "--k", "2"]):
        assert cli.main(argv) == 0
    assert cli.main(["orbits", "subset", "--n", "4", "--k", "2"]) == 3
    assert "a k-set was built" in capsys.readouterr().err


def test_counted_histogram_must_hold_every_k_set():
    """A count that does not add up to the closed-form |X| is an internal
    error, and so is a build whose orbits differ from the count."""
    ground = sieve.registry_instantiate("cycle", {"n": 6}).action
    assert sieve._counted_k_sets(ground, 2, False, ",", 15).histogram == {3: 1, 6: 2}
    with pytest.raises(InternalInvariantError, match="do not hold the 16 k-sets"):
        sieve._counted_k_sets(ground, 2, False, ",", 16)
    wrong = sieve.CyclicAction.counted(
        {2: 1}, 2, lambda: sieve.CyclicAction(("a", "b"), (0, 1), 2))
    assert wrong.size == 2 and wrong.orbit_lengths == [2]
    with pytest.raises(InternalInvariantError, match="differ from the count"):
        wrong.labels


def test_orbit_list_is_bounded_before_it_is_made():
    """The number of orbits a report lists is read off the histogram: at the
    cap the sizes are listed, past it (here by 10^50 orbits) nothing is."""
    cap = sieve.ORBIT_LIST_CAP
    at_cap = sieve.CyclicAction.counted({1: cap - 2, 2: 2}, 2, lambda: None)
    assert at_cap.orbit_lengths[-3:] == [1, 2, 2] and len(at_cap.orbit_lengths) == cap
    for histogram in ({1: cap - 1, 2: 2}, {1: 10**50}):
        with pytest.raises(CapExceeded, match="listed orbit count .* exceeds the cap"):
            sieve.CyclicAction.counted(histogram, 2, lambda: None).orbit_lengths


def test_k_set_listing_is_priced_before_it_is_built(monkeypatch):
    """orbits lists |X| max(k, 1) members: at ORBIT_LIST_CAP the k-sets are
    built, past it none is."""
    monkeypatch.setattr(sieve, "ORBIT_LIST_CAP", 20)
    assert len(sieve.registry_instantiate("subset", {"n": 5, "k": 2}).action.orbits) == 2

    def refuse(*args):
        raise AssertionError("a k-set was built")

    monkeypatch.setattr(sieve, "_k_sets", refuse)
    for family, params in (("subset", {"n": 5, "k": 3}), ("multiset", {"n": 2, "k": 6}),
                           ("plethysm_derived", {"base": "cycle", "n": "5", "k": "3"})):
        action = sieve.registry_instantiate(family, params).action
        with pytest.raises(CapExceeded, match="listed k-set member count .* exceeds the cap 20"):
            action.orbits
