"""Noncrossing objects: enumeration counts, rotation, properness."""

import pytest

import enumeration_oracle as eo
from csplab import catalan as ct
from csplab import tableaux as tb
from csplab.errors import CapExceeded, PreconditionError


def test_is_noncrossing():
    assert not eo.is_noncrossing(((1, 3), (2, 4)))
    assert eo.is_noncrossing(((1, 4), (2, 3)))
    for pi in eo.enumerate_set_partitions(3):
        assert eo.is_noncrossing(pi)


def test_nc_partitions_small():
    assert len(ct.enumerate_nc_partitions(1)) == 1
    assert len(ct.enumerate_nc_partitions(3)) == 5
    # filter oracle: exactly one of the 15 partitions of [4] crosses
    all4 = list(eo.enumerate_set_partitions(4))
    assert len(all4) == 15
    byfilter = sorted(pi for pi in all4 if eo.is_noncrossing(pi))
    assert byfilter == sorted(ct.enumerate_nc_partitions(4))
    assert len(byfilter) == 14


@pytest.mark.parametrize("n", range(11))
def test_nc_partition_count(n):
    parts = ct.enumerate_nc_partitions(n, cap=n)
    assert len(parts) == ct.catalan_number(n)
    # the enumerator skips canonicalization, so rotations must land on its objects
    assert all(p == eo.canonical_blocks(p) for p in parts)
    assert sorted(parts) == eo.nc_partitions(n)


@pytest.mark.parametrize("n", range(9))
def test_nc_matching_count(n):
    ms = ct.enumerate_nc_matchings(n, cap=n)
    assert len(ms) == ct.catalan_number(n)
    for m in ms:
        assert eo.is_noncrossing(m)
        assert m == eo.canonical_blocks(m)
    assert sorted(ms) == eo.nc_matchings(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_triangulations_match_oracle(n):
    assert sorted(ct.enumerate_triangulations(n, cap=n)) == eo.triangulations(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_proper_triangulations_match_filter(n):
    direct = ct.enumerate_proper_triangulations(n, cap=n)
    assert len(set(direct)) == len(direct)
    byfilter = [d for d in eo.triangulations(n) if ct.is_proper_triangulation(d, n)]
    assert sorted(direct) == byfilter


@pytest.mark.parametrize("n", range(1, 11))
def test_block_rotations_land_on_enumerated_objects(n):
    parts = ct.enumerate_nc_partitions(n, cap=n)
    up = tuple(range(2, n + 1)) + (1,)
    down = (n,) + tuple(range(1, n))
    objects = set(parts)
    for p in parts:
        assert ct.rotate_blocks(p, n) == eo.rotate_blocks(p, up)
        assert ct.rotate_blocks(p, n, -1) == eo.rotate_blocks(p, down)
        assert ct.rotate_blocks(p, n) in objects
    if n <= 8:  # matchings on [2n], stepped the way ncm steps them
        down = (2 * n,) + tuple(range(1, 2 * n))
        objects = set(ct.enumerate_nc_matchings(n, cap=n))
        for m in objects:
            assert ct.rotate_blocks(m, 2 * n, -1) == eo.rotate_blocks(m, down)
            assert ct.rotate_blocks(m, 2 * n, -1) in objects


@pytest.mark.parametrize("n", range(3, 13))
def test_triangulation_rotations_land_on_enumerated_objects(n):
    # the coloring 1,2,1,2,... is rotation-invariant on even polygons only
    families = [ct.enumerate_triangulations]
    if n % 2 == 0:
        families.append(ct.enumerate_proper_triangulations)
    for enumerate_ in families:
        objects = set(enumerate_(n, cap=n))
        for d in objects:
            assert ct.rotate_triangulation(d, n) == eo.rotate_triangulation(d, n)
            assert ct.rotate_triangulation(d, n) in objects


def test_nc_matchings_golden():
    assert set(ct.enumerate_nc_matchings(3)) == {
        ((1, 6), (2, 5), (3, 4)),
        ((1, 4), (2, 3), (5, 6)),
        ((1, 2), (3, 6), (4, 5)),
        ((1, 6), (2, 3), (4, 5)),
        ((1, 2), (3, 4), (5, 6)),
    }
    assert ct.enumerate_nc_matchings(1) == (((1, 2),),)


def test_triangulation_counts():
    assert len(ct.enumerate_triangulations(3)) == 1
    assert ct.enumerate_triangulations(3) == ((),)
    assert len(ct.enumerate_triangulations(5)) == 5
    assert len(ct.enumerate_triangulations(6)) == 14
    for n in range(3, 13):
        assert len(ct.enumerate_triangulations(n, cap=n)) == ct.catalan_number(n - 2)
    with pytest.raises(CapExceeded):
        ct.enumerate_triangulations(20)
    with pytest.raises(PreconditionError):
        ct.enumerate_triangulations(2)


def _chords_cross(e, f):
    (a, b), (c, d) = e, f
    return a < c < b < d or c < a < d < b


def test_triangulations_noncrossing():
    import itertools

    for diags in ct.enumerate_triangulations(7):
        assert len(diags) == 4
        for e, f in itertools.combinations(diags, 2):
            assert not _chords_cross(e, f)


def test_rotate_blocks():
    assert ct.rotate_blocks(((1,), (2, 3)), 3) == ((1, 3), (2,))
    assert ct.rotate_blocks(((1, 3), (2,)), 3, -1) == ((1,), (2, 3))
    assert ct.rotate_blocks(((1, 2, 3),), 3) == ((1, 2, 3),)
    assert ct.rotate_blocks(((1, 4), (2, 3)), 4, -1) == ((1, 2), (3, 4))
    with pytest.raises(PreconditionError):
        ct.rotate_blocks(((1, 2, 3),), 3, 2)


def test_rotation_is_group_action():
    n = 6
    for pi in ct.enumerate_nc_partitions(n):
        assert ct.rotate_blocks(ct.rotate_blocks(pi, n), n, -1) == pi
        out = pi
        for _ in range(n):
            out = ct.rotate_blocks(out, n)
        assert out == pi
        assert eo.is_noncrossing(ct.rotate_blocks(pi, n))


def test_rotate_triangulation_cycles_pentagon():
    diags = ((1, 3), (1, 4))
    seen = {diags}
    cur = diags
    for _ in range(4):
        cur = ct.rotate_triangulation(cur, 5)
        seen.add(cur)
    assert len(seen) == 5
    assert ct.rotate_triangulation(cur, 5) == diags
    assert seen == set(ct.enumerate_triangulations(5))


def test_triangle_recovery():
    assert ct.triangulation_triangles(((1, 3),), 4) == ((1, 2, 3), (1, 3, 4))
    tris = ct.triangulation_triangles(((1, 3), (3, 5), (1, 5)), 6)
    assert (1, 3, 5) in tris and len(tris) == 4


def test_proper_triangulation_golden():
    # pentagon with the fixed clockwise coloring 1,2,1,2,1
    assert ct.is_proper_triangulation(((1, 3), (1, 4)), 5)
    assert not ct.is_proper_triangulation(((1, 3), (3, 5)), 5)
    for diags in ct.enumerate_triangulations(4):
        assert ct.is_proper_triangulation(diags, 4)


def test_proper_counts_match_enumeration():
    for N in range(1, 13):
        enumerated = len(ct.enumerate_proper_triangulations(N + 2, cap=N + 2))
        assert enumerated == ct.proper_count(N)
    assert ct.proper_count(4) == 12
    assert ct.proper_count(2) == 2
    assert ct.proper_count(8) == 880


def test_proper_count_even_identity():
    for n in range(1, 6):
        assert ct.proper_count(2 * n) == 2**n * ct.fuss_catalan(n, 2)


def test_fuss_catalan():
    assert ct.fuss_catalan(2, 2) == 3
    assert ct.fuss_catalan(3, 2) == 12
    for n in range(1, 9):
        assert ct.fuss_catalan(n, 1) == ct.catalan_number(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_matching_rotation_conjugates_promotion(n):
    # vertex map i -> i-1 (mod 2n) on matchings matches promotion upstairs
    tabs = tb.enumerate_syt((n, n), cap=2 * n)
    assert {tb.tableau_to_matching(T) for T in tabs} == set(
        ct.enumerate_nc_matchings(n, cap=n)
    )
    for T in tabs:
        lhs = tb.tableau_to_matching(tb.promote(T))
        rhs = ct.rotate_blocks(tb.tableau_to_matching(T), 2 * n, -1)
        assert lhs == rhs


def test_labels():
    assert ct.partition_label(((1, 3), (2,))) == "13|2"
    assert ct.partition_label(((1, 9), (2, 5))) == "19|25"
    assert ct.partition_label(((1,), (2, 10), (3,))) == "1|2,10|3"
    assert ct.partition_label(()) == ""
    assert ct.matching_label(((1, 8), (2, 3), (4, 7), (5, 6))) == "18,23,47,56"
    assert ct.matching_label(((1, 14), (2, 3))) == "1-14,2-3"
    assert ct.triangulation_label(()) == "-"
    assert ct.triangulation_label(((1, 3), (1, 4))) == "13,14"
