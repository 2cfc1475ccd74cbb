"""The canonical labels against their part-by-part oracle: arbitrary
canonical objects, every object of the Catalan families, and the bound on
the tables of part texts that ``csplab.catalan`` keeps."""

import pytest
from hypothesis import given, strategies as st

import labels_oracle
from csplab import catalan, perms, qpoly

# entries up to 9 (one-digit labels), just past it, or well past it
ENTRIES = st.sampled_from([9, 12, 120]).flatmap(
    lambda top: st.lists(st.integers(1, top), unique=True, max_size=14))


@st.composite
def canonical_blocks(draw):
    """A set partition of distinct entries: sorted blocks, sorted by minimum."""
    points = draw(ENTRIES)
    owner = draw(st.lists(st.integers(0, 4), min_size=len(points), max_size=len(points)))
    blocks = {}
    for x, i in zip(points, owner):
        blocks.setdefault(i, []).append(x)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


@st.composite
def canonical_edges(draw):
    """A matching of distinct entries: pairs (a, b) with a < b, sorted."""
    points = draw(ENTRIES)
    pairs = zip(points[::2], points[1::2])
    return tuple(sorted(tuple(sorted(e)) for e in pairs))


@given(canonical_blocks())
def test_partition_label_matches_oracle(blocks):
    assert catalan.partition_label(blocks) == labels_oracle.partition_label(blocks)


@given(canonical_edges())
def test_matching_and_triangulation_labels_match_oracle(edges):
    assert catalan.matching_label(edges) == labels_oracle.matching_label(edges)
    assert catalan.triangulation_label(edges) == labels_oracle.triangulation_label(edges)


@given(st.integers(0, 14).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_perm_label_matches_oracle(w):
    w = tuple(w)
    assert perms.perm_label(w) == labels_oracle.perm_label(w)


# family -> (enumerator of the instance at n, label, oracle)
FAMILIES = {
    "ncp": (catalan.enumerate_nc_partitions, catalan.partition_label,
            labels_oracle.partition_label),
    "ncm": (catalan.enumerate_nc_matchings, catalan.matching_label,
            labels_oracle.matching_label),
    "triangulation": (lambda n: catalan.enumerate_triangulations(n + 2),
                      catalan.triangulation_label, labels_oracle.triangulation_label),
    "proper_triangulation": (lambda n: catalan.enumerate_proper_triangulations(n + 2),
                             catalan.triangulation_label, labels_oracle.triangulation_label),
}
CASES = [(family, n) for family in FAMILIES for n in range(family not in ("ncp", "ncm"), 9)]
CASES += [("ncp", 10), ("triangulation", 10)]


@pytest.mark.parametrize("family,n", CASES)
def test_every_catalan_label_matches_oracle(family, n):
    enumerate_family, label, oracle = FAMILIES[family]
    objects = enumerate_family(n)
    assert list(map(label, objects)) == list(map(oracle, objects))


def test_part_tables_stay_bounded(monkeypatch):
    # more distinct parts than the bound in every table: single blocks
    # 1..cap+999, and every edge on 1..150 (C(150, 2) = 11,175 of them)
    names = ("_DIGITS", "_COMMAS", "_DASHES")
    for name in names:
        monkeypatch.setattr(catalan, name, qpoly.Texts(getattr(catalan, name).make))
    cap = qpoly.TEXTS_CAP
    objects = [(catalan.partition_label, labels_oracle.partition_label, ((x,),))
               for x in range(1, cap + 1000)]
    objects += [(catalan.matching_label, labels_oracle.matching_label, ((a, b),))
                for b in range(2, 151) for a in range(1, b)]
    objects += [(catalan.partition_label, labels_oracle.partition_label, ((1, 3), (2,))),
                (catalan.matching_label, labels_oracle.matching_label, ((1, 8), (2, 3)))]
    for label, oracle, obj in objects:
        assert label(obj) == oracle(obj)
        assert max(len(getattr(catalan, name)) for name in names) <= cap
    # the comma and dash tables each reached the bound and kept their first texts
    assert [len(getattr(catalan, name)) for name in names[1:]] == [cap, cap]
    assert catalan._COMMAS[(10,)] == "10" and catalan._DASHES[(1, 10)] == "1-10"
