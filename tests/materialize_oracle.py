"""Test oracle for materialization: the label-keyed path, fed per object.

``csplab.sieve.action_from_objects`` takes the images and labels as
iterables aligned with the objects and keys its index by the object, so
every image must be a canonical object.  This module materializes the slow
way instead: it calls ``encode`` on every object for the sort, calls
``step`` on every object and encodes every image again, looking it up by
label.  Only the labels have to be canonical here, so the two paths agree
exactly when the family's step returns the enumerated objects themselves.

``FAMILIES`` gives, for each registered family, the enumerator, step,
encoding and order that ``oracle_action`` feeds to the label-keyed path,
written from the family's definition rather than from its builder.  The
Catalan families and ``conj_class`` are encoded by the part-by-part labels
of ``labels_oracle``.  ``cycle`` is the exception: its entry is the n-cycle
itself, on [n] in numeric order, the ground that ``subset`` and
``multiset`` act on, so ``plethysm_derived`` over it is compared there too.
"""

import itertools

import enumeration_oracle
import labels_oracle
import tableaux_oracle
from csplab import catalan, perms, sieve
from csplab.errors import PreconditionError


def label_keyed_action(objects, step, encode, order) -> sieve.CyclicAction:
    """The action with its generator found through the labels of the images."""
    pairs = sorted(((encode(o), o) for o in objects), key=lambda p: p[0])
    labels = tuple(e for e, _ in pairs)
    index = {e: i for i, e in enumerate(labels)}
    if len(index) != len(pairs):
        raise PreconditionError("encodings are not injective")
    try:
        gen = tuple(index[encode(step(o))] for _, o in pairs)
    except KeyError as exc:
        raise PreconditionError(f"generator leaves the set: {exc}") from exc
    return sieve.CyclicAction(labels, gen, order)


def k_sets(labels, gen, k, repeat, sep, order):
    """k-subsets (or k-multisets with ``repeat``) of the indices of
    ``labels`` under the index permutation ``gen``."""
    pick = itertools.combinations_with_replacement if repeat else itertools.combinations
    return (
        pick(range(len(labels)), k),
        lambda t: tuple(sorted(gen[i] for i in t)),
        lambda t: sep.join(labels[i] for i in t) if t else "-",
        order,
    )


def _ground_k_sets(p, repeat):
    n = p["n"]
    g = (enumeration_oracle.parse_cycles(p["gen"], n) if "gen" in p
         else tuple(range(2, n + 1)) + (1,))
    labels = [str(x) for x in range(1, n + 1)]
    return k_sets(labels, [x - 1 for x in g], p["k"], repeat, "" if n <= 9 else ",",
                  enumeration_oracle.perm_order(g))


def _plethysm(p):
    base = oracle_action(p["base"], {key: v for key, v in p.items()
                                     if key not in ("base", "k", "kind")})
    return k_sets(base.labels, base.generator, p["k"], p["kind"] == "h", ",", base.order)


def _conj_class(p):
    n = sum(p["lam"])
    c = tuple(range(2, n + 1)) + (1,)
    return (enumeration_oracle.conjugacy_class(p["lam"]), lambda w: perms.conjugate(c, w),
            labels_oracle.perm_label, max(n, 1))


def _proper_triangulation(p):
    n = p["n"] + 2
    objects = [d for d in catalan.enumerate_triangulations(n, cap=n)
               if catalan.is_proper_triangulation(d, n)]
    return (objects, lambda d: catalan.rotate_triangulation(d, n),
            labels_oracle.triangulation_label, n)


def _cycle(p):
    """The n-cycle on [n] written from its definition, not label-keyed: the
    labels 1..n in numeric order and the generator i -> i + 1 (mod n)."""
    n = p["n"]
    return sieve.CyclicAction([str(i) for i in range(1, n + 1)],
                              [(i + 1) % n for i in range(n)], n)


# family -> params -> (objects, step, encode, order), or the action itself
FAMILIES = {
    "multiset": lambda p: _ground_k_sets(p, True),
    "subset": lambda p: _ground_k_sets(p, False),
    "syt_rect": lambda p: (
        tableaux_oracle.enumerate_syt((p["n"],) * p["m"]),
        tableaux_oracle.promote, tableaux_oracle.tableau_label, p["m"] * p["n"],
    ),
    "ncm": lambda p: (
        catalan.enumerate_nc_matchings(p["n"], cap=p["n"]),
        lambda e: catalan.rotate_blocks(e, 2 * p["n"], -1),
        labels_oracle.matching_label, 2 * p["n"],
    ),
    "ncp": lambda p: (
        catalan.enumerate_nc_partitions(p["n"], cap=p["n"]),
        lambda b: catalan.rotate_blocks(b, p["n"]),
        labels_oracle.partition_label, p["n"],
    ),
    "triangulation": lambda p: (
        catalan.enumerate_triangulations(p["n"] + 2, cap=p["n"] + 2),
        lambda d: catalan.rotate_triangulation(d, p["n"] + 2),
        labels_oracle.triangulation_label, p["n"] + 2,
    ),
    "conj_class": _conj_class,
    "proper_triangulation": _proper_triangulation,
    "cycle": _cycle,
    "plethysm_derived": _plethysm,
}


def oracle_action(family, params) -> sieve.CyclicAction:
    """The family's action, materialized by the label-keyed path unless its
    table entry writes the action out."""
    entry = FAMILIES[family](params)
    return entry if isinstance(entry, sieve.CyclicAction) else label_keyed_action(*entry)
