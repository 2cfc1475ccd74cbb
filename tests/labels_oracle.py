"""Test oracle for the canonical labels: each label built part by part.

``csplab.catalan`` joins texts it keeps per part, ``csplab.perms`` maps
``str`` over a permutation, and ``csplab.tableaux.promotion_of_syt`` joins
texts it keeps per cell; these are the per-block, per-edge and per-template
versions they replaced, and the labels must be byte-identical to theirs.
"""
import itertools

from csplab.tableaux import label_template


def partition_label(blocks):
    """Blocks joined by '|', digit strings while elements fit one digit."""
    sep = "" if max([b[-1] for b in blocks], default=0) <= 9 else ","
    return "|".join([sep.join(map(str, b)) for b in blocks])


def matching_label(edges):
    """Edges joined by commas: "18,23,47,56" style for one-digit vertices,
    "1-14" style otherwise."""
    if all(b <= 9 for _, b in edges):
        return ",".join(f"{a}{b}" for a, b in edges)
    return ",".join(f"{a}-{b}" for a, b in edges)


def triangulation_label(diags):
    return matching_label(diags) if diags else "-"


def perm_label(w):
    """Digits for n <= 9, else comma-joined."""
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def tableau_labels(lam, X):
    """The labels of the flat tableaux X of shape lam, each formatted into
    the shape's template, one field per cell."""
    return itertools.starmap(label_template(lam, sum(lam) <= 9).format, X)
