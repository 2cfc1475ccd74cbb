"""Test oracle for the canonical labels: each label built part by part.

``csplab.catalan`` joins texts it keeps per part, and ``csplab.perms`` maps
``str`` over a permutation; these are the per-block and per-edge versions
they replaced, and the labels must be byte-identical to theirs.
"""


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
