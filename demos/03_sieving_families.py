#!/usr/bin/env python3
"""Run both fixed-point checkers over every registered family and print the
per-element tables, including a deliberately corrupted instance to show the
checkers can say no."""

from csplab import build_report, corrupt_polynomial, registry_instantiate
from csplab.sieve import CSPInstance


def show(family, params):
    inst = registry_instantiate(family, params)
    rep = build_report(inst)
    head = inst.header()
    params = " ".join(f"{k}={v}" for k, v in head["params"].items())
    print(f"\n{family} {params}: |X| = {head['size']}, group order {head['order']}")
    print(f"  f = {inst.polynomial}")
    print("   j  ord  fixed  eval")
    for r in rep.to_dict()["rows"]:
        print(f"  {r['j']:>2} {r['elem_order']:>4} {r['fixed']:>6} {r['eval']!s:>5}"
              + ("" if r["match"] else "  <-- mismatch"))
    sizes = inst.action.orbit_lengths
    stabs = [inst.action.order // length for length in sizes]
    print(f"  orbits {sizes} stabilizers {stabs}")
    print(f"  folded a {list(rep.a)} vs census {list(rep.census)}")
    print(f"  verdict: {rep.verdict}")
    return inst


show("multiset", {"n": 3, "k": 2})
show("subset", {"n": 6, "k": 2, "gen": "(1,2)(3,4)(5,6)"})
show("syt_rect", {"m": 2, "n": 3})
show("ncm", {"n": 3})
show("ncp", {"n": 4})
show("triangulation", {"n": 3})
show("conj_class", {"lam": (3,)})
show("proper_triangulation", {"n": 4})
inst = show("plethysm_derived", {"base": "cycle", "k": 2, "kind": "h", "n": 3})

print("\nA verifier must also be able to fail.  Bumping one coefficient:")
bad = CSPInstance(inst.action, corrupt_polynomial(inst.polynomial, 2))
rep = build_report(bad)
for r in rep.to_dict()["rows"]:
    print(f"  j={r['j']} order {r['elem_order']}: fixed {r['fixed']} vs {r['eval']}"
          + ("" if r["match"] else "  <-- mismatch"))
print(f"  verdict: {rep.verdict}")
