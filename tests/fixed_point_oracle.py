"""Test oracle for fixed points: power iteration, with no orbit data.

``csplab.sieve.fixed_count`` reads fixed points off the orbit lengths.
This module counts them the slow way instead: compose the generator with
itself j times and count the points the result fixes.  Burnside's lemma
then ties the power-iteration counts to the orbit decomposition.
``faithful_order`` finds a 0-based permutation's order by its own walk.
"""

import math

from csplab import sieve


def faithful_order(p: tuple[int, ...]) -> int:
    """The order of a permutation of 0..len(p)-1: the lcm of its cycle lengths."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    return math.lcm(*lengths) if lengths else 1


def power_fixed_counts(action: sieve.CyclicAction) -> list[int]:
    """Fixed points of generator^j for j = 0..order-1, by power iteration."""
    counts = []
    p = tuple(range(action.size))
    for _ in range(action.order):
        counts.append(sum(1 for i, x in enumerate(p) if i == x))
        p = tuple(action.generator[x] for x in p)
    return counts


def burnside_ok(action: sieve.CyclicAction) -> bool:
    """Summed fixed points over the group equal order times orbit count."""
    total = sum(power_fixed_counts(action))
    return total == action.order * len(sieve.orbit_decompose(action))
