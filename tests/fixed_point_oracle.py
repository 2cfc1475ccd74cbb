"""Test oracle for fixed points: power iteration, with no orbit data.

``csplab.sieve.fixed_count`` reads fixed points off the orbit lengths.
This module counts them the slow way instead: compose the generator with
itself j times and count the points the result fixes.  Burnside's lemma
then ties the power-iteration counts to the orbit decomposition.
``faithful_order`` finds a 0-based permutation's order by its own walk.

For two commuting generators g and h (``sieve.verify_bicsp``) the same is
done in two dimensions: compose g^j h^k for every (j, k) and count, and
Burnside's lemma for the product of the two declared cyclic groups ties the
sum of the counts to the number of orbits of <g, h>, found by a search that
follows both generators.
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


def compose_idx(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)[i] = p[q[i]] on 0-based indices."""
    return tuple(p[x] for x in q)


def power_fixed_grid(
    gen1: tuple[int, ...], gen2: tuple[int, ...], order1: int, order2: int
) -> list[list[int]]:
    """grid[j][k] = fixed points of gen1^j gen2^k, by power iteration."""
    grid = []
    pow1 = tuple(range(len(gen1)))
    for _ in range(order1):
        row, pow12 = [], pow1
        for _ in range(order2):
            row.append(sum(1 for i, x in enumerate(pow12) if i == x))
            pow12 = compose_idx(gen2, pow12)
        grid.append(row)
        pow1 = compose_idx(gen1, pow1)
    return grid


def joint_orbit_count(gen1: tuple[int, ...], gen2: tuple[int, ...]) -> int:
    """Number of orbits of the group generated by two index permutations."""
    seen = [False] * len(gen1)
    count = 0
    for start in range(len(gen1)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for y in (gen1[x], gen2[x]):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def bicyclic_burnside_ok(
    gen1: tuple[int, ...], gen2: tuple[int, ...], order1: int, order2: int
) -> bool:
    """Summed fixed points over Z_order1 x Z_order2 equal order1 * order2
    times the number of <gen1, gen2>-orbits."""
    total = sum(map(sum, power_fixed_grid(gen1, gen2, order1, order2)))
    return total == order1 * order2 * joint_orbit_count(gen1, gen2)
