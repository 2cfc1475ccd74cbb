"""The iterated-division evaluation path, kept as a test oracle.

``cyclotomic`` divides q^d - 1 by Phi_e for every proper divisor e of d,
and ``eval_at_root`` reduces f itself, unfolded, modulo Phi_d with its own
long division.  Neither uses ``fold_mod_qn``, so the roots side stays
independent of the orbit checker's fold.  Both are slow for large d: the
division steps grow with d times the sum of phi(e) over its divisors.

``cyclotomic_by_prime_steps`` is the construction that ``qpoly.cyclotomic``
replaced with one ``q_ratio``: exact division by Phi_m once per prime of d.

``eval_by_division`` is the evaluation that ``qpoly.eval_at_root`` replaced
with coordinates in a Z-basis of Z[w]: f folded modulo q^d - 1 by a loop
over its coefficients (``fold_by_loop``, which ``qpoly.fold_mod_qn``
replaced with slices), then divided by Phi_d.  Its message is the one
``eval_at_root`` builds when the message is read.

``root_of_unity_binomial`` is the closed form of a Gaussian binomial at a
root of unity, which the multiset fixed-point counts are checked against.
"""
from __future__ import annotations

import functools
import math

from csplab import qpoly
from csplab.errors import NonIntegerEvaluation, PreconditionError
from csplab.qpoly import IntPolynomial, exact_divide


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    poly = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            poly = exact_divide(poly, cyclotomic(e))
    return poly


def cyclotomic_by_prime_steps(d: int) -> IntPolynomial:
    """From Phi_1 = q - 1, each prime p of d gives Phi_mp(q) =
    Phi_m(q^p) / Phi_m(q) by exact division, and Phi_d(q) = Phi_r(q^(d/r))
    where r is the product of the primes of d."""
    primes, rest, p = [], d, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    poly = IntPolynomial((-1, 1))
    for p in primes:
        poly = exact_divide(_at_power(poly, p), poly)
    return _at_power(poly, d // math.prod(primes))


def _at_power(f: IntPolynomial, k: int) -> IntPolynomial:
    """f(q^k)."""
    out = [0] * (k * f.degree + 1)
    out[::k] = f.coeffs
    return IntPolynomial(out)


def _remainder_monic(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """f mod g for a monic g, by schoolbook long division."""
    rem = list(f.coeffs)
    dg = g.degree
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top]
        if c:
            for i, b in enumerate(g.coeffs):
                rem[top - dg + i] -= c * b
    return IntPolynomial(rem)


def eval_at_root(f: IntPolynomial, d: int) -> int:
    residue = _remainder_monic(f, cyclotomic(d))
    if residue.degree > 0:
        raise NonIntegerEvaluation(f"residue {residue} mod Phi_{d} is not constant")
    return residue[0]


def fold_by_loop(f: IntPolynomial, n: int) -> tuple[int, ...]:
    out = [0] * n
    for j, c in enumerate(f.coeffs):
        out[j % n] += c
    return tuple(out)


def eval_by_division(f: IntPolynomial, d: int) -> int:
    if d < 1:
        raise PreconditionError("root order must be >= 1")
    _, residue = qpoly._divmod(IntPolynomial(fold_by_loop(f, d)), qpoly.cyclotomic(d))
    if residue.degree > 0:
        raise NonIntegerEvaluation(f"residue {residue} mod Phi_{d} is not constant")
    return residue[0]


def root_of_unity_binomial(n: int, k: int, d: int) -> int:
    """Closed form for a Gaussian binomial [n+k-1 choose k] at a primitive
    d-th root of unity when d | n: C(n/d + k/d - 1, k/d) if d | k, else 0."""
    if d < 1 or n % d != 0:
        raise PreconditionError("root order d must divide n")
    if k % d != 0:
        return 0
    return math.comb(n // d + k // d - 1, k // d)
