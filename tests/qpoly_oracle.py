"""The constructions of q-analogues that ``qpoly.q_ratio`` replaced, kept
as test oracles.

``csplab.qpoly`` builds every product of q-integers with one ``q_ratio``
call: cancel the two multisets, multiply by each [a]_q left as a
sliding-window sum, divide by each [b]_q left as a product with 1 - q and a
division by 1 - q^b.  This module keeps the older constructions, which share
none of that code:

- the Gaussian binomial as h_k of [n-k+1]_q, through the ``h_or_e`` loop;
- q-factorials, q-Catalan and q-Fuss-Catalan numbers and the face-polynomial
  ring term as ``IntPolynomial`` products followed by ``exact_divide``;
- the proper-triangulation polynomial with [2]_q^j as a repeated product.

It also keeps the loop that ``plethysm_h`` and ``plethysm_e`` replaced with
Newton's identities: ``h_or_e`` adds the monomials of f one at a time.
"""
from __future__ import annotations

from csplab.qpoly import IntPolynomial, exact_divide, q_int

ONE = IntPolynomial((1,))


def h_or_e(k: int, f: IntPolynomial, repeat: bool) -> IntPolynomial:
    """h_k (``repeat``) or e_k of the monomials q^v, one for each unit of
    the coefficient of q^v in f, adding one value at a time: updating
    j = 1..k lets q^v enter an entry that already holds it, updating
    j = k..1 lets it enter once."""
    out = [ONE] + [IntPolynomial()] * k
    js = range(1, k + 1) if repeat else range(k, 0, -1)
    for v, c in enumerate(f.coeffs):
        for _ in range(c):
            for j in js:
                out[j] = out[j] + out[j - 1].shift(v)
    return out[k]


def product(factors) -> IntPolynomial:
    """The product of [a]_q over factors, multiplied out one at a time."""
    out = ONE
    for a in factors:
        out = out * q_int(a)
    return out


def gaussian_binomial(n: int, k: int) -> IntPolynomial:
    """h_k(1, q, ..., q^(n-k)), with k replaced by min(k, n - k)."""
    if k < 0 or k > n:
        return IntPolynomial()
    k = min(k, n - k)
    return h_or_e(k, q_int(n - k + 1), repeat=True)


def q_factorial(n: int) -> IntPolynomial:
    return product(range(1, n + 1))


def q_catalan(n: int) -> IntPolynomial:
    """[2n choose n]_q divided by [n+1]_q."""
    return exact_divide(gaussian_binomial(2 * n, n), q_int(n + 1))


def q_fuss_catalan_A(n: int, m: int) -> IntPolynomial:
    """The product over i = 1..n-1 of [mn+i+1]_q, divided by that of [i+1]_q."""
    return exact_divide(
        product(m * n + i + 1 for i in range(1, n)), product(i + 1 for i in range(1, n))
    )


def face_poly(k: int, n: int, d: int) -> IntPolynomial:
    """The sum over j = 1..d/2 of ring(j) [j choose k+1-j]_q, where the ring
    term [n]_q [n-j choose j]_q / [n-j]_q is one exact division."""
    total = IntPolynomial()
    for j in range(1, d // 2 + 1):
        ring = exact_divide(q_int(n) * gaussian_binomial(n - j, j), q_int(n - j))
        total = total + ring * gaussian_binomial(j, k + 1 - j)
    return total


def q_proper_triangulations(n: int) -> IntPolynomial:
    """[2]_{q^2} ([2]_q^{n-1} - [2]_q^{h-1} + 2^{h-1}) [3n choose n]_q, with
    h = ceil(n/2), divided by [2n+1]_q; each power of [2]_q is a repeated
    product."""
    half = -(-n // 2)
    bracket = product([2] * (n - 1)) - product([2] * (half - 1)) + 2 ** (half - 1)
    num = IntPolynomial((1, 0, 1)) * bracket * gaussian_binomial(3 * n, n)
    return exact_divide(num, q_int(2 * n + 1))
