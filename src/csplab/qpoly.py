"""Exact integer polynomial arithmetic in q and the classical q-analogues.

Everything here is exact: coefficients are Python integers, so q-factorials
and Gaussian binomials never overflow, and evaluation at a root of unity is
reduction modulo a cyclotomic polynomial rather than floating-point.

A polynomial is a dense tuple of coefficients, constant term first, with no
trailing zeros; the zero polynomial is the empty tuple.

>>> print(gaussian_binomial(4, 2))
1+q+2q^2+q^3+q^4
>>> eval_at_root(gaussian_binomial(4, 2), 3)
0
"""
from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    InexactDivision,
    NegativeExponent,
    NonIntegerEvaluation,
    PreconditionError,
)

__all__ = [
    "IntPolynomial", "BivariatePolynomial",
    "q_int", "q_factorial", "gaussian_binomial", "cyclotomic",
    "eval_at_root", "fold_mod_qn", "exact_divide",
    "q_catalan", "q_fuss_catalan_A", "eulerian_poly",
    "plethysm_h", "plethysm_e", "face_poly", "subst_t_q_inverse",
    "q_proper_triangulations",
]


@dataclass(frozen=True)
class IntPolynomial:
    """A polynomial in q with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of q^i.  Instances are immutable and
    hashable, and all arithmetic returns new instances.

    >>> IntPolynomial([1, 0, 2]) + IntPolynomial([0, 1])
    IntPolynomial('1+q+2q^2')
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def monomial(coeff: int, exponent: int) -> "IntPolynomial":
        """The single term coeff * q^exponent."""
        if exponent < 0:
            raise PreconditionError("monomial exponent must be >= 0")
        return IntPolynomial((0,) * exponent + (coeff,))

    @staticmethod
    def from_exponents(terms: Mapping[int, int]) -> "IntPolynomial":
        """The sum of c * q^e over the items (e, c) of ``terms``; raises
        NegativeExponent for a nonzero c at a negative e (zero ones are dropped)."""
        low = min((e for e, c in terms.items() if c), default=0)
        if low < 0:
            raise NegativeExponent(f"a nonzero term at q^{low}")
        return IntPolynomial(terms.get(e, 0) for e in range(max(terms, default=-1) + 1))

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        return IntPolynomial(
            a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    __radd__ = __add__

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        return IntPolynomial(
            a - b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise PreconditionError("negative powers are not polynomials")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by q^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                var = "q" if i == 1 else f"q^{i}"
                term = ("-" if c < 0 else "") + mag + var
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({str(self)!r})"


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))


def _coerce(x: "IntPolynomial | int") -> IntPolynomial:
    if isinstance(x, IntPolynomial):
        return x
    if isinstance(x, int):
        return IntPolynomial((x,))
    raise TypeError(f"cannot treat {type(x).__name__} as a polynomial")


def _divmod(f: IntPolynomial, g: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Division with remainder in Z[q].

    Requires every leading-coefficient division along the way to be exact,
    which always holds when g is monic or when f is a true multiple of g.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead_g = g.coeffs[-1]
    rem = list(f.coeffs)
    dg = g.degree
    if f.degree < dg:
        return ZERO, f
    terms = [(i, b) for i, b in enumerate(g.coeffs) if b]  # cyclotomics are sparse
    quot = [0] * (f.degree - dg + 1)
    for top in range(f.degree, dg - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        t, leftover = divmod(c, lead_g)
        if leftover:
            raise InexactDivision(
                f"leading coefficient {c} not divisible by {lead_g}"
            )
        shift = top - dg
        quot[shift] = t
        for i, b in terms:
            rem[shift + i] -= t * b
    return IntPolynomial(quot), IntPolynomial(rem)


def exact_divide(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Return h with f = g*h, raising InexactDivision if no such h exists."""
    quot, rem = _divmod(f, g)
    if not rem.is_zero():
        raise InexactDivision(f"{f} is not a multiple of {g} (remainder {rem})")
    return quot


# ---------------------------------------------------------------------------
# q-analogues


def q_int(n: int) -> IntPolynomial:
    """The q-analogue of n: 1 + q + ... + q^(n-1).

    >>> print(q_int(3))
    1+q+q^2
    """
    if n < 0:
        raise PreconditionError("q_int needs n >= 0")
    return IntPolynomial((1,) * n)


def q_factorial(n: int) -> IntPolynomial:
    """The q-factorial [1]q [2]q ... [n]q; equals n! at q=1."""
    if n < 0:
        raise PreconditionError("q_factorial needs n >= 0")
    out = ONE
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


@functools.lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> IntPolynomial:
    """The Gaussian binomial coefficient [n choose k]_q, computed as
    h_k(1, q, ..., q^(n-k)) = plethysm_h(k, [n-k+1]_q) with k replaced by
    the smaller of k and n - k, so the computation stays in Z[q] and its
    depth does not grow with n.

    Out-of-range k gives the zero polynomial.  The value at q=1 is C(n, k);
    coefficients are nonnegative and symmetric.

    >>> print(gaussian_binomial(4, 2))
    1+q+2q^2+q^3+q^4
    """
    if n < 0:
        raise PreconditionError("gaussian_binomial needs n >= 0")
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    return plethysm_h(k, q_int(n - k + 1))


def _at_power(f: IntPolynomial, k: int) -> IntPolynomial:
    """f(q^k)."""
    out = [0] * (k * f.degree + 1)
    out[::k] = f.coeffs
    return IntPolynomial(out)


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial, built from the primes of d: from
    Phi_1 = q - 1, each prime p of d gives Phi_mp(q) = Phi_m(q^p) / Phi_m(q)
    by exact division, and Phi_d(q) = Phi_r(q^(d/r)) where r is the product
    of the primes of d.

    >>> print(cyclotomic(6))
    1-q+q^2
    """
    if d < 1:
        raise PreconditionError("cyclotomic needs d >= 1")
    poly, r, rest, p = IntPolynomial((-1, 1)), 1, d, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        if rest % p == 0:
            poly = exact_divide(_at_power(poly, p), poly)
            r *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return _at_power(poly, d // r)


def eval_at_root(f: IntPolynomial, d: int) -> int:
    """Evaluate f exactly at a primitive d-th root of unity.

    f is folded modulo q^d - 1, which Phi_d divides, and the fold is then
    reduced modulo Phi_d.  The result is the same for every primitive d-th
    root because f has integer coefficients.  Raises NonIntegerEvaluation
    when the value is not a rational integer, which is how a failed sieving
    candidate shows up.

    >>> eval_at_root(q_int(6), 3)
    0
    """
    if d < 1:
        raise PreconditionError("root order must be >= 1")
    _, residue = _divmod(IntPolynomial(fold_mod_qn(f, d)), cyclotomic(d))
    if residue.degree > 0:
        raise NonIntegerEvaluation(f"residue {residue} mod Phi_{d} is not constant")
    return residue[0]


def fold_mod_qn(f: IntPolynomial, n: int) -> tuple[int, ...]:
    """Coefficients (a_0, ..., a_{n-1}) of f modulo 1 - q^n,
    i.e. a_i = sum of the coefficients of q^j over j = i (mod n)."""
    if n < 1:
        raise PreconditionError("fold modulus must be >= 1")
    out = [0] * n
    for j, c in enumerate(f.coeffs):
        out[j % n] += c
    return tuple(out)


def q_catalan(n: int) -> IntPolynomial:
    """The q-Catalan polynomial [2n choose n]_q / [n+1]_q.

    >>> print(q_catalan(3))
    1+q^2+q^3+q^4+q^6
    """
    if n < 0:
        raise PreconditionError("q_catalan needs n >= 0")
    return exact_divide(gaussian_binomial(2 * n, n), q_int(n + 1))


def q_fuss_catalan_A(n: int, m: int) -> IntPolynomial:
    """q-analogue of the Fuss-Catalan number Cat_{n,m}: the product over
    i = 1..n-1 of [mn+i+1]_q / [i+1]_q, taken by one exact division.

    q_fuss_catalan_A(n, 1) == q_catalan(n).
    """
    if n < 1 or m < 1:
        raise PreconditionError("q_fuss_catalan_A needs n, m >= 1")
    num = ONE
    den = ONE
    for i in range(1, n):
        num = num * q_int(m * n + i + 1)
        den = den * q_int(i + 1)
    return exact_divide(num, den)


def eulerian_poly(n: int) -> IntPolynomial:
    """The n-th Eulerian polynomial: the descent distribution over all
    permutations of [n].  Computed by the recurrence
    A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1), in O(n^2) steps.

    >>> print(eulerian_poly(3))
    1+4q+q^2
    """
    if n < 0:
        raise PreconditionError("eulerian_poly needs n >= 0")
    row = [1]
    for m in range(2, n + 1):
        prev = [0] + row + [0]  # prev[k + 1] = A(m-1, k)
        row = [(k + 1) * prev[k + 1] + (m - k) * prev[k] for k in range(m)]
    return IntPolynomial(row)


# ---------------------------------------------------------------------------
# plethystic substitution


def _substitution_values(f: IntPolynomial) -> list[int]:
    """Exponents of the monomial multiset {q^i with multiplicity coeffs[i]}."""
    if any(c < 0 for c in f.coeffs):
        raise PreconditionError("plethysm needs nonnegative coefficients")
    values: list[int] = []
    for i, c in enumerate(f.coeffs):
        values.extend([i] * c)
    return values


def _h_or_e(k: int, values: list[int], repeat: bool) -> IntPolynomial:
    """h_k (``repeat``) or e_k of the monomials q^v for v in values, adding
    one value at a time: updating j = 1..k lets q^v enter an entry that
    already holds it, updating j = k..1 lets it enter once."""
    out = [ONE] + [ZERO] * k
    js = range(1, k + 1) if repeat else range(k, 0, -1)
    for v in values:
        for j in js:
            out[j] = out[j] + out[j - 1].shift(v)
    return out[k]


def plethysm_h(k: int, f: IntPolynomial) -> IntPolynomial:
    """Complete homogeneous symmetric polynomial h_k evaluated at the
    monomial multiset of f: one q^i for each unit of the coefficient of q^i.

    >>> print(plethysm_h(2, IntPolynomial([1, 2])))
    1+2q+3q^2
    """
    if k < 0:
        raise PreconditionError("plethysm_h needs k >= 0")
    return _h_or_e(k, _substitution_values(f), repeat=True)


def plethysm_e(k: int, f: IntPolynomial) -> IntPolynomial:
    """Elementary symmetric polynomial e_k (square-free monomials) at the
    same multiset of values; requires k <= f(1), the number of values."""
    if k < 0:
        raise PreconditionError("plethysm_e needs k >= 0")
    values = _substitution_values(f)
    if k > len(values):
        raise PreconditionError(f"plethysm_e needs k <= f(1) = {len(values)}")
    return _h_or_e(k, values, repeat=False)


def face_poly(k: int, n: int, d: int) -> IntPolynomial:
    """q-analogue of the number of k-dimensional faces of a cyclic polytope
    with n vertices in even dimension d: the sum over j = 1..d/2 of
    ([n]_q / [n-j]_q) [n-j choose j]_q [j choose k+1-j]_q, with the division
    realized exactly on [n]_q * [n-j choose j]_q."""
    if d <= 0 or d % 2 != 0:
        raise PreconditionError("face_poly needs even d > 0")
    if not 0 <= k < d:
        raise PreconditionError("face_poly needs 0 <= k < d")
    if n <= d:
        raise PreconditionError("face_poly needs n > d")
    total = ZERO
    for j in range(1, d // 2 + 1):
        ring = exact_divide(q_int(n) * gaussian_binomial(n - j, j), q_int(n - j))
        total = total + ring * gaussian_binomial(j, k + 1 - j)
    return total


def q_proper_triangulations(n: int) -> IntPolynomial:
    """Counting polynomial for proper 2-colored triangulations of a
    (2n+2)-gon:  [2]_{q^2} ([2]_q^{n-1} - [2]_q^{ceil(n/2)-1} + 2^{ceil(n/2)-1})
    * [3n choose n]_q / [2n+1]_q, realized by exact division.

    At q=1 this is 2^n/(2n+1) * C(3n, n).
    """
    if n < 1:
        raise PreconditionError("q_proper_triangulations needs n >= 1")
    two_q = q_int(2)
    half = -(-n // 2)  # ceil(n/2)
    bracket = two_q ** (n - 1) - two_q ** (half - 1) + IntPolynomial((2 ** (half - 1),))
    lead = IntPolynomial((1, 0, 1))  # [2] in the variable q^2
    num = lead * bracket * gaussian_binomial(3 * n, n)
    return exact_divide(num, q_int(2 * n + 1))


# ---------------------------------------------------------------------------
# bivariate polynomials


class BivariatePolynomial:
    """A polynomial in q and t with integer coefficients, stored sparsely
    as a map from exponent pairs (i, j) to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] = ()):
        cleaned = {pair: c for pair, c in dict(terms).items() if c != 0}
        self.terms: dict[tuple[int, int], int] = cleaned

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BivariatePolynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        acc = dict(self.terms)
        for pair, c in other.terms.items():
            acc[pair] = acc.get(pair, 0) + c
        return BivariatePolynomial(acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"

        def fmt(pair: tuple[int, int], c: int) -> str:
            i, j = pair
            bits = [] if abs(c) == 1 and (i or j) else [str(abs(c))]
            if i:
                bits.append("q" if i == 1 else f"q^{i}")
            if j:
                bits.append("t" if j == 1 else f"t^{j}")
            return ("-" if c < 0 else "") + "".join(bits)

        parts = []
        for pair in sorted(self.terms):
            term = fmt(pair, self.terms[pair])
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"BivariatePolynomial({str(self)!r})"


def subst_t_q_inverse(F: BivariatePolynomial) -> IntPolynomial:
    """Substitute t = 1/q: the term q^i t^j becomes q^(i-j).

    Raises NegativeExponent when a nonzero coefficient lands on a negative
    power of q; terms that cancel there are fine.

    >>> print(subst_t_q_inverse(BivariatePolynomial({(3, 1): 1, (1, 1): 2})))
    2+q^2
    """
    acc = collections.Counter()
    for (i, j), c in F.terms.items():
        acc[i - j] += c
    try:
        return IntPolynomial.from_exponents(acc)
    except NegativeExponent as exc:
        raise NegativeExponent(f"t = 1/q leaves {exc} in {F}") from None
