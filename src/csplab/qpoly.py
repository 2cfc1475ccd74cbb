"""Exact integer polynomial arithmetic in q and the classical q-analogues.

Everything here is exact: coefficients are Python integers, so q-factorials
and Gaussian binomials never overflow, and evaluation at a root of unity
reads integer coordinates in a Z-basis of the cyclotomic integers rather
than a floating-point value.

A polynomial is a dense tuple of coefficients, constant term first, with no
trailing zeros; the zero polynomial is the empty tuple.

>>> print(gaussian_binomial(4, 2))
1+q+2q^2+q^3+q^4
>>> eval_at_root(gaussian_binomial(4, 2), 3)
0
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    InexactDivision,
    NegativeExponent,
    NonIntegerEvaluation,
    PreconditionError,
    check_cap,
)

__all__ = [
    "IntPolynomial", "BivariatePolynomial", "DEGREE_CAP", "WORK_CAP",
    "q_int", "q_ratio", "q_factorial", "gaussian_binomial", "cyclotomic",
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
        check_cap("monomial degree", exponent, DEGREE_CAP)
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

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by q^k."""
        if not self:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        """The nonzero terms, each after the first with its sign.  Below
        degree TEXT_CAP, each term is a signed magnitude and a monomial read
        from the text tables, joined in C; from it on, formatted term by term."""
        global _Q_POWERS
        cs = self.coeffs
        q_power = functools.partial(_power, "q")
        if len(cs) > TEXT_CAP:
            return _format_terms(enumerate(cs), q_power)
        powers = _Q_POWERS
        if len(powers) < len(cs) - 1:
            powers = _Q_POWERS = (*powers, *map(q_power, range(len(powers) + 1, len(cs))))
        rest = cs[1:]
        text = "".join(map(operator.add, map(_SIGNED.__getitem__, filter(None, rest)),
                           itertools.compress(powers, rest)))
        if cs and cs[0]:
            return str(cs[0]) + text
        return text.removeprefix("+") or "0"

    def __repr__(self) -> str:
        return f"IntPolynomial({str(self)!r})"


ZERO = IntPolynomial()

# Caps checked in closed form before any arithmetic (CapExceeded above them).
# DEGREE_CAP bounds the degree of every polynomial built here.  It admits
# each verify instance under the default size cap of 200,000: [n choose k]_q
# has no zero coefficient up to its degree, which is below C(n, k) = |X|.
DEGREE_CAP = 200_000
# WORK_CAP bounds the coefficient operations of q_ratio, cyclotomic's too:
# factors times the length of the product it multiplies out.  Under it the
# product is below 10^1212 at q=1, inside Python's int-to-str limit.
WORK_CAP = 12_000_000
# PACKED_WORK_CAP bounds plethysm_h past k = f(1): multiplier coefficients
# times packed product bytes, about 0.5 ns each on an Intel Xeon, or 1 s.
PACKED_WORK_CAP = 2_000_000_000
# CACHE_SIZE bounds each polynomial cache below: unbounded, a long-running
# process kept all it built (21.5 MB after Phi_2..Phi_3000).
CACHE_SIZE = 64
# TEXT_CAP bounds each text table of the printer below, as sieve.ORDER_CAP
# (which qpoly cannot import) bounds the order of a verify report; a longer
# polynomial is printed term by term.
TEXT_CAP = 10_000


def _power(var: str, i: int) -> str:
    return "" if i == 0 else var if i == 1 else f"{var}^{i}"


# q, q^2, ...: the monomial q^i at i - 1.  Grown on demand by rebinding it to
# a longer tuple, so a reader holds the old table or the new one, never a
# partly written one; both list the same monomials.
_Q_POWERS: tuple[str, ...] = ()


class _Signed(dict):
    """The text of a nonzero coefficient after the first term: its sign, then
    its magnitude unless that is 1.  Stored the first time it is printed when
    the magnitude is at most TEXT_CAP / 2, so the table holds at most TEXT_CAP
    entries, all short; a larger coefficient is formatted per call."""

    def __missing__(self, c: int) -> str:
        text = ("-" if c < 0 else "+") + ("" if c in (1, -1) else str(abs(c)))
        if -TEXT_CAP // 2 <= c <= TEXT_CAP // 2:
            self[c] = text
        return text


_SIGNED = _Signed()


def _format_terms(terms: Iterable[tuple], monomial: Callable[..., str]) -> str:
    """The sum of c * monomial(e) over the (e, c) in terms, zero c skipped:
    a magnitude of 1 is not printed before a nonconstant monomial, and each
    term after the first carries its sign."""
    out = []
    for e, c in terms:
        if c:
            var = monomial(e)
            mag = "" if var and abs(c) == 1 else str(abs(c))
            out.append(("-" if c < 0 else "+" if out else "") + mag + var)
    return "".join(out) or "0"


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
    if not g:
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
    if rem:
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
    check_cap("[n]_q degree", n - 1, DEGREE_CAP)
    return IntPolynomial((1,) * n)


def q_ratio(num: Collection[int], den: Collection[int] = ()) -> IntPolynomial:
    """Prod [a]_q over the multiset num / Prod [b]_q over the multiset den.

    Equal factors cancel first.  Each [a]_q left multiplies in as a sum over
    a sliding window of a coefficients.  Each [b]_q left divides out as a
    product with 1 - q, then running sums along each residue class mod b;
    a nonzero one among the last b is a remainder (InexactDivision).

    >>> print(q_ratio([4, 3], [2, 1]))
    1+q+2q^2+q^3+q^4
    """
    top, bottom, _ = _cancel(num, den)
    coeffs = [1]
    for a in sorted(top.elements()):
        sums = [0, *itertools.accumulate(coeffs)]
        coeffs = list(map(operator.sub, sums[1:] + [sums[-1]] * (a - 1), [0] * a + sums[1:-1]))
    for b in sorted(bottom.elements(), reverse=True):
        coeffs = list(map(operator.sub, coeffs + [0], [0] + coeffs))
        for r in range(b):
            coeffs[r::b] = itertools.accumulate(coeffs[r::b])
        if any(coeffs[-b:]):
            raise InexactDivision(f"[{b}]_q leaves a remainder: the ratio is not a polynomial")
        del coeffs[-b:]
    return IntPolynomial(coeffs)


def _cancel(num: Collection[int], den: Collection[int]) -> tuple[Counter, Counter, int]:
    """The factors of num and of den left once equal ones and 1s cancel, and
    the coefficient operations of their ratio, checked against the caps."""
    check_cap("q_ratio factors a side", max(map(_count, (num, den))), DEGREE_CAP)
    num, den = Counter(num), Counter(den)
    if any(a < 1 for a in num | den):
        raise PreconditionError("q_ratio needs factors >= 1")
    top, bottom = num - den, den - num
    del top[1], bottom[1]
    top_degree = sum(a - 1 for a in top.elements())
    work = (top.total() + bottom.total()) * (top_degree + 1)
    check_cap("q_ratio degree", top_degree - sum(b - 1 for b in bottom.elements()), DEGREE_CAP)
    check_cap("q_ratio step count", work, WORK_CAP)
    return top, bottom, work


def _count(factors: Collection[int]) -> int:
    """len(factors), also for a range longer than len() can return."""
    if isinstance(factors, range) and factors:
        return (factors[-1] - factors[0]) // factors.step + 1
    return len(factors)


def q_factorial(n: int) -> IntPolynomial:
    """The q-factorial [1]q [2]q ... [n]q; equals n! at q=1."""
    if n < 0:
        raise PreconditionError("q_factorial needs n >= 0")
    return q_ratio(range(1, n + 1))


@functools.lru_cache(maxsize=CACHE_SIZE)
def gaussian_binomial(n: int, k: int) -> IntPolynomial:
    """The Gaussian binomial coefficient [n choose k]_q = [n]_q! / ([k]_q! [n-k]_q!).

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
    return q_ratio(range(n - k + 1, n + 1), range(1, k + 1))


def _at_power(f: IntPolynomial, k: int) -> IntPolynomial:
    """f(q^k)."""
    out = [0] * (k * f.degree + 1)
    out[::k] = f.coeffs
    return IntPolynomial(out)


def _admit(d: int) -> list[int]:
    """The distinct primes of d >= 1, in increasing order, once d and
    phi(d), the degree of Phi_d, pass the caps."""
    check_cap("Phi_d index d", d, 2 * DEGREE_CAP**2)  # phi(d) >= sqrt(d / 2)
    primes, rest, p = [], d, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    r = math.prod(primes)
    check_cap("Phi_d degree", d // r * math.prod(p - 1 for p in primes), DEGREE_CAP)
    return primes


@functools.lru_cache(maxsize=CACHE_SIZE)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial.  For d > 1 it is the product of
    [e]_q^mu(d/e) over the divisors e of d.  With r the product of the
    primes of d, Phi_d(q) = Phi_r(q^(d/r)), and Phi_r is the q_ratio of the
    e | r with mu(r/e) = 1 by those with mu(r/e) = -1.

    >>> print(cyclotomic(6))
    1-q+q^2
    """
    if d < 1:
        raise PreconditionError("cyclotomic needs d >= 1")
    if d == 1:
        return IntPolynomial((-1, 1))
    primes = _admit(d)
    num, den = [1], []  # the e | r with mu(r/e) = 1, and with mu(r/e) = -1
    for p in primes:
        num, den = den + [e * p for e in num], num + [e * p for e in den]
    return _at_power(q_ratio(num, den), d // math.prod(primes))


def eval_at_root(f: IntPolynomial, d: int) -> int:
    """Evaluate f exactly at a primitive d-th root of unity w.

    With r the product of the primes p_1 < ... < p_k of d and s = d/r,
    u_i = w^(s r / p_i) is a primitive p_i-th root, and each m mod r is
    a_1 r/p_1 + ... + a_k r/p_k for one tuple (a_i mod p_i), so w^(t+sm)
    is w^t u_1^a_1 ... u_k^a_k.  The coefficients of f folded modulo
    q^d - 1 are gathered into a (p_1, ..., p_k, s) array by that rule, and
    u^(p-1) = -(1 + u + ... + u^(p-2)) subtracts the last slice of each
    prime axis from the others.  What is left are the coordinates
    of f(w) in the Z-basis w^t u_1^a_1 ... u_k^a_k (t < s, a_i < p_i - 1)
    of Z[w]: f(w) is a rational integer iff only the coordinate of 1 is
    nonzero, and is then that coordinate, the same for every primitive d-th
    root.  Otherwise raises NonIntegerEvaluation, which is how a failed
    sieving candidate shows up; its message, the residue of the fold modulo
    Phi_d, is computed only when it is read.

    >>> eval_at_root(q_int(6), 3)
    0
    """
    if d < 1:
        raise PreconditionError("root order must be >= 1")
    primes = _admit(d)
    s = d // math.prod(primes)
    x = folded = fold_mod_qn(f, d)
    if len(primes) > 1:  # for one prime the table is 0, ..., p - 1: the fold is in order
        table = _crt_order(tuple(primes))
        if s == 1:
            x = list(map(folded.__getitem__, table))
        else:  # the block of the s coefficients of q^(sm), ..., q^(sm+s-1) for each m
            starts = [m * s for m in table]
            stops = map(operator.add, starts, itertools.repeat(s))
            x = list(itertools.chain.from_iterable(
                map(folded.__getitem__, map(slice, starts, stops))))
    for p in primes:
        x = _reduce_first_axis(x, p)
    if any(x[1:]):
        def message() -> str:
            residue = _divmod(IntPolynomial(folded), cyclotomic(d))[1]
            return f"residue {residue} mod Phi_{d} is not constant"

        raise NonIntegerEvaluation(message)
    return x[0]


@functools.lru_cache(maxsize=CACHE_SIZE)
def _crt_order(primes: tuple[int, ...]) -> tuple[int, ...]:
    """The residues m = a_1 r/p_1 + ... + a_k r/p_k modulo the product r of
    ``primes``, each once, listed by (a_1, ..., a_k) in mixed radix, the
    last prime fastest."""
    r = math.prod(primes)
    table = [0]
    for p in primes:
        table = [(m + a * (r // p)) % r for m in table for a in range(p)]
    return tuple(table)


def _reduce_first_axis(x: Sequence[int], p: int) -> list[int]:
    """x read as a (p, w) array: its first p - 1 rows less its last one,
    returned as a (w, p - 1) array, so the next axis comes first.  Python
    loops over the shorter of the two axes."""
    w = len(x) // p
    last = x[w * (p - 1):]
    out = [0] * (w * (p - 1))
    if p - 1 <= w:
        for a in range(p - 1):
            out[a::p - 1] = map(operator.sub, x[w * a:w * (a + 1)], last)
    else:
        for j in range(w):
            out[j * (p - 1):(j + 1) * (p - 1)] = map(
                operator.sub, x[j:w * (p - 1):w], itertools.repeat(last[j]))
    return out


def fold_mod_qn(f: IntPolynomial, n: int) -> tuple[int, ...]:
    """Coefficients (a_0, ..., a_{n-1}) of f modulo 1 - q^n,
    i.e. a_i = sum of the coefficients of q^j over j = i (mod n): a strided
    sum per residue once each residue has 8 terms or more (measured faster
    there), otherwise a sum of the chunks of n coefficients."""
    if n < 1:
        raise PreconditionError("fold modulus must be >= 1")
    cs = f.coeffs
    if 8 * n <= len(cs):
        return tuple(sum(cs[i::n]) for i in range(n))
    out = list(cs[:n]) + [0] * (n - len(cs))
    for start in range(n, len(cs), n):
        chunk = cs[start:start + n]
        out[:len(chunk)] = map(operator.add, out, chunk)
    return tuple(out)


def q_catalan(n: int) -> IntPolynomial:
    """The q-Catalan polynomial [2n choose n]_q / [n+1]_q = [n+2]_q ... [2n]_q / [n]_q!.

    >>> print(q_catalan(3))
    1+q^2+q^3+q^4+q^6
    """
    if n < 0:
        raise PreconditionError("q_catalan needs n >= 0")
    return q_ratio(range(n + 2, 2 * n + 1), range(2, n + 1))


def q_fuss_catalan_A(n: int, m: int) -> IntPolynomial:
    """q-analogue of the Fuss-Catalan number Cat_{n,m}: the product over
    i = 1..n-1 of [mn+i+1]_q / [i+1]_q.

    q_fuss_catalan_A(n, 1) == q_catalan(n).
    """
    if n < 1 or m < 1:
        raise PreconditionError("q_fuss_catalan_A needs n, m >= 1")
    return q_ratio(range(m * n + 2, m * n + n + 1), range(2, n + 1))


def eulerian_poly(n: int) -> IntPolynomial:
    """The n-th Eulerian polynomial: the descent distribution over all
    permutations of [n].  Computed by the recurrence
    A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1), in O(n^2) steps.

    >>> print(eulerian_poly(3))
    1+4q+q^2
    """
    if n < 0:
        raise PreconditionError("eulerian_poly needs n >= 0")
    check_cap("A_n degree", n - 1, DEGREE_CAP)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # A_n(1) = n! must print
        check_cap("digit count of A_n(1) = n!", int(math.lgamma(n + 1) / math.log(10)) + 1, limit)
    row = [1]
    for m in range(2, n + 1):
        prev = [0] + row + [0]  # prev[k + 1] = A(m-1, k)
        row = [(k + 1) * prev[k + 1] + (m - k) * prev[k] for k in range(m)]
    return IntPolynomial(row)


# ---------------------------------------------------------------------------
# plethystic substitution


def _value_count(f: IntPolynomial) -> int:
    """f(1), the number of values in the monomial multiset of f: one q^i for
    each unit of the coefficient of q^i."""
    if any(c < 0 for c in f.coeffs):
        raise PreconditionError("plethysm needs nonnegative coefficients")
    return f(1)


def _newton(k: int, f: IntPolynomial, sign: int) -> list[IntPolynomial]:
    """[s_0, ..., s_k] for s = h (``sign`` 1) or e (``sign`` -1) of the
    monomial multiset of f, by Newton's identities
    m s_m = sum over r = 1..m of sign^(r-1) p_r s_(m-r), where the power sum
    p_r is f(q^r).  Raises InexactDivision if m does not divide the sum."""
    powers = [_at_power(f, r) for r in range(1, k + 1)]
    out = [IntPolynomial((1,))]
    for m in range(1, k + 1):
        total = ZERO
        for r in range(1, m + 1):
            term = powers[r - 1] * out[m - r]
            total = total + term if sign > 0 or r % 2 else total - term
        if any(c % m for c in total.coeffs):
            raise InexactDivision(f"Newton's identity at degree {m} is not divisible by {m}")
        out.append(IntPolynomial(c // m for c in total.coeffs))
    return out


def plethysm_h(k: int, f: IntPolynomial) -> IntPolynomial:
    """Complete homogeneous symmetric polynomial h_k evaluated at the
    monomial multiset of f: one q^i for each unit of the coefficient of q^i.
    Up to k = f(1) it comes from Newton's identities; beyond, from the
    e_i with i <= f(1), the others being zero, and
    h_m = sum over i >= 1 of (-1)^(i-1) e_i h_(m-i).  That recurrence runs
    at q = 256^w, one integer per polynomial: every coefficient of every h_m
    is at most h_k(1) = C(f(1)+k-1, k) < 256^w, so h_k is read back exactly.

    >>> print(plethysm_h(2, IntPolynomial([1, 2])))
    1+2q+3q^2
    """
    if k < 0:
        raise PreconditionError("plethysm_h needs k >= 0")
    n = _value_count(f)
    degree = check_cap("h_k degree", k * max(f.degree, 0), DEGREE_CAP)
    if k <= n:
        return _newton(k, f, 1)[k]
    w = math.comb(n + k - 1, k).bit_length() // 8 + 1
    # for m = 1..k it multiplies e_1..e_n, of sum(i deg + 1) coefficients,
    # by h_(m-1)..h_(m-n), of at most w (m deg + 1) bytes each
    d = max(f.degree, 0)
    work = (d * n * (n + 1) // 2 + n) * w * (d * k * (k + 1) // 2 + k)
    check_cap("h_k recurrence work", work, PACKED_WORK_CAP)
    e = [int.from_bytes(b"".join(c.to_bytes(w, "little") for c in p), "little")
         for p in _newton(n, f, -1)]
    recent = [1]  # h_(m-n), ..., h_(m-1) at q = 256^w
    for m in range(1, k + 1):
        h = sum(e[i] * recent[-i] * (-1) ** (i - 1) for i in range(1, min(m, n) + 1))
        recent = (recent + [h])[-max(n, 1):]
    packed = recent[-1].to_bytes(w * (degree + 1), "little")
    return IntPolynomial(int.from_bytes(packed[i:i + w], "little")
                         for i in range(0, len(packed), w))


def plethysm_e(k: int, f: IntPolynomial) -> IntPolynomial:
    """Elementary symmetric polynomial e_k (square-free monomials) at the
    same multiset of values; requires k <= f(1), the number of values.
    Past half of them, a k-set's sum is the total less its complement's, so
    e_k is e_(f(1)-k) reversed.

    >>> print(plethysm_e(2, IntPolynomial([1, 2])))
    2q+q^2
    """
    if k < 0:
        raise PreconditionError("plethysm_e needs k >= 0")
    n = _value_count(f)
    if k > n:
        raise PreconditionError(f"plethysm_e needs k <= f(1) = {n}")
    top, left = 0, k  # the degree of e_k: the sum of the k largest values
    for i in range(f.degree, -1, -1):
        take = min(left, f.coeffs[i])
        top, left = top + take * i, left - take
    check_cap("e_k degree", top, DEGREE_CAP)
    if 2 * k <= n:
        return _newton(k, f, -1)[k]
    rest = _newton(n - k, f, -1)[n - k]
    total = sum(i * c for i, c in enumerate(f.coeffs))
    return IntPolynomial(reversed(rest.coeffs)).shift(total - rest.degree)


def face_poly(k: int, n: int, d: int) -> IntPolynomial:
    """q-analogue of the number of k-dimensional faces of a cyclic polytope
    with n vertices in even dimension d: the sum over j = 1..d/2 of
    ([n]_q / [n-j]_q) [n-j choose j]_q [j choose i]_q, with i = k+1-j: that is
    [n]_q [n-2j+1]_q ... [n-j-1]_q / ([i]_q! [j-i]_q!), zero unless 0 <= i <= j."""
    if d <= 0 or d % 2 != 0:
        raise PreconditionError("face_poly needs even d > 0")
    if not 0 <= k < d:
        raise PreconditionError("face_poly needs 0 <= k < d")
    if n <= d:
        raise PreconditionError("face_poly needs n > d")
    # every term has degree >= j (d + 2 - 2j) >= d
    check_cap("face_poly degree (at least d)", d, DEGREE_CAP)
    js = range((k + 2) // 2, min(k + 1, d // 2) + 1)  # the j with 0 <= i <= j

    def term(j: int) -> tuple[list[int], list[int]]:
        return [n, *range(n - 2 * j + 1, n - j)], [*range(2, k + 2 - j), *range(2, 2 * j - k)]

    for work in itertools.accumulate(_cancel(*term(j))[2] for j in js):
        check_cap("face_poly step count", work, WORK_CAP)
    return sum((q_ratio(*term(j)) for j in js), ZERO)


def q_proper_triangulations(n: int) -> IntPolynomial:
    """Counting polynomial for proper 2-colored triangulations of a
    (2n+2)-gon:  [2]_{q^2} ([2]_q^{n-1} - [2]_q^{ceil(n/2)-1} + 2^{ceil(n/2)-1})
    * [3n choose n]_q / [2n+1]_q, where [2]_{q^2} = [4]_q / [2]_q and the
    last ratio is [2n+2]_q ... [3n]_q / [n]_q!.

    At q=1 this is 2^n/(2n+1) * C(3n, n).
    """
    if n < 1:
        raise PreconditionError("q_proper_triangulations needs n >= 1")
    check_cap("q_proper_triangulations degree", 2 * n * n - n + 1, DEGREE_CAP)
    half = -(-n // 2)  # ceil(n/2)
    bracket = q_ratio([2] * (n - 1)) - q_ratio([2] * (half - 1)) + 2 ** (half - 1)
    return bracket * q_ratio([4, *range(2 * n + 2, 3 * n + 1)], [2, *range(2, n + 1)])


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

    def __str__(self) -> str:
        pairs = sorted(self.terms.items())
        return _format_terms(pairs, lambda e: _power("q", e[0]) + _power("t", e[1]))

    def __repr__(self) -> str:
        return f"BivariatePolynomial({str(self)!r})"


def subst_t_q_inverse(F: BivariatePolynomial) -> IntPolynomial:
    """Substitute t = 1/q: the term q^i t^j becomes q^(i-j).

    Raises NegativeExponent when a nonzero coefficient lands on a negative
    power of q; terms that cancel there are fine.

    >>> print(subst_t_q_inverse(BivariatePolynomial({(3, 1): 1, (1, 1): 2})))
    2+q^2
    """
    acc = Counter()
    for (i, j), c in F.terms.items():
        acc[i - j] += c
    try:
        return IntPolynomial.from_exponents(acc)
    except NegativeExponent as exc:
        raise NegativeExponent(f"t = 1/q leaves {exc} in {F}") from None
