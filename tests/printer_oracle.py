"""The two polynomial printers that ``qpoly._format_terms`` replaced, kept
as test oracles.

``IntPolynomial.__str__`` and ``BivariatePolynomial.__str__`` each had
their own loop over the terms, with the same three rules: zero coefficients
are skipped, a coefficient of +-1 on a nonconstant monomial prints only its
sign, and each term after the first carries its sign.
"""
from __future__ import annotations


def int_polynomial_str(coeffs: tuple[int, ...]) -> str:
    """The printer of ``IntPolynomial``, on its coefficient tuple."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
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


def bivariate_str(terms: dict[tuple[int, int], int]) -> str:
    """The printer of ``BivariatePolynomial``, on its nonzero terms."""
    if not terms:
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
    for pair in sorted(terms):
        term = fmt(pair, terms[pair])
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)
