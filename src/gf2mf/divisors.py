"""Divisor-lattice queries on factored binary polynomials.

Every divisor enumeration in the package (divisors, unitary_divisors,
and the function tables of multfun._Lattice, which the convolution
oracle and the corollary checks share) goes through one walker,
_products, in mixed-radix counting order over the exponent vectors (the
first listed factor is the fastest digit), so output order is
reproducible.  In that order the complement A/D of the n-th divisor D of
A is the (size - 1 - n)-th, so a table of g(D) read backwards is a table
of g(A/D).  It multiplies masks, or lane values (gf2poly._spread) where
multfun._Lattice keeps a table in lane form.  The divisor lists, and
perfect.verify_perfect's divisor sum, read it through _power_products,
whose prime-power rows are masks taken by running products.
Enumerations larger than DIVISOR_LIMIT entries are refused there,
before any value is computed, rather than silently truncated.
"""

from math import prod
from typing import Callable, Sequence

from .factorize import Factorization, factor
from .gf2poly import Poly, _mul_bits, _pow_bits

__all__ = [
    "DIVISOR_LIMIT",
    "ResourceLimitError",
    "divisors",
    "unitary_divisors",
    "radical",
    "omega",
    "big_omega",
    "is_special",
]

DIVISOR_LIMIT = 1 << 20


class ResourceLimitError(RuntimeError):
    """An enumeration or search would exceed its configured size bound."""


def _products(sizes: "Sequence[int]",
              values: "Callable[[], tuple[list[list[int]], int]]"
              ) -> "tuple[list[int], int]":
    """Every product of one entry per row of values(), the rows' lengths
    being sizes, and the keep they were multiplied under.

    The first row is the fastest digit, so entry n of the result belongs
    to the n-th exponent vector in mixed-radix counting order.  values()
    returns the rows and a keep: 0 when the entries are masks, multiplied
    by _mul_bits, else the entries are lane values (gf2poly._spread) and
    each product is d * v & keep, which the caller makes exact.  The size
    check runs before values is called.
    """
    count = prod(sizes)
    if count > DIVISOR_LIMIT:
        raise ResourceLimitError(
            f"{count} divisors exceed the enumeration bound of {DIVISOR_LIMIT}"
        )
    rows, keep = values()
    out = [1]
    for vals in rows:
        # The products by the unit, the first row's, are the row itself.
        if out == [1]:
            out = vals
        elif keep:
            out = [d * v & keep for v in vals for d in out]
        else:
            out = [_mul_bits(d, v) for v in vals for d in out]
    return out, keep


def _power_products(f: Factorization, unitary: bool = False) -> list[int]:
    """The masks of every divisor of f, or of every unitary divisor if
    unitary, in mixed-radix counting order.

    A prime P of exponent e gives the row P^0..P^e, one running product
    and so one _mul_bits per step, or for a unitary divisor the row
    (1, P^e), its power taken by square and multiply (_pow_bits), so a
    lone high power costs O(log e) products, not e.  No Poly is built.
    """
    def power_row(p: int, e: int) -> list[int]:
        if unitary:
            return [1, _pow_bits(p, e)]
        row = [1, p]
        for _ in range(e - 1):
            row.append(_mul_bits(row[-1], p))
        return row

    return _products([2 if unitary else e + 1 for _, e in f], lambda: (
        [power_row(p.bits, e) for p, e in f], 0))[0]


def divisors(f: Factorization) -> list[Poly]:
    """All divisors in mixed-radix order over the exponent vectors."""
    return [Poly(m) for m in _power_products(f)]


def unitary_divisors(f: Factorization) -> list[Poly]:
    """Divisors D with gcd(D, A/D) = 1: one subset of full prime powers each."""
    return [Poly(m) for m in _power_products(f, True)]


def radical(f: Factorization) -> Poly:
    """Product of the distinct irreducible factors."""
    acc = 1
    for p, _ in f:
        acc = _mul_bits(acc, p.bits)
    return Poly(acc)


def omega(f: Factorization) -> int:
    """Number of distinct irreducible factors."""
    return len(f.factors)


def big_omega(f: Factorization) -> int:
    """Number of irreducible factors counted with multiplicity."""
    return sum(e for _, e in f)


def is_special(a: Poly) -> bool:
    """True iff a = S**2 with S squarefree (every multiplicity equals 2)."""
    if a.bits == 0:
        raise ValueError("is_special is undefined for the zero polynomial")
    return all(e == 2 for _, e in factor(a))
