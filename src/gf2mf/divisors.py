"""Divisor-lattice queries on factored binary polynomials.

Every divisor enumeration in the package (divisors, unitary_divisors,
the convolution oracle, the identity lattice) goes through one walker,
_products, in mixed-radix counting order over the exponent vectors (the
first listed factor is the fastest digit), so output order is
reproducible.  Enumerations larger than DIVISOR_LIMIT entries are
refused there, before any value is computed, rather than silently
truncated.
"""

from math import prod
from typing import Callable, Sequence

from .factorize import Factorization, factor
from .gf2poly import ONE, Poly, _mul_bits

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


def _products(rows: "list[tuple[Poly, Sequence[int]]]",
              value: "Callable[[Poly, int], int]") -> list[int]:
    """Every product of one value(p, j) per row (p, exponents j).

    The first row is the fastest digit, so entry n of the result belongs
    to the n-th exponent vector in mixed-radix counting order.  The size
    check runs before value is first called.
    """
    count = prod(len(exps) for _, exps in rows)
    if count > DIVISOR_LIMIT:
        raise ResourceLimitError(
            f"{count} divisors exceed the enumeration bound of {DIVISOR_LIMIT}"
        )
    out = [1]
    for p, exps in rows:
        vals = [value(p, j) for j in exps]
        out = [_mul_bits(d, v) for v in vals for d in out]
    return out


def _power_bits(p: Poly, j: int) -> int:
    return (p**j).bits


def divisors(f: Factorization) -> list[Poly]:
    """All divisors in mixed-radix order over the exponent vectors."""
    rows = [(p, range(e + 1)) for p, e in f]
    return [Poly(m) for m in _products(rows, _power_bits)]


def unitary_divisors(f: Factorization) -> list[Poly]:
    """Divisors D with gcd(D, A/D) = 1: one subset of full prime powers each."""
    rows = [(p, (0, e)) for p, e in f]
    return [Poly(m) for m in _products(rows, _power_bits)]


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
    if a == ONE:
        return True
    return all(e == 2 for _, e in factor(a))
