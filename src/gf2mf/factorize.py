"""Irreducibility testing, factorization and enumeration of binary polynomials.

Factorization is exact and deterministic: results are tuples of
(irreducible, multiplicity) pairs sorted by (degree, mask), which for
int masks is plain integer order.  Small inputs (degree <= 24) go
through trial division against the irreducibles of the factor sieve;
larger inputs go through squarefree reduction, distinct-degree splitting
by Frobenius powers, and an equal-degree splitter based on the trace
map, the variant suited to characteristic 2.  Any randomness in the
splitter is driven by a fixed, configurable seed, so repeated runs agree.

The factor sieve, the package's one bulk table, holds the smallest
irreducible factor and its cofactor of every mask up to a degree;
exhaustive fixed-point search reads whole factorizations off it, and the
odd-square scan takes its odd irreducibles from it.
"""

import functools
import random
from array import array
from typing import Iterator, NamedTuple

from .gf2poly import (
    ONE,
    Poly,
    X,
    X1,
    _divmod_bits,
    _gcd_bits,
    _mod_bits,
    _mul_bits,
    _sqr_bits,
    _sqrt_bits,
)

__all__ = [
    "Factorization",
    "MersenneForm",
    "factor",
    "is_irreducible",
    "irreducibles_up_to",
    "mersenne_form",
    "parity",
]

# Degree bound below which trial division beats the splitting machinery.
_TRIAL_MAX_DEG = 24

# Public table bound; internal callers never need more than degree 12.
_TABLE_MAX_DEG = 16


class Factorization:
    """An immutable factored form: ((irreducible, multiplicity), ...)."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[Poly, int], ...]):
        self.factors = factors

    def product(self) -> Poly:
        """Multiply the factorization back out."""
        acc = 1
        for p, e in self.factors:
            acc = _mul_bits(acc, (p**e).bits)
        return Poly(acc)

    def __iter__(self) -> Iterator[tuple[Poly, int]]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Factorization) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"({p})^{e}" for p, e in self.factors)

    def __repr__(self) -> str:
        return f"Factorization({self.factors!r})"


class MersenneForm(NamedTuple):
    """Exponents of the 1 + x^a(x+1)^b shape of a Mersenne irreducible."""

    a: int
    b: int

    def polynomial(self) -> Poly:
        return X**self.a * X1**self.b + ONE


def _derivative_bits(n: int) -> int:
    # Even-degree terms die (coefficient 2 = 0); odd-degree terms shift down.
    t = (n.bit_length() + 1) // 2
    mask = ((1 << (2 * t)) - 1) // 3
    return (n >> 1) & mask


def _prime_factors_int(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _factor_sieve(max_deg: int) -> "tuple[array, array]":
    """Smallest irreducible factor and cofactor of every mask of degree <= max_deg.

    Returns (spf, cof) indexed by mask with spf[m] * cof[m] == m, where
    spf[m] is the least irreducible mask dividing m; spf[m] == m exactly
    when m is irreducible, and spf[1] == cof[1] == 1 (index 0 is unused).
    """
    limit = 1 << (max_deg + 1)
    spf = array("I", [0]) * limit
    cof = array("I", [0]) * limit
    spf[1] = cof[1] = 1
    # A composite of degree <= max_deg has a factor of degree <= max_deg // 2,
    # so only those irreducibles need sieving; an unmarked p is irreducible.
    for p in range(2, 1 << (max_deg // 2 + 1)):
        if spf[p]:
            continue
        prod = 0
        for i in range(1, limit >> (p.bit_length() - 1)):
            # Cofactors in Gray-code order q = i ^ (i >> 1): each step flips
            # the single bit i & -i of q, so p * q changes by one shifted p.
            prod ^= p * (i & -i)
            if not spf[prod]:
                spf[prod] = p
                cof[prod] = i ^ (i >> 1)
    for m in range(2, limit):
        if not spf[m]:
            spf[m] = m
            cof[m] = 1
    return spf, cof


@functools.lru_cache(maxsize=None)
def _irreducible_masks(max_deg: int) -> tuple[int, ...]:
    """All irreducible masks of degree 1..max_deg, ascending."""
    spf = _factor_sieve(max_deg)[0]
    return tuple(m for m in range(2, len(spf)) if spf[m] == m)


def irreducibles_up_to(d: int) -> list[Poly]:
    """All irreducibles of degree 1..d in (degree, mask) order; d <= 16."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("degree bound must be a positive integer")
    if d > _TABLE_MAX_DEG:
        raise ValueError(f"irreducible table is bounded at degree {_TABLE_MAX_DEG}")
    return [Poly(m) for m in _irreducible_masks(d)]


def _is_irreducible_bits(f: int) -> bool:
    """Deterministic Frobenius-based irreducibility test on a mask."""
    n = f.bit_length() - 1
    if n == 1:
        return True
    x_mod = _mod_bits(2, f)
    subfield_checks = {n // q for q in _prime_factors_int(n)}
    h = x_mod
    for i in range(1, n + 1):
        h = _mod_bits(_sqr_bits(h), f)
        if i in subfield_checks and _gcd_bits(h ^ x_mod, f) != 1:
            return False
    return h == x_mod


def is_irreducible(a: Poly) -> bool:
    """Exact irreducibility test; constants are rejected."""
    if a.bits < 2:
        raise ValueError("irreducibility is undefined for constants")
    return _is_irreducible_bits(a.bits)


def _trial_division(f: int) -> list[tuple[int, int]]:
    out = []
    half = (f.bit_length() - 1) // 2
    for p in _irreducible_masks(max(1, half)):
        if f == 1:
            break
        if (p.bit_length() - 1) * 2 > f.bit_length() - 1:
            break
        e = 0
        while True:
            q, r = _divmod_bits(f, p)
            if r:
                break
            f = q
            e += 1
        if e:
            out.append((p, e))
    if f != 1:
        out.append((f, 1))
    return out


def _split_equal_degree(g: int, d: int, rng: random.Random) -> list[int]:
    """Split a product of distinct degree-d irreducibles into its factors.

    Uses gcd with the trace map c + c^2 + ... + c^(2^(d-1)) of random c,
    which lands in {0, 1} in each residue field, so each draw separates
    the factors with probability about one half.
    """
    work = [g]
    done = []
    while work:
        u = work.pop()
        if u.bit_length() - 1 == d:
            done.append(u)
            continue
        while True:
            c = rng.randrange(2, 1 << (u.bit_length() - 1))
            t = c
            acc = c
            for _ in range(d - 1):
                t = _mod_bits(_sqr_bits(t), u)
                acc ^= t
            w = _gcd_bits(acc, u)
            if w != 1 and w != u:
                work.append(w)
                work.append(_divmod_bits(u, w)[0])
                break
    return done


def _factor_squarefree(f: int, seed: int) -> list[int]:
    """Factor a squarefree mask by distinct-degree then equal-degree splitting."""
    if f == 1:
        return []
    out = []
    rng = random.Random(f * 0x9E3779B97F4A7C15 + seed)
    x_mod = _mod_bits(2, f)
    h = x_mod
    d = 0
    while f.bit_length() - 1 >= 2 * (d + 1):
        d += 1
        h = _mod_bits(_sqr_bits(h), f)
        g = _gcd_bits(h ^ x_mod, f)
        if g != 1:
            out.extend(_split_equal_degree(g, d, rng))
            f = _divmod_bits(f, g)[0]
            h = _mod_bits(h, f)
            x_mod = _mod_bits(2, f)
    if f != 1:
        out.append(f)
    return out


@functools.lru_cache(maxsize=1 << 16)
def _factor_bits(bits: int, seed: int = 0) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    work = [(bits, 1)]
    while work:
        f, mult = work.pop()
        if f == 1:
            continue
        if f.bit_length() - 1 <= _TRIAL_MAX_DEG:
            for p, e in _trial_division(f):
                counts[p] = counts.get(p, 0) + e * mult
            continue
        der = _derivative_bits(f)
        if der == 0:
            # Zero derivative means f is a perfect square.
            work.append((_sqrt_bits(f), 2 * mult))
            continue
        # f // gcd(f, f') is the squarefree product of the primes of odd
        # multiplicity; what remains after dividing those out is a square.
        odd_part = _divmod_bits(f, _gcd_bits(f, der))[0]
        for p in _factor_squarefree(odd_part, seed):
            e = 0
            while True:
                q, r = _divmod_bits(f, p)
                if r:
                    break
                f = q
                e += 1
            counts[p] = counts.get(p, 0) + e * mult
        if f != 1:
            work.append((_sqrt_bits(f), 2 * mult))
    return tuple(sorted(counts.items()))


def factor(a: Poly, seed: int = 0) -> Factorization:
    """Complete factorization of a nonzero polynomial, canonically ordered."""
    if a.bits == 0:
        raise ValueError("cannot factor the zero polynomial")
    pairs = _factor_bits(a.bits, seed)
    return Factorization(tuple((Poly(p), e) for p, e in pairs))


def mersenne_form(p: Poly) -> "MersenneForm | None":
    """Exponents (a, b) if p is irreducible and p+1 = x^a (x+1)^b, else None."""
    if p.bits < 4:
        return None  # need a >= 1 and b >= 1, hence degree >= 2
    q = p.bits ^ 1
    a = (q & -q).bit_length() - 1
    if a < 1:
        return None
    q >>= a
    b = 0
    while q != 1:
        q, r = _divmod_bits(q, 3)
        if r:
            return None
        b += 1
    if b < 1:
        return None
    if not _is_irreducible_bits(p.bits):
        return None
    return MersenneForm(a, b)


def parity(a: Poly) -> str:
    """'even' when x or x+1 divides a, 'odd' otherwise.

    Equivalently: even iff the constant term is 0 or the number of
    nonzero coefficients is even.
    """
    if a.bits == 0:
        raise ValueError("parity is undefined for the zero polynomial")
    if (a.bits & 1) == 0 or (a.bits.bit_count() & 1) == 0:
        return "even"
    return "odd"
