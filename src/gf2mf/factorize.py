"""Irreducibility testing, factorization and enumeration of binary polynomials.

Factorization is exact and deterministic: results are tuples of
(irreducible, multiplicity) pairs sorted by (degree, mask), which for
int masks is plain integer order.  Every input takes one route: the
squarefree part f / gcd(f, f') is split into irreducibles, which are
divided out, and the square left over is factored through its root.
The split is distinct-degree splitting by Frobenius powers, then a
trace-map equal-degree splitter that sweeps c = x, x^2, x^3, ..., so
no step is random and factoring reads no table.  The fixed-point
searches factor through the same route and its cache.

The package's one sieve, _prime_flags, is a byte of prime flag per mask
up to a degree, and only _irreducible_masks reads it: the cached
irreducible lists are the flagged masks.  Enumeration and both
fixed-point searches take their primes from those lists.
"""

import functools
from itertools import compress, count
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

# Bound of the cached prime lists, which irreducibles_up_to and both
# fixed-point searches read.
_TABLE_MAX_DEG = 16

# Swaps the bytes 0 and 1: doubling the weight-parity flags.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


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


def _prime_flags(max_deg: int) -> bytearray:
    """flags[m] is 1 when the mask m of degree <= max_deg is an odd
    irreducible, one with no factor x or x+1, and 0 otherwise.

    The flags start on the masks of odd weight, built by doubling the
    weight parity m(1), which leaves out every multiple of x+1; one
    slice clears the multiples of x.  What is left to clear are the
    composites m with m(0) = m(1) = 1, and each is p * q with p an
    irreducible of degree 2..max_deg // 2 and q(0) = q(1) = 1.
    """
    limit = 1 << (max_deg + 1)
    flags = bytearray(1)
    while len(flags) < limit:
        flags += flags.translate(_FLIP)
    flags[::2] = bytes(limit >> 1)
    flags[1] = 0  # 1 is a unit
    # A p still flagged is irreducible: its factors are all below it.
    for p in range(7, 1 << (max_deg // 2 + 1), 2):
        if not flags[p]:
            continue
        prod = p
        p2 = p << 1
        for i in range(2, limit >> p.bit_length(), 2):
            # Cofactors q = 1 + 2t with t = i ^ (i >> 1) in Gray-code
            # order: an even i gives t(1) = 0, and from i - 2 to i, t flips
            # bit 0 and bit i & -i, so p * q changes by two shifted p.
            prod ^= p2 ^ p2 * (i & -i)
            flags[prod] = 0
    return flags


def _irreducible_counts(max_deg: int) -> list[int]:
    """counts[d], the number of irreducibles of degree d, for d <= max_deg.

    Each element of GF(2^d) is a root of one irreducible whose degree e
    divides d, which has e roots, so the e * counts[e] over the divisors
    e of d sum to 2^d.
    """
    counts = [0] * (max_deg + 1)
    for d in range(1, max_deg + 1):
        below = sum(e * counts[e] for e in range(1, d) if d % e == 0)
        counts[d] = ((1 << d) - below) // d
    return counts


# One entry per degree bound, so the cache holds at most the prime lists
# up to degree _TABLE_MAX_DEG; the flags themselves are not kept.
@functools.lru_cache(maxsize=_TABLE_MAX_DEG)
def _irreducible_masks(max_deg: int) -> tuple[int, ...]:
    """All irreducible masks of degree 1..max_deg, ascending: x, x+1 and
    the masks _prime_flags flags."""
    if max_deg > _TABLE_MAX_DEG:
        raise ValueError(f"irreducible table is bounded at degree {_TABLE_MAX_DEG}")
    if max_deg < 1:
        return ()
    return (2, 3, *compress(count(), _prime_flags(max_deg)))


def irreducibles_up_to(d: int) -> list[Poly]:
    """All irreducibles of degree 1..d in (degree, mask) order; d <= 16."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("degree bound must be a positive integer")
    return [Poly(m) for m in _irreducible_masks(d)]


def _is_irreducible_bits(f: int) -> bool:
    """Deterministic Frobenius-based irreducibility test on a mask; the
    constants 0 and 1 are not irreducible."""
    n = f.bit_length() - 1
    if n < 2:
        return n == 1
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


def _split_equal_degree(g: int, d: int) -> list[int]:
    """Split a product of distinct degree-d irreducibles into its factors.

    The trace c + c^2 + ... + c^(2^(d-1)) is F2-linear and, by the
    Chinese remainder theorem, maps F2[x]/(u) onto F2^k for u with k >= 2
    irreducibles.  1 maps to a constant vector, so some x^i with
    1 <= i < deg u maps to a non-constant one, whose gcd with u is a
    proper factor: the sweep c = x, x^2, ... terminates.  A power constant
    on u is constant on both halves, which resume where u split.
    """
    work = [(g, 1)]
    done = []
    while work:
        u, i = work.pop()
        if u.bit_length() - 1 == d:
            done.append(u)
            continue
        while True:
            t = acc = 1 << i
            for _ in range(d - 1):
                t = _mod_bits(_sqr_bits(t), u)
                acc ^= t
            w = _gcd_bits(acc, u)
            if w != 1 and w != u:
                work.append((w, i))
                work.append((_divmod_bits(u, w)[0], i))
                break
            i += 1
    return done


def _factor_squarefree(f: int) -> list[int]:
    """Factor a squarefree mask by distinct-degree then equal-degree splitting."""
    out = []
    x_mod = _mod_bits(2, f)
    h = x_mod
    d = 0
    while f.bit_length() - 1 >= 2 * (d + 1):
        d += 1
        h = _mod_bits(_sqr_bits(h), f)
        g = _gcd_bits(h ^ x_mod, f)
        if g != 1:
            out.extend(_split_equal_degree(g, d))
            f = _divmod_bits(f, g)[0]
            h = _mod_bits(h, f)
            x_mod = _mod_bits(2, f)
    if f != 1:
        out.append(f)
    return out


@functools.lru_cache(maxsize=1 << 16)
def _factor_bits(bits: int) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    f, mult = bits, 1
    while True:
        der = _derivative_bits(f)
        if der:
            # f = A^2 B with B squarefree and gcd(f, f') = A^2: each prime
            # of B divides A^2 once less than f, and A^2 is left a square.
            # B is split by Frobenius powers alone; no table is read.
            g = _gcd_bits(f, der)
            odd_part = _divmod_bits(f, g)[0]
            f = g
            for p in _factor_squarefree(odd_part):
                e = 1
                while True:
                    q, r = _divmod_bits(f, p)
                    if r:
                        break
                    f = q
                    e += 1
                counts[p] = counts.get(p, 0) + e * mult
        if f == 1:
            return tuple(sorted(counts.items()))
        # f is a square (zero derivative): go on with its root.
        f = _sqrt_bits(f)
        mult *= 2


def factor(a: Poly) -> Factorization:
    """Complete factorization of a nonzero polynomial, canonically ordered."""
    if a.bits == 0:
        raise ValueError("cannot factor the zero polynomial")
    pairs = _factor_bits(a.bits)
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
