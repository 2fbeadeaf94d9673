"""Fixed-point search for the divisor-sum functions over F2[x].

A polynomial is perfect when sigma(A) = A and unitary-perfect when
sigma_star(A) = A.  Exhaustive mode enumerates every polynomial of
degree 1..max_deg and reads each divisor sum off one table, built by
peeling prime powers with the smallest-factor and cofactor tables of
factorize._factor_sieve.  Odd mode exploits the fact that a fixed point
with no linear factor must be a square, so it enumerates A = S*S over
the S with constant term 1 and S(1) = 1, halving the exponent space.
Those S are exactly the products of odd irreducibles, so the scan walks
factorizations rather than masks: each step multiplies S^2 and its
divisor sum by one prime power, and no candidate is ever factored.

Every hit is re-verified through the literal divisor-sum (and, for
sigma, the brute-force convolution of id with z), so no reported fixed
point depends on the multiplicative evaluation path that found it.

The odd filter encodes known published lower bounds for odd perfect
polynomials as plain configuration constants; nothing here re-derives
them, and passing the filter never claims a candidate is perfect.
"""

import heapq
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType

from .divisors import big_omega, divisors, is_special, omega, unitary_divisors
from .divisors import ResourceLimitError
from .factorize import _factor_sieve, factor, parity
from .gf2poly import Poly, X, X1, _mul_bits, _sqr_bits, sqrt_if_square
from .multfun import _sigma_bits, _sigma_star_bits, convolve_bruteforce, ident, z

__all__ = [
    "SearchResult",
    "ScanReport",
    "OddFilterReport",
    "EXHAUSTIVE_MAX_DEG",
    "ODD_SCAN_MAX_DEG",
    "verify_perfect",
    "trivial_form",
    "classify",
    "search_fixed_points",
    "odd_square_scan",
    "odd_perfect_filter",
]

EXHAUSTIVE_MAX_DEG = 20
ODD_SCAN_MAX_DEG = 40

# The odd-mode pre-filter compares this many low coefficients before
# committing to a full product; rejections must stay conservative, which
# tests confirm by fully re-checking a sample of filtered candidates.
_FILTER_BITS = 32
_LOW_MASK = (1 << _FILTER_BITS) - 1

# Known published lower bounds for odd perfect polynomials.  These are
# configuration data for the filter, not facts derived by this package.
ODD_MIN_OMEGA = 5
ODD_MIN_BIG_OMEGA = 12
ODD_MIN_DEGREE = 200  # viable candidates need degree strictly above this
ODD_SPECIAL_MIN_OMEGA = 10

_TRIVIAL_BASE = X * X1  # x^2+x


@dataclass(frozen=True)
class SearchResult:
    """One verified fixed point."""

    polynomial: Poly
    kind: str  # "sigma-perfect" | "unitary-perfect"
    classification: str  # "trivial" | "even-nontrivial" | "odd"
    degree: int

    def line(self) -> str:
        head = "PERFECT" if self.kind == "sigma-perfect" else "UNITARY-PERFECT"
        return f"{head} deg={self.degree} {self.polynomial} class={self.classification}"


@dataclass
class ScanReport:
    """Accounting for one odd-square scan."""

    max_deg: int
    unitary: bool
    candidates: int = 0
    filter_rejected: int = 0
    full_checked: int = 0
    hits: "list[SearchResult]" = field(default_factory=list)
    rejected_sample: "list[Poly]" = field(default_factory=list)


@dataclass(frozen=True)
class OddFilterReport:
    """Necessary-condition verdicts for one odd candidate."""

    candidate: Poly
    is_square: bool
    omega: int
    big_omega: int
    degree: int
    special: bool
    conditions: "dict[str, bool]"
    viable: bool


def verify_perfect(a: Poly, unitary: bool = False) -> bool:
    """Exact fixed-point test by XOR over the (unitary) divisor list."""
    if a.bits == 0:
        raise ValueError("perfection is undefined for the zero polynomial")
    fact = factor(a)
    acc = 0
    for d in (unitary_divisors(fact) if unitary else divisors(fact)):
        acc ^= d.bits
    return acc == a.bits


def trivial_form(a: Poly) -> "int | None":
    """n when a = (x^2+x)**(2**n - 1), else None."""
    deg = a.degree
    if deg is None or deg < 2 or deg % 2:
        return None
    k = deg // 2
    n = (k + 1).bit_length() - 1
    if n < 1 or (1 << n) != k + 1:
        return None
    return n if _TRIVIAL_BASE**k == a else None


def classify(a: Poly) -> str:
    """Shape label used in search listings."""
    if trivial_form(a) is not None:
        return "trivial"
    return "even-nontrivial" if parity(a) == "even" else "odd"


# No prime-power memo outlives one table build.  These names stay, as
# empty read-only views, because perfbench/tracer.py reports their size
# as the count of memo entries left alive after a run.
_SIGMA_PP = _SIGMASTAR_PP = MappingProxyType({})


def _divsum_table(max_deg: int, unitary: bool) -> "array":
    """sigma (or sigma_star) of every mask of degree <= max_deg."""
    spf, cof = _factor_sieve(max_deg)
    out = array("I", [0]) * len(spf)
    out[1] = 1
    rule = _sigma_star_bits if unitary else _sigma_bits
    memo: "dict[tuple[int, int], int]" = {}
    for m in range(2, len(spf)):
        p = spf[m]
        rest = cof[m]
        e = 1
        while spf[rest] == p:
            rest = cof[rest]
            e += 1
        v = memo.get((p, e))
        if v is None:
            memo[(p, e)] = v = rule(p, e)
        out[m] = _mul_bits(v, out[rest])
    return out


def _shards(start: int, stop: int, jobs: int) -> "list[tuple[int, int]]":
    jobs = max(1, jobs)
    span = stop - start
    if span <= 0:
        return []
    step = max(1, (span + jobs - 1) // jobs)
    return [(a, min(a + step, stop)) for a in range(start, stop, step)]


def _run_shards(fn, shards, jobs):
    if jobs > 1 and len(shards) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, shards))
    return [fn(s) for s in shards]


def _result(mask: int, unitary: bool) -> SearchResult:
    a = Poly(mask)
    if not verify_perfect(a, unitary):
        raise RuntimeError(f"search hit {a} failed divisor-sum re-verification")
    if not unitary and convolve_bruteforce(ident, z, a) != a:
        raise RuntimeError(f"search hit {a} failed convolution re-verification")
    kind = "unitary-perfect" if unitary else "sigma-perfect"
    return SearchResult(a, kind, classify(a), a.degree)


def search_fixed_points(
    max_deg: int,
    unitary: bool = False,
    odd_only: bool = False,
    jobs: int = 1,
) -> "list[SearchResult]":
    """All fixed points of sigma (or sigma_star) with degree 1..max_deg.

    Candidate ranges are disjoint bitmask intervals merged in order, so
    the result is identical for every jobs value.
    """
    if odd_only:
        return odd_square_scan(max_deg, unitary=unitary, jobs=jobs).hits
    if not 1 <= max_deg <= EXHAUSTIVE_MAX_DEG:
        raise ResourceLimitError(
            f"exhaustive search degree must be 1..{EXHAUSTIVE_MAX_DEG}"
        )
    table = _divsum_table(max_deg, unitary)

    def scan(bounds: "tuple[int, int]") -> "list[int]":
        lo, hi = bounds
        return [m for m in range(lo, hi) if table[m] == m]

    chunks = _run_shards(scan, _shards(2, len(table), jobs), jobs)
    masks = sorted(m for chunk in chunks for m in chunk)
    return [_result(m, unitary) for m in masks]


def odd_square_scan(
    max_deg: int,
    unitary: bool = False,
    jobs: int = 1,
    sample_rejected: int = 0,
) -> ScanReport:
    """Scan A = S*S over all S without linear factors, deg A <= max_deg.

    S must have constant term 1 and S(1) = 1, so S is a product of odd
    irreducibles.  The scan walks those products depth first, primes in
    ascending order with their exponents, and extends A and its divisor
    sum by one prime power per step, so no candidate is ever factored.
    The low coefficients of the divisor sum are compared first; survivors
    get the full comparison.  Counters and the smallest filter-rejected
    candidates are recorded for conservativeness checks.
    """
    if not 2 <= max_deg <= ODD_SCAN_MAX_DEG:
        raise ResourceLimitError(
            f"odd-square scan degree must be 2..{ODD_SCAN_MAX_DEG}"
        )
    half = max_deg // 2
    low = _LOW_MASK
    rule = _sigma_star_bits if unitary else _sigma_bits
    # A sieve of the scan's own, freed once read: nothing of degree half
    # stays cached after the scan.
    primes = [p for p, s in enumerate(_factor_sieve(half)[0])
              if s == p and p > 3]
    degs = [p.bit_length() - 1 for p in primes]
    count = len(primes)

    def scan(bounds: "tuple[int, int]"):
        cand = rej = full = 0
        hit_masks: "list[int]" = []
        sample: "list[int]" = []  # negated: a max-heap of the smallest

        def walk(first: int, stop: int, room: int, a: int, acc: int) -> None:
            # Extend S by p^e for every prime p from index first on that
            # still fits in room degrees; a = S^2, acc = its divisor sum.
            nonlocal cand, rej, full
            for i in range(first, stop):
                d = degs[i]
                if d > room:
                    break
                p = primes[i]
                sq = _sqr_bits(p)
                pw = 1
                for e in range(1, room // d + 1):
                    pw = _mul_bits(pw, sq)
                    a2 = _mul_bits(a, pw)
                    acc2 = _mul_bits(acc, rule(p, 2 * e))
                    cand += 1
                    if (acc2 ^ a2) & low:
                        rej += 1
                        if len(sample) < sample_rejected:
                            heapq.heappush(sample, -a2)
                        elif sample and a2 < -sample[0]:
                            heapq.heapreplace(sample, -a2)
                    else:
                        full += 1
                        if acc2 == a2:
                            hit_masks.append(a2)
                    rest = room - e * d
                    if i + 1 < count and degs[i + 1] <= rest:
                        walk(i + 1, count, rest, a2, acc2)

        walk(*bounds, half, 1, 1)
        return cand, rej, full, hit_masks, [-m for m in sample]

    shards = _shards(0, count, jobs)
    report = ScanReport(max_deg=max_deg, unitary=unitary)
    hit_masks: "list[int]" = []
    sample_masks: "list[int]" = []
    for cand, rej, full, hits, sample in _run_shards(scan, shards, jobs):
        report.candidates += cand
        report.filter_rejected += rej
        report.full_checked += full
        hit_masks.extend(hits)
        sample_masks.extend(sample)
    report.hits = [_result(m, unitary) for m in sorted(hit_masks)]
    smallest = heapq.nsmallest(sample_rejected, sample_masks)
    report.rejected_sample = [Poly(m) for m in smallest]
    return report


def odd_perfect_filter(a: Poly) -> OddFilterReport:
    """Evaluate the documented necessary conditions on an odd candidate.

    A viable verdict only means no condition rules the candidate out.
    """
    if parity(a) != "odd":
        raise ValueError("the odd-candidate filter requires an odd polynomial")
    fact = factor(a)
    w = omega(fact)
    big_w = big_omega(fact)
    deg = a.degree
    special = is_special(a)
    square = sqrt_if_square(a) is not None
    conditions = {
        "is_square": square,
        f"omega_ge_{ODD_MIN_OMEGA}": w >= ODD_MIN_OMEGA,
        f"big_omega_ge_{ODD_MIN_BIG_OMEGA}": big_w >= ODD_MIN_BIG_OMEGA,
        f"degree_gt_{ODD_MIN_DEGREE}": deg > ODD_MIN_DEGREE,
        f"special_omega_ge_{ODD_SPECIAL_MIN_OMEGA}": (not special)
        or w >= ODD_SPECIAL_MIN_OMEGA,
    }
    return OddFilterReport(
        candidate=a,
        is_square=square,
        omega=w,
        big_omega=big_w,
        degree=deg,
        special=special,
        conditions=conditions,
        viable=all(conditions.values()),
    )
