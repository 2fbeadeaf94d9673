"""Fixed-point search for the divisor-sum functions over F2[x].

A polynomial is perfect when sigma(A) = A and unitary-perfect when
sigma_star(A) = A.  Both searches multiply prime powers depth first,
primes in ascending order with their exponents, and extend A and its
divisor sum by one prime power per step, so no candidate is ever
factored and a walked product costs two carryless products.  The
divisor sum of a prime power comes from the affine rule that
gf2mf.multfun._divsum_affine gives.

Exhaustive mode walks prime powers of degree <= max_deg // 2: if P^e
exactly divides a fixed point A, then P^e divides the divisor sum of
A / P^e, so no fixed point has a larger one.  It walks only products
that can still be closed.  Since sigma is multiplicative, sigma(P^e)
divides sigma(A) = A, so every irreducible of sigma(P^e) divides A, and
likewise 1 + P^e for sigma_star.  Primes are taken in ascending index
order, so a prime the walk skipped is absent below that node, and three
rules follow: a P^e whose divisor sum has a skipped prime is dropped
with its subtree; a sibling loop stops at the lowest prime still
required; and A is compared with its divisor sum only once no prime is
still required.  Nor is a product extended once its largest required
prime no longer fits in the degree.

Odd mode exploits the fact that a fixed point with no linear factor
must be a square, so it walks A = S*S over the S with
constant term 1 and S(1) = 1, the products of odd irreducibles, taking
even exponents only.  It keeps an unpruned walk of its own, _walk,
because its report counts every candidate.  That walk compares and
tallies each candidate where it is made, so no candidate is handed up
through the recursion.

Every hit is re-verified through the literal divisor-sum (and, for
sigma, the brute-force convolution of id with z), so no reported fixed
point depends on the multiplicative evaluation path that found it.

The odd filter encodes known published lower bounds for odd perfect
polynomials as plain configuration constants; nothing here re-derives
them, and passing the filter never claims a candidate is perfect.
"""

import heapq
from dataclasses import dataclass, field
from itertools import compress, count
from types import MappingProxyType

from .divisors import big_omega, divisors, omega, unitary_divisors
from .divisors import ResourceLimitError
from .factorize import _factor_sieve, _irreducible_masks, factor, parity
from .gf2poly import Poly, X, X1, _mul_bits, _sqr_bits
from .multfun import (_divsum_affine, _divsum_bits, convolve_bruteforce,
                      ident, z)

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

EXHAUSTIVE_MAX_DEG = 24
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


# The searches keep no prime-power memo and run serially.  These names
# stay, inert, because perfbench/tracer.py reads them: it reports the
# size of the empty read-only views as the count of memo entries left
# alive after a run, and it rebinds _run_shards and ThreadPoolExecutor,
# which nothing here calls.
_SIGMA_PP = _SIGMASTAR_PP = MappingProxyType({})
_run_shards = ThreadPoolExecutor = None


def _walk(primes, max_deg, unitary, sample_rejected):
    """Check every square A = S*S of degree <= max_deg against its
    divisor sum, as (rejected, full_checked, hit masks, sample).

    S is a product of P^k over ascending primes from the list; the
    divisor sum is sigma(A), or sigma_star(A) if unitary.  Each step
    multiplies A and its divisor sum by one prime power P^(2k), so no A
    is ever factored.  The divisor sum of P^(2k) is carried across k by the
    affine rule s_k = s_(k-1) * P^2 + c that multfun._divsum_affine
    gives, so each candidate costs the two products a * P^(2k) and
    acc * s_k, and each further exponent two more.  A candidate whose low
    coefficients differ from its divisor sum's is rejected; the others
    are compared whole.  sample holds the sample_rejected smallest
    rejected masks, in no order.
    """
    bases = [_sqr_bits(p) for p in primes]
    weights = [b.bit_length() - 1 for b in bases]
    n = len(primes)
    hits: "list[int]" = []
    heap: "list[int]" = []  # negated: a max-heap of the smallest
    full = 0

    def walk(first: int, room: int, a: int, acc: int) -> int:
        nonlocal full
        rej = 0
        for i in range(first, n):
            w = weights[i]
            if w > room:
                break
            base = bases[i]
            s0, c = _divsum_affine(primes[i], base, 2, unitary)
            top = room // w
            pw = base
            sig = s0 * base ^ c  # s_0 is 0 or 1, so * is carryless here
            k = 1
            while k <= top:  # cheaper than a range per visited prime
                a2 = _mul_bits(a, pw)
                acc2 = _mul_bits(acc, sig)
                if (acc2 ^ a2) & _LOW_MASK:
                    rej += 1
                    if len(heap) < sample_rejected:
                        heapq.heappush(heap, -a2)
                    elif heap and a2 < -heap[0]:
                        heapq.heapreplace(heap, -a2)
                else:
                    full += 1
                    if acc2 == a2:
                        hits.append(a2)
                rest = room - k * w
                if i + 1 < n and weights[i + 1] <= rest:
                    rej += walk(i + 1, rest, a2, acc2)
                if k < top:
                    pw = _mul_bits(pw, base)
                    sig = _mul_bits(sig, base) ^ c
                k += 1
        return rej

    rej = walk(0, max_deg, 1, 1)
    return rej, full, hits, [-m for m in heap]


def _prime_power_rows(primes, cap, unitary):
    """Per prime P_i of the list, one row (deg, P^k, s_k, req) for each
    k >= 1 with deg P^k <= cap.

    s_k is the divisor sum of P^k, sigma or sigma_star if unitary,
    carried across k by the affine rule of multfun._divsum_affine.  req
    is the index mask of the irreducibles of that divisor sum, factored
    from multfun._divsum_bits, so the prune does not rest on the carried
    sums.  Each of those irreducibles has degree <= cap, so it is in the
    list.
    """
    index = {p: i for i, p in enumerate(primes)}
    rows = []
    for p in primes:
        d = p.bit_length() - 1
        top = cap // d
        s0, c = _divsum_affine(p, p, 1, unitary)
        pw = p
        sig = s0 * p ^ c  # s_0 is 0 or 1, so * is carryless here
        row = []
        for k in range(1, top + 1):
            req = 0
            for q, _ in factor(Poly(_divsum_bits(p, k, unitary))):
                req |= 1 << index[q.bits]
            row.append((k * d, pw, sig, req))
            if k < top:
                pw = _mul_bits(pw, p)
                sig = _mul_bits(sig, p) ^ c
        rows.append(row)
    return rows


def _closed_hits(rows, max_deg) -> "list[int]":
    """The fixed points among the products search_fixed_points walks,
    in walk order, by the rules its docstring states.

    A node carries A, its divisor sum acc, the index mask have of the
    primes taken and the mask need of the primes that a taken P^k's
    divisor sum requires and A lacks.
    """
    weights = [row[0][0] for row in rows]
    n = len(rows)
    hits: "list[int]" = []

    def walk(first, room, a, acc, have, need):
        # Skipping the lowest needed prime leaves A unclosable.
        stop = (need & -need).bit_length() if need else n
        for i in range(first, stop):
            if weights[i] > room:
                break
            bit = 1 << i
            below = bit - 1
            have2 = have | bit
            after = weights[i + 1] if i + 1 < n else room + 1
            for e, pw, sig, req in rows[i]:
                if e > room:
                    break
                if req & below & ~have:
                    continue  # requires a prime the walk skipped
                need2 = (need | req) & ~have2
                rest = room - e
                if need2:
                    if weights[need2.bit_length() - 1] <= rest:
                        walk(i + 1, rest, _mul_bits(a, pw),
                             _mul_bits(acc, sig), have2, need2)
                    continue
                a2 = _mul_bits(a, pw)
                acc2 = _mul_bits(acc, sig)
                if acc2 == a2:
                    hits.append(a2)
                if after <= rest:
                    walk(i + 1, rest, a2, acc2, have2, 0)

    walk(0, max_deg, 1, 1, 0, 0)
    return hits


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
) -> "list[SearchResult]":
    """All fixed points of sigma (or sigma_star) with degree 1..max_deg.

    If P^e exactly divides a fixed point A then P^e divides the divisor
    sum of A / P^e, because that of P^e is 1 modulo P; so 2 deg P^e <=
    deg A, and the search walks products of prime powers of degree
    <= max_deg // 2.  It walks only those that can still be closed: the
    divisor sum of P^e divides that of A, which is A, so each of its
    irreducibles divides A.  Primes are taken in ascending order, so a
    prime the walk skipped is absent from every product below; a P^e
    whose divisor sum needs a skipped prime is dropped with its subtree,
    a sibling loop stops at the lowest prime still needed, a product is
    not extended once its largest needed prime no longer fits, and
    A = sigma(A) is tested only when no prime is needed.
    """
    if not 1 <= max_deg <= EXHAUSTIVE_MAX_DEG:
        raise ResourceLimitError(
            f"exhaustive search degree must be 1..{EXHAUSTIVE_MAX_DEG}"
        )
    primes = _irreducible_masks(max_deg // 2)
    rows = _prime_power_rows(primes, max_deg // 2, unitary)
    masks = sorted(_closed_hits(rows, max_deg))
    return [_result(m, unitary) for m in masks]


def odd_square_scan(
    max_deg: int,
    unitary: bool = False,
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

    With unitary=True the hits are always empty: no odd A != 1 is
    unitary-perfect.  Each P^e exactly dividing A has P(1) = 1, so x+1
    divides 1 + P^e = sigma_star(P^e) and hence sigma_star(A), while x+1
    does not divide A.
    """
    if not 2 <= max_deg <= ODD_SCAN_MAX_DEG:
        raise ResourceLimitError(
            f"odd-square scan degree must be 2..{ODD_SCAN_MAX_DEG}"
        )
    # A sieve of the scan's own, freed once read: nothing of degree
    # max_deg // 2 stays cached after the scan.  Masks 2 and 3 are the
    # linear primes.
    primes = list(compress(count(4), _factor_sieve(max_deg // 2)[4:]))
    rej, full, hits, sample = _walk(primes, max_deg, unitary, sample_rejected)
    return ScanReport(
        max_deg=max_deg,
        unitary=unitary,
        candidates=rej + full,
        filter_rejected=rej,
        full_checked=full,
        hits=[_result(m, unitary) for m in sorted(hits)],
        rejected_sample=[Poly(m) for m in sorted(sample)],
    )


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
    special = all(e == 2 for _, e in fact)
    square = all(e % 2 == 0 for _, e in fact)
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
