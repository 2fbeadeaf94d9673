"""Fixed-point search for the divisor-sum functions over F2[x].

A polynomial is perfect when sigma(A) = A and unitary-perfect when
sigma_star(A) = A.  Both searches multiply prime powers depth first,
primes in ascending order with their exponents, and extend A and its
divisor sum by one prime power per step, so no candidate is ever
factored and a walked product costs two carryless products.  The
divisor sum of a prime power comes from the affine rule that
gf2mf.multfun._divsum_affine gives.  Both searches list their small
primes off factorize's cached irreducible list, and the exhaustive
search's prunes factor the sums the walk carries by factor()'s route.

Both walks read P^(k*step) and its divisor sum off one row table,
_prime_power_rows, built once per call: at step 1 for the exhaustive
search, at step 2 for the odd scan's head primes, as it walks squares.
Rows, A and its divisor sum are lane values (gf2poly._spread), so each
carryless product is one integer multiply masked to the lanes' low
bits.  The odd scan solves for its last primes on the same lane values
and converts a last prime only where it is compared; only the
candidates compared whole are converted back.  Both caps lie far inside
the lane bound of degree 254.

Exhaustive mode walks prime powers of degree <= max_deg // 2, the
bound search_fixed_points derives, over the live primes of
_search_rows only, and only the products that can still be closed.
Its four prunes, the closure, bucket, conjugate and valuation rules,
are stated once, in _closed_hits, which applies them.

Odd mode rests on one fact: a fixed point of sigma with no linear
factor is a square (E. F. Canaday, "The sum of the divisors of a
polynomial", Duke Math. J. 8 (1941)).  Each prime P of such an A has
P(0) = 1, so sigma(P^e) = 1 + P + ... + P^e is e + 1 mod 2 at x = 0,
and x divides sigma(A) but not A when an exponent e is odd.  So the
scan walks A = S*S over the S with constant term 1 and S(1) = 1, the
products of odd irreducibles, taking even exponents only.  It keeps
an unpruned walk of its own, _walk, because its report counts every
candidate.  That walk compares and tallies each candidate where it is
made, so no candidate is handed up through the recursion.  At a node,
a prime whose square has more than half the degree left admits P^2
alone and nothing after it; those are the node's last primes.  They
make most candidates, 129071 of the 131071 at degree 36, and the walk
settles them together: the prefilter on A * P^2 is affine in the
coefficients of P, since squaring is additive in characteristic 2, so
one solve over GF(2) per node, over the P with P(0) = 1, names the few
last primes that pass it, and the rest are rejected without being made.
The system is triangular for sigma and unsolvable for sigma_star, so the
solve substitutes back, making a column only when its lane is reached.
A node's parent settles its last primes as it makes the node, and the
root's are settled once, at the top, so the walk calls itself only for
a node with primes other than last primes: a node with last primes only
costs one solve and no call.

Every hit is re-verified through the literal divisor-sum (and, for
sigma, the brute-force convolution of id with z), so no reported fixed
point depends on the multiplicative evaluation path that found it.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, islice
from operator import xor

from .divisors import ResourceLimitError, _power_products
from .factorize import (_factor_bits, _irreducible_counts,
                        _irreducible_masks, _is_irreducible_bits, factor,
                        parity)
from .gf2poly import (Poly, X, X1, _compose_bits, _spread, _sqr_bits,
                      _unspread)
from .multfun import _divsum_affine, convolve_bruteforce, ident, z

__all__ = [
    "SearchResult",
    "ScanReport",
    "EXHAUSTIVE_MAX_DEG",
    "ODD_SCAN_MAX_DEG",
    "verify_perfect",
    "trivial_form",
    "classify",
    "search_fixed_points",
    "odd_square_scan",
]

EXHAUSTIVE_MAX_DEG = 32
ODD_SCAN_MAX_DEG = 48

# The odd-mode pre-filter compares this many low coefficients before
# committing to a full product; rejections must stay conservative, which
# tests confirm by fully re-checking a sample of filtered candidates.
_FILTER_BITS = 32
_LOW_MASK = (1 << _FILTER_BITS) - 1

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


def _check_unitary(unitary: bool) -> None:
    """Refuse a unitary flag that is not a bool: "False" or 2 would read
    as True."""
    if type(unitary) is not bool:
        raise ValueError(f"unitary must be a bool, got {unitary!r}")


def verify_perfect(a: Poly, unitary: bool = False) -> bool:
    """Exact fixed-point test: the XOR of the masks of every (unitary)
    divisor of factor(a), as divisors() or unitary_divisors() lists them
    (divisors._power_products), equals a.  A literal sum over the
    lattice, independent of the rows and closed forms the searches use;
    no Poly is built per divisor.  unitary must be a bool."""
    _check_unitary(unitary)
    if a.bits == 0:
        raise ValueError("perfection is undefined for the zero polynomial")
    return reduce(xor, _power_products(factor(a), unitary), 0) == a.bits


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
# length of the empty tuples as the count of memo entries left alive
# after a run, and it rebinds _run_shards and ThreadPoolExecutor, which
# nothing here calls.
_SIGMA_PP = _SIGMASTAR_PP = ()
_run_shards = ThreadPoolExecutor = None


def _divsum_form(h, unitary):
    """The divisor sum s(P) of P^2, sigma or sigma_star if unitary, for
    deg P <= h, in affine form on lane values (gf2poly._spread): the
    list of s(1) and, at each i >= 1, s(1 + x^i) + s(1).

    s(P) is the s_1 of multfun._divsum_affine at step 2, which only
    XORs, so for odd P, s(P) is s(1) plus the form[i] of the terms x^i
    of P + 1: squaring is additive in characteristic 2.  In lanes x^i
    is 1 << 8i and x^(2i) is 1 << 16i.
    """
    origin = _divsum_affine(1, 1, 2, unitary)[0]
    return [origin] + [_divsum_affine(1 ^ 1 << 8 * i, 1 ^ 1 << 16 * i, 2,
                                      unitary)[0] ^ origin
                       for i in range(1, h + 1)]


def _filter_solutions(a, acc, h, form, mask):
    """Every odd P of degree <= h, as masks, for which A * P^2 and
    acc * s(P) agree on the lanes in mask, where a, acc and mask are
    lane values, form is s's from _divsum_form, A(0) = 1 and, for
    sigma, acc(0) = 1, as at every node of _walk.

    F(P) = acc * s(P) + A * P^2 is affine in the coefficients of P, so
    for P(0) = 1, F(P) = F(1) + the sum of the columns F(1 + x^i) + F(1)
    = A x^(2i) + acc * form[i] over the terms x^i, i >= 1, of P + 1.
    Each column is one shift and one lane product of the masked
    operands, exact while mask has at most 255 lanes: no lane under it
    sums more terms.  For sigma column i is (A + acc) x^(2i) + acc x^i,
    whose lowest term is x^i, so F(1) is cleared by back substitution
    from its lowest lane up, each column made when that lane reaches
    it; a lowest lane of 0 or above h leaves no solution.  The lanes
    cleared rise, and p's highest bit is the last, so the loop ends
    even where the precondition fails.  For sigma_star s(1) = 0, so
    F(1) = A has lane 0 and no P solves.  A column of a lane at or
    above mask's lane count vanishes under mask and doubles the
    solutions: only masks narrower than h + 1 lanes have one, never the
    walk's, of 32 lanes for h <= 24.
    """
    a &= mask
    acc &= mask
    v = (a ^ acc * form[0]) & mask  # F(1)
    p = 1
    while v:
        i = (v & -v).bit_length() - 1 >> 3  # the lane of v's lowest bit
        if p >> i or i > h:  # i must rise past p's top lane, 0 at first
            return []
        v ^= (a << 16 * i ^ acc * form[i]) & mask
        p |= 1 << i
    solutions = [p]
    lanes = mask.bit_length() + 7 >> 3
    if lanes <= h:
        for i in range(lanes, h + 1):
            solutions += [q | 1 << i for q in solutions]
    return solutions


def _walk(max_deg, unitary):
    """Check every square A = S*S of degree <= max_deg against its
    divisor sum, as (rejected, checked masks, hit masks).

    S is a product of P^k over ascending odd primes; the divisor sum is
    sigma(A), or sigma_star(A) if unitary.  Each step multiplies A and
    its divisor sum by one prime power P^(2k), so no A is ever factored;
    both are read off _prime_power_rows at step 2.  A candidate whose
    low coefficients differ from its divisor sum's is rejected and only
    counted; the others are compared whole and listed as checked.

    The primes are indexed in ascending order, so the first index above
    degree d is the count of odd primes of degree <= d, which
    factorize._irreducible_counts gives without a sieve.  A node with
    room R left, whose primes start at index first, splits them, whose
    weights 2 deg P ascend, at those indexes: the head, of weight
    <= R // 2, runs from first up to mid = start[R // 4], and the tail,
    of weight above R // 2, from mid, raised to first, up to end =
    start[R // 2].  walk(first, R, a, acc) runs the head: each row of
    degree <= R, each candidate at the two products a * P^(2k) and
    acc * s_k, and each candidate is a child node with the room left.

    Each prime of the tail admits P^2 only and nothing after it, so the
    tail is settled at once, and by the parent: the head loop settles
    each child's tail as it makes the child, and the root's is settled
    once, at the top.  The loop recurses only into a child whose head is
    not empty, so a leaf costs one solve and no frame of its own.  The
    tail's candidate A * P^2 has divisor sum acc * s(P), and F(P) =
    acc * s(P) + A * P^2 is affine in the coefficients of P, since
    squaring is additive in characteristic 2; the filter passes exactly
    when the low coefficients of F(P) vanish.  _filter_solutions solves
    that over GF(2) on the node's own lane values, for odd P of degree
    <= R // 2, once per node whose tail is not empty.  When it finds
    none, almost always, the end - mid tail primes are counted as
    rejected with no list built.  Otherwise tail takes a solution above
    the last prime before the tail (above x+1 at index 0) as a tail
    prime when it is irreducible; a prime found gets the full
    comparison, on its one row of the table, and every other tail prime
    is rejected.  Each node has A(0) = 1 and, for sigma, acc(0) = 1, as
    the solve requires.  For sigma F(P) + F(0) = (A + acc) P^2 + acc P
    has the lowest term of P, so at most one P solves; for sigma_star
    F(P)(0) = A(0) = 1, so none does.  At the root A = acc = 1, and
    F(P) = P + 1 or 1 has no prime solution.

    Only the primes of degree <= max_deg // 4 are listed, off the cached
    irreducible list: the root's head primes, which hold every node's.
    A tail prime is found by the solve and the irreducibility test, so
    none need be listed.

    The walk runs on lane values (gf2poly._spread), so each product is
    one integer multiply masked by keep.  The rows of the head primes,
    of weight <= max_deg // 2, are built once per scan, so each head
    prime is converted and squared once, and each further power and
    divisor sum costs the table two products once, not one per visit.
    A tail prime is converted only if it passes the filter.  Only the
    checked candidates and the hits are read back into masks.
    """
    counts = _irreducible_counts(max_deg // 2)
    counts[1] = 0  # x and x+1 are not odd
    start = list(accumulate(counts))  # start[d]: odd primes of degree <= d
    primes = _irreducible_masks(max_deg // 4)[2:]
    rows = _prime_power_rows(primes, max_deg, 2, unitary)
    keep = _spread((1 << (max_deg + 1)) - 1)
    low = _spread(_LOW_MASK)
    form = _divsum_form(max_deg // 2, unitary)
    checked: "list[int]" = []
    hits: "list[int]" = []

    def tail(mid, end, room, a, acc, solved):
        # The rejected count of a node's tail, indexes mid..end-1, whose
        # filter solutions are solved; a prime found is compared whole.
        below = primes[mid - 1] if mid else 3  # x+1 and 1 are not odd primes
        passed = [p for p in solved if p > below and _is_irreducible_bits(p)]
        for (_, pw, sig), in _prime_power_rows(passed, room, 2, unitary):
            a2 = a * pw & keep
            checked.append(a2)
            if acc * sig & keep == a2:
                hits.append(a2)
        return end - mid - len(passed)

    def walk(first: int, room: int, a: int, acc: int) -> int:
        rej = 0
        for i in range(first, start[room // 4]):
            nxt = i + 1
            for e, pw, sig in rows[i]:
                if e > room:
                    break
                a2 = a * pw & keep
                acc2 = acc * sig & keep
                if (acc2 ^ a2) & low:
                    rej += 1
                else:
                    checked.append(a2)
                    if acc2 == a2:
                        hits.append(a2)
                rest = room - e
                mid = start[rest // 4]
                if mid > nxt:  # the child's head is not empty
                    rej += walk(nxt, rest, a2, acc2)
                else:
                    mid = nxt
                end = start[rest // 2]
                if mid < end:  # settle the child's tail here
                    solved = _filter_solutions(a2, acc2, rest // 2, form, low)
                    rej += (tail(mid, end, rest, a2, acc2, solved) if solved
                            else end - mid)
        return rej

    mid, end = start[max_deg // 4], start[max_deg // 2]  # the root's tail
    solved = (_filter_solutions(1, 1, max_deg // 2, form, low)
              if mid < end else [])
    rej = walk(0, max_deg, 1, 1) + tail(mid, end, max_deg, 1, 1, solved)
    return rej, [_unspread(x) for x in checked], [_unspread(x) for x in hits]


def _prime_power_rows(primes, cap, step, unitary):
    """Per prime P of the list, one row (e, P^(k*step), s_k) for each
    k >= 1 with e = k * step * deg P <= cap: the one table of prime
    powers that both walks read, at step 1 for the exhaustive search and
    at step 2 for the odd scan's squares.

    P^(k*step) and s_k are lane values (gf2poly._spread), reduced to
    degree cap.  s_k is the divisor sum of P^(k*step), sigma or
    sigma_star if unitary, carried across k by the affine rule of
    multfun._divsum_affine from its s_1.
    """
    keep = _spread((1 << (cap + 1)) - 1)
    rows = []
    for p in primes:
        w = step * (p.bit_length() - 1)
        top = cap // w
        lp = _spread(p)
        base = lp * lp & keep if step == 2 else lp
        sig, c = _divsum_affine(lp, base, step, unitary)
        pw = base
        row = []
        for k in range(1, top + 1):
            row.append((k * w, pw, sig))
            if k < top:
                pw = pw * base & keep
                sig = sig * base & keep ^ c
        rows.append(row)
    return rows


def _seed_closure(cap, unitary):
    """The seed closure C at cap = max_deg // 2: every prime that a fixed
    point of sigma, or sigma_star if unitary, of degree <= max_deg can
    have (Lemma 2), ascending, each with its rows of _prime_power_rows
    at step 1, which a prime of degree <= cap // 2 shares with the
    seeds.  C is the closure of x, x+1 and the primes of the sums
    s(Q^k), deg Q <= cap // 2, k >= 2, k deg Q <= cap, under P -> the
    primes of P + 1.

    Proof, by descending degree over the primes M of such an A: s(M^e)
    is 1 mod M, so M divides s(Q^k) for a Q^k exactly dividing A, Q !=
    M, with 2 deg Q^k <= deg A (search_fixed_points).  If k >= 2, M is
    a seed prime.  If k = 1 the sum is Q + 1: for Q = x or x+1, M is the
    other; else x(x+1) divides Q + 1, so deg Q > deg M, Q is in C by the
    descent, and M is a prime of Q + 1.
    """
    small = _irreducible_masks(cap // 2)
    rows = dict(zip(small, _prime_power_rows(small, cap, 1, unitary)))
    work = [2, 3]  # x and x+1
    for row in rows.values():
        for _, _, sig in row[1:]:
            work += [q for q, _ in _factor_bits(_unspread(sig))]
    closure = set()
    while work:
        p = work.pop()
        if p not in closure:
            closure.add(p)
            work += [q for q, _ in _factor_bits(p ^ 1)]
    rest = [p for p in closure if p not in rows]
    rows.update(zip(rest, _prime_power_rows(rest, cap, 1, unitary)))
    return {p: rows[p] for p in sorted(closure)}


def _search_rows(cap, unitary):
    """The live primes of _seed_closure, ascending, and their live rows
    of _prime_power_rows at step 1, each with req, dx and dx1 appended,
    all read off the one factoring of the sum s_k the row carries for
    the walk.  s_k has degree k deg P <= cap, so the row's reduction to
    degree cap leaves it whole.  req is the index mask of the primes of
    s_k.  dx is the exponent of x in P^k less that in s_k, and dx1
    likewise for x+1: summed down a walk they are the exponent of x (or
    x+1) in A less that in its divisor sum.

    Liveness is a fixpoint (Lemma 1).  A fixed point A is the product
    of the s(Q^k) over the Q^k exactly dividing A, and s(P^k) is 1 mod
    P, so each prime of A divides the sum of a row of another prime of
    A, and each row of A requires primes of A only.  So a row requiring
    a dead prime dies, and so does a prime with no live row or, past x
    and x+1, none requiring it.  x and x+1 stay at indexes 0 and 1, as
    _closed_hits needs: s(x) = x+1 and s(x+1) = x.  A prime may lose
    its row P and keep P^2, so the walk reads weights off degrees.
    """
    rows = _seed_closure(cap, unitary)
    for p, row in rows.items():
        for k, (e, pw, sig) in enumerate(row, 1):
            qs = []
            # x and x+1 are the masks 2 and 3.
            dx, dx1 = (k, 0) if p == 2 else (0, k) if p == 3 else (0, 0)
            for q, m in _factor_bits(_unspread(sig)):
                qs.append(q)
                dx -= m * (q == 2)
                dx1 -= m * (q == 3)
            row[k - 1] = e, pw, sig, qs, dx, dx1
    live, left = None, set(rows)
    while left != live:
        live = left
        rows = {p: [r for r in rows[p] if live.issuperset(r[3])]
                for p in live}
        needed = {q for row in rows.values() for r in row for q in r[3]}
        left = {p for p in live if rows[p] and (p < 4 or p in needed)}
    primes = sorted(live)
    index = {p: i for i, p in enumerate(primes)}
    return primes, [[(e, pw, sig, sum(1 << index[q] for q in qs), dx, dx1)
                     for e, pw, sig, qs, dx, dx1 in rows[p]] for p in primes]


def _closed_hits(primes, rows, max_deg) -> "list[int]":
    """The fixed points among the products of the rows' prime powers of
    degree <= max_deg that the four rules below leave, and their
    conjugates, as masks.  rows[i] lists the powers of primes[i].

    A node carries A and its divisor sum acc as lane values, the index
    mask have of the primes taken and the mask need of the primes that a
    taken P^k's divisor sum requires and A lacks.  Each product is one
    integer multiply masked by keep; only the hits are read back.

    Closure rule: the divisor sum is multiplicative, so that of a taken
    P^k divides that of A, which is A at a fixed point, and each
    irreducible that it requires (req) divides A.  Primes are taken in
    ascending index order, so a prime the walk skipped is absent below
    that node.  So a row whose divisor sum requires a skipped prime is
    dropped with its subtree, a sibling loop stops at the lowest prime
    still needed, a product is not extended once its largest needed
    prime no longer fits in the degree left, and A is compared with acc
    only once no prime is needed.

    Bucket rule: each row of P_i goes in the bucket of the highest prime
    P_j, j < i, that its divisor sum requires, or in bucket -1 if it
    requires none below P_i: a node that skipped P_j can take no row of
    bucket j.  So a node scans bucket -1 and the buckets its taken
    primes opened, each from index first on, and still drops a row that
    requires a skipped prime below P_j.  The buckets are built once per
    call from the rows, ordered by prime index and then exponent, so a
    scan stops at the first prime that is out of weight or past the
    lowest one needed.

    Conjugate rule: x -> x+1 is a ring automorphism of F2[x] that keeps
    degrees and irreducibility, so sigma(A(x+1)) = sigma(A)(x+1),
    likewise for sigma_star, and it maps fixed points to fixed points,
    swapping the exponents a of x and b of x+1 in A.  x and x+1 are P_0
    and P_1.  The rows of (x+1)^b sit in a bucket of their own for each
    a >= b, which only x^a opens, so the walk takes only the products
    with b <= a (with x skipped, x+1 is skipped too).  A hit with b < a
    adds its conjugate A(x+1), which the walk does not take; one with
    b = a has a conjugate with b = a, which the walk takes itself.

    Valuation rule: a fixed point has as much x and x+1 as its divisor
    sum.  A node carries the slacks sx and sx1, the sums of its rows' dx
    and dx1: the exponent of x in A less that in acc, and likewise for
    x+1.  Below a row of index nxt - 1 every row has a higher index, so
    A gains no more x once nxt >= 1 and no more x+1 once nxt >= 2,
    while acc gains every factor of the rows below.  So a row that
    leaves a slack negative heads a subtree with no fixed point, and the
    walk drops it unmultiplied: on sx always, since every row's nxt is
    at least 1, and on sx1 when nxt > 1.
    """
    n = len(rows)
    keep = _spread((1 << (max_deg + 1)) - 1)
    # upto[r]: the count of primes of degree <= r, which fit in room r,
    # read off the masks: deg P, not the degree of P's first row, which
    # need not be P.  P_j fits in room r exactly when j < upto[r].
    upto = [bisect_right(primes, (2 << r) - 1) for r in range(max_deg + 1)]
    opens = [[] for _ in rows]  # the buckets a row of P_i opens, set below

    def entry(i, row, opened):
        # The child's first, e, P^k, s_k, req below and above P_i, the
        # mask that clears P_i, opened, dx, dx1.
        e, pw, sig, req, dx, dx1 = row
        bit = 1 << i
        return (i + 1, e, pw, sig, req & bit - 1, req >> i << i, ~bit,
                opened, dx, dx1)

    def indexed(bucket):  # a bucket with its prime indexes, for bisect
        return [nxt - 1 for nxt, *_ in bucket], bucket

    buckets = [[] for _ in range(n + 1)]  # bucket j at j, bucket -1 last
    for i in range(2, n):
        for row in rows[i]:
            low = row[3] & (1 << i) - 1
            buckets[low.bit_length() - 1].append(entry(i, row, opens[i]))
    for j in range(n):
        if buckets[j]:
            opens[j].append(indexed(buckets[j]))
    if rows:  # x^a opens the bucket of the (x+1)^b with b <= a
        x1 = [entry(1, row, opens[1]) for row in rows[1]]
        buckets[-1][:0] = [
            entry(0, row, [indexed([t for t in x1 if t[1] <= row[0]])]
                  + opens[0]) for row in rows[0]]
    hits: "list[int]" = []

    def walk(first, room, a, acc, have, need, sx, sx1, scan):
        top = upto[room]
        if need:  # skipping the lowest needed prime leaves A unclosable
            top = min(top, (need & -need).bit_length())
        skipped = ~have
        for index, bucket in scan:
            for (nxt, e, pw, sig, low, high, clear, opened, dx,
                 dx1) in islice(bucket, bisect_left(index, first), None):
                if nxt > top:
                    break
                if e > room or low & skipped:
                    continue  # too heavy, or requires a prime the walk skipped
                sx2 = sx + dx
                sx12 = sx1 + dx1
                if sx2 < 0 or sx12 < 0 and nxt > 1:
                    continue  # acc has more x, or more x+1, than A can get
                need2 = (need | high) & clear
                rest = room - e
                if need2:
                    if need2.bit_length() <= upto[rest]:
                        walk(nxt, rest, a * pw & keep, acc * sig & keep,
                             have | ~clear, need2, sx2, sx12, scan + opened)
                    continue
                a2 = a * pw & keep
                acc2 = acc * sig & keep
                if acc2 == a2:
                    hits.append(a2)
                if nxt < upto[rest]:
                    walk(nxt, rest, a2, acc2, have | ~clear, 0, sx2, sx12,
                         scan + opened)

    walk(0, max_deg, 1, 1, 0, 0, 0, 0, [indexed(buckets[-1])])
    masks = [_unspread(x) for x in hits]
    # The lowest bit of A(x+1) is the power of x+1 in A.
    pairs = [(m, _compose_bits(m, 3)) for m in masks]
    return masks + [c for m, c in pairs if c & -c != m & -m]


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
    <= max_deg // 2, over the live primes of _search_rows (Lemmas 1 and
    2).  It walks only those that can still be closed, by the closure,
    bucket, conjugate and valuation rules that _closed_hits states, and
    adds the conjugate of a hit the walk does not take.  Every hit and
    each added conjugate is re-verified through factor() and the literal
    divisor sum, but a missed fixed point would be caught only by the
    table oracle (degree <= 20) and the pinned listings: the listing
    rests on the exponent bound and the two lemmas.  max_deg must be an
    int and unitary a bool.
    """
    if type(max_deg) is not int:
        raise ValueError("max_deg must be an int")
    _check_unitary(unitary)
    if not 1 <= max_deg <= EXHAUSTIVE_MAX_DEG:
        raise ResourceLimitError(
            f"exhaustive search degree must be 1..{EXHAUSTIVE_MAX_DEG}"
        )
    masks = sorted(_closed_hits(*_search_rows(max_deg // 2, unitary),
                                max_deg))
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
    get the full comparison.  Counters and the sample_rejected smallest
    filter-rejected candidates are recorded for conservativeness checks;
    max_deg must be an int, unitary a bool and sample_rejected an int >= 0.

    The sample is read off the candidate set, not out of the walk: the
    candidates are the squares of the S with S(0) = 1, an odd number of
    terms and 2 <= deg S <= max_deg // 2, and squaring keeps the order
    of masks.  So the sample is the first sample_rejected of those
    squares, S ascending, that the walk did not compare whole.

    With unitary=True the hits are always empty: no odd A != 1 is
    unitary-perfect.  Each P^e exactly dividing A has P(1) = 1, so x+1
    divides 1 + P^e = sigma_star(P^e) and hence sigma_star(A), while x+1
    does not divide A.
    """
    if type(max_deg) is not int:
        raise ValueError("max_deg must be an int")
    if not 2 <= max_deg <= ODD_SCAN_MAX_DEG:
        raise ResourceLimitError(
            f"odd-square scan degree must be 2..{ODD_SCAN_MAX_DEG}"
        )
    _check_unitary(unitary)
    if type(sample_rejected) is not int or sample_rejected < 0:
        raise ValueError("sample_rejected must be an int >= 0")
    rej, checked, hits = _walk(max_deg, unitary)
    skip = set(checked)
    squares = (_sqr_bits(s) for s in range(7, 2 << max_deg // 2, 2)
               if s.bit_count() & 1)
    sample = islice((a for a in squares if a not in skip), sample_rejected)
    return ScanReport(
        max_deg=max_deg,
        unitary=unitary,
        candidates=rej + len(checked),
        filter_rejected=rej,
        full_checked=len(checked),
        hits=[_result(m, unitary) for m in sorted(hits)],
        rejected_sample=[Poly(m) for m in sample],
    )
