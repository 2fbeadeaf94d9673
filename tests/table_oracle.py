"""A table oracle for the fixed-point walks of gf2mf.perfect, mask by
mask.

divisor_sums(n) holds sigma and sigma_star of every mask of degree
<= n, built by multiplicativity: s(m) = s(m / P^e) s(P^e), with P the
smallest prime of m, by mask, and P^e its power that exactly divides m.
The primes come off a linear sieve of its own, which writes each
composite once, from its smallest prime and the cofactor, and s(P^e) is
1 + P + ... + P^e, or 1 + P^e, by a plain loop of carryless products.
So it reads none of the walks' rules, rows or tables, and does not
factor through the package: it shares only gf2poly._mul_bits with it.

checks(n) pairs search_fixed_points(D) with the table's fixed points at
every D <= n, for both kinds, and the hits of odd_square_scan(D) with
the table's odd fixed points, those with no factor x or x+1, at every
even D <= n.  The table has no odd fixed point of either kind to degree
20, so there the second pairing compares empty lists: it checks only
that the scan reports no hit, not the scan's candidates, and says
nothing of squares.  mutants/oracle.py prints how many odd fixed points
it compared.  The tier-1 suite runs n = 16; mutants/oracle.py runs
n = 20.
"""

from array import array

from gf2mf.gf2poly import _mul_bits
from gf2mf.perfect import odd_square_scan, search_fixed_points


def prime_power_sums(p, e):
    """(sigma(P^e), sigma_star(P^e)) on masks, for e >= 1."""
    pw = s = 1
    for _ in range(e):
        pw = _mul_bits(pw, p)
        s ^= pw
    return s, pw ^ 1


def divisor_sums(n):
    """(sigma, sigma_star) as arrays indexed by mask, over every mask of
    degree <= n; entry 0 is unused."""
    size = 1 << (n + 1)
    spf = array("I", bytes(4 * size))  # the smallest prime P of m
    rest = array("I", bytes(4 * size))  # m / P^e
    exps = array("B", bytes(size))  # e
    sums = array("I", bytes(4 * size)), array("I", bytes(4 * size))
    for s in sums:
        s[1] = 1
    primes = []
    powers = {}  # (P, e) -> prime_power_sums(P, e)
    for m in range(2, size):
        if not spf[m]:
            spf[m], rest[m], exps[m] = m, 1, 1
            primes.append(m)
        p, r, e = spf[m], rest[m], exps[m]
        pe = powers.get((p, e))
        if pe is None:
            pe = powers[p, e] = prime_power_sums(p, e)
        for s, v in zip(sums, pe):
            s[m] = _mul_bits(s[r], v)
        # Linear sieve: m times each prime Q <= P that fits in the
        # degree, whose smallest prime is then Q.
        room = n + 1 - m.bit_length()
        for q in primes:
            if q > p or q.bit_length() - 1 > room:
                break
            t = _mul_bits(q, m)
            spf[t] = q
            rest[t], exps[t] = (r, e + 1) if q == p else (m, 1)
    return sums


def checks(n):
    """Yield (name, walked masks, table masks), which must be equal, for
    each listing of both kinds at each degree D <= n."""
    for unitary, s in enumerate(divisor_sums(n)):
        kind = "sigma_star" if unitary else "sigma"
        fixed = [m for m in range(2, len(s)) if s[m] == m]
        for d in range(1, n + 1):
            table = [m for m in fixed if m.bit_length() <= d + 1]
            walked = search_fixed_points(d, bool(unitary))
            yield (f"search {kind} D={d}",
                   [r.polynomial.bits for r in walked], table)
            if d % 2 == 0:
                odd = [m for m in table if m & 1 and m.bit_count() & 1]
                walked = odd_square_scan(d, bool(unitary)).hits
                yield (f"odd {kind} D={d}",
                       [r.polynomial.bits for r in walked], odd)
