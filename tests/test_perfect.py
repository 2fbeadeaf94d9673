"""Tests for fixed-point (perfect polynomial) search and odd-case scans."""

import dataclasses
import hashlib
import heapq
import json
import os
import random
from bisect import bisect_right
from collections.abc import Mapping
from functools import reduce
from itertools import compress, count
from operator import xor

import pytest

import gf2mf.factorize as factorize
import gf2mf.multfun as multfun
import gf2mf.perfect as perfect
import table_oracle
from gf2mf.divisors import ResourceLimitError, divisors, unitary_divisors
from gf2mf.factorize import (
    _TABLE_MAX_DEG,
    _irreducible_counts,
    _irreducible_masks,
    _is_irreducible_bits,
    _prime_flags,
    factor,
    irreducibles_up_to,
    is_irreducible,
)
from gf2mf.gf2poly import (ONE, Poly, ZERO, _mul_bits, _spread,
                           _unspread, conjugate)
from gf2mf.multfun import sigma, sigma_star
from gf2mf.perfect import (
    _LOW_MASK,
    ScanReport,
    classify,
    odd_square_scan,
    search_fixed_points,
    trivial_form,
    verify_perfect,
    _result,
)

X = Poly("x")
X1 = Poly("x+1")
B = X * X1  # x^2+x, the smallest perfect polynomial

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "reference.json")


def id_affine(p, p_step, step, unitary):
    """id's prime-power rule P^r as the walk's affine pair (s_1, c)."""
    return p_step, 0


def smooth_masks(max_deg, f):
    """(mask, factorization, missing) for each mask below 2^(max_deg+1)
    whose prime powers P^e all have degree <= max_deg // 2; missing lists
    the irreducibles of the multfun f(P^e) that do not divide the mask,
    by factor()."""
    for m in range(2, 1 << (max_deg + 1)):
        pairs = list(factor(Poly(m)))
        if all(e * p.degree <= max_deg // 2 for p, e in pairs):
            primes = {p for p, _ in pairs}
            missing = {q for p, e in pairs for q, _ in factor(f(p**e))
                       if q not in primes}
            yield m, pairs, missing


def closed_masks(max_deg, f):
    """The masks a fixed point of f of degree <= max_deg can be."""
    return [m for m, _, missing in smooth_masks(max_deg, f) if not missing]


def lean(m, pairs, f):
    """True when f(A), for A = m with the factorization pairs, has no
    more x than A and, unless A is a power of x, no more x+1: the
    products that the valuation prune lets the search enter."""
    a = dict(pairs)
    s = dict(factor(f(Poly(m))))
    return (s.get(X, 0) <= a.get(X, 0)
            and (pairs[-1][0] == X or s.get(X1, 0) <= a.get(X1, 0)))


def closed_walk(rows, max_deg):
    """perfect._closed_hits as it was before the buckets and the conjugate
    rule: each node scans every row of every prime from first on, drops
    the rows that require a skipped prime, and walks x+1 above x and
    without it too.  Reads perfect._spread and _unspread at call time."""
    weights = [row[0][0] for row in rows]
    keep = perfect._spread((1 << (max_deg + 1)) - 1)
    n = len(rows)
    hits = []

    def walk(first, room, a, acc, have, need):
        stop = (need & -need).bit_length() if need else n
        for i in range(first, stop):
            if weights[i] > room:
                break
            bit = 1 << i
            below = bit - 1
            have2 = have | bit
            after = weights[i + 1] if i + 1 < n else room + 1
            for row in rows[i]:
                e, pw, sig, req = row[:4]
                if e > room:
                    break
                if req & below & ~have:
                    continue
                need2 = (need | req) & ~have2
                rest = room - e
                if need2:
                    if weights[need2.bit_length() - 1] <= rest:
                        walk(i + 1, rest, a * pw & keep, acc * sig & keep,
                             have2, need2)
                    continue
                a2 = a * pw & keep
                acc2 = acc * sig & keep
                if acc2 == a2:
                    hits.append(a2)
                if after <= rest:
                    walk(i + 1, rest, a2, acc2, have2, 0)

    walk(0, max_deg, 1, 1, 0, 0)
    return [perfect._unspread(x) for x in hits]


def reference_rows(cap, unitary):
    """perfect._search_rows as it was before the seed closure and the
    live-prime fixpoint: (primes, rows) over every irreducible of degree
    <= cap, x and x+1 first, each P^k's req, dx and dx1 read off
    factor() of its divisor sum.  Reads perfect._prime_power_rows at
    call time."""
    primes = [p.bits for p in irreducibles_up_to(cap)] if cap else []
    index = {p: i for i, p in enumerate(primes)}
    rows = perfect._prime_power_rows(primes, cap, 1, unitary)
    for p, row in zip(primes, rows):
        for k, (e, pw, sig) in enumerate(row, 1):
            pairs = {q.bits: m for q, m in factor(Poly(_unspread(sig)))}
            row[k - 1] = (e, pw, sig, sum(1 << index[q] for q in pairs),
                          k * (p == 2) - pairs.get(2, 0),
                          k * (p == 3) - pairs.get(3, 0))
    return primes, rows


class TestVerifyPerfect:
    def test_known_perfect(self):
        assert verify_perfect(B)
        assert verify_perfect(Poly("x^5+x^2"))  # x^2 (x+1)(x^2+x+1)
        assert verify_perfect(B**3)

    def test_known_non_perfect(self):
        assert not verify_perfect(Poly("x^2+x+1"))
        assert not verify_perfect(X)

    def test_unit_is_degenerate_fixed_point(self):
        assert verify_perfect(ONE)
        assert verify_perfect(ONE, unitary=True)

    def test_unitary_variant(self):
        assert verify_perfect(B, unitary=True)
        assert verify_perfect(B**2, unitary=True)
        assert not verify_perfect(B**2)
        assert not verify_perfect(B**3, unitary=True)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_perfect(ZERO)


class TestTrivialForm:
    def test_family_members(self):
        assert trivial_form(B) == 1
        assert trivial_form(B**3) == 2
        assert trivial_form(B**7) == 3

    def test_non_members(self):
        assert trivial_form(B**2) is None
        assert trivial_form(Poly("x^2+x+1")) is None
        assert trivial_form(X) is None

    def test_parsed_form(self):
        assert trivial_form(Poly("x^6+x^5+x^4+x^3")) == 2


class TestClassify:
    def test_classes(self):
        assert classify(B) == "trivial"
        assert classify(Poly("x^5+x^2")) == "even-nontrivial"
        assert classify(Poly("x^2+x+1") ** 2) == "odd"


def gray_code_sieve(max_deg):
    """Prime flags of every mask of degree <= max_deg, the plain way:
    clear the even masks above x, then every multiple p * q of each
    irreducible p of degree <= max_deg // 2, cofactors q in Gray-code
    order."""
    limit = 1 << (max_deg + 1)
    flags = bytearray(b"\1") * limit
    flags[0] = flags[1] = 0
    flags[4::2] = bytes(len(range(4, limit, 2)))
    for p in range(3, 1 << (max_deg // 2 + 1), 2):
        if not flags[p]:
            continue
        prod = p
        for i in range(2, limit >> (p.bit_length() - 1)):
            prod ^= p * (i & -i)  # q = i ^ (i >> 1) flips bit i & -i
            flags[prod] = 0
    return flags


def table_flags(max_deg):
    """Prime flags of every mask of degree <= max_deg, read off the
    package's sieve: x and x+1, and the odd primes it flags."""
    flags = _prime_flags(max_deg)
    for m in (2, 3):
        if m < len(flags):
            flags[m] = 1
    return flags


def scan_primes(max_deg):
    """Every odd irreducible of degree <= max_deg // 2, off the cached
    list: the primes the scan walks, which it lists only to degree
    max_deg // 4."""
    return list(_irreducible_masks(max_deg // 2)[2:])


def flat_tail_walk(primes, max_deg, unitary, sample_rejected):
    """perfect._walk as it was before the tail solve: the same head loop,
    and a tail checked one candidate per prime in a flat loop.  Reads
    perfect._LOW_MASK, _divsum_affine and the lane helpers at call time."""
    spread, unspread = perfect._spread, perfect._unspread
    lanes = list(map(spread, primes))
    weights = [(lp.bit_length() - 1) >> 2 for lp in lanes]  # 2 deg P
    keep = spread((1 << (max_deg + 1)) - 1)
    low = spread(perfect._LOW_MASK)
    n = len(lanes)
    hits = []
    heap = []  # negated: a max-heap of the smallest
    full = 0
    cut = keep + 1 if sample_rejected else 0

    def sample(a2):
        nonlocal cut
        if len(heap) < sample_rejected:
            heapq.heappush(heap, -a2)
        else:
            heapq.heapreplace(heap, -a2)
        if len(heap) == sample_rejected:
            cut = -heap[0]

    def walk(first, room, a, acc):
        nonlocal full
        rej = 0
        mid = bisect_right(weights, room >> 1, first)
        end = bisect_right(weights, room, mid)
        for i in range(first, mid):
            w = weights[i]
            lp = lanes[i]
            base = lp * lp & keep
            sig, c = perfect._divsum_affine(lp, base, 2, unitary)
            top = room // w
            pw = base
            for k in range(1, top + 1):
                a2 = a * pw & keep
                acc2 = acc * sig & keep
                if (acc2 ^ a2) & low:
                    rej += 1
                    if a2 < cut:
                        sample(a2)
                else:
                    full += 1
                    if acc2 == a2:
                        hits.append(a2)
                rest = room - k * w
                if i + 1 < n and weights[i + 1] <= rest:
                    rej += walk(i + 1, rest, a2, acc2)
                pw = pw * base & keep
                sig = sig * base & keep ^ c
        for lp in lanes[mid:end]:
            base = lp * lp & keep
            s1, _ = perfect._divsum_affine(lp, base, 2, unitary)
            a2 = a * base & keep
            acc2 = acc * s1 & keep
            if (acc2 ^ a2) & low:
                rej += 1
                if a2 < cut:
                    sample(a2)
            else:
                full += 1
                if acc2 == a2:
                    hits.append(a2)
        return rej

    rej = walk(0, max_deg, 1, 1)
    return rej, full, [unspread(x) for x in hits], [unspread(-x) for x in heap]


def mobius(n):
    """The integer Mobius function."""
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


class TestFactorSieve:
    """The package's one sieve, _prime_flags, against a plain Gray-code
    sieve, factor(), the Frobenius test and Gauss's count."""

    def test_flags_equal_the_plain_sieve(self):
        for d in range(0, 17):
            assert table_flags(d) == gray_code_sieve(d), d

    def test_flags_match_the_frobenius_test(self):
        # Every bound, since the degrees 1-3 and masks 1-3 are set apart
        # from the sieving.
        expected = bytes(_is_irreducible_bits(m) if m > 1 else 0
                         for m in range(1 << 14))
        for d in range(0, 14):
            assert len(_prime_flags(d)) == 1 << (d + 1)
            assert table_flags(d) == expected[:1 << (d + 1)], d

    @pytest.mark.parametrize("max_deg", [18, 20])
    def test_counts_per_degree_are_gauss_counts(self, max_deg):
        # By Mobius inversion, and by the recurrence the odd scan reads.
        flags = table_flags(max_deg)
        degrees = [m.bit_length() - 1 for m in compress(count(), flags)]
        counts = _irreducible_counts(max_deg)
        assert len(counts) == max_deg + 1 and counts[0] == 0
        for d in range(1, max_deg + 1):
            gauss = sum(mobius(e) * 2 ** (d // e)
                        for e in range(1, d + 1) if d % e == 0) // d
            assert degrees.count(d) == gauss == counts[d], d

    def test_flags_match_factor(self):
        deg = 18
        flags = table_flags(deg)
        for m in random.Random(1).sample(range(2, 1 << (deg + 1)), 500):
            prime = [e for _, e in factor(Poly(m))] == [1]
            assert flags[m] == prime, m

    def test_irreducibles_match_the_frobenius_test(self):
        for d in range(1, 11):
            expected = tuple(m for m in range(2, 1 << (d + 1))
                             if _is_irreducible_bits(m))
            assert _irreducible_masks(d) == expected


class TestSearch:
    def test_exhaustive_degree_6(self):
        lines = [r.line() for r in search_fixed_points(6)]
        assert lines == [
            "PERFECT deg=2 x^2+x class=trivial",
            "PERFECT deg=5 x^5+x^2 class=even-nontrivial",
            "PERFECT deg=5 x^5+x^4+x^2+x class=even-nontrivial",
            "PERFECT deg=6 x^6+x^5+x^4+x^3 class=trivial",
        ]

    def test_exhaustive_degree_11(self):
        results = search_fixed_points(11)
        assert len(results) == 8
        masks = {r.polynomial.bits for r in results}
        for r in results:
            assert verify_perfect(r.polynomial)
            assert r.degree == r.polynomial.degree <= 11
            assert r.kind == "sigma-perfect"
            assert r.classification == classify(r.polynomial)
            assert conjugate(r.polynomial).bits in masks
        keys = [(r.degree, r.polynomial.bits) for r in results]
        assert keys == sorted(keys)

    def test_unitary_degree_8(self):
        lines = [r.line() for r in search_fixed_points(8, unitary=True)]
        assert lines == [
            "UNITARY-PERFECT deg=2 x^2+x class=trivial",
            "UNITARY-PERFECT deg=4 x^4+x^2 class=even-nontrivial",
            "UNITARY-PERFECT deg=7 x^7+x^5+x^4+x^2 class=even-nontrivial",
            "UNITARY-PERFECT deg=7 x^7+x^6+x^4+x^3 class=even-nontrivial",
            "UNITARY-PERFECT deg=8 x^8+x^4 class=even-nontrivial",
        ]
        for r in search_fixed_points(8, unitary=True):
            assert verify_perfect(r.polynomial, unitary=True)

    def test_searches_take_no_jobs(self):
        # Both searches are serial; a jobs keyword is an error, not ignored.
        with pytest.raises(TypeError):
            search_fixed_points(10, jobs=3)
        with pytest.raises(TypeError):
            odd_square_scan(24, jobs=3)

    @pytest.mark.parametrize("max_deg", [10, 12])
    @pytest.mark.parametrize("unitary, f", [(False, sigma), (True, sigma_star)],
                             ids=["sigma", "sigma_star"])
    def test_walk_matches_a_plain_loop_over_every_mask(self, max_deg,
                                                       unitary, f):
        # The divisor sums are multfun's, and every mask is tried.
        expected = [m for m in range(2, 1 << (max_deg + 1))
                    if f(Poly(m)).bits == m]
        hits = search_fixed_points(max_deg, unitary)
        assert [r.polynomial.bits for r in hits] == expected

    def test_walks_equal_the_table_oracle_to_degree_16(self):
        # Every mask of degree <= 16, its divisor sums built by
        # multiplicativity off a sieve of the test's own; the table
        # itself is held to the literal divisor XOR up to degree 9.
        sums = table_oracle.divisor_sums(9)
        for m in range(1, 1 << 10):
            fact = factor(Poly(m))
            for s, ds in zip(sums, (divisors(fact), unitary_divisors(fact))):
                assert s[m] == reduce(xor, (d.bits for d in ds)), m
        for name, walked, table in table_oracle.checks(16):
            assert walked == table, name

    def test_walk_visits_each_half_degree_smooth_mask_once(self, monkeypatch):
        # Each row's sum set to its power P^k, id's value, once the prune
        # data are read off sigma's: the walked divisor sum is A itself,
        # so every product the walk compares is a hit.  The prunes still
        # read sigma's factors, so the hits are exactly the closed masks
        # whose sigma has no more x and no more x+1 than they have: each
        # prime power has degree <= 6 and each irreducible of its multfun
        # sigma divides the mask, each mask once.  The rows are every
        # prime's (reference_rows), not only the live ones: most closed
        # masks are no fixed point, and their primes need not be live.
        def resummed(sum_of):
            def rows(cap, unitary):
                primes, rows = reference_rows(cap, unitary)
                return primes, [[(e, pw, sum_of(pw), *prune)
                                 for e, pw, _, *prune in row] for row in rows]
            return rows

        monkeypatch.setattr(perfect, "_search_rows", resummed(lambda pw: pw))
        monkeypatch.setattr(perfect, "_result", lambda m, unitary: m)
        expected = [m for m, pairs, missing in smooth_masks(12, sigma)
                    if not missing and lean(m, pairs, sigma)]
        assert 0 < len(expected) < len(closed_masks(12, sigma))
        assert search_fixed_points(12) == expected
        # Up to D = 12 the valuation prune alone drops every product
        # that lacks a needed prime, and each hit with as much x+1 as x
        # is its own conjugate; at D = 24 neither holds.  There each hit
        # is still closed and lean, and listed once.
        hits = search_fixed_points(24)
        assert len(set(hits)) == len(hits) > len(expected)
        for m in hits:
            pairs = list(factor(Poly(m)))
            primes = {p for p, _ in pairs}
            assert all(q in primes for p, e in pairs
                       for q, _ in factor(sigma(p**e))), m
            assert lean(m, pairs, sigma), m
        # Any other sum reaches the hits.
        monkeypatch.setattr(perfect, "_search_rows", resummed(lambda pw: 1))
        assert search_fixed_points(12) != expected

    @pytest.mark.parametrize("unitary", [False, True])
    def test_walk_equals_the_unbucketed_walk(self, unitary):
        # The same fixed points, each once: the walked ones and their
        # conjugates over every prime's rows, against every closable
        # product in index order, and against the walk over the live
        # rows alone.
        for max_deg in range(1, 25):
            primes, rows = reference_rows(max_deg // 2, unitary)
            got = sorted(perfect._closed_hits(primes, rows, max_deg))
            assert got == sorted(closed_walk(rows, max_deg)), max_deg
            live = perfect._search_rows(max_deg // 2, unitary)
            assert sorted(perfect._closed_hits(*live, max_deg)) == got, (
                max_deg)

    def test_walk_reads_a_prime_weight_off_its_degree(self):
        # The fixpoint may drop a live prime's row P and keep its P^2.
        # Here x^2+x+1, its own conjugate, loses its row P, so the walk
        # lists exactly the fixed points in which its exponent is not 1.
        # A walk that took P^2's degree for the prime's weight would
        # misorder the weights, and at sigma's D = 15 skip x^3+x+1.
        p = Poly("x^2+x+1")
        for unitary in (False, True):
            for max_deg in range(4, 25):
                primes, rows = reference_rows(max_deg // 2, unitary)
                full = perfect._closed_hits(primes, rows, max_deg)
                assert primes[2] == p.bits
                del rows[2][0]
                expected = [m for m in full
                            if dict(factor(Poly(m))).get(p) != 1]
                got = perfect._closed_hits(primes, rows, max_deg)
                assert sorted(got) == sorted(expected), (unitary, max_deg)

    def test_rows_are_factored_through_factor_bits(self, monkeypatch):
        # The seed sums, the closure's P + 1 and every row's divisor sum
        # are factored by factor()'s cached route, and nothing else in
        # the search factors but the re-verification.
        factored = []

        def counted(bits, factor_bits=factorize._factor_bits):
            factored.append(bits)
            return factor_bits(bits)

        monkeypatch.setattr(perfect, "_factor_bits", counted)
        monkeypatch.setattr(perfect, "factor", None)
        for unitary in (False, True):
            closure = perfect._seed_closure(12, unitary)
            primes, rows = perfect._search_rows(12, unitary)
            assert sum(map(len, rows)) > len(rows) > 0
            sums = {_unspread(sig) for row in closure.values()
                    for _, _, sig in row}
            assert sums | {p ^ 1 for p in closure} <= set(factored)
            del factored[:]
        # A search factors only its hits, each in _result.
        monkeypatch.setattr(perfect, "_factor_bits", factorize._factor_bits)
        monkeypatch.setattr(factorize, "_factor_bits", counted)
        monkeypatch.setattr(perfect, "factor", factor)
        hits = search_fixed_points(12)
        assert set(factored) == {r.polynomial.bits for r in hits}
        del factored[:]
        _result(B.bits, True)
        assert factored == [B.bits]

    @pytest.mark.parametrize("max_deg", [12, 32])
    @pytest.mark.parametrize("unitary", [False, True],
                             ids=["sigma", "sigma_star"])
    def test_a_cold_search_builds_one_table(self, monkeypatch, max_deg,
                                            unitary):
        # The search lists its small primes off the cached irreducible
        # list, so with no list cached it sieves one flag table, of
        # degree max_deg // 4, and caches that list alone.
        tables = []

        def flags(deg, prime_flags=_prime_flags):
            tables.append(deg)
            return prime_flags(deg)

        monkeypatch.setattr(factorize, "_prime_flags", flags)
        _irreducible_masks.cache_clear()
        assert search_fixed_points(max_deg, unitary)
        assert tables == [max_deg // 4]
        assert _irreducible_masks.cache_info().currsize == 1

    def test_rows_list_the_cached_primes(self):
        # The primes the rows index are irreducibles of the cached list,
        # ascending, x and x+1 first, none at cap 0, and each prime's rows
        # are some of its powers P^k with k deg P <= cap, ascending.
        for cap in range(17):
            for unitary in (False, True):
                primes, rows = perfect._search_rows(cap, unitary)
                assert len(rows) == len(primes)
                assert primes == sorted(primes)
                assert set(primes) <= set(_irreducible_masks(cap)), cap
                assert primes[:2] == ([2, 3] if cap else [])
                for p, row in zip(primes, rows):
                    d = p.bit_length() - 1
                    ks = [e // d for e, *_ in row]
                    assert ks == sorted(set(ks)) and ks[-1] * d <= cap
                    assert [pw for _, pw, *_ in row] == [
                        _spread((Poly(p) ** k).bits) for k in ks]

    @pytest.mark.parametrize("unitary, f", [(False, sigma),
                                            (True, sigma_star)],
                             ids=["sigma", "sigma_star"])
    def test_prune_data_equal_factor_of_multfun_sums(self, unitary, f):
        # The prunes factor the sums the walk carries, so nothing at run
        # time checks them apart: here req is the index mask of the
        # primes of factor() of multfun's own f(P^k), and dx and dx1 are
        # the exponents of x and x+1 in P^k less those in f(P^k).
        for cap in range(17):
            primes, rows = perfect._search_rows(cap, unitary)
            index = {p: i for i, p in enumerate(primes)}
            for p, row in zip(primes, rows):
                for e, _, _, req, dx, dx1 in row:
                    k = e // (p.bit_length() - 1)
                    pairs = dict(factor(f.at_prime_power(Poly(p), k)))
                    assert req == sum(1 << index[q.bits] for q in pairs), (
                        cap, p, k)
                    assert dx == k * (p == 2) - pairs.get(X, 0), (cap, p, k)
                    assert dx1 == k * (p == 3) - pairs.get(X1, 0), (cap, p, k)

    # (step, cap, degree of the primes): the exhaustive search's rows,
    # and the odd scan's at D = 40, whose head primes have degree <= 10.
    @pytest.mark.parametrize("unitary, f, step, cap, deg", [
        (False, sigma, 1, 12, 12), (True, sigma_star, 1, 12, 12),
        (False, sigma, 2, 40, 10), (True, sigma_star, 2, 40, 10),
    ], ids=["sigma", "sigma_star", "sigma-step-2", "sigma_star-step-2"])
    def test_rows_hold_reduced_lane_values(self, unitary, f, step, cap, deg):
        # Unreduced lanes keep the right parity until one passes 255, so
        # the walk's hits alone would not notice a missing mask; (x+1)^12
        # has the coefficient C(12, 6) = 924, and (x^2+x+1)^20 one of
        # 8953.
        primes = _irreducible_masks(deg)
        rows = perfect._prime_power_rows(primes, cap, step, unitary)
        for p, row in zip(primes, rows):
            w = step * (p.bit_length() - 1)
            assert len(row) == cap // w
            for k, (e, pw, sig) in enumerate(row, 1):
                assert e == k * w
                assert pw == _spread((Poly(p) ** (k * step)).bits)
                assert sig == _spread(
                    f.at_prime_power(Poly(p), k * step).bits)

    # (max_deg, unitary): count and sha256 of the listing's lines, from
    # the walk over every product of prime powers of degree <= max_deg // 2.
    LISTINGS = {
        (20, False): (14, "e5d6a6aed8b6e3ea8babf844ffb68a5c"
                          "fffaa47badd4b5b628a3cf0b6299be5c"),
        (20, True): (20, "1f14f9bbb504d077182d373973b35930"
                         "c7a5c612df411559b75314d1e27fe212"),
        (21, False): (14, "e5d6a6aed8b6e3ea8babf844ffb68a5c"
                          "fffaa47badd4b5b628a3cf0b6299be5c"),
        (21, True): (20, "1f14f9bbb504d077182d373973b35930"
                         "c7a5c612df411559b75314d1e27fe212"),
        (22, False): (14, "e5d6a6aed8b6e3ea8babf844ffb68a5c"
                          "fffaa47badd4b5b628a3cf0b6299be5c"),
        (22, True): (22, "ed75a0c78e9a26296fa0d72219aa2e9f"
                         "a5938f19d0dc81c237cc89b351b2b40c"),
        # D = 25..28, from the walk that took every closable product,
        # before the conjugate rule and the buckets.  Sigma stays the
        # trivial family plus Canaday's 11 even nontrivial ones.
        (25, False): (14, "e5d6a6aed8b6e3ea8babf844ffb68a5c"
                          "fffaa47badd4b5b628a3cf0b6299be5c"),
        (25, True): (28, "8aa8698c5bcda141edf4326f085b81ab"
                         "2a4bd8cac272090c526609b3db45a1fd"),
        (26, False): (14, "e5d6a6aed8b6e3ea8babf844ffb68a5c"
                          "fffaa47badd4b5b628a3cf0b6299be5c"),
        (26, True): (31, "2e24f2b952232c4cab80af65d4582357"
                         "efe6fe30ecfb5f3993369e9e796401ad"),
        (27, False): (14, "e5d6a6aed8b6e3ea8babf844ffb68a5c"
                          "fffaa47badd4b5b628a3cf0b6299be5c"),
        (27, True): (31, "2e24f2b952232c4cab80af65d4582357"
                         "efe6fe30ecfb5f3993369e9e796401ad"),
        (28, False): (14, "e5d6a6aed8b6e3ea8babf844ffb68a5c"
                          "fffaa47badd4b5b628a3cf0b6299be5c"),
        (28, True): (35, "335e9b6b73d0f9601c8b47ba8a9a62a9"
                         "9f54b9b79cb845adf765889cccc35172"),
        # D = 29..32, from the bucketed walk before the valuation prune,
        # its cap lifted.  Sigma gains (x^2+x)^15 at degree 30.
        (29, False): (14, "e5d6a6aed8b6e3ea8babf844ffb68a5c"
                          "fffaa47badd4b5b628a3cf0b6299be5c"),
        (29, True): (41, "12641ff2eaaee6f230675385447740ff"
                         "b20c928c16832fab6a1830a2395284c7"),
        (30, False): (15, "c02ab2a63b348f38627bc651fe8bdbef"
                          "f57054450a92b2af2723419634ae3b88"),
        (30, True): (42, "8231772bbe6b9716796e064a328387e6"
                         "5940f4a116a575aa61eb30214ba0eff5"),
        (31, False): (15, "c02ab2a63b348f38627bc651fe8bdbef"
                          "f57054450a92b2af2723419634ae3b88"),
        (31, True): (42, "8231772bbe6b9716796e064a328387e6"
                         "5940f4a116a575aa61eb30214ba0eff5"),
        (32, False): (15, "c02ab2a63b348f38627bc651fe8bdbef"
                          "f57054450a92b2af2723419634ae3b88"),
        (32, True): (46, "7be14156ec98af662c1344dba18c5dee"
                         "5046b9b7af7e2485df6aeed11e3750af"),
    }

    @pytest.mark.parametrize("max_deg, unitary", sorted(LISTINGS))
    def test_listing_above_the_degree_19_reference(self, max_deg, unitary):
        lines = [r.line() for r in search_fixed_points(max_deg, unitary)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == self.LISTINGS[max_deg, unitary]

    def test_degree_19_adds_no_fixed_point(self):
        # No perfect polynomial has degree 17..19, so the listing is the
        # degree-18 reference one.
        with open(REFERENCE) as f:
            expected = json.load(f)["search_sigma_18"]
        assert [r.line() for r in search_fixed_points(19)] == expected

    def test_no_prime_power_memo_outlives_a_search(self):
        search_fixed_points(12)
        search_fixed_points(12, unitary=True)
        left = {name: len(value) for name, value in vars(perfect).items()
                if not name.startswith("__") and isinstance(value, Mapping)
                and value}
        assert left == {}

    def test_degree_bound_enforced(self):
        with pytest.raises(ResourceLimitError):
            search_fixed_points(33)

    @pytest.mark.parametrize("max_deg", [True, 12.0, "12", None])
    def test_degree_must_be_an_int(self, max_deg):
        with pytest.raises(ValueError, match="max_deg"):
            search_fixed_points(max_deg)

    def test_result_guard_rejects_non_perfect(self):
        with pytest.raises(RuntimeError):
            _result(Poly("x^2").bits, False)

    def test_result_guard_rejects_a_convolution_mismatch(self, monkeypatch):
        hit = Poly("x^2+x")  # sigma(x (x+1)) = (x+1) x
        assert _result(hit.bits, False).polynomial == hit
        monkeypatch.setattr(perfect, "convolve_bruteforce",
                            lambda f, g, a: a + ONE)
        with pytest.raises(RuntimeError, match="convolution"):
            _result(hit.bits, False)
        # The unitary search has no convolution check.
        assert _result(hit.bits, True).polynomial == hit


def primes_of(a):
    """The set of irreducible masks of a, by factor()."""
    return {p.bits for p, _ in factor(a)}


class TestSeedClosure:
    """The exhaustive search's seed closure and live-prime fixpoint
    (perfect._seed_closure and _search_rows), held to their defining
    properties at every D <= 32, for both kinds, with factor() and
    is_irreducible only.  The listings alone would miss a closure
    without its P -> P + 1 step, seeds from k >= 3 only, or small
    primes listed a degree short."""

    KINDS = pytest.mark.parametrize("unitary, f", [(False, sigma),
                                                   (True, sigma_star)],
                                    ids=["sigma", "sigma_star"])

    @KINDS
    def test_closure_holds_x_x1_and_every_seed_prime(self, unitary, f):
        # The seeds: the primes of f(Q^k) for every Q of degree <= D // 4
        # and k >= 2 with k deg Q <= D // 2, Q listed by is_irreducible.
        for max_deg in range(1, 33):
            cap = max_deg // 2
            closure = list(perfect._seed_closure(cap, unitary))
            assert closure == sorted(set(closure)), max_deg
            assert {2, 3} <= set(closure), max_deg
            small = [q for q in map(Poly, range(2, 2 << cap // 2))
                     if is_irreducible(q)]
            for q in small:
                for k in range(2, cap // q.degree + 1):
                    seeds = primes_of(f.at_prime_power(q, k))
                    assert seeds <= set(closure), (max_deg, q, k)

    @KINDS
    def test_closure_is_closed_under_p_plus_1(self, unitary, f):
        for max_deg in range(1, 33):
            cap = max_deg // 2
            closure = set(perfect._seed_closure(cap, unitary))
            for p in map(Poly, closure):
                assert is_irreducible(p) and p.degree <= max(cap, 1), p
                assert primes_of(p + ONE) <= closure, (max_deg, p)

    @KINDS
    def test_live_primes_and_rows_are_a_fixpoint(self, unitary, f):
        # Every live row's primes are live, every live prime past x and
        # x+1 is required by a live row of another prime, and a live
        # prime keeps each of its powers whose sum requires live primes
        # only.
        for max_deg in range(1, 33):
            cap = max_deg // 2
            primes, rows = perfect._search_rows(cap, unitary)
            live = set(primes)
            assert live <= set(perfect._seed_closure(cap, unitary))
            required = set()
            for p, row in zip(primes, rows):
                d = p.bit_length() - 1
                kept = {k: primes_of(f.at_prime_power(Poly(p), k))
                        for k in range(1, cap // d + 1)}
                kept = [k for k, qs in kept.items() if qs <= live]
                assert [e // d for e, *_ in row] == kept, (max_deg, p)
                for k in kept:
                    qs = primes_of(f.at_prime_power(Poly(p), k))
                    assert p not in qs
                    required |= qs
            assert live - {2, 3} <= required, max_deg

    @KINDS
    def test_oracle_fixed_points_are_live(self, unitary, f):
        # Each prime power P^e exactly dividing a fixed point of degree
        # <= D, off the table oracle to D = 16, is a live row.
        sums = table_oracle.divisor_sums(16)[unitary]
        fixed = [m for m in range(2, len(sums)) if sums[m] == m]
        assert len(fixed) == 12
        for max_deg in range(1, 17):
            primes, rows = perfect._search_rows(max_deg // 2, unitary)
            powers = {(p, e) for p, row in zip(primes, rows)
                      for e, *_ in row}
            for m in fixed:
                if m.bit_length() - 1 <= max_deg:
                    for p, e in factor(Poly(m)):
                        assert (p.bits, e * p.degree) in powers, (max_deg, m)


class TestOddScan:
    def test_report_replace_and_value_equality(self):
        report = ScanReport(max_deg=4, unitary=False, candidates=3)
        other = dataclasses.replace(report, candidates=4)
        assert other.candidates == 4 and report.candidates == 3
        assert dataclasses.replace(other, candidates=3) == report
        assert odd_square_scan(12) == odd_square_scan(12)

    def test_degree_20_all_filtered(self):
        report = odd_square_scan(20, sample_rejected=5)
        assert report.max_deg == 20
        assert report.unitary is False
        assert report.candidates == 511
        assert report.filter_rejected == 511
        assert report.full_checked == 0
        assert report.hits == []
        assert len(report.rejected_sample) == 5
        assert report.rejected_sample[0] == Poly("x^2+x+1") ** 2

    def test_rejected_samples_are_true_rejections(self):
        report = odd_square_scan(20, sample_rejected=5)
        bits = [a.bits for a in report.rejected_sample]
        assert bits == sorted(bits)
        for a in report.rejected_sample:
            assert sigma(a) != a

    def test_no_samples_by_default(self):
        assert odd_square_scan(20).rejected_sample == []

    def test_degree_24_counts(self):
        report = odd_square_scan(24, sample_rejected=3)
        assert report.candidates == 2047
        assert report.filter_rejected + report.full_checked == 2047
        assert len(report.rejected_sample) == 3
        assert odd_square_scan(24, sample_rejected=3) == report

    @staticmethod
    def squares(max_deg):
        """S^2 for every S > 1 with no linear factor, ascending, by factor()."""
        return [Poly(s) ** 2 for s in range(2, 1 << (max_deg // 2 + 1))
                if not any(p in (X, X1) for p, _ in factor(Poly(s)))]

    # At degrees 12 and 16 most nodes have tail primes only: primes that
    # admit P^2 and no child.
    @pytest.mark.parametrize("max_deg", [12, 16, 20, 24])
    @pytest.mark.parametrize("unitary, f", [(False, sigma), (True, sigma_star)],
                             ids=["sigma", "sigma_star"])
    def test_walk_matches_a_plain_loop_over_every_s(self, max_deg, unitary, f):
        # The divisor sum of each S^2 is multfun's, not the walk's.
        expected = ScanReport(max_deg=max_deg, unitary=unitary)
        for a in self.squares(max_deg):
            total = f(a)
            expected.candidates += 1
            if (total.bits ^ a.bits) & _LOW_MASK:
                expected.filter_rejected += 1
                expected.rejected_sample.append(a)
            else:
                expected.full_checked += 1
                if total == a:
                    expected.hits.append(_result(a.bits, unitary))
        everything = expected.filter_rejected
        assert odd_square_scan(max_deg, unitary,
                               sample_rejected=everything) == expected
        for size in (0, 1, 7):
            few = odd_square_scan(max_deg, unitary, sample_rejected=size)
            assert few.rejected_sample == expected.rejected_sample[:size]

    def test_walked_divisor_sum_multiplies_the_whole_factorization(
            self, monkeypatch):
        # No S^2 is a hit at these degrees, so the report alone would not
        # notice a wrong divisor-sum product.  With id's rule, the affine
        # pair (P^2, 0), in place of sigma's, that product must be S^2
        # itself, which makes every candidate a hit.
        monkeypatch.setattr(perfect, "_divsum_affine", id_affine)
        monkeypatch.setattr(perfect, "_result", lambda m, unitary: m)
        report = odd_square_scan(24)
        assert report.filter_rejected == 0
        assert report.full_checked == report.candidates == 2047
        assert report.hits == [a.bits for a in self.squares(24)]
        monkeypatch.setattr(perfect, "_divsum_affine", lambda *args: (1, 1))
        assert odd_square_scan(24).hits != report.hits

    def test_walk_reaches_the_top_power_exactly(self, monkeypatch):
        # With id's rule every head candidate is a hit; with no filter
        # solution every tail candidate is rejected.  The candidates over
        # x^2+x+1 alone are its even powers up to P^20, the trinomial
        # coefficients of whose carried powers pass 255 (8953 in P^20).
        candidates = odd_square_scan(40).candidates
        monkeypatch.setattr(perfect, "_divsum_affine", id_affine)
        monkeypatch.setattr(perfect, "_filter_solutions", lambda *args: [])
        p = Poly("x^2+x+1")
        rej, checked, hits = perfect._walk(40, False)
        assert rej + len(checked) == candidates
        assert hits == checked
        powers = {(p ** k).bits for k in range(1, 23)}
        assert [m for m in hits if m in powers] == [
            (p ** (2 * k)).bits for k in range(1, 11)]

    # sha256 of the reprs of odd_square_scan(D, unitary, sample_rejected=
    # 1000) for D = 2..28, one per line: the counts, the hits and the
    # rejected sample, from the scan whose walk yielded every candidate to
    # a separate tally loop.
    REPORTS = {
        False: ("0193997716b487174d02e822ddc84235"
                "ee7abbd1863f63e849a40d7fc112da1f"),
        True: ("ea0791d1a6f1d64d8c9dd0d456c4047d"
               "f600d2130037df7f8dd8ed7f2bbb136f"),
    }

    @pytest.mark.parametrize("unitary", [False, True])
    def test_reports_at_degrees_2_to_28_are_pinned(self, unitary):
        text = "\n".join(
            repr(odd_square_scan(d, unitary, sample_rejected=1000))
            for d in range(2, 29))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.REPORTS[unitary]

    # sha256 of repr(odd_square_scan(40, unitary, sample_rejected=1000)),
    # from the walk that checked each tail prime in a flat loop.  Degree
    # 40 has wide tails, and there the solve over every P passed up to
    # 2^5 of sigma_star's even coefficient vectors per node.
    REPORTS_40 = {
        False: ("8885efe00d387caafa9c69dda04b49d7"
                "5bab799dc99ecf6fd55d59e43d24f4fb"),
        True: ("d8467e36bec640518e55f67b68826639"
               "a9188665457ea03223f4bd3bae37a1fb"),
    }

    @pytest.mark.parametrize("unitary", [False, True])
    def test_report_at_degree_40_is_pinned(self, unitary):
        text = repr(odd_square_scan(40, unitary, sample_rejected=1000))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.REPORTS_40[unitary]

    # sha256 of repr(odd_square_scan(48, unitary, sample_rejected=1000)),
    # the cap, from the walk that solved each node's tail over every P on
    # masks.  There sigma's filter passes one candidate, which is no hit.
    REPORTS_48 = {
        False: ("3ceaccd568d2ef48ee64a526c6a996ef"
                "bb503d05634be851f9a42dadb5f0ba61"),
        True: ("967d1334277d3b8375d7f0a7a98a5897"
               "078613b67d34f2e0a3af12d1ae154430"),
    }

    @pytest.mark.parametrize("unitary", [False, True])
    def test_report_at_degree_48_is_pinned(self, unitary):
        text = repr(odd_square_scan(48, unitary, sample_rejected=1000))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.REPORTS_48[unitary]

    # sha256 of repr(odd_square_scan(36, unitary, sample_rejected=1000)),
    # the perfbench odd_scan workload, from the walk that listed every
    # prime of degree <= 18 off one sieve.
    REPORTS_36 = {
        False: ("8870261167b7ce22dc0e0b999e237357"
                "25edc7f7f6a636922c0bfe451bdecc80"),
        True: ("c0eb935a8b00072ac1a8d8cd0f716373"
               "bdd8158d18fc32069e02dbe5f398c1b2"),
    }

    @pytest.mark.parametrize("unitary", [False, True])
    def test_report_at_degree_36_is_pinned(self, unitary):
        text = repr(odd_square_scan(36, unitary, sample_rejected=1000))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.REPORTS_36[unitary]

    def test_reports_at_every_degree_and_sample_size_are_pinned(self):
        # sha256 of the reprs, joined with no separator, for D = 2..30, 36
        # and 40, each kind, sample sizes 0, 5 and 1000, in that order,
        # from the walk that listed every prime of degree <= D // 2.
        text = "".join(
            repr(odd_square_scan(d, unitary, sample_rejected=size))
            for d in [*range(2, 31), 36, 40]
            for unitary in (False, True) for size in (0, 5, 1000))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c58794628a03a8ba818754991078d002"
            "8c8172451b0b7fd63e9f4a41ec7cc06b")

    def test_scan_tests_only_the_solutions_above_its_list(self,
                                                          monkeypatch):
        # The scan lists its low primes off the cached irreducible list,
        # whose bound of degree 16 it stays under, and runs the
        # irreducibility test on a filter solution above them only.  To
        # degree 44 no solution reaches that test; at 48 sigma's one, of
        # degree 18, does, and is not a prime.
        tested = []

        def is_prime(p, test=_is_irreducible_bits):
            tested.append((p.bit_length() - 1, test(p)))
            return tested[-1][1]

        monkeypatch.setattr(perfect, "_is_irreducible_bits", is_prime)
        odd_square_scan(48)
        assert tested == [(18, False)]
        assert _irreducible_masks.cache_info().maxsize == _TABLE_MAX_DEG == 16
        with pytest.raises(ValueError, match="bounded at degree 16"):
            _irreducible_masks(_TABLE_MAX_DEG + 1)

    @pytest.mark.parametrize("size", [0, 1000])
    def test_scan_sieves_only_its_low_primes(self, monkeypatch, size):
        # At every degree the walk lists the primes of degree
        # <= max_deg // 4 off the cached list, its head primes, builds the
        # root's rows for every odd one of them and places the others by
        # their count per degree; the rejected sample is read off the
        # candidate set and lists no prime.
        asked, tables = [], []

        def listed(max_deg, masks=perfect._irreducible_masks):
            asked.append(max_deg)
            return masks(max_deg)

        def rows(primes, cap, step, unitary, table=perfect._prime_power_rows):
            tables.append((list(primes), cap))
            return table(primes, cap, step, unitary)

        monkeypatch.setattr(perfect, "_irreducible_masks", listed)
        monkeypatch.setattr(perfect, "_prime_power_rows", rows)
        for max_deg in range(2, 49, 2):
            del asked[:], tables[:]
            odd_square_scan(max_deg, sample_rejected=size)
            assert asked == [max_deg // 4], max_deg
            heads = list(_irreducible_masks(max_deg // 4)[2:])
            assert tables[0] == (heads, max_deg), max_deg

    def test_unitary_scan_is_empty_too(self):
        assert odd_square_scan(20, unitary=True).hits == []

    def test_odd_fixed_points_are_squares_and_never_unitary(self):
        # For every A != 1 with A(0) = A(1) = 1, by brute force to degree
        # 12.  x divides sigma(A) but not A when an exponent is odd, so
        # only squares are walked (the perfect module docstring).  x+1
        # divides sigma_star(A) but not A (the odd_square_scan
        # docstring); through the scan to degree 28.
        odd = [m for m in range(3, 1 << 13) if m & 1 and m.bit_count() & 1]
        assert len(odd) == 2047
        odd_exponent = [a for a in map(Poly, odd)
                        if any(e & 1 for _, e in factor(a))]
        assert len(odd_exponent) == 2016  # all but the 31 squares S*S
        assert not any(sigma(a).bits & 1 for a in odd_exponent)
        assert not any(verify_perfect(Poly(m), unitary=True) for m in odd)
        for max_deg in range(2, 29):
            assert odd_square_scan(max_deg, unitary=True).hits == []

    def test_degree_bound_enforced(self):
        with pytest.raises(ResourceLimitError):
            odd_square_scan(49)

    @pytest.mark.parametrize("max_deg", [True, 36.0, "36", None])
    def test_degree_must_be_an_int(self, max_deg):
        with pytest.raises(ValueError, match="max_deg"):
            odd_square_scan(max_deg)

    @pytest.mark.parametrize("size", [-1, 2.5, True])
    def test_sample_size_must_be_a_non_negative_int(self, size):
        with pytest.raises(ValueError, match="sample_rejected"):
            odd_square_scan(20, sample_rejected=size)


def walk_result(walked):
    rej, full, hits, sample = walked
    return rej, full, sorted(hits), sorted(sample)


def scan_result(report):
    """A ScanReport in walk_result's form."""
    return (report.filter_rejected, report.full_checked,
            [h.polynomial.bits for h in report.hits],
            [a.bits for a in report.rejected_sample])


class TestTailSolve:
    """The odd walk's tail, settled by one affine solve per node and
    placed by the count of primes per degree, against the flat loop over
    every listed tail prime and against brute force."""

    @pytest.mark.parametrize("size", [0, 7, 1000])
    @pytest.mark.parametrize("unitary", [False, True])
    def test_walk_equals_the_flat_tail_loop(self, unitary, size):
        for max_deg in range(2, 31):
            got = scan_result(odd_square_scan(max_deg, unitary, size))
            assert got == walk_result(flat_tail_walk(
                scan_primes(max_deg), max_deg, unitary, size)), max_deg

    @pytest.mark.parametrize("bits", [8, 12])
    @pytest.mark.parametrize("unitary", [False, True])
    def test_walk_equals_the_flat_tail_loop_on_a_narrow_filter(
            self, monkeypatch, unitary, bits):
        # At 32 bits no candidate passes the filter to degree 40; at 8 and
        # 12 bits some of sigma's do, and reach the full comparison.
        # sigma_star's never do: for A != 1 its divisor sum vanishes at 0,
        # so F(P) has constant term P(0) = 1, and the solve, over odd P
        # only, has no solution to test.  The irreducibility test settles
        # every solution in a node's range, listed or not.
        monkeypatch.setattr(perfect, "_LOW_MASK", (1 << bits) - 1)
        tested = []

        def is_prime(p, test=_is_irreducible_bits):
            tested.append(test(p))
            return tested[-1]

        monkeypatch.setattr(perfect, "_is_irreducible_bits", is_prime)
        full = 0
        for max_deg in range(2, 25):
            for size in (0, 7, 1000):
                n = len(tested)
                got = scan_result(odd_square_scan(max_deg, unitary, size))
                assert got == walk_result(flat_tail_walk(
                    scan_primes(max_deg), max_deg, unitary, size)), (
                        max_deg, size)
                full += got[1]
                if size:
                    del tested[n:]  # keep the tests made at size 0
        assert (full > 0) is not unitary
        if unitary:
            assert tested == []
        else:
            assert False in tested
        if bits == 8 and not unitary:
            assert True in tested  # at 8 bits some are sigma's tail primes

    @staticmethod
    def brute_force(a, total, h, unitary, mask):
        """Every odd P of degree <= h for which A * P^2 and total * s(P)
        agree under mask, s(P) the divisor sum of P^2 for a prime P."""
        found = []
        for m in range(1, 1 << (h + 1), 2):
            p = Poly(m)
            s = p * p + ONE if unitary else p * p + p + ONE
            if ((a * p * p).bits ^ (total * s).bits) & mask == 0:
                found.append(m)
        return found

    @pytest.mark.parametrize("bits", [8, 12, 32])
    @pytest.mark.parametrize("unitary, f", [(False, sigma), (True, sigma_star)],
                             ids=["sigma", "sigma_star"])
    def test_solutions_equal_brute_force(self, unitary, f, bits):
        h = 8
        mask = (1 << bits) - 1
        form = perfect._divsum_form(h, unitary)
        # The divisor sum of P^2 that brute_force takes is multfun's at
        # every prime P of degree <= h.
        for p in _irreducible_masks(h):
            p = Poly(p)
            s = p * p + ONE if unitary else p * p + p + ONE
            assert f.at_prime_power(p, 2) == s
        for a in [ONE] + TestOddScan.squares(16):
            total = f(a)
            got = perfect._filter_solutions(_spread(a.bits),
                                            _spread(total.bits), h, form,
                                            _spread(mask))
            assert sorted(got) == self.brute_force(a, total, h, unitary,
                                                   mask), a

    @staticmethod
    def planted(a, p):
        """acc = A P^2 / s(P) mod x^32, s(P) = P^2 + P + 1: the sigma
        solve at A and acc then has the odd P as its one solution."""
        s = (p * p + p + ONE).bits
        inv = 1  # s(0) = 1, so s is a unit mod x^32
        for i in range(1, _LOW_MASK.bit_length()):
            if _mul_bits(s, inv) >> i & 1:
                inv ^= 1 << i
        return Poly(_mul_bits((a * p * p).bits, inv) & _LOW_MASK)

    def test_solution_set_sizes(self):
        # sigma's map is injective: one solution at most.  sigma_star's
        # divisor sum vanishes at 0 when A != 1, so F(P)(0) = P(0) = 1 and
        # no odd P solves.  No sigma(A) itself has a solution here, so for
        # sigma each A also takes a planted acc for a few odd P.
        h = 20
        low = _spread(_LOW_MASK)
        rng = random.Random(20261019)
        ps = [0b111, 0b1011, (1 << h) | 1] + [
            rng.randrange(1 << h, 1 << h + 1) | 1 for _ in range(3)]
        checked = 0
        for unitary, f in ((False, sigma), (True, sigma_star)):
            form = perfect._divsum_form(h, unitary)
            for a in TestOddScan.squares(8):
                totals = [f(a)]
                if not unitary:
                    totals += [self.planted(a, Poly(p)) for p in ps]
                for n, total in enumerate(totals):
                    got = perfect._filter_solutions(
                        _spread(a.bits), _spread(total.bits), h, form, low)
                    if unitary:
                        assert got == []
                    elif n:
                        assert got == [ps[n - 1]]
                    else:
                        assert len(got) <= 1
                    for m in got:
                        p = Poly(m)
                        s = p * p + p + ONE
                        assert m & 1
                        assert ((a * p * p).bits
                                ^ (total * s).bits) & _LOW_MASK == 0
                        checked += 1
        assert checked >= 7 * len(ps)
        # At the root A = acc = 1 nothing passes but P = 1 for sigma,
        # which is not a prime.
        assert perfect._filter_solutions(1, 1, h, perfect._divsum_form(
            h, True), low) == []
        assert perfect._filter_solutions(1, 1, h, perfect._divsum_form(
            h, False), low) == [1]


class TestWalkCost:
    """Two carryless products per walked product, and a table of prime
    powers built once per call, at two products per further exponent
    and, for the odd scan, one square per head prime; the exhaustive
    search's prunes factor the table's own sums, at no product, and the
    odd scan settles its tail primes without a product."""

    @staticmethod
    def count_products(monkeypatch):
        # The walks multiply lane values, which all come from
        # perfect._spread: each product has a Lane operand, and Lane
        # results of *, & and ^ keep the count going down the walk.  A
        # lane straight from _spread times itself squares a prime.
        # multfun._mul_bits is counted apart, as "sums": a divisor sum
        # grown by multfun's own step, which neither walk makes.
        calls = {"walk": 0, "square": 0, "sums": 0}

        class Lane(int):
            spread = False  # made by perfect._spread, not by arithmetic

            def __mul__(self, other):
                square = self.spread and other is self
                calls["square" if square else "walk"] += 1
                return Lane(int.__mul__(self, other))

            def __and__(self, other):
                return Lane(int.__and__(self, other))

            def __xor__(self, other):
                return Lane(int.__xor__(self, other))

            __rmul__ = __mul__
            __rand__ = __and__
            __rxor__ = __xor__

        def counted(a, b):
            calls["sums"] += 1
            return _mul_bits(a, b)

        def spread(m, spread=perfect._spread):
            x = Lane(spread(m))
            x.spread = True
            return x

        monkeypatch.setattr(perfect, "_spread", spread)
        monkeypatch.setattr(multfun, "_mul_bits", counted)
        monkeypatch.setattr(perfect, "_result", lambda m, unitary: m)
        return calls

    @staticmethod
    def budget(walked):
        # A product whose last (largest) prime has exponent k >= 2 also
        # paid for P^(k*step) and its divisor sum from those at k - 1.
        extra = sum(1 for m in walked if list(factor(Poly(m)))[-1][1] >= 2)
        return 2 * len(walked) + 2 * extra

    # The rejected sample is read off the candidate set by mask
    # arithmetic, so it adds no lane product: a sample formed in the walk
    # made 1617 squares and 1892 products here at size 1000.
    @pytest.mark.parametrize("size", [0, 1000])
    def test_odd_scan(self, monkeypatch, size):
        calls = self.count_products(monkeypatch)
        solves = []  # (h, its lane products, its solutions) per solve
        converted = []  # the lane values read back into masks

        def solve(a, acc, h, form, mask, solve=perfect._filter_solutions):
            before = calls["walk"]
            got = solve(a, acc, h, form, mask)
            solves.append((h, calls["walk"] - before, got))
            return got

        def unspread(x, unspread=perfect._unspread):
            converted.append(x)
            return unspread(x)

        monkeypatch.setattr(perfect, "_filter_solutions", solve)
        monkeypatch.setattr(perfect, "_unspread", unspread)
        roots = [s for s in range(2, 1 << 13)
                 if not any(p in (X, X1) for p, _ in factor(Poly(s)))]
        # A head candidate's largest prime P^k was taken in a node's head
        # loop: deg P <= R // 4, with R = 24 - deg (S / P^k)^2 left.
        head = 0
        for s in roots:
            p, k = list(factor(Poly(s)))[-1]
            head += 4 * p.degree <= 24 - 2 * (Poly(s).degree - k * p.degree)
        # Each head prime, an odd prime of degree <= 6, is squared once per
        # scan, for its rows P^(2k) with 2k deg P <= 24; each further k
        # costs the rows two products, and each head candidate two more;
        # a walk that squares a prime on each visit makes 51 and 362.
        heads = [p for p in _irreducible_masks(6) if p > 3]
        rows = sum(2 * (24 // (2 * p.bit_length() - 2) - 1) for p in heads)
        for unitary in (False, True):
            calls.update(walk=0, square=0, sums=0)
            del solves[:], converted[:]
            report = odd_square_scan(24, unitary, sample_rejected=size)
            assert report.candidates == len(roots) == 2047
            assert report.full_checked == 0  # no tail prime passes
            assert calls["square"] == len(heads) == 21
            assert calls["sums"] == 0
            solved = sum(n for _, n, _ in solves)
            assert 0 < calls["walk"] - solved <= 2 * head + rows == 296
            # The tail candidates, 1931 of the 2047, are settled by one
            # solve per node, of one lane product per column x^i,
            # 1 <= i <= h, and one for the origin; a walk that makes each
            # of them pays at least two products per candidate.
            assert [n for _, n, _ in solves] == [h + 1 for h, _, _ in solves]
            assert len(solves) == 55 and solved == 380
            assert head == 116 and calls["walk"] < report.candidates / 2
            # Each solution is odd.  sigma_star's divisor sum vanishes at
            # 0 below the root, so no odd P solves; the solve over every P
            # enumerated 24 even ones here.
            assert all(p & 1 for _, _, got in solves for p in got)
            if unitary:
                assert [got for _, _, got in solves] == [[]] * 55
            # Only the checked candidates and the hits leave the lanes;
            # the walk that solved on masks converted each node's a and
            # acc, 110 calls here.
            assert len(converted) == (report.full_checked
                                      + len(report.hits)) == 0

    @pytest.mark.parametrize("unitary", [False, True])
    def test_exhaustive_search(self, monkeypatch, unitary):
        calls = self.count_products(monkeypatch)
        f = sigma_star if unitary else sigma
        # The walk without the valuation prune paid 549 (sigma) and 769
        # (sigma_star) at D = 12, 1467 and 2055 at D = 14; this one pays
        # 143 and 111, then 197 and 157.  At D = 12 the valuation prune
        # alone drops every product past the lowest prime still needed,
        # so D = 14 is what checks that the sibling loop stops there.
        for max_deg, before in (12, (549, 769)), (14, (1467, 2055)):
            calls.update(walk=0, square=0, sums=0)
            search_fixed_points(max_deg, unitary)
            spent = sum(calls.values())  # multfun's products are ours
            sums = calls["sums"]
            # The search pays two products per mask it enters: the
            # closed ones, and the open ones whose missing primes all lie
            # above their largest prime and still fit in the degree, each
            # with no more x+1 than x in it, and whose divisor sum has no
            # more x and, past the powers of x, no more x+1 than they
            # have.
            masks = list(smooth_masks(max_deg, f))
            entered = [m for m, pairs, missing in masks
                       if dict(pairs).get(X1, 0) <= dict(pairs).get(X, 0)
                       and all(q.bits > pairs[-1][0].bits
                               and q.degree <= max_deg - Poly(m).degree
                               for q in missing)
                       and lean(m, pairs, f)]
            # Its table of P^k and their divisor sums costs 2 products
            # per k >= 2.  The prunes factor the sums the table carries,
            # so multfun's step multiplies nothing.
            half = max_deg // 2
            tops = [half // (p.bit_length() - 1)
                    for p in _irreducible_masks(half)]
            assert sums == 0
            assert 0 < spent <= (2 * len(entered)
                                 + 2 * sum(top - 1 for top in tops))
            # The unpruned walk over every smooth mask paid more than
            # twice as much, and so did the walk without the valuation
            # prune.  The one before that, which also took x^a (x+1)^b
            # with b > a, paid 781 and 1129 at D = 12.  The hits'
            # conjugates are made off the lanes, by gf2poly's own
            # products.
            assert spent < self.budget([m for m, _, _ in masks]) / 2
            assert spent < before[unitary] / 2
