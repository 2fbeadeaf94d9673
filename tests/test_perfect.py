"""Tests for fixed-point (perfect polynomial) search and odd-case scans."""

import dataclasses
import hashlib
import json
import os
import random
from collections.abc import Mapping

import pytest

import gf2mf.multfun as multfun
import gf2mf.perfect as perfect
from gf2mf.divisors import ResourceLimitError
from gf2mf.factorize import (
    _TABLE_MAX_DEG,
    _factor_sieve,
    _irreducible_masks,
    _is_irreducible_bits,
    factor,
)
from gf2mf.gf2poly import ONE, Poly, ZERO, _mul_bits, conjugate
from gf2mf.multfun import sigma, sigma_star
from gf2mf.perfect import (
    _LOW_MASK,
    ScanReport,
    classify,
    odd_perfect_filter,
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
    """id's prime-power rule P^r as the walk's affine pair (s_0, c)."""
    return 1, 0


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


ODD_PRIMES = [Poly("x^2+x+1"), Poly("x^3+x+1"), Poly("x^3+x^2+1"),
              Poly("x^4+x+1"), Poly("x^4+x^3+1")]


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
    """The sieve's prime flags against a plain Gray-code sieve, factor(),
    the Frobenius test and Gauss's count."""

    def test_flags_equal_the_plain_sieve(self):
        for d in range(0, 17):
            assert _factor_sieve(d) == gray_code_sieve(d), d

    def test_flags_match_the_frobenius_test(self):
        # Every bound, since the degrees 1-3 and masks 1-3 are set apart
        # from the sieving.
        expected = bytes(_is_irreducible_bits(m) if m > 1 else 0
                         for m in range(1 << 14))
        for d in range(0, 14):
            flags = _factor_sieve(d)
            assert len(flags) == 1 << (d + 1)
            assert flags == expected[:1 << (d + 1)], d

    @pytest.mark.parametrize("max_deg", [18, 20])
    def test_counts_per_degree_are_gauss_counts(self, max_deg):
        flags = _factor_sieve(max_deg)
        for d in range(1, max_deg + 1):
            gauss = sum(mobius(e) * 2 ** (d // e)
                        for e in range(1, d + 1) if d % e == 0) // d
            assert sum(flags[1 << d:2 << d]) == gauss, d

    def test_flags_match_factor(self):
        deg = 18
        flags = _factor_sieve(deg)
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

    def test_walk_visits_each_half_degree_smooth_mask_once(self, monkeypatch):
        # With id's rule, the affine pair (s_0, c) = (1, 0), in place of
        # sigma's, the walked divisor sum is A itself, so every product
        # the walk compares is a hit.  The prune still reads sigma's
        # primes, so the hits are exactly the closed masks: each prime
        # power has degree <= 6 and each irreducible of its multfun
        # sigma divides the mask, each mask once.
        monkeypatch.setattr(perfect, "_divsum_affine", id_affine)
        monkeypatch.setattr(perfect, "_result", lambda m, unitary: m)
        expected = closed_masks(12, sigma)
        assert search_fixed_points(12) == expected
        # Any other constant term reaches the hits.
        monkeypatch.setattr(perfect, "_divsum_affine", lambda *args: (1, 1))
        assert search_fixed_points(12) != expected

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
            search_fixed_points(25)

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

    @pytest.mark.parametrize("max_deg", [20, 24])
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
        few = odd_square_scan(max_deg, unitary, sample_rejected=7)
        assert few.rejected_sample == expected.rejected_sample[:7]

    def test_walked_divisor_sum_multiplies_the_whole_factorization(
            self, monkeypatch):
        # No S^2 is a hit at these degrees, so the report alone would not
        # notice a wrong divisor-sum product.  With id's rule, the affine
        # pair (1, 0), in place of sigma's, that product must be S^2
        # itself, which makes every candidate a hit.
        monkeypatch.setattr(perfect, "_divsum_affine", id_affine)
        monkeypatch.setattr(perfect, "_result", lambda m, unitary: m)
        report = odd_square_scan(24)
        assert report.filter_rejected == 0
        assert report.full_checked == report.candidates == 2047
        assert report.hits == [a.bits for a in self.squares(24)]
        monkeypatch.setattr(perfect, "_divsum_affine", lambda *args: (1, 1))
        assert odd_square_scan(24).hits != report.hits

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

    def test_scan_leaves_no_irreducible_table_cached(self):
        # The scan reads its degree-18 primes off a sieve of its own; the
        # shared cache is untouched and refuses bounds above 16.
        before = _irreducible_masks.cache_info()
        odd_square_scan(36)
        after = _irreducible_masks.cache_info()
        assert after.hits + after.misses == before.hits + before.misses
        assert after.maxsize == _TABLE_MAX_DEG == 16
        with pytest.raises(ValueError, match="bounded at degree 16"):
            _irreducible_masks(_TABLE_MAX_DEG + 1)

    def test_unitary_scan_is_empty_too(self):
        assert odd_square_scan(20, unitary=True).hits == []

    def test_no_odd_polynomial_is_unitary_perfect(self):
        # x+1 divides sigma_star(A) but not A, for every A != 1 with
        # A(0) = A(1) = 1 (the odd_square_scan docstring).  By brute force
        # to degree 12, and through the scan to degree 28.
        odd = [m for m in range(3, 1 << 13) if m & 1 and m.bit_count() & 1]
        assert len(odd) == 2047
        assert not any(verify_perfect(Poly(m), unitary=True) for m in odd)
        for max_deg in range(2, 29):
            assert odd_square_scan(max_deg, unitary=True).hits == []

    def test_degree_bound_enforced(self):
        with pytest.raises(ResourceLimitError):
            odd_square_scan(41)


class TestWalkCost:
    """Two carryless products per walked product; the odd scan pays two
    more per further exponent, the exhaustive search a table of them."""

    @staticmethod
    def count_products(monkeypatch):
        # Counts the walk's products and any the rules would make in multfun.
        calls = [0]

        def counted(a, b):
            calls[0] += 1
            return _mul_bits(a, b)

        monkeypatch.setattr(perfect, "_mul_bits", counted)
        monkeypatch.setattr(multfun, "_mul_bits", counted)
        monkeypatch.setattr(perfect, "_result", lambda m, unitary: m)
        return calls

    @staticmethod
    def budget(walked):
        # A product whose last (largest) prime has exponent k >= 2 also
        # paid for P^(k*step) and its divisor sum from those at k - 1.
        extra = sum(1 for m in walked if list(factor(Poly(m)))[-1][1] >= 2)
        return 2 * len(walked) + 2 * extra

    def test_odd_scan(self, monkeypatch):
        calls = self.count_products(monkeypatch)
        report = odd_square_scan(24)
        roots = [s for s in range(2, 1 << 13)
                 if not any(p in (X, X1) for p, _ in factor(Poly(s)))]
        assert report.candidates == len(roots) == 2047
        assert 0 < calls[0] <= self.budget(roots)

    @pytest.mark.parametrize("unitary", [False, True])
    def test_exhaustive_search(self, monkeypatch, unitary):
        calls = self.count_products(monkeypatch)
        search_fixed_points(12, unitary)
        spent = calls[0]  # multfun products below are the test's own
        # The search pays two products per mask it enters: the closed
        # ones, and the open ones whose missing primes all lie above
        # their largest prime and still fit in the degree.
        masks = list(smooth_masks(12, sigma_star if unitary else sigma))
        entered = [m for m, pairs, missing in masks
                   if all(q.bits > pairs[-1][0].bits
                          and q.degree <= 12 - Poly(m).degree
                          for q in missing)]
        # Its table of P^k, their divisor sums and the sums' primes costs
        # 2 products per k >= 2 and k - 1 more in multfun._divsum_bits.
        table = sum(2 * (top - 1) + top * (top - 1) // 2
                    for top in (6 // (p.bit_length() - 1)
                                for p in _irreducible_masks(6)))
        assert 0 < spent <= 2 * len(entered) + table
        # The unpruned walk over every smooth mask paid more than twice
        # as much.
        assert spent < self.budget([m for m, _, _ in masks]) / 2


class TestOddFilter:
    def test_small_special_square_fails_omega(self):
        report = odd_perfect_filter(Poly("x^2+x+1") ** 2)
        assert report.conditions == {
            "is_square": True,
            "omega_ge_5": False,
            "big_omega_ge_12": False,
            "degree_gt_200": False,
            "special_omega_ge_10": False,
        }
        assert not report.viable

    def test_odd_cube_fails_square(self):
        report = odd_perfect_filter(Poly("x^2+x+1") ** 3)
        assert report.conditions["is_square"] is False
        assert not report.viable

    def test_five_prime_special_fails_depth_conditions(self):
        a = ONE
        for p in ODD_PRIMES:
            a = a * p**2
        report = odd_perfect_filter(a)
        assert report.conditions["is_square"] is True
        assert report.conditions["omega_ge_5"] is True
        assert report.conditions["big_omega_ge_12"] is False  # Omega = 10
        assert report.conditions["degree_gt_200"] is False
        assert report.special and not report.conditions["special_omega_ge_10"]
        assert not report.viable

    def test_deep_non_special_square_passes_every_condition(self):
        a = ODD_PRIMES[0] ** 102
        for p in ODD_PRIMES[1:]:
            a = a * p**2
        report = odd_perfect_filter(a)
        assert report.degree == 232
        assert not report.special
        assert all(report.conditions.values())
        assert report.viable

    def test_even_input_rejected(self):
        with pytest.raises(ValueError):
            odd_perfect_filter(B)
        with pytest.raises(ValueError):
            odd_perfect_filter(X)
