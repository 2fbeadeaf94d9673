"""Tests for fixed-point (perfect polynomial) search and odd-case scans."""

import json
import os
import random
from collections.abc import Mapping

import pytest

import gf2mf.perfect as perfect
from gf2mf.divisors import ResourceLimitError, divisors, unitary_divisors
from gf2mf.factorize import (
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
    _divsum_table,
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


class TestFactorSieve:
    """The sieve tables against factor() and the multfun route."""

    DEG = 14

    def sample(self, n, seed):
        return random.Random(seed).sample(range(2, 1 << (self.DEG + 1)), n)

    def test_smallest_factor_times_cofactor(self):
        spf, cof = _factor_sieve(self.DEG)
        assert (spf[1], cof[1]) == (1, 1)
        for m in self.sample(500, 1):
            assert _mul_bits(spf[m], cof[m]) == m
            assert spf[m] == factor(Poly(m)).factors[0][0].bits

    def test_irreducibles_match_the_frobenius_test(self):
        for d in range(1, 11):
            expected = tuple(m for m in range(2, 1 << (d + 1))
                             if _is_irreducible_bits(m))
            assert _irreducible_masks(d) == expected

    @pytest.mark.parametrize("unitary, f", [(False, sigma), (True, sigma_star)],
                             ids=["sigma", "sigma_star"])
    def test_divisor_sum_table_matches_multfun(self, unitary, f):
        # The table and f share one prime-power rule, so the literal XOR
        # over the (unitary) divisor list is the independent check.
        table = _divsum_table(self.DEG, unitary)
        listed = unitary_divisors if unitary else divisors
        assert table[1] == 1
        for m in self.sample(500, 2):
            assert table[m] == f(Poly(m)).bits
            literal = 0
            for d in listed(factor(Poly(m))):
                literal ^= d.bits
            assert table[m] == literal


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

    def test_jobs_do_not_change_results(self):
        assert search_fixed_points(10, jobs=3) == search_fixed_points(10)
        assert (search_fixed_points(8, unitary=True, jobs=4)
                == search_fixed_points(8, unitary=True))

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

    def test_odd_only_delegates_to_scan(self):
        assert search_fixed_points(20, odd_only=True) == []

    def test_degree_bound_enforced(self):
        with pytest.raises(ResourceLimitError):
            search_fixed_points(21)

    def test_result_guard_rejects_non_perfect(self):
        with pytest.raises(RuntimeError):
            _result(Poly("x^2").bits, False)


class TestOddScan:
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

    def test_jobs_do_not_change_report(self):
        serial = odd_square_scan(24, sample_rejected=3)
        threaded = odd_square_scan(24, sample_rejected=3, jobs=3)
        assert serial == threaded
        assert serial.candidates == 2047

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
        assert odd_square_scan(max_deg, unitary, jobs=3,
                               sample_rejected=everything) == expected
        few = odd_square_scan(max_deg, unitary, sample_rejected=7)
        assert few.rejected_sample == expected.rejected_sample[:7]

    def test_walked_divisor_sum_multiplies_the_whole_factorization(
            self, monkeypatch):
        # No S^2 is a hit at these degrees, so the report alone would not
        # notice a wrong divisor-sum product.  With id's prime-power rule
        # P^r in place of sigma's, that product must be S^2 itself, which
        # makes every candidate a hit.
        monkeypatch.setattr(perfect, "_sigma_bits",
                            lambda p, r: (Poly(p) ** r).bits)
        monkeypatch.setattr(perfect, "_result", lambda m, unitary: m)
        report = odd_square_scan(24, jobs=3)
        assert report.filter_rejected == 0
        assert report.full_checked == report.candidates == 2047
        assert report.hits == [a.bits for a in self.squares(24)]

    def test_unitary_scan_is_empty_too(self):
        assert odd_square_scan(20, unitary=True).hits == []

    def test_degree_bound_enforced(self):
        with pytest.raises(ResourceLimitError):
            odd_square_scan(41)


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
