"""Tests for irreducibility, factorization, and form recognition."""

import hashlib
import random
from itertools import combinations

import pytest

from gf2mf.factorize import (
    Factorization,
    MersenneForm,
    _derivative_bits,
    _factor_bits,
    _factor_squarefree,
    _irreducible_masks,
    _is_irreducible_bits,
    _split_equal_degree,
    factor,
    irreducibles_up_to,
    is_irreducible,
    mersenne_form,
    parity,
)
from gf2mf.gf2poly import (
    ONE,
    Poly,
    X,
    X1,
    ZERO,
    _divmod_bits,
    _gcd_bits,
    _mul_bits,
    conjugate,
)


def _int_mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _necklace_count(d: int) -> int:
    # Count of monic irreducibles of degree d over a 2-element field,
    # computed from plain integers only.
    total = sum(_int_mobius(d // e) * (1 << e) for e in range(1, d + 1) if d % e == 0)
    return total // d


class TestIrreducibleTable:
    def test_degree_one(self):
        assert irreducibles_up_to(1) == [X, X1]

    def test_degree_two(self):
        assert irreducibles_up_to(2) == [X, X1, Poly("x^2+x+1")]

    def test_stated_counts(self):
        per_degree = []
        seen = 0
        for d in range(1, 8):
            total = len(irreducibles_up_to(d))
            per_degree.append(total - seen)
            seen = total
        assert per_degree == [2, 1, 2, 3, 6, 9, 18]

    def test_counts_match_necklace_formula(self):
        seen = 0
        for d in range(1, 13):
            total = len(irreducibles_up_to(d))
            assert total - seen == _necklace_count(d)
            seen = total

    def test_ascending_order(self):
        table = irreducibles_up_to(6)
        bits = [p.bits for p in table]
        assert bits == sorted(bits)

    def test_bounds(self):
        with pytest.raises(ValueError):
            irreducibles_up_to(0)
        with pytest.raises(ValueError):
            irreducibles_up_to(17)

    # Unrefused, True read as 1 and listed the two degree-1 primes.
    @pytest.mark.parametrize("d", [True, False, 2.0, "2", None],
                             ids=["true", "false", "float", "str", "none"])
    def test_a_bool_or_non_int_bound_is_refused(self, d):
        with pytest.raises(ValueError, match="degree bound must be a "
                                             "positive integer"):
            irreducibles_up_to(d)


class TestIsIrreducible:
    def test_examples(self):
        assert is_irreducible(Poly("x^2+x+1"))
        assert not is_irreducible(Poly("x^2+1"))
        assert is_irreducible(Poly("x^4+x^3+x^2+x+1"))

    def test_constants_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(ZERO)
        with pytest.raises(ValueError):
            is_irreducible(ONE)

    def test_mask_test_refuses_constants(self):
        # Mask 1 first: without the guard, mask 0 never returns, since
        # x mod 0 cannot be reduced.
        assert _is_irreducible_bits(1) is False
        assert _is_irreducible_bits(0) is False

    def test_agrees_with_table_membership(self):
        table = {p.bits for p in irreducibles_up_to(10)}
        for m in range(2, 1 << 11):
            assert _is_irreducible_bits(m) == (m in table)

    def test_agrees_with_factor_shape(self):
        for m in range(2, 1 << 9):
            a = Poly(m)
            single = factor(a).factors == ((a, 1),)
            assert is_irreducible(a) == single

    def test_conjugate_preserves_irreducibility(self):
        for p in irreducibles_up_to(9):
            assert is_irreducible(conjugate(p))


class TestFactor:
    def test_examples(self):
        assert factor(Poly("x^2+x")).factors == ((X, 1), (X1, 1))
        assert factor(Poly("x^4+x^2+1")).factors == ((Poly("x^2+x+1"), 2),)
        assert factor(ONE).factors == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(ZERO)

    def test_render(self):
        a = X * X1**2 * Poly("x^2+x+1")
        assert str(factor(a)) == "(x)^1 * (x+1)^2 * (x^2+x+1)^1"
        assert str(factor(ONE)) == "1"

    def test_product_method(self):
        a = Poly(0b110110)
        assert factor(a).product() == a

    def test_equality_and_hash(self):
        a, b = Poly(0b1100), Poly(0b1100)
        assert factor(a) == factor(b)
        assert hash(factor(a)) == hash(factor(b))

    def test_random_round_trip(self):
        rng = random.Random(0xFAC7)
        table = {p.bits for p in irreducibles_up_to(16)}
        for _ in range(10_000):
            bits = rng.randrange(1, 1 << 41)
            fact = factor(Poly(bits))
            assert fact.product().bits == bits
            masks = [p.bits for p, _ in fact]
            assert masks == sorted(masks)
            assert len(set(masks)) == len(masks)
            for p, e in fact:
                assert e >= 1
                deg = p.bits.bit_length() - 1
                if deg <= 16:
                    assert p.bits in table
                else:
                    assert _is_irreducible_bits(p.bits)

    def test_large_degree_paths(self):
        # Exercise the Frobenius splitting paths on degree-25 primes.
        big = [m for m in range(1 << 25, (1 << 25) + 600) if _is_irreducible_bits(m)]
        p, q = Poly(big[0]), Poly(big[1])
        assert factor(p * q).factors == ((p, 1), (q, 1))
        assert factor(p * p).factors == ((p, 2),)
        assert factor(p * p * q).factors == ((p, 2), (q, 1))
        small = irreducibles_up_to(13)[-1]
        assert factor(small * q).factors == ((small, 1), (q, 1))

    def test_squares_factor_through_their_root(self):
        rng = random.Random(0x5A5A)
        for deg in range(1, 31):
            s = Poly((1 << deg) | rng.getrandbits(deg))
            square = s * s
            doubled = tuple((p, 2 * e) for p, e in factor(s))
            assert factor(square).factors == doubled, s
            assert factor(square).product() == square

    def test_splitting_agrees_with_trial_division(self):
        # Reference: divide out the irreducibles of degree <= 6; what is
        # left of a squarefree mask of degree <= 13 is 1 or one prime.
        primes = _irreducible_masks(6)
        checked = 0
        for s in range(2, 1 << 14):
            if _gcd_bits(s, _derivative_bits(s)) != 1:
                continue  # not squarefree
            expected = []
            f = s
            for p in primes:
                q, r = _divmod_bits(f, p)
                if not r:
                    expected.append(p)
                    f = q
            if f != 1:
                expected.append(f)
            assert sorted(_factor_squarefree(s)) == expected, s
            checked += 1
        assert checked == 8192

    def test_factor_reads_no_table(self, fresh_python):
        out = fresh_python(
            "from gf2mf.factorize import _irreducible_masks, factor\n"
            "from gf2mf.gf2poly import Poly\n"
            "for m in range(1, 1 << 12):\n"
            "    factor(Poly(m))\n"
            "print(_irreducible_masks.cache_info().currsize)")
        assert out == "0\n"

    def test_equal_degree_split_is_exhaustive(self):
        # The deterministic trace sweep splits every pair of distinct
        # irreducibles of one degree, and the product of all of them.
        table = _irreducible_masks(9)
        for d in range(1, 10):
            primes = [p for p in table if p.bit_length() - 1 == d]
            if d <= 8:
                for p, q in combinations(primes, 2):
                    assert sorted(_split_equal_degree(_mul_bits(p, q), d)) == [p, q]
            product = 1
            for p in primes:
                product = _mul_bits(product, p)
            assert sorted(_split_equal_degree(product, d)) == primes

    # sha256 of the "mask:factors" lines of _PINNED_INPUTS, computed before
    # the splitter became deterministic; every factorization must keep it.
    PINNED_DIGEST = (
        "02422e18f016bb64c83a06c5d6c081fdcd344363cc222bf605f967e0dfd9359f")

    @staticmethod
    def _pinned_inputs() -> "list[int]":
        """Seeded masks of degree 1..128, and products of irreducibles of
        equal degree (<= 12, and 20) with repeats, alone and mixed."""
        rng = random.Random(0xF4C7)
        masks = [(1 << d) | rng.getrandbits(d)
                 for d in range(1, 129) for _ in range(16)]
        small = _irreducible_masks(12)
        big = [m for m in range(1 << 20, (1 << 20) + 2000)
               if _is_irreducible_bits(m)]
        for pool in (small, big):
            by_deg: "dict[int, list[int]]" = {}
            for p in pool:
                by_deg.setdefault(p.bit_length() - 1, []).append(p)
            for ps in by_deg.values():
                for _ in range(8):
                    a = 1
                    for p in rng.sample(ps, min(len(ps), rng.randint(1, 4))):
                        for _ in range(rng.randint(1, 3)):
                            a = _mul_bits(a, p)
                    masks.append(a)
        for _ in range(64):
            a = 1
            for p in rng.sample(small, 3) + rng.sample(big, 2):
                for _ in range(rng.randint(1, 4)):
                    a = _mul_bits(a, p)
            masks.append(a)
        return masks

    def test_factorizations_are_pinned(self):
        masks = self._pinned_inputs()
        assert len(masks) == 2216
        text = "\n".join(f"{m:x}:{_factor_bits(m)}" for m in masks)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_DIGEST


class TestMersenneForm:
    def test_examples(self):
        assert mersenne_form(Poly("x^2+x+1")) == MersenneForm(1, 1)
        assert mersenne_form(Poly("x^3+x+1")) == MersenneForm(1, 2)
        assert mersenne_form(Poly("x^4+x^2+1")) is None

    def test_non_mersenne_irreducible(self):
        assert is_irreducible(Poly("x^4+x+1"))
        assert mersenne_form(Poly("x^4+x+1")) is None

    def test_reconstruction(self):
        form = mersenne_form(Poly("x^3+x^2+1"))
        assert form == MersenneForm(2, 1)
        assert form.polynomial() == Poly("x^3+x^2+1")

    def test_matches_definition_exhaustively(self):
        for m in range(2, 1 << 9):
            p = Poly(m)
            form = mersenne_form(p)
            by_definition = None
            if is_irreducible(p) and p != X and p != X1:
                fact = factor(p + ONE)
                primes = {f.bits for f, _ in fact}
                if primes == {X.bits, X1.bits}:
                    exps = {f.bits: e for f, e in fact}
                    by_definition = MersenneForm(exps[X.bits], exps[X1.bits])
            assert form == by_definition


class TestParity:
    def test_examples(self):
        assert parity(Poly("x^2+x")) == "even"
        assert parity(Poly("x^2+x+1")) == "odd"
        assert parity(Poly("x^3+x^2")) == "even"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            parity(ZERO)

    def test_matches_linear_factor_definition(self):
        for m in range(1, 1 << 11):
            a = Poly(m)
            has_linear = a % X == ZERO or a % X1 == ZERO
            assert parity(a) == ("even" if has_linear else "odd")
