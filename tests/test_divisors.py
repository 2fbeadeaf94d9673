"""Tests for divisor-lattice queries."""

import random
from functools import reduce
from importlib import import_module
from math import prod
from operator import xor

import pytest

import gf2mf.gf2poly as gf2poly
from gf2mf.divisors import (
    DIVISOR_LIMIT,
    ResourceLimitError,
    big_omega,
    divisors,
    is_special,
    omega,
    radical,
    unitary_divisors,
)
from gf2mf.factorize import factor, irreducibles_up_to
from gf2mf.gf2poly import ONE, Poly, X, X1, ZERO, _mul_bits, gcd
from gf2mf.identities import _Lattice, check_corollaries
from gf2mf.multfun import convolve_bruteforce, sigma, z
from gf2mf.perfect import verify_perfect


class TestDivisors:
    def test_examples(self):
        assert set(divisors(factor(Poly("x^2+x")))) == {ONE, X, X1, Poly("x^2+x")}
        assert set(divisors(factor(Poly("x^2")))) == {ONE, X, Poly("x^2")}
        assert len(divisors(factor(Poly("x^3+x^2")))) == 6

    def test_one(self):
        assert divisors(factor(ONE)) == [ONE]

    def test_mixed_radix_order(self):
        # First listed factor is the fastest-changing digit.
        got = divisors(factor(Poly("x^3+x^2")))
        assert got == [ONE, X, Poly("x^2"), X1, Poly("x^2+x"), Poly("x^3+x^2")]

    def test_counts_and_divisibility(self):
        for m in range(1, 1 << 9):
            a = Poly(m)
            fact = factor(a)
            ds = divisors(fact)
            expected = 1
            for _, e in fact:
                expected *= e + 1
            assert len(ds) == expected
            assert len(set(ds)) == len(ds)
            assert all(a % d == ZERO for d in ds)

    def test_limit(self):
        # (x(x+1))^1024 has 1025^2 > 2^20 divisors.
        with pytest.raises(ResourceLimitError):
            divisors(factor(Poly("x^2+x") ** 1024))


class TestUnitaryDivisors:
    def test_examples(self):
        assert set(unitary_divisors(factor(Poly("x^3+x^2")))) == {
            ONE, Poly("x^2"), X1, Poly("x^3+x^2"),
        }
        assert set(unitary_divisors(factor(Poly("x^4")))) == {ONE, Poly("x^4")}

    def test_squarefree_equals_all_divisors(self):
        a = X * X1 * Poly("x^2+x+1")
        assert set(unitary_divisors(factor(a))) == set(divisors(factor(a)))

    def test_definition(self):
        for m in range(1, 1 << 9):
            a = Poly(m)
            fact = factor(a)
            unitary = unitary_divisors(fact)
            assert len(unitary) == 1 << omega(fact)
            all_divs = set(divisors(fact))
            assert set(unitary) <= all_divs
            for d in all_divs:
                assert (d in set(unitary)) == (
                    d == ONE or gcd(d, a // d) == ONE if d != ZERO else False
                )

    def test_limit(self):
        primes = irreducibles_up_to(10)[:21]
        a = ONE
        for p in primes:
            a = a * p
        with pytest.raises(ResourceLimitError):
            unitary_divisors(factor(a))


def counting_order(exps):
    """Exponent vectors of the lattice, the first factor the fastest digit."""
    out = []
    for n in range(prod(e + 1 for e in exps)):
        t = []
        for e in exps:
            n, digit = divmod(n, e + 1)
            t.append(digit)
        out.append(tuple(t))
    return out


class TestWalkerOrder:
    """divisors, unitary_divisors and the identity lattice share one order."""

    def masks(self):
        rng = random.Random(3)
        return [rng.randrange(1, 1 << 15) for _ in range(300)]  # degree <= 14

    def test_lattice_walks_the_divisors_in_counting_order(self):
        for m in self.masks():
            a = Poly(m)
            fact = factor(a)
            vecs = list(_Lattice(a).vectors())
            assert [d for _, d, _ in vecs] == [d.bits for d in divisors(fact)]
            assert [t for t, _, _ in vecs] == counting_order(
                [e for _, e in fact])
            for t, d, q in vecs:
                assert _mul_bits(d, q) == m
                assert Poly(d) == prod((p**j for (p, _), j in zip(fact, t)),
                                       start=ONE)

    def test_unitary_divisors_are_the_coprime_divisors_in_order(self):
        for m in self.masks():
            a = Poly(m)
            fact = factor(a)
            assert unitary_divisors(fact) == [
                d for d in divisors(fact) if gcd(d, a // d) == ONE
            ]


def _product_of_primes(count):
    a = ONE
    for p in irreducibles_up_to(10)[:count]:
        a = a * p
    return a


def lattice_inputs():
    """Seeded inputs of degree <= 14 and four shapes: the unit, a lone
    high power, an odd power of a product and five distinct primes."""
    rng = random.Random(43)
    return [ONE, X**20, Poly("x^2+x") ** 15, _product_of_primes(5)] + [
        Poly(rng.randrange(2, 1 << 15)) for _ in range(150)]


def power_reference(fact, unitary=False):
    """The (unitary) divisors in counting order, each a product of
    Poly.__pow__ values."""
    pairs = list(fact)
    return [prod((p ** (d * e if unitary else d)
                  for (p, e), d in zip(pairs, t)), start=ONE)
            for t in counting_order([1 if unitary else e for _, e in pairs])]


class TestPowerProducts:
    """The one walker's prime-power rows: running products for every
    divisor, a square-and-multiply power for a unitary one, no Poly."""

    def test_divisors_equal_a_power_reference(self):
        for a in lattice_inputs():
            fact = factor(a)
            assert divisors(fact) == power_reference(fact), a
            assert unitary_divisors(fact) == power_reference(fact, True), a

    def test_verify_perfect_is_the_xor_of_the_listed_divisors(self):
        seen = set()
        for a in lattice_inputs():
            fact = factor(a)
            for unitary, listed in ((False, divisors(fact)),
                                    (True, unitary_divisors(fact))):
                total = reduce(xor, (d.bits for d in listed), 0)
                assert verify_perfect(a, unitary) == (total == a.bits), a
                seen.add((unitary, total == a.bits))
        # Both kinds hold at some input and fail at another.
        assert seen == {(False, False), (False, True), (True, False),
                        (True, True)}

    def test_a_row_costs_one_product_per_step_and_a_unitary_one_log_e(
            self, monkeypatch):
        e = 4096
        top = X**e
        fact = factor(top)
        calls = [0]

        def counted(a, b):
            calls[0] += 1
            return _mul_bits(a, b)

        # gf2mf.divisors the attribute is the function; the module is
        # reached by name.
        monkeypatch.setattr(import_module("gf2mf.divisors"), "_mul_bits",
                            counted)
        monkeypatch.setattr(gf2poly, "_mul_bits", counted)
        assert unitary_divisors(fact) == [ONE, top]
        assert 0 < calls[0] <= e.bit_length()
        calls[0] = 0
        listed = divisors(fact)
        assert calls[0] == e - 1
        assert listed[1] == X and listed[-1] == top and len(listed) == e + 1


class TestDivisorLimit:
    """Every lattice walk refuses an oversized input with one message."""

    @pytest.mark.parametrize("walk, a, count", [
        (lambda a: divisors(factor(a)), Poly("x^2+x") ** 1024, 1025**2),
        (lambda a: convolve_bruteforce(sigma, z, a), Poly("x^2+x") ** 1024,
         1025**2),
        (check_corollaries, Poly("x^2+x") ** 1024, 1025**2),
        (lambda a: unitary_divisors(factor(a)), _product_of_primes(21),
         1 << 21),
    ], ids=["divisors", "convolve_bruteforce", "check_corollaries",
            "unitary_divisors"])
    def test_same_message(self, walk, a, count):
        with pytest.raises(ResourceLimitError) as info:
            walk(a)
        assert str(info.value) == (
            f"{count} divisors exceed the enumeration bound of {DIVISOR_LIMIT}"
        )


class TestRadicalAndCounts:
    def test_radical_examples(self):
        assert radical(factor(Poly("x^3+x^2"))) == Poly("x^2+x")
        assert radical(factor(Poly("x^2+x+1") ** 2)) == Poly("x^2+x+1")
        assert radical(factor(ONE)) == ONE

    def test_radical_of_squarefree_is_identity(self):
        a = X * X1 * Poly("x^3+x+1")
        assert radical(factor(a)) == a

    def test_omega_examples(self):
        assert omega(factor(Poly("x^3+x^2"))) == 2
        assert big_omega(factor(Poly("x^3+x^2"))) == 3
        assert omega(factor(ONE)) == 0
        assert big_omega(factor(ONE)) == 0
        cube = Poly("x^2+x") ** 3
        assert omega(factor(cube)) == 2
        assert big_omega(factor(cube)) == 6


class TestIsSpecial:
    def test_examples(self):
        assert is_special(Poly("x^2+x+1") ** 2)
        assert not is_special(Poly("x^2+x+1") ** 4)
        assert is_special(Poly("x^2+x") ** 2)

    def test_one_is_vacuously_special(self):
        assert is_special(ONE)

    def test_non_square_is_not_special(self):
        assert not is_special(Poly("x^3"))
        assert not is_special(X)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_special(ZERO)
