"""Tests for the bitmask polynomial ring."""

import operator
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gf2mf.gf2poly import (
    MAX_PARSE_DEGREE,
    ONE,
    Poly,
    PolyParseError,
    X,
    X1,
    ZERO,
    _LANE_MAX_DEG,
    _mul_bits,
    _spread,
    _sqr_bits,
    _sqrt_bits,
    _unspread,
    add,
    conjugate,
    divrem,
    gcd,
    mul,
    parse,
    power,
    sqrt_if_square,
)
from gf2mf.multfun import _divsum_affine
from gf2mf.perfect import EXHAUSTIVE_MAX_DEG, ODD_SCAN_MAX_DEG

# Degree <= 64 covers the multi-word regime on top of machine-word sizes.
masks = st.integers(min_value=0, max_value=(1 << 65) - 1)
nonzero_masks = st.integers(min_value=1, max_value=(1 << 65) - 1)

# From single bits through word and multi-digit widths up to 1100 bits.
wide_masks = st.sampled_from([1, 8, 30, 31, 64, 128, 256, 1024, 1100]).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1))

# Degree <= 254, the lane bound of _spread, at several widths.
lane_masks = st.sampled_from([1, 8, 31, 64, 128, 255]).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1))


def schoolbook(a: int, b: int) -> int:
    """Carryless product, one shifted copy of a per bit of b."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


class TestConstruction:
    def test_from_int_is_bitmask(self):
        assert Poly(0b111).bits == 7

    def test_from_str_parses(self):
        assert Poly("x^2+x+1").bits == 0b111

    def test_from_poly_is_same_value(self):
        a = Poly(6)
        b = Poly(a)
        assert b == a and b.bits == 6
        assert type(b) is Poly and b is not a

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            Poly(-1)

    def test_other_types_rejected(self):
        with pytest.raises(TypeError, match="float"):
            Poly(1.5)

    @pytest.mark.parametrize("value, error, message", [
        (-3, ValueError, "polynomial mask must be nonnegative"),
        (1.5, TypeError, "cannot build a polynomial from float"),
        (None, TypeError, "cannot build a polynomial from NoneType"),
        ("x^2+y", PolyParseError, "unexpected character 'y' (position 4)"),
    ], ids=["negative-int", "float", "none", "bad-string"])
    def test_each_refusal_keeps_its_type_and_message(self, value, error,
                                                     message):
        # The int test runs first in __init__; every other argument
        # still reaches its own check.
        with pytest.raises(error) as info:
            Poly(value)
        assert type(info.value) is error
        assert str(info.value) == message

    # Unrefused, Poly(True) was Poly('1') and X ** True and power(X, True)
    # were x; X ** 2.0 failed with a TypeError that named no exponent.
    @pytest.mark.parametrize("build, error, message", [
        (lambda: Poly(True), TypeError, "cannot build a polynomial from bool"),
        (lambda: Poly(False), TypeError,
         "cannot build a polynomial from bool"),
        (lambda: X**True, ValueError, "exponent must be an int, got True"),
        (lambda: X1**False, ValueError, "exponent must be an int, got False"),
        (lambda: power(X, True), ValueError,
         "exponent must be an int, got True"),
        (lambda: X**2.0, ValueError, "exponent must be an int, got 2.0"),
        (lambda: power(X, 2.5), ValueError, "exponent must be an int, got 2.5"),
        (lambda: X ** "2", ValueError, "exponent must be an int, got '2'"),
    ], ids=["poly-true", "poly-false", "pow-true", "pow-false", "power-true",
            "pow-whole-float", "power-float", "pow-str"])
    def test_bools_and_non_int_exponents_are_refused_by_name(self, build,
                                                             error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message

    def test_degree_of_zero_is_none(self):
        assert ZERO.degree is None

    def test_degrees(self):
        assert ONE.degree == 0
        assert X.degree == 1
        assert Poly(0b100101).degree == 5


class TestParse:
    def test_terms(self):
        assert Poly("x^2+x+1").bits == 0b111

    def test_hex(self):
        assert Poly("0x7").bits == 0b111
        assert Poly("0x23").bits == 0x23

    def test_single_tokens(self):
        assert Poly("0") == ZERO
        assert Poly("1") == ONE
        assert Poly("x") == X

    def test_whitespace_ignored(self):
        assert Poly(" x ^ 2 + x ") == Poly("x^2+x")

    def test_duplicate_terms_fold_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            assert Poly("x+x") == ZERO
        with pytest.warns(UserWarning):
            assert Poly("x^2+1+x^2") == ONE
        with pytest.warns(UserWarning, match="duplicate term.s. 1 "):
            assert Poly("1+x+1") == X

    def test_exponent_bound(self):
        assert Poly(f"x^{MAX_PARSE_DEGREE}").degree == MAX_PARSE_DEGREE
        with pytest.raises(PolyParseError, match="too large") as info:
            Poly(f"x+x^{MAX_PARSE_DEGREE + 1}")
        assert info.value.position == 4

    def test_hex_width_bound(self):
        digits = MAX_PARSE_DEGREE // 4
        assert Poly("0x1" + "0" * digits).degree == MAX_PARSE_DEGREE
        with pytest.raises(PolyParseError, match="too large"):
            Poly("0x2" + "0" * digits)

    @pytest.mark.parametrize("text", ["", "  ", "+", "x+", "x^", "y", "x**2", "2x"])
    def test_malformed_raises(self, text):
        with pytest.raises(PolyParseError):
            Poly(text)

    def test_error_carries_position(self):
        with pytest.raises(PolyParseError) as info:
            Poly("x^2+y")
        assert info.value.position == 4
        assert "position 4" in str(info.value)

    def test_bad_hex_digit_position(self):
        with pytest.raises(PolyParseError) as info:
            Poly("0x1g")
        assert info.value.position == 3

    @settings(max_examples=500)
    @given(st.text(alphabet="0123456789abcdefxX^+ \t\n", max_size=40))
    def test_fuzz_only_parse_errors_in_range(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # folded duplicate terms
            try:
                assert isinstance(parse(text), Poly)
            except PolyParseError as err:
                assert 0 <= err.position <= len(text)

    @given(masks)
    def test_hex_round_trip(self, m):
        assert parse(hex(m)) == Poly(m)


class TestRender:
    def test_descending_powers(self):
        assert str(Poly(0b110100)) == "x^5+x^4+x^2"

    def test_constants_and_x(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(X) == "x"
        assert str(X1) == "x+1"

    @given(masks)
    def test_round_trip(self, m):
        assert Poly(str(Poly(m))).bits == m

    def test_repr_is_evalable(self):
        a = Poly(0b1011)
        assert eval(repr(a)) == a


class TestArithmetic:
    def test_add_examples(self):
        assert Poly("x^2+x+1") + Poly("x+1") == Poly("x^2")
        assert Poly(6) + ZERO == Poly(6)
        assert Poly(6) + Poly(6) == ZERO

    def test_mul_examples(self):
        assert X1 * X1 == Poly("x^2+1")
        assert X1 * Poly("x^2+x") == Poly("x^3+x")
        assert Poly(0b1101) * ONE == Poly(0b1101)

    def test_divrem_examples(self):
        q, r = divrem(Poly("x^3+x+1"), X1)
        assert (q, r) == (Poly("x^2+x"), ONE)
        a = Poly("x^4+x+1")
        assert divrem(a, a) == (ONE, ZERO)
        assert divrem(ONE, X) == (ZERO, ONE)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divrem(ONE, ZERO)
        with pytest.raises(ZeroDivisionError):
            Poly(6) % ZERO

    def test_gcd_examples(self):
        assert gcd(Poly("x^2+x"), Poly("x^2+1")) == X1
        assert gcd(Poly(0b1101), ZERO) == Poly(0b1101)
        assert gcd(X, X1) == ONE

    def test_gcd_zero_zero(self):
        with pytest.raises(ValueError):
            gcd(ZERO, ZERO)

    def test_pow_examples(self):
        assert X1**2 == Poly("x^2+1")
        base = Poly("x^2+x")
        assert base**3 == base * base * base
        assert Poly(0b1011) ** 0 == ONE

    def test_pow_errors(self):
        with pytest.raises(ValueError):
            ZERO**0
        with pytest.raises(ValueError):
            X ** (-1)

    @given(masks, masks, masks)
    def test_ring_axioms(self, a, b, c):
        pa, pb, pc = Poly(a), Poly(b), Poly(c)
        assert (pa + pb) + pc == pa + (pb + pc)
        assert pa + pb == pb + pa
        assert (pa * pb) * pc == pa * (pb * pc)
        assert pa * pb == pb * pa
        assert pa * (pb + pc) == pa * pb + pa * pc

    @given(nonzero_masks, nonzero_masks)
    def test_mul_degree_adds(self, a, b):
        pa, pb = Poly(a), Poly(b)
        assert (pa * pb).degree == pa.degree + pb.degree

    @given(masks, nonzero_masks)
    def test_divrem_round_trip(self, a, b):
        pa, pb = Poly(a), Poly(b)
        q, r = divrem(pa, pb)
        assert q * pb + r == pa
        assert r == ZERO or r.degree < pb.degree

    @given(nonzero_masks, nonzero_masks)
    def test_gcd_divides_both(self, a, b):
        g = gcd(Poly(a), Poly(b))
        assert Poly(a) % g == ZERO
        assert Poly(b) % g == ZERO

    @given(nonzero_masks)
    def test_square_helper_matches_schoolbook(self, a):
        assert _sqr_bits(a) == _mul_bits(a, a)


class TestMulKernel:
    @settings(max_examples=300)
    @given(wide_masks, wide_masks)
    def test_matches_the_schoolbook_reference(self, a, b):
        assert _mul_bits(a, b) == schoolbook(a, b) == _mul_bits(b, a)


class TestLaneForm:
    """_spread/_unspread against the mask kernels, up to the lane bound."""

    @staticmethod
    def keep(a: int, b: int) -> int:
        # The low bit of each lane up to the degree of a * b.
        return _spread((1 << (a.bit_length() + b.bit_length())) - 1)

    @given(lane_masks)
    def test_round_trip(self, a):
        assert _unspread(_spread(a)) == a

    @given(lane_masks, lane_masks)
    def test_order_is_the_mask_order(self, a, b):
        assert (a < b) == (_spread(a) < _spread(b))

    @settings(max_examples=300)
    @given(lane_masks, lane_masks)
    def test_product_is_the_carryless_product(self, a, b):
        assert (_spread(a) * _spread(b) & self.keep(a, b)
                == _spread(_mul_bits(a, b)))

    @settings(max_examples=100)
    @given(st.lists(st.tuples(lane_masks, lane_masks), max_size=40))
    def test_xor_of_raw_products_then_one_mask(self, pairs):
        # No lane of a raw product passes 255, so XOR carries nothing
        # between lanes and each lane's low bit is the parity of its
        # counts: one mask at the end gives the XOR of the products.
        raw, masks = 0, 0
        for a, b in pairs:
            raw ^= _spread(a) * _spread(b)
            masks ^= _mul_bits(a, b)
        assert _unspread(raw & _spread((1 << 2 * _LANE_MAX_DEG + 1) - 1)
                         ) == masks

    @given(lane_masks, lane_masks)
    def test_xor_commutes_with_spread(self, a, b):
        assert _spread(a ^ b) == _spread(a) ^ _spread(b)

    def test_bound_is_tight(self):
        # The square of 1 + x + ... + x^d counts d + 1 pairs in lane d.
        full = (1 << (_LANE_MAX_DEG + 1)) - 1
        assert (_spread(full) * _spread(full) & self.keep(full, full)
                == _spread(_mul_bits(full, full)))
        over = (full << 1) | 1
        assert (_spread(over) * _spread(over) & self.keep(over, over)
                != _spread(_mul_bits(over, over)))

    @given(st.integers(min_value=1, max_value=(1 << 128) - 1),
           st.sampled_from([1, 2]), st.booleans())
    def test_divsum_affine_on_lanes(self, p, step, unitary):
        # The rule only XORs, so lane inputs give the lane pair.
        p_step = _mul_bits(p, p) if step == 2 else p
        s1, c = _divsum_affine(p, p_step, step, unitary)
        assert (_divsum_affine(_spread(p), _spread(p_step), step, unitary)
                == (_spread(s1), _spread(c)))

    def test_search_caps_are_within_the_bound(self):
        assert f"<= _LANE_MAX_DEG ({_LANE_MAX_DEG})" in _spread.__doc__
        assert ODD_SCAN_MAX_DEG <= _LANE_MAX_DEG
        assert EXHAUSTIVE_MAX_DEG <= _LANE_MAX_DEG


class TestSqrt:
    def test_examples(self):
        assert sqrt_if_square(Poly("x^2+1")) == X1
        assert sqrt_if_square(Poly("x^4+x^2+1")) == Poly("x^2+x+1")
        assert sqrt_if_square(Poly("x^3")) is None
        assert sqrt_if_square(Poly("x^4+x")) is None
        assert sqrt_if_square(Poly("x^5+x^4")) is None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sqrt_if_square(ZERO)

    @given(nonzero_masks)
    def test_square_round_trip(self, s):
        p = Poly(s)
        assert sqrt_if_square(p * p) == p

    def test_bits_equal_the_bit_loop(self):
        # The loop _sqrt_bits replaced: bit 2i of n goes to bit i, for
        # any n, square or not.
        def loop(n):
            r = i = 0
            while n:
                if n & 1:
                    r |= 1 << i
                n >>= 2
                i += 1
            return r

        rng = random.Random(20261019)
        ns = [0, 1, 2, 3]
        for _ in range(500):
            n = rng.getrandbits(rng.randrange(1, 1001))
            ns += [n, _sqr_bits(n)]
        for n in ns:
            assert _sqrt_bits(n) == loop(n), n


class TestConjugate:
    def test_examples(self):
        assert conjugate(X) == X1
        assert conjugate(Poly("x^2+x+1")) == Poly("x^2+x+1")

    @given(masks)
    def test_involution(self, a):
        p = Poly(a)
        assert conjugate(conjugate(p)) == p

    @given(masks, masks)
    def test_ring_automorphism(self, a, b):
        pa, pb = Poly(a), Poly(b)
        assert conjugate(pa * pb) == conjugate(pa) * conjugate(pb)
        assert conjugate(pa + pb) == conjugate(pa) + conjugate(pb)


class TestOrdering:
    def test_total_order_matches_degree_then_mask(self):
        assert ZERO < ONE < X < X1 < Poly("x^2")

    def test_non_strict_comparisons(self):
        assert X <= X and X <= X1 and not X1 <= X
        assert X1 > X and not X > X
        assert X >= X and X1 >= X and not X >= X1

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt,
                                    operator.ge])
    def test_comparison_with_int_refused(self, op):
        with pytest.raises(TypeError):
            op(X, 1)

    def test_hashable(self):
        assert len({Poly(6), Poly(6), Poly(7)}) == 2

    def test_module_level_wrappers(self):
        assert add(Poly(6), Poly(3)) == Poly(5)
        assert mul(X, X1) == Poly("x^2+x")
        assert power(X1, 2) == Poly("x^2+1")
