"""Exact arithmetic for binary polynomials.

A polynomial over the two-element field is stored as a nonnegative
Python int used as a bitmask: bit i holds the coefficient of x^i, so
x^2+x+1 corresponds to 0b111 (0x7).  The representation is canonical
(equal polynomials have equal masks), addition is XOR, multiplication
is carryless (one shifted copy of the larger operand per set bit of the
smaller), and Python's unbounded ints widen past machine-word degrees
transparently.

Poly wraps a mask and overloads +, *, divmod, //, %, ** and the
comparison operators; comparing masks as plain integers coincides with
(degree, mask) order, which is the canonical order used everywhere in
this package.  The raw-int helpers (_mul_bits, _divmod_bits, _sqr_bits,
...) back the hot loops in the other modules.

The fixed-point walks and the divisor-lattice tables of
multfun._Lattice keep their values in a second, "lane" form (_spread,
_unspread): coefficient i of the mask at bit 8i.  There a carryless
product is one C-level integer multiply, x * y & M with M the lane form
of 2^(n+1) - 1, exact while the product has degree <= n and a factor
degree <= 254, since no 8-bit lane then counts past 255.  XOR, == and <
act on lane values as on their masks, and XOR carries nothing between
lanes, so raw products can be XORed first and masked once.  Converting
costs about as much as a product, so the form pays only where values
stay converted across many products; _mul_bits stays the kernel of the
Poly arithmetic, of factoring and of the symbolic rows and convolutions.
"""

import warnings

__all__ = [
    "Poly",
    "PolyParseError",
    "ZERO",
    "ONE",
    "X",
    "X1",
    "parse",
    "add",
    "mul",
    "divrem",
    "gcd",
    "power",
    "sqrt_if_square",
    "conjugate",
]

# Guard against absurd exponents in text input; masks themselves are unbounded.
MAX_PARSE_DEGREE = 1_000_000

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class PolyParseError(ValueError):
    """Malformed polynomial text; .position is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _mul_bits(a: int, b: int) -> int:
    """Carryless product of two masks: one shifted copy a * low of the
    larger operand per set bit low of the smaller."""
    if a < b:
        a, b = b, a
    r = 0
    while b:
        low = b & -b
        r ^= a * low
        b ^= low
    return r


# Squaring in characteristic 2 just spreads the bits apart; one byte at a
# time through a 256-entry table.  Must stay bit-identical to _mul_bits(n, n).
_SQR_BYTE = tuple(
    sum(((byte >> i) & 1) << (2 * i) for i in range(8)) for byte in range(256)
)


def _sqr_bits(n: int) -> int:
    """Carryless square of a mask."""
    r = 0
    shift = 0
    while n:
        r |= _SQR_BYTE[n & 0xFF] << shift
        n >>= 8
        shift += 16
    return r


# Lane k of the integer product of two lane values counts the pairs
# i + j = k, at most min(deg) + 1: below 256, so no lane carries into the
# next, while one factor has degree <= _LANE_MAX_DEG.
_LANE_MAX_DEG = 254
_LANE_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _spread(m: int) -> int:
    """Lane form of a mask: coefficient i at bit 8i.

    x * y & _spread(2^(n+1) - 1) is the lane form of the carryless
    product of the masks of x and y when that product has degree <= n and
    one of them has degree <= _LANE_MAX_DEG (254).  XOR acts on lane
    values as on masks, and the integer order of lane values is the order
    of their masks.
    """
    return int.from_bytes(format(m, "b").encode().translate(_LANE_DIGITS), "big")


def _unspread(x: int) -> int:
    """The mask of a lane value whose every lane is 0 or 1."""
    return int(x.to_bytes(x.bit_length() // 8 + 1, "big").hex()[1::2], 2)


def _sqrt_bits(n: int) -> int:
    """Square root of a mask whose odd-index bits are all clear: the
    even-index bits of n, read as one slice of its binary digits."""
    s = format(n, "b")
    return int(s[len(s) - 1 & 1::2], 2)


def _divmod_bits(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of masks; b must be nonzero."""
    db = b.bit_length()
    q = 0
    r = a
    while r.bit_length() >= db:
        shift = r.bit_length() - db
        q |= 1 << shift
        r ^= b << shift
    return q, r


def _mod_bits(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gcd_bits(a: int, b: int) -> int:
    while b:
        a, b = b, _mod_bits(a, b)
    return a


def _pow_bits(base: int, k: int) -> int:
    """The mask base**k for an int k >= 0, by square and multiply: one
    _mul_bits per set bit of k, so O(log k) products."""
    r = 1
    while k:
        if k & 1:
            r = _mul_bits(r, base)
        k >>= 1
        if k:
            base = _sqr_bits(base)
    return r


def _compose_bits(c: int, p: int) -> int:
    """The mask c with x replaced by the mask p, i.e. c(p) (Horner)."""
    r = 0
    for j in range(c.bit_length() - 1, -1, -1):
        r = _mul_bits(r, p) ^ (c >> j & 1)
    return r


class Poly:
    """A binary polynomial as an immutable bitmask.

    Accepts an int mask, a string in term or hex form (see parse), or
    another Poly.  Instances are hashable and must not be mutated.
    """

    __slots__ = ("bits",)

    def __init__(self, value: "int | str | Poly" = 0):
        # An int first: every internal Poly(mask) takes this path.  A bool
        # is not a mask, so the test is on the exact type.
        if type(value) is int:
            if value < 0:
                raise ValueError("polynomial mask must be nonnegative")
            self.bits = value
        elif isinstance(value, Poly):
            self.bits = value.bits
        elif isinstance(value, str):
            self.bits = parse(value).bits
        else:
            raise TypeError(f"cannot build a polynomial from {type(value).__name__}")

    @property
    def degree(self) -> "int | None":
        """Degree, or None for the zero polynomial (no valid numeric degree)."""
        if self.bits == 0:
            return None
        return self.bits.bit_length() - 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self.bits ^ other.bits)

    # Subtraction equals addition in characteristic 2.
    __sub__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_mul_bits(self.bits, other.bits))

    def __divmod__(self, other: "Poly") -> "tuple[Poly, Poly]":
        if not isinstance(other, Poly):
            return NotImplemented
        if other.bits == 0:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod_bits(self.bits, other.bits)
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if other.bits == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return Poly(_mod_bits(self.bits, other.bits))

    def __pow__(self, k: int) -> "Poly":
        if type(k) is not int:
            raise ValueError(f"exponent must be an int, got {k!r}")
        if k < 0:
            raise ValueError("negative polynomial power")
        if k == 0:
            if self.bits == 0:
                raise ValueError("0**0 is undefined")
            return ONE
        return Poly(_pow_bits(self.bits, k))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.bits == other.bits

    def __ne__(self, other: object) -> bool:
        return not isinstance(other, Poly) or self.bits != other.bits

    def __lt__(self, other: "Poly") -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.bits < other.bits

    def __le__(self, other: "Poly") -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.bits <= other.bits

    def __gt__(self, other: "Poly") -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.bits > other.bits

    def __ge__(self, other: "Poly") -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.bits >= other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __str__(self) -> str:
        return _render_bits(self.bits)

    def __repr__(self) -> str:
        return f"Poly('{_render_bits(self.bits)}')"


ZERO = Poly(0)
ONE = Poly(1)
X = Poly(2)
X1 = Poly(3)  # x+1


def _render_bits(bits: int) -> str:
    """Canonical text: terms in strictly descending powers, e.g. x^5+x^2+1."""
    if bits == 0:
        return "0"
    parts = []
    for i in range(bits.bit_length() - 1, -1, -1):
        if (bits >> i) & 1:
            if i == 0:
                parts.append("1")
            elif i == 1:
                parts.append("x")
            else:
                parts.append(f"x^{i}")
    return "+".join(parts)


def parse(text: str) -> Poly:
    """Parse term form ('x^5+x+1', whitespace ignored) or hex form ('0x23').

    Duplicate terms fold by XOR with a warning, so machine-generated
    input with cancellations is accepted.  Malformed input raises
    PolyParseError naming the offending position.
    """
    stripped = text.strip()
    if stripped[:2].lower() == "0x":
        return _parse_hex(text)

    mask = 0
    duplicates: list[str] = []
    i = 0
    n = len(text)
    need_term = True
    saw_term = False
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if not need_term:
            if c == "+":
                need_term = True
                i += 1
                continue
            raise PolyParseError(f"expected '+' before {c!r}", i)
        # One term: 0 | 1 | x | x^<uint>
        if c == "0":
            i += 1
        elif c == "1":
            if mask & 1:
                duplicates.append("1")
            mask ^= 1
            i += 1
        elif c == "x":
            i += 1
            exponent = 1
            while i < n and text[i].isspace():
                i += 1
            if i < n and text[i] == "^":
                i += 1
                while i < n and text[i].isspace():
                    i += 1
                start = i
                while i < n and text[i].isdigit():
                    i += 1
                if i == start:
                    raise PolyParseError("expected an exponent after '^'", i)
                exponent = int(text[start:i])
                if exponent > MAX_PARSE_DEGREE:
                    raise PolyParseError(f"exponent {exponent} too large", start)
            bit = 1 << exponent
            if mask & bit:
                duplicates.append("x" if exponent == 1 else f"x^{exponent}")
            mask ^= bit
        else:
            raise PolyParseError(f"unexpected character {c!r}", i)
        need_term = False
        saw_term = True
    if need_term:
        if not saw_term:
            raise PolyParseError("empty polynomial text", 0)
        raise PolyParseError("dangling '+'", n)
    if duplicates:
        warnings.warn(
            f"duplicate term(s) {', '.join(duplicates)} folded by XOR",
            stacklevel=2,
        )
    return Poly(mask)


def _parse_hex(text: str) -> Poly:
    start = text.index("0")  # position of the 0x prefix in the raw text
    body = text.strip()[2:]
    if not body:
        raise PolyParseError("empty hex polynomial", start + 2)
    for offset, c in enumerate(body):
        if c not in _HEX_DIGITS:
            raise PolyParseError(f"invalid hex digit {c!r}", start + 2 + offset)
    value = int(body, 16)
    if value.bit_length() > MAX_PARSE_DEGREE + 1:
        raise PolyParseError("hex polynomial degree too large", start)
    return Poly(value)


def add(a: Poly, b: Poly) -> Poly:
    """Sum (equivalently difference) of two polynomials."""
    return a + b


def mul(a: Poly, b: Poly) -> Poly:
    """Carryless product of two polynomials."""
    return a * b


def divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b; b must be nonzero."""
    return divmod(a, b)


def gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor (monic, as every nonzero binary polynomial is)."""
    if a.bits == 0 and b.bits == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return Poly(_gcd_bits(a.bits, b.bits))


def power(a: Poly, k: int) -> Poly:
    """a**k by square and multiply; 0**0 is an error, and k must be an
    int >= 0 (not a bool)."""
    return a**k


def sqrt_if_square(a: Poly) -> "Poly | None":
    """Exact square root if a is a square (all odd-index coefficients zero).

    Every square in characteristic 2 is a polynomial in x^2, so the root
    is read off the even bit positions.  Returns None for non-squares;
    the zero polynomial is rejected.
    """
    if a.bits == 0:
        raise ValueError("square root of 0 is not supported")
    pairs = (a.bits.bit_length() + 1) // 2
    # (4^pairs - 1) / 3 is 0b0101...01, so shifted left it selects odd bits.
    if a.bits & (((1 << (2 * pairs)) - 1) // 3 << 1):
        return None
    return Poly(_sqrt_bits(a.bits))


def conjugate(a: Poly) -> Poly:
    """Substitute x -> x+1 (a ring automorphism and an involution)."""
    return Poly(_compose_bits(a.bits, 3))
