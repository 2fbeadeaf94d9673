"""Multiplicative functions on binary polynomials.

A multiplicative function here is a named step: given an irreducible P
and the row f(P^0) = 1, ..., f(P^(r-1)) it returns f(P^r), as the Bell
series at P recurs in the exponent.  Each function keeps one row per
prime and grows it a step at a time; rows only grow and their values are
deterministic, so they are invisible to the function's behavior.
Evaluation factors the argument and multiplies row entries through
at_factors, which callers that already hold a factorization call
directly.  Dirichlet convolution, Dirichlet inverse, square convolution
and the pointwise product yield functions whose steps read their
operands' rows.

convolve_bruteforce is the deliberately independent oracle: it computes
(f*g)(a) as the literal sum over all divisors d of f(d) g(a/d) instead
of composing per-prime convolutions.  The two routes must agree
everywhere; the test suite holds them to that.  _Lattice is the only
code that tabulates a function over the divisors of a: one walk of the
divisor walker of gf2mf.divisors per function, in counting order, where
a/d sits at the complement index size - 1 - n of d (the involution
d <-> a/d), so g(a/d) is the same table read from the other end.  The
oracle and the lemma and corollary checks of gf2mf.identities read it,
and all sum through its one xor_sum; it holds nothing else.  A table and
its sums run on lane values (gf2poly._spread) while the table's entry
bound, the sum over the primes of the largest degree in the function's
row, is at most gf2poly._LANE_MAX_DEG; then no lane of a product counts
past 255, so integer products are exact.  The bound is read off the
rows, never off deg a, as a pointwise product's rows can outgrow their
exponents.  Larger lattices keep masks and _mul_bits, which the symbolic
route uses throughout, so the two routes share no carryless kernel.

_divsum_affine is the one home of the sigma and sigma_star rules: a
start s_1 and an affine recurrence in P^step with constant c.  Their
steps run it at step 1, and gf2mf.perfect's walks read the rule
through their one prime-power table, whose sums the exhaustive
search's prunes also factor.
"""

from functools import reduce
from itertools import product
from math import prod
from operator import mul, xor
from typing import Callable, Iterable, Iterator

from .divisors import ResourceLimitError, _products
from .factorize import _factor_bits, factor
from .gf2poly import _LANE_MAX_DEG, Poly, _mul_bits, _spread, _unspread

__all__ = [
    "MultiplicativeFunction",
    "BUILTINS",
    "builtin",
    "delta",
    "z",
    "ident",
    "mu",
    "phi",
    "sigma",
    "sigma_star",
    "evaluate",
    "convolve",
    "convolve_bruteforce",
    "inverse",
    "square_conv",
    "pointwise_mul",
    "pointwise_add",
    "parse_expression",
]

# A row grown to P^e, P of degree d, holds f(P^r) for r <= e; for id,
# phi and sigma f(P^r) has degree r d, so the row keeps d e (e + 1) / 2
# bits.  Rows that size would exceed this bound are refused before they
# grow, as oversized divisor lattices are.
ROW_BIT_LIMIT = 1 << 28

Step = Callable[[int, "list[int]"], int]


class MultiplicativeFunction:
    """A named prime-power step; f(1) = 1 is implicit.

    step(p, row) receives an irreducible's mask p and the masks
    f(P^0), ..., f(P^(r-1)), r >= 1, and returns f(P^r); it must be pure
    and leave row unchanged.  Function equality is extensional only at
    tested points, so no equality operation is defined on instances.
    """

    __slots__ = ("name", "_step", "_cache", "_lanes")

    def __init__(self, name: str, step: Step):
        self.name = name
        self._step = step
        self._cache: dict[int, list[int]] = {}
        self._lanes: dict[int, tuple[list[int], list[int]]] = {}

    def row(self, p: int, e: int) -> list[int]:
        """The stored row at the prime mask p, grown to hold f(P^0..P^e);
        it may hold more, and callers must not change it.  A row past
        ROW_BIT_LIMIT raises ResourceLimitError before it grows."""
        row = self._cache.get(p)
        if row is None:
            row = self._cache[p] = [1]
        if len(row) <= e:
            bits = (p.bit_length() - 1) * e * (e + 1) // 2
            if bits > ROW_BIT_LIMIT:
                raise ResourceLimitError(
                    f"a row of {bits} bits exceeds the row bound of "
                    f"{ROW_BIT_LIMIT}")
            while len(row) <= e:
                row.append(self._step(p, row))
        return row

    def lane_row(self, p: int, e: int) -> "tuple[list[int], int]":
        """The stored lane row at p, holding f(P^0..P^e) as lane values
        (gf2poly._spread), and the largest degree among those e + 1.

        Each entry is spread once, with the running maximum of the
        degrees so far.  No entry of a degree past _LANE_MAX_DEG is
        spread: when the degree returned exceeds it, the row ends short
        of e, and callers must read the masks of row() instead.
        """
        lanes = self._lanes.get(p)
        if lanes is None:
            lanes = self._lanes[p] = [], []
        vals, tops = lanes
        if len(vals) > e:
            return vals, tops[e]
        row = self.row(p, e)
        top = tops[-1] if tops else 0
        while len(vals) <= e:
            m = row[len(vals)]
            top = max(top, m.bit_length() - 1)
            if top > _LANE_MAX_DEG:
                break
            vals.append(_spread(m))
            tops.append(top)
        return vals, top

    def at_prime_power(self, prime: Poly, r: int) -> Poly:
        """Value at prime**r; r = 0 yields the unit value 1."""
        if r < 0:
            raise ValueError("negative prime-power exponent")
        return Poly(self.row(prime.bits, r)[r])

    def at_factors(self, pairs: "Iterable[tuple[int, int]]") -> int:
        """The mask of f at the product of P^e over the (prime mask,
        exponent) pairs, whose primes are distinct irreducibles: the
        product of f's row entries f(P^e)."""
        acc = 1
        for p, e in pairs:
            acc = _mul_bits(acc, self.row(p, e)[e])
        return acc

    def __call__(self, a: Poly) -> Poly:
        """Evaluate at a nonzero polynomial via its factorization."""
        if a.bits == 0:
            raise ValueError("multiplicative functions are undefined at 0")
        return Poly(self.at_factors(_factor_bits(a.bits)))

    def __repr__(self) -> str:
        return f"MultiplicativeFunction({self.name!r})"


def _divsum_affine(p: int, p_step: int, step: int,
                   unitary: bool) -> "tuple[int, int]":
    """(s_1, c) such that s_1 and s_k = s_(k-1) * P^step + c are the
    (unitary) divisor sums of P^(k * step), on masks; p_step is P^step,
    step 1 or 2.

    For sigma, c = sigma(P^(step - 1)), which is 1 or P + 1, and s_1 =
    P^step + c; for sigma_star, s_1 = c = P^step + 1.  Nothing is
    multiplied, only XORed, so given P and P^step as lane values
    (gf2poly._spread) it returns the pair as lane values; gf2mf.perfect's
    row table calls it so.
    """
    if unitary:
        return p_step ^ 1, p_step ^ 1
    c = p ^ 1 if step == 2 else 1
    return p_step ^ c, c


def _divsum_step(unitary: bool) -> Step:
    """sigma's step, or sigma_star's if unitary: the affine recurrence at
    step 1, whose s_1 follows the row's f(P^0) = 1 as f(P)."""

    def step(p: int, row: list[int]) -> int:
        s1, c = _divsum_affine(p, p, 1, unitary)
        return s1 if len(row) == 1 else _mul_bits(row[-1], p) ^ c

    return step


delta = MultiplicativeFunction("delta", lambda p, row: 0)
z = MultiplicativeFunction("z", lambda p, row: 1)
ident = MultiplicativeFunction("id", lambda p, row: _mul_bits(row[-1], p))
mu = MultiplicativeFunction("mu", lambda p, row: 1 if len(row) == 1 else 0)
# phi(P^r) = P^r + P^(r-1), the units mod P^r counted as a polynomial sum.
phi = MultiplicativeFunction(
    "phi", lambda p, row: p ^ 1 if len(row) == 1 else _mul_bits(row[-1], p))
sigma = MultiplicativeFunction("sigma", _divsum_step(False))
sigma_star = MultiplicativeFunction("sigma_star", _divsum_step(True))

BUILTINS: dict[str, MultiplicativeFunction] = {
    "delta": delta,
    "z": z,
    "id": ident,
    "mu": mu,
    "phi": phi,
    "sigma": sigma,
    "sigma_star": sigma_star,
}


def builtin(name: str) -> MultiplicativeFunction:
    """Look up one of the seven named builtins."""
    try:
        return BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown function name {name!r}") from None


def evaluate(f: MultiplicativeFunction, a: Poly) -> Poly:
    """f(a) for nonzero a."""
    return f(a)


def _conv_step(f: MultiplicativeFunction, g: MultiplicativeFunction) -> Step:
    def step(p: int, row: list[int]) -> int:
        m = len(row)
        fr, gr = f.row(p, m), g.row(p, m)
        acc = 0
        for l in range(m + 1):
            acc ^= _mul_bits(fr[l], gr[m - l])
        return acc

    return step


def convolve(f: MultiplicativeFunction,
             g: MultiplicativeFunction) -> MultiplicativeFunction:
    """Dirichlet convolution f*g, computed symbolically at prime powers."""
    return MultiplicativeFunction(f"{f.name}*{g.name}", _conv_step(f, g))


def square_conv(f: MultiplicativeFunction) -> MultiplicativeFunction:
    """The square convolution f*f under its canonical name sq(f)."""
    return MultiplicativeFunction(f"sq({f.name})", _conv_step(f, f))


# A table's entries have degree <= _LANE_MAX_DEG, so _TABLE_KEEP keeps
# every lane of a table product; a convolution term, the product of two
# entries, has degree <= 2 * _LANE_MAX_DEG, the last lane _SUM_KEEP keeps.
_TABLE_KEEP = _spread((1 << _LANE_MAX_DEG + 1) - 1)
_SUM_KEEP = _spread((1 << 2 * _LANE_MAX_DEG + 1) - 1)


class _Lattice:
    """The divisor lattice of one polynomial A, factored once.

    Entry n of every table belongs to the n-th exponent vector in
    counting order, of size entries: table(f) holds f(D) and cotable(g)
    holds g(A/D).  A/D has the complementary exponent vector, at index
    size - 1 - n, so cotable(g) is g's table reversed.  Each function is
    walked once, over its own prime rows, and its table, and its
    reversal once read, kept with the lattice.

    A table is kept in lane form (gf2poly._spread) while its entry
    bound, the sum over the primes of the largest degree in f's row up
    to the exponent, is at most _LANE_MAX_DEG (254); past it the table
    holds masks.  The bound is read off the rows, never off deg A, since
    a row's degrees need not follow its exponents.  Every entry, and so
    every partial product of the walk, has degree <= the bound, so each
    lane of a product counts at most 255 pairs, and masking to each
    lane's low bit gives the lane value of the carryless product.
    """

    def __init__(self, a: Poly):
        self.poly = a
        self.fact = factor(a)
        self.exps = [e for _, e in self.fact]
        self._sizes = [e + 1 for e in self.exps]
        self.size = prod(self._sizes)
        self._primes = [(p.bits, e) for p, e in self.fact]
        self._tables: "dict[MultiplicativeFunction, tuple[list[int], int]]" = {}
        self._cotables: "dict[MultiplicativeFunction, list[int]]" = {}

    def vectors(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """Yield (exponents, divisor mask, codivisor mask) in counting order."""
        ds = self.masks(ident)
        # itertools.product counts with its last range fastest.
        counts = product(*[range(e + 1) for e in reversed(self.exps)])
        yield from zip((t[::-1] for t in counts), ds, reversed(ds))

    def _rows(self, f: MultiplicativeFunction) -> "tuple[list[list[int]], int]":
        """f's row per prime, up to its exponent, and the keep _products
        multiplies them under: lane rows and _TABLE_KEEP within the
        entry bound, else mask rows and 0."""
        rows, bound = [], 0
        for p, e in self._primes:
            vals, top = f.lane_row(p, e)
            rows.append(vals[:e + 1])
            bound += top
        if bound <= _LANE_MAX_DEG:
            return rows, _TABLE_KEEP
        return [f.row(p, e)[:e + 1] for p, e in self._primes], 0

    def _walk(self, f: MultiplicativeFunction) -> "tuple[list[int], int]":
        """f's table and the keep it was built under, 0 for masks."""
        walked = self._tables.get(f)
        if walked is None:
            # _products refuses an oversized lattice before any row grows.
            walked = self._tables[f] = _products(self._sizes,
                                                 lambda: self._rows(f))
        return walked

    def lanes(self, f: MultiplicativeFunction) -> bool:
        """Whether table(f) and cotable(f) hold lane values, not masks."""
        return self._walk(f)[1] != 0

    def table(self, f: MultiplicativeFunction) -> list[int]:
        """f(D) for every divisor D, in counting order, as lane values if
        lanes(f), else as masks."""
        return self._walk(f)[0]

    def cotable(self, g: MultiplicativeFunction) -> list[int]:
        """g(A/D) for every divisor D, in counting order, in the form of
        table(g); the reversal is made once per function."""
        cotable = self._cotables.get(g)
        if cotable is None:
            # Not self.table(g): each side can be replaced without the other.
            cotable = self._cotables[g] = self._walk(g)[0][::-1]
        return cotable

    def masks(self, f: MultiplicativeFunction) -> list[int]:
        """f(D) for every divisor D, in counting order, as masks."""
        table = self.table(f)
        return list(map(_unspread, table)) if self.lanes(f) else table

    def xor_sum(self, f: MultiplicativeFunction, g: MultiplicativeFunction,
                first: int = 0, last: int = 0) -> int:
        """The mask of the XOR of f(D) g(A/D) over the divisors D at the
        indices first .. size - 1 - last, read off table(f) and
        cotable(g); g = z reads no cotable, as z(A/D) = 1.  The tables
        are sliced only for a span short of every divisor; the full span
        reads them in place.

        When both tables are lane values, each term is one integer
        product and the terms are XORed raw: no lane of a term passes
        255, so no term carries between lanes, and the low bit of each
        lane of the XOR is the parity of that lane's count.  One mask
        then keeps those bits.  Otherwise the lane table is read back
        and the terms are _mul_bits products of masks.
        """
        cut = slice(first, self.size - last) if first or last else None
        # table() and cotable() walk each operand; its lane flag is read
        # off that walk.
        fs, lanes = self.table(f), self._tables[f][1]
        if g is z:
            terms = fs if cut is None else fs[cut]
        else:
            gs, g_lanes = self.cotable(g), self._tables[g][1]
            if cut is not None:
                fs, gs = fs[cut], gs[cut]
            if lanes and g_lanes:
                terms = map(mul, fs, gs)
            else:
                if lanes:
                    fs = map(_unspread, fs)
                if g_lanes:
                    gs = map(_unspread, gs)
                terms, lanes = map(_mul_bits, fs, gs), False
        acc = reduce(xor, terms, 0)
        return _unspread(acc & _SUM_KEEP) if lanes else acc


def convolve_bruteforce(f: MultiplicativeFunction, g: MultiplicativeFunction,
                        a: Poly) -> Poly:
    """(f*g)(a) as the literal sum over all divisors d of f(d) g(a/d)."""
    if a.bits == 0:
        raise ValueError("convolution is undefined at 0")
    return Poly(_Lattice(a).xor_sum(f, g))


def inverse(f: MultiplicativeFunction) -> MultiplicativeFunction:
    """Dirichlet inverse: the unique multiplicative g with f*g = delta.

    At prime powers the inverse satisfies the characteristic-2 recursion
    g(P^r) = sum over l < r of g(P^l) f(P^(r-l)), with g(P) = f(P); its
    step reads g(P^l) off the row it extends.
    """

    def step(p: int, row: list[int]) -> int:
        r = len(row)
        fr = f.row(p, r)
        acc = 0
        for l in range(r):
            acc ^= _mul_bits(row[l], fr[r - l])
        return acc

    return MultiplicativeFunction(f"inv({f.name})", step)


def pointwise_mul(f: MultiplicativeFunction,
                  g: MultiplicativeFunction) -> MultiplicativeFunction:
    """The pointwise product, which is again multiplicative."""

    def step(p: int, row: list[int]) -> int:
        r = len(row)
        return _mul_bits(f.row(p, r)[r], g.row(p, r)[r])

    return MultiplicativeFunction(f"ptmul({f.name},{g.name})", step)


def pointwise_add(f: MultiplicativeFunction,
                  g: MultiplicativeFunction) -> Callable[[Poly], Poly]:
    """Pointwise sum as a bare evaluator; the sum is not multiplicative."""

    def evaluate_sum(a: Poly) -> Poly:
        return f(a) + g(a)

    return evaluate_sum


# --- function-expression grammar -------------------------------------------
#
#   expr := atom ('*' atom)*
#   atom := 'inv' '(' expr ')' | 'sq' '(' expr ')' | NAME
#
# '*' is Dirichlet convolution and associates left to right.
#
# Every name nests one more function that evaluation recurses through;
# at the default recursion limit of 1000 frames about 500 names still
# evaluate, so the bound below keeps well clear of a RecursionError.
MAX_EXPRESSION_TERMS = 100


def parse_expression(text: str) -> MultiplicativeFunction:
    """Build a function from an expression like 'inv(sigma_star)*mu'.

    Expressions with more than MAX_EXPRESSION_TERMS names are refused.
    Each ValueError names the offset in text where parsing failed.
    """
    tokens = _tokenize_expression(text)
    names = [at for kind, _, at in tokens if kind == "name"]
    if len(names) > MAX_EXPRESSION_TERMS:
        raise _expression_error(
            f"{len(names)} function terms exceed the expression bound of "
            f"{MAX_EXPRESSION_TERMS}", names[MAX_EXPRESSION_TERMS]
        )
    expr, pos = _parse_expr(tokens, 0)
    kind, value, at = tokens[pos]
    if kind != "end":
        raise _expression_error(
            f"unexpected {value!r} in function expression", at)
    return expr


def _expression_error(message: str, position: int) -> ValueError:
    return ValueError(f"{message} (position {position})")


def _tokenize_expression(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, closed by an "end" token at the
    end of text."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "*()":
            tokens.append((c, c, i))
            i += 1
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
        else:
            raise _expression_error(
                f"unexpected character {c!r} in function expression", i)
    if not tokens:
        raise _expression_error("empty function expression", n)
    tokens.append(("end", "", n))
    return tokens


def _parse_expr(tokens: list[tuple[str, str, int]], pos: int
                ) -> tuple[MultiplicativeFunction, int]:
    acc, pos = _parse_atom(tokens, pos)
    while tokens[pos][0] == "*":
        rhs, pos = _parse_atom(tokens, pos + 1)
        acc = convolve(acc, rhs)
    return acc, pos


def _parse_atom(tokens: list[tuple[str, str, int]], pos: int
                ) -> tuple[MultiplicativeFunction, int]:
    kind, value, at = tokens[pos]
    if kind == "end":
        raise _expression_error(
            "function expression ends where a name was expected", at)
    if kind != "name":
        raise _expression_error(
            f"unexpected {value!r} in function expression", at)
    if value in ("inv", "sq") and tokens[pos + 1][0] == "(":
        inner, after = _parse_expr(tokens, pos + 2)
        if tokens[after][0] != ")":
            raise _expression_error(
                f"unclosed {value}( in function expression", tokens[after][2])
        wrapped = inverse(inner) if value == "inv" else square_conv(inner)
        return wrapped, after + 1
    try:
        return builtin(value), pos + 1
    except ValueError as exc:
        raise _expression_error(str(exc), at) from None
