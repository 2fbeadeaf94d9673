"""Multiplicative functions on binary polynomials.

A multiplicative function here is a named step: given an irreducible P
and the row f(P^0) = 1, ..., f(P^(r-1)) it returns f(P^r), as the Bell
series at P recurs in the exponent.  Each function keeps one row per
prime and grows it a step at a time; rows only grow and their values are
deterministic, so they are invisible to the function's behavior.
Evaluation factors the argument and multiplies row entries.  Dirichlet
convolution, Dirichlet inverse, square convolution and the pointwise
product yield functions whose steps read their operands' rows.

convolve_bruteforce is the deliberately independent oracle: it computes
(f*g)(a) as the literal sum over all divisors d of f(d) g(a/d) instead
of composing per-prime convolutions.  The two routes must agree
everywhere; the test suite holds them to that.  _Lattice is the only
code that tabulates a function over the divisors of a: one walk of the
divisor walker of gf2mf.divisors per function, in counting order, where
a/d sits at the complement index size - 1 - n of d (the involution
d <-> a/d), so g(a/d) is the same table read from the other end.  The
oracle and the corollary checks of gf2mf.identities both read it.

_divsum_affine is the one home of the sigma and sigma_star rules: a
start s_1 and an affine recurrence in P^step with constant c.  Their
steps and _divsum_bits (the search's closure prune) run it at step 1,
and gf2mf.perfect's walks read it through their one prime-power table.
"""

from functools import cached_property
from itertools import product
from math import prod
from typing import Callable, Iterator

from .divisors import ResourceLimitError, _products
from .factorize import factor
from .gf2poly import Poly, _mul_bits, _sqrt_bits

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

    __slots__ = ("name", "_step", "_cache")

    def __init__(self, name: str, step: Step):
        self.name = name
        self._step = step
        self._cache: dict[int, list[int]] = {}

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

    def at_prime_power(self, prime: Poly, r: int) -> Poly:
        """Value at prime**r; r = 0 yields the unit value 1."""
        if r < 0:
            raise ValueError("negative prime-power exponent")
        return Poly(self.row(prime.bits, r)[r])

    def __call__(self, a: Poly) -> Poly:
        """Evaluate at a nonzero polynomial via its factorization."""
        if a.bits == 0:
            raise ValueError("multiplicative functions are undefined at 0")
        acc = 1
        for prime, e in factor(a):
            acc = _mul_bits(acc, self.row(prime.bits, e)[e])
        return Poly(acc)

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


def _divsum_bits(p: int, r: int, unitary: bool) -> int:
    """sigma(P^r) = 1 + P + ... + P^r, or sigma_star(P^r) = P^r + 1 if
    unitary, for r >= 1, on masks: the affine recurrence at step 1."""
    s, c = _divsum_affine(p, p, 1, unitary)
    for _ in range(r - 1):
        s = _mul_bits(s, p) ^ c
    return s


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


class _Lattice:
    """The divisor lattice of one polynomial A, factored once.

    Entry n of every table belongs to the n-th exponent vector in
    counting order, of size entries: table(f) holds f(D) and cotable(g)
    holds g(A/D).  A/D has the complementary exponent vector, at index
    size - 1 - n, so cotable(g) is g's table reversed.  Each function is
    walked once, over its own prime rows, and its table kept with the
    lattice.  root and the values of value() are made on first read,
    since the oracle reads neither.
    """

    def __init__(self, a: Poly):
        self._a = a
        self.fact = factor(a)
        self.exps = [e for _, e in self.fact]
        self.size = prod(e + 1 for e in self.exps)
        self._rows = [(p, range(e + 1)) for p, e in self.fact]
        self._tables: "dict[MultiplicativeFunction, list[int]]" = {}

    @cached_property
    def root(self) -> "Poly | None":
        """The square root of A when every exponent is even, else None."""
        if any(e % 2 for e in self.exps):
            return None
        return Poly(_sqrt_bits(self._a.bits))

    @cached_property
    def _values(self) -> "dict[tuple[MultiplicativeFunction, int], Poly]":
        return {}

    def vectors(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """Yield (exponents, divisor mask, codivisor mask) in counting order."""
        ds = self._walk(ident)
        # itertools.product counts with its last range fastest.
        counts = product(*[range(e + 1) for e in reversed(self.exps)])
        yield from zip((t[::-1] for t in counts), ds, reversed(ds))

    def _walk(self, f: MultiplicativeFunction) -> list[int]:
        if f not in self._tables:
            # _products refuses an oversized lattice before any row grows.
            self._tables[f] = _products(
                self._rows, lambda p, j: f.row(p.bits, j)[j])
        return self._tables[f]

    def table(self, f: MultiplicativeFunction) -> list[int]:
        """f(D) for every divisor D, as masks in counting order."""
        return self._walk(f)

    def cotable(self, g: MultiplicativeFunction) -> list[int]:
        """g(A/D) for every divisor D, as masks in counting order."""
        # Not self.table(g): each side can be replaced without the other.
        return self._walk(g)[::-1]

    def value(self, f: MultiplicativeFunction, b: Poly) -> Poly:
        """f(b), evaluated by f itself once per (f, b) on this lattice.

        Right sides read this, never table(f), so they stay independent
        of the tables the left sides XOR.
        """
        key = (f, b.bits)
        if key not in self._values:
            self._values[key] = f(b)
        return self._values[key]


def convolve_bruteforce(f: MultiplicativeFunction, g: MultiplicativeFunction,
                        a: Poly) -> Poly:
    """(f*g)(a) as the literal sum over all divisors d of f(d) g(a/d)."""
    if a.bits == 0:
        raise ValueError("convolution is undefined at 0")
    lat = _Lattice(a)
    acc = 0
    for fd, gq in zip(lat.table(f), lat.cotable(g)):
        acc ^= _mul_bits(fd, gq)
    return Poly(acc)


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
