"""Multiplicative functions on binary polynomials.

A multiplicative function here is pinned down by a named prime-power
rule (P, r) -> value, with value 1 at the unit; evaluation factors the
argument and multiplies the rule values of its prime powers.  Dirichlet
convolution, Dirichlet inverse, square convolution and the pointwise
product all yield new functions whose rules are derived symbolically
from their operands' rules.

convolve_bruteforce is the deliberately independent oracle: it computes
(f*g)(a) as the literal sum over all divisors d of f(d) g(a/d), listing
both factors with the divisor walker of gf2mf.divisors instead of
composing per-prime convolutions.  The two routes must agree
everywhere; the test suite holds them to that.  _divsum_affine is the
one home of the sigma and sigma_star rules: it states each as an affine
recurrence in P^step, which _divsum_bits runs at step 1 for the two
builtins and for the exhaustive search's closure prune, and which
gf2mf.perfect carries through its fixed-point searches.

Prime-power values are cached per function.  Caches are insert-once
with deterministic values, so they are invisible to the function's
behavior.
"""

from typing import Callable

from .divisors import _products
from .factorize import factor
from .gf2poly import ONE, Poly, ZERO, _mul_bits

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

Rule = Callable[[Poly, int], Poly]


class MultiplicativeFunction:
    """A named prime-power rule; f(1) = 1 is implicit.

    Rules receive an irreducible P and an exponent r >= 1 and must be
    pure.  Function equality is extensional only at tested points, so
    no equality operation is defined on instances.
    """

    __slots__ = ("name", "_rule", "totally_multiplicative", "_cache")

    def __init__(self, name: str, rule: "Rule | None",
                 totally_multiplicative: bool = False):
        self.name = name
        self._rule = rule
        self.totally_multiplicative = totally_multiplicative
        self._cache: dict[tuple[int, int], Poly] = {}

    def at_prime_power(self, prime: Poly, r: int) -> Poly:
        """Value at prime**r; r = 0 yields the unit value 1."""
        if r == 0:
            return ONE
        key = (prime.bits, r)
        value = self._cache.get(key)
        if value is None:
            value = self._rule(prime, r)
            self._cache[key] = value
        return value

    def __call__(self, a: Poly) -> Poly:
        """Evaluate at a nonzero polynomial via its factorization."""
        if a.bits == 0:
            raise ValueError("multiplicative functions are undefined at 0")
        acc = 1
        for prime, e in factor(a):
            acc = _mul_bits(acc, self.at_prime_power(prime, e).bits)
        return Poly(acc)

    def __repr__(self) -> str:
        return f"MultiplicativeFunction({self.name!r})"


def _delta_rule(prime: Poly, r: int) -> Poly:
    return ZERO


def _z_rule(prime: Poly, r: int) -> Poly:
    return ONE


def _id_rule(prime: Poly, r: int) -> Poly:
    return prime**r


def _mu_rule(prime: Poly, r: int) -> Poly:
    return ONE if r == 1 else ZERO


def _phi_rule(prime: Poly, r: int) -> Poly:
    # P^r + P^(r-1): the count (as a polynomial sum) of units mod P^r.
    lower = (prime ** (r - 1)).bits
    return Poly(_mul_bits(lower, prime.bits) ^ lower)


def _divsum_affine(p: int, p_step: int, step: int,
                   unitary: bool) -> "tuple[int, int]":
    """(s_0, c) such that s_k = s_(k-1) * P^step + c is the (unitary)
    divisor sum of P^(k * step), on masks; p_step is P^step, step 1 or 2.

    For sigma, s_0 = 1 and c = sigma(P^(step - 1)), which is 1 or P + 1;
    for sigma_star, s_0 = 0 and c = P^step + 1.  Nothing is multiplied.
    """
    if unitary:
        return 0, p_step ^ 1
    return 1, (p ^ 1 if step == 2 else 1)


def _divsum_bits(p: int, r: int, unitary: bool) -> int:
    """sigma(P^r) = 1 + P + ... + P^r, or sigma_star(P^r) = P^r + 1 if
    unitary, for r >= 1, on masks: the affine recurrence at step 1."""
    s0, c = _divsum_affine(p, p, 1, unitary)
    s = s0 * p ^ c  # s_0 is 0 or 1, so * is carryless here
    for _ in range(r - 1):
        s = _mul_bits(s, p) ^ c
    return s


def _sigma_rule(prime: Poly, r: int) -> Poly:
    return Poly(_divsum_bits(prime.bits, r, False))


def _sigma_star_rule(prime: Poly, r: int) -> Poly:
    return Poly(_divsum_bits(prime.bits, r, True))


delta = MultiplicativeFunction("delta", _delta_rule, totally_multiplicative=True)
z = MultiplicativeFunction("z", _z_rule, totally_multiplicative=True)
ident = MultiplicativeFunction("id", _id_rule, totally_multiplicative=True)
mu = MultiplicativeFunction("mu", _mu_rule)
phi = MultiplicativeFunction("phi", _phi_rule)
sigma = MultiplicativeFunction("sigma", _sigma_rule)
sigma_star = MultiplicativeFunction("sigma_star", _sigma_star_rule)

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


def _conv_rule(f: MultiplicativeFunction, g: MultiplicativeFunction) -> Rule:
    def rule(prime: Poly, m: int) -> Poly:
        acc = 0
        for l in range(m + 1):
            acc ^= _mul_bits(
                f.at_prime_power(prime, l).bits,
                g.at_prime_power(prime, m - l).bits,
            )
        return Poly(acc)

    return rule


def convolve(f: MultiplicativeFunction,
             g: MultiplicativeFunction) -> MultiplicativeFunction:
    """Dirichlet convolution f*g, computed symbolically at prime powers."""
    return MultiplicativeFunction(f"{f.name}*{g.name}", _conv_rule(f, g))


def square_conv(f: MultiplicativeFunction) -> MultiplicativeFunction:
    """The square convolution f*f under its canonical name sq(f)."""
    return MultiplicativeFunction(f"sq({f.name})", _conv_rule(f, f))


def convolve_bruteforce(f: MultiplicativeFunction, g: MultiplicativeFunction,
                        a: Poly) -> Poly:
    """(f*g)(a) as the literal sum over all divisors d of f(d) g(a/d)."""
    if a.bits == 0:
        raise ValueError("convolution is undefined at 0")
    fact = factor(a)
    fvals = _products([(p, range(e + 1)) for p, e in fact],
                      lambda p, j: f.at_prime_power(p, j).bits)
    gvals = _products([(p, range(e, -1, -1)) for p, e in fact],
                      lambda p, j: g.at_prime_power(p, j).bits)
    acc = 0
    for fd, gq in zip(fvals, gvals):
        acc ^= _mul_bits(fd, gq)
    return Poly(acc)


def inverse(f: MultiplicativeFunction) -> MultiplicativeFunction:
    """Dirichlet inverse: the unique multiplicative g with f*g = delta.

    At prime powers the inverse satisfies the characteristic-2 recursion
    g(P^r) = sum over l < r of g(P^l) f(P^(r-l)), with g(P) = f(P).
    """
    inv = MultiplicativeFunction(f"inv({f.name})", None)

    def rule(prime: Poly, r: int) -> Poly:
        acc = 0
        for l in range(r):
            acc ^= _mul_bits(
                inv.at_prime_power(prime, l).bits,
                f.at_prime_power(prime, r - l).bits,
            )
        return Poly(acc)

    inv._rule = rule
    return inv


def pointwise_mul(f: MultiplicativeFunction,
                  g: MultiplicativeFunction) -> MultiplicativeFunction:
    """The pointwise product, which is again multiplicative."""

    def rule(prime: Poly, r: int) -> Poly:
        return f.at_prime_power(prime, r) * g.at_prime_power(prime, r)

    return MultiplicativeFunction(
        f"ptmul({f.name},{g.name})",
        rule,
        totally_multiplicative=f.totally_multiplicative and g.totally_multiplicative,
    )


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
