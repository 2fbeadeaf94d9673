"""Machine-checkable registry of closed-form convolution identities.

Each LemmaSpec pairs a left-hand side (one derived multiplicative
function, or a pair to convolve) with a closed form at prime powers.
Each closed form h is declared as a row (id, lhs, N, D) of _LEMMAS:
its Bell series, the sum over m of h(P^m) T^m, is N(T) / D(T) (Apostol,
Introduction to Analytic Number Theory, 1976, 2.16), and closed_form(P,
m) is coefficient m.  The tests prove every row exactly from the
builtins' series: N_f N_g D_h = N_h D_f D_g in F2[P][T].  check_lemma
reads P**m off its lattice, the point's only source and its check, as
a lattice that does not factor as P**m is refused; a pair's convolution
is the oracle's one xor_sum off that lattice, compared with the closed
form exactly.  check_all shares one lattice per point (P, m)
across its specs, so each function is walked once per point, its table
keyed by the function, and a corrupted function fails only the specs
that read it.  The four single-function specs (id_inv, phi_inv,
sigma_inv, sigmastar_inv) are evaluated by the inverse's own recursion;
their defining law f * inv(f) = delta is checked through the oracle in
the tests.

Each CorollarySpec states a divisor-lattice identity at a whole
polynomial A.  The registered forms do not assume any fixed-point
property of A: sides that classical statements shorten using sigma(A)=A
are kept as computed values, so the identities are checkable on
arbitrary squares and special polynomials today.  Each corollary is a
row (id, shape, nontrivial, f, g, span, rhs) of _COROLLARIES, read by
one checker.  Its left side is the literal XOR of f(D) g(A/D) over the
divisors D its span picks (every D, the proper ones, or those other
than 1 and A).  Its right side is the XOR of its terms, each a function
(or none) at A, its square root, its radical or 1.  Sums over the D
with A/D squarefree are convolutions with mu, since in characteristic 2
mu(Q) is 1 exactly when Q is squarefree, and with inv(id), since
inv(id)(Q) = mu(Q) Q.  The lattice of A is the oracle's own,
multfun._Lattice: it factors A once and walks each function once, each
entry evaluated multiplicatively at its own divisor, and reads g(A/D)
off g's table at the complement index.  A left side is the lattice's
xor_sum over the span, the oracle's one sum, on lane values within the
lattice's lane bound.  Every spec at A shares the tables, and its
precondition (shape and nontrivial) looks up A's shape flags, read
once off the exponent vector.  check_corollaries reads the root and
radical of A off that vector, each exponent halved for the root and
set to 1 for the radical, so nothing past A is factored.  A right side
evaluates each f(b) itself, once per input, through f's own rows over
b's factorization (MultiplicativeFunction.at_factors), never off a
lattice table, so it stays independent of the tables the left sides
XOR.  A right side of None means the left side must
differ from A: a square convolution equals A exactly when f fixes the
square root of A.  The catalogue is built once, at import.

registry(functions=...) accepts an alternative table of the seven named
functions so tests can corrupt one step and watch the right lemmas
fail; closed forms read no table.
"""

import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Mapping

from .divisors import radical
from .factorize import _derivative_bits, _factor_bits, irreducibles_up_to
from .gf2poly import (ONE, Poly, ZERO, _compose_bits, _gcd_bits, _mul_bits,
                      _sqrt_bits)
from .multfun import (
    BUILTINS,
    MultiplicativeFunction,
    _Lattice,
    ident,
    inverse,
    mu,
    phi,
    sigma,
    sigma_star,
    z,
)

__all__ = [
    "LemmaSpec",
    "CorollarySpec",
    "IdentityReport",
    "CheckSummary",
    "registry",
    "corollary_registry",
    "check_lemma",
    "check_all",
    "check_corollaries",
    "corollary_suite",
]

# Derived functions used on the right-hand side of corollaries.
_SIGMA_INV = inverse(sigma)
_SIGMASTAR_INV = inverse(sigma_star)
_PHI_INV = inverse(phi)
_ID_INV = inverse(ident)

# A factorization as (prime mask, exponent) pairs, primes distinct.
_Pairs = list[tuple[int, int]]

# Every check runs serially.  This name stays, unused, because
# perfbench/tracer.py rebinds it when it installs.
ThreadPoolExecutor = None


@dataclass(frozen=True)
class LemmaSpec:
    """One prime-power identity: lhs (1 or 2 functions) vs a closed form."""

    id: str
    lhs: str
    parts: tuple[MultiplicativeFunction, ...]
    closed_form: Callable[[Poly, int], Poly]


@dataclass(frozen=True)
class CorollarySpec:
    """The XOR of f(D) g(A/D) over the divisors D in span, at an A whose
    exponents have the given shape, against the XOR of the rhs terms.

    shape is "any", "square" (every exponent even) or "special" (every
    exponent 2); nontrivial also skips A = 1.  span is "every", "mid"
    (not 1 or A) or "proper" (not A).  A term is (h, arg) or (h, arg, 2):
    arg is "A", "root", "rad" or "1", the term's value is the argument
    itself when h is None and h of it otherwise, and a trailing 2 squares
    it.  The spec passes when the two sides are equal; where rhs is None
    (a square convolution) the right side is A when f fixes the root of
    A, and otherwise the left side must differ from A.
    """

    id: str
    shape: str
    nontrivial: bool
    f: MultiplicativeFunction
    g: MultiplicativeFunction
    span: str
    rhs: "tuple[tuple, ...] | None"


@dataclass(slots=True)
class IdentityReport:
    """Outcome of one check at one test point."""

    kind: str  # "lemma" | "corollary"
    spec_id: str
    point: Poly
    prime: "Poly | None" = None
    exponent: "int | None" = None
    expected: "Poly | None" = None
    got: "Poly | None" = None
    passed: bool = False
    skipped: bool = False

    def line(self) -> str:
        if self.kind == "lemma":
            head = f"LEMMA {self.spec_id} P={self.prime} m={self.exponent}"
        else:
            head = f"COROLLARY {self.spec_id} A={self.point}"
        if self.skipped:
            return f"{head} SKIP"
        if self.passed:
            return f"{head} OK"
        if self.expected is None:
            return f"{head} FAIL expected!={self.point} got={self.got}"
        return f"{head} FAIL expected={self.expected} got={self.got}"


@dataclass
class CheckSummary:
    """An ordered batch of reports with pass/fail accounting."""

    reports: list[IdentityReport] = field(default_factory=list)

    @property
    def checked(self) -> int:
        return sum(1 for r in self.reports if not r.skipped)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.reports if not r.skipped and r.passed)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.reports if r.skipped)

    def failures(self) -> list[IdentityReport]:
        return [r for r in self.reports if not r.skipped and not r.passed]

    def all_passed(self) -> bool:
        return not self.failures()

    def status_line(self) -> str:
        return f"PASS {self.passed}/{self.checked}"

    def render(self, include_passes: bool = False) -> str:
        lines = [
            r.line()
            for r in self.reports
            if include_passes or (not r.passed and not r.skipped)
        ]
        lines.append(self.status_line())
        return "\n".join(lines)


# Rows (id, lhs, N, D): N and D are coefficient tuples in T, lowest
# first, whose entries are masks in P (bit j is P^j); D starts with 1.
_LEMMAS: "tuple[tuple[str, str, tuple[int, ...], tuple[int, ...]], ...]" = (
    # sq(f): the series of f in T^2, each coefficient squared.
    ("squareconv_delta", "sq(delta)", (1,), (1,)),
    ("squareconv_z", "sq(z)", (1,), (1, 0, 1)),
    ("squareconv_id", "sq(id)", (1,), (1, 0, 0b100)),
    ("squareconv_mu", "sq(mu)", (1, 0, 1), (1,)),
    ("squareconv_phi", "sq(phi)", (1, 0, 1), (1, 0, 0b100)),
    ("squareconv_sigma", "sq(sigma)", (1,), (1, 0, 0b101, 0, 0b100)),
    ("squareconv_sigma_star", "sq(sigma_star)",
     (1, 0, 0, 0, 0b100), (1, 0, 0b101, 0, 0b100)),
    # Convolutions of plain builtins.
    ("conv_z_mu", "z*mu", (1,), (1,)),
    ("conv_phi_z", "phi*z", (1,), (1, 0b10)),
    ("conv_id_z", "id*z", (1,), (1, 0b11, 0b10)),
    ("sigma_mu", "sigma*mu", (1,), (1, 0b10)),
    ("sigma_z", "sigma*z", (1,), (1, 0b10, 1, 0b10)),
    ("sigma_id", "sigma*id", (1,), (1, 1, 0b100, 0b100)),
    ("sigma_phi", "sigma*phi", (1,), (1, 0, 0b100)),
    ("sigmastar_mu", "sigma_star*mu", (1, 0, 0b10), (1, 0b10)),
    ("sigmastar_z", "sigma_star*z", (1, 0, 0b10), (1, 0b10, 1, 0b10)),
    ("sigmastar_id", "sigma_star*id", (1, 0, 0b10), (1, 1, 0b100, 0b100)),
    ("sigmastar_phi", "sigma_star*phi", (1, 0, 0b10), (1, 0, 0b100)),
    ("sigmastar_sigma", "sigma_star*sigma",
     (1, 0, 0b10), (1, 0, 0b101, 0, 0b100)),
    # Dirichlet inverses and their convolutions.
    ("id_inv", "inv(id)", (1, 0b10), (1,)),
    ("idinv_z", "inv(id)*z", (1, 0b10), (1, 1)),
    ("sigma_idinv", "sigma*inv(id)", (1,), (1, 1)),
    ("phi_inv", "inv(phi)", (1, 0b10), (1, 1)),
    ("sigma_phiinv", "sigma*inv(phi)", (1,), (1, 0, 1)),
    ("sigma_inv", "inv(sigma)", (1, 0b11, 0b10), (1,)),
    ("sigmainv_z", "inv(sigma)*z", (1, 0b10), (1,)),
    ("sigmainv_id", "inv(sigma)*id", (1, 1), (1,)),
    ("sigmainv_mu", "inv(sigma)*mu", (1, 0b10, 1, 0b10), (1,)),
    ("sigmastar_sigmainv", "sigma_star*inv(sigma)", (1, 0, 0b10), (1,)),
    ("sigmastar_inv", "inv(sigma_star)", (1, 0b11, 0b10), (1, 0, 0b10)),
    ("sigmastarinv_z", "inv(sigma_star)*z", (1, 0b10), (1, 0, 0b10)),
    ("sigmastarinv_id", "inv(sigma_star)*id", (1, 1), (1, 0, 0b10)),
    ("sigmastarinv_mu", "inv(sigma_star)*mu",
     (1, 0b10, 1, 0b10), (1, 0, 0b10)),
    ("sigma_sigmastarinv", "sigma*inv(sigma_star)", (1,), (1, 0, 0b10)),
    ("sigmainv_phi", "inv(sigma)*phi", (1, 0, 1), (1,)),
    ("sigmastarinv_phi", "inv(sigma_star)*phi", (1, 0, 1), (1, 0, 0b10)),
    ("phi_id", "phi*id", (1, 1), (1, 0, 0b100)),
)


class _BellSeries:
    """closed_form(prime, m): coefficient m of N(T) / D(T) at P = prime.

    It runs h_k = N_k + (the sum over j >= 1 of D_j h_(k-j)) and keeps
    only the last len(D) coefficients, so memory stays linear in m.  A
    call at the same prime and an exponent no smaller than the last
    resumes where that call stopped, as the (P, m) grid asks.
    """

    __slots__ = ("num", "den", "_prime", "_k", "_ns", "_ds", "_window")

    def __init__(self, num: "tuple[int, ...]", den: "tuple[int, ...]"):
        self.num, self.den, self._prime = num, den, None

    def __call__(self, prime: Poly, m: int) -> Poly:
        p = prime.bits
        if p != self._prime or m + 1 < self._k:
            self._prime, self._k = p, 0
            self._ns = [_compose_bits(c, p) for c in self.num]
            self._ds = [(j, _compose_bits(c, p))
                        for j, c in enumerate(self.den) if j and c]
            self._window = [0] * len(self.den)
        ns, ds, window, k = self._ns, self._ds, self._window, self._k
        while k <= m:
            h = ns[k] if k < len(ns) else 0
            for j, d in ds:
                h ^= _mul_bits(d, window[-j])
            window.append(h)
            del window[0]
            k += 1
        self._k = k
        h = window[-1]
        return ZERO if h == 0 else ONE if h == 1 else Poly(h)


def registry(
    functions: "Mapping[str, MultiplicativeFunction] | None" = None,
) -> list[LemmaSpec]:
    """The fixed lemma catalogue, built over the given function table.

    Each spec's parts are read off its lhs, from the table (so a
    corrupted table makes the right lemmas fail): sq(f) gives (f, f),
    a*b gives (a, b), and inv(f) is one inverse per call, shared by
    every spec that names it, so they share its prime-power rows.
    Closed forms are the declared series and read no table.
    """
    table = BUILTINS if functions is None else functions
    inverses: dict[str, MultiplicativeFunction] = {}

    def term(name: str) -> MultiplicativeFunction:
        if not name.startswith("inv("):
            return table[name]
        name = name[4:-1]
        if name not in inverses:
            inverses[name] = inverse(table[name])
        return inverses[name]

    def parts(lhs: str) -> tuple[MultiplicativeFunction, ...]:
        names = [lhs[3:-1]] * 2 if lhs.startswith("sq(") else lhs.split("*")
        return tuple(map(term, names))

    return [LemmaSpec(spec_id, lhs, parts(lhs), _BellSeries(num, den))
            for spec_id, lhs, num, den in _LEMMAS]


def check_lemma(spec: LemmaSpec, prime: Poly, m: int, *,
                lattice: "_Lattice | None" = None) -> IdentityReport:
    """Check one spec at P**m: its left side vs its closed form.

    The lattice, by default a fresh one of P**m, is the point's only
    source and its check: a given one must factor exactly as P**m (as 1
    at m = 0).  P is checked through factor()'s cache.  A pair's left
    side is the oracle's one xor_sum, read off the lattice.
    """
    if prime.bits < 2 or _factor_bits(prime.bits) != ((prime.bits, 1),):
        raise ValueError(f"test point requires an irreducible P, got {prime}")
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if lattice is None:
        lattice = _Lattice(prime**m)
    elif lattice._primes != ([(prime.bits, m)] if m else []):
        raise ValueError(f"lattice {lattice.poly} is not at P={prime} m={m}")
    point = lattice.poly
    if len(spec.parts) == 1:
        got = spec.parts[0](point)
    else:
        got = Poly(lattice.xor_sum(*spec.parts))
    expected = spec.closed_form(prime, m)
    return IdentityReport("lemma", spec.id, point, prime, m, expected, got,
                          expected == got)


def check_all(
    max_prime_deg: int,
    max_exp: int,
    functions: "Mapping[str, MultiplicativeFunction] | None" = None,
    jobs: int = 1,
    spec_ids: "list[str] | None" = None,
) -> CheckSummary:
    """Check every registered lemma on the full (P, m) grid.

    The grid runs point by point: one lattice of P**m per point, which
    every spec at that point reads, so each function is walked once per
    point.  Reports are ordered by (spec id, P, m): the grid yields them
    with P and m ascending, so one stable sort on spec id alone orders
    them.  jobs is accepted and ignored: the grid is checked serially.
    """
    if max_exp < 0:
        raise ValueError("max_exp must be nonnegative")
    specs = registry(functions)
    if spec_ids is not None:
        by_id = {s.id: s for s in specs}
        unknown = [i for i in spec_ids if i not in by_id]
        if unknown:
            raise ValueError(f"unknown lemma id(s): {', '.join(unknown)}")
        specs = [by_id[i] for i in spec_ids]
    primes = irreducibles_up_to(max_prime_deg)
    reports = []
    for prime in primes:
        for m in range(max_exp + 1):
            lattice = _Lattice(prime**m)
            reports += [check_lemma(spec, prime, m, lattice=lattice)
                        for spec in specs]
    reports.sort(key=attrgetter("spec_id"))
    return CheckSummary(reports)


# --- corollaries over the divisor lattice -----------------------------------


# A span's divisor indices are range(first, lat.size - last): index 0 is
# the divisor 1 and the last index is A itself.
_SPANS = {"every": (0, 0), "mid": (1, 1), "proper": (0, 1)}

_COROLLARIES: "tuple[CorollarySpec, ...]" = tuple(CorollarySpec(*r) for r in (
    ("corol_sigma_mu", "square", False, sigma, mu, "mid",
     ((None, "A"), (sigma, "A"))),
    ("corol_sigma_z", "special", True, sigma, z, "mid",
     ((sigma, "A"), (None, "1"), (sigma_star, "A"))),
    ("corol_sigma_id", "square", True, sigma, ident, "mid",
     ((sigma, "root", 2), (sigma, "A"), (None, "A"))),
    ("corol_sigma_phi", "square", True, sigma, phi, "mid",
     ((None, "A"), (sigma, "A"), (phi, "A"))),
    ("corol_sigmastar_mu", "square", False, sigma_star, mu, "every",
     ((phi, "A"),)),
    ("corol_sigmastar_z", "special", False, sigma_star, z, "every",
     ((sigma, "A"),)),
    ("corol_sigmastar_id", "square", True, sigma_star, ident, "mid",
     ((sigma, "A"), (sigma_star, "A"), (None, "A"))),
    ("corol_sigmastar_phi", "square", True, sigma_star, phi, "mid",
     ((sigma_star, "A"),)),
    ("corol_sigmastar_sigma", "square", True, sigma_star, sigma, "mid",
     ((sigma_star, "A"),)),
    ("corol_squareconv_sigma", "any", False, sigma, sigma, "every", None),
    ("corol_squareconv_sigma_star", "any", False, sigma_star, sigma_star,
     "every", None),
    ("corol_squareconv_id", "any", False, ident, ident, "every", None),
    ("corol_sigma_idinv", "square", False, sigma, _ID_INV, "proper",
     ((None, "1"), (sigma, "A"))),
    ("corol_sigma_phiinv", "square", True, sigma, _PHI_INV, "mid",
     ((None, "1"), (sigma, "A"), (sigma, "rad"))),
    ("corol_sigmainv_sigma", "any", True, _SIGMA_INV, sigma, "mid",
     ((sigma, "A"), (_SIGMA_INV, "A"))),
    ("corol_sigmainv_id", "special", True, _SIGMA_INV, ident, "mid",
     ((None, "A"), (None, "rad"))),
    ("corol_sigmainv_mu", "special", True, _SIGMA_INV, mu, "mid",
     ((None, "1"), (None, "rad"))),
    ("corol_sigmastarinv_id", "square", True, _SIGMASTAR_INV, ident, "mid",
     ((None, "root"), (None, "A"))),
    ("corol_sigmastarinv_mu", "special", True, _SIGMASTAR_INV, mu, "mid",
     ((sigma, "rad"),)),
    ("corol_sigmastarinv_sigma", "square", True, _SIGMASTAR_INV, sigma,
     "mid", ((sigma, "A"), (None, "root"))),
))


def _arguments(lat: _Lattice) -> "dict[str, tuple[Poly, _Pairs] | None]":
    """Each right-side argument of A by name ("A", "root", "rad", "1"):
    the polynomial and its factorization as (prime mask, exponent)
    pairs, both read off A's lattice with nothing factored.  The root
    halves A's exponents and the radical sets them to 1; "root" is None
    when A is not a square."""
    a, primes = lat.poly, lat._primes
    root = None
    if not any(e % 2 for e in lat.exps):
        root = Poly(_sqrt_bits(a.bits)), [(p, e // 2) for p, e in primes]
    return {"A": (a, primes), "root": root,
            "rad": (radical(lat.fact), [(p, 1) for p, _ in primes]),
            "1": (ONE, [])}


def _right_side(spec: CorollarySpec,
                args: "dict[str, tuple[Poly, _Pairs] | None]",
                value: Callable) -> "Poly | None":
    """The XOR of the spec's terms, each argument read off args by name
    and the mask of each f(b) off value(f, name).  A square convolution
    (rhs None) expects A when f fixes the root of A, and otherwise None."""
    if spec.rhs is None:
        root = args["root"]
        if root is not None and value(spec.f, "root") == root[0].bits:
            return args["A"][0]
        return None
    total = 0
    for term in spec.rhs:
        h, name = term[0], term[1]
        arg = args[name][0].bits if h is None else value(h, name)
        if len(term) > 2:
            arg = _mul_bits(arg, arg)
        total ^= arg
    return Poly(total)


def corollary_registry() -> list[CorollarySpec]:
    """The fixed catalogue of divisor-lattice corollaries."""
    return list(_COROLLARIES)


def check_corollaries(a: Poly) -> list[IdentityReport]:
    """Check every corollary at one input; inapplicable ones are skipped.
    A's shape flags are read once off its exponent vector, and each
    precondition looks its shape up in them."""
    if a.bits == 0:
        raise ValueError("corollaries are undefined at 0")
    reports = []
    lat = _Lattice(a)  # every input has some lattice corollary that applies
    args = _arguments(lat)
    exps = lat.exps
    shapes = {"any": True, "square": args["root"] is not None,
              "special": all(e == 2 for e in exps)}
    values: "dict[tuple[MultiplicativeFunction, int], int]" = {}

    def value(f: MultiplicativeFunction, name: str) -> int:
        b, pairs = args[name]
        key = f, b.bits
        if key not in values:
            values[key] = f.at_factors(pairs)
        return values[key]

    for spec in _COROLLARIES:
        if not shapes[spec.shape] or spec.nontrivial and not exps:
            reports.append(IdentityReport("corollary", spec.id, a,
                                          skipped=True))
            continue
        got = Poly(lat.xor_sum(spec.f, spec.g, *_SPANS[spec.span]))
        expected = _right_side(spec, args, value)
        passed = got != a if expected is None else got == expected
        reports.append(IdentityReport("corollary", spec.id, a, None, None,
                                      expected, got, passed))
    return reports


def suite_inputs(
    square_count: int = 500,
    square_max_deg: int = 20,
    special_max_deg: int = 12,
    seed: int = 20260817,
) -> list[Poly]:
    """Deterministic corollary-suite inputs: random squares plus all
    special polynomials up to the degree bound.  The square count and
    both degree bounds must be nonnegative integers."""
    for name, value in (("square_count", square_count),
                        ("square_max_deg", square_max_deg),
                        ("special_max_deg", special_max_deg)):
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, "
                             f"got {value!r}")
    half = square_max_deg // 2
    # The roots are the masks of degree 1..half; drawing more than there
    # are would never end.
    if square_count > (1 << (half + 1)) - 2:
        raise ValueError(
            "square_count exceeds 2^(square_max_deg // 2 + 1) - 2, the "
            "number of roots of degree 1..square_max_deg // 2")
    rng = random.Random(seed)
    roots: set[int] = set()
    while len(roots) < square_count:
        roots.add(rng.randrange(2, 1 << (half + 1)))
    masks = {(Poly(s) ** 2).bits for s in roots}
    for s in range(2, 1 << (special_max_deg // 2 + 1)):
        # s is squarefree exactly when it is prime to its derivative.
        if _gcd_bits(s, _derivative_bits(s)) == 1:
            masks.add((Poly(s) ** 2).bits)
    return [Poly(m) for m in sorted(masks)]


def corollary_suite(
    square_count: int = 500,
    square_max_deg: int = 20,
    special_max_deg: int = 12,
    seed: int = 20260817,
    jobs: int = 1,
) -> CheckSummary:
    """Run every corollary over the deterministic input set.

    Reports are ordered by (spec id, A): the inputs ascend, so one stable
    sort on spec id alone orders them.  jobs is accepted and ignored: the
    inputs are checked serially.
    """
    inputs = suite_inputs(square_count, square_max_deg, special_max_deg, seed)
    reports = [r for a in inputs for r in check_corollaries(a)]
    reports.sort(key=attrgetter("spec_id"))
    return CheckSummary(reports)
