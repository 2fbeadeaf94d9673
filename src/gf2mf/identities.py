"""Machine-checkable registry of closed-form convolution identities.

Each LemmaSpec pairs a left-hand side (one derived multiplicative
function, or a pair to convolve) with a closed form at prime powers.
check_lemma evaluates the left side through the brute-force divisor-sum
oracle at P**m and compares it with the closed form exactly; nothing is
trusted symbolically on the checked side.

Each CorollarySpec states a divisor-lattice identity at a whole
polynomial A.  The registered forms do not assume any fixed-point
property of A: sides that classical statements shorten using sigma(A)=A
are kept as computed values, so the identities are checkable on
arbitrary squares and special polynomials today.  Every corollary is
declared as the convolution f*g its id names, over a range of divisors:
its left side is the literal XOR of f(D) g(A/D) over the divisors D the
filter picks (every D, the proper ones, or those other than 1 and A).
Sums over the D with A/D squarefree are convolutions with mu, since in
characteristic 2 mu(Q) is 1 exactly when Q is squarefree, and with
inv(id), since inv(id)(Q) = mu(Q) Q.  The lattice of A factors A once
and tabulates f(D) and g(A/D) once per function, each entry evaluated
multiplicatively at its own divisor; every spec at A shares them, and
its precondition (square, special, nontrivial) reads the lattice's
exponent vector.  A right side of None means the left side must differ
from A: a square convolution equals A exactly when f fixes the square
root of A.  The catalogue is built once, at import.

registry(functions=...) accepts an alternative table of the seven named
functions so tests can corrupt one rule and watch the right lemmas
fail; closed forms always use the true builtins.
"""

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Mapping

from .divisors import _power_bits, _products, radical
from .factorize import factor, irreducibles_up_to, is_irreducible
from .gf2poly import ONE, Poly, ZERO, _mul_bits, _sqrt_bits
from .multfun import (
    BUILTINS,
    MultiplicativeFunction,
    convolve_bruteforce,
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

_BUILTIN_ORDER = ("delta", "z", "id", "mu", "phi", "sigma", "sigma_star")

# Derived functions used on the right-hand side of corollaries.
_SIGMA_INV = inverse(sigma)
_SIGMASTAR_INV = inverse(sigma_star)
_PHI_INV = inverse(phi)
_ID_INV = inverse(ident)

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
    """The XOR of f(D) g(A/D) over the divisors D that where(lattice)
    picks, when applies(lattice), against rhs(a, lattice).

    It passes when the left side equals the right side, or, where that
    is None, when the left side differs from A.  Every callable gets the
    divisor lattice of A, shared by every spec.
    """

    id: str
    applies: Callable[["_Lattice"], bool]
    f: MultiplicativeFunction
    g: MultiplicativeFunction
    where: Callable[["_Lattice"], range]
    rhs: Callable[[Poly, "_Lattice"], "Poly | None"]


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


def _pp(f: MultiplicativeFunction, prime: Poly, r: int) -> Poly:
    return f.at_prime_power(prime, r)


def registry(
    functions: "Mapping[str, MultiplicativeFunction] | None" = None,
) -> list[LemmaSpec]:
    """The fixed lemma catalogue, built over the given function table.

    Left-hand sides come from the table (so a corrupted table makes the
    right lemmas fail); closed forms always use the true builtins.
    """
    table = dict(BUILTINS) if functions is None else dict(functions)
    f_z = table["z"]
    f_id = table["id"]
    f_mu = table["mu"]
    f_phi = table["phi"]
    f_sigma = table["sigma"]
    f_sigmastar = table["sigma_star"]
    inv_id = inverse(f_id)
    inv_phi = inverse(f_phi)
    inv_sigma = inverse(f_sigma)
    inv_sigmastar = inverse(f_sigmastar)

    specs: list[LemmaSpec] = []

    def add(spec_id: str, lhs: str, parts, closed) -> None:
        specs.append(LemmaSpec(spec_id, lhs, tuple(parts), closed))

    # f*f vanishes at odd prime powers and squares f at even ones.
    for name in _BUILTIN_ORDER:

        def closed_square(prime: Poly, m: int, _f=BUILTINS[name]) -> Poly:
            if m % 2:
                return ZERO
            v = _pp(_f, prime, m // 2)
            return v * v

        add(f"squareconv_{name}", f"sq({name})",
            (table[name], table[name]), closed_square)

    # Convolutions of plain builtins.
    add("conv_z_mu", "z*mu", (f_z, f_mu),
        lambda prime, m: ONE if m == 0 else ZERO)
    add("conv_phi_z", "phi*z", (f_phi, f_z),
        lambda prime, m: prime**m)
    add("conv_id_z", "id*z", (f_id, f_z),
        lambda prime, m: _pp(sigma, prime, m))
    add("sigma_mu", "sigma*mu", (f_sigma, f_mu),
        lambda prime, m: prime**m)

    def cf_sigma_z(prime: Poly, m: int) -> Poly:
        s = _pp(sigma, prime, m // 2)
        sq = s * s
        return sq if m % 2 == 0 else prime * sq

    add("sigma_z", "sigma*z", (f_sigma, f_z), cf_sigma_z)

    def cf_sigma_id(prime: Poly, m: int) -> Poly:
        s = _pp(sigma, prime, m // 2)
        return s * s

    add("sigma_id", "sigma*id", (f_sigma, f_id), cf_sigma_id)
    add("sigma_phi", "sigma*phi", (f_sigma, f_phi),
        lambda prime, m: prime**m if m % 2 == 0 else ZERO)

    def cf_sigmastar_mu(prime: Poly, m: int) -> Poly:
        if m == 0:
            return ONE
        if m == 1:
            return prime
        return _pp(phi, prime, m)

    add("sigmastar_mu", "sigma_star*mu", (f_sigmastar, f_mu), cf_sigmastar_mu)

    def cf_sigmastar_z(prime: Poly, m: int) -> Poly:
        s = _pp(sigma, prime, m - (m % 2))
        return s if m % 2 == 0 else prime * s

    add("sigmastar_z", "sigma_star*z", (f_sigmastar, f_z), cf_sigmastar_z)
    add("sigmastar_id", "sigma_star*id", (f_sigmastar, f_id),
        lambda prime, m: _pp(sigma, prime, m - (m % 2)))

    def cf_sigmastar_phi(prime: Poly, m: int) -> Poly:
        if m % 2:
            return ZERO
        return _pp(phi, prime, m) if m else ONE

    add("sigmastar_phi", "sigma_star*phi", (f_sigmastar, f_phi), cf_sigmastar_phi)
    add("sigmastar_sigma", "sigma_star*sigma", (f_sigmastar, f_sigma),
        lambda prime, m: _pp(sigma, prime, m) if m % 2 == 0 else ZERO)

    # Dirichlet inverses and their convolutions.
    def cf_id_inv(prime: Poly, m: int) -> Poly:
        if m == 0:
            return ONE
        return prime if m == 1 else ZERO

    def cf_one_plus_prime(prime: Poly, m: int) -> Poly:
        return ONE if m == 0 else ONE + prime

    add("id_inv", "inv(id)", (inv_id,), cf_id_inv)
    add("idinv_z", "inv(id)*z", (inv_id, f_z), cf_one_plus_prime)
    add("sigma_idinv", "sigma*inv(id)", (f_sigma, inv_id),
        lambda prime, m: ONE)
    add("phi_inv", "inv(phi)", (inv_phi,), cf_one_plus_prime)
    add("sigma_phiinv", "sigma*inv(phi)", (f_sigma, inv_phi),
        lambda prime, m: ONE if m % 2 == 0 else ZERO)

    def cf_sigma_inv(prime: Poly, m: int) -> Poly:
        if m == 0:
            return ONE
        if m == 1:
            return ONE + prime
        return prime if m == 2 else ZERO

    add("sigma_inv", "inv(sigma)", (inv_sigma,), cf_sigma_inv)

    add("sigmainv_z", "inv(sigma)*z", (inv_sigma, f_z), cf_id_inv)
    add("sigmainv_id", "inv(sigma)*id", (inv_sigma, f_id),
        lambda prime, m: ONE if m <= 1 else ZERO)

    def cf_sigmainv_mu(prime: Poly, m: int) -> Poly:
        if m in (1, 3):
            return prime
        return ONE if m in (0, 2) else ZERO

    add("sigmainv_mu", "inv(sigma)*mu", (inv_sigma, f_mu), cf_sigmainv_mu)
    add("sigmastar_sigmainv", "sigma_star*inv(sigma)", (f_sigmastar, inv_sigma),
        lambda prime, m: ONE if m == 0 else (prime if m == 2 else ZERO))

    def cf_sigmastar_inv(prime: Poly, m: int) -> Poly:
        if m == 0:
            return ONE
        if m % 2 == 0:
            return ZERO
        return prime ** (m // 2) * (ONE + prime)

    add("sigmastar_inv", "inv(sigma_star)", (inv_sigmastar,), cf_sigmastar_inv)
    add("sigmastarinv_z", "inv(sigma_star)*z", (inv_sigmastar, f_z),
        lambda prime, m: prime ** (m // 2 + m % 2))
    add("sigmastarinv_id", "inv(sigma_star)*id", (inv_sigmastar, f_id),
        lambda prime, m: prime ** (m // 2))

    def cf_sigmastarinv_mu(prime: Poly, m: int) -> Poly:
        if m == 0:
            return ONE
        if m == 1:
            return prime
        half = prime ** ((m - 1) // 2) if m % 2 else prime ** (m // 2 - 1)
        return half * (ONE + prime)

    add("sigmastarinv_mu", "inv(sigma_star)*mu", (inv_sigmastar, f_mu),
        cf_sigmastarinv_mu)
    add("sigma_sigmastarinv", "sigma*inv(sigma_star)", (f_sigma, inv_sigmastar),
        lambda prime, m: prime ** (m // 2) if m % 2 == 0 else ZERO)

    # Convolutions against phi and id that collapse to near-trivial forms.
    add("sigmainv_phi", "inv(sigma)*phi", (inv_sigma, f_phi),
        lambda prime, m: ONE if m in (0, 2) else ZERO)

    def cf_sigmastarinv_phi(prime: Poly, m: int) -> Poly:
        if m % 2:
            return ZERO
        return _pp(phi, prime, m // 2) if m else ONE

    add("sigmastarinv_phi", "inv(sigma_star)*phi", (inv_sigmastar, f_phi),
        cf_sigmastarinv_phi)
    add("phi_id", "phi*id", (f_phi, f_id),
        lambda prime, m: prime ** (m - (m % 2)))

    return specs


def check_lemma(spec: LemmaSpec, prime: Poly, m: int) -> IdentityReport:
    """Check one spec at P**m: brute-force left side vs closed form."""
    if not is_irreducible(prime):
        raise ValueError(f"test point requires an irreducible P, got {prime}")
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    point = prime**m
    if len(spec.parts) == 1:
        got = spec.parts[0](point)
    else:
        got = convolve_bruteforce(spec.parts[0], spec.parts[1], point)
    expected = spec.closed_form(prime, m)
    return IdentityReport(
        kind="lemma",
        spec_id=spec.id,
        point=point,
        prime=prime,
        exponent=m,
        expected=expected,
        got=got,
        passed=expected == got,
    )


def check_all(
    max_prime_deg: int,
    max_exp: int,
    functions: "Mapping[str, MultiplicativeFunction] | None" = None,
    jobs: int = 1,
    spec_ids: "list[str] | None" = None,
) -> CheckSummary:
    """Check every registered lemma on the full (P, m) grid.

    Reports are sorted by (spec id, P, m).  jobs is accepted and
    ignored: the grid is checked serially.
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
    reports = [check_lemma(spec, prime, m) for spec in specs
               for prime in primes for m in range(max_exp + 1)]
    reports.sort(key=lambda r: (r.spec_id, r.prime.bits, r.exponent))
    return CheckSummary(reports)


# --- corollaries over the divisor lattice -----------------------------------


class _Lattice:
    """Exponent-vector view of the divisor lattice of one polynomial.

    Entry n of every list here belongs to the n-th exponent vector in
    counting order: ds and qs hold the divisor D and the codivisor A/D,
    table(f) and cotable(g) hold f(D) and g(A/D).  All come from the
    walker of gf2mf.divisors, the codivisors over reversed exponent rows,
    and each table is built once per function and kept with the lattice.
    root is the square root of A when every exponent is even, else None.
    """

    def __init__(self, a: Poly):
        self.fact = factor(a)
        self.exps = [e for _, e in self.fact]
        self.root = (Poly(_sqrt_bits(a.bits))
                     if all(e % 2 == 0 for e in self.exps) else None)
        self._rows = [(p, range(e + 1)) for p, e in self.fact]
        self._corows = [(p, range(e, -1, -1)) for p, e in self.fact]
        self.ds = _products(self._rows, _power_bits)
        self.qs = _products(self._corows, _power_bits)
        self._fs = {ident: self.ds}
        self._gs = {ident: self.qs}
        self._values: "dict[tuple[MultiplicativeFunction, int], Poly]" = {}

    def vectors(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """Yield (exponents, divisor mask, codivisor mask) in counting order."""
        # itertools.product counts with its last range fastest.
        counts = product(*[range(e + 1) for e in reversed(self.exps)])
        yield from zip((t[::-1] for t in counts), self.ds, self.qs)

    def table(self, f: MultiplicativeFunction) -> list[int]:
        """f(D) for every divisor D, as masks in counting order."""
        if f not in self._fs:
            self._fs[f] = _products(self._rows, _values(f))
        return self._fs[f]

    def cotable(self, g: MultiplicativeFunction) -> list[int]:
        """g(A/D) for every divisor D, as masks in counting order."""
        if g not in self._gs:
            self._gs[g] = _products(self._corows, _values(g))
        return self._gs[g]

    def value(self, f: MultiplicativeFunction, b: Poly) -> Poly:
        """f(b), evaluated by f itself once per (f, b) on this lattice.

        Right sides read this, never table(f), so they stay independent
        of the tables the left sides XOR.
        """
        key = (f, b.bits)
        if key not in self._values:
            self._values[key] = f(b)
        return self._values[key]


def _values(f: MultiplicativeFunction) -> Callable[[Poly, int], int]:
    return lambda p, j: f.at_prime_power(p, j).bits


# Divisor filters: each returns the lattice indices n that a sum runs over.
# Index 0 is the divisor 1 and the last index is A itself.
def _every(lat: _Lattice) -> "range":
    return range(len(lat.ds))


def _mid(lat: _Lattice) -> "range":
    return range(1, len(lat.ds) - 1)


def _proper(lat: _Lattice) -> "range":
    return range(len(lat.ds) - 1)


# Preconditions, read off the exponent vector of A.  A = 1 has none.
def _always(lat: _Lattice) -> bool:
    return True


def _nontrivial(lat: _Lattice) -> bool:
    return bool(lat.exps)


def _square(lat: _Lattice) -> bool:
    return lat.root is not None


def _square_nontrivial(lat: _Lattice) -> bool:
    return bool(lat.exps) and _square(lat)


def _special(lat: _Lattice) -> bool:
    return all(e == 2 for e in lat.exps)


def _special_nontrivial(lat: _Lattice) -> bool:
    return bool(lat.exps) and _special(lat)


def _squareconv_spec(name: str) -> CorollarySpec:
    """f*f at A: A itself when f fixes the root of A, otherwise not A."""
    f = BUILTINS[name]

    def fixed(a: Poly, lat: _Lattice) -> "Poly | None":
        root = lat.root
        return a if root is not None and lat.value(f, root) == root else None

    return CorollarySpec(f"corol_squareconv_{name}", _always, f, f, _every,
                         fixed)


def _sq(p: Poly) -> Poly:
    return p * p


_COROLLARIES: "tuple[CorollarySpec, ...]" = (
    CorollarySpec("corol_sigma_mu", _square,
                  sigma, mu, _mid,
                  lambda a, lat: a + lat.value(sigma, a)),
    CorollarySpec("corol_sigma_z", _special_nontrivial,
                  sigma, z, _mid,
                  lambda a, lat: (lat.value(sigma, a) + ONE
                                  + lat.value(sigma_star, a))),
    CorollarySpec("corol_sigma_id", _square_nontrivial,
                  sigma, ident, _mid,
                  lambda a, lat: (_sq(lat.value(sigma, lat.root))
                                  + lat.value(sigma, a) + a)),
    CorollarySpec("corol_sigma_phi", _square_nontrivial,
                  sigma, phi, _mid,
                  lambda a, lat: a + lat.value(sigma, a) + lat.value(phi, a)),
    CorollarySpec("corol_sigmastar_mu", _square,
                  sigma_star, mu, _every,
                  lambda a, lat: lat.value(phi, a)),
    CorollarySpec("corol_sigmastar_z", _special,
                  sigma_star, z, _every,
                  lambda a, lat: lat.value(sigma, a)),
    CorollarySpec("corol_sigmastar_id", _square_nontrivial,
                  sigma_star, ident, _mid,
                  lambda a, lat: (lat.value(sigma, a) + lat.value(sigma_star, a)
                                  + a)),
    CorollarySpec("corol_sigmastar_phi", _square_nontrivial,
                  sigma_star, phi, _mid,
                  lambda a, lat: lat.value(sigma_star, a)),
    CorollarySpec("corol_sigmastar_sigma", _square_nontrivial,
                  sigma_star, sigma, _mid,
                  lambda a, lat: lat.value(sigma_star, a)),
    *(_squareconv_spec(name) for name in ("sigma", "sigma_star", "id")),
    CorollarySpec("corol_sigma_idinv", _square,
                  sigma, _ID_INV, _proper,
                  lambda a, lat: ONE + lat.value(sigma, a)),
    CorollarySpec("corol_sigma_phiinv", _square_nontrivial,
                  sigma, _PHI_INV, _mid,
                  lambda a, lat: (ONE + lat.value(sigma, a)
                                  + lat.value(sigma, radical(lat.fact)))),
    CorollarySpec("corol_sigmainv_sigma", _nontrivial,
                  _SIGMA_INV, sigma, _mid,
                  lambda a, lat: lat.value(sigma, a) + lat.value(_SIGMA_INV, a)),
    CorollarySpec("corol_sigmainv_id", _special_nontrivial,
                  _SIGMA_INV, ident, _mid,
                  lambda a, lat: a + radical(lat.fact)),
    CorollarySpec("corol_sigmainv_mu", _special_nontrivial,
                  _SIGMA_INV, mu, _mid,
                  lambda a, lat: ONE + radical(lat.fact)),
    CorollarySpec("corol_sigmastarinv_id", _square_nontrivial,
                  _SIGMASTAR_INV, ident, _mid,
                  lambda a, lat: lat.root + a),
    CorollarySpec("corol_sigmastarinv_mu", _special_nontrivial,
                  _SIGMASTAR_INV, mu, _mid,
                  lambda a, lat: lat.value(sigma, radical(lat.fact))),
    CorollarySpec("corol_sigmastarinv_sigma", _square_nontrivial,
                  _SIGMASTAR_INV, sigma, _mid,
                  lambda a, lat: lat.value(sigma, a) + lat.root),
)


def corollary_registry() -> list[CorollarySpec]:
    """The fixed catalogue of divisor-lattice corollaries."""
    return list(_COROLLARIES)


def check_corollaries(a: Poly) -> list[IdentityReport]:
    """Check every corollary at one input; inapplicable ones are skipped."""
    if a.bits == 0:
        raise ValueError("corollaries are undefined at 0")
    reports = []
    lat = _Lattice(a)  # every input has some lattice corollary that applies
    for spec in _COROLLARIES:
        if not spec.applies(lat):
            reports.append(IdentityReport(
                kind="corollary", spec_id=spec.id, point=a, skipped=True,
            ))
            continue
        fs = lat.table(spec.f)
        acc = 0
        if spec.g is z:  # z(A/D) = 1
            for n in spec.where(lat):
                acc ^= fs[n]
        else:
            gs = lat.cotable(spec.g)
            for n in spec.where(lat):
                acc ^= _mul_bits(fs[n], gs[n])
        got = Poly(acc)
        expected = spec.rhs(a, lat)
        passed = got != a if expected is None else got == expected
        reports.append(IdentityReport(
            kind="corollary", spec_id=spec.id, point=a,
            expected=expected, got=got, passed=passed,
        ))
    return reports


def suite_inputs(
    square_count: int = 500,
    square_max_deg: int = 20,
    special_max_deg: int = 12,
    seed: int = 20260817,
) -> list[Poly]:
    """Deterministic corollary-suite inputs: random squares plus all
    special polynomials up to the degree bound."""
    rng = random.Random(seed)
    half = square_max_deg // 2
    roots: set[int] = set()
    while len(roots) < square_count:
        roots.add(rng.randrange(2, 1 << (half + 1)))
    masks = {(Poly(s) ** 2).bits for s in roots}
    for s in range(2, 1 << (special_max_deg // 2 + 1)):
        if all(e == 1 for _, e in factor(Poly(s))):
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

    jobs is accepted and ignored: the inputs are checked serially.
    """
    inputs = suite_inputs(square_count, square_max_deg, special_max_deg, seed)
    reports = [r for a in inputs for r in check_corollaries(a)]
    reports.sort(key=lambda r: (r.spec_id, r.point.bits))
    return CheckSummary(reports)
