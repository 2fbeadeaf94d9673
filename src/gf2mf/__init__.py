"""Exact algebra of multiplicative functions over F2[x].

Polynomials are integer bitmasks (bit i is the coefficient of x^i), so
all arithmetic is exact and addition is XOR.  On top of the ring sit
complete factorization, divisor-lattice enumeration, multiplicative
functions with Dirichlet convolution and inversion, a registry of
machine-checked closed-form identities, and searches for fixed points
of the divisor-sum functions.

The ring, factorization and divisor modules load with the package; the
names from multfun, identities and perfect load their module on first
use, so `import gf2mf` stays cheap for callers that need neither.
"""

from importlib import import_module as _import_module

from .gf2poly import (
    ONE,
    Poly,
    PolyParseError,
    X,
    X1,
    ZERO,
    add,
    conjugate,
    divrem,
    gcd,
    mul,
    power,
    sqrt_if_square,
)
from .factorize import (
    Factorization,
    MersenneForm,
    factor,
    irreducibles_up_to,
    is_irreducible,
    mersenne_form,
    parity,
)
# Loaded eagerly: importing the submodule binds the module to
# gf2mf.divisors, and this import rebinds that name to the function.
from .divisors import (
    DIVISOR_LIMIT,
    ResourceLimitError,
    big_omega,
    divisors,
    is_special,
    omega,
    radical,
    unitary_divisors,
)

# Names of the heavier modules, served on first use (PEP 562) so that a
# CLI call imports only what its subcommand runs.  Each name maps to the
# module that defines it; a module's own name serves the module.
_LAZY = {
    **dict.fromkeys((
        "multfun", "BUILTINS", "MultiplicativeFunction", "builtin",
        "convolve", "convolve_bruteforce", "delta", "evaluate", "ident",
        "inverse", "mu", "parse_expression", "phi", "pointwise_add",
        "pointwise_mul", "sigma", "sigma_star", "square_conv", "z"),
        "multfun"),
    **dict.fromkeys((
        "identities", "CheckSummary", "CorollarySpec", "IdentityReport",
        "LemmaSpec", "check_all", "check_corollaries", "check_lemma",
        "corollary_registry", "corollary_suite", "registry"), "identities"),
    **dict.fromkeys((
        "perfect", "ScanReport", "SearchResult", "classify",
        "odd_square_scan", "search_fixed_points", "trivial_form",
        "verify_perfect"), "perfect"),
}

__all__ = [name for name in globals() if not name.startswith("_")] + [*_LAZY]


def __getattr__(name: str):
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{owner}", __name__)
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> "list[str]":
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
