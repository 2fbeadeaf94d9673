"""Exact algebra of multiplicative functions over F2[x].

Polynomials are integer bitmasks (bit i is the coefficient of x^i), so
all arithmetic is exact and addition is XOR.  On top of the ring sit
complete factorization, divisor-lattice enumeration, multiplicative
functions with Dirichlet convolution and inversion, a registry of
machine-checked closed-form identities, and searches for fixed points
of the divisor-sum functions.
"""

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
from .multfun import (
    BUILTINS,
    MultiplicativeFunction,
    builtin,
    convolve,
    convolve_bruteforce,
    delta,
    evaluate,
    ident,
    inverse,
    mu,
    parse_expression,
    phi,
    pointwise_add,
    pointwise_mul,
    sigma,
    sigma_star,
    square_conv,
    z,
)
from .identities import (
    CheckSummary,
    CorollarySpec,
    IdentityReport,
    LemmaSpec,
    check_all,
    check_corollaries,
    check_lemma,
    corollary_registry,
    corollary_suite,
    registry,
)
from .perfect import (
    OddFilterReport,
    ScanReport,
    SearchResult,
    classify,
    odd_perfect_filter,
    odd_square_scan,
    search_fixed_points,
    trivial_form,
    verify_perfect,
)

__version__ = "0.1.0"
