"""The package namespace: every exported name, eager or loaded on first use.

Each check runs in a fresh interpreter, so no earlier test has loaded the
modules whose names the package serves lazily.
"""

import json

import pytest

import gf2mf

# Every public name `import gf2mf` offered before the lazy exports: the
# submodules bound on the package, and the names of each module.  The
# name divisors is the function, not the module.
SUBMODULES = ["gf2poly", "factorize", "multfun", "identities", "perfect"]
EXPORTS = {
    "gf2poly": [
        "ONE", "Poly", "PolyParseError", "X", "X1", "ZERO", "add",
        "conjugate", "divrem", "gcd", "mul", "power", "sqrt_if_square",
    ],
    "factorize": [
        "Factorization", "MersenneForm", "factor", "irreducibles_up_to",
        "is_irreducible", "mersenne_form", "parity",
    ],
    "divisors": [
        "DIVISOR_LIMIT", "ResourceLimitError", "big_omega", "divisors",
        "is_special", "omega", "radical", "unitary_divisors",
    ],
    "multfun": [
        "BUILTINS", "MultiplicativeFunction", "builtin", "convolve",
        "convolve_bruteforce", "delta", "evaluate", "ident", "inverse", "mu",
        "parse_expression", "phi", "pointwise_add", "pointwise_mul", "sigma",
        "sigma_star", "square_conv", "z",
    ],
    "identities": [
        "CheckSummary", "CorollarySpec", "IdentityReport", "LemmaSpec",
        "check_all", "check_corollaries", "check_lemma", "corollary_registry",
        "corollary_suite", "registry",
    ],
    "perfect": [
        "OddFilterReport", "ScanReport", "SearchResult", "classify",
        "odd_perfect_filter", "odd_square_scan", "search_fixed_points",
        "trivial_form", "verify_perfect",
    ],
}
NAMES = sorted(SUBMODULES + [name for names in EXPORTS.values()
                             for name in names])


def test_every_export_is_the_defining_modules_own_object(fresh_python):
    # Each name is read from the package before its module is imported,
    # so a lazy name goes through the package's first-use path.  A
    # submodule is read as an attribute: `from gf2mf import perfect` would
    # fall back to importing it.
    out = fresh_python(f"""
from importlib import import_module
import gf2mf

def imported(name):
    ns = {{}}
    exec(f"from gf2mf import {{name}}", ns)
    return ns[name]

wrong = [name for name in {SUBMODULES!r}
         if getattr(gf2mf, name) is not import_module("gf2mf." + name)]
wrong += [name for owner, names in {EXPORTS!r}.items() for name in names
          if imported(name) is not getattr(import_module("gf2mf." + owner),
                                           name)]
print(wrong)
""")
    assert out == "[]\n"


def test_divisors_is_the_function_before_and_after_lazy_loads(fresh_python):
    # Importing gf2mf.divisors binds the module to the package attribute;
    # the package rebinds it to the function, and later imports of the
    # module must leave that alone.
    out = fresh_python(
        "import gf2mf, gf2mf.perfect, gf2mf.identities; "
        "from gf2mf.divisors import divisors; "
        "print(gf2mf.divisors is divisors)")
    assert out == "True\n"


def test_star_import_binds_every_export(fresh_python):
    out = fresh_python(
        "import json; ns = {}; exec('from gf2mf import *', ns); "
        "print(json.dumps(sorted(set(ns) - {'__builtins__'})))")
    assert json.loads(out) == NAMES


def test_all_and_dir_list_every_export():
    assert sorted(gf2mf.__all__) == NAMES
    assert set(NAMES) <= set(dir(gf2mf))


def test_unknown_attribute_raises(fresh_python):
    out = fresh_python(
        "import gf2mf\n"
        "try:\n"
        "    gf2mf.frobnicate\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert out == "module 'gf2mf' has no attribute 'frobnicate'\n"
    with pytest.raises(ImportError):
        from gf2mf import frobnicate  # noqa: F401
