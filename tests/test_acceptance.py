"""Acceptance suite: ten end-to-end criteria, one PASS/FAIL line each.

Each criterion states an exact (bitmask-equality) property of the whole
engine; a few also carry generous wall-clock budgets.  Expensive
artifacts (the full lemma grid, the degree-16 search, the degree-40 odd
scan, the corollary suite) are computed once in session fixtures and
shared between their primary criterion and the determinism criterion.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

import gf2mf
from gf2mf.factorize import factor, irreducibles_up_to
from gf2mf.gf2poly import ONE, Poly, ZERO, conjugate, sqrt_if_square
from gf2mf.identities import check_all, corollary_suite
from gf2mf.multfun import (
    BUILTINS,
    convolve,
    convolve_bruteforce,
    delta,
    ident,
    inverse,
    mu,
    phi,
    sigma,
    sigma_star,
    square_conv,
    z,
)
from gf2mf.perfect import odd_square_scan, search_fixed_points, verify_perfect

B = Poly("x^2+x")

# The directory gf2mf is imported from, for fresh subprocesses.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(gf2mf.__file__)))

LEMMA_GRID_BUDGET_S = 60.0
SEARCH_BUDGET_S = 300.0
ODD_SCAN_BUDGET_S = 300.0


@pytest.fixture
def criterion(request):
    @contextmanager
    def _criterion(number, label):
        try:
            yield
        except BaseException:
            _record(request.config, f"ACCEPTANCE {number} {label}: FAIL")
            raise
        _record(request.config, f"ACCEPTANCE {number} {label}: PASS")

    return _criterion


def _record(config, line):
    print(line)
    config.acceptance_lines.append(line)


def _timed(fn):
    start = time.monotonic()
    result = fn()
    return result, time.monotonic() - start


def _random_polys(count, max_deg, seed):
    rng = random.Random(seed)
    return [Poly(rng.randrange(1, 1 << (max_deg + 1))) for _ in range(count)]


@pytest.fixture(scope="session")
def lemma_grid():
    return _timed(lambda: check_all(5, 10))


@pytest.fixture(scope="session")
def search16():
    return _timed(lambda: search_fixed_points(16))


@pytest.fixture(scope="session")
def odd40():
    return _timed(lambda: odd_square_scan(40, sample_rejected=1000))


@pytest.fixture(scope="session")
def corollaries():
    return _timed(lambda: corollary_suite())


def test_criterion_01_lemma_grid(criterion, lemma_grid):
    summary, elapsed = lemma_grid
    with criterion(1, "closed-form lemma grid deg<=5 m<=10"):
        assert len(irreducibles_up_to(5)) == 14
        assert summary.checked == 37 * 14 * 11
        assert summary.all_passed(), summary.render()
        assert elapsed < LEMMA_GRID_BUDGET_S


def test_criterion_02_oracle_equivalence(criterion):
    with criterion(2, "symbolic vs brute-force convolution"):
        points = _random_polys(200, 16, seed=0xACCE02)
        for f in BUILTINS.values():
            for g in BUILTINS.values():
                symbolic = convolve(f, g)
                for a in points:
                    assert symbolic(a) == convolve_bruteforce(f, g, a)


def test_criterion_03_mobius_inversion(criterion):
    with criterion(3, "Mobius inversion round-trip"):
        points = _random_polys(200, 16, seed=0xACCE03)
        for f in (delta, mu, phi, sigma, sigma_star, ident):
            g = convolve(f, z)
            back = convolve(g, mu)
            for a in points:
                assert back(a) == f(a)
            h = convolve(f, mu)
            forward = convolve(h, z)
            for a in points:
                assert forward(a) == f(a)


def test_criterion_04_inverse_laws(criterion):
    with criterion(4, "Dirichlet inverse laws on prime powers"):
        primes = irreducibles_up_to(4)
        assert len(primes) == 8
        funcs = list(BUILTINS.values())
        for f in funcs:
            f_inv = inverse(f)
            unit = convolve(f, f_inv)
            double = inverse(f_inv)
            for p in primes:
                for m in range(11):
                    point = p**m
                    assert unit(point) == delta(point)
                    assert double(point) == f(point)
        for f in funcs:
            for g in funcs:
                lhs = inverse(convolve(f, g))
                rhs = convolve(inverse(f), inverse(g))
                for p in primes:
                    for m in range(11):
                        assert lhs.at_prime_power(p, m) == \
                            rhs.at_prime_power(p, m)


def test_criterion_05_perfect_rediscovery(criterion, search16):
    results, elapsed = search16
    with criterion(5, "exhaustive perfect search to degree 16"):
        found = {r.polynomial for r in results}
        for n in (1, 2, 3):
            assert B ** (2**n - 1) in found
        assert Poly("x^5+x^2") in found
        assert Poly("x^5+x^4+x^2+x") in found
        for a in found:
            assert conjugate(a) in found
            assert verify_perfect(a)
            assert sigma(a) == a
        assert elapsed < SEARCH_BUDGET_S


def test_criterion_06_odd_scan_empty(criterion, odd40):
    report, elapsed = odd40
    with criterion(6, "odd square scan to degree 40"):
        assert report.hits == []
        assert report.candidates == report.filter_rejected + \
            report.full_checked
        sample = report.rejected_sample
        assert len(sample) == 1000
        for a in sample:
            assert a.degree % 2 == 0 and a.degree <= 40
            assert sigma(a) != a
        assert elapsed < ODD_SCAN_BUDGET_S


def test_criterion_07_corollary_suite(criterion, corollaries):
    summary, _ = corollaries
    with criterion(7, "generalized corollary suite"):
        assert summary.checked == 9720
        assert summary.all_passed(), summary.render()


def test_criterion_08_fixed_point_characterization(criterion):
    with criterion(8, "square-convolution fixed points deg<=12"):
        for f in (sigma, sigma_star, ident):
            doubled = square_conv(f)
            fixed_squares = 0
            for bits in range(2, 1 << 13):
                a = Poly(bits)
                root = sqrt_if_square(a)
                predicted = root is not None and f(root) == root
                actual = doubled(a) == a
                assert actual == predicted, (f.name, a)
                fixed_squares += predicted
            assert fixed_squares > 0


def test_criterion_09_convolution_separation(criterion):
    with criterion(9, "sigma*sigma vs sigma*id at x^2+x"):
        assert convolve_bruteforce(sigma, sigma, B) == ZERO
        assert convolve_bruteforce(sigma, ident, B) == ONE
        assert ZERO != ONE


# Run in a fresh interpreter, so no rerun can reuse the irreducible
# lists, prime-power values or any other cache that the first runs filled.
_RERUN = """
import json
from gf2mf.identities import check_all, corollary_suite
from gf2mf.perfect import odd_square_scan, search_fixed_points
print(json.dumps({
    "grid": check_all(5, 10, jobs=4).render(include_passes=True),
    "suite": corollary_suite(jobs=4).render(include_passes=True),
    "search": [r.line() for r in search_fixed_points(16, jobs=4)],
    "odd": repr(odd_square_scan(40, sample_rejected=1000, jobs=3)),
    "odd36": [repr(odd_square_scan(36, unitary, sample_rejected=1000))
              for unitary in (False, True)],
}))
"""

# sha256 of repr(odd_square_scan(36, unitary, sample_rejected=1000)) for
# unitary False and True, from the scan whose walk yielded every
# candidate to a separate tally loop.
ODD_SCAN_36_SHA256 = [
    "8870261167b7ce22dc0e0b999e23735725edc7f7f6a636922c0bfe451bdecc80",
    "c0eb935a8b00072ac1a8d8cd0f716373bdd8158d18fc32069e02dbe5f398c1b2",
]


def test_criterion_10_determinism(criterion, lemma_grid, search16, odd40,
                                  corollaries):
    # Threaded reruns double as the repeat-run check: each artifact is
    # recomputed from scratch and must render byte-identically.
    with criterion(10, "byte-identical reports across jobs"):
        rerun = subprocess.run(
            [sys.executable, "-c", _RERUN],
            env={**os.environ, "PYTHONPATH": _SRC}, capture_output=True,
            text=True, check=True,
            timeout=LEMMA_GRID_BUDGET_S + SEARCH_BUDGET_S + ODD_SCAN_BUDGET_S,
        )
        fresh = json.loads(rerun.stdout)
        assert fresh["grid"] == lemma_grid[0].render(include_passes=True)
        assert fresh["suite"] == corollaries[0].render(include_passes=True)
        assert fresh["search"] == [r.line() for r in search16[0]]
        assert fresh["odd"] == repr(odd40[0])
        assert [hashlib.sha256(r.encode()).hexdigest()
                for r in fresh["odd36"]] == ODD_SCAN_36_SHA256
