"""The package keeps every name perfbench/tracer.py reads or rebinds.

The tracer wraps gf2mf's functions in place and rebinds a few inert
placeholders (perfect._run_shards, perfect.ThreadPoolExecutor and
identities.ThreadPoolExecutor).  A missing name would only show up as a
failed traced benchmark run, so this installs the tracer, runs small
calls under it and checks that nothing they return changes.
"""

import importlib.util
import os

from gf2mf import factorize, identities, multfun, perfect
from gf2mf.gf2poly import Poly

_TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _calls():
    # Through the module attributes, which are what the tracer rebinds.
    suite = identities.corollary_suite(square_count=5, square_max_deg=6,
                                       special_max_deg=4, jobs=2)
    return {
        # x (x^2+x+1)^3 (x^3+x+1)^2, split as x (x^2+x+1), then x^3+x+1.
        "factor": str(factorize.factor(Poly(0b11011000001110))),
        "odd": perfect.odd_square_scan(12, sample_rejected=3),
        "search": perfect.search_fixed_points(8),
        "grid": identities.check_all(1, 2, jobs=2).render(include_passes=True),
        "suite": suite.render(include_passes=True),
    }


def test_traced_calls_match_untraced_ones():
    untraced = _calls()
    scan = perfect.odd_square_scan
    placeholders = (perfect._run_shards, perfect.ThreadPoolExecutor,
                    identities.ThreadPoolExecutor)
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    # Factor afresh under the tracer, so that every split is seen.
    factorize._factor_bits.cache_clear()
    tracer.install()
    try:
        assert perfect.odd_square_scan is not scan
        traced = _calls()
        snapshot = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert traced == untraced
    counts = snapshot["counts"]
    # The tracer counts search_fixed_points(8) as its 2^9 - 2 masks.
    assert counts["perfect.candidates"] == untraced["odd"].candidates + 510
    assert counts["identities.corollary_checks"] > 0
    # Every squarefree part is split by _factor_squarefree, which is
    # what factorize.ddf_calls counts.
    metrics = tracer_module.layer_metrics(snapshot, 1.0)
    assert metrics["factorize.ddf_calls"] > 0
    # The tracer counts lemma checks as calls of check_lemma, one per point.
    grid = identities.check_all(1, 2)
    lemma_calls = snapshot["agg"]["identities>identities.check_lemma"][0]
    assert lemma_calls == len(grid.reports)
    assert perfect.odd_square_scan is scan
    assert (perfect._run_shards, perfect.ThreadPoolExecutor,
            identities.ThreadPoolExecutor) == placeholders


def test_traced_grid_counts_the_oracle():
    # The tracer wraps identities._Lattice, which is the oracle's class,
    # and counts an oracle call's terms from the factor call the
    # lattice makes inside it.  The lemma grid reads one shared lattice
    # per point and calls no oracle, so the pairs go to it directly.
    assert identities._Lattice is multfun._Lattice
    pairs = [s.parts for s in identities.registry() if len(s.parts) == 2]
    points = [Poly(p) ** m for p in (0b10, 0b11) for m in range(3)]
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for f, g in pairs:
            for a in points:
                multfun.convolve_bruteforce(f, g, a)
        snapshot = tracer.snapshot()
    finally:
        tracer.uninstall()
    metrics = tracer_module.layer_metrics(snapshot, 1.0)
    # 33 two-sided lemmas at x and x+1, m = 0, 1, 2: 1 + 2 + 3 divisors.
    assert metrics["multfun.oracle_calls"] == 33 * 2 * 3 == 198
    assert metrics["multfun.oracle_terms"] == 33 * 2 * 6 == 396
