"""The package keeps every name perfbench/tracer.py reads or rebinds.

The tracer wraps gf2mf's functions in place and rebinds a few inert
placeholders (perfect._run_shards, perfect.ThreadPoolExecutor and
identities.ThreadPoolExecutor).  A missing name would only show up as a
failed traced benchmark run, so this installs the tracer, runs small
calls under it and checks that nothing they return changes.
"""

import importlib.util
import os

from gf2mf import identities, perfect

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
    tracer = _load_tracer().Tracer()
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
    assert perfect.odd_square_scan is scan
    assert (perfect._run_shards, perfect.ThreadPoolExecutor,
            identities.ThreadPoolExecutor) == placeholders
