"""Self-test: the gates pass correct results and fail corrupted ones.

Usage: python3 perfbench/selftest.py

Each case feeds one result to a workload's gate, counts the checks the
way run.py does, and asserts that the error rate is 0 for the correct
result and above 0 for every corruption.  Exits 1 if any case disagrees.
"""

import dataclasses
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from gf2mf import Poly, factor, odd_square_scan  # noqa: E402
from gf2mf.identities import CheckSummary, IdentityReport  # noqa: E402


def error_rate(checks, exited_ok=True) -> float:
    workers = [{"exited_ok": exited_ok,
                "ops": [{"op": "case", "checks": checks}]}]
    attempted, failed, _ = run.tally(workers)
    return failed / attempted


def hits(lines):
    return [SimpleNamespace(line=lambda line=line: line) for line in lines]


def summary(n_checked: int, n_skipped: int = 0, failing: int = 0) -> CheckSummary:
    ok = IdentityReport(kind="lemma", spec_id="s", point=Poly(1), passed=True)
    bad = dataclasses.replace(ok, passed=False)
    skip = dataclasses.replace(ok, skipped=True)
    return CheckSummary([bad] * failing + [ok] * (n_checked - failing)
                        + [skip] * n_skipped)


def cases():
    # A real rejected sample from a small scan, with the committed counts.
    small = odd_square_scan(26, sample_rejected=wl.ODD_SAMPLE)
    good_scan = dataclasses.replace(
        small, max_deg=wl.ODD_SCAN_DEG, candidates=wl.ODD_CANDIDATES,
        filter_rejected=wl.ODD_CANDIDATES, full_checked=0, hits=[])
    perfect = Poly("x^2+x")
    yield "odd_scan correct", wl.gate_odd_scan(good_scan), False
    yield "odd_scan counts do not add up", wl.gate_odd_scan(dataclasses.replace(
        good_scan, filter_rejected=wl.ODD_CANDIDATES - 1)), True
    yield "odd_scan reports a hit", wl.gate_odd_scan(dataclasses.replace(
        good_scan, hits=hits(["PERFECT deg=2 x^2+x class=trivial"]))), True
    yield "odd_scan sample holds a perfect polynomial", wl.gate_odd_scan(
        dataclasses.replace(good_scan, rejected_sample=[perfect]
                            + good_scan.rejected_sample[1:])), True
    yield "odd_scan sample too short", wl.gate_odd_scan(dataclasses.replace(
        good_scan, rejected_sample=good_scan.rejected_sample[:10])), True

    sigma = wl.REFERENCE["search_sigma_18"]
    unitary = wl.REFERENCE["search_unitary_18"]
    yield "search correct", wl.gate_search((hits(sigma), hits(unitary))), False
    yield "search dropped a hit", wl.gate_search(
        (hits(sigma[:-1]), hits(unitary))), True
    yield "search reordered hits", wl.gate_search(
        (hits(sigma), hits(unitary[::-1]))), True

    good = (summary(wl.LEMMA_POINTS), summary(30, 10))
    yield "verify correct", wl.gate_verify(good, 2), False
    yield "verify failing lemma", wl.gate_verify(
        (summary(wl.LEMMA_POINTS, failing=1), good[1]), 2), True
    yield "verify short lemma grid", wl.gate_verify(
        (summary(wl.LEMMA_POINTS - 11), good[1]), 2), True
    yield "verify corollaries missing", wl.gate_verify(
        (good[0], summary(30, 9)), 2), True

    poly = Poly("x^70+x^9+x^4+x+1")
    factored = str(factor(poly)) + "\n"
    dropped = " * ".join(str(factor(poly)).split(" * ")[1:]) + "\n"
    digest = wl.REFERENCE["cli_sha256"]["mersenne"]
    yield "cli factor correct", wl.gate_cli("factor", poly.bits, 0, factored), False
    yield "cli factor dropped a factor", wl.gate_cli(
        "factor", poly.bits, 0, dropped), True
    yield "cli factor garbage", wl.gate_cli("factor", poly.bits, 0, "oops\n"), True
    yield "cli wrong digest", wl.gate_cli("mersenne", digest, 0, "x^2+x+1\n"), True
    yield "cli wrong value", wl.gate_cli("eval", "x^3", 0, "x^3+1\n"), True
    yield "cli non-zero exit", wl.gate_cli("eval", "x^3", 2, "x^3\n"), True


def main() -> int:
    bad = 0
    for name, checks, corrupted in cases():
        rate = error_rate(checks)
        ok = rate > 0 if corrupted else rate == 0
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: error_rate={rate:.3f}")
    crashed = error_rate([], exited_ok=False)
    bad += not crashed > 0
    print(f"{'ok  ' if crashed > 0 else 'FAIL'} crashed worker:"
          f" error_rate={crashed:.3f}")
    print("selftest", "passed" if not bad else f"failed {bad} case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
