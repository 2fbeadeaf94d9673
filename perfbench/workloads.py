"""The workloads: inputs built from a seed, the timed operations, the gates.

A workload's setup returns the operations one fresh worker process runs.
Each operation has a timed call and a gate that checks the call's result
outside the timed region.  The gate functions take plain results, so the
self-test can feed them corrupted ones.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from tracer import TRACE_MARKER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(HERE, "reference.json")) as _f:
    REFERENCE = json.load(_f)

ODD_SCAN_DEG = 36
ODD_SAMPLE = 1000
ODD_CANDIDATES = 131071  # S with S(0) = S(1) = 1 and 2 <= deg S <= 18
SEARCH_DEG = 18
LEMMA_GRID = (5, 10)  # irreducibles of degree <= 5, exponents 0..10
LEMMA_POINTS = 5698  # 37 lemmas x 14 irreducibles x 11 exponents
COROLLARIES = 20
# Threads for the CLI verify call and for the traced run's jobs=2 comparison.
# The timed verify operation runs at jobs=1: two GIL-bound threads on two
# shared vCPUs spread about 3.5x more between runs than one thread does.
JOBS = 2
CLI_TIMEOUT_S = 120

@dataclass
class Op:
    """One closed-loop operation: run() is timed, check(result) is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], "list[tuple[str, bool]]"]
    items: Callable[[object], int]
    # Set when run() happens in another process that reports its own trace.
    trace: "Callable[[object], dict] | None" = None
    # False when run() waits for a child process that does the work.
    in_process: bool = True


# -- gates ---------------------------------------------------------------------


def gate_odd_scan(report) -> "list[tuple[str, bool]]":
    from gf2mf import verify_perfect

    return [
        ("hits_empty", report.hits == []),
        ("counts_add_up", report.candidates
         == report.filter_rejected + report.full_checked == ODD_CANDIDATES),
        ("sample_size", len(report.rejected_sample) == ODD_SAMPLE),
        ("sample_not_perfect",
         not any(verify_perfect(a) for a in report.rejected_sample)),
    ]


def gate_search(result) -> "list[tuple[str, bool]]":
    sigma_hits, unitary_hits = result
    return [
        ("sigma_hits", [r.line() for r in sigma_hits]
         == REFERENCE["search_sigma_18"]),
        ("unitary_hits", [r.line() for r in unitary_hits]
         == REFERENCE["search_unitary_18"]),
    ]


def gate_verify(result, n_inputs: int) -> "list[tuple[str, bool]]":
    lemmas, corollaries = result
    return [
        ("lemmas_pass", lemmas.all_passed()),
        ("lemma_points", lemmas.checked == LEMMA_POINTS and lemmas.skipped == 0),
        ("corollaries_pass", corollaries.all_passed()),
        ("corollary_coverage",
         corollaries.checked + corollaries.skipped == COROLLARIES * n_inputs),
    ]


def _factor_stdout_ok(stdout: str, poly_bits: int) -> bool:
    """The printed factors are sorted irreducibles whose product is the input."""
    from gf2mf import Poly, is_irreducible

    product = Poly(1)
    previous = 0
    for part in stdout.strip().split(" * "):
        body, _, exp = part.rpartition(")^")
        p = Poly(body.lstrip("("))
        if p.bits <= previous or not is_irreducible(p) or int(exp) < 1:
            return False
        previous = p.bits
        product = product * p ** int(exp)
    return product.bits == poly_bits


def gate_cli(kind: str, expected, returncode: int, stdout: str
             ) -> "list[tuple[str, bool]]":
    """expected: the input mask (factor), the text (eval, conv) or a digest."""
    if returncode != 0:
        return [("exit_0", False), ("stdout", False)]
    if kind == "factor":
        try:
            ok = _factor_stdout_ok(stdout, expected)
        except ValueError:
            ok = False
    elif kind in ("eval", "conv"):
        ok = stdout == expected + "\n"
    else:
        ok = hashlib.sha256(stdout.encode()).hexdigest() == expected
    return [("exit_0", True), ("stdout", ok)]


# -- setups --------------------------------------------------------------------


def _setup_odd_scan(seed: int, round_: int, mode: str) -> "list[Op]":
    from gf2mf import perfect

    return [Op(
        "odd_scan",
        lambda: perfect.odd_square_scan(ODD_SCAN_DEG, sample_rejected=ODD_SAMPLE),
        gate_odd_scan,
        lambda report: report.candidates,
    )]


def _setup_search(seed: int, round_: int, mode: str) -> "list[Op]":
    from gf2mf import perfect

    def run():
        return (perfect.search_fixed_points(SEARCH_DEG),
                perfect.search_fixed_points(SEARCH_DEG, unitary=True))

    return [Op("search", run, gate_search,
               lambda _: 2 * ((1 << (SEARCH_DEG + 1)) - 2))]


def _setup_verify(seed: int, round_: int, mode: str) -> "list[Op]":
    from gf2mf import identities

    jobs = JOBS if mode == "parallel" else 1
    # Input sets differ in cost by up to a fifth, so each worker of a run
    # takes its own; the run's median then depends less on --seed.
    suite_seed = seed * 1000 + round_

    def run():
        return (identities.check_all(*LEMMA_GRID, jobs=jobs),
                identities.corollary_suite(seed=suite_seed, jobs=jobs))

    def check(result):
        # Counted after the timed call, so set-up warms no factor cache.
        return gate_verify(result, len(identities.suite_inputs(seed=suite_seed)))

    return [Op("verify", run, check,
               lambda result: result[0].checked + result[1].checked)]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("GF2MF_JOBS", None)
    return env


def cli_calls(seed: int, round_: int) -> "list[tuple[str, list[str], Callable]]":
    """(kind, argv, expected) for one round; inputs depend on seed and round.

    expected() gives what gate_cli compares with: the input mask for
    factor, the other route's value for eval and conv, else a digest.
    """
    from gf2mf import Poly, builtin, convolve, convolve_bruteforce

    rng = random.Random(f"cli_cold:{seed}:{round_}")
    names = ("delta", "z", "id", "mu", "phi", "sigma", "sigma_star")

    def poly(lo: int, hi: int) -> Poly:
        deg = rng.randint(lo, hi)
        return Poly((1 << deg) | rng.getrandbits(deg) | 1)

    big = poly(64, 80)
    f1, g1 = rng.choice(names), rng.choice(names)
    a1 = poly(12, 24)
    f2, g2 = rng.choice(names), rng.choice(names)
    a2 = poly(12, 24)
    digests = REFERENCE["cli_sha256"]
    return [
        ("factor", ["factor", str(big)], lambda: big.bits),
        # eval goes the symbolic route; the oracle checks it, and vice versa.
        ("eval", ["eval", f"{f1}*{g1}", str(a1)],
         lambda: str(convolve_bruteforce(builtin(f1), builtin(g1), a1))),
        ("conv", ["conv", f2, g2, str(a2), "--oracle"],
         lambda: str(convolve(builtin(f2), builtin(g2))(a2))),
        ("verify", ["verify", "--jobs", str(JOBS)], lambda: digests["verify"]),
        ("search_perfect", ["search", "perfect", "--max-deg", "12"],
         lambda: digests["search_perfect"]),
        ("search_odd", ["search", "odd", "--max-deg", "24"],
         lambda: digests["search_odd"]),
        ("mersenne", ["mersenne", "--max-deg", "16"],
         lambda: digests["mersenne"]),
    ]


def _setup_cli_cold(seed: int, round_: int, mode: str) -> "list[Op]":
    calls = cli_calls(seed, round_)
    env = cli_env()
    traced = mode == "traced"
    program = ([os.path.join(HERE, "cli_traced.py")] if traced
               else ["-m", "gf2mf.cli"])
    ops = []
    for kind, argv, expected in calls:

        def run(argv=argv):
            return subprocess.run(
                [sys.executable, *program, *argv], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

        def check(proc, kind=kind, expected=expected):
            return gate_cli(kind, expected(), proc.returncode, proc.stdout)

        ops.append(Op(kind, run, check, lambda _: 1,
                      trace=cli_trace if traced else None, in_process=False))
    return ops


def cli_trace(proc) -> dict:
    """The trace snapshot a cli_traced.py call printed last on stderr."""
    for line in reversed(proc.stderr.splitlines()):
        if line.startswith(TRACE_MARKER):
            return json.loads(line[len(TRACE_MARKER):])
    raise ValueError("traced CLI call printed no trace")


@dataclass(frozen=True)
class Workload:
    """What a result file records; BENCHMARK.json says why each was chosen."""

    size: str
    uses_seed: bool
    item_unit: str
    setup: Callable[[int, int, str], "list[Op]"]


WORKLOADS = {
    "odd_scan": Workload(
        f"odd_square_scan({ODD_SCAN_DEG}, sample_rejected={ODD_SAMPLE}),"
        f" {ODD_CANDIDATES} candidates, jobs=1",
        False, "candidates", _setup_odd_scan),
    "search": Workload(
        f"search_fixed_points({SEARCH_DEG}) then unitary=True,"
        f" {2 * ((1 << (SEARCH_DEG + 1)) - 2)} masks, jobs=1",
        False, "masks", _setup_search),
    "verify": Workload(
        f"check_all{LEMMA_GRID} then corollary_suite(1000 * seed + round), jobs=1",
        True, "non-skipped checks", _setup_verify),
    "cli_cold": Workload(
        "7 cold `python -m gf2mf.cli` calls per worker, one per subcommand",
        True, "calls", _setup_cli_cold),
}
