"""The gf2mf benchmark: cold-process time to a verified answer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in a fresh worker process (worker.py), because every
CLI user starts with cold lru_caches and prime-power dicts.  The loop is
closed with one client: the next worker starts after the previous one has
exited, so at most two threads (a jobs=2 pool) compute at once.

--trace 0 keeps launching workers for --seconds and reports the end-to-end
metrics of BENCHMARK.json.  Their times are CPU seconds of the worker and
its children at the reference speed of speed.py: on a shared VM the host
can steal a quarter of the wall time, and the speed a process gets drifts
by 1.5x to 2x for phases of 10 to 30 seconds.  Raw CPU and wall times are
printed and recorded, without a bound.

--trace 1 runs a fixed set instead: probes of bare interpreter start and
of the gf2mf import, untraced operations, one jobs=2 operation for
verify, and one traced operation; it reports the per-layer metrics.  Both print a summary, write the full record to
perfbench/results/, and print one JSON result as the last stdout line.
Any worker that fails before it is ready stops the run with exit code 2
and no result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

DEADLINE_S = 165  # the whole run, so that it ends within 180 s
SETUP_PROBES = 9
CLI_PROBES = 5
TRACE_CLI_ROUNDS = 3


class SetupFailed(RuntimeError):
    """A worker exited or hung before gf2mf was imported and inputs built."""


def worker(workload: str, seed: int, round_: int, mode: str,
           deadline: float) -> dict:
    """Run one worker to completion; kill it at the deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(round_), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_wall_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    messages = []
    for line in (first + rest).splitlines():
        try:
            messages.append(json.loads(line))
        except ValueError:
            continue
    if not messages or not messages[0].get("ready"):
        raise SetupFailed(
            f"{workload} worker exited with {proc.returncode} before it was ready")
    done = next((m for m in messages if m.get("done")), None)
    ops = [m for m in messages if "op" in m]
    scale = done["scale"] if done else None
    for op in ops:
        if scale is not None and op["wall_s"] is not None:
            op["ref_cpu_s"] = op["cpu_s"] * scale
    return {
        "setup_wall_s": setup_wall_s,
        "setup_cpu_s": messages[0]["cpu_s"],
        "setup_ref_cpu_s": messages[0]["cpu_s"] * scale if scale else None,
        "ops": ops,
        "done": done,
        "exited_ok": proc.returncode == 0 and done is not None,
    }


def tally(workers: "list[dict]") -> "tuple[int, int, list[str]]":
    """Checks attempted and failed, counting each worker's clean exit as one."""
    attempted = failed = 0
    failures = []
    for i, w in enumerate(workers):
        checks = [("worker_exited_ok", w["exited_ok"])]
        for op in w["ops"]:
            checks += [(f"{op['op']}.{name}", ok) for name, ok in op["checks"]]
        for name, ok in checks:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"worker {i}: {name}")
    return attempted, failed, failures


def timed_ops(workers: "list[dict]") -> "list[dict]":
    """Completed operations of workers that exited cleanly."""
    return [op for w in workers if w["exited_ok"] for op in w["ops"]
            if op["wall_s"] is not None]


def tail(values: "list[float]") -> "tuple[str, float]":
    """The highest percentile with at least ten samples above it, else the max."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    p = int(100 * (n - 10) / n)
    return f"p{p}", statistics.quantiles(values, n=100)[p - 1]


def probe(code: str, deadline: float) -> "tuple[float, str]":
    """Wall time of one fresh `python -c code` and its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupFailed(f"probe {code!r} failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def run_timed(workload: str, seed: int, seconds: float, deadline: float):
    probes = [worker(workload, seed, 0, "setup", deadline)
              for _ in range(SETUP_PROBES)]
    workers = []
    start = time.perf_counter()
    while True:
        launched = time.perf_counter()
        workers.append(worker(workload, seed, len(workers), "timed", deadline))
        now = time.perf_counter()
        last = now - launched
        # Stop at the launch whose expected end is nearest to --seconds.
        if now - start + last / 2 >= seconds or now + 1.5 * last > deadline:
            break
    ops = timed_ops(workers)
    rss = [w["done"]["rss_mb"] for w in workers if w["done"]]
    if not ops or not rss:
        return workers, {}, {}
    setups = [w["setup_ref_cpu_s"] for w in probes + workers if w["exited_ok"]]
    refs = [op["ref_cpu_s"] for op in ops]
    cpus = [op["cpu_s"] for op in ops]
    walls = [op["wall_s"] for op in ops]
    items = sum(op["items"] for op in ops)
    metrics = {
        "ref_cpu_s": statistics.median(refs),
        "items_per_ref_cpu_s": statistics.median(
            op["items"] / op["ref_cpu_s"] for op in ops),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }
    extra = {
        "cpu_s": statistics.median(cpus),
        "wall_s": statistics.median(walls),
        "wall_tail": tail(walls),
        "items_per_wall_s": items / sum(walls),
        "ref_cpu_samples": refs,
        "cpu_samples": cpus,
        "wall_samples": walls,
        "setup_ref_cpu_samples": setups,
        "setup_cpu_samples": [w["setup_cpu_s"] for w in probes + workers],
        "setup_wall_samples": [w["setup_wall_s"] for w in probes + workers],
        "rss_samples": rss,
        "items": items,
    }
    return workers, metrics, extra


def run_traced(workload: str, seed: int, deadline: float):
    import tracer

    interp = [probe("pass", deadline)[0] for _ in range(CLI_PROBES)]
    imports = [float(probe("import time; t = time.perf_counter(); "
                           "import gf2mf.cli; "
                           "print(time.perf_counter() - t)", deadline)[1])
               for _ in range(CLI_PROBES)]
    rounds = TRACE_CLI_ROUNDS if workload == "cli_cold" else 1
    plain = [worker(workload, seed, r, "timed", deadline) for r in range(rounds)]
    parallel = ([worker(workload, seed, 0, "parallel", deadline)]
                if workload == "verify" else [])
    traced = worker(workload, seed, 0, "traced", deadline)
    workers = plain + parallel + [traced]

    plain_ops = timed_ops(plain)
    plain_wall = sum(op["wall_s"] for op in plain_ops) / rounds
    traced_wall = sum(op["wall_s"] for op in timed_ops([traced]))
    raw = traced["done"]["trace"] if traced["done"] else None
    if raw is None or not plain_ops or not traced_wall:
        return workers, {}, {}
    metrics = tracer.layer_metrics(raw, traced_wall)
    metrics["cli.interp_start_s"] = statistics.median(interp)
    metrics["cli.import_s"] = statistics.median(imports)
    for kind in ("factor", "eval", "conv", "verify", "search_perfect",
                 "search_odd", "mersenne"):
        walls = [op["wall_s"] for op in plain_ops
                 if workload == "cli_cold" and op["op"] == kind]
        metrics[f"cli.call_s.{kind}"] = statistics.median(walls) if walls else 0.0
    cpu = sum(op["cpu_s"] for op in plain_ops) / rounds
    metrics["proc.cpu_s"] = cpu
    metrics["proc.wall_s"] = plain_wall
    metrics["proc.parallelism"] = cpu / plain_wall
    # Only verify has a jobs=2 run; the other workloads are their own
    # serial baseline.
    parallel_ops = timed_ops(parallel)
    metrics["proc.speedup_vs_serial"] = (
        plain_wall / parallel_ops[0]["wall_s"] if parallel_ops else 1.0)
    metrics["proc.trace_overhead"] = traced_wall / plain_wall
    extra = {"spans": raw["spans"], "agg": raw["agg"], "counts": raw["counts"],
             "untraced_wall_s": plain_wall, "interp_samples": interp,
             "import_samples": imports}
    return workers, metrics, extra


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "gf2mf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read() + b"\0")
    return h.hexdigest()


def git_rev() -> "str | None":
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "gf2mf", "__init__.py")):
        print("no gf2mf sources under src/", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    chosen = WORKLOADS[args.workload]
    try:
        if args.trace:
            workers, values, extra = run_traced(args.workload, args.seed, deadline)
        else:
            workers, values, extra = run_timed(args.workload, args.seed,
                                               args.seconds, deadline)
    except (SetupFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted, failed, failures = tally(workers)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        print(f"perfbench: nothing measured for {', '.join(missing)};"
              f" failed checks: {', '.join(failures[:5])}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": chosen.uses_seed,
        "size": chosen.size,
        "why": why[args.workload],
        "item_unit": chosen.item_unit,
        "loop": "closed, one client, one fresh worker process at a time",
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workers": len(workers),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "metrics": metrics,
        "detail": extra,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"perfbench {args.workload} seed={args.seed}"
          f" (seed {'used' if record['seed_used'] else 'ignored'})"
          f" size: {record['size']}")
    print(f"  workers={len(workers)} python={record['python']}"
          f" nproc={record['nproc']} git_rev={record['git_rev']}")
    if not args.trace:
        tail_name, tail_value = extra["wall_tail"]
        print(f"  wall_s median {extra['wall_s']:.4f} s, {tail_name}"
              f" {tail_value:.4f} s, n={len(extra['wall_samples'])}"
              f" (unbounded: includes time the host steals)")
        print(f"  raw cpu_s median {extra['cpu_s']:.4f} s"
              f" (unbounded: at the speed the host gave)")
        print(f"  items per wall second {extra['items_per_wall_s']:.2f},"
              f" items are {record['item_unit']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {failed}/{attempted} = {record['error_rate']:.4g}"
          + (f" ({', '.join(failures[:5])})" if failures else ""))
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
