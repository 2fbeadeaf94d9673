"""One fresh worker process: set up a workload, run its operations, check them.

Usage: python3 perfbench/worker.py WORKLOAD SEED ROUND MODE

MODE is setup (stop once ready), timed, parallel (verify at jobs=2) or
traced.  The worker writes one JSON object per stdout line: {"ready": true}
once gf2mf is imported and the inputs are built, one {"op": ...} per
operation, then {"done": true, ...}.  run.py times set-up from launch to
the ready line; the worker times each operation itself and runs the gate
after the timed call.  The done line carries the worker's speed scale
(speed.py): the kernel is timed after set-up, after each operation and,
in timed mode, every half second inside an in-process operation, whose
CPU time excludes those samples.
"""

import json
import os
import resource
import sys
import time
import traceback

from speed import SpeedProbe, cpu_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3  # kernel samples of a set-up-only worker
SRC = os.path.join(os.path.dirname(HERE), "src")


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv: "list[str]") -> int:
    workload, seed, round_, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    sys.path.insert(0, SRC)
    import gf2mf

    package_dir = os.path.dirname(os.path.realpath(gf2mf.__file__))
    if os.path.dirname(package_dir) != os.path.realpath(SRC):
        print(f"gf2mf imported from {package_dir}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    ops = workloads.WORKLOADS[workload].setup(seed, round_, mode)
    emit({"ready": True, "cpu_s": cpu_seconds()})  # set-up CPU since exec
    probe = SpeedProbe()
    for _ in range(SETUP_SAMPLES if mode == "setup" else 1):
        probe.sample()

    traces = []
    for op in ops if mode != "setup" else []:
        in_process_trace = mode == "traced" and op.trace is None
        t = tracer.Tracer() if in_process_trace else None
        sampled = mode == "timed" and op.in_process
        probe.probe_cpu_s = 0.0
        cpu0 = cpu_seconds()
        try:
            if t is not None:
                t.install()
            if sampled:
                probe.start_timer()
            t0 = time.perf_counter()
            try:
                result = t.root(op.run) if t is not None else op.run()
            finally:
                wall = time.perf_counter() - t0
                if sampled:
                    probe.stop_timer()
                if t is not None:
                    t.uninstall()
        except Exception:
            traceback.print_exc()
            emit({"op": op.name, "wall_s": None, "checks": [["completed", False]]})
            continue
        cpu = cpu_seconds() - cpu0 - probe.probe_cpu_s
        wall -= probe.probe_cpu_s  # the kernel ran on this thread
        probe.sample()
        try:
            checks = op.check(result)
            items = op.items(result)
            if t is not None:
                traces.append(t.snapshot())
            elif op.trace is not None:
                traces.append(op.trace(result))
        except Exception:
            traceback.print_exc()
            checks, items = [["gate_ran", False]], 0
        emit({"op": op.name, "wall_s": wall, "cpu_s": cpu, "items": items,
              "checks": [[name, bool(ok)] for name, ok in checks]})

    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Children run one at a time, so own peak plus the largest child's
    # peak bounds the tree's peak (ru_maxrss is in KiB on Linux).
    # The speed phases last 10 to 30 s, longer than a worker, so one scale
    # over all of its samples is steadier than one per operation.
    emit({"done": True, "rss_mb": (me + kids) / 1024, "scale": probe.scale(),
          "trace": tracer.merge(traces) if traces else None})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
