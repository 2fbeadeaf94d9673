"""How fast the machine runs right now, measured with a fixed kernel.

On a shared VM the speed a process gets drifts: pure-Python gf2mf code
ran 1.5x to 2x slower for phases of 10 to 30 seconds, and a fixed
polynomial loop slowed with it.  A run of 20 seconds catches one or two
such phases, so raw CPU times of the same code spread by a third between
runs.  A worker therefore times this kernel after set-up, after each
operation and inside long ones, and scales its CPU times by REFERENCE_S
over the kernel's mean time: the result is CPU seconds at a fixed
reference speed.  The kernel uses only the standard library, so a change
to gf2mf moves the operation's time and leaves the kernel's alone.
"""

import resource
import signal
import time

# The kernel's CPU time on the reference VM (2 vCPUs, CPython 3.11) in
# its fast phases; normalised times are seconds at that speed.
REFERENCE_S = 0.035
# While an in-process operation runs, the kernel runs once per interval.
INTERVAL_S = 0.5


def cpu_seconds() -> float:
    """CPU time of this process and its finished children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _cldivmod(a: int, b: int) -> "tuple[int, int]":
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        s = a.bit_length() - db
        q |= 1 << s
        a ^= b << s
    return q, a


def kernel() -> int:
    """Carry-less products and remainders through a dict, like gf2mf's loops."""
    table: "dict[tuple[int, int], int]" = {}
    x = 0x9E3779B97F4A7C15
    for i in range(1, 3600):
        a = (x * i) & 0xFFFFFFFFF | 1
        b = (x ^ (i * 7919)) & 0xFFFFF | 1 << 20
        p = _clmul(a, b)
        q, r = _cldivmod(p, b | 3)
        table[(q & 4095, r & 255)] = table.get((r & 4095, q & 255), 0) ^ p
    return len(table)


class SpeedProbe:
    """Kernel times taken between and, on a timer, inside operations."""

    def __init__(self) -> None:
        self.samples: "list[float]" = []
        self.probe_cpu_s = 0.0  # the kernel's CPU time while the timer ran

    def sample(self) -> float:
        t0 = time.process_time()
        kernel()
        spent = time.process_time() - t0
        self.samples.append(spent)
        return spent

    def _on_timer(self, signum, frame) -> None:
        t0 = cpu_seconds()
        self.sample()
        self.probe_cpu_s += cpu_seconds() - t0

    def start_timer(self) -> None:
        """Sample every INTERVAL_S of wall time until stop_timer().

        Only for operations that compute in this process's main thread:
        the handler runs between its bytecodes.  A call that waits for a
        child or a thread would run the kernel beside it instead.
        """
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """REFERENCE_S over the mean sample: 1 at reference speed."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
