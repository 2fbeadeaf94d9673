"""Timing and counting wrappers around the names gf2mf modules expose.

install() rebinds, in every gf2mf module, each module-level function that
gf2mf defines (the module's own ones and those it imported from a sibling)
to a wrapper, and wraps the arithmetic and evaluation methods of the
classes the modules share.  Because `from .gf2poly import _mul_bits` gives
each importing module its own binding, the wrapper knows the caller module
without inspecting frames.  Nothing in the package is edited; uninstall()
puts every original back.

Every wrapped call pushes a frame on a per-thread stack, so a call's self
time is its duration minus the time of the wrapped calls made inside it.
A call from a module into itself inherits the caller of the enclosing
frame, so gf2poly time reached through Poly.__pow__ is charged to the
module that took the power.  Coarse boundaries (SPAN_NAMES) are also kept
as spans with an id, a parent id and a thread id; hot kernels are only
aggregated as calls, total and self seconds per (caller, callee).
"""

import functools
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

# Prefix of the stderr line on which a traced CLI process prints its snapshot.
TRACE_MARKER = "PERFBENCH_TRACE "

MODULES = ("gf2poly", "factorize", "divisors", "multfun", "identities",
           "perfect", "cli")

SPAN_NAMES = frozenset({
    "perfect.odd_square_scan", "perfect.search_fixed_points",
    "perfect._spf_table", "perfect._divsum_table", "perfect._run_shards",
    "perfect._result", "identities.check_all", "identities.corollary_suite",
    "cli.main", "pool.identities", "pool.perfect", "bench.op",
})

# Methods wrapped on the shared classes; the caller is read from the frame.
_METHODS = {
    ("gf2poly", "Poly"): ("__mul__", "__pow__", "__divmod__", "__mod__",
                          "__floordiv__"),
    ("multfun", "MultiplicativeFunction"): ("__call__", "at_prime_power"),
}


def _product_plus_one(fact) -> int:
    n = 1
    for _, e in fact:
        n *= e + 1
    return n


class _ThreadState:
    __slots__ = ("stack", "agg", "counts", "busy", "cpu", "parent_span")

    def __init__(self):
        # frame: [child seconds, caller, callee module, span id, note, name,
        #         thread CPU seconds at entry (root frames only)]
        self.stack: list = []
        self.agg: dict = {}
        self.counts: dict = {}
        self.busy = 0.0  # wall seconds inside root frames
        self.cpu = 0.0  # thread CPU seconds inside root frames
        self.parent_span = None


class Tracer:
    """Collects per-(caller, callee) aggregates, counters and spans."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._spans: list[dict] = []
        self._next_span = 0
        self._t0 = time.perf_counter()
        self._undo: list = []
        self._mods: dict = {}
        self._factor_bits = None
        self._factor_info0 = None
        self._pre = {}
        self._post = {}

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def _new_span_id(self) -> int:
        with self._lock:
            self._next_span += 1
            return self._next_span

    def _close_span(self, sid, parent, name, t0, t1) -> None:
        span = {"id": sid, "parent": parent, "thread": threading.get_ident(),
                "name": name, "start": t0 - self._t0, "end": t1 - self._t0}
        with self._lock:
            self._spans.append(span)

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn, caller, mod, name, caller_from_frame=False):
        """A wrapper for fn that records it as a call from caller to mod.name."""
        full = mod + "." + name
        is_span = full in SPAN_NAMES
        pre = self._pre.get(full)
        post = self._post.get(full)
        tls = self._tls
        new_state = self._state
        new_span_id = self._new_span_id
        close_span = self._close_span
        perf = time.perf_counter
        thread_time = time.thread_time
        getframe = sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = tls.st
            except AttributeError:
                st = new_state()
            who = caller
            if caller_from_frame:
                who = getframe(1).f_globals.get("__name__", "?").rpartition(".")[2]
            stack = st.stack
            if stack:
                top = stack[-1]
                if who == mod and top[2] == mod:
                    who = top[1]
                parent_span = top[3]
                cpu0 = None
            else:
                parent_span = st.parent_span
                cpu0 = thread_time()
            sid = new_span_id() if is_span else None
            frame = [0.0, who, mod, parent_span if sid is None else sid, None,
                     full, cpu0]
            if pre is not None:
                pre(self, st, frame, args, kwargs)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                key = (who, full)
                rec = st.agg.get(key)
                if rec is None:
                    rec = st.agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    st.busy += dt
                    st.cpu += thread_time() - cpu0
                if is_span:
                    close_span(sid, parent_span, full, t0, t1)
            if post is not None:
                post(self, st, frame, args, kwargs, result, dt)
            return result

        return wrapper

    def root(self, fn, *args, **kwargs):
        """Run fn as the traced operation: the 'bench.op' root span."""
        return self._wrap(fn, "bench", "bench", "op")(*args, **kwargs)

    def count(self, st: _ThreadState, key: str, n=1) -> None:
        st.counts[key] = st.counts.get(key, 0) + n

    # -- install / uninstall ----------------------------------------------

    def _set(self, obj, name, value) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"gf2mf.{m}") for m in MODULES}
        self._mods = mods
        self._factor_bits = mods["factorize"]._factor_bits
        self._factor_info0 = self._factor_bits.cache_info()
        self._hooks()
        for caller, module in mods.items():
            for name, value in list(vars(module).items()):
                is_fn = isinstance(value, types.FunctionType) or hasattr(
                    value, "cache_info")
                owner = getattr(value, "__module__", "") or ""
                if not is_fn or not owner.startswith("gf2mf."):
                    continue
                callee = owner.rpartition(".")[2]
                self._set(module, name, self._wrap(value, caller, callee, name))
        for (m, cls_name), names in _METHODS.items():
            cls = getattr(mods[m], cls_name)
            for name in names:
                qual = f"{cls_name}.{name}"
                wrapped = self._wrap(getattr(cls, name), None, m, qual,
                                     caller_from_frame=True)
                self._set(cls, name, wrapped)
        self._wrap_lattice(mods["identities"])
        self._wrap_shards(mods["perfect"])
        for owner in ("identities", "perfect"):
            self._set(mods[owner], "ThreadPoolExecutor", self._pool_class(owner))

    def uninstall(self) -> None:
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)

    def _wrap_lattice(self, identities) -> None:
        lattice = identities._Lattice
        vectors = lattice.vectors
        tracer = self

        def counted(lat):
            st = tracer._state()
            for item in vectors(lat):
                tracer.count(st, "identities.lattice_vectors")
                yield item

        self._set(lattice, "vectors", counted)

    def _wrap_shards(self, perfect) -> None:
        run_shards = perfect._run_shards  # already wrapped as a span
        tracer = self

        def shim(fn, shards, jobs):
            scan = tracer._wrap(fn, "perfect", "perfect", "shard_scan")
            return run_shards(scan, shards, jobs)

        self._set(perfect, "_run_shards", shim)

    def _pool_class(self, owner: str):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Records the pool map as a span; tasks link to it as parent."""

            def map(self, fn, *iterables, **kwargs):
                def wait():
                    parent = tracer._state().stack[-1][3]
                    task = tracer._wrap(fn, owner, owner, "pool_task")

                    def run(*args):
                        tracer._state().parent_span = parent
                        return task(*args)

                    return list(super(TracedPool, self).map(run, *iterables,
                                                            **kwargs))

                return iter(tracer._wrap(wait, owner, "pool", owner)())

        return TracedPool

    # -- counters attached to particular callees -----------------------------

    def _hooks(self) -> None:
        fz = self._mods["factorize"]
        sieve = fz._irreducible_masks

        def mul_steps(t, st, frame, args, kwargs, result, dt):
            a, b = args
            t.count(st, "gf2poly.mul_steps", min(a, b).bit_length())

        def div_steps(t, st, frame, args, kwargs, result, dt):
            a, b = args
            t.count(st, "gf2poly.divmod_steps",
                    max(0, a.bit_length() - b.bit_length()))

        def sieve_pre(t, st, frame, args, kwargs):
            frame[4] = sieve.cache_info().misses

        def sieve_post(t, st, frame, args, kwargs, result, dt):
            if sieve.cache_info().misses != frame[4]:
                t.count(st, "factorize.irreducible_sieve_s", dt)

        def factor_post(t, st, frame, args, kwargs, result, dt):
            # The oracle factors its argument once, directly; keep the
            # divisor count on its frame for oracle_terms.
            if st.stack and st.stack[-1][5] == "multfun.convolve_bruteforce":
                st.stack[-1][4] = _product_plus_one(result)

        def oracle_post(t, st, frame, args, kwargs, result, dt):
            t.count(st, "multfun.oracle_terms", frame[4] or 0)

        def listed(t, st, frame, args, kwargs, result, dt):
            t.count(st, "divisors.divisors_listed", len(result))

        def pp_pre(t, st, frame, args, kwargs):
            fn, prime, r = args
            if r:
                t.count(st, "multfun.pp_lookups")
                if (prime.bits, r) in fn._cache:
                    t.count(st, "multfun.pp_hits")

        def corollaries(t, st, frame, args, kwargs, result, dt):
            t.count(st, "identities.corollary_checks",
                    sum(1 for r in result if not r.skipped))

        def scan(t, st, frame, args, kwargs, result, dt):
            t.count(st, "perfect.candidates", result.candidates)
            t.count(st, "perfect.filter_rejected", result.filter_rejected)
            t.count(st, "perfect.full_checked", result.full_checked)
            t.count(st, "perfect.hits", len(result.hits))

        def search(t, st, frame, args, kwargs, result, dt):
            odd_only = kwargs.get("odd_only", args[2] if len(args) > 2 else False)
            if not odd_only:  # odd mode is counted by odd_square_scan
                max_deg = kwargs.get("max_deg", args[0] if args else None)
                t.count(st, "perfect.candidates", (1 << (max_deg + 1)) - 2)
                t.count(st, "perfect.hits", len(result))

        self._pre = {
            "factorize._irreducible_masks": sieve_pre,
            "multfun.MultiplicativeFunction.at_prime_power": pp_pre,
        }
        self._post = {
            "gf2poly._mul_bits": mul_steps,
            "gf2poly._divmod_bits": div_steps,
            "gf2poly._mod_bits": div_steps,
            "factorize._irreducible_masks": sieve_post,
            "factorize.factor": factor_post,
            "multfun.convolve_bruteforce": oracle_post,
            "divisors.divisors": listed,
            "divisors.unitary_divisors": listed,
            "identities.check_corollaries": corollaries,
            "perfect.odd_square_scan": scan,
            "perfect.search_fixed_points": search,
        }

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw, mergeable trace data as plain JSON types.

        With the GIL, a thread's frames also run while another thread holds
        the interpreter, so each thread's times are scaled by its CPU share:
        thread CPU over its wall time outside pool waits.  Pool waits stay
        wall time.  The layers' self times then add up to the traced wall
        time less the time no thread computed (idle_s in layer_metrics).
        """
        agg: dict = {}
        counts: dict = {}
        with self._lock:
            threads = list(self._threads)
            spans = list(self._spans)
        for st in threads:
            waiting = sum(rec[1] for (_, callee), rec in st.agg.items()
                          if callee.startswith("pool."))
            computing = st.busy - waiting
            share = min(1.0, st.cpu / computing) if computing > 0 else 0.0
            for (caller, callee), (n, total, own) in st.agg.items():
                scale = 1.0 if callee.startswith("pool.") else share
                rec = agg.setdefault(f"{caller}>{callee}", [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += total * scale
                rec[2] += own * scale
            for key, value in st.counts.items():
                counts[key] = counts.get(key, 0) + value
        info = self._factor_bits.cache_info()
        counts["factorize.factor_cache_hits"] = info.hits - self._factor_info0.hits
        counts["factorize.factor_cache_misses"] = (
            info.misses - self._factor_info0.misses)
        perfect = self._mods["perfect"]
        gauges = {"perfect.pp_cache_entries":
                  len(perfect._SIGMA_PP) + len(perfect._SIGMASTAR_PP)}
        return {"agg": agg, "counts": counts, "gauges": gauges, "spans": spans}


def merge(raws: "list[dict]") -> dict:
    """Sum several snapshots (one per traced process); gauges take the max."""
    out = {"agg": {}, "counts": {}, "gauges": {}, "spans": []}
    for proc, raw in enumerate(raws):
        for key, (n, total, own) in raw["agg"].items():
            rec = out["agg"].setdefault(key, [0, 0.0, 0.0])
            rec[0] += n
            rec[1] += total
            rec[2] += own
        for key, value in raw["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
        for key, value in raw["gauges"].items():
            out["gauges"][key] = max(out["gauges"].get(key, 0), value)
        out["spans"].extend(dict(span, proc=proc) for span in raw["spans"])
    return out


CALLERS = ("factorize", "divisors", "multfun", "identities", "perfect", "cli")


def layer_metrics(raw: dict, wall_s: float) -> dict:
    """Per-layer metrics (name -> value) from a merged snapshot.

    wall_s is the traced operation's wall time; idle_s is the part of it
    that no layer's CPU-scaled self time covers.
    """
    calls: dict = {}
    total: dict = {}
    own_by_module: dict = {}
    gf2poly_own_by_caller: dict = {}
    divisors_calls = 0
    for key, (n, tot, own) in raw["agg"].items():
        caller, callee = key.split(">")
        module = callee.split(".")[0]
        calls[callee] = calls.get(callee, 0) + n
        total[callee] = total.get(callee, 0.0) + tot
        own_by_module[module] = own_by_module.get(module, 0.0) + own
        if module == "gf2poly":
            gf2poly_own_by_caller[caller] = (
                gf2poly_own_by_caller.get(caller, 0.0) + own)
        if module == "divisors" and caller != "divisors":
            divisors_calls += n
    c = raw["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "gf2poly.mul_calls": calls.get("gf2poly._mul_bits", 0),
        "gf2poly.mul_steps": c.get("gf2poly.mul_steps", 0),
        "gf2poly.sqr_calls": calls.get("gf2poly._sqr_bits", 0),
        "gf2poly.divmod_calls": calls.get("gf2poly._divmod_bits", 0)
        + calls.get("gf2poly._mod_bits", 0),
        "gf2poly.divmod_steps": c.get("gf2poly.divmod_steps", 0),
        "factorize.trial_calls": calls.get("factorize._trial_division", 0),
        "factorize.trial_s": total.get("factorize._trial_division", 0.0),
        "factorize.irreducible_sieve_s": c.get("factorize.irreducible_sieve_s", 0.0),
        "factorize.factor_calls": calls.get("factorize._factor_bits", 0),
        "factorize.factor_cache_hit_ratio": ratio(
            c.get("factorize.factor_cache_hits", 0),
            c.get("factorize.factor_cache_hits", 0)
            + c.get("factorize.factor_cache_misses", 0)),
        "factorize.ddf_calls": calls.get("factorize._factor_squarefree", 0),
        "factorize.ddf_s": total.get("factorize._factor_squarefree", 0.0),
        "divisors.calls": divisors_calls,
        "divisors.divisors_listed": c.get("divisors.divisors_listed", 0),
        "multfun.oracle_calls": calls.get("multfun.convolve_bruteforce", 0),
        "multfun.oracle_terms": c.get("multfun.oracle_terms", 0),
        "multfun.eval_calls": calls.get("multfun.MultiplicativeFunction.__call__", 0),
        "multfun.pp_calls": calls.get(
            "multfun.MultiplicativeFunction.at_prime_power", 0),
        "multfun.pp_cache_hit_ratio": ratio(c.get("multfun.pp_hits", 0),
                                            c.get("multfun.pp_lookups", 0)),
        "identities.lemma_checks": calls.get("identities.check_lemma", 0),
        "identities.corollary_checks": c.get("identities.corollary_checks", 0),
        "identities.lattice_vectors": c.get("identities.lattice_vectors", 0),
        "identities.pool_wait_s": total.get("pool.identities", 0.0),
        "perfect.spf_table_s": total.get("perfect._spf_table", 0.0),
        "perfect.divsum_table_s": total.get("perfect._divsum_table", 0.0),
        "perfect.reverify_s": total.get("perfect._result", 0.0),
        "perfect.shard_scan_s": total.get("perfect.shard_scan", 0.0),
        "perfect.candidates": c.get("perfect.candidates", 0),
        "perfect.filter_rejected": c.get("perfect.filter_rejected", 0),
        "perfect.full_checked": c.get("perfect.full_checked", 0),
        "perfect.hits": c.get("perfect.hits", 0),
        "perfect.prefilter_reject_ratio": ratio(c.get("perfect.filter_rejected", 0),
                                                c.get("perfect.candidates", 0)),
        "perfect.pp_cache_entries": raw["gauges"].get("perfect.pp_cache_entries", 0),
        "trace.bench_self_s": own_by_module.get("bench", 0.0),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = own_by_module.get(module, 0.0)
    for caller in CALLERS:
        m[f"gf2poly.self_s.{caller}"] = gf2poly_own_by_caller.get(caller, 0.0)
    in_layers = sum(own_by_module.get(mod, 0.0) for mod in MODULES)
    m["trace.wall_s"] = wall_s
    m["trace.layer_share"] = ratio(in_layers, wall_s)
    m["trace.idle_s"] = wall_s - in_layers - m["trace.bench_self_s"]
    return m
