"""Outside-in tracing of reesval and a per-op time budget.

The tracer never edits the library.  It replaces the module attributes that
name a public function (in every `reesval` module that imported it, since
callers look names up in their own module) with a wrapper that records a
span: name, start, end and parent.  Spans stay in memory, in flat arrays,
until the run writes them out.  Leaving the tracer's `with` block puts
every original attribute back.

The budget interrupts an op from outside the library with SIGALRM, so a
slow op is recorded as failed instead of hanging the run.
"""

from __future__ import annotations

import gzip
import signal
import sys
import time
from array import array
from contextlib import contextmanager

# The functions whose calls become spans, as "<module>.<function>" under
# `reesval`.  The per-layer metrics are read off these spans.
TRACED = (
    "core.contains_in_power",
    "core.ideal_power",
    "newton.compute_np",
    "newton.np_contains",
    "newton.integral_closure_power",
    "newton.vbar",
    "newton.samuel_order",
    "primes.associated_primes",
    "primes.minimal_primes",
    "valuations.rees_valuations",
    "valuations.b_star",
    "verify.a_star",
    "verify.verify_localization",
    "verify.closure_oracle_discrepancies",
    "parser.parse_ideal",
    "sampling.sample_box",
    "cli.run_corpus",
)

# Name of the span the harness opens around one op.
OP_SPAN = "bench.op"


def _oracle_pairs(args, kwargs, out):
    n_values = args[2] if len(args) > 2 else kwargs.get("n_values", (1, 2, 3))
    return len(args[1]) * len(n_values)


# Output-size counters, summed per pass: how much one call adds.  The
# per-layer metric names for them live in run.py.
COUNTERS = {
    "core.contains_in_power": lambda args, kwargs, out: out is True,
    "newton.compute_np": lambda args, kwargs, out: len(out.facets),
    "newton.integral_closure_power": lambda args, kwargs, out: len(out.min_gens),
    "primes.associated_primes": lambda args, kwargs, out: len(args[0].min_gens),
    "verify.a_star": lambda args, kwargs, out: len(out.chain),
    "verify.closure_oracle_discrepancies": _oracle_pairs,
}


def _reesval_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "reesval" or k.startswith("reesval."))]


def rebind(original, replacement):
    """Point every `reesval` module attribute bound to `original` at
    `replacement`; returns the (module, attribute, original) triples."""
    undo = []
    for module in _reesval_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def unbind(undo):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    """Span recorder over the functions in `TRACED`, active inside a
    `with` block.

    Spans are numbered in start order; `parents[i]` is the index of the
    span open when span i started, or -1.  `begin_pass()` marks where each
    measured pass starts so per-pass figures can be read off.
    """

    def __init__(self):
        import reesval

        self.names = list(TRACED) + [OP_SPAN]
        self.span_name = array("H")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.pass_starts: list[int] = []
        self.pass_counts: list[dict[str, int]] = []
        self.pass_cache: list[dict[str, tuple[int, int]]] = []
        self._stack = [-1]
        self._undo = []
        self._originals = {}
        self._wrappers = {}
        for k, target in enumerate(TRACED):
            module_name, func_name = target.split(".")
            original = getattr(getattr(reesval, module_name), func_name)
            self._originals[target] = original
            self._wrappers[target] = self._wrap(k, target, original)

    def _wrap(self, k, target, fn):
        counter = COUNTERS.get(target)
        span_name, parents, starts, ends = (
            self.span_name, self.parents, self.starts, self.ends)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            span_name.append(k)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None and self.pass_counts:
                counts = self.pass_counts[-1]
                counts[target] = counts.get(target, 0) + counter(args, kwargs, out)
            return out

        traced.__name__ = getattr(fn, "__name__", target)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        # `reesval.clear_caches()` calls these through the names we replace.
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    @contextmanager
    def span(self):
        """An op span, the root of the spans its calls open."""
        idx = len(self.starts)
        self.span_name.append(len(self.names) - 1)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()

    def reset_stack(self):
        """Drop open spans; used after an op was interrupted mid-wrapper."""
        for idx in self._stack[1:]:
            if self.ends[idx] == 0:
                self.ends[idx] = time.perf_counter_ns()
        del self._stack[1:]

    def begin_pass(self):
        self.pass_starts.append(len(self.starts))
        self.pass_counts.append({})
        self.pass_cache.append(self._cache_snapshot())

    def end_pass(self):
        before = self.pass_cache[-1]
        self.pass_cache[-1] = {
            t: (h - before[t][0], m - before[t][1])
            for t, (h, m) in self._cache_snapshot().items()
        }

    def _cache_snapshot(self):
        snap = {}
        for target, fn in self._originals.items():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                snap[target] = (info.hits, info.misses)
        return snap

    def __enter__(self):
        for target, original in self._originals.items():
            self._undo += rebind(original, self._wrappers[target])
        return self

    def __exit__(self, *exc):
        unbind(self._undo)
        self._undo = []
        return False

    def pass_stats(self, p):
        """Per-name calls and self time (ns) of pass `p`, plus its counters
        and cache (hits, misses).  Self time is a span's duration minus the
        durations of its direct children."""
        lo = self.pass_starts[p]
        hi = self.pass_starts[p + 1] if p + 1 < len(self.pass_starts) else len(self.starts)
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        span_name, parents, starts, ends = (
            self.span_name, self.parents, self.starts, self.ends)
        for i in range(lo, hi):
            dur = ends[i] - starts[i]
            k = span_name[i]
            calls[k] += 1
            self_ns[k] += dur
            parent = parents[i]
            if parent >= 0:
                self_ns[span_name[parent]] -= dur
        return (
            {n: (calls[k], self_ns[k]) for k, n in enumerate(self.names)},
            self.pass_counts[p],
            self.pass_cache[p],
        )

    def write(self, path):
        """Every span as TSV: pass, name, start_ns, end_ns, parent."""
        bounds = self.pass_starts + [len(self.starts)]
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("pass\tname\tstart_ns\tend_ns\tparent\n")
            for p in range(len(self.pass_starts)):
                for i in range(bounds[p], bounds[p + 1]):
                    out.write(f"{p}\t{self.names[self.span_name[i]]}\t"
                              f"{self.starts[i]}\t{self.ends[i]}\t{self.parents[i]}\n")


class OpBudgetExceeded(Exception):
    """An op ran past its time budget."""


def _on_alarm(signum, frame):
    raise OpBudgetExceeded()


@contextmanager
def op_budget(seconds):
    """Raise OpBudgetExceeded in the main thread after `seconds` of wall time."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
