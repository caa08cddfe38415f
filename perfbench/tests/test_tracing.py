"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The traced run must put back every attribute it wraps and must not change
any output; the per-op checks must catch a wrong digest and a slow op.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import reesval  # noqa: E402

import run as bench  # noqa: E402
import workloads as w  # noqa: E402
from tracing import OP_SPAN, OpBudgetExceeded, Tracer, op_budget  # noqa: E402


def _bindings():
    return {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "reesval" or name.startswith("reesval.")
        for attr, value in vars(module).items()
    }


def _small_run(name):
    run = bench.Run(name, seed=0)
    if name != "corpus":
        run.ops = run.ops[:2]
    return run


def test_tracer_restores_every_attribute():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        wrapped = _bindings()
        assert reesval.verify.integral_closure_power is not before[
            ("reesval.verify", "integral_closure_power")]
    assert _bindings() == before
    changed = {k for k in before if wrapped[k] is not before[k]}
    # every public name that consumers import is wrapped, not just one binding
    assert ("reesval.verify", "integral_closure_power") in changed
    assert ("reesval.newton", "integral_closure_power") in changed
    assert ("reesval", "integral_closure_power") in changed
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("op failed")
    assert _bindings() == before


@pytest.mark.parametrize("name", ["corpus", "powers", "queries"])
def test_traced_outputs_equal_untraced(name):
    run = _small_run(name)
    reesval.clear_caches()
    run.run_pass()
    tracer = Tracer()
    run.tracer = tracer
    reesval.clear_caches()
    tracer.begin_pass()
    with tracer:
        run.run_pass()
    tracer.end_pass()
    assert run.attempted > 0 and run.failed == 0
    spans, _, _ = tracer.pass_stats(0)
    assert spans[OP_SPAN][0] > 0


def test_self_times_add_up_to_op_spans():
    run = _small_run("powers")
    tracer = Tracer()
    run.tracer = tracer
    reesval.clear_caches()
    tracer.begin_pass()
    with tracer:
        run.run_pass()
    tracer.end_pass()
    spans, counts, cache = tracer.pass_stats(0)
    roots = [i for i in range(len(tracer.starts)) if tracer.parents[i] == -1]
    assert {tracer.names[tracer.span_name[i]] for i in roots} == {OP_SPAN}
    total = sum(tracer.ends[i] - tracer.starts[i] for i in roots)
    assert sum(self_ns for _, self_ns in spans.values()) == total
    assert spans["verify.a_star"][0] == len(run.ops)
    assert counts["verify.a_star"] >= len(run.ops)  # chain lengths
    hits, misses = cache["newton.integral_closure_power"]
    assert hits > 0 and misses > 0


def test_wrong_digest_counts_as_failed():
    run = _small_run("queries")
    run.ops[0] = dict(run.ops[0], digest="0" * 16)
    reesval.clear_caches()
    run.run_pass()
    assert (run.attempted, run.failed) == (2, 1)


def test_op_over_budget_is_interrupted_and_handler_restored():
    previous = signal.getsignal(signal.SIGALRM)
    started = time.perf_counter()
    with pytest.raises(OpBudgetExceeded):
        with op_budget(0.05):
            while True:
                pass
    assert time.perf_counter() - started < 5
    assert signal.getsignal(signal.SIGALRM) is previous


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {wl["name"] for wl in spec["workloads"]} <= set(bench.WORKLOADS)
