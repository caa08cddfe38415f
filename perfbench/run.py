"""reesval benchmark: time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload {corpus,powers,queries} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The library is imported from `src/` next to
this directory.  One run repeats passes over the workload's ops, each pass
with cold caches, until `--seconds` have gone by, and checks every op's
output against the digest recorded in `expected/`.

With `--trace 0` the last stdout line carries the end-to-end metrics, from
each op's best time over the run's passes: their sum (the pass time without
interference), their p50 and p75, plus set-up time (median of several fresh
interpreters that import reesval and load the inputs) and peak RSS.  With
`--trace 1` passes alternate between untraced and traced (see `tracing.py`);
it carries the per-layer metrics, medians over the traced passes, and
writes every span to `perfbench/out/`.

Lines before the last are a readable table, including sample counts and
`fail_frac` (also given as `failed` / `attempted`).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import OpBudgetExceeded, Tracer, op_budget, rebind, unbind

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# `powers` runs but is not in BENCHMARK.json: with 4 to 6 passes of 7 to
# 10 s in a run, the spread (IQR/median) of its p75 over 10 seeds was 0.37
# on a 2-CPU machine, more than any bound the benchmark may set (0.25).
WORKLOADS = ("corpus", "powers", "queries")
OP_BUDGET_S = 15.0
SETUP_PROBES = 7
CROSS_CHECKS = 2

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p75_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: "<module>.<function>.<stat>" and unit.
PER_LAYER = {}
for _target, _stats in (
    ("core.contains_in_power", ("calls", "self_s", "true_frac")),
    ("newton.np_contains", ("calls", "self_s")),
    ("verify.closure_oracle_discrepancies", ("self_s", "pairs")),
    ("newton.integral_closure_power", ("calls", "self_s", "cache_hit_frac", "gens_out")),
    ("primes.associated_primes", ("calls", "self_s", "gens_in")),
    ("newton.compute_np", ("calls", "self_s", "cache_hit_frac", "facets_out")),
    ("valuations.rees_valuations", ("calls", "self_s")),
    ("valuations.b_star", ("calls", "self_s")),
    ("newton.vbar", ("self_s",)),
    ("newton.samuel_order", ("self_s",)),
    ("core.ideal_power", ("self_s", "cache_hit_frac")),
    ("verify.a_star", ("calls", "self_s", "chain_len")),
    ("verify.verify_localization", ("self_s",)),
    ("primes.minimal_primes", ("self_s",)),
    ("sampling.sample_box", ("self_s",)),
    ("parser.parse_ideal", ("self_s",)),
    ("cli.run_corpus", ("self_s",)),
):
    for _stat in _stats:
        PER_LAYER[f"{_target}.{_stat}"] = (
            "s" if _stat == "self_s" else "ratio" if _stat.endswith("_frac") else "count"
        )
PER_LAYER["trace.overhead_frac"] = "ratio"


def _import_library():
    """Import reesval from this checkout's `src/`, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import reesval
    except ImportError as exc:
        sys.exit(f"cannot import reesval from {src}: {exc}")
    if Path(reesval.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"reesval was imported from {reesval.__file__}, not from {src}")
    return reesval


class Run:
    """One workload's drawn ops and the tallies of a run over them."""

    def __init__(self, name: str, seed: int):
        import workloads

        self.w = workloads
        self.name = name
        self.seed = seed
        self.op_ms: list[list[float]] = []  # per pass, per op
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        expected = json.loads((workloads.EXPECTED / f"{name}.json").read_text())
        if name == "corpus":
            self.corpus = ROOT / "corpus" / "standard.jsonl"
            self.corpus.read_bytes()  # the corpus must be in the checkout
            self.expected = expected
            return
        self.spec = workloads.POOLED[name]
        pool: dict[str, list] = {}
        for item in expected["pool"]:
            pool.setdefault(item["stratum"], []).append(item)
        self.ops = []
        for stratum, band in self.spec.strata.items():
            self.ops += workloads.draw(pool[stratum], band.ops, seed, stratum)

    def _timed(self, fn, *args, **kwargs):
        """Call fn under the op budget (and an op span when tracing);
        returns (ok, result) and records the op's time."""
        started = time.perf_counter()
        try:
            with op_budget(OP_BUDGET_S):
                if self.tracer is not None:
                    with self.tracer.span():
                        return True, fn(*args, **kwargs)
                return True, fn(*args, **kwargs)
        except OpBudgetExceeded:
            print(f"op over its {OP_BUDGET_S} s budget: {args[0]}", file=sys.stderr)
            if self.tracer is not None:
                self.tracer.reset_stack()
            return False, None
        except Exception:
            traceback.print_exc()
            return False, None
        finally:
            self.op_ms[-1].append((time.perf_counter() - started) * 1e3)

    def run_pass(self) -> float:
        """One pass over every op with cold caches; returns its wall time."""
        self.op_ms.append([])
        if self.name == "corpus":
            return self._corpus_pass()
        results = []
        started = time.perf_counter()
        for item in self.ops:
            results.append(self._timed(self.spec.op, item["entry"]))
        wall = time.perf_counter() - started
        for item, (ok, result) in zip(self.ops, results):
            self.attempted += 1
            if not ok or self.w.digest(self.spec.outputs(result)) != item["digest"]:
                self.failed += 1
        return wall

    def _corpus_pass(self) -> float:
        cli = self.w.cli
        entry_report = cli.corpus_entry_report
        failed_ids = set()

        def timed_entry(entry, **kwargs):
            ok, report = self._timed(entry_report, entry, **kwargs)
            if ok:
                return report
            failed_ids.add(entry["id"])
            return {"id": entry["id"], "error": "op_failed",
                    "stabilization_index": 0, "verdicts": {"op": False}}

        undo = rebind(entry_report, timed_entry)
        try:
            started = time.perf_counter()
            code, lines = self.w.corpus_run(self.corpus, self.seed)
            wall = time.perf_counter() - started
        finally:
            unbind(undo)
        want = self.expected["entries"]
        *reports, summary = lines
        seen = set()
        for line in reports:
            entry_id = json.loads(line)["id"]
            seen.add(entry_id)
            self.attempted += 1
            if entry_id in failed_ids or self.w.digest(line) != want.get(entry_id):
                self.failed += 1
        missing = len(set(want) - seen)  # entries the pass never reported
        self.attempted += missing
        self.failed += missing
        if code != self.expected["exit_code"] or self.w.digest(summary) != self.expected["summary"]:
            self.failed += 1
        return wall

    def cross_check(self) -> int:
        """Mismatches of a few drawn ops against independent routes."""
        if self.name == "corpus":
            ids = sorted(self.expected["entries"])[:CROSS_CHECKS]
            checks = [lambda i=i: self.w.corpus_cross_check(self.corpus, i) for i in ids]
        else:
            check = self.spec.cross_check
            checks = [lambda e=item["entry"]: check(e) for item in self.ops[:CROSS_CHECKS]]
        return sum(not c() for c in checks)


def _setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import reesval and load
    this run's inputs, then exit."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _per_layer(tracer, traced_walls, plain_walls) -> dict:
    per_pass = []
    for p in range(len(tracer.pass_starts)):
        spans, counts, cache = tracer.pass_stats(p)
        values = {}
        for metric in PER_LAYER:
            target, _, stat = metric.rpartition(".")
            if target not in spans:
                continue
            calls, self_ns = spans[target]
            if stat == "calls":
                values[metric] = calls
            elif stat == "self_s":
                values[metric] = self_ns / 1e9
            elif stat == "cache_hit_frac":
                hits, misses = cache.get(target, (0, 0))
                values[metric] = hits / (hits + misses) if hits + misses else 0.0
            elif stat == "true_frac":
                values[metric] = counts.get(target, 0) / calls if calls else 0.0
            else:
                values[metric] = counts.get(target, 0)
        per_pass.append(values)
    metrics = {}
    for m in per_pass[0]:
        values = [v[m] for v in per_pass]
        # counts stay whole numbers
        metrics[m] = (statistics.median_low(values) if isinstance(values[0], int)
                      else statistics.median(values))
    # each traced pass runs right after an untraced one; comparing within
    # these pairs keeps slow drift of the machine out of the ratio
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced_walls, plain_walls)) - 1
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and load the inputs, then exit (times set-up)")
    args = parser.parse_args(argv)

    reesval = _import_library()
    run = Run(args.workload, args.seed)
    if args.setup_only:
        return 0

    setup_s = _setup_seconds(args) if not args.trace else None
    plain_walls, traced_walls = [], []
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while not plain_walls or (args.trace and not traced_walls) or time.perf_counter() < deadline:
        reesval.clear_caches()
        if args.trace and len(traced_walls) < len(plain_walls):
            tracer.begin_pass()
            run.tracer = tracer
            with tracer:
                traced_walls.append(run.run_pass())
            run.tracer = None
            tracer.end_pass()
        else:
            plain_walls.append(run.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reesval.clear_caches()
    run.failed += run.cross_check()
    run.failed = min(run.failed, run.attempted)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain_walls)} untraced"
          + (f", {len(traced_walls)} traced" if args.trace else ""))
    print(f"fail_frac {run.failed / run.attempted:.4f} ratio "
          f"({run.failed} of {run.attempted} ops failed)")
    if args.trace:
        metrics = _per_layer(tracer, traced_walls, plain_walls)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans_path)
        print(f"{len(tracer.starts)} spans written to {spans_path.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        # An op's time is its best over the run's passes: this machine's
        # speed drifts by +-20% over tens of seconds, and the best of several
        # cold-cache passes is what the code costs when nothing interferes.
        best = [min(times) for times in zip(*run.op_ms)]
        _, p50, p75 = statistics.quantiles(best, n=4)
        metrics = {
            "wall_s": sum(best) / 1e3,
            "op_p50_ms": p50,
            "op_p75_ms": p75,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"op times: best of {len(plain_walls)} passes for each of {len(best)} ops, "
              f"{len(best) // 4} above p75; median pass {statistics.median(plain_walls):.4f} s")
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
