"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py {corpus,powers,queries}

Run from the repository root, at the commit whose outputs are the
reference.  Writes `perfbench/expected/<workload>.json`: per-op output
digests and, for `powers` and `queries`, the pool of inputs the benchmark
seed draws from.  Before writing, a subsample of ops is cross-checked
against routes independent of the code under test (the colon-scan Ass
oracle and raw-power membership); any mismatch aborts.  An existing file is
never overwritten: a changed reference is a deliberate act, so delete the
file first.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reesval  # noqa: E402

import workloads as w  # noqa: E402
from tracing import OpBudgetExceeded, op_budget  # noqa: E402

POOL_PER_STRATUM = 24
CROSS_CHECKED_PER_STRATUM = 2
# Candidates that take longer than this are dropped; the count is printed
# so the cut stays visible.
CANDIDATE_BUDGET_S = 2.0
MAX_CANDIDATES = 2000


def record_corpus() -> dict:
    path = ROOT / "corpus" / "standard.jsonl"
    reesval.clear_caches()
    code, lines = w.corpus_run(path, seed=0)
    *reports, summary = lines
    entries = {json.loads(line)["id"]: w.digest(line) for line in reports}
    for entry_id in sorted(entries)[:CROSS_CHECKED_PER_STRATUM]:
        if not w.corpus_cross_check(path, entry_id):
            sys.exit(f"corpus entry {entry_id} disagrees with the colon-scan oracle")
    return {"exit_code": code, "entries": entries, "summary": w.digest(summary)}


def _cost(op, entry) -> float:
    """Best of three cold-cache timings of one op."""
    best = float("inf")
    for _ in range(3):
        reesval.clear_caches()
        started = time.perf_counter()
        op(entry)
        best = min(best, time.perf_counter() - started)
    return best


def record_pool(name: str) -> dict:
    """Fill every stratum with POOL_PER_STRATUM distinct candidates whose
    size lands in its band, cross-check the first few of each, and rank
    each stratum's items by cost (see `workloads.draw`)."""
    spec = w.POOLED[name]
    pool = []
    for stratum, band in spec.strata.items():
        entries, digests, ideals = [], [], set()
        dropped = 0
        for i in range(MAX_CANDIDATES):
            if len(entries) == POOL_PER_STRATUM:
                break
            entry = spec.candidate(stratum, i)
            reesval.clear_caches()
            try:
                with op_budget(CANDIDATE_BUDGET_S):
                    result = spec.op(entry)
            except OpBudgetExceeded:
                dropped += 1
                continue
            ideal = json.dumps(entry.get("gens") or entry["ideal"])
            if spec.stratum(entry, result) == stratum and ideal not in ideals:
                ideals.add(ideal)
                entries.append(entry)
                digests.append(w.digest(spec.outputs(result)))
        print(f"{name} {stratum}: {len(entries)} of {i} candidates in the band, "
              f"{dropped} over {CANDIDATE_BUDGET_S} s", flush=True)
        if len(entries) < band.ops:
            sys.exit(f"stratum {stratum} has too few candidates")
        for entry in entries[:CROSS_CHECKED_PER_STRATUM]:
            reesval.clear_caches()
            if not spec.cross_check(entry):
                sys.exit(f"{name} entry {entry} disagrees with an oracle")
        costs = [_cost(spec.op, entry) for entry in entries]
        by_cost = sorted(range(len(entries)), key=costs.__getitem__)
        for rank, k in enumerate(by_cost):
            pool.append({"stratum": stratum, "rank": rank,
                         "entry": entries[k], "digest": digests[k]})
    return {"pool": pool}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("corpus", "powers", "queries"))
    args = parser.parse_args()
    path = w.EXPECTED / f"{args.workload}.json"
    if path.exists():
        sys.exit(f"{path} exists; delete it first to record a new reference")
    started = time.perf_counter()
    data = record_corpus() if args.workload == "corpus" else record_pool(args.workload)
    path.parent.mkdir(exist_ok=True)
    if "pool" in data:  # one pool item per line
        items = ",\n".join(json.dumps(item, sort_keys=True) for item in data["pool"])
        path.write_text('{"pool": [\n' + items + "\n]}\n")
    else:
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)} in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
