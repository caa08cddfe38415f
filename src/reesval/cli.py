"""Command-line front end and JSON-lines corpus runner.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or parse
error, 3 chain not stabilized within the cap, 141 stdout closed before
the output was written (128 + SIGPIPE, as a shell reports a writer that
the signal stopped; it replaces every other code, a failed verdict's
too).  All JSON output is key-sorted and list-sorted, so identical
invocations are byte-identical; wall-clock timings are emitted only on
request (`corpus --timings`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional, Sequence

from .core import (
    MAX_INPUT_EXPONENT,
    MonomialIdeal,
    RingContext,
    check_count,
    normalize,
)
from .errors import InvalidInput, NotStabilized, ParseError
from .newton import compute_np, integral_closure_power, vbar
from .parser import parse_ideal, parse_monomial, parse_ring, render_ideal
from .primes import MonomialPrime, minimal_primes
from .sampling import sample_box
from .valuations import b_star, center, rees_valuations
from .verify import (
    DEFAULT_CHAIN_CAP,
    DEFAULT_LOCALIZATION_CAP,
    a_star,
    closure_oracle_discrepancies,
    verify_localization,
)

ORACLE_SAMPLE_CAP = 500
ORACLE_DILATIONS = (1, 2, 3)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _dump_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _primes_json(primes, ring: RingContext) -> list[list[str]]:
    return [list(p.names(ring)) for p in sorted(primes, key=MonomialPrime.sort_key)]


def _primes_text(primes, ring: RingContext) -> str:
    return ", ".join(
        "(" + ",".join(p.names(ring)) + ")"
        for p in sorted(primes, key=MonomialPrime.sort_key)
    )


def _linear_form(normal, ring: RingContext) -> str:
    parts = []
    for a, name in zip(normal, ring.variable_names):
        if a == 1:
            parts.append(name)
        elif a > 1:
            parts.append(f"{a}*{name}")
    return " + ".join(parts)


def _require_ideal(args) -> MonomialIdeal:
    return parse_ideal(args.ideal, parse_ring(args.ring))


def _cmd_np(args) -> int:
    I = _require_ideal(args)
    np_ = compute_np(I)
    if args.json:
        print(_dump({
            "facets": [[list(f.normal), f.offset] for f in np_.facets],
            "gens": [list(g) for g in I.min_gens],
            "ring": list(I.ring.variable_names),
        }))
    else:
        for f in np_.facets:
            print(f"{_linear_form(f.normal, I.ring)} >= {f.offset}")
    return 0


def _cmd_closure(args) -> int:
    I = _require_ideal(args)
    closure = integral_closure_power(I, args.power)
    if args.json:
        print(_dump({
            "closure": [list(g) for g in closure.min_gens],
            "gens": [list(g) for g in I.min_gens],
            "power": args.power,
            "ring": list(I.ring.variable_names),
        }))
    else:
        print(render_ideal(closure))
    return 0


def _cmd_rees(args) -> int:
    I = _require_ideal(args)
    valuations = rees_valuations(I)
    centers = b_star(I).centers
    if args.json:
        print(_dump({
            "centers": _primes_json(centers, I.ring),
            "ring": list(I.ring.variable_names),
            "valuations": [[list(v.normal), v.offset] for v in valuations],
        }))
    else:
        for v in valuations:
            names = ",".join(center(v).names(I.ring))
            print(
                f"normal=({','.join(str(a) for a in v.normal)}) "
                f"value={v.offset} center=({names})"
            )
        print(f"b_star: {_primes_text(centers, I.ring)}")
    return 0


def _cmd_vbar(args) -> int:
    I = _require_ideal(args)
    m = parse_monomial(args.monomial, I.ring)
    v = vbar(I, m)
    if args.json:
        print(_dump({
            "monomial": list(m),
            "ring": list(I.ring.variable_names),
            "vbar": str(v),
        }))
    else:
        print(v)
    return 0


def _astar_verdicts(report) -> dict:
    """The chain verdicts of `astar`.

    cor26 is true on every report: a_star returns only once the chain
    reaches B*(I), and raises NotStabilized (exit 3) otherwise.  monotone
    says the chain never lost a prime.
    """
    return {"cor26": True, "monotone": report.verdict_monotone}


def _chain_verdicts(report) -> dict:
    """The chain verdicts of `verify cor26` and `corpus`: those of `astar`,
    and lemma21i, that Min(I) lies in the stable set."""
    lemma21i = minimal_primes(report.ideal) <= report.stable_set
    return {**_astar_verdicts(report), "lemma21i": lemma21i}


def _astar_json(report, ring: RingContext, verdicts: dict) -> dict:
    return {
        "b_star": _primes_json(report.b_star.centers, ring),
        "chain": [[n, _primes_json(ass, ring)] for n, ass in report.chain],
        "stabilization_index": report.stabilization_index,
        "stable_set": _primes_json(report.stable_set, ring),
        "verdicts": verdicts,
    }


def _cmd_astar(args) -> int:
    I = _require_ideal(args)
    report = a_star(I, args.cap)
    if args.json:
        print(_dump(_astar_json(report, I.ring, _astar_verdicts(report))))
    else:
        for n, ass in report.chain:
            print(f"n={n}: {_primes_text(ass, I.ring)}")
        print(f"stable_set: {_primes_text(report.stable_set, I.ring)}")
        print(f"stabilization_index: {report.stabilization_index}")
        print(f"b_star: {_primes_text(report.b_star.centers, I.ring)}")
    return 0


def _s_var_indexes(names, ring: RingContext, label: str) -> tuple[int, ...]:
    """The indexes of the S variables, by the one rule of `--s-vars` and of
    a corpus line's `s_vars`: every name is a variable of the ring
    (`RingContext.index_of`, so an empty name is unknown), and none is
    given twice."""
    s_idx = tuple(map(ring.index_of, names))
    if len(set(s_idx)) != len(s_idx):
        raise InvalidInput(f"{label} names a variable twice")
    return s_idx


def _localization_json(report, ring: RingContext) -> dict:
    return {
        "admissible": report.admissible,
        "counter_witness": report.counter_witness(),
        "holds": report.holds(),
        "per_n": [[n, ok] for n, ok in report.per_n],
        "s_vars": [ring.variable_names[i] for i in report.s_vars],
    }


def _cmd_verify(args) -> int:
    if args.check == "thm31" and args.s_vars is None:
        raise InvalidInput("verify thm31 needs --s-vars")
    if args.check == "cor26" and args.s_vars is not None:
        raise InvalidInput("verify cor26 takes no --s-vars")
    I = _require_ideal(args)
    # read before any check runs, so a bad --s-vars prints no verdict
    s_vars = None
    if args.s_vars is not None:
        if not args.s_vars.strip():
            raise InvalidInput("--s-vars needs at least one variable name")
        s_vars = _s_var_indexes(map(str.strip, args.s_vars.split(",")), I.ring, "--s-vars")
    chain_cap = args.cap if args.cap is not None else DEFAULT_CHAIN_CAP
    loc_cap = args.cap if args.cap is not None else DEFAULT_LOCALIZATION_CAP
    failed = False
    payload: dict = {}

    if args.check in ("cor26", "all"):
        report = a_star(I, chain_cap)
        verdicts = _chain_verdicts(report)
        payload["cor26"] = _astar_json(report, I.ring, verdicts)
        failed = failed or not all(verdicts.values())
        if not args.json:
            print(f"cor26: {'PASS' if verdicts['cor26'] else 'FAIL'} "
                  f"(stable set {_primes_text(report.stable_set, I.ring)}; "
                  f"index {report.stabilization_index})")
            print(f"monotone: {'PASS' if verdicts['monotone'] else 'FAIL'}")
            print(f"lemma21i: {'PASS' if verdicts['lemma21i'] else 'FAIL'}")

    if s_vars is not None:  # thm31, or all with --s-vars
        report = verify_localization(I, s_vars, loc_cap)
        payload["thm31"] = _localization_json(report, I.ring)
        failed = failed or not report.holds()
        if not args.json:
            status = "PASS" if report.holds() else "FAIL"
            if report.admissible:
                print(f"thm31: {status} (S admissible, n=1..{loc_cap})")
            elif report.holds():
                witness = report.counter_witness()
                print(f"thm31: S meets a center (inadmissible); counter-witness n={witness}")
            else:  # an inadmissible S must move every closure
                fixed = next(n for n, ok in report.per_n if ok)
                print(f"thm31: FAIL (S meets a center, yet saturating at S fixes n={fixed})")
    elif args.check == "all":  # thm31 needs S: report it as not checked
        payload["thm31"] = None
        if not args.json:
            print("thm31: SKIPPED (no --s-vars)")

    if args.json:
        print(_dump(payload if args.check == "all" else payload[args.check]))
    return 1 if failed else 0


def _load_corpus_entry(line_no: int, line: str) -> dict:
    """One corpus line as {"id", "ideal", "s_idx"}.

    The JSON shape, the exponent cap and the non-constant rule are checked
    here; `RingContext`, `normalize` and `_s_var_indexes` check the names
    and vectors.  The cap and the non-constant rule read every given
    generator, minimal or not, before `normalize` packs any of them.
    """
    def fail(msg: str) -> None:
        raise InvalidInput(f"line {line_no}: {msg}")

    try:
        entry = json.loads(line)
    except json.JSONDecodeError as exc:
        fail(f"invalid JSON ({exc.msg})")
    except (ValueError, RecursionError) as exc:
        # an integer past the interpreter's digit limit, or nesting past
        # its recursion limit
        fail(f"invalid JSON ({exc})")
    if not isinstance(entry, dict):
        fail("entry must be a JSON object")
    unknown = set(entry) - {"id", "ring", "gens", "s_vars"}
    if unknown:
        fail(f"unknown fields {sorted(unknown)}")
    if not isinstance(entry.get("id"), str) or not entry["id"]:
        fail("'id' must be a non-empty string")
    ring, gens, s_vars = entry.get("ring"), entry.get("gens"), entry.get("s_vars")
    if not isinstance(ring, list):
        fail("'ring' must be a list of variable names")
    if not isinstance(gens, list) or not gens:
        fail("'gens' must be a non-empty list of exponent vectors")
    for g in gens:
        if isinstance(g, list) and not any(g):
            fail("generators must be non-constant (proper ideal)")
        if isinstance(g, list) and any(isinstance(e, int) and e > MAX_INPUT_EXPONENT for e in g):
            fail(f"generator {g} exceeds the exponent cap {MAX_INPUT_EXPONENT}")
    if s_vars is not None and (not isinstance(s_vars, list) or not s_vars):
        fail("'s_vars' must be a non-empty list of ring variables")
    try:
        ideal = normalize(gens, RingContext(tuple(ring)))
        s_idx = None if s_vars is None else _s_var_indexes(s_vars, ideal.ring, "'s_vars'")
    except InvalidInput as exc:
        fail(str(exc))
    return {"id": entry["id"], "ideal": ideal, "s_idx": s_idx}


def corpus_entry_report(entry: dict, seed: int, n_cap: int, timings: bool) -> dict:
    """Verdicts for one loaded corpus entry; order-independent and
    deterministic."""
    started = time.perf_counter()
    I = entry["ideal"]
    report: dict = {"id": entry["id"]}
    try:
        chain_report = a_star(I, n_cap)
    except NotStabilized as exc:
        report["error"] = "not_stabilized"
        report["n_cap"] = exc.n_cap
        return report
    verdicts = _chain_verdicts(chain_report)
    samples = sample_box(I.max_exponents(), ORACLE_SAMPLE_CAP, f"{seed}:{entry['id']}")
    verdicts["oracle"] = not closure_oracle_discrepancies(I, samples, ORACLE_DILATIONS)
    report.update(
        b_star=_primes_json(chain_report.b_star.centers, I.ring),
        stable_set=_primes_json(chain_report.stable_set, I.ring),
        stabilization_index=chain_report.stabilization_index,
    )
    if entry["s_idx"] is not None:
        loc = verify_localization(I, entry["s_idx"], DEFAULT_LOCALIZATION_CAP)
        verdicts["thm31"] = loc.holds()
        report["thm31_admissible"] = loc.admissible
        report["thm31_counter_witness"] = loc.counter_witness()
    report["verdicts"] = verdicts
    if timings:
        report["timings_ms"] = {
            "total": round((time.perf_counter() - started) * 1000.0, 3)
        }
    return report


def run_corpus(
    path: str,
    seed: int = 0,
    n_cap: int = DEFAULT_CHAIN_CAP,
    jobs: int = 1,
    timings: bool = False,
    out=None,
) -> int:
    """Verify every corpus entry; JSONL report per entry plus a summary line."""
    out = out or sys.stdout
    # checked before any entry is read, so an empty corpus cannot pass
    # with a cap that no chain could run under
    check_count(n_cap, "n_cap", 1)
    check_count(jobs, "jobs", 1)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read corpus: {exc}", file=sys.stderr)
        return 2
    entries = []
    seen_ids = set()
    for line_no, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        entry = _load_corpus_entry(line_no, line)
        if entry["id"] in seen_ids:
            raise InvalidInput(f"line {line_no}: duplicate id {entry['id']!r}")
        seen_ids.add(entry["id"])
        entries.append(entry)

    worker = functools.partial(
        corpus_entry_report, seed=seed, n_cap=n_cap, timings=timings
    )
    if jobs > 1 and len(entries) > 1:
        # imported here, as only --jobs > 1 needs it (it loads logging);
        # a fork pool starts every worker at the first submit
        from concurrent import futures

        with futures.ProcessPoolExecutor(max_workers=min(jobs, len(entries))) as pool:
            reports = list(pool.map(worker, entries))
    else:
        reports = [worker(entry) for entry in entries]

    failed_ids, not_stabilized_ids = [], []
    max_index = None
    for report in reports:
        print(_dump_line(report), file=out)
        if report.get("error") == "not_stabilized":
            not_stabilized_ids.append(report["id"])
            continue
        if not all(report["verdicts"].values()):
            failed_ids.append(report["id"])
        idx = report["stabilization_index"]
        max_index = idx if max_index is None else max(max_index, idx)
    summary = {
        "summary": {
            "all_passed": not failed_ids and not not_stabilized_ids,
            "entries": len(reports),
            "failed_ids": failed_ids,
            "max_stabilization_index": max_index,
            "not_stabilized_ids": not_stabilized_ids,
        }
    }
    print(_dump_line(summary), file=out)
    if not_stabilized_ids:
        return 3
    return 1 if failed_ids else 0


def _cmd_corpus(args) -> int:
    return run_corpus(
        args.path,
        seed=args.seed,
        n_cap=args.cap,
        jobs=args.jobs,
        timings=args.timings,
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", required=True, help='ring text, e.g. "Q[x,y]"')
    common.add_argument("--ideal", required=True, help='ideal text, e.g. "x^2, x*y"')
    common.add_argument("--json", action="store_true", help="emit key-sorted JSON")

    parser = argparse.ArgumentParser(
        prog="reesval",
        description="Rees valuations, integral closures of powers, and "
        "asymptotic associated primes of monomial ideals, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("np", parents=[common], help="facets of the Newton polyhedron")
    p.set_defaults(func=_cmd_np)

    p = sub.add_parser("closure", parents=[common], help="integral closure of a power")
    p.add_argument("--power", type=int, default=1, help="which power to close (default 1)")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("rees", parents=[common], help="Rees valuations and centers (B*)")
    p.set_defaults(func=_cmd_rees)

    p = sub.add_parser("vbar", parents=[common], help="asymptotic order of a monomial")
    p.add_argument("--monomial", required=True, help='monomial text, e.g. "x*y"')
    p.set_defaults(func=_cmd_vbar)

    p = sub.add_parser("astar", parents=[common], help="associated-prime chain and A*")
    p.add_argument("--cap", type=int, default=DEFAULT_CHAIN_CAP,
                   help="chain cap (default %(default)s)")
    p.set_defaults(func=_cmd_astar)

    p = sub.add_parser("verify", parents=[common], help="run the identity and localization checks")
    p.add_argument("check", choices=["cor26", "thm31", "all"])
    # one --cap serves both caps, so it defaults to None and each check
    # falls back to its own constant
    p.add_argument("--cap", type=int, default=None,
                   help=f"chain cap for cor26 (default {DEFAULT_CHAIN_CAP}) / "
                   f"power cap for thm31 (default {DEFAULT_LOCALIZATION_CAP})")
    p.add_argument("--s-vars", default=None,
                   help="comma-separated variable names generating S (thm31)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="verify a JSON-lines corpus")
    p.add_argument("path", help="corpus file, one entry per line")
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled oracle check")
    p.add_argument("--cap", type=int, default=DEFAULT_CHAIN_CAP,
                   help="chain cap (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--timings", action="store_true",
                   help="include per-entry wall-clock timings (not byte-stable)")
    p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
    except NotStabilized as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`): what was not written is
        # dropped, and stdout goes to devnull so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
