"""The three benchmark workloads: their inputs, ops, outputs and checks.

An op is one ideal taken through its workload's full job.  A workload's
inputs come from a seed: `powers` and `queries` draw a fixed number of
ideals per size stratum from a pool recorded in `expected/`, so a new seed
changes which ideals are drawn but not the size mix, and every drawn ideal
has a recorded output digest.  `corpus` runs the shipped corpus file, with
the oracle's sampling seed taken from the benchmark seed.

Pools and digests are written once by `record.py`; the generators below
are what it draws candidates from.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path
from typing import NamedTuple

import reesval
from reesval import cli
from reesval.core import RingContext, divides, normalize

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
NAMES = "xyzwuv"


class Stratum(NamedTuple):
    """Inputs of one size class: the family candidates are drawn from
    (variables, exponent cap range, generator count range), the size band
    a candidate must land in to join the pool, and the ops per pass."""

    d: int
    exponents: tuple[int, int]
    gens: tuple[int, int]
    size: tuple[int, int]
    ops: int
    deep: bool = False


# powers: ideals in 3 variables (exponents <= 6, 3 to 8 generators) and 4
# variables (exponents <= 2, 3 or 4 generators).  Size is the number of
# generators of closure(I^{2d}), which the walk and the Ass split tree scale
# with; `deep` strata hold chains that need n >= 2 to stabilize.  Larger
# inputs take seconds per op at n = 2d, too long for a pass of at least 40
# ops.  The counts give a pass of about 9 s on a 2-CPU machine.
POWERS_STRATA = {
    "d3-small": Stratum(3, (2, 4), (3, 4), (1, 40), 14),
    "d3-mid": Stratum(3, (2, 6), (3, 6), (41, 80), 10),
    "d3-large": Stratum(3, (3, 6), (4, 8), (81, 120), 3),
    "d3-deep": Stratum(3, (2, 6), (3, 8), (1, 80), 8, deep=True),
    "d4-small": Stratum(4, (1, 2), (3, 4), (1, 50), 4),
    "d4-deep": Stratum(4, (1, 2), (3, 4), (1, 50), 4, deep=True),
}

# queries: 5 and 6 variables, exponents <= 12, 10 to 30 generators.  Size
# is the number of facets of NP(I), which double description scales with.
QUERIES_STRATA = {
    "d5-small": Stratum(5, (12, 12), (10, 20), (1, 90), 8),
    "d5-mid": Stratum(5, (12, 12), (15, 30), (91, 130), 8),
    "d5-large": Stratum(5, (12, 12), (20, 30), (131, 200), 8),
    "d6-small": Stratum(6, (12, 12), (10, 16), (1, 150), 8),
    "d6-mid": Stratum(6, (12, 12), (14, 24), (151, 250), 8),
    "d6-large": Stratum(6, (12, 12), (20, 30), (251, 350), 4),
}
QUERY_VBAR_BATCH = 16
QUERY_SAMUEL_BATCH = 4
QUERY_T_MAX = 2


def digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def draw(items: list, ops: int, seed: int, stratum: str) -> list:
    """`ops` pool items of one stratum for this seed.  Items carry their
    cost rank at recording; the costliest is always drawn and one item
    comes from each of `ops - 1` equal rank bins below it, so a seed
    changes which ideals run but never swaps a costly op for a cheap one
    (a plain sample of a heavy-tailed pool moved pass time by 15%)."""
    *rest, top = sorted(items, key=lambda item: item["rank"])
    rng = random.Random(f"{seed}:{stratum}")
    k = ops - 1
    return [rng.choice(rest[j * len(rest) // k:(j + 1) * len(rest) // k])
            for j in range(k)] + [top]


def _primes(primes) -> list:
    return sorted(list(p.vars) for p in primes)


def random_antichain(rng: random.Random, d: int, e_max: int, g: int) -> list:
    """`g` pairwise incomparable non-constant vectors in [0, e_max]^d, or
    fewer when the box has no room for more after a bounded number of
    draws."""
    gens: list[tuple[int, ...]] = []
    for _ in range(200 * g):
        if len(gens) == g:
            break
        v = tuple(rng.randint(0, e_max) for _ in range(d))
        if any(v) and not any(divides(h, v) or divides(v, h) for h in gens):
            gens.append(v)
    return sorted(gens)


def ring_of(d: int) -> RingContext:
    return RingContext(tuple(NAMES[:d]))


def render(m) -> str:
    return "*".join(
        NAMES[i] if e == 1 else f"{NAMES[i]}^{e}" for i, e in enumerate(m) if e
    )


# ---------------------------------------------------------------- powers


def _draw_gens(rng: random.Random, spec: Stratum) -> list:
    while True:
        gens = random_antichain(
            rng, spec.d, rng.randint(*spec.exponents), rng.randint(*spec.gens))
        if len(gens) >= spec.gens[0]:
            return [list(g) for g in gens]


def powers_candidate(stratum: str, i: int) -> dict:
    """Candidate i for a powers stratum, drawn from its family."""
    spec = POWERS_STRATA[stratum]
    rng = random.Random(f"powers:{stratum}:{i}")
    return {"d": spec.d, "gens": _draw_gens(rng, spec), "s_var": rng.randrange(spec.d)}


def powers_op(entry: dict):
    """The powers job: the chain, localization at one variable, and every
    closure and its Ass for n = 1..2d."""
    d = entry["d"]
    I = normalize([tuple(g) for g in entry["gens"]], ring_of(d))
    report = reesval.a_star(I)
    loc = reesval.verify_localization(I, [entry["s_var"]])
    closures = [reesval.integral_closure_power(I, n) for n in range(1, 2 * d + 1)]
    asses = [reesval.associated_primes(J) for J in closures]
    return report, loc, closures, asses


def powers_outputs(result) -> dict:
    report, loc, closures, asses = result
    return {
        "chain": [[n, _primes(ass)] for n, ass in report.chain],
        "stabilization_index": report.stabilization_index,
        "localization": [[n, ok] for n, ok in loc.per_n],
        "admissible": loc.admissible,
        "closures": [[list(g) for g in J.min_gens] for J in closures],
        "ass": [_primes(a) for a in asses],
    }


def powers_stratum(entry: dict, result) -> str | None:
    report, _, closures, _ = result
    size = len(closures[-1].min_gens)
    deep = report.stabilization_index >= 2
    for name, spec in POWERS_STRATA.items():
        if entry["d"] == spec.d and spec.size[0] <= size <= spec.size[1] and deep == spec.deep:
            return name
    return None


def powers_cross_check(entry: dict) -> bool:
    """Independent routes on closure(I^n), n = 1, 2: Ass against the
    colon-scan oracle, and each minimal generator q against raw powers
    (x^{kq} in I^{kn} for some k <= 12, and no q - e_i passes)."""
    I = normalize([tuple(g) for g in entry["gens"]], ring_of(entry["d"]))
    for n in (1, 2):
        J = reesval.integral_closure_power(I, n)
        if reesval.associated_primes(J) != reesval.associated_primes_bruteforce(J):
            return False
        for q in J.min_gens:
            if not _in_closure_by_powers(I, q, n):
                return False
            for i, e in enumerate(q):
                below = tuple(c - (j == i) for j, c in enumerate(q))
                if e and _in_closure_by_powers(I, below, n):
                    return False
    return True


def _in_closure_by_powers(I, m, n, k_max=12) -> bool:
    return any(
        reesval.contains_in_power(I, tuple(k * e for e in m), k * n)
        for k in range(1, k_max + 1)
    )


# ---------------------------------------------------------------- queries


def queries_candidate(stratum: str, i: int) -> dict:
    """Candidate i for a queries stratum: an ideal as text, monomials for
    vbar, and sums of up to QUERY_T_MAX generators (members of I^t,
    t <= QUERY_T_MAX) for samuel_order, so the power chain is walked."""
    spec = QUERIES_STRATA[stratum]
    rng = random.Random(f"queries:{stratum}:{i}")
    gens = _draw_gens(rng, spec)
    e_max = spec.exponents[1]
    vbar_points = [
        [rng.randint(0, 2 * e_max) for _ in range(spec.d)]
        for _ in range(QUERY_VBAR_BATCH)
    ]
    samuel_points = []
    for _ in range(QUERY_SAMUEL_BATCH):
        picks = [rng.choice(gens) for _ in range(rng.randint(1, QUERY_T_MAX))]
        samuel_points.append(
            [sum(p[j] for p in picks) + rng.randint(0, 2) for j in range(spec.d)]
        )
    return {
        "d": spec.d,
        "ring": "Q[" + ",".join(NAMES[:spec.d]) + "]",
        "ideal": ", ".join(render(g) for g in gens),
        "vbar": vbar_points,
        "samuel": samuel_points,
    }


def queries_op(entry: dict):
    """The single-query job: parse, facets, valuations, B*, Min, a batch of
    vbar values and a few raw membership orders."""
    I = reesval.parse_ideal(entry["ideal"], entry["ring"])
    np_ = reesval.compute_np(I)
    valuations = reesval.rees_valuations(I)
    centers = reesval.b_star(I)
    mins = reesval.minimal_primes(I)
    vbars = [reesval.vbar(I, tuple(m)) for m in entry["vbar"]]
    orders = [reesval.samuel_order(I, tuple(m), QUERY_T_MAX) for m in entry["samuel"]]
    return I, np_, valuations, centers, mins, vbars, orders


def queries_outputs(result) -> dict:
    _, np_, valuations, centers, mins, vbars, orders = result
    return {
        "facets": [[list(f.normal), f.offset] for f in np_.facets],
        "valuations": [[list(v.normal), v.ideal_value] for v in valuations],
        "b_star": _primes(centers.centers),
        "min": _primes(mins),
        "vbar": [str(v) for v in vbars],
        "samuel": orders,
    }


def queries_stratum(entry: dict, result) -> str | None:
    facets = len(result[1].facets)
    for name, spec in QUERIES_STRATA.items():
        if entry["d"] == spec.d and spec.size[0] <= facets <= spec.size[1]:
            return name
    return None


def queries_cross_check(entry: dict) -> bool:
    """Each samuel_order value t against raw-power membership: x^m in I^t
    and, below the cap, not in I^{t+1}; and no vbar below the order."""
    I, _, _, _, _, _, orders = queries_op(entry)
    for m, t in zip(entry["samuel"], orders):
        m = tuple(m)
        if not reesval.contains_in_power(I, m, t):
            return False
        if t < QUERY_T_MAX and reesval.contains_in_power(I, m, t + 1):
            return False
        if reesval.vbar(I, m) < t:
            return False
    return True


# ---------------------------------------------------------------- corpus


def corpus_run(path: Path, seed: int) -> tuple[int, list[str]]:
    """One `run_corpus` pass: exit code and the report lines."""
    out = io.StringIO()
    code = cli.run_corpus(str(path), seed=seed, jobs=1, out=out)
    return code, out.getvalue().splitlines()


def corpus_cross_check(path: Path, entry_id: str) -> bool:
    """Ass of closure(I^n), n = 1, 2, of one corpus entry against the
    colon-scan oracle."""
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line) if line.strip() else None
        if entry and entry["id"] == entry_id:
            I = normalize([tuple(g) for g in entry["gens"]], RingContext(tuple(entry["ring"])))
            return all(
                reesval.associated_primes(J) == reesval.associated_primes_bruteforce(J)
                for J in (reesval.integral_closure_power(I, n) for n in (1, 2))
            )
    return False


class Pooled(NamedTuple):
    """A workload whose ops are drawn from a recorded pool, per stratum."""

    strata: dict
    candidate: object
    op: object
    outputs: object
    stratum: object
    cross_check: object


POOLED = {
    "powers": Pooled(POWERS_STRATA, powers_candidate, powers_op, powers_outputs,
                     powers_stratum, powers_cross_check),
    "queries": Pooled(QUERIES_STRATA, queries_candidate, queries_op, queries_outputs,
                      queries_stratum, queries_cross_check),
}
