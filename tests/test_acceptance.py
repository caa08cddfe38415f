"""Acceptance suite: the eight shipped criteria, each printed as one
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Every expected value is recomputed through its stated independent oracle
before being asserted: closures through raw powers, facets through the
subset-solving hull oracle, associated primes through the colon scan.
All comparisons are exact; there are no tolerances anywhere.
"""

import io
import time
from fractions import Fraction

import pytest

import reesval
from reesval import (
    MonomialPrime,
    RingContext,
    a_star,
    associated_primes,
    associated_primes_bruteforce,
    b_star,
    closure_oracle_discrepancies,
    integral_closure_power,
    normalize,
    rees_valuations,
    samuel_order,
    vbar,
    verify_localization,
)
from reesval.cli import ORACLE_SAMPLE_CAP, run_corpus
from reesval.sampling import sample_box
from conftest import CORPUS_PATH
from oracles import closure_by_power_oracle, contains_monomial, facets_bruteforce

MAX_RUNTIME_SECONDS = 60.0
SEED = 0


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {label}: {status}{suffix}")


@pytest.fixture(scope="module")
def corpus_reports(corpus_ideals):
    return {
        entry["id"]: a_star(ideal)
        for entry, ideal in corpus_ideals
    }


def entry_samples(ideal, entry_id: str):
    return sample_box(ideal.max_exponents(), ORACLE_SAMPLE_CAP, f"{SEED}:{entry_id}")


def test_criterion_1_cor26_over_corpus(corpus_entries, corpus_ideals):
    # corpus shape: at least 30 entries within the advertised limits,
    # including every worked example
    assert len(corpus_entries) >= 30
    for entry in corpus_entries:
        assert len(entry["ring"]) <= 4, entry["id"]
        assert len(entry["gens"]) <= 8, entry["id"]
        assert all(e <= 6 for g in entry["gens"] for e in g), entry["id"]
    present = {
        (tuple(e["ring"]), frozenset(tuple(g) for g in e["gens"]))
        for e in corpus_entries
    }
    worked = [
        (("x", "y"), frozenset({(2, 0), (0, 3)})),
        (("x", "y"), frozenset({(1, 0)})),
        (("x", "y"), frozenset({(2, 0), (1, 1)})),
        (("x", "y"), frozenset({(1, 1)})),
        (("x", "y"), frozenset({(2, 3)})),
        (("x", "y"), frozenset({(1, 0), (0, 1)})),
        (("x",), frozenset({(1,)})),
        (("x",), frozenset({(3,)})),
        (("x", "y", "z"), frozenset({(2, 0, 0), (1, 1, 0)})),
    ]
    missing = [w for w in worked if w not in present]
    assert not missing, f"worked examples missing from corpus: {missing}"

    reesval.clear_caches()
    started = time.perf_counter()
    failures = []
    for entry, ideal in corpus_ideals:
        if a_star(ideal).stable_set != b_star(ideal).centers:
            failures.append(entry["id"])
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed <= MAX_RUNTIME_SECONDS
    report(1, "cor26 corpus verification", ok,
           f"{len(corpus_ideals)} entries in {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed <= MAX_RUNTIME_SECONDS


def test_criterion_2_monotone_chain(corpus_ideals, corpus_reports):
    bad = []
    for entry, _ in corpus_ideals:
        rep = corpus_reports[entry["id"]]
        if not rep.verdict_monotone:
            bad.append(entry["id"])
        sets = [ass for _, ass in rep.chain]
        for earlier, later in zip(sets, sets[1:]):
            if not earlier <= later:
                bad.append(entry["id"])
    report(2, "monotone Ass chain", not bad, f"{len(corpus_ideals)} entries")
    assert not bad, bad


def test_criterion_3_closure_two_oracle_agreement(corpus_ideals):
    total_samples = 0
    bad = []
    for entry, ideal in corpus_ideals:
        samples = entry_samples(ideal, entry["id"])
        total_samples += len(samples)
        discrepancies = closure_oracle_discrepancies(
            ideal, samples, n_values=(1, 2, 3), k_max=12
        )
        if discrepancies:
            bad.append((entry["id"], discrepancies[:3]))
    report(3, "facet vs raw-power closure oracle", not bad,
           f"{total_samples} sampled monomials, n<=3, k<=12")
    assert not bad, bad


def test_criterion_4_vbar_threshold_equivalence(corpus_ideals):
    bad = []
    checked = 0
    for entry, ideal in corpus_ideals:
        for m in entry_samples(ideal, entry["id"]):
            v = vbar(ideal, m)
            for k in (1, 2, 3, 4):
                member = contains_monomial(integral_closure_power(ideal, k), m)
                checked += 1
                if (v >= k) != member:
                    bad.append((entry["id"], m, k))
    report(4, "vbar >= k iff closure membership", not bad, f"{checked} checks")
    assert not bad, bad


def test_criterion_5_golden_examples():
    R2 = RingContext(("x", "y"))
    I = normalize([(2, 0), (0, 3)], R2)
    J = normalize([(2, 0), (1, 1)], R2)
    K = normalize([(2, 3)], R2)
    ok = True

    # closure of (x^2, y^3), recomputed through raw powers only
    closure = integral_closure_power(I, 1)
    oracle_gens = closure_by_power_oracle(I, 1)
    ok &= closure.min_gens == ((2, 0), (1, 2), (0, 3))
    ok &= set(closure.min_gens) == oracle_gens

    # its unique Rees valuation, recomputed through the hull oracle
    vals = {(v.normal, v.ideal_value) for v in rees_valuations(I)}
    oracle_vals = {(a, b) for a, b in facets_bruteforce(list(I.min_gens)) if b > 0}
    ok &= vals == {((3, 2), 6)} == oracle_vals

    # B*(x^2, xy) equals the stabilized Ass chain, both routes for Ass
    px, pxy = MonomialPrime((0,)), MonomialPrime((0, 1))
    ok &= b_star(J).centers == {px, pxy} == a_star(J).stable_set
    ok &= associated_primes_bruteforce(J) == associated_primes(J) == {px, pxy}

    # B*(x^2 y^3), with the hull oracle confirming both facets
    ok &= b_star(K).centers == {MonomialPrime((0,)), MonomialPrime((1,))}
    ok &= {(a, b) for a, b in facets_bruteforce(list(K.min_gens)) if b > 0} == {
        ((1, 0), 2),
        ((0, 1), 3),
    }

    # vbar and the Samuel order approximation at the sixth power
    ok &= vbar(I, (1, 1)) == Fraction(5, 6)
    ok &= samuel_order(I, (6, 6), 10) == 5
    ok &= Fraction(samuel_order(I, (6, 6), 10), 6) == vbar(I, (1, 1))

    report(5, "golden examples", ok)
    assert ok


def test_criterion_6_localization(corpus_ideals):
    bad = []
    pairs = 0
    for entry, ideal in corpus_ideals:
        centers = b_star(ideal).centers
        covered = set().union(*(c.vars for c in centers))
        for v in range(ideal.ring.dimension):
            if v in covered:
                continue
            pairs += 1
            rep = verify_localization(ideal, (v,), 4)
            if not (rep.admissible and rep.holds()):
                bad.append((entry["id"], v))
    # pinned negative example: S = {y} meets a center of (x^2, xy) and the
    # first closure already moves under saturation
    R2 = RingContext(("x", "y"))
    neg = verify_localization(normalize([(2, 0), (1, 1)], R2), (1,), 4)
    negative_ok = (not neg.admissible) and neg.counter_witness() == 1
    ok = not bad and negative_ok
    report(6, "localization fixes closures", ok,
           f"{pairs} admissible single-variable pairs + negative example")
    assert not bad, bad
    assert negative_ok


def test_criterion_7_associated_prime_oracle(corpus_ideals):
    bad = []
    for entry, ideal in corpus_ideals:
        if associated_primes(ideal) != associated_primes_bruteforce(ideal):
            bad.append(entry["id"])
    report(7, "decomposition vs colon-scan Ass", not bad,
           f"{len(corpus_ideals)} entries")
    assert not bad, bad


def test_criterion_8_deterministic_reports():
    first, second = io.StringIO(), io.StringIO()
    code_1 = run_corpus(str(CORPUS_PATH), seed=SEED, out=first)
    code_2 = run_corpus(str(CORPUS_PATH), seed=SEED, out=second)
    ok = code_1 == code_2 == 0 and first.getvalue() == second.getvalue()
    report(8, "byte-identical corpus reports", ok,
           f"{len(first.getvalue().splitlines())} lines")
    assert code_1 == 0 and code_2 == 0
    assert first.getvalue() == second.getvalue()
