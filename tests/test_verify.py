"""The asymptotic chain, its stabilization against the centers, and the
localization check, including the pinned negative example."""

import hashlib
import json
import random
import tracemalloc
from math import prod
from operator import le, mul
from pathlib import Path
from types import SimpleNamespace

import pytest

import reesval.verify
from reesval import (
    FacetInequality,
    InvalidInput,
    MonomialPrime,
    NewtonPolyhedron,
    NotStabilized,
    RingContext,
    a_star,
    b_star,
    closure_oracle_discrepancies,
    compute_np,
    contains_in_power,
    ideal_power,
    integral_closure_power,
    minimal_primes,
    normalize,
    np_contains,
    samuel_order,
    verify_localization,
)
from reesval.cli import ORACLE_DILATIONS, ORACLE_SAMPLE_CAP
from reesval.sampling import sample_box
from reesval.verify import _separating_weights
from oracles import dilation_cuts, in_closure_by_powers

REPO = Path(__file__).resolve().parents[1]
R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))
R4 = RingContext(("x", "y", "z", "w"))
# corpus entry g38-quartics-plus-xyzw
G38_GENS = ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (1, 1, 1, 1))


def ideal_in(ring, *gens):
    return normalize(gens, ring)


def primes_of(ring, *names_sets):
    return frozenset(
        MonomialPrime(tuple(sorted(ring.variable_names.index(n) for n in names)))
        for names in names_sets
    )


def test_a_star_x2_xy():
    report = a_star(ideal_in(R2, (2, 0), (1, 1)))
    assert report.stabilization_index == 1
    assert report.stable_set == primes_of(R2, ("x",), ("x", "y"))
    assert report.stable_set == report.b_star.centers == b_star(report.ideal).centers
    assert report.verdict_monotone
    assert report.chain == ((1, report.stable_set),)


def test_a_star_xy():
    report = a_star(ideal_in(R2, (1, 1)))
    assert report.stabilization_index == 1
    assert report.stable_set == primes_of(R2, ("x",), ("y",))


def test_a_star_principal_prime():
    report = a_star(ideal_in(R2, (1, 0)))
    assert report.stabilization_index == 1
    assert report.stable_set == primes_of(R2, ("x",))


def test_a_star_triangle_needs_two_steps():
    # Ass of the closure grows by the maximal prime at the second power:
    # the edge generators decompose as the three pairwise primes at n=1,
    # while x*y*z witnesses (closure^2 : m) = (x,y,z) at n=2.
    T = ideal_in(R3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    report = a_star(T)
    assert report.stabilization_index == 2
    assert report.chain[0][1] == primes_of(R3, ("x", "y"), ("y", "z"), ("x", "z"))
    assert report.stable_set == primes_of(
        R3, ("x", "y"), ("y", "z"), ("x", "z"), ("x", "y", "z")
    )
    assert report.verdict_monotone


def test_a_star_not_stabilized_raises():
    T = ideal_in(R3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    with pytest.raises(NotStabilized) as exc_info:
        a_star(T, n_cap=1)
    assert exc_info.value.n_cap == 1
    assert len(exc_info.value.chain) == 1


def test_a_star_input_validation():
    with pytest.raises(InvalidInput):
        a_star(normalize([], R2))
    with pytest.raises(InvalidInput):
        a_star(ideal_in(R2, (1, 0)), n_cap=0)


def test_verify_centers_match_goldens():
    # the stable set against the goldens and against a separate B* call
    for gens, names in (
        (((2, 0), (1, 1)), (("x",), ("x", "y"))),
        (((2, 3),), (("x",), ("y",))),
        (((1, 0), (0, 1)), (("x", "y"),)),
    ):
        I = ideal_in(R2, *gens)
        stable = a_star(I).stable_set
        assert stable == primes_of(R2, *names) == b_star(I).centers


def test_verify_localization_admissible_principal():
    report = verify_localization(ideal_in(R2, (1, 0)), (1,), 4)
    assert report.admissible
    assert report.holds()
    assert report.per_n == ((1, True), (2, True), (3, True), (4, True))
    assert report.counter_witness() is None


def test_verify_localization_admissible_extra_variable():
    report = verify_localization(ideal_in(R3, (2, 0, 0), (1, 1, 0)), (2,), 4)
    assert report.admissible and report.holds()


def test_verify_localization_negative_example():
    # S = {y} meets the center (x, y); saturating the closure by y drops it
    # to (x) already at the first power
    report = verify_localization(ideal_in(R2, (2, 0), (1, 1)), (1,), 4)
    assert not report.admissible
    assert report.counter_witness() == 1
    # every saturation moves its closure, as an inadmissible S requires
    assert report.per_n == ((1, False), (2, False), (3, False), (4, False))
    assert report.holds()


def test_verify_localization_validation():
    with pytest.raises(InvalidInput):
        verify_localization(ideal_in(R2, (1, 0)), ())
    with pytest.raises(InvalidInput):
        verify_localization(ideal_in(R2, (1, 0)), (3,))


def test_verify_min_primes_contained_examples():
    for gens in (((2, 0), (1, 1)), ((1, 1),), ((1, 0), (0, 1))):
        I = ideal_in(R2, *gens)
        assert minimal_primes(I) <= a_star(I).stable_set


def test_closure_oracle_agreement_small():
    I = ideal_in(R2, (2, 0), (0, 3))
    monomials = [(a, b) for a in range(3) for b in range(4)]
    assert closure_oracle_discrepancies(I, monomials) == []
    # entries near and past 2**63 put both cuts on lanes wider than 64 bits
    big = 2**63
    huge = [(big, 0), (0, big - 1), (big, 3 * big), (1, 1), (2, 3**45)]
    assert closure_oracle_discrepancies(I, huge) == []


def test_closure_oracle_table_is_sized_by_the_samples_not_the_dilations():
    # each sample's weight cut is at most its own cut (4 for x^4*y^6 on
    # 3x + 2y >= 6), so a far larger dilation asked adds no table rows; one
    # row per n up to 10**5 would trace about 9 MB.  At k_max = 1, x*y^2 is
    # in NP but not in I, so the answer is not empty
    I = ideal_in(R2, (2, 0), (0, 3))
    samples = [(1, 1), (1, 2), (4, 6)]
    for k_max in (1, 12):
        expected = closure_oracle_discrepancies(I, samples, (1, 3), k_max)
        assert bool(expected) == (k_max == 1)
        tracemalloc.start()
        try:
            got = closure_oracle_discrepancies(I, samples, (1, 10**5), k_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 2**20, peak
    assert closure_oracle_discrepancies(I, [], (1, 10**5)) == []
    # nor does a sample whose own cut is large: x^40000 has cut 20000, and
    # one row per cut up to it would trace about 1.8 MB
    tracemalloc.start()
    try:
        got = closure_oracle_discrepancies(I, [(40000, 0)], (1, 20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == []
    assert peak < 2**20, peak


def test_closure_oracle_matches_literal_definition():
    # small k_max makes the routes disagree (k = 1 is plain power
    # membership), so the pairs compared are not all empty; unsorted and
    # repeated dilations check that pairs keep the order of n_values
    rng = random.Random(808)
    rings = {2: R2, 3: R3}
    n_values = (3, 1, 2, 1)
    disagreements = 0
    for _ in range(12):
        d = rng.choice((2, 3))
        gens = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        I = normalize([g for g in gens if any(g)], rings[d])
        if not I.is_proper_nonzero():
            continue
        np_ = compute_np(I)
        # twice the generator box reaches members of the larger dilations
        box = tuple(2 * e for e in I.max_exponents())
        monomials = sample_box(box, 30, f"oracle:{I.min_gens}")
        for k_max in (1, 2, 12):
            expected = [
                (m, n)
                for m in monomials
                for n in n_values
                if np_contains(np_, m, n) != in_closure_by_powers(I, m, n, k_max)
            ]
            got = closure_oracle_discrepancies(I, monomials, n_values, k_max)
            assert got == expected, (I.min_gens, k_max)
            disagreements += len(got)
    assert disagreements


def test_closure_oracle_reports_planted_flip(monkeypatch):
    # the facet route is one cut per sample, m in n*NP iff n <= cut; the
    # only facet is 3x + 2y >= 6, so (1, 2) has cut 7 // 6 = 1, and a cut
    # of 2 flips its answer at n = 2 alone
    I = ideal_in(R2, (2, 0), (0, 3))
    monomials = [(a, b) for a in range(3) for b in range(4)]
    assert closure_oracle_discrepancies(I, monomials) == []
    honest = reesval.verify._capped_dilation_cuts

    def flipped(rows, points, cap):
        cuts = honest(rows, points, cap)
        i = points.index((1, 2))
        assert cuts[i] == 1
        cuts[i] = 2
        return cuts

    monkeypatch.setattr(reesval.verify, "_capped_dilation_cuts", flipped)
    assert closure_oracle_discrepancies(I, monomials) == [((1, 2), 2)]


def test_sample_box_of_the_empty_box():
    # the empty product holds one point, (), which a cap of 0 leaves out
    assert sample_box((), 3, "k") == [()]
    assert sample_box((), 0, "k") == []


def test_sample_box_keeps_its_lists(corpus_ideals):
    # the point order decides which monomials the oracle samples, and so
    # the corpus output: the lists are pinned by their hash, on every
    # corpus box at the oracle's cap and three seeds, and on seeded boxes
    # with 1-4 coordinates, bounds 0-6 and caps below, at and above the
    # volume (full boxes and sampled ones both)
    cases = [
        (I.max_exponents(), ORACLE_SAMPLE_CAP, f"{seed}:{entry['id']}")
        for entry, I in corpus_ideals
        for seed in (0, 1, 7)
    ]
    rng = random.Random(2602)
    for i in range(320):
        bounds = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 4)))
        vol = prod(b + 1 for b in bounds)
        cap = rng.choice((0, 1, vol - 1, vol, vol + 1, rng.randint(0, 2 * vol)))
        cases.append((bounds, cap, f"box:{i}"))
    full = sum(prod(b + 1 for b in bounds) <= cap for bounds, cap, _ in cases)
    assert 0 < full < len(cases)
    lists = repr([sample_box(*case) for case in cases]).encode()
    assert hashlib.sha256(lists).hexdigest() == (
        "718065c8cc58afc3ad8f85dedd0803622a6bfbabac27b94a6b334bbfd92ad999"
    )


def test_closure_oracle_weight_cut_stays_off_the_facet_helper(monkeypatch):
    # a facet helper that cuts every sample one too low must show at the
    # dilation equal to each honest cut; were the separating-weight cut
    # taken by the same helper, both routes would drop alike and agree
    I = ideal_in(R2, (2, 0), (0, 3))
    monomials = [(a, b) for a in range(7) for b in range(10)]
    n_values = (1, 2, 3)
    honest = reesval.verify._capped_dilation_cuts
    cuts = honest(compute_np(I).rows, monomials, n_values[-1])
    expected = [(m, n) for m, cut in zip(monomials, cuts) for n in n_values if n == cut]
    assert expected
    monkeypatch.setattr(
        reesval.verify,
        "_capped_dilation_cuts",
        lambda rows, points, cap: [c - 1 for c in honest(rows, points, cap)],
    )
    assert closure_oracle_discrepancies(I, monomials, n_values) == expected


def recording_search(monkeypatch):
    """Log every raw-power question the oracle asks as (km, t, answer)."""
    asked = []
    honest = reesval.verify._power_search

    def recorded(I):
        member = honest(I)

        def logged(km, t):
            answer = member(km, t)
            asked.append((km, t, answer))
            return answer

        return logged

    monkeypatch.setattr(reesval.verify, "_power_search", recorded)
    return asked


def test_closure_oracle_ladder_matches_definition_for_every_k_max(monkeypatch):
    # The k ladder asks only the rungs above k_max / 2, from the top, since
    # every k <= k_max divides one of them.  For every k_max it must answer
    # by the definition, and it must never ask what its earlier answers on
    # the same sample imply: success at (k', n') gives success at (k, n)
    # when k' | k and n <= n', failure at (k', n') gives failure at (k, n)
    # when k | k' and n >= n'.  Nor does it ask an n below one that
    # succeeded.  On (x^a, y^a), m = (p, q) with p + q = n*a is a member
    # only for k with a | k*p, so the least working k runs through 2..6.
    asked = recording_search(monkeypatch)
    n_values = (3, 1, 2)
    cases = [
        (ideal_in(R2, (a, 0), (0, a)), sample_box((2 * a, 2 * a), 500, f"ladder:{a}"))
        for a in range(2, 7)
    ]
    g38 = ideal_in(R4, *G38_GENS)
    cases.append((g38, sample_box(g38.max_exponents(), 150, "ladder:g38")))
    least_ks = set()
    for I, monomials in cases:
        np_ = compute_np(I)
        least_k = {
            (m, n): next(
                (k for k in range(1, 13) if contains_in_power(I, tuple(k * e for e in m), k * n)),
                None,
            )
            for m in monomials
            for n in n_values
        }
        least_ks.update(least_k.values())
        for k_max in range(1, 13):
            for m in monomials:
                expected = [
                    (m, n)
                    for n in n_values
                    if np_contains(np_, m, n)
                    != (least_k[m, n] is not None and least_k[m, n] <= k_max)
                ]
                asked.clear()
                got = closure_oracle_discrepancies(I, [m], n_values, k_max)
                assert got == expected, (I.min_gens, m, k_max)
                answers = []
                for km, t, answer in asked:
                    k = next(a // b for a, b in zip(km, m) if b)
                    n = t // k
                    assert k_max // 2 < k <= k_max, (I.min_gens, m, k_max, asked)
                    for k2, n2, answer2 in answers:
                        implied_yes = answer2 and k % k2 == 0 and n <= n2
                        implied_no = not answer2 and k2 % k == 0 and n >= n2
                        assert not implied_yes and not implied_no, (I.min_gens, m, k_max, asked)
                    answers.append((k, n, answer))
                succeeded = max((n for _, n, answer in answers if answer), default=0)
                assert all(n >= succeeded for _, n, _ in answers), (I.min_gens, m, k_max, asked)
    assert set(range(2, 7)) <= least_ks


def test_closure_oracle_asks_once_per_member_on_g38(monkeypatch):
    # in the corpus sample of g38 the least working k of every facet member
    # is 1, 2, 3 or 4, each a divisor of k_max = 12, so the ladder from the
    # top answers a sample with one successful search (at its largest
    # member n, its goal) and never fails a search; the ascending ladder
    # failed at every k below the least one first.  A member that an
    # earlier member divides at its goal needs no search at all, and
    # neither does a member of goal 1 that a generator divides (k = 1)
    asked = recording_search(monkeypatch)
    g38 = ideal_in(R4, *G38_GENS)
    monomials = sample_box(g38.max_exponents(), 500, "1:g38-quartics-plus-xyzw")
    assert closure_oracle_discrepancies(g38, monomials) == []
    goals = [min(cut, 3) for cut in dilation_cuts(compute_np(g38).rows, monomials, 3)]
    searched = 0
    for i, (m, goal) in enumerate(zip(monomials, goals)):
        if (
            goal >= 1
            and not any(goals[j] >= goal and all(map(le, monomials[j], m)) for j in range(i))
            and not (goal == 1 and any(all(map(le, g, m)) for g in G38_GENS))
        ):
            searched += 1
    assert searched == 122 and sum(goal >= 1 for goal in goals) == 469
    assert [answer for _, _, answer in asked] == [True] * searched


@pytest.mark.parametrize("seed, questions", [(0, 208), (1, 212), (7, 215)])
def test_closure_oracle_question_count_on_the_corpus(monkeypatch, corpus_ideals, seed, questions):
    # a corpus pass asks this many raw-power questions, each answered
    # True; which samples are searched depends on the two cuts alone, so
    # the lanes that compute them must leave the count as it was
    asked = recording_search(monkeypatch)
    for entry, I in corpus_ideals:
        samples = sample_box(I.max_exponents(), ORACLE_SAMPLE_CAP, f"{seed}:{entry['id']}")
        assert closure_oracle_discrepancies(I, samples, ORACLE_DILATIONS) == [], entry["id"]
    assert len(asked) == questions
    assert all(answer for _, _, answer in asked)


def test_closure_oracle_reports_members_of_a_sample_it_does_not_search(monkeypatch):
    # with 3x + 2y >= 6 the weight cuts of these samples are 0, 0, 1 and 1,
    # all below the dilations asked, so none is searched; a facet route
    # that puts every sample in every dilation must show at each of them
    asked = recording_search(monkeypatch)
    I = ideal_in(R2, (2, 0), (0, 3))
    monomials = [(0, 0), (1, 1), (1, 2), (2, 0)]
    n_values = (3, 2)
    assert closure_oracle_discrepancies(I, monomials, n_values) == []
    monkeypatch.setattr(
        reesval.verify, "_capped_dilation_cuts", lambda rows, points, cap: [cap] * len(points)
    )
    expected = [(m, n) for m in monomials for n in n_values]
    assert closure_oracle_discrepancies(I, monomials, n_values) == expected
    assert asked == []


def test_closure_oracle_searches_a_goal_above_the_dominated_one(monkeypatch):
    # on (x^2, y^2) with k = 1 only, x^3*y is a member at n = 1 (x^2
    # divides it, so the generators settle it without a search) but not at
    # n = 2, where its weight cut (3 + 1) // 2 = 2 leaves it open.  x^3*y^2
    # above it is dominated at n = 1 only, so it must still search n = 2
    # (and succeeds: x^2*y^2 divides it), and a repeat of x^3*y must search
    # n = 2 again and fail as the first copy did
    asked = recording_search(monkeypatch)
    I = ideal_in(R2, (2, 0), (0, 2))
    monomials = [(3, 1), (3, 2), (3, 1)]
    assert closure_oracle_discrepancies(I, monomials, (1, 2), 1) == [((3, 1), 2), ((3, 1), 2)]
    assert asked == [((3, 1), 2, False), ((3, 2), 2, True), ((3, 1), 2, False)]


def test_closure_oracle_settles_n_1_from_the_generators(monkeypatch):
    # x^2*y lies above the generator x^2, so x^{2k}y^k is in I^k already at
    # k = 1, and the generators alone settle n = 1: no rung is asked for
    # it, though no earlier sample divides it (the generators are left out
    # of the samples).  A facet cut lowered from 1 to 0 there must still
    # show as ((2, 1), 1), read off that store.  Either way the only
    # questions are those of the two samples no generator settles: x*y^2
    # at n = 1 and x^2*y^3 at n = 2
    asked = recording_search(monkeypatch)
    I = ideal_in(R2, (2, 0), (0, 3))
    monomials = [(a, b) for a in range(3) for b in range(4) if (a, b) not in I.min_gens]
    assert closure_oracle_discrepancies(I, monomials) == []
    honest = reesval.verify._capped_dilation_cuts

    def lowered(rows, points, cap):
        cuts = honest(rows, points, cap)
        i = points.index((2, 1))
        assert cuts[i] == 1
        cuts[i] = 0
        return cuts

    monkeypatch.setattr(reesval.verify, "_capped_dilation_cuts", lowered)
    assert closure_oracle_discrepancies(I, monomials) == [((2, 1), 1)]
    assert asked == [((12, 24), 12, True), ((24, 36), 24, True)] * 2


def test_closure_oracle_result_does_not_depend_on_sample_order(monkeypatch):
    # the kept members only ever skip searches whose answer they imply, so
    # reversed and shuffled samples give the same pairs, up to order: on
    # the corpus at two seeds, on small random ideals at a k_max low enough
    # that searches fail, and on polyhedra with a raised, a dropped or a
    # negative-entry facet, where the weights leave non-members open
    rng = random.Random(1818)
    cases = []
    for line in (REPO / "corpus" / "standard.jsonl").read_text().splitlines():
        entry = json.loads(line)
        I = normalize([tuple(g) for g in entry["gens"]], RingContext(tuple(entry["ring"])))
        for seed in (0, 7):
            cases.append((I, sample_box(I.max_exponents(), 500, f"{seed}:{entry['id']}"), 12, None))
    for I in random_proper_ideals(rng, (2, 3, 4), 12):
        monomials = sample_box(tuple(2 * e for e in I.max_exponents()), 60, f"order:{I.min_gens}")
        facets = compute_np(I).facets
        i = next(i for i, f in enumerate(facets) if f.offset)
        raised = FacetInequality(facets[i].normal, facets[i].offset + 1)
        bogus = SimpleNamespace(normal=(2,) + (-1,) * (I.ring.dimension - 1), offset=1)
        for corrupted in (
            None,
            facets[:i] + (raised,) + facets[i + 1 :],
            facets[:i] + facets[i + 1 :],
            facets + (bogus,),
        ):
            np_ = corrupted and NewtonPolyhedron(I.ring, corrupted)
            for k_max in (1, 2, 12):
                cases.append((I, monomials, k_max, np_))
    reordered = 0
    for I, monomials, k_max, np_ in cases:
        if np_ is None:
            monkeypatch.undo()
        else:
            monkeypatch.setattr(reesval.verify, "compute_np", lambda _, p=np_: p)
        expected = sorted(closure_oracle_discrepancies(I, monomials, (1, 2, 3), k_max))
        shuffled = monomials[:]
        rng.shuffle(shuffled)
        for order in (monomials[::-1], shuffled):
            got = closure_oracle_discrepancies(I, order, (1, 2, 3), k_max)
            assert sorted(got) == expected, (I.min_gens, k_max)
        reordered += bool(expected)
    assert reordered


def test_closure_oracle_rejects_bad_arguments():
    I = ideal_in(R2, (2, 0), (0, 3))
    for k_max in (0, -1, True, 2.0):
        with pytest.raises(InvalidInput):
            closure_oracle_discrepancies(I, [(2, 0)], (1,), k_max)
    for n_values in ((), (0,), (1, -2), (True,), (1.0,)):
        with pytest.raises(InvalidInput):
            closure_oracle_discrepancies(I, [(2, 0)], n_values)
    # each sample is validated once, before the search, and still rejected;
    # a string entry would otherwise reach the search as a TypeError
    for sample in ((2,), (2, 0, 1), (-1, 3), (2.0, 0), (True, 2), ("1", 0)):
        with pytest.raises(InvalidInput):
            closure_oracle_discrepancies(I, [(1, 1), sample], (1, 2))


def random_proper_ideals(rng, dims, count):
    rings = {2: R2, 3: R3, 4: R4}
    ideals = []
    while len(ideals) < count:
        d = rng.choice(dims)
        gens = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        I = normalize([g for g in gens if any(g)], rings[d])
        if I.is_proper_nonzero():
            ideals.append(I)
    return ideals


def test_separating_weights_certify_only_non_members():
    # w.m < n*b must leave x^{km} outside I^{kn} for every k; on honest
    # facets the weights are exactly the positive-offset facets, because a
    # facet's offset is attained at a generator
    rng = random.Random(919)
    certified = 0
    for I in random_proper_ideals(rng, (2, 3, 4), 10):
        facets = compute_np(I).facets
        weights = _separating_weights(I, facets)
        assert set(weights) == {(f.normal, f.offset) for f in facets if f.offset > 0}
        box = tuple(2 * e for e in I.max_exponents())
        for m in sample_box(box, 20, f"weights:{I.min_gens}"):
            for n in (1, 2, 3):
                if any(sum(map(mul, w, m)) < n * b for w, b in weights):
                    certified += 1
                    assert not in_closure_by_powers(I, m, n, 12), (I.min_gens, m, n)
    assert certified


def test_closure_oracle_answers_by_definition_on_corrupted_facets(monkeypatch):
    # a raised offset would certify true members away if it were read, a
    # dropped facet removes a weight; the raw route must still answer by
    # the definition, so the pairs are the literal comparison against the
    # corrupted facet route
    rng = random.Random(4242)
    n_values = (1, 2, 3)
    flagged = 0
    for I in random_proper_ideals(rng, (2, 3), 6):
        honest = compute_np(I)
        box = tuple(2 * e for e in I.max_exponents())
        monomials = sample_box(box, 20, f"corrupt:{I.min_gens}")
        by_powers = {(m, n): in_closure_by_powers(I, m, n) for m in monomials for n in n_values}
        facets = honest.facets
        for i, f in enumerate(facets):
            if not f.offset:
                continue
            raised = FacetInequality(f.normal, f.offset + 1)
            for corrupted in (
                facets[:i] + (raised,) + facets[i + 1 :],
                facets[:i] + facets[i + 1 :],
            ):
                np_ = NewtonPolyhedron(I.ring, corrupted)
                monkeypatch.setattr(reesval.verify, "compute_np", lambda _, p=np_: p)
                expected = [
                    (m, n)
                    for m in monomials
                    for n in n_values
                    if np_contains(np_, m, n) != by_powers[m, n]
                ]
                assert closure_oracle_discrepancies(I, monomials, n_values) == expected
                flagged += len(expected)
    assert flagged


def test_closure_oracle_drops_weights_with_negative_entries(monkeypatch):
    # (2, -1) has b = min(4, 1) = 1 > 0 on (x^2, xy) but is no valid weight:
    # it would certify x*y^3 away at n = 1, though xy divides it
    I = ideal_in(R2, (2, 0), (1, 1))
    honest = compute_np(I)
    bogus = SimpleNamespace(normal=(2, -1), offset=1)
    np_ = NewtonPolyhedron(I.ring, honest.facets + (bogus,))
    monkeypatch.setattr(reesval.verify, "compute_np", lambda _: np_)
    assert closure_oracle_discrepancies(I, [(1, 3), (2, 0)], (1,)) == [((1, 3), 1)]


def test_bool_is_no_power_or_cap():
    # bool is an int subclass; True used to pass as 1, and a cached
    # closure for n = 1 answered n = True without validating it
    I = ideal_in(R2, (2, 0), (1, 1))
    assert integral_closure_power(I, 1) == I
    calls = (
        lambda: ideal_power(I, True),
        lambda: ideal_power(I, False),
        lambda: integral_closure_power(I, True),
        lambda: samuel_order(I, (2, 2), True),
        lambda: a_star(I, True),
        lambda: verify_localization(I, (1,), True),
    )
    for call in calls:
        with pytest.raises(InvalidInput):
            call()
