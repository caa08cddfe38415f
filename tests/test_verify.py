"""The asymptotic chain, its stabilization against the centers, and the
localization check, including the pinned negative example."""

import random
from operator import mul
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
    ideal_power,
    integral_closure_power,
    minimal_primes,
    normalize,
    np_contains,
    samuel_order,
    verify_localization,
)
from reesval.sampling import sample_box
from reesval.verify import _separating_weights
from oracles import in_closure_by_powers

R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))
R4 = RingContext(("x", "y", "z", "w"))


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
    assert report.holds()  # vacuous: the hypothesis on S fails


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
    honest = reesval.verify.dilation_cut

    def flipped(rows, m, default):
        cut = honest(rows, m, default)
        if tuple(m) == (1, 2):
            assert cut == 1
            return 2
        return cut

    monkeypatch.setattr(reesval.verify, "dilation_cut", flipped)
    assert closure_oracle_discrepancies(I, monomials) == [((1, 2), 2)]


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
                np_ = NewtonPolyhedron(I.ring, corrupted, honest.points)
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
    np_ = NewtonPolyhedron(I.ring, honest.facets + (bogus,), honest.points)
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
