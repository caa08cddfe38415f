"""Facet enumeration, closure of powers, and the asymptotic order function.

The facet set is checked against an independent subset-solving hull oracle
and an incidence/rank audit; closures are recomputed through raw powers.
"""

import copy
import math
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reesval.newton
from reesval import (
    FacetInequality,
    InvalidInput,
    NewtonPolyhedron,
    RingContext,
    compute_np,
    equals,
    ideal_power,
    integral_closure_power,
    normalize,
    np_contains,
    rees_valuations,
    samuel_order,
    unit_ideal,
    vbar,
)
from reesval.newton import _capped_dilation_cuts
from oracles import (
    closure_by_power_oracle,
    contains_ideal,
    contains_monomial,
    dilation_cuts,
    facets_bruteforce,
    monomial_in_power_ref,
    rational_rank,
    zero_ideal,
)

R1 = RingContext(("x",))
R2 = RingContext(("x", "y"))


def ideal2(*gens):
    return normalize(gens, R2)


def facet_set(I):
    return {(f.normal, f.offset) for f in compute_np(I).facets}


# --- facet goldens ------------------------------------------------------------

def test_np_x2_y3():
    assert facet_set(ideal2((2, 0), (0, 3))) == {((3, 2), 6), ((1, 0), 0), ((0, 1), 0)}


def test_np_principal_x_in_two_vars():
    assert facet_set(ideal2((1, 0))) == {((1, 0), 1), ((0, 1), 0)}


def test_np_x2_xy():
    assert facet_set(ideal2((2, 0), (1, 1))) == {
        ((1, 1), 2),
        ((1, 0), 1),
        ((0, 1), 0),
    }


def test_facet_inequality_needs_int_data():
    # the oracle's separating weights need exact non-negative normals;
    # bool is an int subclass but no coefficient
    for normal, offset in (
        ((1, 1), 2.5),
        ((1, 1), True),
        ((1, 1), Fraction(2)),
        ((1, 1), -1),
        ((1.0, 1), 2),
        ((True, 1), 2),
        ((Fraction(1), 1), 2),
        (("1", 1), 2),
        ((1, -1), 2),
        ((0, 0), 2),
        ((2, 2), 2),
    ):
        with pytest.raises(InvalidInput):
            FacetInequality(normal, offset)
    assert FacetInequality([3, 2], 6).normal == (3, 2)


def test_np_rejects_unit_zero_ideal():
    with pytest.raises(InvalidInput):
        compute_np(unit_ideal(R2))
    with pytest.raises(InvalidInput):
        compute_np(zero_ideal(R2))


def test_polyhedra_are_built_once_per_ideal_object(monkeypatch):
    # compute_np keeps each polyhedron on its ideal (core.per_ideal), so
    # asking about I, J, I, J, I runs two double descriptions, not one per
    # switch; an equal but distinct ideal builds its own; a rejected ideal
    # stores nothing and is rejected again; and the memo is not a field, so
    # a filled one changes no equality, hash, repr, pickle or copy
    R3 = RingContext(("x", "y", "z"))
    honest, builds = reesval.newton._dual_extreme_rays, []

    def counting(points, d):
        builds.append(points)
        return honest(points, d)

    monkeypatch.setattr(reesval.newton, "_dual_extreme_rays", counting)
    I = normalize([(2, 0, 0), (0, 3, 0), (1, 1, 1)], R3)
    J = normalize([(1, 0, 0), (0, 2, 2)], R3)
    values = [vbar(K, (1, 1, 1)) for K in (I, J, I, J, I)]
    assert builds == [I.min_gens, J.min_gens]
    assert values == [Fraction(1), Fraction(3, 2)] * 2 + [Fraction(1)]
    twin = normalize(I.min_gens, R3)
    assert twin == I and twin is not I
    assert compute_np(twin) == compute_np(I) and compute_np(twin) is not compute_np(I)
    assert len(builds) == 3
    unit = unit_ideal(R3)
    for _ in range(2):
        with pytest.raises(InvalidInput):
            compute_np(unit)
    assert getattr(unit, "_memo", {}) == {} and len(builds) == 3
    blank = normalize(I.min_gens, R3)
    assert (I, hash(I), repr(I)) == (blank, hash(blank), repr(blank))
    assert pickle.dumps(I) == pickle.dumps(blank)
    for clone in (pickle.loads(pickle.dumps(I)), copy.copy(I), copy.deepcopy(I)):
        assert clone == I and not hasattr(clone, "_memo")


def test_threads_sharing_ideals_read_equal_polyhedra():
    # threads racing on one ideal's memo may each build a polyhedron, but
    # every answer equals the serial one and a memo keeps only such values
    rng = random.Random(3600)
    specs = [(random_ideal(rng, 3).min_gens, (rng.randint(0, 6), rng.randint(0, 6), 1))
             for _ in range(24)]
    R = RingContext(("x", "y", "z"))
    serial = [(normalize(g, R), m) for g, m in specs]
    expected = [(compute_np(K), vbar(K, m)) for K, m in serial]
    shared = [normalize(g, R) for g, _ in specs]
    answers = {k: [] for k in range(4)}

    def work(k):
        for I, (_, m) in zip(shared[k:] + shared[:k], specs[k:] + specs[:k]):
            answers[k].append((compute_np(I), vbar(I, m)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in answers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, got in answers.items():
        assert got == expected[k:] + expected[:k]
    for I, (np_, _) in zip(shared, expected):
        assert all(value == np_ for value in I._memo.values())


# --- facet soundness and the independent hull oracle ---------------------------

def test_facets_match_bruteforce_oracle(corpus_ideals):
    for entry, ideal in corpus_ideals:
        assert facet_set(ideal) == facets_bruteforce(list(ideal.min_gens)), entry["id"]


def test_facet_incidence_rank(corpus_ideals):
    # every facet is valid on all generators and tight on d linearly
    # independent homogenized generators (points at height 1, rays at 0)
    for entry, ideal in corpus_ideals:
        d = ideal.ring.dimension
        np_ = compute_np(ideal)
        for facet in np_.facets:
            values = [sum(a * e for a, e in zip(facet.normal, p)) for p in ideal.min_gens]
            assert all(v >= facet.offset for v in values), entry["id"]
            tight = [
                tuple(p) + (1,)
                for p, v in zip(ideal.min_gens, values)
                if v == facet.offset
            ]
            tight += [
                tuple(1 if j == i else 0 for j in range(d)) + (0,)
                for i in range(d)
                if facet.normal[i] == 0
            ]
            assert rational_rank(tight) == d, (entry["id"], facet)


# --- membership ----------------------------------------------------------------

def test_np_contains_examples():
    np_ = compute_np(ideal2((2, 0), (0, 3)))
    assert np_contains(np_, (1, 2), 1)
    assert not np_contains(np_, (1, 1), 1)
    assert np_contains(np_, (0, 0), 0)
    assert np_contains(np_, (Fraction(2, 3), Fraction(2)), 1)  # 2 + 4 >= 6
    with pytest.raises(InvalidInput):
        np_contains(np_, (-1, 0), 1)


def test_np_contains_rejects_inexact_inputs():
    np_ = compute_np(ideal2((2, 0), (0, 3)))
    for q in ((0.1, 2.95), ("1/2", "3"), (1, None), (True, 3), (1, 2, 3), (Fraction(-1, 2), 4)):
        with pytest.raises(InvalidInput):
            np_contains(np_, q, 1)
    for scale in (0.5, "1", None, True, Fraction(-1, 3), -1):
        with pytest.raises(InvalidInput):
            np_contains(np_, (2, 3), scale)


# 3x + 2y >= 6 is the one positive-offset facet of NP(x^2, y^3); points and
# scales on a coarse rational grid land on its dilations often
grid = st.fractions(min_value=0, max_value=8, max_denominator=4)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.one_of(st.integers(0, 8), grid), st.one_of(st.integers(0, 8), grid)),
    st.one_of(st.integers(0, 3), st.fractions(min_value=0, max_value=3, max_denominator=6)),
)
@example((Fraction(1, 3), Fraction(5, 4)), Fraction(7, 12))  # 3.5 >= 3.5
@example((Fraction(1, 3), Fraction(5, 4)), Fraction(29, 48))  # 3.5 < 3.625
def test_np_contains_matches_fraction_definition(q, scale):
    np_ = compute_np(ideal2((2, 0), (0, 3)))
    expected = all(
        sum(a * Fraction(c) for a, c in zip(f.normal, q)) >= Fraction(scale) * f.offset
        for f in np_.facets
    )
    assert np_contains(np_, q, scale) == expected


# --- facet rows and the per-sample cut ------------------------------------------

def random_ideal(rng, d):
    while True:
        gens = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        I = normalize([g for g in gens if any(g)], RingContext(("x", "y", "z", "w", "u")[:d]))
        if I.is_proper_nonzero():
            return I


def test_dilation_cut_matches_np_contains():
    # m in n*NP iff n <= cut, and the cut is the integer floor(vbar(m))
    rng = random.Random(1107)
    for d in (2, 3, 4, 5):
        for _ in range(4):
            I = random_ideal(rng, d)
            np_ = compute_np(I)
            box = tuple(3 * e for e in I.max_exponents())
            points = [tuple(rng.randint(0, b) for b in box) for _ in range(15)]
            cuts = dilation_cuts(np_.rows, points, 4)
            assert len(cuts) == len(points)
            for m, cut in zip(points, cuts):
                assert type(cut) is int and cut == math.floor(vbar(I, m)), (I.min_gens, m)
                for n in range(1, 5):
                    assert (n <= cut) == np_contains(np_, m, n), (I.min_gens, m, n)


def test_dilation_cuts_match_a_plain_min_per_point():
    # the column maps are exact for any int entries: negative normals and
    # offsets, huge values, d = 1, and no rows or no points at all
    rng = random.Random(1808)
    for d in (1, 2, 3, 5):
        for _ in range(30):
            rows = [
                (tuple(rng.randint(-9, 9) for _ in range(d)), rng.choice((-3, 1, 2, 7, 2**70)))
                for _ in range(rng.randint(0, 6))
            ]
            points = [
                tuple(rng.choice((0, 1, 5, 3**50)) * rng.randint(0, 9) for _ in range(d))
                for _ in range(rng.randint(0, 12))
            ]
            expected = [
                min((sum(a_j * m_j for a_j, m_j in zip(a, m)) // b for a, b in rows), default=-7)
                for m in points
            ]
            assert dilation_cuts(rows, points, -7) == expected, (rows, points)
    assert dilation_cuts([((2, 1), 3)], [], 4) == []
    assert dilation_cuts([], [(1, 2), (0, 0)], 4) == [4, 4]
    assert dilation_cuts([((2,), 3), ((-1,), 1)], [(0,), (4,), (7,)], 9) == [0, -4, -7]


def test_capped_dilation_cuts_match_the_exact_cuts():
    # one lane per point gives min(cap, max(0, cut)) for every point, with
    # rows that have a negative entry and values near or past 2**63 (wider
    # lanes); every offset is at least 1, as in a NewtonPolyhedron's rows
    rng = random.Random(1901)
    big = 2**63
    for d in range(1, 7):
        for cap in range(1, 5):
            for _ in range(12):
                rows = [
                    (tuple(rng.randint(0, 9) for _ in range(d)), rng.randint(1, 20))
                    for _ in range(rng.randint(0, 5))
                ]
                if rng.random() < 0.3:
                    rows.append((tuple(rng.randint(-4, 9) for _ in range(d)), rng.randint(1, 9)))
                if rng.random() < 0.2:
                    rows.append(((1,) * d, rng.choice((big // cap, big // cap + 1))))
                points = [
                    tuple(rng.randint(0, 40) for _ in range(d))
                    for _ in range(rng.randint(0, 30))
                ]
                if points and rng.random() < 0.2:
                    near = (big // d - 1, big // d, big, 3**50)
                    points.append(tuple(rng.choice(near) for _ in range(d)))
                exact = dilation_cuts(rows, points, cap)
                expected = [min(cap, max(0, c)) for c in exact]
                assert _capped_dilation_cuts(rows, points, cap) == expected, (rows, points, cap)
    assert _capped_dilation_cuts([((2, 1), 3)], [], 4) == []
    assert _capped_dilation_cuts([], [(1, 2), (0, 0)], 3) == [3, 3]
    assert _capped_dilation_cuts([((2,), 3), ((-1,), 1)], [(0,), (4,), (7,)], 9) == [0, 0, 0]
    # at the lane edge: a.m = 2**63 - 2 in a lane, and n*b up to 2**63 - 2
    edge = [(big // 2 - 1, big // 2 - 1), (0, 1)]
    assert _capped_dilation_cuts([((1, 1), 1)], edge, 2) == [2, 1]
    assert _capped_dilation_cuts([((1, 1), big // 2 - 1)], edge, 2) == [2, 0]
    # just past it, lanes wider than 64 bits: sum(a) * max(m) = 2**63,
    # cap * b = 2**63
    assert _capped_dilation_cuts([((1, 1), 1)], [(big // 2, 0)], 3) == [3]
    assert _capped_dilation_cuts([((1,), big // 2)], [(big - 1,), (big // 2,)], 2) == [1, 1]
    # a.m near -2**64 in one lane: the width covers the negative part of a,
    # so no borrow reaches the next lane, which sits at a.m = n*b
    assert _capped_dilation_cuts([((1, -2), 1)], [(0, big - 1), (1, 0)], 2) == [0, 1]


def test_dilation_cut_without_positive_offset_row():
    # dropping the only positive-offset facet leaves every point in every
    # dilation; the cut is then the default, and membership holds for int
    # and Fraction points and scales alike
    np_ = NewtonPolyhedron(R2, (FacetInequality((0, 1), 0),))
    assert np_.rows == ()
    points = list(product(range(3), repeat=2))
    assert dilation_cuts(np_.rows, points, 4) == [4] * len(points)
    assert _capped_dilation_cuts(np_.rows, points, 4) == [4] * len(points)
    for m in points:
        for n in range(1, 5):
            assert np_contains(np_, m, n)
    for q in product((0, Fraction(1, 3), 2, Fraction(7, 2)), repeat=2):
        for scale in (0, 1, Fraction(1, 2), 3, Fraction(9, 4)):
            assert np_contains(np_, q, scale), (q, scale)


def test_rows_follow_the_facets_given():
    I = ideal2((4, 0), (2, 1), (0, 3))
    honest = compute_np(I)
    assert honest.rows == tuple((v.normal, v.offset) for v in rees_valuations(I))
    facets = (
        FacetInequality((1, 2), 5),
        FacetInequality((1, 0), 0),
        FacetInequality((3, 1), 7),
        FacetInequality((0, 1), 0),
    )
    np_ = NewtonPolyhedron(R2, facets)
    assert np_.rows == (((1, 2), 5), ((3, 1), 7))
    # derived, so it takes no part in equality
    assert np_ == NewtonPolyhedron(R2, facets)


# --- integral closure -----------------------------------------------------------

def test_closure_x2_y3_with_power_oracle():
    I = ideal2((2, 0), (0, 3))
    got = integral_closure_power(I, 1)
    assert got.min_gens == ((2, 0), (1, 2), (0, 3))
    assert set(got.min_gens) == closure_by_power_oracle(I, 1)


def test_closure_principal_is_closed():
    for n in (1, 2, 3, 4):
        I = ideal2((n, 0))
        assert equals(integral_closure_power(I, 1), I)


def test_closure_x2_xy_is_closed():
    I = ideal2((2, 0), (1, 1))
    assert equals(integral_closure_power(I, 1), I)
    assert set(I.min_gens) == closure_by_power_oracle(I, 1)


def test_closure_powers_against_power_oracle_small():
    for gens in [((2, 0), (0, 3)), ((2, 0), (1, 1)), ((1, 1),)]:
        I = normalize(gens, R2)
        for n in (1, 2, 3):
            assert set(integral_closure_power(I, n).min_gens) == \
                closure_by_power_oracle(I, n), (gens, n)


def test_closure_idempotent(corpus_ideals):
    for entry, ideal in corpus_ideals:
        closed = integral_closure_power(ideal, 1)
        for n in (1, 2, 3):
            assert equals(
                integral_closure_power(closed, n), integral_closure_power(ideal, n)
            ), (entry["id"], n)


def test_power_contained_in_closure(corpus_ideals):
    for entry, ideal in corpus_ideals:
        for n in (1, 2, 3):
            assert contains_ideal(
                integral_closure_power(ideal, n), ideal_power(ideal, n)
            ), (entry["id"], n)


def test_closure_of_a_large_power_keeps_the_stack_shallow():
    # every power from the threshold on is one product step; a cold call
    # must not recurse once per step (about 500 steps exhaust the default
    # recursion limit)
    assert integral_closure_power(normalize([(2,)], R1), 3000).min_gens == ((6000,),)
    assert integral_closure_power(ideal2((1, 1)), 2500).min_gens == ((2500, 2500),)


def test_closure_literal_raw_power_equivalence_small():
    # literal two-route agreement, materializing ideal powers up to k*n
    for gens in [((2, 0), (0, 3)), ((2, 0), (1, 1))]:
        I = normalize(gens, R2)
        np_ = compute_np(I)
        box = I.max_exponents()
        for n in (1, 2):
            for m in product(range(box[0] + 1), range(box[1] + 1)):
                facet_route = np_contains(np_, m, n)
                power_route = any(
                    contains_monomial(
                        ideal_power(I, k * n), tuple(k * e for e in m)
                    )
                    for k in range(1, 13)
                )
                assert facet_route == power_route, (gens, m, n)


# --- vbar -----------------------------------------------------------------------

def test_vbar_goldens():
    I = ideal2((2, 0), (0, 3))
    assert vbar(I, (1, 1)) == Fraction(5, 6)
    assert vbar(I, (2, 0)) == 1
    assert vbar(ideal2((1, 0)), (0, 0)) == 0


vbar_cases = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.lists(
            st.tuples(*[st.integers(0, 6)] * d).filter(any), min_size=1, max_size=6
        ),
        st.lists(st.tuples(*[st.integers(0, 24)] * d), min_size=1, max_size=8),
    )
)


@settings(max_examples=120, deadline=None)
@given(vbar_cases)
def test_vbar_is_min_of_facet_ratios(case):
    gens, ms = case
    I = normalize(gens, RingContext(("x", "y", "z", "w")[: len(gens[0])]))
    facets = compute_np(I).facets
    for m in ms:
        expected = min(
            Fraction(sum(a * e for a, e in zip(f.normal, m)), f.offset)
            for f in facets
            if f.offset > 0
        )
        assert vbar(I, m) == expected, (gens, m)


def test_vbar_without_positive_offset_facet_raises(monkeypatch):
    I = ideal2((1, 0))
    only_orthant = NewtonPolyhedron(I.ring, (FacetInequality((0, 1), 0),))
    monkeypatch.setattr(reesval.newton, "compute_np", lambda _: only_orthant)
    with pytest.raises(RuntimeError):
        vbar(I, (1, 1))


def _vbar_by_fractions(np_, m):
    return min(
        Fraction(sum(a * x for a, x in zip(f.normal, m)), f.offset)
        for f in np_.facets
        if f.offset > 0
    )


def test_vbar_lanes_match_fractions_on_random_ideals():
    # 5 and 6 variables at exponent <= 12: every row fits a lane, so vbar
    # reads the packed dot products, here checked against one Fraction per
    # facet; the zero vector and each unit vector are read too
    rng = random.Random(1616)
    for d in (5, 5, 5, 6, 6, 6):
        ring = RingContext(("x", "y", "z", "w", "u", "v")[:d])
        gens = [tuple(rng.randint(0, 12) for _ in range(d)) for _ in range(rng.randint(2, 5))]
        I = normalize([g for g in gens if any(g)], ring)
        np_ = compute_np(I)
        points = [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]
        points += [tuple(rng.randint(0, 24) for _ in range(d)) for _ in range(12)]
        for m in points:
            assert vbar(I, m) == _vbar_by_fractions(np_, m), (I.min_gens, m)
        assert np_._lanes is not None


def test_vbar_lanes_at_the_64_bit_bound(monkeypatch):
    # the lanes serve m while (largest row sum) * max(m) < 2**64; at
    # 2**64 - 1 a lane is filled to its last bit, and at 2**64 a lane would
    # wrap to 0 (row (1, 3) at m = (2**62, 2**62)), so the per-row dot
    # products must answer there
    I = ideal2((1, 0))
    for facets, top in (
        ((FacetInequality((1, 2), 2), FacetInequality((2, 1), 3), FacetInequality((1, 0), 1)), 2**64 - 1),
        ((FacetInequality((1, 3), 2), FacetInequality((3, 1), 3), FacetInequality((0, 1), 0)), 2**64),
    ):
        np_ = NewtonPolyhedron(R2, facets)
        widest = max(map(sum, (f.normal for f in facets)))
        assert top % widest == 0
        monkeypatch.setattr(reesval.newton, "compute_np", lambda _, np_=np_: np_)
        big = top // widest
        for m in [(big, big), (big, 0), (0, big), (big, big - 1), (big - 1, 1), (0, 0)]:
            assert vbar(I, m) == _vbar_by_fractions(np_, m), (facets, m)
        assert vbar(I, (big + 1, big + 1)) == _vbar_by_fractions(np_, (big + 1, big + 1))


def test_vbar_with_a_normal_past_a_lane(monkeypatch):
    # hand-built polyhedra whose row sums reach 2**64 get no lanes, whether
    # an entry itself is past 64 bits or only the sum is; every m, the zero
    # vector included, takes the per-row products
    I = ideal2((1, 0))
    for facets in (
        (FacetInequality((2**64, 1), 5), FacetInequality((1, 0), 1)),
        (FacetInequality((2**63, 2**63 + 1), 3), FacetInequality((3, 2**70 + 1), 7)),
    ):
        np_ = NewtonPolyhedron(R2, facets)
        monkeypatch.setattr(reesval.newton, "compute_np", lambda _, np_=np_: np_)
        for m in product((0, 1, 2, 2**64 + 3), repeat=2):
            assert vbar(I, m) == _vbar_by_fractions(np_, m), (facets, m)
        assert np_._lanes is None


def test_compute_np_facets_pass_the_public_checks():
    # compute_np builds its facets without re-validating them; each one
    # must still be what the checked constructor accepts
    rng = random.Random(16)
    for d in (2, 3, 4, 5):
        for _ in range(3):
            for f in compute_np(random_ideal(rng, d)).facets:
                assert FacetInequality(f.normal, f.offset) == f
                assert type(f.offset) is int and all(type(a) is int for a in f.normal)


def test_vbar_homogeneity():
    I = ideal2((2, 0), (0, 3))
    for m in product(range(4), repeat=2):
        for k in range(1, 5):
            assert vbar(I, tuple(k * e for e in m)) == k * vbar(I, m)


def test_vbar_superadditive():
    I = ideal2((4, 0), (2, 1), (0, 3))
    pts = list(product(range(4), repeat=2))
    for a in pts:
        for b in pts:
            s = tuple(x + y for x, y in zip(a, b))
            assert vbar(I, s) >= vbar(I, a) + vbar(I, b)


def test_vbar_threshold_equivalence_small():
    for gens in [((2, 0), (0, 3)), ((2, 0), (1, 1)), ((2, 3),)]:
        I = normalize(gens, R2)
        box = tuple(4 * e + 1 for e in I.max_exponents())
        for m in product(range(box[0]), range(box[1])):
            v = vbar(I, m)
            for k in (1, 2, 3, 4):
                assert (v >= k) == contains_monomial(
                    integral_closure_power(I, k), m
                ), (gens, m, k)


# --- samuel_order ----------------------------------------------------------------

def test_samuel_order_goldens():
    I = ideal2((2, 0), (0, 3))
    assert samuel_order(I, (6, 6), 10) == 5
    assert samuel_order(normalize([(1,)], R1), (4,), 10) == 4
    assert samuel_order(I, (1, 1), 10) == 0


def test_samuel_order_degenerate_ideals():
    assert samuel_order(unit_ideal(R2), (0, 0), 5) == 5
    assert samuel_order(zero_ideal(R2), (3, 3), 5) == 0


def test_samuel_order_matches_literal_powers():
    # the order against the literal t-multiset definition of J^t membership;
    # points are sums of up to t_max + 1 generators plus a little noise, so
    # orders of 0, in between and at the t_max cap all occur
    rng = random.Random(4242)
    seen = set()
    for d in (2, 3, 4, 5):
        ring = RingContext(("x", "y", "z", "w", "v")[:d])
        for _ in range(12):
            gens = [
                tuple(rng.randint(0, 3) for _ in range(d))
                for _ in range(rng.randint(1, 3))
            ]
            ideal = normalize([g for g in gens if any(g)] or [(1,) * d], ring)
            for J in (ideal, unit_ideal(ring), zero_ideal(ring)):
                for t_max in (1, 2, 3, 4):
                    picks = [
                        rng.choice(ideal.min_gens) for _ in range(rng.randint(1, t_max + 1))
                    ]
                    m = tuple(
                        sum(g[j] for g in picks) + rng.randint(0, 1) for j in range(d)
                    )
                    expected = max(
                        t for t in range(t_max + 1) if monomial_in_power_ref(J, m, t)
                    )
                    assert samuel_order(J, m, t_max) == expected, (J.min_gens, m, t_max)
                    seen.add((expected == 0, expected == t_max))
    assert seen == {(True, False), (False, False), (False, True)}


def test_fekete_lower_approach():
    # samuel_order(I, n*m)/n climbs to vbar from below; exact at offset multiples
    I = ideal2((2, 0), (0, 3))
    m = (1, 1)
    v = vbar(I, m)
    d, max_exp = 2, 3
    for n in (1, 2, 3, 4, 6, 12):
        scaled = tuple(n * e for e in m)
        t_max = n * 2 + 2
        s = samuel_order(I, scaled, t_max)
        gap = v - Fraction(s, n)
        assert 0 <= gap <= Fraction(d * max_exp, n), n
    for n in (6, 12):  # multiples of the only facet offset
        s = samuel_order(I, tuple(n * e for e in m), n * 2 + 2)
        assert Fraction(s, n) == v
