"""Irreducible decomposition and associated primes, against worked
examples, a reconstruction property, and the colon-scan oracle."""

import hashlib
import json
import random

import pytest

from reesval import (
    InvalidInput,
    MonomialPrime,
    RingContext,
    associated_primes,
    associated_primes_bruteforce,
    colon,
    equals,
    integral_closure_power,
    irreducible_decomposition,
    minimal_primes,
    normalize,
    unit_ideal,
)
from oracles import (
    colon_witness,
    contains_ideal,
    ideal_intersection,
    minimal_primes_ref,
    pure_powers,
    zero_ideal,
)

R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))


def ideal2(*gens):
    return normalize(gens, R2)


def primes_of(names_sets, ring):
    return frozenset(
        MonomialPrime(tuple(sorted(ring.variable_names.index(n) for n in names)))
        for names in names_sets
    )


def prime_of(bounds, ring):
    """The monomial prime on the support of a component's bounds."""
    return pure_powers(ring, ((v, 1) for v, _ in bounds))


def intersect_all(ideals):
    result = ideals[0]
    for other in ideals[1:]:
        result = ideal_intersection(result, other)
    return result


# --- irreducible decomposition ----------------------------------------------

def test_decomposition_x2_xy():
    J = ideal2((2, 0), (1, 1))
    comps = irreducible_decomposition(J)
    assert comps == (((0, 1),), ((0, 2), (1, 1)))
    assert {pure_powers(R2, c).min_gens for c in comps} == {((1, 0),), ((0, 1), (2, 0))}
    assert equals(intersect_all([pure_powers(R2, c) for c in comps]), J)


def test_decomposition_xy():
    comps = irreducible_decomposition(ideal2((1, 1)))
    assert comps == (((0, 1),), ((1, 1),))
    assert {pure_powers(R2, c).min_gens for c in comps} == {((1, 0),), ((0, 1),)}


def test_decomposition_pure_powers_is_already_irreducible():
    J = ideal2((2, 0), (0, 3))
    comps = irreducible_decomposition(J)
    assert comps == (((0, 2), (1, 3)),)
    assert equals(pure_powers(R2, comps[0]), J)


def test_decomposition_rejects_unit_and_zero():
    with pytest.raises(InvalidInput):
        irreducible_decomposition(unit_ideal(R2))
    with pytest.raises(InvalidInput):
        irreducible_decomposition(zero_ideal(R2))


def test_component_outside_the_ring_is_rejected():
    # naming a prime with a variable outside the ring is an error, never a
    # name to drop
    for vars_ in ((2,), (0, 2)):
        with pytest.raises(InvalidInput):
            MonomialPrime(vars_).names(R2)
    assert MonomialPrime((0, 1)).names(R2) == ("x", "y")


def test_decomposition_reconstruction_over_corpus(corpus_ideals):
    for entry, ideal in corpus_ideals:
        comps = [pure_powers(ideal.ring, c) for c in irreducible_decomposition(ideal)]
        assert equals(intersect_all(comps), ideal), entry["id"]


def test_decomposition_irredundant_over_corpus(corpus_ideals):
    # every component is needed: dropping it changes the intersection
    for entry, ideal in corpus_ideals:
        comps = [pure_powers(ideal.ring, c) for c in irreducible_decomposition(ideal)]
        if len(comps) == 1:
            continue
        if len(comps) > 8:
            continue  # the quadratic-many intersections get large; spot checks suffice
        for i, comp in enumerate(comps):
            others = intersect_all(comps[:i] + comps[i + 1 :])
            assert not contains_ideal(comp, others), (entry["id"], i)


def test_decomposition_colon_certificates_over_corpus_closures(corpus_ideals):
    # no size skip: one colon per component covers the large closures too
    for entry, ideal in corpus_ideals:
        for n in (1, 2):
            J = integral_closure_power(ideal, n)
            for comp in irreducible_decomposition(J):
                got = colon(J, colon_witness(J, comp))
                assert equals(got, prime_of(comp, J.ring)), (entry["id"], n, comp)


def test_decomposition_content_and_order_are_pinned(corpus_ideals):
    # the bounds of every component of closure(I^n), n = 1, 2, 3, for every
    # corpus entry in file order, in the order the decomposition gives them;
    # 123 decompositions with 1 264 components in all
    found = [
        [list(map(list, c)) for c in irreducible_decomposition(integral_closure_power(I, n))]
        for _, I in corpus_ideals
        for n in (1, 2, 3)
    ]
    assert (len(found), sum(map(len, found))) == (123, 1264)
    digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()[:16]
    assert digest == "157c5cb5d3d7bb9d"


def test_decomposition_certified_at_field_edges():
    # bounds are packed into fields one bit wider than big = 1 + the
    # largest exponent, so big runs through 2^k - 1 and 2^k here; the
    # intersection and one colon witness per component certify the result,
    # and each component is a tuple of int pairs, indexes ascending and
    # distinct inside the ring, exponents at least 1
    R1 = RingContext(("x",))
    R6 = RingContext(("x", "y", "z", "w", "u", "v"))
    ideals = [normalize([(e,)], R1) for e in (1, 2, 3, 6, 7, 14, 15)]
    for top in (6, 7, 14, 15):
        ideals.append(normalize([(top, 0), (top - 1, top - 1), (0, top)], R2))
        ideals.append(
            normalize([(top, 0, 0), (top - 1, 1, 0), (1, top - 1, 1), (0, 2, top)], R3)
        )
    unit = [tuple(int(i == v) for i in range(6)) for v in range(6)]
    squares = [tuple(2 * e for e in g) for g in unit]
    edges = [tuple(2 * (a + b) for a, b in zip(g, h)) for g, h in zip(unit, unit[1:] + unit[:1])]
    ideals += [normalize(squares, R6), normalize(edges, R6), normalize(squares[:3] + edges[3:], R6)]
    for J in ideals:
        comps = irreducible_decomposition(J)
        assert intersect_all([pure_powers(J.ring, c) for c in comps]) == J, J.min_gens
        for comp in comps:
            idxs = [v for v, _ in comp]
            assert type(comp) is tuple and comp, (J.min_gens, comp)
            assert idxs == sorted(set(idxs)) and 0 <= idxs[0] and idxs[-1] < J.ring.dimension
            assert all(type(p) is tuple and len(p) == 2 for p in comp), (J.min_gens, comp)
            assert all(type(v) is int and type(e) is int and e >= 1 for v, e in comp)
            assert colon(J, colon_witness(J, comp)) == prime_of(comp, J.ring), (J.min_gens, comp)


# --- associated primes --------------------------------------------------------

def test_associated_primes_x2_xy():
    assert associated_primes(ideal2((2, 0), (1, 1))) == primes_of(
        [("x",), ("x", "y")], R2
    )


def test_associated_primes_xy():
    assert associated_primes(ideal2((1, 1))) == primes_of([("x",), ("y",)], R2)


def test_associated_primes_of_prime_is_itself():
    for vars_ in [(0,), (1,), (0, 1)]:
        P = MonomialPrime(vars_)
        assert associated_primes(pure_powers(R2, ((v, 1) for v in vars_))) == frozenset({P})
    for vars_ in [(0,), (0, 2), (0, 1, 2)]:
        P = MonomialPrime(vars_)
        assert associated_primes(pure_powers(R3, ((v, 1) for v in vars_))) == frozenset({P})


def test_bruteforce_examples():
    assert associated_primes_bruteforce(ideal2((2, 0), (1, 1)), 3) == primes_of(
        [("x",), ("x", "y")], R2
    )
    assert associated_primes_bruteforce(normalize([(3,)], RingContext(("x",))), 4) == \
        primes_of([("x",)], RingContext(("x",)))
    assert associated_primes_bruteforce(ideal2((2, 0), (0, 3)), 4) == primes_of(
        [("x", "y")], R2
    )


def test_oracle_agreement_worked_examples():
    for gens in [((2, 0), (1, 1)), ((1, 1),), ((2, 0), (0, 3)), ((2, 3),)]:
        J = normalize(gens, R2)
        assert associated_primes(J) == associated_primes_bruteforce(J)


def test_embedded_prime_of_triangle_square():
    # closure of the triangle edge ideal squared picks up the full maximal prime
    T = normalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], R3)
    ass2 = associated_primes(integral_closure_power(T, 2))
    assert primes_of([("x", "y", "z")], R3) <= ass2
    assert associated_primes_bruteforce(integral_closure_power(T, 2)) == ass2


# --- minimal primes -----------------------------------------------------------

def test_minimal_primes_examples():
    assert minimal_primes(ideal2((2, 0), (1, 1))) == primes_of([("x",)], R2)
    assert minimal_primes(ideal2((1, 1))) == primes_of([("x",), ("y",)], R2)
    assert minimal_primes(ideal2((2, 0), (0, 3))) == primes_of([("x", "y")], R2)


def test_minimal_primes_triangle():
    T = normalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], R3)
    assert minimal_primes(T) == primes_of(
        [("x", "y"), ("y", "z"), ("x", "z")], R3
    )


def test_minimal_primes_match_brute_force():
    # zero-heavy generators give supports of every size, so the minimal
    # primes range from single variables to the whole ring
    rng = random.Random(1717)
    names = ("x", "y", "z", "w", "u", "v")
    for d in range(1, 7):
        ring = RingContext(names[:d])
        made = 0
        while made < 40:
            gens = [
                tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(d))
                for _ in range(rng.randint(1, 7))
            ]
            J = normalize([g for g in gens if any(g)], ring)
            if not J.is_proper_nonzero():
                continue
            made += 1
            assert minimal_primes(J) == minimal_primes_ref(J), J.min_gens


def test_minimal_subset_of_associated_over_corpus(corpus_ideals):
    for entry, ideal in corpus_ideals:
        assert minimal_primes(ideal) <= associated_primes(ideal), entry["id"]
