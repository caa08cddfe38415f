"""Irreducible decomposition and associated primes, against worked
examples, a reconstruction property, and the colon-scan oracle."""

import pytest

from reesval import (
    InvalidInput,
    IrreducibleComponent,
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
    zero_ideal,
)
from oracles import colon_witness, contains_ideal, ideal_intersection

R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))


def ideal2(*gens):
    return normalize(gens, R2)


def primes_of(names_sets, ring):
    return frozenset(
        MonomialPrime(tuple(sorted(ring.variable_names.index(n) for n in names)))
        for names in names_sets
    )


def intersect_all(ideals):
    result = ideals[0]
    for other in ideals[1:]:
        result = ideal_intersection(result, other)
    return result


# --- irreducible decomposition ----------------------------------------------

def test_decomposition_x2_xy():
    J = ideal2((2, 0), (1, 1))
    comps = irreducible_decomposition(J)
    as_ideals = {c.as_ideal(R2).min_gens for c in comps}
    assert as_ideals == {((1, 0),), ((0, 1), (2, 0))}
    assert equals(intersect_all([c.as_ideal(R2) for c in comps]), J)


def test_decomposition_xy():
    comps = irreducible_decomposition(ideal2((1, 1)))
    assert {c.as_ideal(R2).min_gens for c in comps} == {((1, 0),), ((0, 1),)}


def test_decomposition_pure_powers_is_already_irreducible():
    J = ideal2((2, 0), (0, 3))
    comps = irreducible_decomposition(J)
    assert len(comps) == 1
    assert equals(comps[0].as_ideal(R2), J)


def test_decomposition_rejects_unit_and_zero():
    with pytest.raises(InvalidInput):
        irreducible_decomposition(unit_ideal(R2))
    with pytest.raises(InvalidInput):
        irreducible_decomposition(zero_ideal(R2))


def test_component_outside_the_ring_is_rejected():
    # a variable outside the ring is an error for a component, as for a
    # prime, never a bound to drop
    for bounds in (((5, 1),), ((0, 2), (2, 1))):
        with pytest.raises(InvalidInput):
            IrreducibleComponent(bounds).as_ideal(R2)
    with pytest.raises(InvalidInput):
        MonomialPrime((5,)).as_ideal(R2)
    # a monomial prime is the component with every exponent 1
    assert MonomialPrime((0, 1)).as_ideal(R2) == ideal2((1, 0), (0, 1))
    assert IrreducibleComponent(((1, 3),)).as_ideal(R2) == ideal2((0, 3))


def test_decomposition_reconstruction_over_corpus(corpus_ideals):
    for entry, ideal in corpus_ideals:
        comps = [c.as_ideal(ideal.ring) for c in irreducible_decomposition(ideal)]
        assert equals(intersect_all(comps), ideal), entry["id"]


def test_decomposition_irredundant_over_corpus(corpus_ideals):
    # every component is needed: dropping it changes the intersection
    for entry, ideal in corpus_ideals:
        comps = [c.as_ideal(ideal.ring) for c in irreducible_decomposition(ideal)]
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
                prime = MonomialPrime(comp.support()).as_ideal(J.ring)
                got = colon(J, colon_witness(J, comp.bounds))
                assert equals(got, prime), (entry["id"], n, comp)


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
        assert associated_primes(P.as_ideal(R2)) == frozenset({P})
    for vars_ in [(0,), (0, 2), (0, 1, 2)]:
        P = MonomialPrime(vars_)
        assert associated_primes(P.as_ideal(R3)) == frozenset({P})


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


def test_minimal_subset_of_associated_over_corpus(corpus_ideals):
    for entry, ideal in corpus_ideals:
        assert minimal_primes(ideal) <= associated_primes(ideal), entry["id"]
