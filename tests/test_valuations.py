"""Rees valuations: extraction from facets, centers, B*."""

from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from reesval import (
    FacetInequality,
    InvalidInput,
    MonomialPrime,
    RingContext,
    b_star,
    center,
    integral_closure_power,
    minimal_primes,
    normalize,
    rees_valuations,
    unit_ideal,
    vbar,
)
from oracles import contains_monomial

R2 = RingContext(("x", "y"))


def ideal2(*gens):
    return normalize(gens, R2)


def dot(a, m):
    """The valuation with normal a applied to x^m: the dot product a.m."""
    return sum(map(mul, a, m))


def val_set(I):
    return {(v.normal, v.ideal_value) for v in rees_valuations(I)}


def test_rees_valuations_goldens():
    assert val_set(ideal2((2, 0), (0, 3))) == {((3, 2), 6)}
    assert val_set(ideal2((1, 1))) == {((1, 0), 1), ((0, 1), 1)}
    assert val_set(ideal2((2, 0), (1, 1))) == {((1, 1), 2), ((1, 0), 1)}


def test_rees_valuations_sorted_by_support_then_normal():
    vals = rees_valuations(ideal2((2, 0), (1, 1)))
    assert [(v.normal, v.ideal_value) for v in vals] == [((1, 0), 1), ((1, 1), 2)]


def test_rees_valuations_reject_degenerate():
    with pytest.raises(InvalidInput):
        rees_valuations(unit_ideal(R2))


def test_center_examples():
    assert center(FacetInequality((3, 2), 6)) == MonomialPrime((0, 1))
    assert center(FacetInequality((1, 0), 1)) == MonomialPrime((0,))
    assert center(FacetInequality((1, 1), 2)) == MonomialPrime((0, 1))


def test_b_star_goldens():
    assert b_star(ideal2((2, 0), (1, 1))).centers == frozenset(
        {MonomialPrime((0,)), MonomialPrime((0, 1))}
    )
    assert b_star(ideal2((1, 0))).centers == frozenset({MonomialPrime((0,))})
    assert b_star(ideal2((2, 3))).centers == frozenset(
        {MonomialPrime((0,)), MonomialPrime((1,))}
    )


def test_ideal_value_is_min_over_generators(corpus_ideals):
    for entry, ideal in corpus_ideals:
        for v in rees_valuations(ideal):
            values = [dot(v.normal, g) for g in ideal.min_gens]
            assert min(values) == v.ideal_value, entry["id"]


def test_vbar_is_min_normalized_value(corpus_ideals):
    for entry, ideal in corpus_ideals[:12]:
        vals = rees_valuations(ideal)
        box = ideal.max_exponents()
        for m in product(*(range(b + 2) for b in box)):
            expected = min(Fraction(dot(v.normal, m), v.ideal_value) for v in vals)
            assert vbar(ideal, m) == expected, (entry["id"], m)


def test_valuation_closure_membership(corpus_ideals):
    # membership in the closure of I^n means every valuation gives >= n*b
    for entry, ideal in corpus_ideals[:12]:
        vals = rees_valuations(ideal)
        box = ideal.max_exponents()
        for n in (1, 2, 3):
            closure_n = integral_closure_power(ideal, n)
            for m in product(*(range(b + 1) for b in box)):
                by_vals = all(dot(v.normal, m) >= n * v.ideal_value for v in vals)
                assert contains_monomial(closure_n, m) == by_vals, (entry["id"], m, n)


def test_minimal_primes_inside_b_star(corpus_ideals):
    for entry, ideal in corpus_ideals:
        assert minimal_primes(ideal) <= b_star(ideal).centers, entry["id"]
