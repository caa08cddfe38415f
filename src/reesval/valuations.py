"""Rees valuations of a monomial ideal and their centers.

Each positive-offset facet (a, b) of the Newton polyhedron is one valuation
and is represented by its `FacetInequality`: it sends x^m to a.m, takes the
value b (`offset`) on the ideal itself, and its center is the prime
generated by the variables in the support of a (exactly the monomials of
strictly positive value).  The set of centers is B*(I).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable

from .core import MonomialIdeal, check_vector
from .newton import FacetInequality, compute_np
from .primes import MonomialPrime


@dataclass(frozen=True)
class BStarSet:
    """The set of Rees valuation centers of an ideal."""

    centers: frozenset[MonomialPrime]


def rees_valuations(I: MonomialIdeal) -> tuple[FacetInequality, ...]:
    """The positive-offset facets of NP(I), in facet order (support size,
    then normal)."""
    np_ = compute_np(I)  # rejects unit/zero ideals
    return tuple(f for f in np_.facets if f.offset > 0)


def value(v: FacetInequality, m: Iterable[int]) -> int:
    """The valuation applied to x^m (a dot product)."""
    return sum(map(mul, v.normal, check_vector(len(v.normal), m)))


def center(v: FacetInequality) -> MonomialPrime:
    """The prime of positive-value monomials: the support of the normal."""
    return MonomialPrime(v.support())


def b_star(I: MonomialIdeal) -> BStarSet:
    """Deduplicated centers of the Rees valuations of I, one prime built
    per distinct support."""
    by_support = {v.support(): v for v in rees_valuations(I)}
    return BStarSet(frozenset(center(v) for v in by_support.values()))
