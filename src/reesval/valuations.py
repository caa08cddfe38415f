"""Rees valuations of a monomial ideal and their centers.

Each positive-offset facet (a, b) of the Newton polyhedron is one valuation
and is represented by its `FacetInequality`: it sends x^m to a.m, takes the
value b (`offset`) on the ideal itself, and its center is the prime
generated by the variables in the support of a (exactly the monomials of
strictly positive value).  The set of centers is B*(I).
"""

from __future__ import annotations

from itertools import compress, repeat

from .core import MonomialIdeal, Record
from .newton import FacetInequality, compute_np
from .primes import MonomialPrime


class BStarSet(Record):
    """The set of Rees valuation centers of an ideal."""

    __slots__ = __match_args__ = ("centers",)
    centers: frozenset[MonomialPrime]


def rees_valuations(I: MonomialIdeal) -> tuple[FacetInequality, ...]:
    """The positive-offset facets of NP(I), in facet order (support size,
    then normal)."""
    np_ = compute_np(I)  # rejects unit/zero ideals
    return tuple(f for f in np_.facets if f.offset > 0)


def center(v: FacetInequality) -> MonomialPrime:
    """The prime of positive-value monomials: the support of the normal."""
    return MonomialPrime(v.support())


def b_star(I: MonomialIdeal) -> BStarSet:
    """Deduplicated centers of the Rees valuations of I: the distinct
    supports of the positive-offset rows, read off `NewtonPolyhedron.rows`,
    with one prime built per support (the rule of `center`).  A support
    read this way is non-empty and ascending, so the primes skip the
    constructor's checks."""
    normals = [a for a, _ in compute_np(I).rows]  # rejects unit/zero ideals
    supports = set(map(tuple, map(compress, repeat(range(I.ring.dimension)), normals)))
    return BStarSet._trusted(frozenset(map(MonomialPrime._trusted, supports)))
