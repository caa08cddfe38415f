"""Associated primes of a monomial ideal.

`associated_primes` reads them off the irredundant irreducible decomposition,
built by adding one generator at a time: a component that misses the new
generator gives way to its sums with that generator's variable powers, and a
grown component that contains another one is dropped.  A component is its
bounds, the (index, exponent) pairs of the pure powers x_v^e that generate
it; `irreducible_decomposition` returns them sorted.  Nothing is memoized.

`associated_primes_bruteforce` rederives the same set straight from the
definition (a prime is associated when it appears as a colon ideal) by
scanning a bounded box of monomials.  It exists purely as a cross-check and
shares no machinery with the decomposition path.
"""

from __future__ import annotations

from itertools import product

from . import lanes
from .core import (
    MonomialIdeal,
    Record,
    RingContext,
    check_count,
    check_indexes,
    colon,
    require_proper_nonzero,
)
from .errors import InvalidInput


class MonomialPrime(Record):
    """Prime ideal generated by variables; 0-based indexes, strictly ascending.

    `b_star`, `associated_primes` and `minimal_primes` build their primes
    with `_trusted(vars)`, from a non-empty ascending tuple of ints >= 0."""

    __slots__ = __match_args__ = ("vars",)
    vars: tuple[int, ...]

    def _check(self) -> None:
        idxs = check_indexes(self.vars)
        object.__setattr__(self, "vars", idxs)
        if not idxs:
            raise InvalidInput("a monomial prime needs at least one variable")
        if list(idxs) != sorted(set(idxs)):
            raise InvalidInput("variable indexes must be strictly ascending")

    def sort_key(self):
        return (len(self.vars), self.vars)

    def names(self, ring: RingContext) -> tuple[str, ...]:
        if self.vars[-1] >= ring.dimension:
            raise InvalidInput("prime uses a variable outside the ring")
        return tuple(ring.variable_names[i] for i in self.vars)


def irreducible_decomposition(J: MonomialIdeal) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Bounds of the irredundant irreducible components whose intersection
    is J, indexes ascending within each, sorted by (number of bounds,
    bounds) (see `_component_bounds`)."""
    return tuple(sorted(_component_bounds(J), key=lambda b: (len(b), b)))


def associated_primes(J: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Ass(R/J): the supports of the irredundant irreducible components,
    one prime per distinct support."""
    supports = {tuple(v for v, _ in bounds) for bounds in _component_bounds(J)}
    return frozenset(map(MonomialPrime._trusted, supports))


def _component_bounds(J: MonomialIdeal) -> list[tuple[tuple[int, int], ...]]:
    """The bounds, (index, exponent) pairs, of the irredundant irreducible
    components whose intersection is J, in no fixed order.

    Adds one generator at a time, starting from the zero ideal, whose one
    component has no bounds: (C_1 & ... & C_k) + (x^g) is the intersection
    of the C_i that contain x^g and of the C_i + (x_v^{g_v}), v in supp g,
    for the other C_i.  A grown component that contains a kept or another
    grown one is dropped.  Kept components never need dropping: one that
    contains a grown component contains its parent, but the components were
    pairwise incomparable before the step.  Pairwise incomparable
    irreducible components are irredundant.

    A component is held as its bound vector b, with `big` for a variable
    outside its support, so C misses x^g iff g_v + 1 <= b_v for every v,
    and C contains D iff b^C <= b^D.  A component C without x^g has
    g_v < b_v, so C + (x_v^{g_v}) just lowers b_v to g_v.  Such a grown
    component B can only contain a component whose bound at v is also g_v:
    a kept D holds some D_u <= g_u, and b^B <= b^D forces u = v, because
    b^B_u = b^C_u > g_u elsewhere; a component grown at u != v has bound
    g_u < b^B_u at u.  So each v compares its grown components with each
    other and with the kept ones whose bound at v is g_v.  No two of these
    are equal, as their parents were pairwise incomparable.

    Both comparisons are one subtraction: b is one variable per guard-bit
    lane (`lanes`), wide enough for `big`, and kept with every guard bit G
    set, so all of G survives in (pack(b) | G) - pack(h) iff h <= b.  With
    h = g + 1 that says C misses x^g; with h the bounds of C and b those
    of D, that C contains D.
    """
    require_proper_nonzero(J)
    d = J.ring.dimension
    big = 1 + max(map(max, J.min_gens))
    w = lanes.width(big)
    value = (1 << (w - 1)) - 1
    guard = lanes.guards(d, w)
    comps = [guard | lanes.pack([big] * d, w)]
    for g in J.min_gens:
        above = lanes.pack([e + 1 for e in g], w)
        missed, kept = [], []
        for b in comps:
            if (b - above) & guard == guard:
                missed.append(b)
            else:
                kept.append(b)
        comps = kept[:]
        for v, e in enumerate(g):
            if not e:
                continue
            field, low = value << (v * w), e << (v * w)
            grown = [(b & ~field) | low for b in missed]
            pool = grown + [c for c in kept if c & field == low]
            for b in grown:
                bare = b ^ guard
                if not any(c != b and (c - bare) & guard == guard for c in pool):
                    comps.append(b)
    return [
        tuple((v, e) for v, e in enumerate(lanes.unpack(b ^ guard, d, w)) if e < big)
        for b in comps
    ]


def associated_primes_bruteforce(
    J: MonomialIdeal, box_bound: int | None = None
) -> frozenset[MonomialPrime]:
    """Ass(R/J) from the definition: primes of the form (J : m).

    Scans all monomials in [0, box_bound]^d; the default bound, one more
    than the largest generator exponent, is large enough that every
    associated prime has a colon witness inside the box.
    """
    require_proper_nonzero(J)
    if box_bound is None:
        box_bound = 1 + max(e for g in J.min_gens for e in g)
    check_count(box_bound, "box_bound", 1)
    found = set()
    for m in product(range(box_bound + 1), repeat=J.ring.dimension):
        q = colon(J, m)
        gens = q.min_gens
        if gens and all(sum(g) == 1 for g in gens):
            found.add(MonomialPrime(tuple(sorted(g.index(1) for g in gens))))
    return frozenset(found)


def minimal_primes(J: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Minimal primes over J: inclusion-minimal variable sets meeting the
    support of every generator.

    Supports and variable sets are bitmasks, and the candidate sets run
    through every nonempty mask in increasing order.  A proper subset of a
    mask is a smaller int, so it comes first, and a candidate that contains
    no cover found before it is minimal once it meets every support.  A
    candidate with a variable outside every support is never kept: its
    part inside the supports meets them too, and so holds a cover found
    earlier.
    """
    require_proper_nonzero(J)
    d = J.ring.dimension
    supports = {sum(1 << i for i, e in enumerate(g) if e) for g in J.min_gens}
    covers: list[int] = []
    for s in range(1, 1 << d):
        for c in covers:
            if c & s == c:
                break
        else:
            for supp in supports:
                if not s & supp:
                    break
            else:
                covers.append(s)
    return frozenset(
        MonomialPrime._trusted(tuple(i for i in range(d) if s >> i & 1)) for s in covers
    )
