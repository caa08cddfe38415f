"""Associated primes of a monomial ideal.

`associated_primes` reads them off an irreducible decomposition, obtained by
repeatedly splitting a mixed generator into coprime parts until every branch
is generated by pure variable powers, then discarding redundant components.

`associated_primes_bruteforce` rederives the same set straight from the
definition (a prime is associated when it appears as a colon ideal) by
scanning a bounded box of monomials.  It exists purely as a cross-check and
shares no machinery with the decomposition path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import (
    MonomialIdeal,
    RingContext,
    colon,
    ideal_sum,
    normalize,
)
from .errors import InvalidInput


@dataclass(frozen=True)
class MonomialPrime:
    """Prime ideal generated by variables; 0-based indexes, strictly ascending."""

    vars: tuple[int, ...]

    def __post_init__(self) -> None:
        idxs = tuple(self.vars)
        object.__setattr__(self, "vars", idxs)
        if not idxs:
            raise InvalidInput("a monomial prime needs at least one variable")
        if list(idxs) != sorted(set(idxs)) or idxs[0] < 0:
            raise InvalidInput("variable indexes must be non-negative and strictly ascending")

    def sort_key(self):
        return (len(self.vars), self.vars)

    def names(self, ring: RingContext) -> tuple[str, ...]:
        return tuple(ring.variable_names[i] for i in self.vars)

    def as_ideal(self, ring: RingContext) -> MonomialIdeal:
        if self.vars[-1] >= ring.dimension:
            raise InvalidInput("prime uses a variable outside the ring")
        d = ring.dimension
        return normalize(
            (tuple(1 if i == v else 0 for i in range(d)) for v in self.vars), ring
        )


@dataclass(frozen=True)
class IrreducibleComponent:
    """Ideal generated by pure powers x_v^e, stored as (index, exponent) pairs."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        bounds = tuple((int(v), int(e)) for v, e in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        idxs = [v for v, _ in bounds]
        if not bounds or idxs != sorted(set(idxs)) or idxs[0] < 0:
            raise InvalidInput("component bounds need ascending distinct variables")
        if any(e < 1 for _, e in bounds):
            raise InvalidInput("component exponents must be >= 1")

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.bounds)

    def contains_point(self, q: tuple[int, ...]) -> bool:
        return any(q[v] >= e for v, e in self.bounds)

    def as_ideal(self, ring: RingContext) -> MonomialIdeal:
        d = ring.dimension
        return normalize(
            (tuple(e if i == v else 0 for i in range(d)) for v, e in self.bounds), ring
        )

    def sort_key(self):
        return (len(self.bounds), self.bounds)


def _require_proper_nonzero(J: MonomialIdeal) -> None:
    if not J.is_proper_nonzero():
        raise InvalidInput("operation needs a proper nonzero ideal")


def _split_candidate(J: MonomialIdeal):
    """Coprime split (m1, m2) of the first mixed generator, or None.

    m1 is the pure power of the generator's first support variable, m2 the
    rest; taking the first candidate keeps the recursion tree deterministic.
    """
    for g in J.min_gens:
        support = [i for i, e in enumerate(g) if e]
        if len(support) >= 2:
            v = support[0]
            m1 = tuple(e if i == v else 0 for i, e in enumerate(g))
            m2 = tuple(0 if i == v else e for i, e in enumerate(g))
            return m1, m2
    return None


def _base_component(J: MonomialIdeal) -> IrreducibleComponent:
    bounds = []
    for g in J.min_gens:
        for i, e in enumerate(g):
            if e:
                bounds.append((i, e))
    return IrreducibleComponent(tuple(sorted(bounds)))


def _components(J: MonomialIdeal) -> frozenset[IrreducibleComponent]:
    """All leaves of the splitting recursion (possibly redundant).

    Iterative so deep splits of large closure ideals cannot hit the
    interpreter recursion limit.  Branches of one tree often meet at the
    same ideal, so subresults are memoized for the duration of the call.
    """
    memo: dict[MonomialIdeal, frozenset[IrreducibleComponent]] = {}
    stack = [J]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        cand = _split_candidate(cur)
        if cand is None:
            memo[cur] = frozenset({_base_component(cur)})
            stack.pop()
            continue
        m1, m2 = cand
        left = ideal_sum(cur, normalize([m1], cur.ring))
        right = ideal_sum(cur, normalize([m2], cur.ring))
        missing = [side for side in (left, right) if side not in memo]
        if missing:
            stack.extend(missing)
        else:
            memo[cur] = memo[left] | memo[right]
            stack.pop()
    return memo[J]


def _filter_irredundant(
    components: frozenset[IrreducibleComponent], dimension: int
) -> list[IrreducibleComponent]:
    """Drop components containing the intersection of the others.

    A component C with bounds b is redundant exactly when its witness
    monomial (b_v - 1 on the support, a dominating exponent elsewhere) is
    missing from some other component: the witness is the componentwise-max
    monomial outside C, so it lies in the intersection of the others iff any
    monomial does.
    """
    comps = sorted(components, key=IrreducibleComponent.sort_key)
    if len(comps) <= 1:
        return comps
    big = 1 + max(e for c in comps for _, e in c.bounds)

    def witness(c: IrreducibleComponent) -> tuple[int, ...]:
        w = [big] * dimension
        for v, e in c.bounds:
            w[v] = e - 1
        return tuple(w)

    i = 0
    while i < len(comps):
        w = witness(comps[i])
        redundant = any(
            j != i and not comps[j].contains_point(w) for j in range(len(comps))
        )
        if redundant:
            comps.pop(i)
        else:
            i += 1
    return comps


def irreducible_decomposition(J: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """Irredundant irreducible components whose intersection is J."""
    _require_proper_nonzero(J)
    return tuple(_filter_irredundant(_components(J), J.ring.dimension))


def associated_primes(J: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Ass(R/J): the supports of the irredundant irreducible components."""
    return frozenset(
        MonomialPrime(c.support()) for c in irreducible_decomposition(J)
    )


def associated_primes_bruteforce(
    J: MonomialIdeal, box_bound: int | None = None
) -> frozenset[MonomialPrime]:
    """Ass(R/J) from the definition: primes of the form (J : m).

    Scans all monomials in [0, box_bound]^d; the default bound, one more
    than the largest generator exponent, is large enough that every
    associated prime has a colon witness inside the box.
    """
    _require_proper_nonzero(J)
    if box_bound is None:
        box_bound = 1 + max(e for g in J.min_gens for e in g)
    if box_bound < 1:
        raise InvalidInput("box bound must be a positive integer")
    found = set()
    for m in product(range(box_bound + 1), repeat=J.ring.dimension):
        q = colon(J, m)
        gens = q.min_gens
        if gens and all(sum(g) == 1 for g in gens):
            found.add(MonomialPrime(tuple(sorted(g.index(1) for g in gens))))
    return frozenset(found)


def minimal_primes(J: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Minimal primes over J: inclusion-minimal variable sets meeting the
    support of every generator."""
    _require_proper_nonzero(J)
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in J.min_gens]
    universe = sorted(frozenset().union(*supports))
    covers: list[set[int]] = []
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            s = set(combo)
            if any(c <= s for c in covers):
                continue
            if all(s & supp for supp in supports):
                covers.append(s)
    return frozenset(MonomialPrime(tuple(sorted(s))) for s in covers)
