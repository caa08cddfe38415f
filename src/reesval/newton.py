"""Newton polyhedron of a monomial ideal, and what its facets compute.

The polyhedron is conv(generator exponents) + the non-negative orthant.
Its facets are enumerated exactly: homogenize to a cone (generator points
at height one, orthant rays at height zero) and build the extreme rays of
the dual cone by incremental double description over the integers.  A dual
ray (a, c) with a != 0 is the facet a.x >= -c of the polyhedron; the ray
with a = 0 is the homogenization artifact "height >= 0" and is dropped.

Downstream, everything reads the positive-offset rows (a, b) alone:
membership of rational points in any dilation, integral closures of powers
(all lattice points of the n-fold dilation), and the asymptotic order
function min (a.m / b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .core import (
    MonomialIdeal,
    RingContext,
    _power_search,
    check_count,
    check_vector,
    ideal_power,
    ideal_product,
    normalize,
)
from .errors import InvalidInput


@dataclass(frozen=True)
class FacetInequality:
    """Half-space a.x >= b with a primitive non-negative integer normal.

    The output form of a facet and of a Rees valuation (`np`, `rees`,
    `rees_valuations`); computations read `NewtonPolyhedron.rows`."""

    normal: tuple[int, ...]
    offset: int

    def __post_init__(self) -> None:
        normal = tuple(self.normal)
        object.__setattr__(self, "normal", check_vector(len(normal), normal))
        if gcd(*normal) != 1:
            raise InvalidInput("facet normal must be nonzero and primitive")
        check_count(self.offset, "offset", 0)

    @property
    def ideal_value(self) -> int:
        """Alias of `offset`, kept only because the benchmark's digests read
        it; new code reads `offset`."""
        return self.offset

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.normal) if a)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Facets of NP(I), and the rows that every computation reads.

    `rows` is derived from `facets`: the (normal, offset) pairs of the
    positive-offset facets, in facet order.  These are the Rees valuations,
    and the only facets that can fail at a point x >= 0, since an offset-0
    facet a.x >= 0 has a >= 0.
    """

    ring: RingContext
    facets: tuple[FacetInequality, ...]
    rows: tuple[tuple[tuple[int, ...], int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        rows = tuple((f.normal, f.offset) for f in self.facets if f.offset > 0)
        object.__setattr__(self, "rows", rows)


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def _bit_indexes(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _dual_extreme_rays(points: Sequence[tuple[int, ...]], d: int) -> list[tuple[int, ...]]:
    """Extreme rays of {y : g.y >= 0, g a homogenized generator}.

    The constraint list is the d unit rays at height 0 followed by the
    generator points at height 1.  The first d+1 constraints form a
    triangular system, so the initial simplicial cone's rays are written
    down directly; every further constraint keeps the non-negative rays and
    inserts one combination per adjacent (positive, negative) pair, in the
    order of the positive ray and then the negative one.  All vectors stay
    integer and primitive.

    Every intermediate cone is pointed (the first d+1 constraints are
    nonsingular) and lives in R^dim, dim = d+1.  A ray's tight set T is
    kept as a bitmask over constraint indexes and as the list of those
    indexes; an extreme ray has rank(T) = dim - 1.
    Each live ray holds a slot, and on[c] is the bitmask of live slots tight
    on constraint c, so questions about rays are answered column-wise.

    Adjacent rays span a 2-face, whose tight constraints have rank dim - 2,
    so a positive ray p is a candidate partner of a negative ray m only
    when it shares at least dim - 2 of T_m, i.e. misses at most
    r = |T_m| - (dim - 2) of them; "misses at most j" accumulators over
    on[c], c in T_m, find all such p at once.

    - A simple m (|T_m| = dim - 1, r = 1) needs no further test.  T_m has
      independent constraints, so p cannot be tight on all of them (it
      would be a multiple of m); it shares T_m minus one constraint, and
      those dim - 2 independent constraints cut out a 2-face, which as a
      pointed 2-dimensional cone has exactly two extreme rays: m and p.
    - A degenerate m keeps the combinatorial test of Fukuda and Prodon
      ("Double description method revisited", 1996): p and m are adjacent
      iff no third live ray is tight on every constraint both are tight
      on, i.e. iff the AND of on[c] over their common set, started from
      the live mask, has exactly two bits.

    No combination is produced twice: it lies in the relative interior of
    the 2-face its pair spans, and distinct 2-faces have disjoint relative
    interiors.  A new ray's tight set is `common | bit(k)` with no further
    dot products: it is a positive combination of two rays on which every
    earlier constraint is >= 0, so an earlier constraint vanishes on it iff
    it vanishes on both.  Slots of cut-off rays are cleared from every
    on[c] and reused by the new rays.
    """
    dim = d + 1
    constraints: list[tuple[int, ...]] = [
        tuple(1 if j == i else 0 for j in range(d)) + (0,) for i in range(d)
    ]
    constraints += [tuple(p) + (1,) for p in points]

    p0 = points[0]
    ray_at: list[tuple[int, ...]] = [
        tuple(1 if j == i else 0 for j in range(d)) + (-p0[i],) for i in range(d)
    ]
    ray_at.append((0,) * d + (1,))
    # tight sets, as constraint bitmasks and as index lists
    cols_at = [[k for k in range(dim) if _dot(constraints[k], r) == 0] for r in ray_at]
    tight_at = [sum(1 << c for c in cols) for cols in cols_at]
    order = list(range(dim))  # slots in ray order
    on = [0] * len(constraints)
    for s, cols in enumerate(cols_at):
        for c in cols:
            on[c] |= 1 << s

    for k in range(dim, len(constraints)):
        h = constraints[k]
        bit = 1 << k
        val = [0] * len(ray_at)
        pos = zero = dead = 0
        neg = []
        for s in order:
            v = val[s] = sum(map(mul, h, ray_at[s]))
            if v > 0:
                pos |= 1 << s
            elif v < 0:
                neg.append(s)
                dead |= 1 << s
            else:
                zero |= 1 << s
                tight_at[s] |= bit
                cols_at[s].append(k)
        if not neg:
            on[k] = zero
            continue
        live = pos | zero | dead
        rank = [0] * len(ray_at)
        for i, s in enumerate(order):
            rank[s] = i
        found = []
        for m in neg:
            tm, cs = tight_at[m], cols_at[m]
            r = len(cs) - (dim - 2)
            acc = [pos] * (r + 1)  # acc[j]: misses at most j of T_m so far
            for c in cs:
                o = on[c]
                for j in range(r, 0, -1):
                    acc[j] = (acc[j] & o) | acc[j - 1]
                acc[0] &= o
            cand = acc[r]
            ray_m, vm = ray_at[m], val[m]
            while cand:
                low = cand & -cand
                cand ^= low
                p = low.bit_length() - 1
                common = tight_at[p] & tm
                if r > 1:
                    cover = live
                    for c in _bit_indexes(common):
                        cover &= on[c]
                    if cover.bit_count() != 2:
                        continue
                vp = val[p]
                combo = [vp * b - vm * a for a, b in zip(ray_at[p], ray_m)]
                g = gcd(*combo)
                found.append((rank[p], rank[m], tuple(v // g for v in combo), common | bit))
        found.sort()
        keep = ~dead
        on = [o & keep for o in on]
        on[k] = zero
        order = [s for s in order if val[s] >= 0]
        free = sorted(neg, reverse=True)
        for _, _, combo, t in found:
            cols = _bit_indexes(t)
            if free:
                s = free.pop()
                ray_at[s], tight_at[s], cols_at[s] = combo, t, cols
            else:
                s = len(ray_at)
                ray_at.append(combo)
                tight_at.append(t)
                cols_at.append(cols)
            order.append(s)
            for c in cols:
                on[c] |= 1 << s
    return [ray_at[s] for s in order]


@lru_cache(maxsize=1)
def compute_np(I: MonomialIdeal) -> NewtonPolyhedron:
    """Irredundant facet description of conv(exponents of I) + orthant.
    Only the last one is kept: callers ask about one ideal at a time."""
    if not I.is_proper_nonzero():
        raise InvalidInput("Newton polyhedron needs a proper nonzero ideal")
    d = I.ring.dimension
    raw = [(ray[:d], -ray[d]) for ray in _dual_extreme_rays(I.min_gens, d) if any(ray[:d])]
    # facet order: support size, then normal, then offset
    raw.sort(key=lambda f: (d - f[0].count(0), f[0], f[1]))
    return NewtonPolyhedron(I.ring, tuple(FacetInequality(a, b) for a, b in raw))


def _exact(c) -> bool:
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


def np_contains(np_: NewtonPolyhedron, q: Iterable, scale=1) -> bool:
    """Is q inside scale * NP?  Coordinates and scale are ints or Fractions.

    Denominators are cleared once: with D the lcm of the coordinate
    denominators, P = D*q is an integer vector and s = s_num/s_den, so
    a.q >= s*b becomes the integer comparison (a.P) * s_den >= s_num * D * b
    for every row (a, b).  Offset-0 facets are not read: a >= 0 and q >= 0
    give a.q >= 0 = s*0, so they hold for every point and scale.
    """
    coords = tuple(q)
    if len(coords) != np_.ring.dimension:
        raise InvalidInput(
            f"point {coords} has length {len(coords)}, expected {np_.ring.dimension}"
        )
    if not all(map(_exact, coords)):
        raise InvalidInput(f"point {coords} needs int or Fraction coordinates")
    if not _exact(scale):
        raise InvalidInput("scale must be an int or a Fraction")
    den = lcm(*(c.denominator for c in coords))
    point = [c.numerator * (den // c.denominator) for c in coords]
    if any(c < 0 for c in point):
        raise InvalidInput("point coordinates must be non-negative")
    if scale < 0:
        raise InvalidInput("scale must be non-negative")
    s_den = scale.denominator
    rhs = scale.numerator * den
    return all(_dot(a, point) * s_den >= rhs * b for a, b in np_.rows)


def dilation_cut(
    rows: Iterable[tuple[Sequence[int], int]], m: Sequence[int], default: int
) -> int:
    """Largest n with the lattice point m >= 0 in n*NP: min over the
    positive-offset rows (a, b) of (a.m) // b, or `default` when there is
    no such row (then m lies in every dilation).

    Offset-0 facets hold at every m >= 0, and a.m >= n*b iff n <= a.m // b
    for b > 0, so m is in n*NP exactly when n <= dilation_cut(...)."""
    return min((sum(map(mul, a, m)) // b for a, b in rows), default=default)


def _minimal_lattice_members(
    rows: Sequence[tuple[Sequence[int], int]], bounds: Sequence[int], scale: int
) -> list[tuple[int, ...]]:
    """Minimal lattice points of scale*NP inside the box prod [0, bounds[i]],
    for NP given by its positive-offset rows (a, b).

    Offset-0 facets are inert here, so leaving them out changes nothing:
    with a >= 0 and q >= 0, both a.q >= 0 and, when q_j >= 1,
    a.(q - e_j) >= 0 hold, so such a facet never prunes a prefix, never
    sets the last coordinate and never decides minimality.

    Depth-first over the first d - 1 coordinates with two prunings: abandon
    a prefix when even the box-completion misses some row, and stop
    descending once the zero-completion is already a member (everything
    below the prefix then dominates it, so the zero-completion is the only
    minimal candidate).  The last coordinate is solved, not scanned: a
    row with a_d = 0 that the prefix misses rules the prefix out, and
    otherwise the least feasible q_d is the largest ceil(shortfall / a_d)
    over the rows with a_d > 0.  Then q - e_d misses a row, so only the
    prefix coordinates need the minimality test (see the README).
    """
    d = len(bounds)
    normals = [a for a, _ in rows]
    targets = [scale * b for _, b in rows]
    nf = len(rows)
    # suffix_max[f][i] = max contribution of coordinates i.. to row f
    suffix_max = [
        [sum(normals[f][j] * bounds[j] for j in range(i, d)) for i in range(d + 1)]
        for f in range(nf)
    ]
    last = [normals[f][d - 1] for f in range(nf)]
    out: list[tuple[int, ...]] = []

    def is_minimal(q: tuple[int, ...], dots: list[int], upto: int) -> bool:
        for j in range(upto):
            if q[j] and all(dots[f] - normals[f][j] >= targets[f] for f in range(nf)):
                return False
        return True

    def walk(i: int, prefix: tuple[int, ...], dots: list[int]) -> None:
        if all(dots[f] >= targets[f] for f in range(nf)):
            q = prefix + (0,) * (d - i)
            if is_minimal(q, dots, i):
                out.append(q)
            return
        if i == d - 1:
            v = 0
            for f in range(nf):
                short = targets[f] - dots[f]
                if short > 0:
                    if not last[f]:
                        return
                    v = max(v, -(-short // last[f]))
            if v > bounds[i]:
                return
            dots = [dots[f] + v * last[f] for f in range(nf)]
            if is_minimal(prefix + (v,), dots, i):
                out.append(prefix + (v,))
            return
        if any(dots[f] + suffix_max[f][i] < targets[f] for f in range(nf)):
            return
        col = [normals[f][i] for f in range(nf)]
        for v in range(bounds[i] + 1):
            walk(i + 1, prefix + (v,), [dots[f] + v * col[f] for f in range(nf)])

    walk(0, (), [0] * nf)
    return out


# typed: True hashes like 1, and an untyped hit would skip the check on n
@lru_cache(maxsize=None, typed=True)
def integral_closure_power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """The monomial ideal of all lattice points of n * NP(I).

    With s = max(1, d - 1), every n > s has n >= max(2, d), where
    closure(I^n) = I * closure(I^(n-1)) (the Caratheodory argument in the
    repo README); applied n - s times, that gives
    closure(I^n) = I^(n-s) * closure(I^s).  For n <= s, minimal generators
    are found inside the box prod [0, n*M_i] with M the componentwise
    generator maxima; any lattice point of the dilation that leaves the box
    dominates one inside it (see the README for the one-paragraph
    argument), so the scan is complete.
    """
    check_count(n, "n", 1)
    s = max(1, I.ring.dimension - 1)
    if n > s:
        return ideal_product(ideal_power(I, n - s), integral_closure_power(I, s))
    np_ = compute_np(I)
    bounds = tuple(n * m for m in I.max_exponents())
    return normalize(_minimal_lattice_members(np_.rows, bounds, n), I.ring)


def vbar(I: MonomialIdeal, m: Iterable[int]) -> Fraction:
    """Asymptotic order of x^m along I: min over the positive-offset rows
    (a, b) of NP(I) of (a.m)/b.  The zero vector gives 0; a proper nonzero
    ideal always has a positive-offset facet (the origin lies outside the
    polyhedron), so the minimum is never over an empty set.

    The minimum is taken over `rows` by integer cross-multiplication
    (offsets are positive), and only the winner becomes a Fraction.  Its
    floor is `dilation_cut` on the same rows: the largest n with x^m in
    closure(I^n)."""
    np_ = compute_np(I)
    m = check_vector(I.ring.dimension, m)
    num, den = 0, 0
    for a, b in np_.rows:
        v = sum(map(mul, a, m))
        if not den or v * den < num * b:
            num, den = v, b
    if not den:
        raise RuntimeError("proper nonzero ideal has no positive-offset facet")
    return Fraction(num, den)


def samuel_order(J: MonomialIdeal, m: Iterable[int], t_max: int) -> int:
    """Largest t <= t_max with x^m in J^t; 0 when x^m is not even in J.

    Each membership is the raw-power search of `contains_in_power`, set up
    once per call (`core._power_search`), so no power of J is
    materialized.  Total on degenerate ideals: the unit ideal gives t_max,
    the zero ideal gives 0.  Callers bound the search themselves
    (membership is monotone decreasing in t, so the first failure stops
    the scan).
    """
    m = check_vector(J.ring.dimension, m)
    check_count(t_max, "t_max", 1)
    if J.is_zero():
        return 0
    if J.is_unit():
        return t_max
    member = _power_search(J)
    for t in range(1, t_max + 1):
        if not member(m, t):
            return t - 1
    return t_max
