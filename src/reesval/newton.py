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

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import and_, mul, sub
from typing import Iterable, Sequence

from . import lanes
from .core import (
    MonomialIdeal,
    Record,
    RingContext,
    _power_search,
    check_collection,
    check_count,
    check_vector,
    ideal_power,
    ideal_product,
    monomial_key,
    require_proper_nonzero,
)
from .errors import InvalidInput


class FacetInequality(Record):
    """Half-space a.x >= b with a primitive non-negative integer normal.

    The output form of a facet and of a Rees valuation (`np`, `rees`,
    `rees_valuations`); computations read `NewtonPolyhedron.rows`.
    `compute_np` builds its facets with `_trusted(normal, offset)`."""

    __slots__ = __match_args__ = ("normal", "offset")
    normal: tuple[int, ...]
    offset: int

    def _check(self) -> None:
        normal = check_collection(self.normal, "normal")
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


class NewtonPolyhedron(Record):
    """Facets of NP(I), and the rows that every computation reads.

    `rows` is derived from `facets`: the (normal, offset) pairs of the
    positive-offset facets, in facet order.  These are the Rees valuations,
    and the only facets that can fail at a point x >= 0, since an offset-0
    facet a.x >= 0 has a >= 0.  Neither `rows` nor the packed normals
    behind `_lanes` are fields: they do not take part in equality, hashing
    or `repr`.
    """

    __match_args__ = ("ring", "facets")
    __slots__ = __match_args__ + ("rows", "_packed")
    ring: RingContext
    facets: tuple[FacetInequality, ...]
    rows: tuple[tuple[tuple[int, ...], int], ...]

    def _check(self) -> None:
        rows = tuple((f.normal, f.offset) for f in self.facets if f.offset > 0)
        object.__setattr__(self, "rows", rows)

    @property
    def _lanes(self) -> tuple[int, tuple[int, ...]] | None:
        """The row normals packed for `_row_dots`: (the largest row sum,
        one int per coordinate j with row f's a_j in 64-bit lane f of
        `lanes`).  Built on first use and kept on this object.  None when
        there is no row, or when some row sum reaches 2**64 and no m > 0
        could use the lanes."""
        try:
            return self._packed
        except AttributeError:
            normals = [a for a, _ in self.rows]
            widest = max(map(sum, normals), default=1 << 64)  # no row: no lanes
            packed = None if widest >> 64 else (
                widest, tuple(lanes.pack(column, 64) for column in zip(*normals)))
            object.__setattr__(self, "_packed", packed)
            return packed

    def _row_dots(self, m: tuple[int, ...]) -> list[int]:
        """a.m for every row (a, b), in row order, for a checked vector m.

        Packed, one multiply-add per coordinate serves every row at once:
        0 <= a.m <= sum(a) * max(m) < 2**64 keeps each row's sum inside its
        own 64-bit lane, so the lanes read back exactly (`lanes`).  Where
        that bound fails, or there are no lanes, each row takes its own dot
        product."""
        packed = self._lanes
        if packed is not None and not (packed[0] * max(m)) >> 64:
            return lanes.unpack(sum(map(mul, packed[1], m)), len(self.rows), 64)
        return [sum(map(mul, a, m)) for a, _ in self.rows]


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
    inserts one combination per adjacent (negative, positive) pair, in the
    order of the negative ray and then the positive one.  All vectors stay
    integer and primitive.  Only the reference in the tests reads that
    order: `compute_np` sorts the facets, so it alone owns their order.

    Every intermediate cone is pointed (the first d+1 constraints are
    nonsingular) and lives in R^dim, dim = d+1.  A ray's index is fixed at
    creation (rays are appended, no index is reused), so index order is
    output order.  Each ray keeps two bitmasks over all constraints, later
    ones included: its tight set T and its negative set N.  on[c] is the
    bitmask of the rays tight on constraint c, so questions about rays are
    answered column-wise.  Every read of on[c] is ANDed with pos or with
    the live mask of the step's start, so bits of cut-off rays stay in it
    unseen, and a new ray is filed (rays, T, N, on[c], bucket) as soon as
    its pair is found: the step cannot see it, and it joins the live mask
    when the step ends.

    Later signs come from the parents.  The d+1 initial rays are evaluated
    once on every generator.  A new ray is y = a*p + b*m with a, b > 0, so
    on a later constraint y is < 0 where one parent is < 0 and the other
    <= 0, is 0 where both are 0, and is > 0 where both are >= 0 and one is
    > 0; only where one parent is > 0 and the other < 0 does it take a dot
    product.  A ray is >= 0 on every constraint up to its creation, so it
    is cut by the step of its first negative constraint, and is filed in
    that step's bucket when it is made.  A step reads its bucket for the
    negative rays and on[k] for the zero ones; the rest of the live rays
    are positive.  A generator that cuts nothing costs nothing.

    Adjacent rays span a 2-face, whose tight constraints have rank dim - 2,
    so a positive ray p is a candidate partner of a negative ray m only
    when it shares at least dim - 2 of T_m, i.e. misses at most
    r = |T_m| - (dim - 2) of them; "misses at most j" accumulators over
    on[c], c in T_m, find all such p at once.  Adjacency is a property of
    the current cone, whose constraints are those before the step, so T_m
    and every common set are masked to them where the accumulators and the
    cover below read them.  A later constraint that both rays happen to be
    tight on bounds no face yet: counted, it would raise r (admitting
    partners that share too few current constraints) and shrink the
    Fukuda-Prodon cover (hiding the third ray that proves a pair not
    adjacent).

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
    interiors.  A new ray's tight set up to the step is (T_p & T_m) | bit(k)
    with no further dot products, by the same sign argument: every earlier
    constraint is >= 0 on both parents.
    """
    dim = d + 1
    count = d + len(points)
    hs = [tuple(q) + (1,) for q in points]  # constraint d + j is hs[j]
    p0 = points[0]
    rays: list[tuple[int, ...]] = [
        tuple(1 if j == i else 0 for j in range(d)) + (-p0[i],) for i in range(d)
    ]
    rays.append((0,) * d + (1,))
    # ray i is tight on each of the first dim constraints but the i-th; on a
    # later generator q, unit ray i reads q_i - p0_i and the height ray 1
    full = (1 << dim) - 1
    tight = [full ^ (1 << i) for i in range(dim)]
    neg = [0] * dim
    on = [full ^ (1 << c) for c in range(dim)] + [0] * (len(points) - 1)
    for c in range(dim, count):
        q = points[c - d]
        for i in range(d):
            if q[i] < p0[i]:
                neg[i] |= 1 << c
            elif q[i] == p0[i]:
                tight[i] |= 1 << c
                on[c] |= 1 << i
    bucket: list[list[int]] = [[] for _ in range(count)]  # by first negative
    for i in range(d):
        if neg[i]:
            bucket[(neg[i] & -neg[i]).bit_length() - 1].append(i)
    live = full

    for k in range(dim, count):
        cut = bucket[k]
        if not cut:
            continue
        h = hs[k - d]
        bit = 1 << k
        below = bit - 1
        cut_mask = 0
        for m in cut:
            cut_mask |= 1 << m
        pos = live & ~(on[k] | cut_mask)
        born = 0  # the rays this step makes
        vp_of = {}  # the step's value on each positive partner
        for m in cut:
            tm = tight[m] & below
            r = tm.bit_count() - (dim - 2)
            if r == 1:
                # acc0: misses none of T_m so far; cand: misses at most one
                acc0 = cand = pos
                for c in _bit_indexes(tm):
                    o = on[c]
                    cand = (cand & o) | acc0
                    acc0 &= o
            else:
                acc = [pos] * (r + 1)  # acc[j]: misses at most j of T_m so far
                for c in _bit_indexes(tm):
                    o = on[c]
                    for j in range(r, 0, -1):
                        acc[j] = (acc[j] & o) | acc[j - 1]
                    acc[0] &= o
                cand = acc[r]
            if not cand:
                continue
            ray_m = rays[m]
            vm = sum(map(mul, h, ray_m))
            tight_m, neg_m = tight[m], neg[m] ^ bit  # neg_m now on later constraints only
            while cand:
                low = cand & -cand
                cand ^= low
                p = low.bit_length() - 1
                tight_p, neg_p = tight[p], neg[p]
                if r > 1:
                    cover = live
                    for c in _bit_indexes(tight_p & tm):
                        cover &= on[c]
                    if cover.bit_count() != 2:
                        continue
                ray_p = rays[p]
                vp = vp_of.get(p)
                if vp is None:
                    vp = vp_of[p] = sum(map(mul, h, ray_p))
                combo = [vp * b - vm * a for a, b in zip(ray_p, ray_m)]
                g = gcd(*combo)
                combo = tuple(combo) if g == 1 else tuple([v // g for v in combo])
                t = (tight_p & tight_m) | bit
                mixed = (neg_p ^ neg_m) & ~(tight_p | tight_m)  # one parent > 0, the other < 0
                n = (neg_p | neg_m) & ~mixed
                while mixed:
                    low = mixed & -mixed
                    mixed ^= low
                    v = sum(map(mul, hs[low.bit_length() - 1 - d], combo))
                    if v < 0:
                        n |= low
                    elif not v:
                        t |= low
                i = len(rays)
                rays.append(combo)
                tight.append(t)
                neg.append(n)
                b = 1 << i
                born |= b
                while t:
                    low = t & -t
                    t ^= low
                    on[low.bit_length() - 1] |= b
                if n:
                    bucket[(n & -n).bit_length() - 1].append(i)
        live = (live ^ cut_mask) | born
    return [rays[i] for i in _bit_indexes(live)]


@lru_cache(maxsize=1)
def compute_np(I: MonomialIdeal) -> NewtonPolyhedron:
    """Irredundant facet description of conv(exponents of I) + orthant.
    Only the last one is kept: callers ask about one ideal at a time."""
    require_proper_nonzero(I)
    d = I.ring.dimension
    # facet order: support size, then normal, then offset.  A ray is
    # (normal, -offset), and primitive normals are unique, so sorting a
    # support-size bucket on the rays themselves orders it by normal; the
    # height ray (0, ..., 0, 1), the only one without a normal, is bucket 0
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(d + 1)]
    for r in _dual_extreme_rays(I.min_gens, d):
        buckets[d - r[:d].count(0)].append(r)
    trusted = FacetInequality._trusted
    facets = []
    for bucket in buckets[1:]:
        bucket.sort()
        facets += [trusted(r[:d], -r[d]) for r in bucket]
    return NewtonPolyhedron(I.ring, tuple(facets))


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
    coords = check_collection(q, "point")
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


def _capped_dilation_cuts(rows, points, cap: int) -> list[int]:
    """The number of n in 1..cap with the lattice point m >= 0 in n*NP, for
    each point m of `points` in order: min(cap, max(0, cut)) for cut the
    least (a.m) // b over the rows (a, b), or cap when there is no row.
    Offset-0 facets hold at every m >= 0, and a.m >= n*b iff n <= a.m // b
    for b > 0, so m is in n*NP exactly when n <= its cut.

    Nothing is checked here.  The rows must be those of a
    `NewtonPolyhedron` (every offset b at least 1, which makes the count a
    floor), the cap an int >= 0, and the points non-negative int vectors of
    the normals' length, checked by the caller: the closure oracle checks
    each sample once with `check_vector`.  `tests/oracles.py` keeps the
    exact column code, `dilation_cuts`, as the reference.

    Every point is one guard-bit lane of a single int (`lanes`): COL_j
    holds coordinate j of every point, ONE a 1 in every lane and G every
    lane's guard.  For a row (a, b), sum a_j * COL_j + G - n*b*ONE holds
    2**(w-1) + a.m - n*b in every lane, a negative entry of a included, and
    the width keeps |a.m - n*b| <= sum|a| * max(m) + cap*b off the guard, so
    the guard survives iff a.m >= n*b.  The guard bits ANDed over the rows
    give, for each n, the points in n*NP; once none is left, no larger n
    has one.  The masks' guard bits are summed into one int, read back
    once.  With no row every lane's guard survives every n, so each cut is
    cap.  Lanes are at least 64 bits wide, where `lanes` packs at C
    speed."""
    columns = list(zip(*points))
    top = max(map(max, columns), default=0)
    peak = max(cap, top)
    for a, b in rows:
        peak = max(peak, sum(map(abs, a)) * top + cap * b)
    w = max(64, lanes.width(peak))
    guard = lanes.guards(len(points), w)
    ones = guard >> (w - 1)
    cols = [lanes.pack(column, w) for column in columns]
    xs = [sum(map(mul, cols, a)) + guard for a, _ in rows]
    steps = [b * ones for _, b in rows]
    total = 0
    for _ in range(cap):
        xs = list(map(sub, xs, steps))
        mask = reduce(and_, xs, guard)
        if not mask:
            break
        total += mask >> (w - 1)
    return lanes.unpack(total, len(points), w)


def _minimal_lattice_members(
    rows: Sequence[tuple[Sequence[int], int]], bounds: Sequence[int], scale: int
) -> list[tuple[int, ...]]:
    """Minimal lattice points of scale*NP inside the box prod [0, bounds[i]],
    for NP given by its positive-offset rows (a, b).

    Offset-0 facets are inert here, so leaving them out changes nothing:
    with a >= 0 and q >= 0, both a.q >= 0 and, when q_j >= 1,
    a.(q - e_j) >= 0 hold, so such a facet never prunes a prefix, never
    sets the last coordinate and never decides minimality.

    Every row is one guard-bit lane of a single int (`lanes`), wide enough
    for the largest in-box a.q and target scale*b: with X a point's packed
    row values and T the packed targets, the point is a member iff
    ((X | G) - T) & G == G.  Packed columns turn a step in one coordinate
    into one add.

    Depth-first over the first d - 2 coordinates with two prunings:
    abandon a prefix when even the box-completion misses some row, and
    stop raising a coordinate once the zero-completion is a member (every
    later point dominates it, so the zero-completion is the only minimal
    candidate).  The last two coordinates are a staircase: w*(v), the least
    member q_d at q_{d-1} = v (infinite when none fits the box), does not
    increase with v, and (prefix, v, w*(v)) is minimal in coordinates
    d - 1 and d exactly when w*(v) < w*(v - 1) (w*(-1) counted infinite).
    So w starts one past the box and only falls: each v costs one failing
    test plus one passing test per decrement, only the corners where w
    fell are tested, on the prefix coordinates alone, and the staircase
    ends at the first v with w*(v) = 0 (see the README).
    """
    d = len(bounds)
    if not rows:
        return [(0,) * d]
    targets = [scale * b for _, b in rows]
    w = lanes.width(max(max(sum(map(mul, a, bounds)) for a, _ in rows), max(targets)))
    guard = lanes.guards(len(rows), w)
    target = lanes.pack(targets, w)
    cols = [lanes.pack(column, w) for column in zip(*(a for a, _ in rows))]
    # box[i]: every coordinate from i on at its bound
    box = [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        box[i] = box[i + 1] + bounds[i] * cols[i]
    # q - e_j is a member iff a.q >= scale*b + a_j on every row
    drop = [target + c for c in cols[: max(d - 2, 0)]]
    last, top = cols[d - 1], bounds[d - 1]
    out: list[tuple[int, ...]] = []

    def is_minimal(q: tuple[int, ...], x: int) -> bool:
        x |= guard
        return not any(qj and (x - t) & guard == guard for qj, t in zip(q, drop))

    def stair(prefix: tuple[int, ...], x: int, step: int, vmax: int) -> None:
        """Append the corners of w* over v in [0, vmax], x being the prefix's
        packed row values; z holds those of (prefix, v, w)."""
        w = top + 1
        z = x + w * last
        for v in range(vmax + 1):
            fell = False
            while w and (((z - last) | guard) - target) & guard == guard:
                z -= last
                w -= 1
                fell = True
            if fell:
                q = prefix + (v, w)
                if is_minimal(q, z):
                    out.append(q)
                if not w:
                    return
            z += step

    def walk(i: int, prefix: tuple[int, ...], x: int) -> bool:
        """Append the minimal members that extend prefix = q[:i], i <= d - 2.
        True when the zero-completion is a member: then raising q[i - 1]
        further gives only points that dominate it."""
        if ((x | guard) - target) & guard == guard:
            q = prefix + (0,) * (d - i)
            if is_minimal(q, x):
                out.append(q)
            return True
        if (((x + box[i]) | guard) - target) & guard != guard:
            return False
        col = cols[i]
        if i < d - 2:
            for v in range(bounds[i] + 1):
                if walk(i + 1, prefix + (v,), x):
                    break
                x += col
            return False
        stair(prefix, x, col, bounds[i])
        return False

    if d == 1:
        stair((), 0, 0, 0)
        return [q[1:] for q in out]
    walk(0, (), 0)
    return out


# typed: True hashes like 1, and an untyped hit would skip the check on n.
# 16 entries hold every n that one top-level call asks for: a_star up to its
# default cap 8, verify_localization 1..4, and closures of powers up to 2d.
@lru_cache(maxsize=16, typed=True)
def integral_closure_power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """The monomial ideal of all lattice points of n * NP(I).

    With s = max(1, d - 1), every n > s has n >= max(2, d), where
    closure(I^n) = I * closure(I^(n-1)) (the Caratheodory argument in the
    repo README); applied n - s times, that gives
    closure(I^n) = I^(n-s) * closure(I^s).  For n <= s, minimal generators
    are found inside the box prod [0, n*M_i] with M the componentwise
    generator maxima; any lattice point of the dilation that leaves the box
    dominates one inside it (see the README for the one-paragraph
    argument), so the scan is complete.  The walk holds every row as one
    guard-bit lane of a single int, so each membership test reads all rows
    at once, and walks the last two coordinates as a two-pointer
    staircase.  It returns exactly the minimal members, an antichain, so
    they are only sorted into canonical order, not re-minimized.
    """
    check_count(n, "n", 1)
    s = max(1, I.ring.dimension - 1)
    if n > s:
        return ideal_product(ideal_power(I, n - s), integral_closure_power(I, s))
    np_ = compute_np(I)
    bounds = tuple(n * m for m in I.max_exponents())
    members = _minimal_lattice_members(np_.rows, bounds, n)
    return MonomialIdeal._trusted(I.ring, tuple(sorted(members, key=monomial_key)))


def vbar(I: MonomialIdeal, m: Iterable[int]) -> Fraction:
    """Asymptotic order of x^m along I: min over the positive-offset rows
    (a, b) of NP(I) of (a.m)/b.  The zero vector gives 0; a proper nonzero
    ideal always has a positive-offset facet (the origin lies outside the
    polyhedron), so the minimum is never over an empty set.

    Every a.m comes from one packed dot product over the row normals
    (`NewtonPolyhedron._row_dots`: 64-bit lanes, used when
    sum(a) * max(m) < 2**64, which keeps every lane exact), or from one
    dot product per row where that bound fails.  The minimum is then taken
    by integer cross-multiplication (offsets are positive), and only the
    winner becomes a Fraction; no float enters.  Its floor is the largest
    n with x^m in closure(I^n).  `_capped_dilation_cuts` gives that floor
    clamped to 0..cap for many points at once, on one lane per point; the
    closure oracle reads it there."""
    np_ = compute_np(I)
    m = check_vector(I.ring.dimension, m)
    rows = np_.rows
    if not rows:
        raise RuntimeError("proper nonzero ideal has no positive-offset facet")
    dots = np_._row_dots(m)
    num, den = dots[0], rows[0][1]
    for v, (_, b) in zip(dots, rows):
        if v * den < num * b:
            num, den = v, b
    return Fraction(num, den)


def samuel_order(J: MonomialIdeal, m: Iterable[int], t_max: int) -> int:
    """Largest t <= t_max with x^m in J^t; 0 when x^m is not even in J.

    Each membership is the raw-power search of `contains_in_power`, set up
    once per call (`core._power_search`: one memo for every t asked, on
    tables built once per ideal), so no power of J is materialized.
    Total on degenerate ideals: the unit ideal gives t_max, the zero ideal
    gives 0.  Callers bound the search themselves (membership is monotone
    decreasing in t, so the first failure stops the scan).
    """
    m = check_vector(J.ring.dimension, m)
    check_count(t_max, "t_max", 1)
    member = _power_search(J)
    for t in range(1, t_max + 1):
        if not member(m, t):
            return t - 1
    return t_max
