"""Independent reference computations used to cross-check the library.

Nothing here calls the code paths it is meant to check: facet enumeration
is done by solving d-subsets of generators with rational elimination,
power membership by literal enumeration of generator multisets, closure
generators by a box scan whose membership test is the raw-power route
only, minimal generators by comparing every pair entry by entry, and
irreducible components by one colon witness each.  The lattice walk here
reads every facet, scans every coordinate, the last one included, and
tests minimality on all of them; the library's walk reads only the
positive-offset rows, packed into guard-bit lanes, and walks the last two
coordinates as a staircase instead.  The double description here pairs
every positive ray with every negative one and tests adjacency by scanning
all rays; the library's looks partners up in per-constraint bitmasks
instead.  The raw-power search tree here sums
the remainder at every node and builds every child tuple; the library's
carries the degree down and reuses the remainder for a zero multiplicity.
The dilation cuts here are exact column maps for any int rows; the
library's capped cuts are guard-bit masks over one lane per point.

The corpus-line rules here are written out by hand, field by field; the
library's loader leaves the names and vectors to `RingContext` and
`normalize`.

Minimal primes here test every variable set against every generator and
every other covering set; the library's walk runs over bitmasks in
increasing order and keeps a set that contains no earlier cover.

The zero ideal, monomial membership, and the ideal sum, intersection and
containment at the end are helpers that only the tests use; they build on
the library's `MonomialIdeal`, `check_vector` and `normalize`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product, repeat
from math import gcd
from operator import add, floordiv, mul

from reesval import (
    MAX_DIMENSION,
    MAX_INPUT_EXPONENT,
    MonomialIdeal,
    MonomialPrime,
    RingContext,
    contains_in_power,
    divides,
    normalize,
)
from reesval.core import _same_ring, check_vector


def rational_rank(rows) -> int:
    """Rank of an integer matrix, by fraction-free-ish Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col]
        m[row] = [v / inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Basis of the rational nullspace of an integer matrix."""
    cols = len(rows[0])
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col]
        m[row] = [v / inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        basis.append(tuple(v))
    return basis


def _primitive_int(vec) -> tuple[int, ...]:
    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def facets_bruteforce(points: list[tuple[int, ...]]) -> set[tuple[tuple[int, ...], int]]:
    """Facets of conv(points) + orthant by exhausting d-subsets of the
    homogenized generators (points at height 1, unit rays at height 0).

    A valid inequality vanishing on d linearly independent generators
    supports a d-dimensional face of the (d+1)-dimensional homogenization
    cone, i.e. a facet; every facet arises this way.
    """
    d = len(points[0])
    gens = [tuple(p) + (1,) for p in points]
    gens += [tuple(1 if j == i else 0 for j in range(d)) + (0,) for i in range(d)]
    facets: set[tuple[tuple[int, ...], int]] = set()
    for subset in combinations(gens, d):
        basis = nullspace(list(subset))
        if len(basis) != 1:
            continue
        vec = _primitive_int(basis[0])
        for cand in (vec, tuple(-v for v in vec)):
            a, c = cand[:d], cand[d]
            if not any(a) or any(x < 0 for x in a):
                continue
            b = -c
            if b < 0:
                continue
            if all(sum(ai * pi for ai, pi in zip(a, p)) >= b for p in points):
                facets.add((a, b))
    return facets


def dual_extreme_rays_ref(points, d: int) -> list[tuple[int, ...]]:
    """Extreme rays of {y : g.y >= 0, g a homogenized generator}, in the
    library's order, by double description with an all-pairs scan.

    Constraints are the d unit rays at height 0, then the points at height
    1; the first d + 1 form a triangular system whose simplicial cone is
    written down.  For every further constraint, each (negative, positive)
    pair sharing at least dim - 2 tight constraints (dim = d + 1) is
    adjacent exactly when no third ray is tight on every constraint both
    are tight on (Fukuda and Prodon, "Double description method
    revisited", 1996); its combination joins the kept rays, in the order of
    the negative ray and then the positive one.
    """
    dim = d + 1
    constraints = [tuple(1 if j == i else 0 for j in range(d)) + (0,) for i in range(d)]
    constraints += [tuple(p) + (1,) for p in points]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    p0 = points[0]
    rays = [tuple(1 if j == i else 0 for j in range(d)) + (-p0[i],) for i in range(d)]
    rays.append((0,) * d + (1,))
    tight = [sum(1 << k for k in range(dim) if dot(constraints[k], r) == 0) for r in rays]

    for k in range(dim, len(constraints)):
        h = constraints[k]
        bit = 1 << k
        vals = [dot(h, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays, new_tight = [], []
        seen = set()
        for im in neg:
            for ip in pos:
                common = tight[ip] & tight[im]
                if common.bit_count() < dim - 2:
                    continue  # no shared 2-face
                # the pair itself is counted; a third ray tight wherever
                # both are means they are not adjacent
                if sum(1 for t in tight if t & common == common) > 2:
                    continue
                combo = [vals[ip] * b - vals[im] * a for a, b in zip(rays[ip], rays[im])]
                g = 0
                for v in combo:
                    g = gcd(g, v)
                combo = tuple(v // g for v in combo)
                if combo not in seen:
                    seen.add(combo)
                    new_rays.append(combo)
                    new_tight.append(common | bit)
        kept = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in kept] + new_rays
        tight = [tight[i] | bit if vals[i] == 0 else tight[i] for i in kept] + new_tight
    return rays


def minimal_generators_ref(gens) -> set[tuple[int, ...]]:
    """Vectors of `gens` that no other vector of `gens` lies below
    componentwise, compared entry by entry for every ordered pair."""
    vecs = {tuple(g) for g in gens}
    return {
        g
        for g in vecs
        if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in vecs)
    }


def monomial_in_power_ref(J: MonomialIdeal, m: tuple[int, ...], t: int) -> bool:
    """Literal definition of x^m in J^t: some t-multiset of generators has
    exponent sum dividing m.  Exponential; only call it on tiny inputs."""
    if t <= 0:
        return True
    return any(
        divides(tuple(sum(col) for col in zip(*pick)), m)
        for pick in combinations_with_replacement(J.min_gens, t)
    )


def power_search_nodes_ref(J: MonomialIdeal, m: tuple[int, ...], t: int) -> int:
    """Number of nodes the raw-power search of `contains_in_power` visits
    for x^m in J^t, memo hits included, written as plainly as its
    description: generators by degree descending, each multiplicity from
    its largest feasible value down, a node (i, rem, k) pruned when k picks
    from gens[i:] overshoot the degree sum(rem) or some coordinate of rem,
    a k = 1 node answered by scanning gens[i:] for a divisor of x^rem
    (a leaf, never memoized), and the answers of the other nodes memoized
    on (i, rem, k)."""
    gens = sorted(J.min_gens, key=lambda g: -sum(g))
    memo = {}
    nodes = 0

    def search(i, rem, k):
        nonlocal nodes
        nodes += 1
        if k == 0:
            return True
        rest = gens[i:]
        if not rest or k * min(sum(g) for g in rest) > sum(rem):
            return False
        if any(k * min(g[j] for g in rest) > rem[j] for j in range(len(rem))):
            return False
        if k == 1:
            return any(all(e <= r for e, r in zip(g, rem)) for g in rest)
        if (i, rem, k) not in memo:
            g = gens[i]
            cmax = min([k] + [r // e for r, e in zip(rem, g) if e])
            memo[i, rem, k] = any(
                search(i + 1, tuple(r - c * e for r, e in zip(rem, g)), k - c)
                for c in range(cmax, -1, -1)
            )
        return memo[i, rem, k]

    search(0, m, t)
    return nodes


def in_closure_by_powers(
    I: MonomialIdeal, m: tuple[int, ...], n: int, k_max: int = 12
) -> bool:
    """Raw-power closure membership by its definition: some k <= k_max
    has x^{km} in I^{kn}, every k tried."""
    return any(
        contains_in_power(I, tuple(k * e for e in m), k * n)
        for k in range(1, k_max + 1)
    )


def closure_by_power_oracle(
    I: MonomialIdeal, n: int, k_max: int = 12
) -> set[tuple[int, ...]]:
    """Minimal generators of the closure of I^n computed from raw powers
    only: box-scan membership via exists k <= k_max with x^{km} in I^{kn}."""
    bounds = tuple(n * e for e in I.max_exponents())
    members = {
        m
        for m in product(*(range(b + 1) for b in bounds))
        if in_closure_by_powers(I, m, n, k_max)
    }
    d = len(bounds)
    minimal = set()
    for m in members:
        below = (
            tuple(m[j] - 1 if j == i else m[j] for j in range(d))
            for i in range(d)
            if m[i]
        )
        if not any(q in members for q in below):
            minimal.add(m)
    return minimal


def minimal_lattice_members_ref(facets, bounds, scale) -> list[tuple[int, ...]]:
    """Minimal lattice points of scale*NP inside the box prod [0, bounds[i]],
    by a depth-first walk over every coordinate.

    Two prunings: abandon a prefix when even the box-completion misses some
    facet, and stop descending once the zero-completion is already a member
    (everything below the prefix then dominates it).  A point is minimal
    when no q - e_j meets every facet, tested for every coordinate j.
    """
    d = len(bounds)
    normals = [f.normal for f in facets]
    targets = [scale * f.offset for f in facets]
    nf = len(facets)
    suffix_max = [
        [sum(normals[f][j] * bounds[j] for j in range(i, d)) for i in range(d + 1)]
        for f in range(nf)
    ]
    out: list[tuple[int, ...]] = []

    def is_minimal(q, dots) -> bool:
        for j in range(d):
            if q[j] and all(dots[f] - normals[f][j] >= targets[f] for f in range(nf)):
                return False
        return True

    def walk(i, prefix, dots) -> None:
        if all(dots[f] >= targets[f] for f in range(nf)):
            q = prefix + (0,) * (d - i)
            if is_minimal(q, dots):
                out.append(q)
            return
        if i == d:
            return
        if any(dots[f] + suffix_max[f][i] < targets[f] for f in range(nf)):
            return
        col = [normals[f][i] for f in range(nf)]
        for v in range(bounds[i] + 1):
            walk(i + 1, prefix + (v,), [dots[f] + v * col[f] for f in range(nf)])

    walk(0, (), [0] * nf)
    return out


def dilation_cuts(rows, points, default: int) -> list[int]:
    """Largest n with the lattice point m >= 0 in n*NP, for each point m of
    `points` in order: min over the rows (a, b) of (a.m) // b, or `default`
    when there is no row (then m lies in every dilation).

    For each row, a.m of every point is a chain of maps over the coordinate
    columns, and the running minimum one more map.  Python ints keep every
    step exact, whatever the entries, negative ones included."""
    columns = list(zip(*points))
    cuts = None
    for a, b in rows:
        dots = repeat(0, len(points))
        for a_j, column in zip(a, columns):
            dots = map(add, dots, map(mul, column, repeat(a_j)))
        floors = map(floordiv, dots, repeat(b))
        cuts = list(floors) if cuts is None else list(map(min, cuts, floors))
    return [default] * len(points) if cuts is None else cuts


def minimal_primes_ref(J: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Minimal primes over J by brute force: every variable set that meets
    the support of every generator, kept when no other such set is a proper
    subset of it."""
    d = J.ring.dimension
    covers = [
        set(vs)
        for k in range(1, d + 1)
        for vs in combinations(range(d), k)
        if all(any(g[v] for v in vs) for g in J.min_gens)
    ]
    return frozenset(
        MonomialPrime(tuple(sorted(s))) for s in covers if not any(c < s for c in covers)
    )


def upset_in_box(gens, box: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All box monomials divisible by some generator (the ideal's members)."""
    return frozenset(
        m
        for m in product(*(range(b + 1) for b in box))
        if any(divides(g, m) for g in gens)
    )


def pure_powers(ring, bounds) -> MonomialIdeal:
    """The ideal generated by x_v^e for the (v, e) in bounds: an irreducible
    component from its bounds, or a monomial prime when every e is 1."""
    d = ring.dimension
    return normalize([tuple(e if i == v else 0 for i in range(d)) for v, e in bounds], ring)


def colon_witness(J: MonomialIdeal, bounds) -> tuple[int, ...]:
    """Witness w of the component (x_v^{b_v}) of J: (J : w) is the prime on
    the component's support exactly when the component is irredundant.

    w_v = b_v - 1 on the support and one more than J's largest generator
    exponent elsewhere.  For a redundant component C, w misses some other
    component D (w is the largest monomial outside C), and (D : w) does not
    contain the prime, so neither does (J : w).
    """
    w = [1 + max(map(max, J.min_gens))] * J.ring.dimension
    for v, e in bounds:
        w[v] = e - 1
    return tuple(w)


def corpus_line_accepted_ref(line: str) -> bool:
    """Whether a corpus line is a usable entry, by the hand rules: a JSON
    object with the fields id (a non-empty string), ring (1 to
    MAX_DIMENSION distinct identifier names), gens (a non-empty list of
    non-constant vectors of non-negative ints, each at most
    MAX_INPUT_EXPONENT, one per ring variable) and an optional s_vars (a
    non-empty list of distinct ring variables)."""
    try:
        entry = json.loads(line)
    except (ValueError, RecursionError):
        return False
    if not isinstance(entry, dict) or not set(entry) <= {"id", "ring", "gens", "s_vars"}:
        return False
    if not isinstance(entry.get("id"), str) or not entry["id"]:
        return False
    ring = entry.get("ring")
    if not isinstance(ring, list) or not 1 <= len(ring) <= MAX_DIMENSION:
        return False
    for name in ring:
        if not isinstance(name, str) or not name:
            return False
        if not (name[0].isalpha() or name[0] == "_"):
            return False
        if not all(c.isalnum() or c == "_" for c in name):
            return False
    if len(set(ring)) != len(ring):
        return False
    gens = entry.get("gens")
    if not isinstance(gens, list) or not gens:
        return False
    for g in gens:
        if not isinstance(g, list) or len(g) != len(ring):
            return False
        if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in g):
            return False
        if not any(g) or max(g) > MAX_INPUT_EXPONENT:
            return False
    s_vars = entry.get("s_vars")
    if s_vars is None:
        return True
    return (
        isinstance(s_vars, list)
        and bool(s_vars)
        and all(isinstance(v, str) and v in ring for v in s_vars)
        and len(set(s_vars)) == len(s_vars)
    )


def zero_ideal(ring: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ring, ())


def contains_monomial(J: MonomialIdeal, m) -> bool:
    """True iff some minimal generator divides x^m."""
    m = check_vector(J.ring.dimension, m)
    return any(divides(g, m) for g in J.min_gens)


def ideal_sum(J: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    _same_ring(J, K)
    return normalize(J.min_gens + K.min_gens, J.ring)


def ideal_intersection(J: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise componentwise max (lcm) of generators."""
    _same_ring(J, K)
    return normalize(
        (tuple(max(a, b) for a, b in zip(g, h)) for g in J.min_gens for h in K.min_gens),
        J.ring,
    )


def contains_ideal(J: MonomialIdeal, K: MonomialIdeal) -> bool:
    """J contains K, i.e. every generator of K is a member of J."""
    _same_ring(J, K)
    return all(contains_monomial(J, g) for g in K.min_gens)
