"""Seeded randomized cross-validation of the polyhedral pipeline.

A fixed generator keeps this deterministic; the wider (slower) sweep that
found the shipped deep-chain corpus entry used the same checks.
"""

import random
from functools import reduce
from itertools import combinations_with_replacement
from operator import add, le

from reesval import (
    RingContext,
    a_star,
    associated_primes,
    associated_primes_bruteforce,
    b_star,
    colon,
    compute_np,
    ideal_power,
    ideal_product,
    integral_closure_power,
    irreducible_decomposition,
    minimal_primes,
    normalize,
    verify_localization,
)
from reesval.newton import FacetInequality, _dual_extreme_rays, _minimal_lattice_members
from oracles import (
    closure_by_power_oracle,
    colon_witness,
    dual_extreme_rays_ref,
    facets_bruteforce,
    ideal_intersection,
    minimal_lattice_members_ref,
    pure_powers,
)

NAMES = ("x", "y", "z", "w", "u", "v")


def random_ideals(count, seed):
    rng = random.Random(seed)
    made = 0
    while made < count:
        d = rng.choice([1, 2, 2, 3, 3, 4])
        gens = [
            tuple(rng.randint(0, 5) for _ in range(d))
            for _ in range(rng.randint(1, 6))
        ]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        ideal = normalize(gens, RingContext(NAMES[:d]))
        if ideal.is_proper_nonzero():
            made += 1
            yield ideal


def test_facets_match_hull_oracle_randomized():
    for ideal in random_ideals(50, seed=101):
        got = {(f.normal, f.offset) for f in compute_np(ideal).facets}
        assert got == facets_bruteforce(list(ideal.min_gens)), ideal.min_gens


def monomials_of_degree(d, k):
    return [
        tuple(pick.count(i) for i in range(d))
        for pick in combinations_with_replacement(range(d), k)
    ]


def padded(gens, d):
    return [tuple(g) + (0,) * (d - len(g)) for g in gens]


def wide_and_degenerate_ideals():
    # the hull oracle costs about C(gens + d, d) eliminations, so these stay
    # small; together they run in a few seconds
    rng = random.Random(505)
    ideals = []
    for d, count, sizes in ((5, 4, (4, 6)), (6, 2, (4, 5))):
        while count:
            gens = [
                tuple(rng.randint(0, 6) for _ in range(d))
                for _ in range(rng.randint(*sizes))
            ]
            ideal = normalize(gens, RingContext(NAMES[:d]))
            if ideal.is_proper_nonzero():
                ideals.append(ideal)
                count -= 1
    # many generators on one face: adjacent rays share more than the
    # minimum number of tight constraints
    ideals.append(normalize(monomials_of_degree(4, 2), RingContext(NAMES[:4])))
    ideals.append(normalize(
        padded(monomials_of_degree(3, 2), 5) + [(0, 0, 0, 3, 0), (0, 0, 0, 0, 2), (1, 0, 0, 1, 1)],
        RingContext(NAMES[:5]),
    ))
    ideals.append(normalize(
        padded(monomials_of_degree(2, 3), 6)
        + [(0, 0, 2, 0, 0, 0), (0, 0, 0, 3, 0, 0), (1, 0, 0, 0, 1, 1)],
        RingContext(NAMES),
    ))
    # pairs that share enough tight constraints and still are not adjacent
    # (the first three generators of the first ideal are collinear)
    for gens in (
        [(3, 0, 3, 1), (2, 1, 2, 2), (1, 2, 1, 3), (1, 3, 3, 1)],
        [(0, 2, 0, 1), (0, 1, 1, 1), (0, 0, 2, 1), (2, 0, 0, 2), (1, 2, 1, 0)],
    ):
        ideals.append(normalize(gens, RingContext(NAMES[:4])))
    return ideals


def test_facets_match_hull_oracle_wide_and_degenerate():
    for ideal in wide_and_degenerate_ideals():
        got = {(f.normal, f.offset) for f in compute_np(ideal).facets}
        assert got == facets_bruteforce(list(ideal.min_gens)), ideal.min_gens


def test_facet_order_is_support_size_then_normal_then_offset():
    # compute_np sorts each support-size bucket on the rays alone; the
    # order must be that of the full key all the same
    key = lambda f: (len(f.support()), f.normal, f.offset)
    for ideal in [*random_ideals(50, seed=101), *wide_and_degenerate_ideals()]:
        facets = compute_np(ideal).facets
        assert list(facets) == sorted(facets, key=key), ideal.min_gens


def test_facets_of_full_degree_slices():
    # all monomials of degree k: NP is {x >= 0, sum(x) >= k}, with every
    # generator on the one positive-offset facet
    for d, k in ((4, 3), (5, 2), (5, 3), (6, 2), (6, 3)):
        ideal = normalize(monomials_of_degree(d, k), RingContext(NAMES[:d]))
        got = {(f.normal, f.offset) for f in compute_np(ideal).facets}
        units = {(tuple(int(j == i) for j in range(d)), 0) for i in range(d)}
        assert got == units | {((1,) * d, k)}, (d, k)


def test_dual_extreme_rays_match_reference(corpus_ideals):
    # the library looks adjacent partners up in per-constraint bitmasks and
    # skips the test for simple rays; the reference scans every pair and
    # every ray.  Both return the same rays in the same order.
    rng = random.Random(909)
    cases = []
    # near the input caps, like the queries benchmark
    for _ in range(3):
        gens = [tuple(rng.randint(0, 12) for _ in range(6)) for _ in range(rng.randint(20, 30))]
        cases.append((normalize(gens, RingContext(NAMES)).min_gens, 6))
    # degenerate: many generators on one face
    for _, ideal in corpus_ideals:
        if len(ideal.min_gens) <= 6:
            for n in (2, 3):
                cases.append((integral_closure_power(ideal, n).min_gens, ideal.ring.dimension))
    for d, k in ((2, 4), (3, 3), (4, 2)):
        cases.append((tuple(monomials_of_degree(d, k)), d))
    # d = 1 (a repeated point makes a ray tight on two constraints) and d = 2
    cases += [(((2,), (2,), (1,)), 1), (((3,), (1,), (2,)), 1)]
    cases += [(((4, 0), (2, 1), (2, 1), (0, 4), (1, 3)), 2), (((3, 0), (1, 1), (0, 2)), 2)]
    kernel = kernel_sign_cases()
    got = []
    for points, d in cases + kernel:
        got.append(_dual_extreme_rays(points, d))
        assert got[-1] == dual_extreme_rays_ref(points, d), (points, d)
    # each kernel point set comes in order, reversed and shuffled: the order
    # in which generators enter changes the order of the rays, not the rays
    for i in range(0, len(kernel), 3):
        runs = got[len(cases) + i:len(cases) + i + 3]
        assert sorted(runs[0]) == sorted(runs[1]) == sorted(runs[2]), kernel[i]


def kernel_sign_cases():
    """Point sets for the kernel's later-constraint signs, which it takes
    from a new ray's parents: steps that cut nothing, rays tight on a
    constraint not yet added, and rays negative on several of them; each
    also reversed and shuffled."""
    rng = random.Random(910)
    sets = []
    for d, count in ((3, 6), (4, 8), (5, 8)):
        gens = list(normalize(
            [tuple(rng.randint(0, 6) for _ in range(d)) for _ in range(count)],
            RingContext(NAMES[:d]),
        ).min_gens)
        # g + (1, ..., 1) for an earlier point g is positive on every ray
        # (a, c) of the cone so far, as a >= 0: a step that cuts nothing,
        # right after the first point, in the middle and last
        mid = len(gens) // 2
        inside = [
            tuple(e + 1 for e in g) for g in (gens[0], rng.choice(gens[:mid]), rng.choice(gens))
        ]
        sets.append((
            [gens[0], inside[0]] + gens[1:mid] + [inside[1]] + gens[mid:] + [inside[2]], d
        ))
        # inside NP on a facet: g + e_0 meets every facet with a_0 = 0 at g
        sets.append((gens + [(g[0] + 1,) + g[1:] for g in gens[::2]], d))
        # midpoints of doubled points: on edges and facets of the earlier ones
        doubled = [tuple(2 * e for e in g) for g in gens]
        sums = [tuple(map(add, g, h)) for i, g in enumerate(gens) for h in gens[i + 1:]]
        sets.append((doubled + rng.sample(sums, min(len(sums), 12)), d))
    # near the caps, largest degree first: the low points come late, and
    # each cuts rays that are negative on several constraints after it
    for _ in range(2):
        gens = normalize(
            [tuple(rng.randint(0, 12) for _ in range(6)) for _ in range(rng.randint(16, 22))],
            RingContext(NAMES),
        ).min_gens
        sets.append((gens[::-1], 6))
    cases = []
    for points, d in sets:
        shuffled = list(points)
        rng.shuffle(shuffled)
        cases += [(tuple(points), d), (tuple(points[::-1]), d), (tuple(shuffled), d)]
    return cases


def test_closure_matches_power_oracle_randomized():
    for ideal in random_ideals(25, seed=202):
        if ideal.ring.dimension > 3 or max(ideal.max_exponents()) > 4:
            continue
        for n in (1, 2):
            assert set(integral_closure_power(ideal, n).min_gens) == \
                closure_by_power_oracle(ideal, n), (ideal.min_gens, n)


def closure_by_walk(ideal, n):
    bounds = tuple(n * e for e in ideal.max_exponents())
    members = minimal_lattice_members_ref(compute_np(ideal).facets, bounds, n)
    return normalize(members, ideal.ring)


def test_lattice_walk_matches_reference():
    # the library walk packs the positive-offset rows into guard-bit lanes
    # and walks the last two coordinates as a two-pointer staircase; the
    # reference scans the last coordinate and reads every facet.  Both
    # return the same points in the same order, on the full box, on boxes
    # cut below it and on the hand-built lane edges below.
    rng = random.Random(808)
    cases = [
        # z is absent: facets with a_z = 0, x >= 1 among them, rule out
        # every prefix with x = 0
        (normalize([(2, 0, 0), (1, 1, 0)], RingContext(NAMES[:3])), 1, None),
        (normalize([(2, 0, 0), (1, 1, 0)], RingContext(NAMES[:3])), 2, None),
        # boxes below n * M: the least feasible last coordinate can exceed
        # the bound (y >= 3 for x = 0 in a box with y <= 1)
        (normalize([(2, 0), (0, 3)], RingContext(NAMES[:2])), 1, (2, 1)),
        (normalize([(3, 0, 0), (0, 2, 0), (0, 0, 4)], RingContext(NAMES[:3])), 2, (6, 4, 3)),
        # plateaus in w*(v), the least feasible last coordinate at
        # q_{d-1} = v: x + 2y >= 2 gives w* = 1, 1, 0 for x = 0, 1, 2, and
        # 3x + y + 3z >= 3 gives w* = 1, 1, 1, 0 for y = 0..3 at x = 0; only
        # the corners where w* drops are minimal
        (normalize([(2, 0), (0, 1)], RingContext(NAMES[:2])), 1, None),
        (normalize([(1, 0, 0), (0, 3, 0), (0, 0, 1)], RingContext(NAMES[:3])), 1, None),
        (normalize([(1, 0, 0), (0, 3, 0), (0, 0, 1)], RingContext(NAMES[:3])), 2, None),
        # the only row x + y >= 2n has a_z = 0: below it no z fits, so at
        # x = 0 the staircase starts at y = 2n, though z may reach n
        (normalize([(2, 0, 0), (0, 2, 0), (1, 1, 1)], RingContext(NAMES[:3])), 1, None),
        (normalize([(2, 0, 0), (0, 2, 0), (1, 1, 1)], RingContext(NAMES[:3])), 2, None),
    ]
    for d, count, e_max in ((1, 6, 6), (2, 20, 5), (3, 20, 4), (4, 12, 3), (5, 6, 2)):
        while count:
            gens = [
                tuple(rng.randint(0, e_max) for _ in range(d))
                for _ in range(rng.randint(1, 4))
            ]
            if d > 1 and rng.random() < 0.3:
                gens = [g[:-1] + (0,) for g in gens]
            ideal = normalize([g for g in gens if any(g)], RingContext(NAMES[:d]))
            if not ideal.is_proper_nonzero():
                continue
            count -= 1
            for n in range(1, max(2, d)):
                full = tuple(n * e for e in ideal.max_exponents())
                cases.append((ideal, n, None))
                cases.append((ideal, n, tuple(max(0, b - rng.randint(1, 3)) for b in full)))
    for ideal, n, bounds in cases:
        bounds = bounds or tuple(n * e for e in ideal.max_exponents())
        np_ = compute_np(ideal)
        assert _minimal_lattice_members(np_.rows, bounds, n) == \
            minimal_lattice_members_ref(np_.facets, bounds, n), (ideal.min_gens, n, bounds)
    for rows, bounds, scale in lane_edge_cases():
        facets = [FacetInequality(a, b) for a, b in rows]
        assert _minimal_lattice_members(rows, bounds, scale) == \
            minimal_lattice_members_ref(facets, bounds, scale), (rows, bounds, scale)


def lane_edge_cases():
    """Hand-built (rows, bounds, scale) at the edges of the walk's packed
    lanes, whose width is one bit more than the bit length of the largest
    in-box a.q or target scale*b."""
    rows3 = [((1, 1, 1), 1), ((1, 2, 0), 1), ((0, 1, 3), 1)]
    for top in (15, 16, 63, 64):
        # the largest in-box dot is top (rows 1 and 2 at the box corner),
        # with targets below it
        yield [((1, 1, 1), top // 2), ((1, 2, 0), top // 3), ((0, 1, 3), 5)], (top - 6, 3, 3), 1
        # the largest target is top, and equals the largest dot
        yield [((1, 1, 1), top), ((1, 2, 0), top // 3), ((0, 1, 3), 5)], (top - 6, 3, 3), 1
        # the largest target is top, above every in-box dot: no member
        yield rows3, (top // 4, top // 4, top // 8), top
        # the scale makes every target top
        yield [((1, 1), 1)], (top, top), top
        yield [((1, 3), 1), ((3, 1), 1)], (top // 4, top // 4), top
        # d = 1: w runs down from one past the box to the least member
        yield [((1,), 1)], (top,), top
        yield [((1,), 1)], (top - 1,), top
    # no rows: the origin is the one minimal member
    for d in (1, 2, 3):
        yield [], (2,) * d, 1
    # d = 2 with a missed row that has a_last = 0: no y helps below x = 3
    yield [((1, 0), 3), ((1, 1), 4)], (5, 5), 1
    yield [((1, 0), 3), ((1, 1), 4)], (5, 5), 2
    yield [((1, 1, 0), 4), ((0, 0, 1), 1), ((1, 0, 2), 3)], (4, 4, 2), 1
    # a box with q_last <= 0: the staircase starts at x + 1 * LAST, and row
    # 1's a_last = 100 carries out of its 4-bit lane into row 2's; only
    # x itself is ever tested
    yield [((1, 100), 2), ((2, 1), 3)], (3, 0), 1
    # long w* plateaus: x + 10y >= 10 keeps w* = 1 for x = 0..9, and
    # x + y + 20z >= 20 keeps w* = 1 along y at every x
    yield [((1, 10), 10)], (12, 3), 1
    yield [((1, 10), 10), ((2, 1), 2)], (25, 3), 2
    yield [((1, 1, 20), 20)], (3, 25, 2), 1
    yield [((1, 1, 20), 20), ((1, 0, 1), 1)], (3, 25, 2), 1


def test_lattice_walk_on_a_six_variable_polyhedron():
    # 106 rows in the packed lanes, on the full box and on one cut below it
    rng = random.Random(24)
    gens = [tuple(rng.randint(0, 3) for _ in range(6)) for _ in range(rng.randint(8, 14))]
    ideal = normalize(gens, RingContext(NAMES))
    np_ = compute_np(ideal)
    assert len(np_.rows) >= 50
    full = ideal.max_exponents()
    for bounds in (full, tuple(max(0, b - 1) for b in full)):
        assert _minimal_lattice_members(np_.rows, bounds, 1) == \
            minimal_lattice_members_ref(np_.facets, bounds, 1), bounds


def test_closure_product_route_matches_walk():
    # integral_closure_power returns I^(n-s) * closure(I^s), s = max(1, d - 1),
    # for n > s; the lattice walk is the reference.  n = d + 2 takes two or
    # more product steps.  The walk grows fast with d and n, so 5-variable
    # ideals stay few and small, and skip n = d + 2.
    rng = random.Random(707)
    for d, count, e_max in ((1, 8, 6), (2, 20, 5), (3, 20, 4), (4, 12, 2), (5, 3, 2)):
        while count:
            gens = [
                tuple(rng.randint(0, e_max) for _ in range(d))
                for _ in range(rng.randint(1, 4))
            ]
            ideal = normalize([g for g in gens if any(g)], RingContext(NAMES[:d]))
            if not ideal.is_proper_nonzero():
                continue
            count -= 1
            for n in sorted({max(2, d), d + 1} | ({d + 2} if d <= 4 else set())):
                assert integral_closure_power(ideal, n) == closure_by_walk(ideal, n), \
                    (ideal.min_gens, n)


def test_closure_product_threshold_is_sharp():
    # I = (x_1^d, ..., x_d^d) has closure(I^n) = (x_1, ..., x_d)^(dn).  At
    # n = d - 1 the monomial (x_1 ... x_d)^(d-1) lies in it, but no exponent
    # reaches d, so it is not in I * closure(I^(d-2)): the walk is needed
    # below n = d.
    for d in (3, 4):
        ring = RingContext(NAMES[:d])
        ideal = normalize([tuple(d * (i == v) for i in range(d)) for v in range(d)], ring)
        below = integral_closure_power(ideal, d - 1)
        assert (d - 1,) * d in below.min_gens
        assert below != ideal_product(integral_closure_power(ideal, d - 2), ideal)
        assert integral_closure_power(ideal, d) == closure_by_walk(ideal, d)


def test_closure_residue_lies_in_the_top_sums_box(corpus_ideals):
    # README "The residue box": a minimal generator of closure(I^n) outside
    # I * closure(I^(n-1)) lies in prod [0, T_j(n)], T_j(n) the sum of the n
    # largest j-th generator exponents, and there is none once n >= #gens.
    # The library walk gives every closure, so no product route is assumed.
    def walk(ideal, n):
        bounds = tuple(n * e for e in ideal.max_exponents())
        return normalize(_minimal_lattice_members(compute_np(ideal).rows, bounds, n), ideal.ring)

    ideals = [ideal for _, ideal in corpus_ideals if ideal.ring.dimension <= 4]
    residues = outside_smaller_box = 0
    for ideal in ideals + list(random_ideals(120, seed=909)):
        d = ideal.ring.dimension
        columns = [sorted((g[j] for g in ideal.min_gens), reverse=True) for j in range(d)]
        previous = walk(ideal, 1)
        for n in range(2, d + 1):
            closure = walk(ideal, n)
            product = set(ideal_product(ideal, previous).min_gens)
            residue = [q for q in closure.min_gens if q not in product]
            box = [sum(column[:n]) for column in columns]
            assert all(all(map(le, q, box)) for q in residue), (ideal.min_gens, n, residue)
            if n >= len(ideal.min_gens):
                assert residue == [], (ideal.min_gens, n)
            residues += len(residue)
            outside_smaller_box += sum(
                any(q[j] > sum(columns[j][:n - 1]) for j in range(d)) for q in residue
            )
            previous = closure
    # the box is met: most residue generators leave the box of n - 1 sums
    assert residues == 43 and outside_smaller_box == 28


def test_ass_two_routes_randomized():
    for ideal in random_ideals(40, seed=303):
        assert associated_primes(ideal) == associated_primes_bruteforce(ideal), \
            ideal.min_gens


def test_decomposition_certified_randomized():
    # intersection J plus a colon certificate per component pin down the
    # unique irredundant decomposition; only core operations check it
    for ideal in random_ideals(150, seed=606):
        for J in (ideal, ideal_power(ideal, 2)):
            comps = irreducible_decomposition(J)
            parts = (pure_powers(J.ring, c) for c in comps)
            assert reduce(ideal_intersection, parts) == J, J.min_gens
            for c in comps:
                prime = pure_powers(J.ring, ((v, 1) for v, _ in c))
                assert colon(J, colon_witness(J, c)) == prime, (J.min_gens, c)


def test_centers_identity_randomized():
    for ideal in random_ideals(40, seed=404):
        report = a_star(ideal, 8)
        assert report.stable_set == b_star(ideal).centers, ideal.min_gens
        assert report.verdict_monotone, ideal.min_gens
        assert minimal_primes(ideal) <= report.stable_set, ideal.min_gens
        covered = set().union(*(c.vars for c in b_star(ideal).centers))
        for v in range(ideal.ring.dimension):
            if v not in covered:
                loc = verify_localization(ideal, (v,), 3)
                assert loc.admissible and loc.holds(), (ideal.min_gens, v)
