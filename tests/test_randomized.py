"""Seeded randomized cross-validation of the polyhedral pipeline.

A fixed generator keeps this deterministic; the wider (slower) sweep that
found the shipped deep-chain corpus entry used the same checks.
"""

import random
from functools import reduce
from itertools import combinations_with_replacement

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
from reesval.newton import _dual_extreme_rays, _minimal_lattice_members
from oracles import (
    closure_by_power_oracle,
    colon_witness,
    dual_extreme_rays_ref,
    facets_bruteforce,
    ideal_intersection,
    minimal_lattice_members_ref,
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


def test_facets_match_hull_oracle_wide_and_degenerate():
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
    for ideal in ideals:
        got = {(f.normal, f.offset) for f in compute_np(ideal).facets}
        assert got == facets_bruteforce(list(ideal.min_gens)), ideal.min_gens


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
    for points, d in cases:
        assert _dual_extreme_rays(points, d) == dual_extreme_rays_ref(points, d), (points, d)


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
    # the library walk solves the last coordinate in closed form and reads
    # only the positive-offset rows; the reference scans the last coordinate
    # and reads every facet.  Both return the same points in the same order,
    # on the full box and on boxes cut below it.
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


def test_ass_two_routes_randomized():
    for ideal in random_ideals(40, seed=303):
        assert associated_primes(ideal) == associated_primes_bruteforce(ideal), \
            ideal.min_gens


def pure_powers(ring, bounds):
    """The ideal generated by x_v^e for the (v, e) in bounds."""
    d = ring.dimension
    return normalize([tuple(e if i == v else 0 for i in range(d)) for v, e in bounds], ring)


def test_decomposition_certified_randomized():
    # intersection J plus a colon certificate per component pin down the
    # unique irredundant decomposition; only core operations check it
    for ideal in random_ideals(150, seed=606):
        for J in (ideal, ideal_power(ideal, 2)):
            comps = irreducible_decomposition(J)
            parts = (pure_powers(J.ring, c.bounds) for c in comps)
            assert reduce(ideal_intersection, parts) == J, J.min_gens
            for c in comps:
                prime = pure_powers(J.ring, ((v, 1) for v, _ in c.bounds))
                assert colon(J, colon_witness(J, c.bounds)) == prime, (J.min_gens, c)


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
