"""Families whose closures and chains are known in closed form.

Each test pins a closed form that was measured on this code and that the
README lists under "Known answers": squarefree Veronese ideals equal their
integral closures, their stable sets and indexes follow one formula, and
the closure of the third power of two disjoint triangles' edge ideal has
one generator more than the power.  The Veronese closures call the lattice
walk directly, not `integral_closure_power`, whose product route for
n > d - 1 would build closures from powers instead of testing them.
"""

from itertools import combinations
from math import ceil

from reesval import (
    MonomialPrime,
    RingContext,
    a_star,
    compute_np,
    ideal_power,
    integral_closure_power,
    normalize,
)
from reesval.newton import _minimal_lattice_members


def ring_of(d):
    return RingContext(tuple(f"x{i}" for i in range(1, d + 1)))


def squarefree_veronese(d, k):
    """I_{d,k}: every product of k distinct variables of x1..xd."""
    return normalize(
        [tuple(int(i in s) for i in range(d)) for s in combinations(range(d), k)],
        ring_of(d),
    )


def walk(ideal, n):
    bounds = tuple(n * e for e in ideal.max_exponents())
    return normalize(_minimal_lattice_members(compute_np(ideal).rows, bounds, n), ideal.ring)


def test_squarefree_veronese_ideals_equal_their_closures():
    cases = [(d, k, n) for d in range(2, 6) for k in range(1, d + 1) for n in range(1, d + 1)]
    assert len(cases) == 54
    for d, k, n in cases:
        ideal = squarefree_veronese(d, k)
        assert walk(ideal, n) == ideal_power(ideal, n), (d, k, n)


def test_squarefree_veronese_stable_sets_and_indexes():
    # the stable set is every prime of size at least d - k + 1, reached at
    # n = ceil((d - 1) / (d - k))
    for d in range(3, 6):
        for k in range(2, d):
            report = a_star(squarefree_veronese(d, k))
            assert report.stable_set == {
                MonomialPrime(s)
                for size in range(d - k + 1, d + 1)
                for s in combinations(range(d), size)
            }, (d, k)
            assert report.stabilization_index == ceil((d - 1) / (d - k)), (d, k)


def test_two_disjoint_triangles_gain_the_product_of_all_variables_at_n3():
    # the edge ideal of the triangles x1x2x3 and x4x5x6 fails the odd cycle
    # condition: x1*...*x6 is the mean of the two triangles' edge products
    # (x1x2x3)^2 and (x4x5x6)^2, which lie in I^3, yet it is no product of
    # three edges, since the triangles have no perfect matching
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    ideal = normalize([tuple(int(i in e) for i in range(1, 7)) for e in edges], ring_of(6))
    power = ideal_power(ideal, 3)
    assert integral_closure_power(ideal, 3) == normalize(
        list(power.min_gens) + [(1,) * 6], ideal.ring
    )
    assert (1,) * 6 not in power.min_gens
