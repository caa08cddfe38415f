"""Monomial ideal arithmetic: worked examples plus exhaustive/randomized
properties (normalization, membership, colon adjointness, saturation)."""

import copy
import pickle
import random
import sys
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reesval import (
    BStarSet,
    InvalidInput,
    MonomialIdeal,
    MonomialPrime,
    RingContext,
    a_star,
    b_star,
    colon,
    compute_np,
    contains_in_power,
    divides,
    equals,
    ideal_power,
    ideal_product,
    normalize,
    saturate,
    unit_ideal,
    verify_localization,
)
from reesval import clear_caches, core
from reesval.core import _power_search, _search_tables, monomial_key
from oracles import (
    contains_monomial,
    ideal_intersection,
    ideal_sum,
    minimal_generators_ref,
    monomial_in_power_ref,
    power_search_nodes_ref,
    upset_in_box,
    zero_ideal,
)

R1 = RingContext(("x",))
R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))


def ideal2(*gens) -> MonomialIdeal:
    return normalize(gens, R2)


# --- strategies -------------------------------------------------------------

vectors2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
gen_sets2 = st.lists(vectors2, min_size=0, max_size=5)
proper_gen_sets2 = st.lists(
    vectors2.filter(lambda v: any(v)), min_size=1, max_size=5
)


# --- normalize --------------------------------------------------------------

def test_normalize_drops_divisible_generator():
    assert ideal2((2, 0), (3, 1)).min_gens == ((2, 0),)


def test_normalize_keeps_incomparable_pair():
    assert ideal2((2, 0), (0, 3)).min_gens == ((2, 0), (0, 3))


def test_normalize_empty_is_zero_ideal():
    J = normalize([], R2)
    assert J.is_zero() and not J.is_unit()


def test_normalize_zero_vector_is_unit_ideal():
    J = ideal2((0, 0), (2, 1))
    assert J.is_unit() and J.min_gens == ((0, 0),)


def test_normalize_rejects_dimension_mismatch():
    with pytest.raises(InvalidInput):
        normalize([(1, 2, 3)], R2)
    with pytest.raises(InvalidInput):
        normalize([(1, -1)], R2)


def test_bool_entries_are_not_exponents():
    # bool is an int subclass: True used to be kept as an exponent, and
    # json.dumps printed it as `true`
    for bad in ([(True, 0), (0, 2)], [(1, False)]):
        with pytest.raises(InvalidInput):
            normalize(bad, R2)
    with pytest.raises(InvalidInput):
        MonomialIdeal(R2, ((True, 0),))
    J = ideal2((1, 0))
    for ask in (contains_monomial, colon, lambda J, m: contains_in_power(J, m, 1)):
        with pytest.raises(InvalidInput):
            ask(J, (True, False))


def test_public_constructor_keeps_the_checks_that_normalize_skips():
    # normalize checks its input once and builds its result unchecked; the
    # public constructor still rejects negative, bool and misshapen entries
    for gens in (((1, -1),), ((True, 0),), ((0, False),), ((1, 2, 3),), ((1.0, 2),), 5):
        with pytest.raises(InvalidInput):
            MonomialIdeal(R2, gens)
    for gens in ([], [(0, 0)], [(2, 0), (1, 1), (0, 3), (2, 2)]):
        J = ideal2(*gens)
        assert J == MonomialIdeal(R2, J.min_gens) and type(J.min_gens) is tuple


def test_public_constructor_canonicalizes():
    # a duplicate, a generator divisible by another and an unsorted order
    # give the same ideal as normalize, under == and under equals
    gens = ((0, 1), (1, 0), (0, 1), (2, 2))
    J = MonomialIdeal(R2, gens)
    assert J.min_gens == ((1, 0), (0, 1))
    assert J == normalize(gens, R2) and equals(J, normalize([(1, 0), (0, 1)], R2))
    rng = random.Random(2324)
    for _ in range(40):
        gens = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(0, 6))]
        assert MonomialIdeal(R3, gens) == normalize(gens, R3), gens


@settings(max_examples=80, deadline=None)
@given(gen_sets2)
def test_normalize_idempotent_antichain_and_upset_preserving(gens):
    J = normalize(gens, R2)
    assert normalize(J.min_gens, R2) == J
    for a in J.min_gens:
        for b in J.min_gens:
            assert a == b or not divides(a, b)
    box = (5, 5)
    assert upset_in_box(gens, box) == upset_in_box(J.min_gens, box)


# exponents at the edges of normalize's packed fields: the field width is
# max_exponent.bit_length() + 1, so 2^k - 1 fills a field below its guard
# bit and 2^k widens it; values above 12 are what closures of powers reach
FIELD_EDGES = [0, 1, 2, 3, 4, 7, 8, 12, 13, 15, 16, 31, 32, 48, 63, 64, 72, 127, 128]
edge_exponents = st.one_of(st.sampled_from(FIELD_EDGES), st.integers(0, 80))
edge_gen_sets = st.integers(1, 6).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(*[edge_exponents] * d), min_size=0, max_size=12),
    )
)


@settings(max_examples=150, deadline=None)
@given(edge_gen_sets)
def test_normalize_matches_pairwise_reference(case):
    d, gens = case
    # near misses: one entry of a generator one below or above, which
    # crosses a field boundary whenever that entry sits at an edge
    gens = gens + [
        g[:i] + (g[i] + step,) + g[i + 1:]
        for g in gens[:3]
        for i in range(d)
        for step in (-1, 1)
        if g[i] + step >= 0
    ]
    ring = RingContext(("x", "y", "z", "w", "u", "v")[:d])
    expected = tuple(sorted(minimal_generators_ref(gens), key=monomial_key))
    assert normalize(gens, ring).min_gens == expected


def test_normalize_matches_pairwise_reference_on_a_large_set():
    # 1 050 vectors in 5 variables, 750 random and 300 near the degree-30
    # shell (an antichain-rich band), so a few hundred are kept and
    # the kept store spans many lanes; exponents reach 40, past the caps,
    # as in the products of closures
    rng = random.Random(2502)
    ring = RingContext(("x", "y", "z", "w", "u"))
    gens = [tuple(rng.randint(0, 40) for _ in range(5)) for _ in range(750)]
    for _ in range(300):
        cuts = sorted(rng.randint(0, 30) for _ in range(4))
        shell = [b - a for a, b in zip([0, *cuts], [*cuts, 30])]
        gens.append(tuple(e + rng.choice((0, 0, 1, 2)) for e in shell))
    expected = tuple(sorted(minimal_generators_ref(gens), key=monomial_key))
    assert len(expected) > 200
    assert normalize(gens, ring).min_gens == expected
    assert normalize(iter(gens), ring).min_gens == expected


def test_canonical_order_degree_then_lex_descending():
    J = ideal2((0, 3), (1, 2), (2, 0))
    assert J.min_gens == ((2, 0), (1, 2), (0, 3))


# --- membership -------------------------------------------------------------

def test_contains_monomial_examples():
    J = ideal2((2, 0), (0, 3))
    assert contains_monomial(J, (2, 1))
    assert not contains_monomial(J, (1, 2))
    assert not contains_monomial(zero_ideal(R2), (0, 0))
    assert contains_monomial(unit_ideal(R2), (0, 0))


def test_contains_monomial_rejects_bad_vector():
    with pytest.raises(InvalidInput):
        contains_monomial(ideal2((1, 0)), (1, 2, 3))


# --- power ------------------------------------------------------------------

def brute_power_gens(J: MonomialIdeal, n: int) -> tuple:
    sums = {
        tuple(sum(col) for col in zip(*pick))
        for pick in combinations_with_replacement(J.min_gens, n)
    }
    return normalize(sums, J.ring).min_gens


def test_power_principal():
    assert ideal_power(normalize([(1,)], R1), 3).min_gens == ((3,),)


def test_power_maximal_square():
    J = ideal2((1, 0), (0, 1))
    expected = brute_power_gens(J, 2)
    assert expected == ((2, 0), (1, 1), (0, 2))
    assert ideal_power(J, 2).min_gens == expected


def test_power_x2_xy_square():
    J = ideal2((2, 0), (1, 1))
    expected = brute_power_gens(J, 2)
    assert expected == ((4, 0), (3, 1), (2, 2))
    assert ideal_power(J, 2).min_gens == expected


def test_power_zero_exponent_is_unit():
    assert ideal_power(ideal2((2, 0)), 0).is_unit()


def test_power_contains_generator_sums():
    J = ideal2((2, 0), (1, 1), (0, 3))
    for n in (2, 3):
        for pick in combinations_with_replacement(J.min_gens, n):
            total = tuple(sum(col) for col in zip(*pick))
            assert contains_monomial(ideal_power(J, n), total)


@settings(max_examples=40, deadline=None)
@given(proper_gen_sets2, st.integers(1, 3))
def test_power_matches_brute_force(gens, n):
    J = normalize(gens, R2)
    assert ideal_power(J, n).min_gens == brute_power_gens(J, n)


def test_power_of_a_large_exponent_keeps_the_stack_shallow():
    # a cold call used to recurse once per power, and about a thousand
    # powers exhaust the default recursion limit
    assert ideal_power(normalize([(1,)], R1), 1200).min_gens == ((1200,),)
    assert ideal_power(ideal2((2, 1)), 2500).min_gens == ((5000, 2500),)


# --- intersection -----------------------------------------------------------

def test_intersection_coprime_principals():
    assert ideal_intersection(ideal2((1, 0)), ideal2((0, 1))).min_gens == ((1, 1),)


def test_intersection_nested_principals():
    assert ideal_intersection(ideal2((2, 0)), ideal2((1, 0))).min_gens == ((2, 0),)


def test_intersection_maximal_with_squares():
    # derived from membership: minimal box monomials lying in both ideals
    A, B = ideal2((1, 0), (0, 1)), ideal2((2, 0), (0, 2))
    members = {
        m for m in product(range(4), repeat=2)
        if contains_monomial(A, m) and contains_monomial(B, m)
    }
    expected = normalize(
        (
            m for m in members
            if not any(
                tuple(m[j] - (j == i) for j in range(2)) in members
                for i in range(2) if m[i]
            )
        ),
        R2,
    )
    assert expected.min_gens == ((2, 0), (0, 2))  # B sits inside A already
    assert ideal_intersection(A, B) == expected


@settings(max_examples=40, deadline=None)
@given(gen_sets2, gen_sets2)
def test_intersection_membership_semantics(gens_a, gens_b):
    A, B = normalize(gens_a, R2), normalize(gens_b, R2)
    C = ideal_intersection(A, B)
    for m in product(range(6), repeat=2):
        assert contains_monomial(C, m) == (
            contains_monomial(A, m) and contains_monomial(B, m)
        )


# --- colon ------------------------------------------------------------------

def test_colon_examples():
    J = ideal2((2, 0), (1, 1))
    # brute-force scan of the definition: members of (J : x) in a box
    box = (3, 3)
    members = {
        m for m in product(range(4), repeat=2)
        if contains_monomial(J, (m[0] + 1, m[1]))
    }
    got = colon(J, (1, 0))
    assert {m for m in product(range(4), repeat=2) if contains_monomial(got, m)} == members
    assert got.min_gens == ((1, 0), (0, 1))

    assert colon(ideal2((2, 0)), (0, 1)).min_gens == ((2, 0),)
    assert colon(ideal2((1, 1)), (1, 1)).is_unit()
    assert colon(zero_ideal(R2), (1, 0)).is_zero()


@settings(max_examples=60, deadline=None)
@given(gen_sets2, vectors2)
def test_colon_adjointness_on_box(gens, m):
    J = normalize(gens, R2)
    Q = colon(J, m)
    for q in product(range(5), repeat=2):
        shifted = tuple(a + b for a, b in zip(q, m))
        assert contains_monomial(Q, q) == contains_monomial(J, shifted)


# --- saturation -------------------------------------------------------------

def iterated_colon_fixpoint(J: MonomialIdeal, var_indexes) -> MonomialIdeal:
    step = tuple(1 if i in set(var_indexes) else 0 for i in range(J.ring.dimension))
    current = J
    while True:
        nxt = colon(current, step)
        if nxt == current:
            return current
        current = nxt


def test_saturate_examples():
    assert saturate(ideal2((2, 0), (1, 1)), [1]).min_gens == ((1, 0),)
    assert saturate(ideal2((4, 0)), [1]).min_gens == ((4, 0),)
    assert saturate(ideal2((1, 1)), [0, 1]).is_unit()


def test_saturate_requires_variables():
    with pytest.raises(InvalidInput):
        saturate(ideal2((1, 0)), [])
    with pytest.raises(InvalidInput):
        saturate(ideal2((1, 0)), [5])


@settings(max_examples=60, deadline=None)
@given(proper_gen_sets2, st.sampled_from([(0,), (1,), (0, 1)]))
def test_saturate_is_iterated_colon_fixpoint(gens, vars_):
    J = normalize(gens, R2)
    assert saturate(J, vars_) == iterated_colon_fixpoint(J, vars_)


# --- sum / product / equals -------------------------------------------------

def test_sum_and_product_basics():
    J = ideal2((2, 0), (1, 1))
    assert equals(ideal_sum(J, zero_ideal(R2)), J)
    assert equals(ideal_product(J, unit_ideal(R2)), J)
    assert ideal_product(J, zero_ideal(R2)).is_zero()
    K = ideal2((0, 2))
    assert ideal_sum(J, K).min_gens == ((2, 0), (1, 1), (0, 2))
    assert equals(ideal_product(J, K), ideal_product(K, J))


def test_equals_needs_same_ring():
    with pytest.raises(InvalidInput):
        equals(ideal2((1, 0)), normalize([(1, 0, 0)], R3))


# --- raw-power membership without materializing the power -------------------

@pytest.mark.parametrize(
    "gens,m,t",
    [
        (((2, 0), (0, 3)), (6, 6), 5),
        (((2, 0), (0, 3)), (6, 6), 6),
        (((2, 0), (1, 1)), (4, 1), 2),
        (((2, 0), (1, 1)), (3, 0), 2),
        (((1, 1),), (3, 2), 2),
        (((1, 1),), (3, 2), 3),
    ],
)
def test_contains_in_power_agrees_with_materialized_power(gens, m, t):
    J = normalize(gens, R2)
    expected = contains_monomial(ideal_power(J, t), m)
    assert contains_in_power(J, m, t) == expected
    assert monomial_in_power_ref(J, m, t) == expected


@settings(max_examples=50, deadline=None)
@given(proper_gen_sets2, vectors2, st.integers(1, 4))
def test_contains_in_power_matches_reference(gens, m, t):
    J = normalize(gens, R2)
    assert contains_in_power(J, m, t) == monomial_in_power_ref(J, m, t)


def test_contains_in_power_degenerate_ideals():
    assert not contains_in_power(zero_ideal(R2), (1, 1), 2)
    assert contains_in_power(unit_ideal(R2), (0, 0), 7)
    assert contains_in_power(ideal2((1, 0)), (0, 5), 0)
    assert contains_in_power(zero_ideal(R2), (0, 0), 0)


NAMES = ("x", "y", "z", "w", "u")


@st.composite
def ideals_points_powers(draw):
    d = draw(st.integers(3, 5))
    vec = st.tuples(*[st.integers(0, 3)] * d)
    gens = draw(st.lists(vec.filter(any), min_size=1, max_size=4))
    m = draw(st.tuples(*[st.integers(0, 9)] * d))
    return gens, m, draw(st.integers(1, 4))


# The pinned cases sit at the componentwise prune: every generator has a
# positive x-exponent, so 4 picks need x^4.  In the members, 4 picks fit
# x^4 exactly (a prune at k * 1 >= rem_x would wrongly refuse them); in the
# non-members, x^3 is too small while the degree bound still passes.
@settings(max_examples=150, deadline=None)
@given(ideals_points_powers())
@example((((1, 1, 0), (1, 0, 1)), (4, 2, 2), 4))
@example((((1, 1, 0), (1, 0, 1)), (3, 5, 5), 4))
@example((((1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 1)), (4, 2, 1, 1, 1), 4))
@example((((1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 1)), (3, 2, 2, 2, 2), 4))
def test_contains_in_power_matches_reference_wide(case):
    gens, m, t = case
    J = normalize(gens, RingContext(NAMES[:len(m)]))
    assert contains_in_power(J, m, t) == monomial_in_power_ref(J, m, t)


def test_power_search_answers_each_question_afresh():
    # one set-up answers a shuffled run of questions, repeats and t = 0
    # included; no answer may depend on the questions asked before it
    rng = random.Random(909)
    for d in (2, 3, 4, 5):
        made = 0
        while made < 6:
            gens = [
                tuple(rng.randint(0, 3) for _ in range(d))
                for _ in range(rng.randint(1, 4))
            ]
            J = normalize([g for g in gens if any(g)], RingContext(NAMES[:d]))
            if not J.is_proper_nonzero():
                continue
            made += 1
            questions = []
            for _ in range(10):
                t = rng.randint(0, 3)
                # a sum of t generators, nudged, or a point anywhere
                m = [sum(col) for col in zip(*rng.choices(J.min_gens, k=t))] or [0] * d
                m = [e + rng.randint(-1, 1) for e in m]
                questions.append((tuple(max(0, e) for e in m), t))
                questions.append((tuple(rng.randint(0, 6) for _ in range(d)), t))
            questions += questions[:6]
            rng.shuffle(questions)
            member = _power_search(J)
            for m, t in questions:
                expected = monomial_in_power_ref(J, m, t)
                assert member(m, t) == expected, (J.min_gens, m, t)
                assert contains_in_power(J, m, t) == expected, (J.min_gens, m, t)


def test_search_tables_are_built_once_per_ideal_and_cleared():
    # a new set-up on the same ideal object reuses the tables, not the memo;
    # an equal but distinct ideal builds its own, since the tables live on
    # the ideal (core.per_ideal) and not in a process-wide memo.  So there
    # is none for clear_caches() to leave behind: it leaves J's tables on J
    build = _search_tables.__wrapped__
    builds = 0

    def profile(frame, event, arg):
        nonlocal builds
        if event == "call" and frame.f_code is build.__code__:
            builds += 1

    def ask(J, m, t):
        sys.setprofile(profile)
        try:
            return _power_search(J)(m, t)
        finally:
            sys.setprofile(None)

    J = ideal2((2, 0), (1, 1), (0, 3))
    for m, t in (((3, 3), 2), ((4, 1), 2), ((3, 3), 2)):
        assert ask(J, m, t) == monomial_in_power_ref(J, m, t)
    assert builds == 1
    twin = ideal2(*J.min_gens)
    assert twin == J and twin is not J
    assert ask(twin, (3, 3), 2) and builds == 2
    assert _search_tables(twin) is _search_tables(twin) is not _search_tables(J)
    assert not hasattr(_search_tables, "cache_info")
    assert [cell.cell_contents for cell in _search_tables.__closure__] == [build]
    clear_caches()
    assert ask(J, (4, 1), 2) == monomial_in_power_ref(J, (4, 1), 2) and builds == 2


def count_search_nodes(member, m, t):
    """Answer of member(m, t) and the number of search calls it made."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if event == "call" and code.co_name == "search" and code.co_filename == core.__file__:
            nodes += 1

    sys.setprofile(profile)
    try:
        answer = member(m, t)
    finally:
        sys.setprofile(None)
    return answer, nodes


def test_power_search_visits_the_described_tree():
    # generators with zero entries make cmax skip coordinates and put
    # c = 0 branches everywhere; the node count pins the degree carried
    # down, which no answer shows, to the tree with sum(rem) at every node
    rng = random.Random(1111)
    for d in (2, 3, 4):
        for _ in range(8):
            gens = [
                tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(d))
                for _ in range(rng.randint(2, 5))
            ]
            J = normalize([g for g in gens if any(g)], RingContext(NAMES[:d]))
            if not J.is_proper_nonzero():
                continue
            for _ in range(6):
                t = rng.randint(0, 4)
                # a sum of t generators, nudged: members and near misses
                m = [sum(col) for col in zip(*rng.choices(J.min_gens, k=t))] or [0] * d
                m = tuple(max(0, e + rng.randint(-2, 1)) for e in m)
                # a fresh set-up per question: its memo starts empty, so
                # the count is that of this question's tree alone
                answer, nodes = count_search_nodes(_power_search(J), m, t)
                assert answer == monomial_in_power_ref(J, m, t), (J.min_gens, m, t)
                assert nodes == power_search_nodes_ref(J, m, t), (J.min_gens, m, t)


def test_contains_in_power_rejects_negative_or_bool_power():
    J = ideal2((1, 0), (0, 1))
    for t in (-1, -3, True, False, 1.0, "2"):
        with pytest.raises(InvalidInput):
            contains_in_power(J, (0, 0), t)
    assert contains_in_power(J, (0, 0), 0)


# --- input caps -------------------------------------------------------------

def test_ring_dimension_cap():
    with pytest.raises(InvalidInput):
        RingContext(tuple(f"v{i}" for i in range(7)))


def test_ring_name_validation():
    with pytest.raises(InvalidInput):
        RingContext(("x", "x"))
    with pytest.raises(InvalidInput):
        RingContext(("2bad",))


# --- value objects ----------------------------------------------------------

def test_value_objects_keep_the_record_contract():
    # every value class is a slotted Record: pickle, copy and deepcopy give
    # an equal object (rebuilt through the checked constructor), a field
    # can be neither set nor deleted, no instance has a __dict__, records
    # of different classes never compare equal, and repr keeps the
    # Name(field=value, ...) text of the former dataclasses
    rng = random.Random(2325)
    I = normalize([tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(4)], R3)
    np_ = compute_np(I)
    values = [
        R3, I, np_.facets[-1], np_, MonomialPrime((0, 2)), b_star(I), a_star(I),
        verify_localization(I, (1,), 2),
    ]
    assert len({type(v) for v in values}) == 8
    for v in values:
        for clone in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(clone) is type(v) and clone == v and hash(clone) == hash(v)
        assert not hasattr(v, "__dict__")
        for name in type(v).__match_args__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
    assert pickle.loads(pickle.dumps(np_)).rows == copy.deepcopy(np_).rows == np_.rows
    assert np_.rows
    for a, b in combinations(values, 2):
        assert a != b and b != a
    # equal field values in two classes still make unequal records
    assert MonomialPrime._trusted(((0, 1),)) != BStarSet._trusted(((0, 1),))

    J = normalize([(2, 0), (0, 3)], R2)
    ring = "RingContext(variable_names=('x', 'y'))"
    ideal = f"MonomialIdeal(ring={ring}, min_gens=((2, 0), (0, 3)))"
    prime = "MonomialPrime(vars=(0, 1))"
    centers = f"frozenset({{{prime}}})"
    facets = [
        f"FacetInequality(normal={a}, offset={b})"
        for a, b in (((0, 1), 0), ((1, 0), 0), ((3, 2), 6))
    ]
    expected = {
        R2: ring,
        J: ideal,
        compute_np(J).facets[-1]: facets[-1],
        compute_np(J): f"NewtonPolyhedron(ring={ring}, facets=({', '.join(facets)}))",
        MonomialPrime((0, 1)): prime,
        b_star(J): f"BStarSet(centers={centers})",
        a_star(J): (
            f"AsymptoticReport(ideal={ideal}, chain=((1, {centers}),), "
            f"b_star=BStarSet(centers={centers}))"
        ),
        verify_localization(J, (1,), 1): (
            f"LocalizationReport(ideal={ideal}, s_vars=(1,), admissible=False, "
            "per_n=((1, False),))"
        ),
    }
    for v, text in expected.items():
        assert repr(v) == text
