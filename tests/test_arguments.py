"""Every count and collection argument is checked one way.

A count is a plain int at or above the entry point's least value; bool is
an int subclass but no count.  A collection (variable indexes or names, an
exponent vector, a list of samples or dilations) is never a bare value: not
an int, not None, not a str, bytes or bytearray split into characters or
byte values.  A ring is a RingContext or ring text.  Anything else raises
InvalidInput naming the argument, never a TypeError, a silent coercion or
a vacuous pass.
"""

import pytest

from reesval import (
    FacetInequality,
    InvalidInput,
    MonomialIdeal,
    MonomialPrime,
    RingContext,
    a_star,
    associated_primes_bruteforce,
    closure_oracle_discrepancies,
    compute_np,
    contains_in_power,
    divides,
    ideal_power,
    integral_closure_power,
    normalize,
    np_contains,
    parse_ideal,
    parse_monomial,
    render_monomial,
    samuel_order,
    saturate,
    vbar,
    verify_localization,
)
from reesval.cli import run_corpus
from reesval.core import check_vector
from reesval.sampling import sample_box

R2 = RingContext(("x", "y"))
I = normalize([(2, 0), (1, 1)], R2)

# the counts are checked before the corpus file is opened, so none is needed
MISSING_CORPUS = "no-such-corpus.jsonl"


def oracle(k_max=12, n=1):
    return closure_oracle_discrepancies(I, [(1, 1)], (1, n), k_max)


# entry point -> (name in the message, least accepted value, call)
ARGUMENTS = {
    "ideal_power": ("n", 0, lambda v: ideal_power(I, v)),
    "contains_in_power": ("t", 0, lambda v: contains_in_power(I, (2, 2), v)),
    "integral_closure_power": ("n", 1, lambda v: integral_closure_power(I, v)),
    "samuel_order": ("t_max", 1, lambda v: samuel_order(I, (2, 2), v)),
    "a_star": ("n_cap", 1, lambda v: a_star(I, v)),
    "verify_localization.n_cap": ("n_cap", 1, lambda v: verify_localization(I, (1,), v)),
    "verify_localization.index": ("variable index", 0, lambda v: verify_localization(I, [v])),
    "saturate": ("variable index", 0, lambda v: saturate(I, [v])),
    "closure_oracle.k_max": ("k_max", 1, lambda v: oracle(k_max=v)),
    "closure_oracle.n_values": ("n_values", 1, lambda v: oracle(n=v)),
    "run_corpus.n_cap": ("n_cap", 1, lambda v: run_corpus(MISSING_CORPUS, n_cap=v)),
    "run_corpus.jobs": ("jobs", 1, lambda v: run_corpus(MISSING_CORPUS, jobs=v)),
    "associated_primes_bruteforce": ("box_bound", 1, lambda v: associated_primes_bruteforce(I, v)),
    "sample_box": ("cap", 0, lambda v: sample_box((3, 3), v, "k")),
    "sample_box.bound": ("bound", 0, lambda v: sample_box((3, v), 5, "k")),
    "FacetInequality.offset": ("offset", 0, lambda v: FacetInequality((1, 1), v)),
    "MonomialPrime": ("variable index", 0, lambda v: MonomialPrime((v,))),
}


@pytest.mark.parametrize("entry", sorted(ARGUMENTS))
def test_count_arguments_are_plain_ints_at_least_least(entry):
    name, least, call = ARGUMENTS[entry]
    for bad in (True, 1.5, "2", least - 1):
        with pytest.raises(InvalidInput, match=rf"^{name}\b"):
            call(bad)
    call(least)  # the bound is the intended one


# entry point -> (name in the message, call taking a collection, a collection
# it accepts, further values it rejects)
COLLECTIONS = {
    "saturate": ("variable indexes", lambda v: saturate(I, v), (1,), ()),
    "verify_localization": ("variable indexes", lambda v: verify_localization(I, v), (1,), ()),
    "MonomialPrime": ("variable indexes", MonomialPrime, (1,), ()),
    "RingContext": ("variable names", RingContext, ("x", "y"), ((1,), ("x", None), ("x", ""))),
    "vbar": ("vector", lambda v: vbar(I, v), (1, 1), ()),
    "render_monomial": ("vector", lambda v: render_monomial(v, R2), (1, 2), ((1, 2, 3),)),
    "closure_oracle.monomials": (
        "monomials", lambda v: closure_oracle_discrepancies(I, v), [(1, 1)], ()
    ),
    # a bad value v here makes the samples the pair (v, v): v = 1 is (1, 1)
    "closure_oracle.sample": (
        "vector", lambda v: closure_oracle_discrepancies(I, (v, v)), (1, 1), ()
    ),
    "closure_oracle.n_values": (
        "n_values", lambda v: closure_oracle_discrepancies(I, [(1, 1)], v), (1, 2), ()
    ),
    "check_vector": ("vector", lambda v: check_vector(2, v), (1, 2), ()),
    "MonomialIdeal": ("generators", lambda v: MonomialIdeal(R2, v), ((1, 1),), ()),
    "normalize": ("generators", lambda v: normalize(v, R2), [(1, 1), (2, 0)], ()),
    "FacetInequality": ("normal", lambda v: FacetInequality(v, 1), (1, 1), ()),
    "np_contains": ("point", lambda v: np_contains(compute_np(I), v), (1, 1), ()),
    "sample_box": ("bounds", lambda v: sample_box(v, 3, "k"), (3, 3), ()),
}


@pytest.mark.parametrize("entry", sorted(COLLECTIONS))
def test_index_collections_reject_a_bare_value(entry):
    name, call, good, further = COLLECTIONS[entry]
    for bad in (1, True, 1.5, None, "xy", b"\x01\x02", bytearray(b"\x01\x02")) + further:
        with pytest.raises(InvalidInput, match=rf"^{name}\b"):
            call(bad)
    call(good)  # the collection it stands for is accepted


@pytest.mark.parametrize("parse", [parse_ideal, parse_monomial])
def test_ring_and_text_arguments_of_the_parsers(parse):
    # a ring is a RingContext or ring text; the expression is a str
    for bad in (5, True, None, ("x", "y"), b"Q[x,y]"):
        with pytest.raises(InvalidInput, match=r"^ring\b"):
            parse("x", bad)
        with pytest.raises(InvalidInput, match=r"^(ideal|monomial) text\b"):
            parse(bad, R2)
    assert parse("x", R2) == parse("x", "Q[x,y]")


def test_vector_lengths_and_entries_are_checked_not_truncated():
    # zip stops at the shorter vector, so a length mismatch once passed
    # silently
    for a, m in (((1, 2), (1,)), ((1,), (1, 0)), ((), (0,))):
        with pytest.raises(InvalidInput, match=r"^vector\b"):
            divides(a, m)
    assert divides((1, 0), (1, 2)) and not divides((1, 3), (1, 2))
