"""Asymptotic associated primes of the closure filtration, and the
mechanical checks tying them to the Rees valuation centers.

The chain Ass(R / closure(I^n)) increases with n and its terminal value is
exactly the center set B*(I); stabilization is therefore detected against
that target rather than by plateau heuristics (a plateau can be temporary
in principle, the target cannot).  A returned `AsymptoticReport` has
reached B*(I) by construction; failing to reach it raises NotStabilized.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, mul, sub
from typing import Iterable, Optional, Sequence

from . import lanes
from .core import (
    MonomialIdeal,
    Record,
    _power_search,
    check_collection,
    check_count,
    check_var_indexes,
    check_vector,
    equals,
    saturate,
)
from .errors import InvalidInput, NotStabilized
from .newton import (
    FacetInequality,
    _capped_dilation_cuts,
    compute_np,
    integral_closure_power,
)
from .primes import MonomialPrime, associated_primes
from .valuations import BStarSet, b_star

DEFAULT_CHAIN_CAP = 8
DEFAULT_LOCALIZATION_CAP = 4
DEFAULT_ORACLE_POWER_CAP = 12


class AsymptoticReport(Record):
    """Chain of Ass sets of closure powers up to stabilization: `chain`
    holds (n, Ass(R / closure(I^n))) for n = 1 up to the first n whose set
    is B*(I), and the other facts are read off it."""

    __slots__ = __match_args__ = ("ideal", "chain", "b_star")
    ideal: MonomialIdeal
    chain: tuple[tuple[int, frozenset[MonomialPrime]], ...]
    b_star: BStarSet

    @property
    def stable_set(self) -> frozenset[MonomialPrime]:
        return self.chain[-1][1]

    @property
    def stabilization_index(self) -> int:
        return self.chain[-1][0]

    @property
    def verdict_monotone(self) -> bool:
        """No set of the chain loses a prime of the set before it."""
        return all(a <= b for (_, a), (_, b) in zip(self.chain, self.chain[1:]))


class LocalizationReport(Record):
    """Per-power record of whether saturating the closure changes it."""

    __slots__ = __match_args__ = ("ideal", "s_vars", "admissible", "per_n")
    ideal: MonomialIdeal
    s_vars: tuple[int, ...]
    admissible: bool
    per_n: tuple[tuple[int, bool], ...]

    def counter_witness(self) -> Optional[int]:
        return next((n for n, ok in self.per_n if not ok), None)

    def holds(self) -> bool:
        """The localization statement in both directions: saturating at S
        fixes closure(I^n) exactly when S avoids every center, so every
        per-n answer equals `admissible` (README, "Why thm31 is settled at
        every n")."""
        return all(ok == self.admissible for _, ok in self.per_n)


def a_star(I: MonomialIdeal, n_cap: int = DEFAULT_CHAIN_CAP) -> AsymptoticReport:
    """Run Ass(R / closure(I^n)) for n = 1.. until it equals B*(I).

    Raises NotStabilized when the cap is hit first; that signals an
    undersized cap or an implementation bug, never a silent pass.
    """
    check_count(n_cap, "n_cap", 1)
    target = b_star(I)  # rejects unit/zero ideals
    chain: list[tuple[int, frozenset[MonomialPrime]]] = []
    for n in range(1, n_cap + 1):
        ass_n = associated_primes(integral_closure_power(I, n))
        chain.append((n, ass_n))
        if ass_n == target.centers:
            return AsymptoticReport._trusted(I, tuple(chain), target)
    raise NotStabilized(n_cap, chain)


def verify_localization(
    I: MonomialIdeal,
    s_var_indexes: Iterable[int],
    n_cap: int = DEFAULT_LOCALIZATION_CAP,
) -> LocalizationReport:
    """Check whether saturating closure(I^n) at the chosen variables fixes
    it, for n = 1..n_cap.

    Admissible means the variables avoid every valuation center (so the
    multiplicative set they generate misses all centers); it is read off
    the facets, and the per-n answers off the walked closures.  The report
    holds when every answer equals `admissible`: for inadmissible S each
    saturation must move its closure, and the first n where one moves is
    the counter-witness.
    """
    s_vars = check_var_indexes(I.ring.dimension, s_var_indexes)
    check_count(n_cap, "n_cap", 1)
    centers = b_star(I).centers
    admissible = all(set(s_vars).isdisjoint(c.vars) for c in centers)
    per_n = []
    for n in range(1, n_cap + 1):
        closure_n = integral_closure_power(I, n)
        per_n.append((n, equals(saturate(closure_n, s_vars), closure_n)))
    return LocalizationReport._trusted(I, s_vars, admissible, tuple(per_n))


def closure_oracle_discrepancies(
    I: MonomialIdeal,
    monomials: Sequence[tuple[int, ...]],
    n_values: Sequence[int] = (1, 2, 3),
    k_max: int = DEFAULT_ORACLE_POWER_CAP,
) -> list[tuple[tuple[int, ...], int]]:
    """Two-route closure membership on sample monomials.

    For each monomial m and dilation n, facet membership of m in n*NP(I)
    must agree with the raw-power route: some k <= k_max has x^{km} in
    I^{kn}.  Returns the disagreeing (m, n) pairs in the order of
    `monomials` and then `n_values`, empty when the routes agree everywhere.

    The facet route is one integer per sample: m is in n*NP exactly when
    n <= the least (a.m) // b over the positive-offset rows (a, b) of the
    polyhedron (offset-0 facets hold at every m >= 0).  For all samples at
    once, `newton._capped_dilation_cuts` gives that integer capped at the
    largest n asked, on one guard-bit lane per sample.  It checks nothing:
    the samples are checked here once, and the rows are `compute_np`'s.
    With no such row every sample is in every dilation.

    The raw-power route asks fewer questions than the definition.  A
    separating weight (see `_separating_weights`) with w.m < n*b proves
    x^{km} outside I^{kn} for every k, so those dilations are settled
    without a search.  This weight cut is taken here on the same kind of
    lanes, by its own mask loop: a shared helper that cut too low would
    lower both routes alike.  The other (open) dilations of a sample are
    walked from the largest down, and the first member ends the walk:
    success at (k, n) gives success at every n' <= n, since I^{kn} is
    inside I^{kn'}.  At each n the route asks the rungs k = k_max,
    k_max - 1, ..., k_max // 2 + 1 in turn, stopping at the first
    success.  That is the whole k range: success at k gives success at
    every multiple of k (raise the witness to a power), and every
    k <= k_max divides some rung (double it until it passes k_max / 2).

    Membership is also monotone in m: q <= m and x^{kq} in I^{kn} give
    x^{km} = x^{kq} * x^{k(m-q)} in I^{kn}.  So the route keeps, for each
    dilation n, the samples its search proved members at n (their largest
    such n), and a kept member that divides m settles an n of m's walk
    without a search.  At n = 1 the generators of I are kept from the
    start: x^g is in I, the k = 1 witness, so a sample above a generator
    asks no rung at n = 1.  The kept members of one n sit in guard-bit
    lanes (`lanes.any_below` and `lanes.store`, as in `normalize`), one
    int per coordinate with one lane per member, so "some kept q <= m" is
    d big-int steps.  Only search answers and generators are kept, never
    a facet, so the result does not depend on the order of `monomials`;
    the order only sets how many searches are skipped (`sample_box` lists
    a divisor before its multiples).

    So each n still ends up a member exactly when some k <= k_max puts
    x^{km} in I^{kn}, and no question is asked whose answer the generators
    or the earlier answers imply.  The facets are only hints for the
    weights, each checked against the generators: a wrong, missing or
    weakened facet can cost searches but never change an answer of this
    route.  On honest facets the weight cut equals the facet route's
    integer, so the dilations left to search are exactly the facet
    members.  The search is set up once for I (`core._power_search`), and
    the samples are validated once.
    """
    check_count(k_max, "k_max", 1)
    n_values = tuple(
        check_count(n, "n_values entry", 1) for n in check_collection(n_values, "n_values")
    )
    if not n_values:
        raise InvalidInput("n_values must not be empty")
    d = I.ring.dimension
    samples = [check_vector(d, m) for m in check_collection(monomials, "monomials")]
    np_ = compute_np(I)
    member = _power_search(I)
    dilations = sorted(set(n_values))
    cap = dilations[-1]
    # the weight cut, min(cap, w.m // b) over the weights (w, b): one
    # guard-bit lane per sample, as in `_capped_dilation_cuts` (own mask
    # loop, see above); w >= 0 and b >= 1, and sum(w) >= 1, so the peak
    # covers the sample entries, every w.m and every n*b.  With no weight
    # every guard survives every n, and each cut is cap
    sample_columns = list(zip(*samples))
    peak = max(map(max, sample_columns), default=0)
    weights = _separating_weights(I, np_.facets)
    widest = max((max(sum(w) * peak, cap * b) for w, b in weights), default=cap)
    lane_width = max(64, lanes.width(widest))
    lane_guard = lanes.guards(len(samples), lane_width)
    lane_ones = lane_guard >> (lane_width - 1)
    packed = [lanes.pack(column, lane_width) for column in sample_columns]
    xs = [sum(map(mul, packed, w)) | lane_guard for w, _ in weights]
    steps = [b * lane_ones for _, b in weights]
    total = 0
    for _ in range(cap):
        xs = list(map(sub, xs, steps))
        mask = reduce(and_, xs, lane_guard)
        if not mask:
            break
        total += mask >> (lane_width - 1)
    cuts = lanes.unpack(total, len(samples), lane_width)
    tops = _capped_dilation_cuts(np_.rows, samples, cap)
    # opens[cut]: the open dilations of a sample with that weight cut,
    # largest first, for the cuts taken only, since cap may lie far above
    # every sample's cut; rungs: k_max down to the top half's least k
    opens = {cut: [n for n in reversed(dilations) if n <= cut] for cut in set(cuts)}
    rungs = range(k_max, k_max // 2, -1)
    # kept[n]: the members kept at n, as a `lanes` store; kept[1] starts
    # with the generators (k = 1: x^g is in I), so the width covers them
    width = lanes.width(max(peak, *I.max_exponents()))
    empty = ([0] * d, 0)
    kept: dict[int, tuple[list[int], int]] = {}
    if dilations[0] == 1:
        kept[1] = reduce(lambda store, g: lanes.store(*store, g, width), I.min_gens, empty)
    bad = []
    for m, cut, top in zip(samples, cuts, tops):
        best = 0  # the largest member dilation
        for n in opens[cut]:
            columns, guard = kept.get(n, empty)
            if lanes.any_below(columns, guard, m, width):
                best = n
                break
            if any(member(tuple(k * e for e in m), k * n) for k in rungs):
                best = n
                kept[n] = lanes.store(columns, guard, m, width)
                break
        if top != best:  # else no n can tell them apart
            bad += [(m, n) for n in n_values if (n <= top) != (n <= best)]
    return bad


def _separating_weights(
    I: MonomialIdeal, facets: Iterable[FacetInequality]
) -> list[tuple[tuple[int, ...], int]]:
    """The facet normals that certify non-membership in powers of I.

    A weight w >= 0 with b = min w.g over the generators g of I proves
    x^{km} outside I^{kn} for every k whenever w.m < n*b: a member has
    km >= the sum of kn generators, so k*w.m >= kn*b.  The normals are
    only candidates: the offsets are never read, b comes from the
    generators, and a weight with a non-int or negative entry, or with
    b = 0 (it certifies nothing), is dropped.  Returns the (w, b) pairs.
    """
    weights = []
    for f in facets:
        w = f.normal
        if all(type(a) is int and a >= 0 for a in w):
            b = min(sum(map(mul, w, g)) for g in I.min_gens)
            if b > 0:
                weights.append((w, b))
    return weights
