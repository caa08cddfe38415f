"""Asymptotic associated primes of the closure filtration, and the
mechanical checks tying them to the Rees valuation centers.

The chain Ass(R / closure(I^n)) increases with n and its terminal value is
exactly the center set B*(I); stabilization is therefore detected against
that target rather than by plateau heuristics (a plateau can be temporary
in principle, the target cannot).  A returned `AsymptoticReport` has
reached B*(I) by construction; failing to reach it raises NotStabilized.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional, Sequence

from .core import (
    MonomialIdeal,
    _power_search,
    check_count,
    check_var_indexes,
    check_vector,
    equals,
    saturate,
)
from .errors import InvalidInput, NotStabilized
from .newton import FacetInequality, compute_np, dilation_cut, integral_closure_power
from .primes import MonomialPrime, associated_primes
from .valuations import BStarSet, b_star

DEFAULT_CHAIN_CAP = 8
DEFAULT_LOCALIZATION_CAP = 4
DEFAULT_ORACLE_POWER_CAP = 12


@dataclass(frozen=True)
class AsymptoticReport:
    """Chain of Ass sets of closure powers up to stabilization."""

    ideal: MonomialIdeal
    chain: tuple[tuple[int, frozenset[MonomialPrime]], ...]
    stable_set: frozenset[MonomialPrime]
    stabilization_index: int
    b_star: BStarSet
    verdict_monotone: bool


@dataclass(frozen=True)
class LocalizationReport:
    """Per-power record of whether saturating the closure changes it."""

    ideal: MonomialIdeal
    s_vars: tuple[int, ...]
    admissible: bool
    per_n: tuple[tuple[int, bool], ...]

    def counter_witness(self) -> Optional[int]:
        for n, ok in self.per_n:
            if not ok:
                return n
        return None

    def holds(self) -> bool:
        """The localization statement, vacuous when S meets a center."""
        return not self.admissible or all(ok for _, ok in self.per_n)


def a_star(I: MonomialIdeal, n_cap: int = DEFAULT_CHAIN_CAP) -> AsymptoticReport:
    """Run Ass(R / closure(I^n)) for n = 1.. until it equals B*(I).

    Raises NotStabilized when the cap is hit first; that signals an
    undersized cap or an implementation bug, never a silent pass.
    """
    check_count(n_cap, "n_cap", 1)
    if not I.is_proper_nonzero():
        raise InvalidInput("asymptotic primes need a proper nonzero ideal")
    target = b_star(I)
    chain: list[tuple[int, frozenset[MonomialPrime]]] = []
    monotone = True
    previous: Optional[frozenset[MonomialPrime]] = None
    for n in range(1, n_cap + 1):
        ass_n = associated_primes(integral_closure_power(I, n))
        chain.append((n, ass_n))
        if previous is not None and not previous <= ass_n:
            monotone = False
        previous = ass_n
        if ass_n == target.centers:
            return AsymptoticReport(
                ideal=I,
                chain=tuple(chain),
                stable_set=ass_n,
                stabilization_index=n,
                b_star=target,
                verdict_monotone=monotone,
            )
    raise NotStabilized(n_cap, chain)


def verify_localization(
    I: MonomialIdeal,
    s_var_indexes: Iterable[int],
    n_cap: int = DEFAULT_LOCALIZATION_CAP,
) -> LocalizationReport:
    """Check that saturating closure(I^n) at the chosen variables fixes it.

    Admissible means the variables avoid every valuation center (so the
    multiplicative set they generate misses all centers).  Inadmissible
    inputs are still processed, observationally: the same checks run, and a
    failing n is reported as a counter-witness instead of an error.
    """
    s_vars = check_var_indexes(I.ring.dimension, s_var_indexes)
    check_count(n_cap, "n_cap", 1)
    centers = b_star(I).centers
    admissible = all(set(s_vars).isdisjoint(c.vars) for c in centers)
    per_n = []
    for n in range(1, n_cap + 1):
        closure_n = integral_closure_power(I, n)
        per_n.append((n, equals(saturate(closure_n, s_vars), closure_n)))
    return LocalizationReport(I, s_vars, admissible, tuple(per_n))


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
    n <= `dilation_cut`, the least (a.m) // b over the positive-offset rows
    (a, b) of the polyhedron (offset-0 facets hold at every m >= 0).  With
    no such row every sample is in every dilation.

    The raw-power route asks fewer questions than the definition.  A
    separating weight (see `_separating_weights`) with w.m < n*b proves
    x^{km} outside I^{kn} for every k, so those dilations are settled
    without a search.  For each k the route tries the other dilations in
    ascending order, skips those already known to be members, and stops at
    the first failure: x^{km} outside I^{kn} is also outside I^{kn''} for
    every n'' > n, since I^{kn''} is inside I^{kn}.  So each n still ends
    up a member exactly when some k <= k_max puts x^{km} in I^{kn}.  The
    facets are only hints for the weights, each checked against the
    generators: a wrong, missing or weakened facet can cost searches but
    never change an answer of this route.  On honest facets the weight cut
    equals the facet route's integer, so the dilations left to search are
    exactly the facet members.  The search is set up once for I
    (`core._power_search`), and each sample is validated once.
    """
    check_count(k_max, "k_max", 1)
    n_values = tuple(check_count(n, "n_values entry", 1) for n in n_values)
    if not n_values:
        raise InvalidInput("n_values must not be empty")
    np_ = compute_np(I)
    weights = _separating_weights(I, np_.facets)
    member = _power_search(I)
    dilations = sorted(set(n_values))
    bad = []
    for m in monomials:
        m = check_vector(I.ring.dimension, m)
        # w.m < n*b exactly when n > w.m // b: no k puts x^{km} in I^{kn}
        cut = min((sum(map(mul, w, m)) // b for w, b in weights), default=dilations[-1])
        open_n = [n for n in dilations if n <= cut]
        members: set[int] = set()
        for k in range(1, k_max + 1):
            km = tuple(k * e for e in m)
            for n in open_n:
                if n in members:
                    continue
                if not member(km, k * n):
                    break
                members.add(n)
            if len(members) == len(open_n):
                break
        top = dilation_cut(np_.rows, m, dilations[-1])
        for n in n_values:
            if (n <= top) != (n in members):
                bad.append((m, n))
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
