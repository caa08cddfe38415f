"""Exact arithmetic on monomial ideals.

A monomial is represented by its exponent vector, a tuple of non-negative
ints whose length equals the ring dimension.  A monomial ideal is stored as
the antichain of its minimal generators, sorted by total degree and then
lexicographically descending, so equal ideals are equal values and every
serialization is deterministic.

The coefficient field never appears anywhere: for monomial ideals, nothing
computed in this package depends on it.

All values are immutable and all operations are pure functions, so results
can be shared across workers and cached freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterable, Sequence

from .errors import InvalidInput

# Desk-scale guards: box and hull enumerations are exponential in the
# dimension, so oversized inputs are rejected instead of degrading silently.
MAX_DIMENSION = 6
MAX_INPUT_EXPONENT = 12

ExponentVector = tuple  # tuple[int, ...] of length ring.dimension


@dataclass(frozen=True)
class RingContext:
    """Ambient polynomial ring, identified by its ordered variable names."""

    variable_names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.variable_names)
        object.__setattr__(self, "variable_names", names)
        if not 1 <= len(names) <= MAX_DIMENSION:
            raise InvalidInput(
                f"ring needs between 1 and {MAX_DIMENSION} variables, got {len(names)}"
            )
        if len(set(names)) != len(names):
            raise InvalidInput("variable names must be distinct")
        for name in names:
            ok = name and (name[0].isalpha() or name[0] == "_")
            ok = ok and all(c.isalnum() or c == "_" for c in name)
            if not ok:
                raise InvalidInput(f"invalid variable name {name!r}")

    @property
    def dimension(self) -> int:
        return len(self.variable_names)

    def index_of(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise InvalidInput(f"unknown variable {name!r}") from None


def monomial_key(m: Sequence[int]):
    """Canonical generator order: total degree ascending, then lex descending."""
    return (sum(m), tuple(-e for e in m))


def divides(a: Sequence[int], m: Sequence[int]) -> bool:
    """True when x^a divides x^m, i.e. a <= m componentwise."""
    return all(map(le, a, m))


@dataclass(frozen=True)
class MonomialIdeal:
    """Ring plus the canonical antichain of minimal generators.

    The empty generator tuple encodes the zero ideal; the single all-zero
    vector encodes the unit ideal.  Build instances through `normalize`,
    which canonicalizes arbitrary generating sets.
    """

    ring: RingContext
    min_gens: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        gens = tuple(check_vector(self.ring.dimension, g) for g in self.min_gens)
        object.__setattr__(self, "min_gens", gens)

    def is_zero(self) -> bool:
        return not self.min_gens

    def is_unit(self) -> bool:
        return len(self.min_gens) == 1 and not any(self.min_gens[0])

    def is_proper_nonzero(self) -> bool:
        return bool(self.min_gens) and not self.is_unit()

    def max_exponents(self) -> tuple[int, ...]:
        """Componentwise max over the generators (the generator bounding box)."""
        if not self.min_gens:
            return (0,) * self.ring.dimension
        return tuple(
            max(g[i] for g in self.min_gens) for i in range(self.ring.dimension)
        )


def zero_ideal(ring: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ring, ())


def unit_ideal(ring: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ring, ((0,) * ring.dimension,))


def check_vector(d: int, m: Iterable[int]) -> tuple[int, ...]:
    """Validate an exponent vector of length d; returns it as a tuple."""
    m = tuple(m)
    if len(m) != d:
        raise InvalidInput(f"vector {m} has length {len(m)}, expected {d}")
    # bool is an int subclass, but True is no exponent
    if any(type(e) is not int or e < 0 for e in m):
        raise InvalidInput(f"vector {m} needs non-negative integer entries")
    return m


def _same_ring(J: MonomialIdeal, K: MonomialIdeal) -> None:
    if J.ring != K.ring:
        raise InvalidInput("ideals live in different rings")


def normalize(gens: Iterable[Sequence[int]], ring: RingContext) -> MonomialIdeal:
    """Minimal generators of the ideal generated by `gens`, canonically sorted.

    Keeps the componentwise-minimal vectors (an antichain) and is idempotent.
    The empty input yields the zero ideal; a zero vector yields the unit ideal.

    Divisibility is one integer subtraction per pair.  Each vector is packed
    into fields of w = max_exponent.bit_length() + 1 bits, so every entry
    fits below its field's top bit, and G has exactly those top (guard) bits
    set.  In (pack(g) | G) - pack(h) every field holds 2^(w-1) + g_i - h_i,
    which lies in [1, 2^w - 1]: no borrow crosses a field, and the guard bit
    survives iff h_i <= g_i.  So h divides g iff the result has all of G set.
    """
    seen = {check_vector(ring.dimension, g) for g in gens}
    if not seen:
        return MonomialIdeal(ring, ())
    w = max(map(max, seen)).bit_length() + 1
    guard = 0
    for _ in range(ring.dimension):
        guard = (guard << w) | (1 << (w - 1))
    mins: list[tuple[int, ...]] = []
    packed: list[int] = []
    for g in sorted(seen, key=monomial_key):
        x = 0
        for e in g:
            x = (x << w) | e
        # accepted vectors have strictly smaller degree or are incomparable,
        # so a single divisibility scan against them suffices
        x |= guard
        for p in packed:
            if (x - p) & guard == guard:
                break
        else:
            mins.append(g)
            packed.append(x ^ guard)
    return MonomialIdeal(ring, tuple(mins))


def contains_monomial(J: MonomialIdeal, m: Iterable[int]) -> bool:
    """True iff some minimal generator divides x^m."""
    m = check_vector(J.ring.dimension, m)
    return any(divides(g, m) for g in J.min_gens)


def contains_ideal(J: MonomialIdeal, K: MonomialIdeal) -> bool:
    """J contains K, i.e. every generator of K is a member of J."""
    _same_ring(J, K)
    return all(contains_monomial(J, g) for g in K.min_gens)


def equals(J: MonomialIdeal, K: MonomialIdeal) -> bool:
    """Set equality of canonical generators (same ring required)."""
    _same_ring(J, K)
    return J.min_gens == K.min_gens


def ideal_sum(J: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    _same_ring(J, K)
    return normalize(J.min_gens + K.min_gens, J.ring)


def ideal_product(J: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    _same_ring(J, K)
    return normalize(
        (tuple(a + b for a, b in zip(g, h)) for g in J.min_gens for h in K.min_gens),
        J.ring,
    )


def ideal_power(J: MonomialIdeal, n: int) -> MonomialIdeal:
    """J^n, normalized at every step.  n = 0 yields the unit ideal."""
    if type(n) is not int or n < 0:
        raise InvalidInput("power must be a non-negative integer")
    if n == 0:
        return unit_ideal(J.ring)
    power = J
    for _ in range(n - 1):
        power = ideal_product(power, J)
    return power


def ideal_intersection(J: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise componentwise max (lcm) of generators."""
    _same_ring(J, K)
    return normalize(
        (tuple(max(a, b) for a, b in zip(g, h)) for g in J.min_gens for h in K.min_gens),
        J.ring,
    )


def colon(J: MonomialIdeal, m: Iterable[int]) -> MonomialIdeal:
    """(J : x^m), generated by the truncated differences g - m."""
    m = check_vector(J.ring.dimension, m)
    return normalize(
        (tuple(max(e - c, 0) for e, c in zip(g, m)) for g in J.min_gens), J.ring
    )


def saturate(J: MonomialIdeal, var_indexes: Iterable[int]) -> MonomialIdeal:
    """(J : s^infinity) for s the product of the named variables.

    Equals the contraction of the extension of J to the localization
    inverting those variables; for monomial ideals that is just zeroing out
    the chosen coordinates of every generator.  Indexes are 0-based.
    """
    idxs = sorted(set(var_indexes))
    if not idxs:
        raise InvalidInput("saturation needs at least one variable")
    if idxs[0] < 0 or idxs[-1] >= J.ring.dimension:
        raise InvalidInput("variable index out of range")
    drop = set(idxs)
    return normalize(
        (tuple(0 if i in drop else e for i, e in enumerate(g)) for g in J.min_gens),
        J.ring,
    )


def contains_in_power(J: MonomialIdeal, m: Iterable[int], t: int) -> bool:
    """Membership of x^m in J^t, decided without materializing J^t.

    Searches for t generators (with repetition) whose exponent sum divides m.
    Generators are taken in a fixed order, each with a multiplicity from
    its largest feasible value down.  A node with k generators still to
    pick from gens[i:] and remainder rem is pruned when the k cheapest
    picks already overshoot: k * (least degree in gens[i:]) > deg(rem), or
    k * (least j-th exponent in gens[i:]) > rem_j for some coordinate j.
    Both bounds read the generators only; like the rest of the search they
    never consult any polyhedral data, so the result can serve as the
    independent side of closure cross-checks.  t = 0 gives True.

    The search and its set-up (generator order, suffix minima) live in
    `_power_search`, which callers asking many questions of one ideal build
    once.
    """
    m = check_vector(J.ring.dimension, m)
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise InvalidInput("power must be a non-negative integer")
    if t == 0:
        return True
    if J.is_zero():
        return False
    if J.is_unit():
        return True
    return _power_search(J)(m, t)


def _power_search(J: MonomialIdeal):
    """The raw-power search of `contains_in_power`, set up once for J.

    Returns member(m, t), true iff x^m is in J^t, for a nonzero J, an
    already validated m and an int t >= 0.  Each member call keeps its own
    memo, so no answer depends on the questions asked before it.
    """
    gens = sorted(J.min_gens, key=lambda g: -sum(g))
    n_gens = len(gens)
    min_deg_from = [sum(gens[-1])] * n_gens
    min_exp_from = [gens[-1]] * n_gens
    for i in range(n_gens - 2, -1, -1):
        min_deg_from[i] = min(sum(gens[i]), min_deg_from[i + 1])
        min_exp_from[i] = tuple(map(min, gens[i], min_exp_from[i + 1]))

    def member(m: tuple[int, ...], t: int) -> bool:
        memo: dict[tuple[int, tuple[int, ...], int], bool] = {}

        def search(i: int, rem: tuple[int, ...], k: int) -> bool:
            if k == 0:
                return True
            if i == n_gens or min_deg_from[i] * k > sum(rem):
                return False
            if any(k * e > r for e, r in zip(min_exp_from[i], rem)):
                return False
            key = (i, rem, k)
            cached = memo.get(key)
            if cached is not None:
                return cached
            g = gens[i]
            cmax = k
            for c_rem, c_g in zip(rem, g):
                if c_g:
                    cmax = min(cmax, c_rem // c_g)
            result = False
            for c in range(cmax, -1, -1):
                nxt = tuple(r - c * e for r, e in zip(rem, g))
                if search(i + 1, nxt, k - c):
                    result = True
                    break
            memo[key] = result
            return result

        return search(0, m, t)

    return member
