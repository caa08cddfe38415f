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

from collections.abc import Iterator
from functools import lru_cache
from operator import attrgetter, le, neg
from typing import Iterable, Sequence

from . import lanes
from .errors import InvalidInput

# Desk-scale guards: box and hull enumerations are exponential in the
# dimension, so oversized inputs are rejected instead of degrading silently.
MAX_DIMENSION = 6
MAX_INPUT_EXPONENT = 12


class Record:
    """Base of the package's immutable value objects.

    A subclass names its fields in `__match_args__` and stores them in
    `__slots__`, which may add derived slots.  Built by position or
    keyword, an instance runs `_check`, which validates its fields and may
    replace them with canonical values.  `_trusted(*fields)`, made for
    each subclass when it is defined, builds one from values already known
    to be valid and canonical, without the check.  Equality (same class,
    equal fields), hashing, `repr` and pickling read the fields alone.
    Setting or deleting an attribute raises AttributeError, and pickle and
    copy rebuild through the checked constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # one C call reads every field; each slot's own descriptor writes
        # its field past the raising __setattr__, and the first field is
        # written outside the loop, which a one-field record then skips
        cls._values = attrgetter(*cls.__match_args__)
        first, *rest = (cls.__dict__[name].__set__ for name in cls.__match_args__)

        def _trusted(value, *values):
            obj = object.__new__(cls)
            first(obj, value)
            if values:
                for setter, value in zip(rest, values):
                    setter(obj, value)
            return obj

        cls._trusted = staticmethod(_trusted)

    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__
        args += tuple(kwargs.pop(n) for n in names[len(args):] if n in kwargs) if kwargs else ()
        if kwargs or len(args) != len(names):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
        obj = cls._trusted(*args)
        obj._check()
        return obj

    def _check(self) -> None:
        """Validate, and canonicalize, the fields; nothing by default."""

    def __eq__(self, other):
        same = type(other) is type(self)
        return self._values(self) == other._values(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class RingContext(Record):
    """Ambient polynomial ring, identified by its ordered variable names."""

    __slots__ = __match_args__ = ("variable_names",)
    variable_names: tuple[str, ...]

    def _check(self) -> None:
        names = check_collection(self.variable_names, "variable names")
        object.__setattr__(self, "variable_names", names)
        if not 1 <= len(names) <= MAX_DIMENSION:
            raise InvalidInput(
                f"ring needs between 1 and {MAX_DIMENSION} variables, got {len(names)}"
            )
        for name in names:
            ok = isinstance(name, str) and name and (name[0].isalpha() or name[0] == "_")
            ok = ok and all(c.isalnum() or c == "_" for c in name)
            if not ok:
                raise InvalidInput(f"variable names must be identifiers, got {name!r}")
        if len(set(names)) != len(names):
            raise InvalidInput("variable names must be distinct")

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
    return (sum(m), tuple(map(neg, m)))


def divides(a: Sequence[int], m: Sequence[int]) -> bool:
    """True when x^a divides x^m, i.e. a <= m componentwise.  Vectors of
    different lengths raise InvalidInput."""
    if len(a) != len(m):
        raise InvalidInput(f"vector {tuple(m)} has length {len(m)}, expected {len(a)}")
    return all(map(le, a, m))


class MonomialIdeal(Record):
    """Ring plus the canonical antichain of minimal generators.

    The empty generator tuple encodes the zero ideal; the single all-zero
    vector encodes the unit ideal.  The constructor canonicalizes any
    generating set through `normalize`, so MonomialIdeal(R, gens) ==
    normalize(gens, R).  `normalize` and `integral_closure_power` build
    their ideals with `_trusted(ring, gens)`, from a canonical antichain of
    checked exponent vectors.
    """

    __slots__ = __match_args__ = ("ring", "min_gens")
    ring: RingContext
    min_gens: tuple[tuple[int, ...], ...]

    def _check(self) -> None:
        object.__setattr__(self, "min_gens", normalize(self.min_gens, self.ring).min_gens)

    def is_zero(self) -> bool:
        return not self.min_gens

    def is_unit(self) -> bool:
        return len(self.min_gens) == 1 and not any(self.min_gens[0])

    def is_proper_nonzero(self) -> bool:
        return bool(self.min_gens) and not self.is_unit()

    def max_exponents(self) -> tuple[int, ...]:
        """Componentwise max over the generators (the generator bounding box)."""
        return tuple(map(max, zip(*self.min_gens))) or (0,) * self.ring.dimension


def require_proper_nonzero(J: MonomialIdeal) -> None:
    if not J.is_proper_nonzero():
        raise InvalidInput("operation needs a proper nonzero ideal")


def unit_ideal(ring: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ring, ((0,) * ring.dimension,))


def check_collection(value, name: str) -> tuple:
    """The items of a collection argument, as a tuple (a tuple is returned
    as it is).  A bare value (an int, None, or a str, bytes or bytearray,
    which would iterate as characters or byte values) raises InvalidInput
    naming the argument, not TypeError or a silent split."""
    if type(value) is tuple:
        return value
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise InvalidInput(f"{name} must be a collection, got {value!r}")


def check_vector(d: int, m: Iterable[int]) -> tuple[int, ...]:
    """Validate an exponent vector of length d; returns it as a tuple."""
    m = check_collection(m, "vector")
    if len(m) != d:
        raise InvalidInput(f"vector {m} has length {len(m)}, expected {d}")
    for e in m:
        # bool is an int subclass, but True is no exponent
        if type(e) is not int or e < 0:
            raise InvalidInput(f"vector {m} needs non-negative integer entries")
    return m


def check_count(value, name: str, least: int) -> int:
    """Validate a count or index: a plain int >= least, returned unchanged.

    bool is an int subclass, but True is no count.  Anything else raises
    InvalidInput with a message that names the argument."""
    if type(value) is not int or value < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def check_indexes(var_indexes: Iterable[int]) -> tuple[int, ...]:
    """A collection of 0-based variable indexes (see check_collection), each
    checked with check_count, as a tuple in the given order."""
    items = check_collection(var_indexes, "variable indexes")
    return tuple(check_count(i, "variable index", 0) for i in items)


def check_var_indexes(d: int, var_indexes: Iterable[int]) -> tuple[int, ...]:
    """Sorted distinct 0-based variable indexes: at least one, each in [0, d)."""
    idxs = sorted(set(check_indexes(var_indexes)))
    if not idxs:
        raise InvalidInput("at least one variable index is needed")
    if idxs[-1] >= d:
        raise InvalidInput(f"variable index {idxs[-1]} is out of range for {d} variables")
    return tuple(idxs)


def _same_ring(J: MonomialIdeal, K: MonomialIdeal) -> None:
    if J.ring != K.ring:
        raise InvalidInput("ideals live in different rings")


def normalize(gens: Iterable[Sequence[int]], ring: RingContext) -> MonomialIdeal:
    """Minimal generators of the ideal generated by `gens`, canonically sorted.

    Keeps the componentwise-minimal vectors (an antichain) and is idempotent.
    The empty input yields the zero ideal; a zero vector yields the unit ideal.

    In canonical order a divisor comes before its multiples, so a vector is
    kept iff no vector kept before it divides it.  The kept vectors are
    stored in guard-bit lanes (`lanes.any_below` and `lanes.store`), one int
    per coordinate wide enough for the largest exponent, so that test is d
    big-int steps for all of them at once.
    """
    if not isinstance(gens, Iterator):  # an iterator is read once, not copied
        gens = check_collection(gens, "generators")
    seen = {check_vector(ring.dimension, g) for g in gens}
    w = lanes.width(max(map(max, seen), default=0))
    columns, guard = [0] * ring.dimension, 0
    mins: list[tuple[int, ...]] = []
    for g in sorted(seen, key=monomial_key):
        if not lanes.any_below(columns, guard, g, w):
            mins.append(g)
            columns, guard = lanes.store(columns, guard, g, w)
    return MonomialIdeal._trusted(ring, tuple(mins))


def equals(J: MonomialIdeal, K: MonomialIdeal) -> bool:
    """Set equality of canonical generators (same ring required)."""
    _same_ring(J, K)
    return J.min_gens == K.min_gens


def ideal_product(J: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    _same_ring(J, K)
    return normalize(
        (tuple(a + b for a, b in zip(g, h)) for g in J.min_gens for h in K.min_gens),
        J.ring,
    )


def ideal_power(J: MonomialIdeal, n: int) -> MonomialIdeal:
    """J^n, normalized at every step.  n = 0 yields the unit ideal."""
    if check_count(n, "n", 0) == 0:
        return unit_ideal(J.ring)
    power = J
    for _ in range(n - 1):
        power = ideal_product(power, J)
    return power


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
    drop = set(check_var_indexes(J.ring.dimension, var_indexes))
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
    independent side of closure cross-checks.  t = 0 gives True.  A node
    that passes both prunes with k = 1 is a leaf: it scans gens[i:] for
    one generator that divides x^rem.  A node with k >= 2 memoizes its
    answer on (i, rem, k); a k = 1 node takes no memo entry.

    The search lives in `_power_search`.  Its tables (generator order,
    degrees, suffix minima) are built once per ideal by `_search_tables`,
    and its memo once per set-up, which callers asking many questions of
    one ideal make once.
    """
    m = check_vector(J.ring.dimension, m)
    return _power_search(J)(m, check_count(t, "t", 0))


@lru_cache(maxsize=1)
def _search_tables(J: MonomialIdeal):
    """The tables of `_power_search` for J, built once per ideal: the
    generators by degree descending, their degrees, and the suffix minima
    of degree and of each exponent over gens[i:].  Only the last ideal's
    tables are kept, as for `newton.compute_np`: callers ask about one
    ideal at a time."""
    gens = sorted(J.min_gens, key=sum, reverse=True)
    degs = [sum(g) for g in gens]
    min_deg_from = degs[:]
    min_exp_from = gens[:]
    for i in range(len(gens) - 2, -1, -1):
        min_deg_from[i] = min(degs[i], min_deg_from[i + 1])
        min_exp_from[i] = tuple(map(min, gens[i], min_exp_from[i + 1]))
    return tuple(gens), tuple(degs), tuple(min_deg_from), tuple(min_exp_from)


def _power_search(J: MonomialIdeal):
    """The raw-power search of `contains_in_power`, set up once for J.

    Returns member(m, t), true iff x^m is in J^t, for any J, an already
    validated m and an int t >= 0: t = 0 is True at once, the zero ideal
    (no generators) is False for every t >= 1, and the unit ideal's
    zero generator takes all t copies.  The tables come from
    `_search_tables`, and every question asked of one set-up shares one
    memo: an entry (i, rem, k) records whether some product of k
    generators from gens[i:] divides x^rem, a fact about J alone, so no
    answer depends on the questions asked before it.

    A node carries the remainder's degree down as an argument (taking c
    copies of g lowers it by c * deg(g)) instead of summing the remainder,
    and a zero multiplicity passes the remainder on unchanged.  Both bounds
    and cmax are plain loops; the tree, its prunes, its k = 1 scan and the
    memo key (i, rem, k) are those described in `contains_in_power`.
    """
    gens, degs, min_deg_from, min_exp_from = _search_tables(J)
    n_gens = len(gens)
    memo: dict[tuple[int, tuple[int, ...], int], bool] = {}

    def member(m: tuple[int, ...], t: int) -> bool:
        def search(i: int, rem: tuple[int, ...], deg: int, k: int) -> bool:
            if k == 0:
                return True
            if i == n_gens or min_deg_from[i] * k > deg:
                return False
            for e, r in zip(min_exp_from[i], rem):
                if k * e > r:
                    return False
            if k == 1:
                for g in gens[i:]:
                    if all(map(le, g, rem)):
                        return True
                return False
            key = (i, rem, k)
            cached = memo.get(key)
            if cached is not None:
                return cached
            g = gens[i]
            cmax = k
            for r, e in zip(rem, g):
                if e:
                    q = r // e
                    if q < cmax:
                        cmax = q
            dg = degs[i]
            result = False
            for c in range(cmax, 0, -1):
                nxt = tuple(r - c * e for r, e in zip(rem, g))
                if search(i + 1, nxt, deg - c * dg, k - c):
                    result = True
                    break
            else:
                result = search(i + 1, rem, deg, k)
            memo[key] = result
            return result

        return search(0, m, sum(m), t)

    return member
