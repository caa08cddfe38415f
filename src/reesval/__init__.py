"""Exact computations for monomial ideals: Newton polyhedra, Rees
valuations and their centers, integral closures of powers, the asymptotic
order function, and the stabilized associated primes of the closure
filtration, plus mechanical verification of the center/associated-prime
identity and its localization consequence."""

from .core import (
    MAX_DIMENSION,
    MAX_INPUT_EXPONENT,
    MonomialIdeal,
    RingContext,
    colon,
    contains_in_power,
    contains_monomial,
    divides,
    equals,
    ideal_power,
    ideal_product,
    normalize,
    saturate,
    unit_ideal,
    zero_ideal,
)
from .errors import (
    EmptyIdealError,
    IdealSyntaxError,
    InvalidInput,
    NotStabilized,
    ParseError,
    UnknownVariableError,
    ZeroExponentError,
)
from .newton import (
    FacetInequality,
    NewtonPolyhedron,
    compute_np,
    integral_closure_power,
    np_contains,
    samuel_order,
    vbar,
)
from .parser import parse_ideal, parse_monomial, parse_ring, render_ideal, render_monomial
from .primes import (
    IrreducibleComponent,
    MonomialPrime,
    associated_primes,
    associated_primes_bruteforce,
    irreducible_decomposition,
    minimal_primes,
)
from .valuations import BStarSet, b_star, center, rees_valuations, value
from .verify import (
    AsymptoticReport,
    LocalizationReport,
    a_star,
    closure_oracle_discrepancies,
    verify_localization,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop every memoized result: the Newton polyhedra and the closures of
    powers (used by timing-sensitive harness runs)."""
    from . import newton

    newton.compute_np.cache_clear()
    newton.integral_closure_power.cache_clear()
