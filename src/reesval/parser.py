"""Text front end for rings, monomials, and ideals.

Grammar (whitespace-insensitive, positions reported as 1-based columns):

    ring   := IDENT '[' IDENT (',' IDENT)* ']'     # coefficient token ignored
    ideal  := term (',' term)*
    term   := factor ('*' factor)*
    factor := IDENT ('^' UINT)?
    monomial := '1' | term                         # '1' is the zero vector

Multiplication and powers are always written out ('*' and '^'), never by
juxtaposition, so multi-character variable names stay unambiguous.
Rendering uses the same notation: parse_ideal(render_ideal(J)) round-trips
for every proper nonzero ideal, and parse_monomial(render_monomial(m)) for
every exponent vector m, the zero vector ('1') included.
"""

from __future__ import annotations

import re

from .core import (
    MAX_INPUT_EXPONENT,
    MonomialIdeal,
    RingContext,
    check_vector,
    normalize,
)
from .errors import (
    EmptyIdealError,
    IdealSyntaxError,
    InvalidInput,
    UnknownVariableError,
    ZeroExponentError,
)


# \s is exactly str.isspace() and \w exactly str.isalnum() or "_"; exponent
# digits are ASCII only: str.isdigit() also takes '²', which int() rejects,
# and '２', which int() reads as 2
_WS = re.compile(r"\s*")
_WORD = re.compile(r"\s*(\w+)\s*")
_FACTOR = re.compile(r"\s*(\w+)(?:\s*\^\s*([0-9]+))?\s*")


def _text(text, name: str) -> str:
    if not isinstance(text, str):
        raise InvalidInput(f"{name} must be a str, got {text!r}")
    return text


def _skip(text: str, pos: int) -> int:
    """The position of the first non-whitespace character at or after pos."""
    return _WS.match(text, pos).end()


def _ident(text: str, pos: int, match=_WORD.match):
    """The match of an identifier at pos (whitespace around it included):
    a letter or '_', then letters, digits and '_'."""
    m = match(text, pos)
    if m is None:
        raise IdealSyntaxError("expected an identifier", _skip(text, pos) + 1)
    c = m[1][0]
    if not (c.isalpha() or c == "_"):
        raise IdealSyntaxError("expected an identifier", m.start(1) + 1)
    return m


def _take(text: str, pos: int, ch: str) -> int:
    """The position after the character ch, which must come next."""
    pos = _skip(text, pos)
    if not text.startswith(ch, pos):
        raise IdealSyntaxError(f"expected {ch!r}", pos + 1)
    return pos + 1


def parse_ring(text: str) -> RingContext:
    """Parse "Q[x,y]"-style ring text; the coefficient token is ignored."""
    text = _text(text, "ring text")
    if _skip(text, 0) == len(text):
        raise IdealSyntaxError("ring expression is empty", 1)
    pos = _take(text, _ident(text, 0).end(), "[")  # coefficient token, never used
    m = _ident(text, pos)
    names = [m[1]]
    pos = m.end()
    while text.startswith(",", pos):
        m = _ident(text, pos + 1)
        names.append(m[1])
        pos = m.end()
    pos = _skip(text, _take(text, pos, "]"))
    if pos != len(text):
        raise IdealSyntaxError("trailing input after ring", pos + 1)
    return RingContext(tuple(names))


def _parse_term(text: str, pos: int, ring: RingContext) -> tuple[tuple[int, ...], int]:
    """The exponent vector of the term at pos, and the position after it
    and the whitespace that follows.  Each factor is one match; errors are
    raised in reading order: identifier, variable, exponent, cap."""
    exponents = [0] * ring.dimension
    while True:
        m = _ident(text, pos, _FACTOR.match)
        name = m[1]
        try:
            idx = ring.index_of(name)
        except InvalidInput:
            raise UnknownVariableError(name, m.start(1) + 1) from None
        pos = m.end()
        digits = m[2]
        if digits is None:
            if text.startswith("^", pos):
                raise IdealSyntaxError(
                    "expected an unsigned integer", _skip(text, pos + 1) + 1
                )
            exp = 1
        else:
            exp_pos = m.start(2) + 1
            # int() refuses a string of more than 4300 digits with ValueError
            digits = digits.lstrip("0") or "0"
            if len(digits) > 4300:
                raise IdealSyntaxError("integer has more than 4300 digits", exp_pos)
            exp = int(digits)
            if exp == 0:
                raise ZeroExponentError(exp_pos)
        exponents[idx] += exp
        if exponents[idx] > MAX_INPUT_EXPONENT:
            raise InvalidInput(
                f"col {m.start(1) + 1}: exponent of {name!r} exceeds the input cap "
                f"{MAX_INPUT_EXPONENT}"
            )
        if not text.startswith("*", pos):
            return tuple(exponents), pos
        pos += 1


def _ring_of(ring: RingContext | str) -> RingContext:
    if isinstance(ring, str):
        return parse_ring(ring)
    if not isinstance(ring, RingContext):
        raise InvalidInput(f"ring must be a RingContext or ring text, got {ring!r}")
    return ring


def parse_ideal(text: str, ring: RingContext | str) -> MonomialIdeal:
    """Parse a comma-separated list of monomial terms into a normalized ideal."""
    ring = _ring_of(ring)
    text = _text(text, "ideal text")
    if _skip(text, 0) == len(text):
        raise EmptyIdealError()
    gen, pos = _parse_term(text, 0, ring)
    gens = [gen]
    while text.startswith(",", pos):
        gen, pos = _parse_term(text, pos + 1, ring)
        gens.append(gen)
    if pos != len(text):
        raise IdealSyntaxError("trailing input after ideal", pos + 1)
    return normalize(gens, ring)


def parse_monomial(text: str, ring: RingContext | str) -> tuple[int, ...]:
    """Parse a single monomial term (no commas), or '1' for the zero vector."""
    ring = _ring_of(ring)
    text = _text(text, "monomial text")
    if _skip(text, 0) == len(text):
        raise IdealSyntaxError("monomial expression is empty", 1)
    if text.strip() == "1":
        return (0,) * ring.dimension
    m, pos = _parse_term(text, 0, ring)
    if pos != len(text):
        raise IdealSyntaxError("trailing input after monomial", pos + 1)
    return m


def render_monomial(m: tuple[int, ...], ring: RingContext) -> str:
    """'x^2*y'-style rendering; the zero vector renders as '1'."""
    parts = []
    for name, e in zip(ring.variable_names, check_vector(ring.dimension, m)):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def render_ideal(J: MonomialIdeal) -> str:
    """Comma-separated generators in canonical order; the zero ideal is '0'."""
    if J.is_zero():
        return "0"
    return ", ".join(render_monomial(g, J.ring) for g in J.min_gens)
