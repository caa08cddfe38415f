"""Text front end for rings, monomials, and ideals.

Grammar (whitespace-insensitive, positions reported as 1-based columns):

    ring   := IDENT '[' IDENT (',' IDENT)* ']'     # coefficient token ignored
    ideal  := term (',' term)*
    term   := factor ('*' factor)*
    factor := IDENT ('^' UINT)?

Multiplication and powers are always written out ('*' and '^'), never by
juxtaposition, so multi-character variable names stay unambiguous.
Rendering uses the same notation, and parse(render(J)) round-trips for
every proper nonzero ideal.
"""

from __future__ import annotations

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


class _Scanner:
    def __init__(self, text: str, name: str):
        if not isinstance(text, str):
            raise InvalidInput(f"{name} must be a str, got {text!r}")
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def column(self) -> int:
        return self.pos + 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise IdealSyntaxError(f"expected {ch!r}", self.column())
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def ident(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        c = self.peek()
        if not (c.isalpha() or c == "_"):
            raise IdealSyntaxError("expected an identifier", self.column())
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos], start + 1

    def uint(self) -> tuple[int, int]:
        # ASCII digits only: str.isdigit() also takes '²', which int()
        # rejects, and '２', which int() reads as 2
        self.skip_ws()
        start = self.pos
        if not "0" <= self.peek() <= "9":
            raise IdealSyntaxError("expected an unsigned integer", self.column())
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        # int() refuses a string of more than 4300 digits with ValueError
        digits = self.text[start : self.pos].lstrip("0") or "0"
        if len(digits) > 4300:
            raise IdealSyntaxError("integer has more than 4300 digits", start + 1)
        return int(digits), start + 1


def parse_ring(text: str) -> RingContext:
    """Parse "Q[x,y]"-style ring text; the coefficient token is ignored."""
    s = _Scanner(text, "ring text")
    if s.at_end():
        raise IdealSyntaxError("ring expression is empty", 1)
    s.ident()  # coefficient field token, e.g. Q; never used
    s.take("[")
    names = [s.ident()[0]]
    while s.peek() == ",":
        s.take(",")
        names.append(s.ident()[0])
    s.take("]")
    if not s.at_end():
        raise IdealSyntaxError("trailing input after ring", s.column())
    return RingContext(tuple(names))


def _parse_term(s: _Scanner, ring: RingContext) -> tuple[int, ...]:
    exponents = [0] * ring.dimension
    while True:
        name, pos = s.ident()
        try:
            idx = ring.index_of(name)
        except InvalidInput:
            raise UnknownVariableError(name, pos) from None
        exp = 1
        if s.peek() == "^":
            s.take("^")
            exp, exp_pos = s.uint()
            if exp == 0:
                raise ZeroExponentError(exp_pos)
        exponents[idx] += exp
        if exponents[idx] > MAX_INPUT_EXPONENT:
            raise InvalidInput(
                f"col {pos}: exponent of {name!r} exceeds the input cap "
                f"{MAX_INPUT_EXPONENT}"
            )
        if s.peek() != "*":
            return tuple(exponents)
        s.take("*")


def _ring_of(ring: RingContext | str) -> RingContext:
    if isinstance(ring, str):
        return parse_ring(ring)
    if not isinstance(ring, RingContext):
        raise InvalidInput(f"ring must be a RingContext or ring text, got {ring!r}")
    return ring


def parse_ideal(text: str, ring: RingContext | str) -> MonomialIdeal:
    """Parse a comma-separated list of monomial terms into a normalized ideal."""
    ring = _ring_of(ring)
    s = _Scanner(text, "ideal text")
    if s.at_end():
        raise EmptyIdealError()
    gens = [_parse_term(s, ring)]
    while s.peek() == ",":
        s.take(",")
        gens.append(_parse_term(s, ring))
    if not s.at_end():
        raise IdealSyntaxError("trailing input after ideal", s.column())
    return normalize(gens, ring)


def parse_monomial(text: str, ring: RingContext | str) -> tuple[int, ...]:
    """Parse a single monomial term (no commas)."""
    ring = _ring_of(ring)
    s = _Scanner(text, "monomial text")
    if s.at_end():
        raise IdealSyntaxError("monomial expression is empty", 1)
    m = _parse_term(s, ring)
    if not s.at_end():
        raise IdealSyntaxError("trailing input after monomial", s.column())
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
