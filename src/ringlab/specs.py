"""Ring construction syntax: the RingSpec AST, its text grammar, and printer.

Grammar accepted by :func:`parse_ring_spec`::

    spec := 'Z/' INT
          | 'GF(' INT ')[' VAR ']/(' poly ')'
          | 'product(' spec (',' spec)+ ')'
          | 'quotient(' spec ';' INT (',' INT)* ')'
          | 'localize(' spec ';' INT (',' INT)* ')'
          | 'table:' PATH

Generators for quotient/localize are element indices of the inner ring
(for Z/n these coincide with residues).  Every spec round-trips through
:func:`print_ring_spec`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Zmod:
    n: int


@dataclass(frozen=True)
class PolyQuot:
    """GF(p)[x]/(f) with f monic; coeffs little-endian including leading 1."""

    p: int
    coeffs: tuple[int, ...]
    var: str = "x"


@dataclass(frozen=True)
class Product:
    factors: tuple["RingSpec", ...]


@dataclass(frozen=True)
class Quotient:
    inner: "RingSpec"
    gens: tuple[int, ...]


@dataclass(frozen=True)
class LocalizeAt:
    inner: "RingSpec"
    gens: tuple[int, ...]


@dataclass(frozen=True)
class TableSpec:
    path: str


RingSpec = Zmod | PolyQuot | Product | Quotient | LocalizeAt | TableSpec


def print_univariate(coeffs: tuple[int, ...], var: str) -> str:
    """Render a little-endian coefficient vector as `x^2 - 2*x + 1` text."""
    text = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        mono = var if k == 1 else f"{var}^{k}"
        text += str(abs(c)) if k == 0 else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
    return text or "0"


def print_ring_spec(spec: RingSpec) -> str:
    if isinstance(spec, Zmod):
        return f"Z/{spec.n}"
    if isinstance(spec, PolyQuot):
        return f"GF({spec.p})[{spec.var}]/({print_univariate(spec.coeffs, spec.var)})"
    if isinstance(spec, Product):
        return "product(" + ", ".join(print_ring_spec(f) for f in spec.factors) + ")"
    if isinstance(spec, Quotient):
        return f"quotient({print_ring_spec(spec.inner)}; " + ", ".join(map(str, spec.gens)) + ")"
    if isinstance(spec, LocalizeAt):
        return f"localize({print_ring_spec(spec.inner)}; " + ", ".join(map(str, spec.gens)) + ")"
    if isinstance(spec, TableSpec):
        return f"table:{spec.path}"
    raise TypeError(f"not a RingSpec: {spec!r}")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def match(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        m = re.match(r"\d+", self.text[self.pos :])
        if not m:
            raise ParseError("expected an integer", self.pos)
        self.pos += m.end()
        return int(m.group())

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_univariate(sc: _Scanner, var: str) -> tuple[int, ...]:
    """Parse `c*x^k + ...` into a little-endian coefficient vector.

    Coefficients are collected as written; modular reduction and monicity
    are the builder's concern.
    """
    coeffs: dict[int, int] = {}
    sign = 1
    if sc.match("-"):
        sign = -1
    elif sc.match("+"):
        pass
    while True:
        c, k = _parse_term(sc, var)
        coeffs[k] = coeffs.get(k, 0) + sign * c
        if sc.match("+"):
            sign = 1
        elif sc.match("-"):
            sign = -1
        else:
            break
    deg = max(coeffs) if coeffs else 0
    return tuple(coeffs.get(i, 0) for i in range(deg + 1))


def _parse_term(sc: _Scanner, var: str) -> tuple[int, int]:
    coeff = 1
    power = 0
    saw_factor = False
    while True:
        ch = sc.peek()
        if ch.isdigit():
            coeff *= sc.integer()
            saw_factor = True
        elif ch == var:
            sc.pos += 1
            if sc.match("^"):
                power += sc.integer()
            else:
                power += 1
            saw_factor = True
        elif ch.isalpha():
            raise ParseError(f"unexpected variable {ch!r}, modulus must use {var!r}", sc.pos)
        else:
            raise ParseError("expected a term", sc.pos)
        if not sc.match("*"):
            break
    if not saw_factor:
        raise ParseError("expected a term", sc.pos)
    return coeff, power


def _parse_spec(sc: _Scanner) -> RingSpec:
    sc.skip_ws()
    if sc.match("Z/"):
        return Zmod(sc.integer())
    if sc.match("GF("):
        p = sc.integer()
        sc.expect(")")
        sc.expect("[")
        sc.skip_ws()
        if sc.pos >= len(sc.text) or not sc.text[sc.pos].isalpha():
            raise ParseError("expected a variable name", sc.pos)
        var = sc.text[sc.pos]
        sc.pos += 1
        sc.expect("]")
        sc.expect("/")
        sc.expect("(")
        coeffs = _parse_univariate(sc, var)
        sc.expect(")")
        return PolyQuot(p, coeffs, var)
    if sc.match("product("):
        factors = [_parse_spec(sc)]
        while sc.match(","):
            factors.append(_parse_spec(sc))
        sc.expect(")")
        if len(factors) < 2:
            raise ParseError("product needs at least two factors", sc.pos)
        return Product(tuple(factors))
    if sc.match("quotient("):
        inner = _parse_spec(sc)
        sc.expect(";")
        gens = _parse_gens(sc)
        sc.expect(")")
        return Quotient(inner, gens)
    if sc.match("localize("):
        inner = _parse_spec(sc)
        sc.expect(";")
        gens = _parse_gens(sc)
        sc.expect(")")
        return LocalizeAt(inner, gens)
    if sc.match("table:"):
        m = re.match(r"[^,;)\s]+", sc.text[sc.pos :])
        if not m:
            raise ParseError("expected a file path after table:", sc.pos)
        sc.pos += m.end()
        return TableSpec(m.group())
    raise ParseError("expected a ring spec", sc.pos)


def _parse_gens(sc: _Scanner) -> tuple[int, ...]:
    gens = [sc.integer()]
    while sc.match(","):
        gens.append(sc.integer())
    return tuple(gens)


def parse_ring_spec(text: str) -> RingSpec:
    """Parse the ring-construction DSL; raises ParseError with position."""
    sc = _Scanner(text)
    spec = _parse_spec(sc)
    if not sc.at_end():
        raise ParseError("trailing input after spec", sc.pos)
    return spec
