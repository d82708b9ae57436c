"""Ring construction syntax: the RingSpec AST, its text grammar, and printer.

Grammar accepted by :func:`parse_ring_spec`::

    spec := 'Z/' INT
          | 'GF(' INT ')[' VAR ']/(' poly ')'
          | 'product(' spec (',' spec)+ ')'
          | ('quotient(' | 'localize(') spec ';' INT (',' INT)* ')'
          | 'table:' PATH
    poly := ['+'|'-'] term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := INT | VAR ['^' INT]
    INT := [0-9]+

Generators for quotient/localize are element indices of the inner ring
(for Z/n these coincide with residues).  Specs nest at most MAX_DEPTH
deep: parsing, building and printing each recurse once per level.  Every
spec round-trips through :func:`print_ring_spec`.  The ``poly`` rules are
the one polynomial text format: :func:`parse_terms` reads them for any
variable tuple and :func:`print_terms` writes them, here and for the
Groebner commands.
"""

from __future__ import annotations

import re
import sys
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

# the specs derived from an inner ring by an ideal's generators, by keyword
DERIVED = {Quotient: "quotient", LocalizeAt: "localize"}

# product/quotient/localize levels a parsed spec may nest
MAX_DEPTH = 100


def print_terms(terms, vars: tuple[str, ...]) -> str:
    """Render (exponent tuple, coefficient) pairs, in the order given, as
    `3*x^2*y - z + 1`; zero coefficients are left out and no terms give `0`."""
    text = ""
    for m, c in terms:
        if not c:
            continue
        mono = "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(vars, m) if e])
        a = abs(c)
        term = f"{a}*{mono}" if mono and a != 1 else mono or str(a)
        if text:
            text += (" - " if c < 0 else " + ") + term
        else:
            text = "-" + term if c < 0 else term
    return text or "0"


def print_univariate(coeffs: tuple[int, ...], var: str) -> str:
    """Render a little-endian coefficient vector as `x^2 - 2*x + 1` text."""
    return print_terms([((k,), coeffs[k]) for k in range(len(coeffs) - 1, -1, -1)], (var,))


def print_ring_spec(spec: RingSpec) -> str:
    if isinstance(spec, Zmod):
        return f"Z/{spec.n}"
    if isinstance(spec, PolyQuot):
        return f"GF({spec.p})[{spec.var}]/({print_univariate(spec.coeffs, spec.var)})"
    if isinstance(spec, Product):
        return "product(" + ", ".join(print_ring_spec(f) for f in spec.factors) + ")"
    if type(spec) in DERIVED:
        gens = ", ".join(map(str, spec.gens))
        return f"{DERIVED[type(spec)]}({print_ring_spec(spec.inner)}; {gens})"
    if isinstance(spec, TableSpec):
        return f"table:{spec.path}"
    raise TypeError(f"not a RingSpec: {spec!r}")


_INT = re.compile(r"[0-9]+")
_PATH = re.compile(r"[^,;)\s]+")


class Scanner:
    """Cursor over input text; errors carry the position from its start."""

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
        m = _INT.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an integer", self.pos)
        try:
            value = int(m.group())
        except ValueError:  # more digits than the interpreter converts
            digits, limit = m.end() - m.start(), sys.get_int_max_str_digits()
            raise ParseError(f"integer of {digits} digits exceeds the {limit}-digit limit",
                             self.pos) from None
        self.pos = m.end()
        return value

    def expect_end(self, what: str) -> None:
        self.skip_ws()
        if self.pos < len(self.text):
            raise ParseError(f"trailing input after {what}", self.pos)


def parse_terms(sc: Scanner, vars: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """Read one `poly` over the variable tuple into {exponent tuple: coefficient}.

    Like terms are summed as written, zero sums included; reduction mod p
    and monicity are the caller's concern.
    """
    index = {v: i for i, v in enumerate(vars)}
    terms: dict[tuple[int, ...], int] = {}
    sign = 1 if sc.match("+") or not sc.match("-") else -1
    while sign:
        coeff, expo = sign, [0] * len(vars)
        while True:
            ch = sc.peek()
            if ch.isdigit():
                coeff *= sc.integer()
            elif ch in index:
                sc.pos += 1
                expo[index[ch]] += sc.integer() if sc.match("^") else 1
            elif ch.isalpha():
                raise ParseError(f"unknown variable {ch!r}", sc.pos)
            else:
                raise ParseError("expected a term", sc.pos)
            if not sc.match("*"):
                break
        m = tuple(expo)
        terms[m] = terms.get(m, 0) + coeff
        sign = 1 if sc.match("+") else -1 if sc.match("-") else 0
    return terms


def _parse_univariate(sc: Scanner, var: str) -> tuple[int, ...]:
    """Read a `poly` in one variable into a little-endian coefficient vector."""
    terms = parse_terms(sc, (var,))
    return tuple(terms.get((k,), 0) for k in range(max(terms)[0] + 1))


def _parse_spec(sc: Scanner, depth: int = 0) -> RingSpec:
    """Read one spec found inside depth products, quotients and localizations."""
    sc.skip_ws()
    if depth > MAX_DEPTH:
        raise ParseError(f"ring spec nested more than {MAX_DEPTH} deep", sc.pos)
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
        factors = [_parse_spec(sc, depth + 1)]
        while sc.match(","):
            factors.append(_parse_spec(sc, depth + 1))
        sc.expect(")")
        if len(factors) < 2:
            raise ParseError("product needs at least two factors", sc.pos)
        return Product(tuple(factors))
    for derived, keyword in DERIVED.items():
        if sc.match(keyword + "("):
            inner = _parse_spec(sc, depth + 1)
            sc.expect(";")
            gens = _parse_gens(sc)
            sc.expect(")")
            return derived(inner, gens)
    if sc.match("table:"):
        m = _PATH.match(sc.text, sc.pos)
        if not m:
            raise ParseError("expected a file path after table:", sc.pos)
        sc.pos = m.end()
        return TableSpec(m.group())
    raise ParseError("expected a ring spec", sc.pos)


def _parse_gens(sc: Scanner) -> tuple[int, ...]:
    gens = [sc.integer()]
    while sc.match(","):
        gens.append(sc.integer())
    return tuple(gens)


def parse_ring_spec(text: str) -> RingSpec:
    """Parse the ring-construction DSL; raises ParseError with position."""
    sc = Scanner(text)
    spec = _parse_spec(sc)
    sc.expect_end("spec")
    return spec
