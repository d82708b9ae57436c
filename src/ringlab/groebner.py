"""Sparse multivariate polynomials over GF(p) and Buchberger's algorithm.

Monomials are exponent tuples over a fixed ordered variable list; earlier
variables have higher precedence.  Two orders are provided:

    lex      straight exponent-tuple comparison
    grevlex  total degree first, ties by the last nonzero difference
             being negative

Ideal membership reduces to a zero normal form against a reduced basis;
radical membership adjoins a fresh variable t and asks whether
1 lies in (gens, 1 - t*f).

The polynomial text format, its parser and its printer belong to
:mod:`ringlab.specs`; this module reads and writes it over GF(p).
"""

from __future__ import annotations

import heapq
import re
import string
from dataclasses import dataclass
from typing import Callable

from .errors import ArityMismatch, CharMismatch
from .rings import is_prime
from .specs import Scanner, parse_terms, print_terms

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class MonomialOrder:
    """A named order; key(m) sorts monomials ascending in it."""

    kind: str
    key: Callable[[Monomial], tuple]


LEX = MonomialOrder("lex", lambda m: m)
GREVLEX = MonomialOrder("grevlex", lambda m: (sum(m), tuple(-e for e in reversed(m))))
ORDERS = {order.kind: order for order in (LEX, GREVLEX)}


class PolyFp:
    """Polynomial over GF(p) as a map from exponent tuples to coefficients."""

    __slots__ = ("p", "vars", "terms")

    def __init__(self, p: int, vars: tuple[str, ...], terms: dict[Monomial, int]):
        self.p = p
        self.vars = vars
        clean = {}
        nv = len(vars)
        for m, c in terms.items():
            if len(m) != nv:
                raise ArityMismatch(f"exponent tuple {m} does not fit {nv} variables")
            c %= p
            if c:
                clean[m] = c
        self.terms = clean

    # -- construction helpers

    @classmethod
    def zero(cls, p: int, vars: tuple[str, ...]) -> "PolyFp":
        return cls(p, vars, {})

    @classmethod
    def constant(cls, p: int, vars: tuple[str, ...], c: int) -> "PolyFp":
        return cls(p, vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, p: int, vars: tuple[str, ...], name: str) -> "PolyFp":
        i = vars.index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(p, vars, {expo: 1})

    def _check(self, other: "PolyFp") -> None:
        if self.p != other.p:
            raise CharMismatch(f"GF({self.p}) vs GF({other.p})")
        if self.vars != other.vars:
            raise ArityMismatch(f"{self.vars} vs {other.vars}")

    # -- arithmetic

    def __add__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return PolyFp(self.p, self.vars, terms)

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        return self + -other

    def __neg__(self) -> "PolyFp":
        return PolyFp(self.p, self.vars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return PolyFp(self.p, self.vars, terms)

    def scale(self, c: int) -> "PolyFp":
        return PolyFp(self.p, self.vars, {m: c * co for m, co in self.terms.items()})

    def mul_term(self, c: int, m: Monomial) -> "PolyFp":
        return PolyFp(
            self.p,
            self.vars,
            {tuple(a + b for a, b in zip(m, mm)): c * cc for mm, cc in self.terms.items()},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyFp)
            and self.p == other.p
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.p, self.vars, tuple(sorted(self.terms.items()))))

    # -- order-dependent views

    def leading(self, order: MonomialOrder) -> tuple[Monomial, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order: MonomialOrder) -> "PolyFp":
        if not self.terms:
            return self
        _, c = self.leading(order)
        return self.scale(pow(c, self.p - 2, self.p))

    def text(self, order: MonomialOrder = LEX) -> str:
        """Canonical text form, terms in descending monomial order."""
        ordered = sorted(self.terms, key=order.key, reverse=True)
        return print_terms([(m, self.terms[m]) for m in ordered], self.vars)

    def __repr__(self) -> str:
        return f"PolyFp({self.text()} over GF({self.p}))"

    def evaluate(self, point: dict[str, int]) -> int:
        """Evaluate at a point with coordinates in GF(p)."""
        total = 0
        for m, c in self.terms.items():
            v = c
            for name, e in zip(self.vars, m):
                if e:
                    v = v * pow(point.get(name, 0), e, self.p) % self.p
            total = (total + v) % self.p
        return total


def _divides(m1: Monomial, m2: Monomial) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m1, m2))


def _mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m1, m2))


def normal_form(f: PolyFp, gs: list[PolyFp], order: MonomialOrder) -> PolyFp:
    """Remainder of multivariate division of f by the ordered list gs."""
    for g in gs:
        f._check(g)
    p = f.p
    leads = [(g.leading(order), g) for g in gs if not g.is_zero()]
    remainder: dict[Monomial, int] = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for (lm, lc), g in leads:
            if _divides(lm, m):
                factor = c * pow(lc, p - 2, p) % p
                shift = _mono_div(m, lm)
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = tuple(a + b for a, b in zip(gm, shift))
                    nc = (work.get(mm, 0) - factor * gc) % p
                    if nc:
                        work[mm] = nc
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c % p
    return PolyFp(p, f.vars, remainder)


def s_polynomial(f: PolyFp, g: PolyFp, order: MonomialOrder) -> PolyFp:
    mf, cf = f.leading(order)
    mg, cg = g.leading(order)
    lcm = _mono_lcm(mf, mg)
    p = f.p
    a = f.mul_term(pow(cf, p - 2, p), _mono_div(lcm, mf))
    b = g.mul_term(pow(cg, p - 2, p), _mono_div(lcm, mg))
    return a - b


@dataclass
class GroebnerBasis:
    generators: list[PolyFp]
    order: MonomialOrder


def buchberger(gens: list[PolyFp], order: MonomialOrder = LEX) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    Pairs are processed by minimal lcm total degree (normal selection),
    ties broken by pair index, and pairs with coprime leading monomials
    are discarded; the output is inter-reduced, monic, and sorted by
    leading monomial, so identical inputs give identical bases.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("need at least one nonzero generator")
    for g in basis[1:]:
        basis[0]._check(g)
    basis = [g.monic(order) for g in basis]

    heap: list[tuple[int, int, int]] = []

    def push_pairs(j: int) -> None:
        mj = basis[j].leading(order)[0]
        for i in range(j):
            mi = basis[i].leading(order)[0]
            lcm = _mono_lcm(mi, mj)
            if lcm == tuple(a + b for a, b in zip(mi, mj)):
                continue  # coprime leading monomials reduce to zero
            heapq.heappush(heap, (sum(lcm), i, j))

    for j in range(1, len(basis)):
        push_pairs(j)

    while heap:
        _, i, j = heapq.heappop(heap)
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if not r.is_zero():
            basis.append(r.monic(order))
            push_pairs(len(basis) - 1)

    # minimalize: drop generators whose leading monomial is divisible by
    # another's, preferring to keep earlier (smaller-leading) ones
    basis.sort(key=lambda g: order.key(g.leading(order)[0]))
    kept: list[PolyFp] = []
    for g in basis:
        lm = g.leading(order)[0]
        if any(_divides(h.leading(order)[0], lm) for h in kept):
            continue
        kept.append(g)
    # tail-reduce each against the others: no other leading monomial divides
    # its own, so each keeps its monic leading term and the basis stays sorted
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        reduced.append(normal_form(g, others, order))
    return GroebnerBasis(reduced, order)


def ideal_member(f: PolyFp, gb: GroebnerBasis) -> bool:
    """f lies in the ideal iff its normal form against the basis is zero."""
    if not f.terms:
        return True
    f._check(gb.generators[0])
    return normal_form(f, gb.generators, gb.order).is_zero()


def radical_member(f: PolyFp, gens: list[PolyFp], order: MonomialOrder = LEX) -> bool:
    """f in the radical iff 1 in (gens, 1 - t*f) with t a fresh variable."""
    if not f.terms:
        return True
    for g in gens:
        f._check(g)
    used = set(f.vars)
    fresh = "t" if "t" not in used else next(
        v for v in string.ascii_lowercase if v not in used
    )
    new_vars = f.vars + (fresh,)
    p = f.p

    def lift(g: PolyFp) -> PolyFp:
        return PolyFp(p, new_vars, {m + (0,): c for m, c in g.terms.items()})

    t = PolyFp.variable(p, new_vars, fresh)
    one = PolyFp.constant(p, new_vars, 1)
    extended = [lift(g) for g in gens] + [one - t * lift(f)]
    gb = buchberger(extended, order)
    return ideal_member(one, gb)


# -- text format: the `poly` grammar of specs.py ---------------------------

_VAR = re.compile(r"[a-z]")


def parse_poly(text: str, p: int, vars: tuple[str, ...] | None = None) -> PolyFp:
    """Parse one `poly` such as `3*x^2*y + z - 1` over GF(p).

    When vars is None the variable list is the letters a-z of the text,
    ordered alphabetically (earlier letters take higher precedence).
    """
    return _parse_polys(text, p, vars, many=False)[0]


def parse_poly_list(text: str, p: int, vars: tuple[str, ...] | None = None) -> list[PolyFp]:
    """Parse `poly (',' poly)*` with one scanner and one variable list."""
    return _parse_polys(text, p, vars, many=True)


def _parse_polys(text: str, p: int, vars: tuple[str, ...] | None, many: bool) -> list[PolyFp]:
    if not is_prime(p):
        raise CharMismatch(f"{p} is not prime")
    if vars is None:
        vars = tuple(sorted(set(_VAR.findall(text))))
    sc = Scanner(text)
    polys = [PolyFp(p, vars, parse_terms(sc, vars))]
    while many and sc.match(","):
        polys.append(PolyFp(p, vars, parse_terms(sc, vars)))
    sc.expect_end("polynomial")
    return polys


# -- the certified counterexample ideal ----------------------------------


@dataclass
class CertificateClause:
    clause: str
    expected: bool
    got: bool

    @property
    def passed(self) -> bool:
        return self.expected == self.got


@dataclass
class Certificate:
    prime: int
    basis: list[str]
    clauses: list[CertificateClause]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.clauses)


def example1_certificate(p: int) -> Certificate:
    """Membership facts certifying the non-primary quotient ideal.

    Working in GF(p)[x,y,z] with J = (x, z^2, x^3 - y*z), the preimage of
    the quotient ideal (x, z^2) modulo x^3 - y*z:

        y*z in J,   z not in J,   y not in radical(J)

    so modulo x^3 - y*z the ideal (x, z^2) fails the primary condition
    (y*z lands in it with z outside it and y outside its radical).  The
    fourth clause certifies x^3 - y*z in (x, z), the containment that
    makes the quotient-by-(x, z) construction a domain.
    """
    x, z2, cubic, y, z, yz = parse_poly_list("x, z^2, x^3 - y*z, y, z, y*z", p, ("x", "y", "z"))
    gens = [x, z2, cubic]
    gb = buchberger(gens, LEX)
    clauses = [
        CertificateClause("y*z in ideal", True, ideal_member(yz, gb)),
        CertificateClause("z not in ideal", False, ideal_member(z, gb)),
        CertificateClause("y not in radical", False, radical_member(y, gens, LEX)),
        CertificateClause(
            "x^3 - y*z in (x, z)", True, ideal_member(cubic, buchberger([x, z], LEX))
        ),
    ]
    return Certificate(p, [g.text(LEX) for g in gb.generators], clauses)
