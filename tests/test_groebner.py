"""Polynomial arithmetic, Buchberger, membership, and independent oracles.

The oracles here never call the division/Buchberger path they validate:
positive memberships come from a Macaulay-style linear span (Gaussian
elimination over exponent dictionaries), negative ideal membership from an
explicit homomorphism into the dual numbers, and negative radical
membership from a common zero of the generators.
"""

from __future__ import annotations

from itertools import product as iproduct

import pytest

from ringlab.errors import ArityMismatch, CharMismatch, ParseError
from ringlab.groebner import (
    GREVLEX,
    LEX,
    PolyFp,
    buchberger,
    example1_certificate,
    ideal_member,
    normal_form,
    parse_poly,
    parse_poly_list,
    radical_member,
    s_polynomial,
)

# -- test-local oracle machinery (dict-of-exponents representation) -------


def _poly_dict(poly: PolyFp) -> dict:
    return dict(poly.terms)


def _shift(terms: dict, mono: tuple, p: int) -> dict:
    return {tuple(a + b for a, b in zip(m, mono)): c % p for m, c in terms.items()}


def span_contains(f: PolyFp, gens: list[PolyFp], max_deg: int) -> bool:
    """Is f a polynomial combination of gens with everything of degree
    <= max_deg?  Pure linear algebra mod p; sufficient for membership."""
    p = f.p
    nvars = len(f.vars)
    monos = sorted(
        m for m in iproduct(range(max_deg + 1), repeat=nvars) if sum(m) <= max_deg
    )
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        gdeg = max(sum(m) for m in g.terms)
        for m in monos:
            if sum(m) + gdeg > max_deg:
                continue
            vec = [0] * len(monos)
            for mm, c in _shift(_poly_dict(g), m, p).items():
                vec[index[mm]] = c
            rows.append(vec)
    target = [0] * len(monos)
    for mm, c in f.terms.items():
        if sum(mm) > max_deg:
            return False
        target[index[mm]] = c
    # eliminate: reduce target against an echelonized row space mod p
    pivots = {}
    for row in rows:
        row = row[:]
        for col, prow in pivots.items():
            if row[col]:
                factor = row[col]
                row = [(a - factor * b) % p for a, b in zip(row, prow)]
        lead = next((i for i, a in enumerate(row) if a), None)
        if lead is not None:
            inv = pow(row[lead], p - 2, p)
            pivots[lead] = [a * inv % p for a in row]
    for col, prow in pivots.items():
        if target[col]:
            factor = target[col]
            target = [(a - factor * b) % p for a, b in zip(target, prow)]
    return not any(target)


def dual_number_substitution(gens: list[PolyFp], assignment: dict) -> list:
    """Evaluate polynomials in GF(p)[e]/(e^2): values are (const, eps) pairs."""
    p = gens[0].p

    def ev(poly: PolyFp):
        total = (0, 0)
        for m, c in poly.terms.items():
            val = (c % p, 0)
            for name, e in zip(poly.vars, m):
                for _ in range(e):
                    a0, a1 = val
                    b0, b1 = assignment[name]
                    val = (a0 * b0 % p, (a0 * b1 + a1 * b0) % p)
            total = ((total[0] + val[0]) % p, (total[1] + val[1]) % p)
        return total

    return [ev(g) for g in gens]


# -- arithmetic ------------------------------------------------------------


def test_frobenius_squaring_char_two():
    f = parse_poly("x + y", 2, ("x", "y"))
    assert (f * f).text() == "x^2 + y^2"


def test_normal_form_single_step():
    vars = ("x", "y", "z")
    f = parse_poly("x^3 - y*z", 5, vars)
    x = parse_poly("x", 5, vars)
    assert normal_form(f, [x], LEX).text() == "4*y*z"  # -yz mod 5


def test_subtraction_cancels():
    f = parse_poly("3*x^2*y + z - 1", 7)
    assert (f - f).is_zero()


def test_mismatched_polys_rejected():
    with pytest.raises(CharMismatch):
        parse_poly("x", 2, ("x",)) + parse_poly("x", 3, ("x",))
    with pytest.raises(ArityMismatch):
        parse_poly("x", 5, ("x",)) + parse_poly("x", 5, ("x", "y"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + ?", 5, ("x",))
    assert err.value.position is not None
    with pytest.raises(ParseError):
        parse_poly("x ^", 5, ("x",))
    with pytest.raises(ParseError):
        parse_poly_list("", 5)


def test_variable_precedence_is_positional():
    # the variable tuple sets precedence: under ("z", "y", "x") the leading
    # term of x + z is z
    f = parse_poly("x + z", 5, ("z", "y", "x"))
    lm, _ = f.leading(LEX)
    assert lm == (1, 0, 0)  # exponent on z
    g = parse_poly("x + z", 5, ("x", "y", "z"))
    assert g.leading(LEX)[0] == (1, 0, 0)  # exponent on x


def test_poly_text_roundtrip():
    vars = ("x", "y", "z")
    for text in ("3*x^2*y + z + 4", "x^3 + 4*y*z", "1", "x", "2*x*y*z + x^2"):
        f = parse_poly(text, 5, vars)
        assert parse_poly(f.text(LEX), 5, vars) == f


# -- Buchberger ------------------------------------------------------------


def _counterexample_ideal(p: int):
    vars = ("x", "y", "z")
    x = PolyFp.variable(p, vars, "x")
    y = PolyFp.variable(p, vars, "y")
    z = PolyFp.variable(p, vars, "z")
    return [x, z * z, x * x * x - y * z], (x, y, z)


def test_monomial_order_semantics():
    # lex: leftmost exponent decides; grevlex: total degree, then the
    # smaller exponent in the last variable wins ties
    x, y5 = (1, 0), (0, 5)
    assert LEX.key(x) > LEX.key(y5)
    assert GREVLEX.key(y5) > GREVLEX.key(x)
    xxz, xyy = (2, 0, 1), (1, 2, 0)
    assert GREVLEX.key(xyy) > GREVLEX.key(xxz)
    assert LEX.key(xxz) > LEX.key(xyy)
    one = (0, 0, 0)
    for m in (xxz, xyy, (0, 0, 1)):
        assert LEX.key(m) > LEX.key(one) and GREVLEX.key(m) > GREVLEX.key(one)


def test_reduced_basis_of_counterexample_ideal():
    gens, _ = _counterexample_ideal(2)
    gb = buchberger(gens, LEX)
    assert sorted(g.text(LEX) for g in gb.generators) == ["x", "y*z", "z^2"]


def test_trivial_bases():
    one = PolyFp.constant(3, ("x",), 1)
    assert [g.text() for g in buchberger([one]).generators] == ["1"]
    f = parse_poly("x^2 + 1", 2, ("x",))
    assert buchberger([f], LEX).generators == [f]


def test_basis_postconditions():
    cases = [
        _counterexample_ideal(2)[0],
        _counterexample_ideal(5)[0],
        parse_poly_list("x^2 + y, x*y + 1", 3),
        parse_poly_list("x^2 - y, y^2 - x", 7),
        # symmetric benchmark: elementary symmetric functions minus constants
        parse_poly_list("x + y + z, x*y + y*z + z*x, x*y*z - 1", 7),
    ]
    for gens in cases:
        for order in (LEX, GREVLEX):
            gb = buchberger(gens, order)
            basis = gb.generators
            # every S-polynomial reduces to zero
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j], order)
                    assert normal_form(s, basis, order).is_zero()
            # no leading monomial divides another; tails are reduced
            leads = [g.leading(order)[0] for g in basis]
            for i, g in enumerate(basis):
                for j, lm in enumerate(leads):
                    if i == j:
                        continue
                    assert not all(a <= b for a, b in zip(lm, leads[i]))
                    for m in g.terms:
                        if m != leads[i]:
                            assert not all(a <= b for a, b in zip(lm, m))
            # original generators lie in the basis ideal
            for g in gens:
                assert ideal_member(g, gb)


def test_normal_form_idempotent():
    gens, (x, y, z) = _counterexample_ideal(3)
    gb = buchberger(gens, LEX)
    for f in (x * y + z, y * y * z + x, (x + y + z) * (x + y)):
        once = normal_form(f, gb.generators, LEX)
        assert normal_form(once, gb.generators, LEX) == once


def test_membership_is_order_independent():
    gens, (x, y, z) = _counterexample_ideal(5)
    lex_gb = buchberger(gens, LEX)
    grevlex_gb = buchberger(gens, GREVLEX)
    probes = [x, y, z, y * z, z * z, x * y - z, (x + z) * (x + z), y * y]
    for f in probes:
        assert ideal_member(f, lex_gb) == ideal_member(f, grevlex_gb)


def test_determinism_and_input_order_independence():
    gens, _ = _counterexample_ideal(2)
    a = buchberger(gens, LEX)
    b = buchberger(gens, LEX)
    assert [g.terms for g in a.generators] == [g.terms for g in b.generators]
    c = buchberger(list(reversed(gens)), LEX)
    assert [g.terms for g in a.generators] == [g.terms for g in c.generators]
    # a reduced basis is a fixpoint
    again = buchberger(a.generators, LEX)
    assert [g.terms for g in again.generators] == [g.terms for g in a.generators]


# -- membership against independent oracles -------------------------------


def test_membership_matches_span_oracle():
    for p in (2, 3, 5):
        gens, (x, y, z) = _counterexample_ideal(p)
        gb = buchberger(gens, LEX)
        assert ideal_member(y * z, gb)
        assert span_contains(y * z, gens, max_deg=4)
        assert ideal_member(x * x * x, gb)
        assert span_contains(x * x * x, gens, max_deg=4)
        assert ideal_member(PolyFp.zero(p, ("x", "y", "z")), gb)


def test_non_membership_via_dual_numbers():
    # map x -> 0, y -> 0, z -> eps: every generator vanishes but z does not,
    # so z survives in a quotient and cannot lie in the ideal
    for p in (2, 3, 5):
        gens, (x, y, z) = _counterexample_ideal(p)
        images = dual_number_substitution(gens, {"x": (0, 0), "y": (0, 0), "z": (0, 1)})
        assert all(img == (0, 0) for img in images)
        assert dual_number_substitution([z], {"x": (0, 0), "y": (0, 0), "z": (0, 1)}) == [(0, 1)]
        assert not ideal_member(z, buchberger(gens, LEX))


def test_radical_membership():
    for p in (2, 3, 5):
        gens, (x, y, z) = _counterexample_ideal(p)
        # common zero (0, 1, 0) where y = 1: y is not in the radical
        for g in gens:
            assert g.evaluate({"x": 0, "y": 1, "z": 0}) == 0
        assert y.evaluate({"x": 0, "y": 1, "z": 0}) == 1
        assert not radical_member(y, gens, LEX)
        # z^2 is a generator, so z is in the radical
        assert radical_member(z, gens, LEX)
        # and trivially f lies in radical(f)
        f = x * y + z
        assert radical_member(f, [f], LEX)
    assert radical_member(PolyFp.zero(3, ("x",)), [parse_poly("x", 3, ("x",))])


def test_certificates_all_primes():
    for p in (2, 3, 5):
        cert = example1_certificate(p)
        assert cert.all_pass
        assert sorted(cert.basis) == ["x", "y*z", "z^2"]
        assert len(cert.clauses) == 4


def test_certificate_rejects_composite():
    with pytest.raises(CharMismatch):
        example1_certificate(4)
