"""Ring construction, validation, element arithmetic, special elements."""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from ringlab import rings
from ringlab.catalog import default_catalog
from ringlab.errors import (
    BadModulus,
    ForeignElement,
    NonMonic,
    NotARing,
    NotMaximal,
    OrderTooLarge,
    ParseError,
)
from ringlab.groebner import LEX, PolyFp, normal_form
from ringlab.rings import (
    PRIMALITY_LIMIT,
    FiniteRing,
    build,
    find_isomorphism,
    is_prime,
    mask_of,
    special_elements,
)
from ringlab.specs import (
    LocalizeAt,
    PolyQuot,
    Product,
    Quotient,
    TableSpec,
    Zmod,
    parse_ring_spec,
)


def test_zmod_basics():
    r = build(Zmod(12))
    assert r.order == 12
    assert r.zero == 0 and r.one == 1
    for k in range(12):
        assert r.add(k, 0).index == k  # identity
    assert r.mul(4, 9).index == 0  # 36 = 0 mod 12
    assert r.pow(2, 2).index == 4
    assert r.sub(3, 7).index == 8
    assert r.neg(5).index == 7


def test_polyquot_dual_numbers():
    r = build(PolyQuot(2, (0, 0, 1)))  # GF(2)[x]/(x^2)
    assert r.order == 4
    x = 2  # index of x: coefficients little-endian, x = (0, 1)
    one_plus_x = 3
    assert r.mul(x, x).index == 0
    assert r.mul(x, one_plus_x).index == x  # x + x^2 = x


def test_polyquot_field():
    # x^2 + x + 1 is irreducible over GF(2): the quotient is a field
    r = build(PolyQuot(2, (1, 1, 1)))
    assert r.order == 4
    units = special_elements(r, "units")
    assert units == frozenset({1, 2, 3})


def test_product_order_and_identity():
    r = build(Product((Zmod(4), Zmod(3))))
    assert r.order == 12
    assert r.mul(r.one, 7).index == 7


def test_crt_isomorphism():
    # Z/(mn) and Z/m x Z/n are isomorphic for coprime m, n <= 8
    import math

    for m in range(2, 9):
        for n in range(m + 1, 9):
            if math.gcd(m, n) != 1:
                continue
            whole = build(Zmod(m * n))
            split = build(Product((Zmod(m), Zmod(n))))
            phi = find_isomorphism(whole, split)
            assert phi is not None, (m, n)
            # spot-check the map is a ring homomorphism
            for a in range(whole.order):
                for b in range(whole.order):
                    assert phi[whole.add_rows[a][b]] == split.add_rows[phi[a]][phi[b]]
                    assert phi[whole.mul_rows[a][b]] == split.mul_rows[phi[a]][phi[b]]


def test_non_isomorphic_rings_rejected():
    assert find_isomorphism(build(Zmod(4)), build(Product((Zmod(2), Zmod(2))))) is None


def test_special_elements_against_raw_modular_scan():
    r = build(Zmod(12))
    # independent oracle: raw % arithmetic
    idem = {a for a in range(12) if (a * a) % 12 == a}
    units = {a for a in range(12) if any(a * b % 12 == 1 for b in range(12))}
    nilp = {a for a in range(12) if any(pow(a, k, 12) == 0 for k in range(1, 13))}
    zdiv = {
        a
        for a in range(1, 12)
        if any(a * b % 12 == 0 for b in range(1, 12))
    }
    assert special_elements(r, "idempotents") == frozenset(idem) == {0, 1, 4, 9}
    assert special_elements(r, "units") == frozenset(units) == {1, 5, 7, 11}
    assert special_elements(r, "nilpotents") == frozenset(nilp) == {0, 6}
    assert special_elements(r, "zero_divisors") == frozenset(zdiv)


def test_special_elements_polyquot():
    r = build(PolyQuot(2, (0, 0, 1)))
    assert special_elements(r, "nilpotents") == {0, 2}  # 0 and x


def power_sequence(ring, a):
    """Powers a^1, a^2, ... up to (and excluding) the first repeat."""
    seq = []
    p = a
    while p not in seq:
        seq.append(p)
        p = ring.mul_rows[p][a]
    return seq


def test_power_cycle_periodicity():
    for spec in (Zmod(12), Zmod(8), PolyQuot(3, (0, 0, 1))):
        r = build(spec)
        for a in range(r.order):
            seq = power_sequence(r, a)
            assert mask_of(seq) == r.power_masks[a]
            nxt = r.mul_rows[seq[-1]][a]  # first repeated power
            start = seq.index(nxt)  # 0-based: a^(start+1) == a^(len+1)
            period = len(seq) - start
            for k in range(start + 1, len(seq) + 1):
                assert r.pow_index(a, k + period) == r.pow_index(a, k)


# plain loop definitions of the derived element data, one element at a time


def _one_minus(ring, b):
    neg = next(x for x in range(ring.order) if ring.add_rows[b][x] == ring.zero)
    return ring.add_rows[ring.one][neg]


def _ann(ring, a):
    return mask_of(x for x in range(ring.order) if ring.mul_rows[a][x] == ring.zero)


def _ann_stable(ring, a):
    t, power = 1, a
    while _ann(ring, power) != _ann(ring, ring.mul_rows[power][a]):
        t, power = t + 1, ring.mul_rows[power][a]
    return t, _ann(ring, power)


def _is_unit(ring, a):
    return ring.one in ring.mul_rows[a]


def _jacobson(ring):
    """{a : 1 - ab is a unit for every b}."""
    units = {a for a in range(ring.order) if _is_unit(ring, a)}
    one_minus = [_one_minus(ring, b) for b in range(ring.order)]
    return mask_of(
        a
        for a in range(ring.order)
        if all(one_minus[ring.mul_rows[a][b]] in units for b in range(ring.order))
    )


def _witnesses(ring, accepted):
    """For each a, the b with a(1-b) in the accepted set."""
    one_minus = [_one_minus(ring, b) for b in range(ring.order)]
    return [
        mask_of(b for b in range(ring.order) if ring.mul_rows[a][one_minus[b]] in accepted)
        for a in range(ring.order)
    ]


def _nilpotents(ring):
    return {a for a in range(ring.order) if ring.zero in power_sequence(ring, a)}


REFERENCE = {
    "power_masks": lambda r: [mask_of(power_sequence(r, a)) for a in range(r.order)],
    "ann_masks": lambda r: [_ann(r, a) for a in range(r.order)],
    "principal_masks": lambda r: [
        mask_of(r.mul_rows[x][a] for x in range(r.order)) for a in range(r.order)
    ],
    "ann_stable": lambda r: [_ann_stable(r, a) for a in range(r.order)],
    "one_minus": lambda r: [_one_minus(r, b) for b in range(r.order)],
    "nil_mask": lambda r: mask_of(a for a in range(r.order) if r.zero in power_sequence(r, a)),
    "unit_mask": lambda r: mask_of(a for a in range(r.order) if _is_unit(r, a)),
    "jacobson_mask": _jacobson,
    "idempotents": lambda r: [a for a in range(r.order) if r.mul_rows[a][a] == a],
    "pure_witnesses": lambda r: _witnesses(r, {r.zero}),
    "npure_witnesses": lambda r: _witnesses(r, _nilpotents(r)),
}


def test_element_data_matches_reference_loops():
    large = [
        Zmod(200),
        Zmod(128),
        Product((Zmod(8), Zmod(8))),
        PolyQuot(2, (1, 1, 0, 0, 0, 0, 0, 1)),
    ]
    for ring in default_catalog(16) + [build(spec) for spec in large]:
        for name, reference in REFERENCE.items():
            assert getattr(ring, name) == reference(ring), (ring.name, name)


def test_element_data_is_computed_on_first_use():
    ring = build(Zmod(12))
    assert not set(REFERENCE) & set(vars(ring))
    assert ring.ann_masks[4] == mask_of((0, 3, 6, 9))
    assert "ann_masks" in vars(ring)


@pytest.mark.parametrize("spec, max_order, order", [
    (Zmod(10**20), 200, 10**20),
    (PolyQuot(2, (0,) * 40 + (1,)), 200, 2**40),
    (PolyQuot(1000003, (0, 1)), 200, 1000003),
    # every factor is within the bound, the product is not
    (Product((Zmod(4), Zmod(4))), 10, 16),
    # inner rings are checked although the result would be within the bound
    (Product((Zmod(2), Zmod(12))), 10, 12),
    (Quotient(Zmod(12), (2,)), 10, 12),
    (LocalizeAt(Zmod(12), (2,)), 10, 12),
])
def test_build_checks_element_bound_before_allocating(spec, max_order, order):
    with pytest.raises(OrderTooLarge, match=f"^order {order} exceeds element bound {max_order}$"):
        build(spec, max_order)


def test_build_checks_table_order_before_reading_entries(tmp_path):
    path = tmp_path / "big.tbl"
    path.write_text("1000000 0 1\n")
    with pytest.raises(OrderTooLarge, match="order 1000000 exceeds element bound 200"):
        build(TableSpec(str(path)))
    assert build(Zmod(12), 12).order == 12


def test_foreign_element_rejected():
    r1 = build(Zmod(6))
    r2 = build(Zmod(6))
    with pytest.raises(ForeignElement):
        r1.add(r1.element(2), r2.element(3))


def test_element_operators():
    r = build(Zmod(10))
    a, b = r.element(7), r.element(5)
    assert (a + b).index == 2
    assert (a - b).index == 2
    assert (a * b).index == 5
    assert (-a).index == 3
    assert (a**2).index == 9


def test_bad_specs_rejected():
    with pytest.raises(BadModulus):
        build(Zmod(1))
    with pytest.raises(BadModulus):
        build(PolyQuot(4, (0, 1)))
    with pytest.raises(NonMonic):
        build(PolyQuot(2, (1, 2)))  # 2x .. degree collapses mod 2
    with pytest.raises(NonMonic):
        build(PolyQuot(3, (1,)))  # constant modulus


def test_quotient_by_unit_ideal_is_zero_ring():
    with pytest.raises(NotARing):
        build(Quotient(Zmod(4), (1,)))


def test_quotient_ring_structure():
    r = build(Quotient(Zmod(12), (4,)))  # Z/12 over (4) = {0,4,8}
    assert r.order == 4
    assert find_isomorphism(r, build(Zmod(4))) is not None


def test_localize_at_maximal():
    loc = build(LocalizeAt(Zmod(12), (2,)))
    assert loc.order == 4
    assert find_isomorphism(loc, build(Zmod(4))) is not None
    loc3 = build(LocalizeAt(Zmod(12), (3,)))
    assert find_isomorphism(loc3, build(Zmod(3))) is not None


def test_localize_rejects_non_maximal():
    with pytest.raises(NotMaximal):
        build(LocalizeAt(Zmod(12), (4,)))
    with pytest.raises(NotMaximal):
        build(LocalizeAt(Zmod(12), (6,)))


def test_localization_is_local():
    for n in (12, 16, 18, 24):
        r = build(Zmod(n))
        for p in (2, 3, 5):
            if n % p:
                continue
            loc = build(LocalizeAt(Zmod(n), (p,)))
            assert loc.local_maximal_mask() is not None


def test_table_format_roundtrip(tmp_path):
    src = build(Zmod(6))
    path = tmp_path / "z6.tbl"
    lines = ["6"]
    lines += [" ".join(map(str, row)) for row in src.add_rows]
    lines += [" ".join(map(str, row)) for row in src.mul_rows]
    path.write_text("\n".join(lines) + "\n")
    r = build(TableSpec(str(path)))
    assert r.order == 6
    assert find_isomorphism(r, src) is not None


def test_table_format_rejects_broken_axioms(tmp_path):
    src = build(Zmod(4))
    rows = [list(row) for row in src.add_rows]
    rows[2][3] = 0  # break commutativity/associativity
    path = tmp_path / "bad.tbl"
    lines = ["4"]
    lines += [" ".join(map(str, row)) for row in rows]
    lines += [" ".join(map(str, row)) for row in src.mul_rows]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NotARing, match="addition is not commutative"):
        build(TableSpec(str(path)))


def test_table_format_rejects_malformed_file(tmp_path):
    path = tmp_path / "short.tbl"
    path.write_text("3\n0 1 2\n")
    with pytest.raises(ParseError):
        build(TableSpec(str(path)))


def test_ring_axiom_validation_catches_bad_mul():
    r = build(Zmod(4))
    # symmetric edits (table, i, j, value) of Z/4's tables, and the message of
    # the first failing row, then axiom
    cases = [
        ([("mul", 2, 3, 1)], "multiplication is not associative"),
        ([("add", 1, 2, 0)], "addition is not associative"),
        ([("mul", 3, 3, 0)], "multiplication is not associative"),
        ([("mul", 2, 2, 2)], "multiplication does not distribute over addition"),
        # row 0 fails only distributivity, rows 1-3 additive associativity
        ([("add", 1, 1, 0), ("mul", 0, 2, 2)], "multiplication does not distribute"),
    ]
    for edits, message in cases:
        tables = {"add": r.add_table.copy(), "mul": r.mul_table.copy()}
        for name, i, j, value in edits:
            tables[name][i, j] = tables[name][j, i] = value
        with pytest.raises(NotARing, match=message):
            FiniteRing(tables["add"], tables["mul"], one=1, spec=Zmod(4))


# the row scan takes one block up to N = 16 (Z/4, Z/12) and 2, 16 and 130
# blocks for Z/32, product(Z/8, Z/8) and Z/130
SCANNED = ("Z/4", "Z/12", "Z/32", "Z/130", "product(Z/8, Z/8)")


@functools.cache
def _scanned_ring(text: str) -> FiniteRing:
    return build(parse_ring_spec(text))


@st.composite
def _corrupted_tables(draw):
    """A ring of SCANNED with one to three symmetric edits (a no-op edit
    included) outside the identity rows, so commutativity and both
    identities still hold."""
    ring = _scanned_ring(draw(st.sampled_from(SCANNED)))
    tables = {"add": ring.add_table.copy(), "mul": ring.mul_table.copy()}
    keep = {"add": ring.zero, "mul": ring.one}
    n = ring.order
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(("add", "mul")))
        # any index but the identity's
        cells = st.integers(0, n - 2).map(lambda k, skip=keep[name]: k + (k >= skip))
        i, j = draw(cells), draw(cells)
        tables[name][i, j] = tables[name][j, i] = draw(st.integers(0, n - 1))
    return tables["add"], tables["mul"], ring.one


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_corrupted_tables())
def test_generator_decision_matches_the_row_scan(tables):
    add, mul, one = tables
    assume(np.all((add == 0).any(axis=1)))  # an edit may take a row's only zero
    expected = rings._first_row_failure(add, mul)
    with mock.patch.object(
        rings, "_first_row_failure", wraps=rings._first_row_failure
    ) as scan:
        try:
            rings.validate_ring_tables(add, mul, one, add.tolist())
            got = None
        except NotARing as exc:
            got = str(exc)
    # the scan runs exactly when the generator checks reject, and names the
    # first failing row, then axiom
    assert scan.call_count == (expected is not None)
    assert got == expected
    event(f"verdict: {expected}")


def test_light_test_rejects_a_commutative_loop():
    # a commutative loop (each row a permutation, 0 the identity) that is not
    # associative: (2 + 2) + 4 = 4 + 4 = 3 but 2 + (2 + 4) = 2 + 0 = 2
    loop = np.array([
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 3, 4, 5, 0, 1],
        [3, 2, 5, 4, 1, 0],
        [4, 5, 0, 1, 3, 2],
        [5, 4, 1, 0, 2, 3],
    ])
    assert loop[loop[2, 2], 4] == 3 and loop[2, loop[2, 4]] == 2
    idx = np.arange(6)
    with pytest.raises(NotARing, match="^addition is not associative$"):
        FiniteRing(loop, idx[:, None] * idx[None, :] % 6, one=1, spec=Zmod(6))


def test_associator_check_rejects_a_nonassociative_algebra():
    # GF(2)^3 with basis 1, a, b (index c0 + 2*c1 + 4*c2), a^2 = b^2 = 0 and
    # ab = 1: commutative, unital and bilinear, hence distributive, but
    # (aa)b = 0 while a(ab) = a
    basis = [[1, 2, 4], [2, 0, 1], [4, 1, 0]]
    idx = np.arange(8)
    add = idx[:, None] ^ idx[None, :]
    mul = np.zeros((8, 8), dtype=np.int64)
    for u, v in itertools.product(range(3), repeat=2):
        both = (idx[:, None] >> u & 1) & (idx[None, :] >> v & 1)
        mul ^= both * basis[u][v]
    assert mul[mul[2, 2], 4] == 0 and mul[2, mul[2, 4]] == 2
    with pytest.raises(NotARing, match="^multiplication is not associative$"):
        FiniteRing(add, mul, one=1, spec=TableSpec("algebra.tbl"))


def test_valid_tables_never_reach_the_row_scan(monkeypatch):
    calls = []
    monkeypatch.setattr(rings, "_first_row_failure", lambda *args: calls.append(args))
    named = [build(parse_ring_spec(text)) for text in (
        "Z/200", "product(Z/8, Z/8)", "GF(2)[x]/(x^7 + x + 1)",
    )]
    catalog = default_catalog(16)
    assert calls == []
    for ring in named + catalog:
        gens = rings._additive_generators(ring.add_rows)
        assert len(gens) <= ring.order.bit_length() - 1, ring.name
        if isinstance(ring.spec, Zmod):
            assert gens == [1], ring.name
    assert len(rings._additive_generators(named[2].add_rows)) == 7  # (GF(2^7), +) = (Z/2)^7
    for k in range(2, 8):
        cube = build(Product((Zmod(2),) * k))
        assert len(rings._additive_generators(cube.add_rows)) == k
    assert calls == []


def test_polyquot_products_match_groebner_normal_form():
    # every monic f with p^d <= 27: element i is the polynomial whose
    # coefficients are the base-p digits of i, lowest degree first
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for d in range(1, 5):
            n = p**d
            if n > 27:
                break
            polys = [PolyFp(p, ("x",), {(k,): i // p**k % p for k in range(d)}) for i in range(n)]
            products = [a * b for a in polys for b in polys]
            for low in itertools.product(range(p), repeat=d):
                f = PolyFp(p, ("x",), {(k,): c for k, c in enumerate(low + (1,))})
                expected = [
                    sum(c * p**k for (k,), c in normal_form(ab, [f], LEX).terms.items())
                    for ab in products
                ]
                r = build(PolyQuot(p, low + (1,)))
                assert r.mul_table.ravel().tolist() == expected, (p, low)


def test_is_prime_matches_trial_division():
    def trial_division(n: int) -> bool:
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(20_000) if is_prime(n)] == [
        n for n in range(20_000) if trial_division(n)
    ]


# Carmichael numbers with 3 to 9 prime factors: Fermat liars to every coprime base
CARMICHAEL = (561, 1105, 1729, 41041, 825265, 321197185, 5394826801, 232250619601,
              9746347772161)


@pytest.mark.parametrize("n", [
    99999999999999999989,
    3825123056546413051,  # strong pseudoprime to the bases 2..23
    318665857834031151167461,  # strong pseudoprime to the bases 2..37
    3317044064679887385961813,  # the largest prime below the limit
    PRIMALITY_LIMIT - 2,
    *CARMICHAEL,
])
def test_is_prime_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_refuses_at_the_limit():
    # the limit itself is a strong pseudoprime to all thirteen bases
    assert is_prime(PRIMALITY_LIMIT - 1) is False  # even
    with pytest.raises(BadModulus, match=str(PRIMALITY_LIMIT)):
        is_prime(PRIMALITY_LIMIT)
    with pytest.raises(BadModulus, match=str(PRIMALITY_LIMIT)):
        is_prime(10**40 + 1)


# -- table validation messages -------------------------------------------


def _z3_tables():
    idx = np.arange(3)
    return (idx[:, None] + idx[None, :]) % 3, (idx[:, None] * idx[None, :]) % 3


@pytest.mark.parametrize(
    "add, mul, one, message",
    [
        (np.zeros((2, 3)), np.zeros((2, 3)), 1, "tables must be square and of equal size"),
        (_z3_tables()[0], np.zeros((2, 2)), 1, "tables must be square and of equal size"),
        ([[0]], [[0]], 0, "ring must have at least two elements (zero ring rejected)"),
        (*_z3_tables(), 3, "identity indices out of range"),
        (*_z3_tables(), -1, "identity indices out of range"),
        (*_z3_tables(), 0, "zero and one coincide (zero ring rejected)"),
    ],
)
def test_constructor_rejects_malformed_tables(add, mul, one, message):
    with pytest.raises(NotARing, match=f"^{re.escape(message)}$"):
        FiniteRing(add, mul, one=one, spec=TableSpec("bad.tbl"))


# -- isomorphism search ----------------------------------------------------


def _relabelled(ring: FiniteRing, seed: int) -> FiniteRing:
    """The ring's tables under a random bijection sigma fixing 0: the copy
    has sigma(a) + sigma(b) = sigma(a + b), and likewise for products."""
    rest = list(range(1, ring.order))
    random.Random(seed).shuffle(rest)
    sigma = np.array([0] + rest)
    add, mul = np.empty_like(ring.add_table), np.empty_like(ring.mul_table)
    add[np.ix_(sigma, sigma)] = sigma[ring.add_table]
    mul[np.ix_(sigma, sigma)] = sigma[ring.mul_table]
    return FiniteRing(add, mul, one=int(sigma[ring.one]), spec=TableSpec("relabelled.tbl"))


def _is_isomorphism(phi, r1: FiniteRing, r2: FiniteRing) -> bool:
    p = np.array(phi)
    return sorted(phi) == list(range(r1.order)) and all(
        np.array_equal(p[t1], t2[np.ix_(p, p)])
        for t1, t2 in ((r1.add_table, r2.add_table), (r1.mul_table, r2.mul_table))
    )


def _brute_force_isomorphic(r1: FiniteRing, r2: FiniteRing) -> bool:
    """Whether some bijection fixing 0 carries both tables of r1 onto r2's."""
    perms = np.array([(0, *p) for p in itertools.permutations(range(1, r1.order))])
    ok = np.ones(len(perms), dtype=bool)
    for t1, t2 in ((r1.add_table, r2.add_table), (r1.mul_table, r2.mul_table)):
        ok &= (perms[:, t1] == t2[perms[:, :, None], perms[:, None, :]]).all(axis=(1, 2))
    return bool(ok.any())


def test_isomorphism_search_backtracks_on_relabelled_copies():
    # 0 and 1 generate only the prime subring here, so the search has to
    # guess further images, and some guesses fail and are undone; calls
    # counts (callee, caller) pairs of the search's inner functions
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == rings.__file__:
            calls[frame.f_code.co_name, frame.f_back.f_code.co_name] += 1

    for text in ("GF(2)[x]/(x^2 + x + 1)", "GF(2)[x]/(x^3 + x + 1)",
                 "product(Z/2, Z/2, Z/2)", "product(Z/4, Z/2)"):
        ring = build(parse_ring_spec(text))
        for seed in range(4):
            copy = _relabelled(ring, seed)
            sys.setprofile(profile)
            try:
                phi = find_isomorphism(ring, copy)
            finally:
                sys.setprofile(None)
            assert phi is not None, (text, seed)
            assert _is_isomorphism(phi, ring, copy)
    assert calls["search", "search"] > 0  # a candidate was kept and the search went on
    assert calls["undo", "assign"] > 0  # a candidate contradicted the tables at once
    assert calls["undo", "search"] > 0  # a kept candidate failed further down


def test_isomorphism_search_matches_brute_force_on_catalog8():
    distinct = {}
    for ring in default_catalog(8):
        distinct.setdefault((ring.add_table.tobytes(), ring.mul_table.tobytes(), ring.one), ring)
    profiles = {
        key: sorted(rings._profile(ring, a) for a in range(ring.order))
        for key, ring in distinct.items()
    }
    pairs = [
        (distinct[k1], distinct[k2])
        for k1, k2 in itertools.combinations(distinct, 2)
        if profiles[k1] == profiles[k2]
    ]
    assert len(pairs) == 14
    for r1, r2 in pairs:
        phi = find_isomorphism(r1, r2)
        assert (phi is not None) == _brute_force_isomorphic(r1, r2), (r1.name, r2.name)
        if phi is not None:
            assert _is_isomorphism(phi, r1, r2)
