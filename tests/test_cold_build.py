"""The kernels of a cold spectrum request against reference loops.

`rings._build_polyquot` builds GF(p)[x]/(f) one digit block of the sum and
one column block of the product at a time; the reference below is the d^2
loop of outer products over digit columns.  `ideals.all_ideals` enumerates
a ring built as a product from its factors' lattices; the reference is the
pairwise-sum closure of tests/test_lattice_kernel.py on the product's own
tables.  The pair kernel of `is_prime_ideal`, `is_primary_ideal` and
`spectra.spectrum`, the doubling of `power_masks`, the pair scan of
`pure_spectrum` and the blocked row checks of `validate_ring_tables` are
held to the plain loops they replaced.  Each
distinct spec is built once per module.
"""

from __future__ import annotations

import functools
import importlib.util
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringlab import rings
from ringlab.bounds import Bounds
from ringlab.catalog import default_catalog
from ringlab.errors import NotARing
from ringlab.ideals import (
    _first_bad_pairs,
    all_ideals,
    is_primary_ideal,
    is_prime_ideal,
    radical,
)
from ringlab.rings import bits, build, is_prime, mask_of, product_ring
from ringlab.spectra import pure_ideals, pure_spectrum, spectrum
from ringlab.specs import LocalizeAt, PolyQuot, Product, Quotient, Zmod, parse_ring_spec
from test_lattice_kernel import _reference_lattice

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "workloads.py")


@functools.cache
def _all_keys(workload):
    spec = importlib.util.spec_from_file_location("ringlab_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [parse_ring_spec(argv[1]) for _, argv in workloads.all_keys(workload)]


@pytest.fixture(scope="module")
def built():
    """A builder that builds each spec once for this module; a product is
    assembled from its factors' builds."""
    rings = {}

    def get(spec):
        ring = rings.get(spec)
        if ring is None:
            if isinstance(spec, Product):
                ring = product_ring([get(f) for f in spec.factors], spec)
            else:
                ring = build(spec)
            rings[spec] = ring
        return ring

    return get


def _subspecs(spec):
    yield spec
    if isinstance(spec, Product):
        for f in spec.factors:
            yield from _subspecs(f)
    elif isinstance(spec, (Quotient, LocalizeAt)):
        yield from _subspecs(spec.inner)


@pytest.fixture(scope="module")
def catalog48():
    return default_catalog(48)


# -- GF(p)[x]/(f) tables ----------------------------------------------------


def _reference_polyquot_tables(p, coeffs):
    """The addition and multiplication tables of GF(p)[x]/(f) for monic f
    with the given little-endian coefficients, one outer product of digit
    columns per pair of degrees."""
    d = len(coeffs) - 1
    n = p**d
    weights = p ** np.arange(d)
    digits = np.arange(n)[:, None] // weights % p
    xpow = np.zeros((2 * d - 1, d), dtype=np.int64)
    xpow[:d] = np.eye(d, dtype=np.int64)
    for k in range(d, 2 * d - 1):
        xpow[k, 1:] = xpow[k - 1, :-1]
        xpow[k] = (xpow[k] - xpow[k - 1, -1] * np.array(coeffs[:d])) % p
    add = (digits[:, None, :] + digits[None, :, :]) % p @ weights
    prod = np.zeros((n, n, d), dtype=np.int64)
    for a in range(d):
        for b in range(d):
            prod += np.multiply.outer(digits[:, a], digits[:, b])[:, :, None] * xpow[a + b]
    return add, prod % p @ weights


def _assert_polyquot_matches(ring):
    add, mul = _reference_polyquot_tables(ring.spec.p, ring.spec.coeffs)
    assert np.array_equal(ring.add_table, add), ring.name
    assert np.array_equal(ring.mul_table, mul), ring.name


def test_polyquot_tables_match_reference_on_benchmark_specs(built):
    polys = {
        s
        for workload in ("spectrum_queries", "large_rings")
        for top in _all_keys(workload)
        for s in _subspecs(top)
        if isinstance(s, PolyQuot)
    }
    assert len(polys) > 200
    for spec in polys:
        _assert_polyquot_matches(built(spec))


def test_polyquot_tables_match_reference_on_catalog48(catalog48):
    polys = [r for r in catalog48 if isinstance(r.spec, PolyQuot)]
    assert len(polys) == 53
    for ring in polys:
        _assert_polyquot_matches(ring)


_PRIMES = [p for p in range(2, 200) if is_prime(p)]


@st.composite
def _monic_moduli(draw):
    # every degree d with p^d <= 200; degree 1 reaches every prime below 200
    p = draw(st.sampled_from(_PRIMES))
    d = 1
    while p ** (d + 1) <= 200:
        d += 1
    d = draw(st.integers(1, d))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    return PolyQuot(p, tuple(tail) + (1,))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_monic_moduli())
def test_polyquot_tables_match_reference_on_sampled_moduli(spec):
    _assert_polyquot_matches(build(spec))


# -- lattices of products -------------------------------------------------


def _assert_product_lattice_matches(ring):
    assert ring.factors, ring.name
    masks = [i.mask for i in all_ideals(ring)]
    assert masks == _reference_lattice(ring)[0], ring.name


def test_product_lattices_match_reference(catalog48, built):
    rings = {}
    for ring in catalog48:
        if ring.factors and ring.order <= 64:
            rings.setdefault(ring.key, ring)
    for spec in _all_keys("spectrum_queries"):
        if isinstance(spec, Product):
            ring = built(spec)
            if ring.order <= 64:
                rings.setdefault(ring.key, ring)
    nested = build(parse_ring_spec("product(product(Z/2, Z/3), Z/4)"))
    assert nested.factors[0].factors
    rings.setdefault(nested.key, nested)
    assert len(rings) > 400
    for ring in rings.values():
        _assert_product_lattice_matches(ring)


_FACTOR_SPECS = st.one_of(
    st.integers(2, 12).map(Zmod),
    st.sampled_from(["GF(2)[x]/(x^2)", "GF(2)[x]/(x^2 + x)", "GF(3)[x]/(x^2)"]).map(parse_ring_spec),
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_FACTOR_SPECS, _FACTOR_SPECS)
def test_swapping_factors_relabels_the_lattice(built, a, b):
    # (i, j) is i * |B| + j in A x B and j * |A| + i in B x A
    fa, fb = built(a), built(b)
    oa, ob = fa.order, fb.order
    assume(oa * ob <= 64)
    ab = product_ring([fa, fb], Product((a, b)))
    ba = product_ring([fb, fa], Product((b, a)))
    swap = [j * oa + i for i in range(oa) for j in range(ob)]
    swapped = {mask_of(swap[x] for x in bits(i.mask)) for i in all_ideals(ab)}
    assert swapped == {i.mask for i in all_ideals(ba)}


# -- the pair kernel, power masks, products and the pure spectrum ----------


@pytest.fixture(scope="module")
def distinct_tables(catalog48, built):
    """One ring per distinct table of catalog48 and of the spectrum_queries
    pool, in first-seen order."""
    rings_by_table = {}
    for ring in catalog48:
        rings_by_table.setdefault(ring.tables, ring)
    for spec in _all_keys("spectrum_queries"):
        ring = built(spec)
        rings_by_table.setdefault(ring.tables, ring)
    return list(rings_by_table.values())


def _prime_loop(ring, mask):
    mul = ring.mul_rows
    outside = [a for a in range(ring.order) if not (mask >> a) & 1]
    for a in outside:
        for b in outside:
            if b >= a and (mask >> mul[a][b]) & 1:
                return (a, b)
    return None


def _primary_loop(ring, mask, rad):
    mul = ring.mul_rows
    for a in range(ring.order):
        if (mask >> a) & 1:
            continue
        for b in range(ring.order):
            if (mask >> mul[a][b]) & 1 and not (rad >> b) & 1:
                return (a, b)
    return None


def test_pair_kernel_witnesses_match_the_double_loops(distinct_tables):
    # the kernel on every proper ideal of each lattice at once, as spectrum
    # runs it, and is_prime_ideal and is_primary_ideal on one ideal each
    assert len(distinct_tables) > 700
    primes = 0
    for ring in distinct_tables:
        lattice = all_ideals(ring)
        proper = [i for i in lattice if i.is_proper]
        masks = [i.mask for i in proper]
        radicals = [radical(i).mask for i in proper]
        want = [_prime_loop(ring, m) for m in masks]
        assert _first_bad_pairs(ring, masks) == want, ring.name
        assert _first_bad_pairs(ring, masks, radicals) == [
            _primary_loop(ring, m, r) for m, r in zip(masks, radicals)
        ], ring.name
        got = [p.mask for p in spectrum(lattice).primes]
        assert got == [m for m, w in zip(masks, want) if w is None], ring.name
        primes += len(got)
        if ring.order <= 16:
            for i, prime, rad in zip(proper, want, radicals):
                assert is_prime_ideal(i).witness == prime
                assert is_primary_ideal(i).witness == _primary_loop(ring, i.mask, rad)
            assert is_prime_ideal(lattice[-1]).witness == (ring.one,)
            assert is_primary_ideal(lattice[-1]).witness == (ring.one,)
    assert primes > 1000


def _power_walk(ring, a):
    mul = ring.mul_rows
    seen, x = 0, a
    while not (seen >> x) & 1:
        seen |= 1 << x
        x = mul[x][a]
    return seen


@pytest.mark.parametrize("text, longest, gathers", [
    ("GF(2)[x]/(x^6 + x + 1)", 63, 6), ("Z/127", 126, 7), ("Z/199", 198, 8), ("Z/64", 16, 5),
])
def test_power_masks_match_the_walk_on_long_cycles(text, longest, gathers):
    # doubling stops at the first a^(2^k) that repeats a lower power for
    # every a: a^64 = a on GF(64), a^128 on Z/127, a^256 on Z/199, and on
    # Z/64 the units' a^32 (a^17 = a)
    ring = build(parse_ring_spec(text))
    n = ring.order
    # table data of its own, so no earlier test has derived the powers, with
    # a multiplication table that counts its gathers
    fresh = rings._Tables(((n, n), (n, n), ring.tables.add_bytes, ring.tables.mul_bytes, ring.one),
                          ring.add_rows)
    calls = []

    class CountedTable(np.ndarray):
        def __getitem__(self, key):
            calls.append(key)
            return np.asarray(super().__getitem__(key))

    fresh.mul_table = fresh.mul_table.view(CountedTable)
    got = fresh.power_masks
    walked = [_power_walk(ring, a) for a in range(ring.order)]
    assert got == walked
    assert max(m.bit_count() for m in walked) == longest
    assert len(calls) == gathers


def _reference_product(ring, i, j):
    mul = ring.mul_rows
    return ring.ideal_mask_closure(mask_of(mul[a][b] for a in bits(i) for b in bits(j)))


def test_pure_spectrum_matches_the_ordered_pairs(distinct_tables):
    spp = Bounds().spp
    checked = 0
    for ring in distinct_tables:
        if ring.order > spp:
            continue
        lattice = all_ideals(ring)
        pures = pure_ideals(lattice)
        want = []
        for p in lattice:
            if p.is_proper and all(
                i.mask & ~p.mask == 0 or j.mask & ~p.mask == 0
                for i in pures
                for j in pures
                if _reference_product(ring, i.mask, j.mask) & ~p.mask == 0
            ):
                want.append(p.mask)
        assert [p.mask for p in pure_spectrum(lattice, pures).members] == sorted(want)
        checked += 1
    assert checked > 150


# -- validation --------------------------------------------------------------


def _reference_validate(add, mul, one, add_rows):
    """validate_ring_tables as it was with one (x, y) gather per generator
    and axiom."""
    n = add.shape[0]
    if add.shape != (n, n) or mul.shape != (n, n):
        raise NotARing("tables must be square and of equal size")
    if n < 2:
        raise NotARing("ring must have at least two elements (zero ring rejected)")
    if not 0 <= one < n:
        raise NotARing("identity indices out of range")
    if one == 0:
        raise NotARing("zero and one coincide (zero ring rejected)")
    for name, t in (("addition", add), ("multiplication", mul)):
        if t.min() < 0 or t.max() >= n:
            raise NotARing(f"{name} table entry out of range")
        if not np.array_equal(t, t.T):
            raise NotARing(f"{name} is not commutative")
    idx = np.arange(n)
    if not np.array_equal(add[0], idx):
        raise NotARing("zero is not an additive identity")
    if not np.array_equal(mul[one], idx):
        raise NotARing("one is not a multiplicative identity")
    if not np.all((add == 0).any(axis=1)):
        raise NotARing("some element has no additive inverse")
    gens = rings._additive_generators(add_rows)
    for sides in (
        lambda g: (add[add[:, g]], add[:, add[g]]),
        lambda g: (mul[:, add[g]], add[mul, mul[:, g, None]]),
        lambda g: (mul[mul[:, g]], mul[:, mul[g]]),
    ):
        if not all(np.array_equal(*sides(g)) for g in gens):
            raise NotARing(rings._first_row_failure(add, mul))


def _message(validate, add, mul, one):
    try:
        validate(add, mul, one, add.tolist())
    except NotARing as exc:
        return str(exc)
    return None


def test_single_entry_corruptions_match_the_generator_loop(distinct_tables, built):
    # every order 2-64 (one table each, the order-64 products among them);
    # each corruption sets one entry and its mirror to the next element,
    # outside the identity rows and columns, so commutativity still holds
    by_order = {}
    for ring in distinct_tables:
        by_order.setdefault(ring.order, ring)
    tables = list(by_order.values()) + [
        built(parse_ring_spec(t)) for t in (
            "product(Z/8, Z/8)", "product(Z/4, Z/4, Z/4)", "product(Z/2, Z/2, Z/2, Z/2, Z/2, Z/2)",
        )
    ]
    assert {r.order for r in tables} >= set(range(2, 65)) - {59, 61}
    messages = set()
    for ring in tables:
        n = ring.order
        for name, skip in (("add", ring.zero), ("mul", ring.one)):
            cells = [k for k in range(n) if k not in (0, skip)] or [skip]
            for i, j in {(cells[0], cells[0]), (cells[-1], cells[-1]), (cells[0], cells[-1]),
                         (cells[len(cells) // 2], cells[-1])}:
                t = {"add": ring.add_table.copy(), "mul": ring.mul_table.copy()}
                t[name][i, j] = t[name][j, i] = (t[name][i, j] + 1) % n
                want = _message(_reference_validate, t["add"], t["mul"], ring.one)
                assert _message(rings.validate_ring_tables, t["add"], t["mul"], ring.one) == want
                messages.add(want)
    assert set(rings._ROW_AXIOMS) < messages


@pytest.mark.parametrize("text, gens, takes", [
    ("GF(2)[x]/(x^6 + x + 1)", 6, 1), ("GF(2)[x]/(x^7 + x + 1)", 7, 4), ("Z/200", 1, 1),
])
def test_validation_blocks_stay_within_the_budget(monkeypatch, text, gens, takes):
    # the distributivity check gathers one flat index per block of
    # generators: an order-64 table's all at once, an order-128 table's two
    # at a time, and Z/200's one generator as a single N^2
    ring = build(parse_ring_spec(text))
    add, mul = ring.add_table.copy(), ring.mul_table.copy()
    assert len(rings._additive_generators(ring.add_rows)) == gens
    sizes = []
    take = np.take

    def spy(a, indices, *args, **kwargs):
        sizes.append(np.size(indices))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    rings.validate_ring_tables(add, mul, ring.one, add.tolist())
    assert len(sizes) == takes
    assert max(sizes) <= max(rings._BLOCK_ENTRIES, ring.order**2)
