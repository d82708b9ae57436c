"""The two kernels of a cold spectrum request against reference loops.

`rings._build_polyquot` multiplies in GF(p)[x]/(f) with d matrix products
over the digits of a * x^t; the reference below is the d^2 loop of outer
products it replaced.  `ideals.all_ideals` enumerates a ring built as a
product from its factors' lattices; the reference is the pairwise-sum
closure of tests/test_lattice_kernel.py on the product's own tables.  Each
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

from ringlab.catalog import default_catalog
from ringlab.ideals import all_ideals
from ringlab.rings import bits, build, is_prime, mask_of, product_ring
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
