"""The ideal lattice, ideal sums and ideal closures against pairwise loops.

`all_ideals` closes the zero ideal under I -> I + (a) over the principal
ideals, and every sum, there and in `ideal_mask_closure`, is one call of
the coset kernel `_mask_sum`.  The loops below are the plain searches they
replace: the lattice as the closure of the principal ideals under pairwise
sums, each sum as the set {a + b}, and the closure as a breadth-first
search over sums of reached elements.  They define the expected masks, and
the kernel must give exactly the same, in the same order.
"""

from __future__ import annotations

import importlib.util
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import ideals
from ringlab.catalog import default_catalog
from ringlab.ideals import all_ideals
from ringlab.rings import _mask_sum, bits, build
from ringlab.specs import Product, Zmod, parse_ring_spec

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "workloads.py")


# -- reference loops ------------------------------------------------------


def _reference_sum(ring, m1, m2):
    add = ring.add_rows
    elems2 = list(bits(m2))
    total = 0
    for a in bits(m1):
        row = add[a]
        for b in elems2:
            total |= 1 << row[b]
    return total


def _reference_lattice(ring):
    """The lattice sorted by (size, mask), and the sum of every pair of its
    members, keyed by the pair in ascending order."""
    masks = {1 << ring.zero}
    masks.update(ring.principal_masks)
    sums = {}
    worklist = list(masks)
    while worklist:
        m = worklist.pop()
        for other in list(masks):
            key = (min(m, other), max(m, other))
            s = sums.get(key)
            if s is None:
                s = sums[key] = _reference_sum(ring, m, other)
            if s not in masks:
                masks.add(s)
                worklist.append(s)
    return sorted(masks, key=lambda m: (m.bit_count(), m)), sums


def _reference_closure(ring, seed):
    members = list(bits(seed))
    mask = seed
    queue = list(members)
    while queue:
        row = ring.add_rows[queue.pop()]
        for y in members[:]:
            s = row[y]
            if not (mask >> s) & 1:
                mask |= 1 << s
                members.append(s)
                queue.append(s)
    return mask


# -- comparison -------------------------------------------------------------


def _assert_lattice_matches(ring):
    """The lattice mask for mask and in order, then the kernel on every
    ordered pair of its ideals."""
    masks = [i.mask for i in all_ideals(ring)]
    expected, sums = _reference_lattice(ring)
    assert masks == expected, ring.name
    for m1 in masks:
        for m2 in masks:
            got = _mask_sum(ring, m1, m2)
            assert got == sums[min(m1, m2), max(m1, m2)], (ring.name, m1, m2)


def _distinct_catalog16():
    seen = {}
    for ring in default_catalog(16):
        seen.setdefault(ring.key, ring)
    return list(seen.values())


def test_lattice_and_sums_match_reference_on_catalog16():
    rings = _distinct_catalog16()
    assert len(rings) == 124
    for ring in rings:
        _assert_lattice_matches(ring)


def _spectrum_queries_specs(seed):
    spec = importlib.util.spec_from_file_location("ringlab_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv[1] for _, argv in workloads.requests("spectrum_queries", seed)]


def test_lattice_and_sums_match_reference_on_spectrum_queries():
    # every ring of one seed's spectrum requests: order 2-64, products of up
    # to three factors, quotients and localizations
    texts = _spectrum_queries_specs(1)
    assert len(texts) > 700
    for text in texts:
        ring = build(parse_ring_spec(text))
        assert ring.order <= 64, text
        _assert_lattice_matches(ring)


_SMALL_SPECS = st.one_of(
    st.integers(2, 64).map(Zmod),
    st.integers(2, 32).flatmap(
        lambda a: st.integers(2, 64 // a).map(lambda b: Product((Zmod(a), Zmod(b))))
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_SMALL_SPECS, st.data())
def test_lattice_sums_and_closure_match_reference_on_sampled_specs(spec, data):
    ring = build(spec)
    _assert_lattice_matches(ring)
    # the closure of a union of principal ideals is the ideal they generate
    gens = data.draw(st.lists(st.integers(0, ring.order - 1), max_size=4))
    seed = 1 << ring.zero
    for g in gens:
        seed |= ring.principal_masks[g]
    assert ring.ideal_mask_closure(seed) == _reference_closure(ring, seed), (spec, gens)


# -- lazy element lists ---------------------------------------------------


def test_lattice_builds_no_element_list_until_read(monkeypatch):
    calls = []

    def counting_bits(mask):
        calls.append(mask)
        return bits(mask)

    monkeypatch.setattr(ideals, "bits", counting_bits)
    for text in ("Z/12", "product(Z/4, Z/6)", "GF(2)[x]/(x^4)"):
        lattice = all_ideals(build(parse_ring_spec(text)))
        assert calls == [], text
        top = lattice[-1]
        assert len(top) == top.mask.bit_count()
        assert calls == []
        assert top.elems == tuple(range(top.mask.bit_length()))
        assert top.elems is top.elems  # built once, then kept
        assert calls == [top.mask]
        calls.clear()


def test_length_is_the_element_count_on_catalog16():
    for ring in _distinct_catalog16():
        for i in all_ideals(ring):
            assert len(i) == len(i.elems), (ring.name, i.mask)


@pytest.mark.parametrize("text", ["Z/200", "product(Z/8, Z/8)"])
def test_kernel_matches_reference_on_principal_pairs_above_the_lattice_bound(text):
    # the pairwise principal sums that sample the universe of large rings
    ring = build(parse_ring_spec(text))
    principals = sorted(set(ring.principal_masks))
    for m1 in principals:
        for m2 in principals:
            assert _mask_sum(ring, m1, m2) == _reference_sum(ring, m1, m2), (text, m1, m2)
