"""Interned table data: each distinct (add, mul, one) is validated and
derived once while some ring holds it, rings keep their own names, and no
table data outlives the rings of a request."""

from __future__ import annotations

import gc
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import ideals, rings
from ringlab.cli import main
from ringlab.errors import ForeignElement, NotARing, OrderTooLarge
from ringlab.ideals import _purity_scan, all_ideals
from ringlab.rings import FiniteRing, bits, build
from ringlab.specs import LocalizeAt, PolyQuot, Product, Quotient, TableSpec, Zmod

# every FiniteRing attribute read from its table data
SHARED = (
    "add_rows",
    "mul_rows",
    "neg_of",
    "power_masks",
    "ann_masks",
    "principal_masks",
    "one_minus",
    "ann_chains",
    "nil_mask",
    "purity_witnesses",
    "unit_mask",
    "jacobson_mask",
    "idempotents",
)


def _triple(tables: rings._Tables) -> tuple:
    return tables.add_bytes, tables.mul_bytes, tables.one


def _fresh(ring: FiniteRing) -> rings._Tables:
    """Table data recomputed from the ring's tables, outside the interner."""
    add, mul = ring.add_table, ring.mul_table
    key = (add.shape, mul.shape, add.tobytes(), mul.tobytes(), ring.one)
    return rings._Tables(key, add.tolist())


def _scan(tables: rings._Tables, mask: int, nil: bool) -> tuple:
    """ideals._purity_scan's result, recomputed from the witness sets."""
    witnesses = tables.purity_witnesses[nil]
    choices = []
    for a in bits(mask):
        w = witnesses[a] & mask
        if not w:
            return False, a
        choices.append([a, (w & -w).bit_length() - 1])
    return True, choices


def _relabelled_z(n: int) -> FiniteRing:
    """Z/n with the labels 2 and n - 1 swapped: tables no other test builds,
    so the ring's table data is new."""
    label = np.arange(n)
    label[[2, n - 1]] = [n - 1, 2]
    add = label[(label[:, None] + label[None, :]) % n]
    mul = label[(label[:, None] * label[None, :]) % n]
    return FiniteRing(add, mul, one=1, spec=TableSpec(f"z{n}-relabelled.tbl"))


@pytest.fixture(scope="module")
def catalog16_run(tmp_path_factory):
    """One in-process `verify-catalog --max-order 16`, recording the tables
    every FiniteRing is built with, each validation and each lattice
    enumeration, with automatic garbage collection off throughout."""
    built: set[tuple] = set()
    record = {"validated": 0, "enumerated": Counter()}
    validate, init, enumerate_ = (
        rings.validate_ring_tables, FiniteRing.__init__, ideals._lattice_masks
    )

    def counted_validate(*args):
        record["validated"] += 1
        return validate(*args)

    def recorded_init(self, add, mul, one, spec, factors=()):
        built.add((
            np.asarray(add, dtype=np.int32).tobytes(),
            np.asarray(mul, dtype=np.int32).tobytes(),
            one,
        ))
        init(self, add, mul, one, spec, factors)

    def counted_lattice(ring):
        record["enumerated"][_triple(ring.tables)] += 1
        return enumerate_(ring)

    enabled = gc.isenabled()
    # free what earlier tests left in reference cycles, so that a cycle the
    # run makes cannot hide behind table data that is already held
    gc.collect()
    gc.disable()
    try:
        # table data other live rings hold before the run, kept alive through it
        held = dict(rings._INTERNED)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "validate_ring_tables", counted_validate)
            mp.setattr(FiniteRing, "__init__", recorded_init)
            mp.setattr(ideals, "_lattice_masks", counted_lattice)
            path = tmp_path_factory.mktemp("catalog") / "catalog16.json"
            status = main(["verify-catalog", "--max-order", "16", "--json", str(path)])
            after = set(rings._INTERNED)
    finally:
        if enabled:
            gc.enable()
    return status, built, record, held, after


def test_no_table_data_outlives_a_catalog_request(catalog16_run, capsys):
    status, built, record, held, after = catalog16_run
    capsys.readouterr()
    assert status == 0
    assert record["validated"] > 0
    # collection was off, so the rings were freed by reference counting alone
    assert after == set(held)


def test_no_table_data_outlives_a_spectrum_request(capsys):
    enabled = gc.isenabled()
    gc.disable()
    try:
        held = dict(rings._INTERNED)
        assert main(["spectrum", "product(Z/8, Z/8)"]) == 0
        assert set(rings._INTERNED) == set(held)
    finally:
        if enabled:
            gc.enable()
    assert "maximal" in capsys.readouterr().out


def test_no_table_data_outlives_a_check_request(capsys):
    # quotients, localizations and the product check: the quotient memo on
    # the table data keeps arrays, not rings
    enabled = gc.isenabled()
    gc.disable()
    try:
        held = dict(rings._INTERNED)
        assert main(["check", "product(Z/4, quotient(Z/12; 4))"]) == 0
        assert set(rings._INTERNED) == set(held)
    finally:
        if enabled:
            gc.enable()
    assert "checks:" in capsys.readouterr().out


def test_each_distinct_table_is_validated_once(catalog16_run):
    _, built, record, held, _ = catalog16_run
    held_triples = {_triple(t) for t in held.values()}
    # 1,478 rings of 83 distinct tables in a fresh process
    assert len(built) == 83
    assert record["validated"] == len(built - held_triples)


def test_each_distinct_lattice_is_enumerated_once(catalog16_run):
    # quotient sources are enumerated by default_catalog and again by their
    # RingContext; products read their factors' lattices
    _, _, record, _, _ = catalog16_run
    assert record["enumerated"]
    assert max(record["enumerated"].values()) == 1


def test_invalid_tables_raise_every_time(monkeypatch):
    calls = []
    validate = rings.validate_ring_tables

    def counted(*args):
        calls.append(args)
        return validate(*args)

    r = build(Zmod(4))
    add, mul = r.add_table.copy(), r.mul_table.copy()
    monkeypatch.setattr(rings, "validate_ring_tables", counted)
    mul[2, 3] = mul[3, 2] = 1
    messages = []
    for _ in range(2):
        with pytest.raises(NotARing) as exc:
            FiniteRing(add, mul, one=1, spec=Zmod(4))
        messages.append(str(exc.value))
    assert messages == ["multiplication is not associative"] * 2
    assert len(calls) == 2
    assert all(_triple(t) != (add.tobytes(), mul.tobytes(), 1) for t in rings._INTERNED.values())


def test_equal_tables_share_data_but_not_names():
    a, b = build(Zmod(4)), build(Zmod(4))
    assert a is not b and a.tables is b.tables
    assert a.spec == b.spec and a.spec is not b.spec
    assert a.key == b.key

    prod = build(Product((Zmod(2), Zmod(2))))
    table = FiniteRing(prod.add_table, prod.mul_table, prod.one, spec=TableSpec("v4.tbl"))
    assert table.tables is prod.tables
    assert (prod.name, table.name) == ("product(Z/2, Z/2)", "table:v4.tbl")
    assert len(prod.factors) == 2 and table.factors == ()
    # the keys reuse the interned bytes, and differ by the factors
    assert prod.key[0] is table.key[0] is prod.tables.add_bytes
    assert prod.key[:3] == table.key[:3]
    assert prod.key != table.key

    # ideals and elements stay bound to their own ring
    for ring in (prod, table):
        assert all(i.ring is ring for i in all_ideals(ring))
    assert [i.mask for i in all_ideals(prod)] == [i.mask for i in all_ideals(table)]
    with pytest.raises(ForeignElement):
        prod.add(table.element(1), 1)


def test_table_data_is_derived_on_first_use():
    ring = _relabelled_z(12)
    twin = FiniteRing(ring.add_table, ring.mul_table, ring.one, spec=Zmod(12))
    assert not set(SHARED[3:]) & set(vars(ring.tables))
    assert twin.ann_masks[4] == ring.ann_masks[4] == 0b1001001001
    # derived once, on the shared data; each ring keeps a reference to it
    assert "ann_masks" in vars(ring.tables)
    assert ring.ann_masks is twin.ann_masks is ring.tables.ann_masks


def test_every_derived_table_attribute_is_forwarded_and_listed():
    # the two hand-kept lists of shared data: FiniteRing's forwarders and SHARED
    derived = {name for name, attr in vars(rings._Tables).items()
               if isinstance(attr, cached_property)}
    assert "mul_rows" in derived
    ring = _relabelled_z(6)
    for name in derived:
        assert isinstance(vars(FiniteRing).get(name), cached_property), name
        assert getattr(ring, name) is getattr(ring.tables, name), name
    assert sorted(SHARED) == sorted(derived | {"add_rows"})


def test_a_memoized_lattice_keeps_the_bound():
    ring = _relabelled_z(12)
    twin = FiniteRing(ring.add_table, ring.mul_table, ring.one, spec=Zmod(12))
    assert len(all_ideals(ring)) == 6
    assert ring.tables.lattice is not None
    with pytest.raises(OrderTooLarge, match="^order 12 exceeds lattice bound 8$"):
        all_ideals(twin, lattice_bound=8)


def test_the_table_data_refers_to_no_ring():
    # with collection off, the entry goes only if no cycle holds the ring
    enabled = gc.isenabled()
    gc.disable()
    try:
        ring = _relabelled_z(10)
        for name in SHARED:
            getattr(ring, name)
        all_ideals(ring)
        _purity_scan(ring, ring.nil_mask, nil=True)
        key = next(k for k, t in rings._INTERNED.items() if t is ring.tables)
        del ring
        assert key not in rings._INTERNED
    finally:
        if enabled:
            gc.enable()


TWINS = [
    Zmod(12),
    Zmod(16),
    PolyQuot(2, (0, 0, 1)),
    PolyQuot(3, (2, 1, 1)),
    Product((Zmod(4), Zmod(3))),
    Product((Zmod(2), Zmod(2), Zmod(3))),
    Quotient(Zmod(24), (4,)),
    LocalizeAt(Zmod(36), (2,)),
]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=st.sampled_from(TWINS),
    touched=st.lists(st.sampled_from(SHARED), max_size=5),
    masks=st.lists(st.integers(min_value=1), min_size=1, max_size=4),
)
def test_shared_data_equals_a_fresh_recomputation(spec, touched, masks):
    ring = build(spec)
    # a twin with equal tables, another name and no factors
    twin = FiniteRing(ring.add_table, ring.mul_table, ring.one, spec=TableSpec("twin.tbl"))
    assert twin.tables is ring.tables
    full = (1 << ring.order) - 1
    masks = [m & full for m in masks]
    # fill some of the data and the memos through the ring, read through the twin
    for name in touched:
        getattr(ring, name)
    for m in masks:
        ring.one_minus_image(m)
        _purity_scan(ring, m, nil=bool(m & 1))
    all_ideals(ring)
    fresh = _fresh(ring)
    assert np.array_equal(twin.add_table, fresh.add_table)
    assert np.array_equal(twin.mul_table, fresh.mul_table)
    for name in SHARED:
        assert getattr(twin, name) == getattr(fresh, name), (spec, name)
    for m in masks:
        assert twin.one_minus_image(m) == fresh.one_minus_image(m)
    for (m, nil), got in twin.scan_memo.items():
        assert got == _scan(fresh, m, nil), (spec, m, nil)
    lattice = sorted(ideals._lattice_masks(ring), key=lambda m: (m.bit_count(), m))
    assert [i.mask for i in all_ideals(twin)] == lattice
