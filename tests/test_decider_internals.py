"""Negative branches of the purity scans, exercised on raw element sets.

Every ideal of a finite commutative ring is N-pure (such rings are
zero-dimensional), so on valid inputs the eight N-purity routes can only
answer True; the agreement harness checks exactly that.  The scans
themselves work on arbitrary membership masks, though, and their failure
branches and witnesses are pinned down here on sets that are not ideals.
"""

from __future__ import annotations

from ringlab.classify import NPURE_METHODS, RingContext
from ringlab.ideals import Ideal, _purity_scan
from ringlab.rings import build
from ringlab.specs import Zmod


def _subset_ideal(ring, elems):
    mask = 0
    for e in elems:
        mask |= 1 << e
    return Ideal(ring, mask)


def test_pure_scan_failure_witness():
    r = build(Zmod(6))
    ok, witness = _purity_scan(r, 0b000100, r.zero_set)  # the set {2}, not an ideal
    assert not ok and witness == 2


def test_npure_scan_failure_witness():
    # Z/6 is reduced, so a(1-b) nilpotent means a(1-b) = 0
    r = build(Zmod(6))
    ok, witness = _purity_scan(r, 0b000100, r.nil_set)
    assert not ok and witness == 2


def test_npure_def_reports_failing_element():
    r = build(Zmod(6))
    ctx = RingContext(r)
    fake = _subset_ideal(r, [2])
    v = NPURE_METHODS["def"](ctx, fake)
    assert v.value is False and v.witness["element"] == 2


def test_witness_power_reports_failing_element():
    r = build(Zmod(6))
    ctx = RingContext(r)
    fake = _subset_ideal(r, [2, 3])
    v = NPURE_METHODS["witness_power"](ctx, fake)
    assert v.value is False and v.witness["element"] == 2


def test_ann_complement_reports_failing_element():
    # {0, 2} in Z/6: every Ann(2^t) = {0, 3}, and {0,3} + {0,2} misses 1
    r = build(Zmod(6))
    fake = _subset_ideal(r, [0, 2])
    v = NPURE_METHODS["ann_complement"](RingContext(r), fake)
    assert v.value is False and v.witness["element"] == 2


def test_finite_subset_reports_failing_subset():
    r = build(Zmod(6))
    ctx = RingContext(r)
    fake = _subset_ideal(r, [2, 3])
    v = NPURE_METHODS["finite_subset"](ctx, fake)
    assert v.value is False
    assert v.witness["subset"] == [2]  # singleton counterexample, smallest first


def test_radical_formula_mismatch_side():
    # for the non-ideal set {2} in Z/6 the formula set differs from the
    # radical of the generated comparison, flagging a side
    r = build(Zmod(6))
    ctx = RingContext(r)
    fake = _subset_ideal(r, [2])
    v = NPURE_METHODS["radical_formula"](ctx, fake)
    assert v.value is False
    assert v.witness["side"] in ("formula_only", "radical_only")
