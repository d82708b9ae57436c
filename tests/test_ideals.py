"""Ideal algebra: closures, radicals, annihilators, lattices, primality."""

from __future__ import annotations

import signal

import pytest

from ringlab.catalog import default_catalog
from ringlab.classify import RingContext
from ringlab.errors import OrderTooLarge, RingMismatch
from ringlab.ideals import (
    all_ideals,
    annihilator,
    Ideal,
    ideal_from_generators,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
    is_maximal_ideal,
    is_primary_ideal,
    is_prime_ideal,
    jacobson_radical,
    nilradical,
    power_intersection_hypothesis,
    radical,
    unit_ideal,
    zero_ideal,
)
from ringlab.rings import build
from ringlab.spectra import spectrum
from ringlab.specs import PolyQuot, Product, Zmod


def _z(n):
    return build(Zmod(n))


def validate_ideal(ideal: Ideal) -> None:
    """Assert the ideal axioms on the mask."""
    ring = ideal.ring
    mask = ideal.mask
    assert (mask >> ring.zero) & 1, "ideal must contain zero"
    for a in ideal.elems:
        assert (mask >> ring.neg_of[a]) & 1, f"not closed under negation at {a}"
        row_add = ring.add_rows[a]
        for b in ideal.elems:
            assert (mask >> row_add[b]) & 1, f"not closed under addition at {a}+{b}"
        row_mul = ring.mul_rows[a]
        for r in range(ring.order):
            assert (mask >> row_mul[r]) & 1, f"not closed under multiplication at {r}*{a}"


def test_ideal_from_generators():
    r = _z(12)
    assert ideal_from_generators(r, [3]).elems == (0, 3, 6, 9)
    assert ideal_from_generators(r, []).elems == (0,)
    assert ideal_from_generators(r, [5]).elems == tuple(range(12))  # unit


def test_ideal_sum_product_intersection():
    r = _z(12)
    i3 = ideal_from_generators(r, [3])
    i4 = ideal_from_generators(r, [4])
    i2 = ideal_from_generators(r, [2])
    i6 = ideal_from_generators(r, [6])
    assert ideal_sum(i3, i4) == unit_ideal(r)  # 3+4=7 a unit
    assert ideal_product(i2, i6) == zero_ideal(r)  # 2*6 = 0
    assert ideal_intersection(i3, unit_ideal(r)) == i3


@pytest.mark.parametrize("left, right", [((1,), (2,)), ((0, 2, 4), (1,))])
def test_ideal_sum_names_the_operand_without_zero(left, right):
    # the coset sum needs zero in its first mask and never returned without
    # it, so an alarm turns a hang into a failure
    from ringlab.errors import NotAnIdeal

    r = _z(6)

    def hung(signum, frame):
        raise TimeoutError("ideal_sum did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(NotAnIdeal, match=r"^Ideal\(Z/6, \[1\]\) does not contain zero$"):
            ideal_sum(Ideal(r, sum(1 << a for a in left)), Ideal(r, sum(1 << a for a in right)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        ideal_sum(zero_ideal(_z(4)), zero_ideal(_z(4)))


def test_out_of_range_generator_rejected():
    from ringlab.errors import NotAnIdeal

    with pytest.raises(NotAnIdeal):
        ideal_from_generators(_z(6), [7])


def test_ideal_power_stabilization():
    r4 = _z(4)
    sq, stab = ideal_power(ideal_from_generators(r4, [2]), 2)
    assert sq == zero_ideal(r4) and stab == 2
    r8 = _z(8)
    i2 = ideal_from_generators(r8, [2])
    first, _ = ideal_power(i2, 1)
    assert first == i2
    assert ideal_power(i2, 2)[0].elems == (0, 4)
    cubed, stab = ideal_power(i2, 3)
    assert cubed == zero_ideal(r8) and stab == 3
    assert ideal_power(i2, 9)[0] == zero_ideal(r8)  # constant past stabilization


def test_radical():
    r = _z(12)
    assert radical(ideal_from_generators(r, [4])).elems == (0, 2, 4, 6, 8, 10)
    assert radical(unit_ideal(r)) == unit_ideal(r)
    assert radical(zero_ideal(r)).elems == (0, 6)  # the nilradical


def test_radical_classical_identities():
    for spec in (Zmod(12), Zmod(16), Zmod(18), PolyQuot(2, (0, 0, 0, 1))):
        r = build(spec)
        lattice = all_ideals(r)
        for i in lattice:
            assert radical(radical(i)) == radical(i)
            for j in lattice:
                prod = ideal_product(i, j)
                meet = ideal_intersection(i, j)
                assert radical(prod) == radical(meet)


def test_annihilator():
    r = _z(12)
    assert annihilator(r, 4).elems == (0, 3, 6, 9)
    assert annihilator(r, 0) == unit_ideal(r)
    assert annihilator(r, 3).elems == (0, 4, 8)
    # ideal annihilator: Ann((2)) = {x : 2x = 0} = (6)
    i2 = ideal_from_generators(r, [2])
    assert annihilator(r, i2).elems == (0, 6)


def test_annihilator_chain_stabilizes():
    for spec in (Zmod(12), Zmod(16), PolyQuot(3, (0, 0, 1)), Product((Zmod(4), Zmod(3)))):
        r = build(spec)
        for a in range(r.order):
            masks = []
            power = a
            for _ in range(r.order + 1):
                masks.append(r.ann_masks[power])
                power = r.mul_rows[power][a]
            for i in range(len(masks) - 1):
                assert masks[i] | masks[i + 1] == masks[i + 1]  # ascending
                if masks[i] == masks[i + 1]:
                    assert all(m == masks[i] for m in masks[i + 1 :])
                    break
            t, stable = len(r.ann_chains[a]), r.ann_chains[a][-1]
            assert stable == masks[t - 1] == masks[t]


def test_all_ideals_divisor_count():
    def divisor_count(n):
        return sum(1 for d in range(1, n + 1) if n % d == 0)

    for n in range(2, 49):
        assert len(all_ideals(_z(n))) == divisor_count(n), n


def test_all_ideals_examples():
    assert len(all_ideals(_z(12))) == 6
    assert len(all_ideals(build(PolyQuot(5, (3, 1))))) == 2  # a field
    quot = build(PolyQuot(2, (0, 0, 1)))
    assert [list(i.elems) for i in all_ideals(quot)] == [[0], [0, 2], [0, 1, 2, 3]]


def test_all_ideals_respects_bound():
    with pytest.raises(OrderTooLarge):
        all_ideals(_z(70), lattice_bound=64)


def test_every_ideal_validates():
    for spec in (Zmod(24), Product((Zmod(4), Zmod(9))), PolyQuot(2, (0, 0, 0, 1))):
        r = build(spec)
        for i in all_ideals(r):
            validate_ideal(i)
        validate_ideal(radical(all_ideals(r)[1]))
        validate_ideal(annihilator(r, 2))


def test_primality():
    r = _z(12)
    i2 = ideal_from_generators(r, [2])
    i4 = ideal_from_generators(r, [4])
    i6 = ideal_from_generators(r, [6])
    assert is_prime_ideal(i2).value
    res4 = is_prime_ideal(i4)
    assert not res4.value and res4.witness == (2, 2)
    assert is_primary_ideal(i4).value
    res6 = is_primary_ideal(i6)
    assert not res6.value
    a, b = res6.witness
    assert r.mul_rows[a][b] in i6 and a not in i6 and b not in radical(i6)
    assert not is_prime_ideal(unit_ideal(r)).value


def test_maximality_lattice_and_field_test_agree():
    for spec in (Zmod(12), Zmod(16), Product((Zmod(2), Zmod(9)))):
        r = build(spec)
        for i in all_ideals(r):
            by_lattice = is_maximal_ideal(i).value
            by_field = i.is_proper and r.is_maximal_mask(i.mask)
            assert by_lattice == by_field


def test_nilradical_equals_jacobson_on_finite_rings():
    for spec in (Zmod(12), Zmod(6), Zmod(16), PolyQuot(2, (0, 0, 1)), Product((Zmod(4), Zmod(3)))):
        r = build(spec)
        assert nilradical(r) == jacobson_radical(r, spectrum(all_ideals(r)).maximal)


def test_jacobson_examples():
    z6 = _z(6)
    assert jacobson_radical(z6, spectrum(all_ideals(z6)).maximal).elems == (0,)
    assert nilradical(_z(12)).elems == (0, 6)
    assert nilradical(build(PolyQuot(2, (0, 0, 1)))).elems == (0, 2)


def test_jacobson_mask_is_the_intersection_of_the_maximal_ideals():
    # RingContext.jacobson reads the element-level mask at every order; the
    # definition, the intersection of the maximal ideals, must give that set
    specs = [Zmod(n) for n in (6, 12, 16, 30)]
    specs += [Product((Zmod(4), Zmod(9))), PolyQuot(2, (0, 0, 0, 1)), PolyQuot(3, (1, 0, 1))]
    tables = {r.tables: r for r in default_catalog(16)}
    rings = [build(spec) for spec in specs] + list(tables.values())
    assert len(tables) == 83
    for r in rings:
        by_definition = jacobson_radical(r, spectrum(all_ideals(r)).maximal)
        assert by_definition == Ideal(r, r.jacobson_mask) == RingContext(r).jacobson, r.name


def test_power_intersection_hypothesis():
    r4 = _z(4)
    assert power_intersection_hypothesis(ideal_from_generators(r4, [2]))[0]
    for spec in (Zmod(12), Zmod(8)):
        r = build(spec)
        assert power_intersection_hypothesis(unit_ideal(r))[0]
        assert power_intersection_hypothesis(zero_ideal(r))[0]


def test_power_intersection_implies_npure():
    from ringlab.classify import is_npure

    for r in default_catalog(16):
        ctx = RingContext(r)
        for i in all_ideals(r):
            holds, _ = power_intersection_hypothesis(i)
            if holds:
                assert is_npure(i, "def", ctx).value, (r.spec, list(i.elems))


def test_generators_regenerate_ideal():
    for spec in (Zmod(24), Product((Zmod(4), Zmod(3)))):
        r = build(spec)
        for i in all_ideals(r):
            assert ideal_from_generators(r, i.generators()) == i


def test_maximality_above_the_lattice_bound_uses_the_field_test():
    # Z/12 is over a lattice bound of 8: the answer comes from the cosets,
    # with no witness, and matches the containment scan's
    r = _z(12)
    for i in all_ideals(r):
        within = is_maximal_ideal(i)
        above = is_maximal_ideal(i, lattice_bound=8)
        assert above.value == within.value
        assert above.witness == (None if i.is_proper else (r.one,))
    assert [i.elems for i in all_ideals(r) if is_maximal_ideal(i, lattice_bound=8).value] == [
        (0, 3, 6, 9), (0, 2, 4, 6, 8, 10)
    ]
