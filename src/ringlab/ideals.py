"""Ideals of a finite ring as membership bitmasks, plus the ideal algebra.

Storing ideals as masks over the carrier turns every quantified condition
("for each a in I ...") into a finite scan, and makes sum, product,
intersection, radical and annihilator cheap exact set computations.  An
ideal is its mask (its element tuple is built on first read), and every
sum of ideals goes through one coset kernel, rings._mask_sum.  The lattice
of a ring built as a product is formed from its factors' lattices, under
the same lattice bound on the product's own order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import DEFAULT_LATTICE_BOUND
from .errors import ForeignElement, NotAnIdeal, OrderTooLarge, RingMismatch
from .rings import Element, FiniteRing, _mask_rows, _mask_sum, _row_masks, bits, mask_of


class Ideal:
    """An ideal, held as (ring, membership bitmask)."""

    __slots__ = ("ring", "mask", "_elems")

    def __init__(self, ring: FiniteRing, mask: int):
        self.ring = ring
        self.mask = mask
        self._elems: tuple[int, ...] | None = None

    @property
    def elems(self) -> tuple[int, ...]:
        if self._elems is None:
            self._elems = tuple(bits(self.mask))
        return self._elems

    def __contains__(self, a: int | Element) -> bool:
        if isinstance(a, Element):
            if a.ring is not self.ring:
                raise ForeignElement("element of a different ring")
            a = a.index
        return bool((self.mask >> a) & 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ideal)
            and self.ring is other.ring
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"Ideal({self.ring.name}, {list(self.elems)})"

    @property
    def is_proper(self) -> bool:
        return not (self.mask >> self.ring.one) & 1

    @property
    def is_zero(self) -> bool:
        return self.mask == 1 << self.ring.zero

    def contains_ideal(self, other: "Ideal") -> bool:
        return other.mask & ~self.mask == 0

    def generators(self) -> tuple[int, ...]:
        """A small deterministic generating set (greedy, ascending index).

        The zero ideal reports (0,) so that every generator list stays
        nonempty and printable in the spec grammar."""
        ring = self.ring
        got = 1 << ring.zero
        gens: list[int] = []
        for a in self.elems:
            if not (got >> a) & 1:
                gens.append(a)
                got = _mask_sum(ring, got, ring.principal_masks[a])
                if got == self.mask:
                    break
        return tuple(gens) if gens else (ring.zero,)


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, 1 << ring.zero)


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, (1 << ring.order) - 1)


def ideal_from_generators(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing the generators (indices or elements)."""
    return Ideal(ring, ring.ideal_mask_from_generators(gens))


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    if i.ring is not j.ring:
        raise RingMismatch("ideals of different rings")
    for x in (i, j):
        if not x.mask & 1 << x.ring.zero:
            raise NotAnIdeal(f"{x!r} does not contain zero")
    return Ideal(i.ring, _mask_sum(i.ring, i.mask, j.mask))


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    if i.ring is not j.ring:
        raise RingMismatch("ideals of different rings")
    ring = i.ring
    mul = ring.mul_rows
    prods = 0
    for a in i.elems:
        row = mul[a]
        for b in j.elems:
            prods |= 1 << row[b]
    return Ideal(ring, ring.ideal_mask_closure(prods))


def ideal_intersection(i: Ideal, j: Ideal) -> Ideal:
    if i.ring is not j.ring:
        raise RingMismatch("ideals of different rings")
    return Ideal(i.ring, i.mask & j.mask)


def _purity_scan(ring: FiniteRing, mask: int, nil: bool) -> tuple[bool, list[list[int]] | int]:
    """Whether every a in the set has b there with a(1-b) zero (purity) or,
    with nil, nilpotent (N-purity).

    The set may be any element set, not only an ideal.  Returns (True,
    [[a, b], ...]) with the smallest b for each a, or (False, the first a
    without one): the lowest bit of a's witness mask within the set.  The
    result is memoized on the ring by (mask, nil) and shared by every
    caller, so callers must not mutate it."""
    key = (mask, nil)
    got = ring.scan_memo.get(key)
    if got is not None:
        return got
    witnesses = ring.npure_witnesses if nil else ring.pure_witnesses
    choices = []
    for a in bits(mask):
        w = witnesses[a] & mask
        if not w:
            got = (False, a)
            break
        choices.append([a, (w & -w).bit_length() - 1])
    else:
        got = (True, choices)
    ring.scan_memo[key] = got
    return got


def _power_chain(i: Ideal) -> list[Ideal]:
    """I, I^2, ..., I^k for the first k with I^k = I^(k+1).

    The chain I >= I^2 >= ... strictly decreases to that point and is
    constant afterwards, so it takes at most |I| products.
    """
    chain = [i]
    while (nxt := ideal_product(chain[-1], i)).mask != chain[-1].mask:
        chain.append(nxt)
    return chain


def ideal_power(i: Ideal, n: int) -> tuple[Ideal, int]:
    """I^n together with the stabilization index of the power chain."""
    if n < 1:
        raise ValueError("power must be >= 1")
    chain = _power_chain(i)
    return chain[min(n, len(chain)) - 1], len(chain)


def radical(i: Ideal) -> Ideal:
    """{a : some power of a lies in I}, read off the power-reach masks and
    memoized by mask on the ring's table data."""
    memo, mask = i.ring.tables.radicals, i.mask
    if mask not in memo:
        memo[mask] = mask_of(a for a, m in enumerate(i.ring.power_masks) if m & mask)
    return Ideal(i.ring, memo[mask])


def annihilator(ring: FiniteRing, target: int | Element | Ideal) -> Ideal:
    """Ann of an element {x : x*a = 0} or of an ideal {x : x*I = 0}."""
    if isinstance(target, Ideal):
        if target.ring is not ring:
            raise RingMismatch("ideal of a different ring")
        mask = (1 << ring.order) - 1
        for a in target.elems:
            mask &= ring.ann_masks[a]
        return Ideal(ring, mask)
    if isinstance(target, Element):
        if target.ring is not ring:
            raise ForeignElement("element of a different ring")
        target = target.index
    return Ideal(ring, ring.ann_masks[target])


def all_ideals(ring: FiniteRing, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> list[Ideal]:
    """The complete ideal lattice, sorted by (size, mask).

    The bound applies to the ring's own order; see _lattice_masks for how
    the lattice is enumerated.
    """
    if ring.order > lattice_bound:
        raise OrderTooLarge(
            f"order {ring.order} exceeds lattice bound {lattice_bound}"
        )
    return [Ideal(ring, m) for m in _sorted_lattice_masks(ring)]


def _sorted_lattice_masks(ring: FiniteRing) -> list[int]:
    """The masks of every ideal, sorted by (size, mask), memoized on the
    table data that every ring with the same tables shares."""
    tables = ring.tables
    if tables.lattice is None:
        tables.lattice = sorted(_lattice_masks(ring), key=lambda m: (m.bit_count(), m))
    return tables.lattice


def _lattice_masks(ring: FiniteRing) -> list[int]:
    """The masks of every ideal, in no particular order.

    The ideals of R_1 x ... x R_k are exactly the products I_1 x ... x I_k
    (Atiyah-Macdonald, Ch. 1, Ex. 1.22), so a ring built as a product
    combines its factors' lattices with whole-array operations, the first
    factor's index most significant as in product_ring.  Any other ring
    closes the zero ideal under I -> I + (a) over the distinct nonzero
    principal ideals (a), each sum one _mask_sum; every ideal of a finite
    ring is a sum of principal ideals, so the closure reaches them all.
    """
    if ring.factors:
        rows = np.ones((1, 1), dtype=bool)
        for f in ring.factors:
            own = _mask_rows(_sorted_lattice_masks(f), f.order)
            rows = (rows[:, None, :, None] & own[None, :, None, :]).reshape(
                rows.shape[0] * own.shape[0], rows.shape[1] * own.shape[1]
            )
        return _row_masks(rows)
    zero = 1 << ring.zero
    principals = set(ring.principal_masks) - {zero}
    masks = {zero}
    worklist = [zero]
    while worklist:
        m = worklist.pop()
        for p in principals:
            s = _mask_sum(ring, m, p)
            if s not in masks:
                masks.add(s)
                worklist.append(s)
    return list(masks)


@dataclass(frozen=True)
class PrimalityResult:
    value: bool
    witness: tuple[int, ...] | None = None


def is_prime_ideal(i: Ideal) -> PrimalityResult:
    """ab in I implies a in I or b in I, with I proper; witness = bad (a,b)."""
    ring = i.ring
    if not i.is_proper:
        return PrimalityResult(False, (ring.one,))
    mask = i.mask
    mul = ring.mul_rows
    outside = [a for a in range(ring.order) if not (mask >> a) & 1]
    for a in outside:
        row = mul[a]
        for b in outside:
            if b < a:
                continue
            if (mask >> row[b]) & 1:
                return PrimalityResult(False, (a, b) if a <= b else (b, a))
    return PrimalityResult(True)


def is_primary_ideal(i: Ideal) -> PrimalityResult:
    """ab in I and a not in I imply b in radical(I); witness = bad (a,b)."""
    ring = i.ring
    if not i.is_proper:
        return PrimalityResult(False, (ring.one,))
    mask = i.mask
    rad = radical(i).mask
    mul = ring.mul_rows
    for a in range(ring.order):
        if (mask >> a) & 1:
            continue
        row = mul[a]
        for b in range(ring.order):
            if (mask >> row[b]) & 1 and not (rad >> b) & 1:
                return PrimalityResult(False, (a, b))
    return PrimalityResult(True)


def is_maximal_ideal(
    i: Ideal, lattice_bound: int = DEFAULT_LATTICE_BOUND
) -> PrimalityResult:
    """Proper with no proper ideal strictly above it.

    Within the lattice bound the definition is checked by containment scan;
    above it the equivalent cosets-form-a-field test is used.
    """
    ring = i.ring
    if not i.is_proper:
        return PrimalityResult(False, (ring.one,))
    if ring.order <= lattice_bound:
        for j in all_ideals(ring, lattice_bound):
            if j.is_proper and j.mask != i.mask and j.contains_ideal(i):
                return PrimalityResult(False, tuple(j.elems))
        return PrimalityResult(True)
    return PrimalityResult(ring.is_maximal_mask(i.mask))


def nilradical(ring: FiniteRing) -> Ideal:
    """The set of nilpotent elements (an ideal in a commutative ring)."""
    return Ideal(ring, ring.nil_mask)


def jacobson_radical(ring: FiniteRing, maximal: list[Ideal]) -> Ideal:
    """Intersection of the given maximal ideals of the ring.

    Above the lattice bound, where the maximal ideals are not enumerated,
    ring.jacobson_mask gives the same set by the element-level
    characterization {a : 1 - ab is a unit for all b}.
    """
    mask = (1 << ring.order) - 1
    for m in maximal:
        mask &= m.mask
    return Ideal(ring, mask)


def power_intersection_hypothesis(i: Ideal) -> tuple[bool, int | None]:
    """For every x does some n give R*x^n  intersect I  =  x^n * I?

    The exponent search runs over the powers of x that x reaches.  Returns
    (verdict, failing x).  A positive verdict is a sufficient condition for
    the ideal to be N-pure, which tests exercise as an implication.
    """
    ring = i.ring
    mul = ring.mul_rows
    for x, powers in enumerate(ring.power_masks):
        if not any(
            ring.principal_masks[xn] & i.mask == mask_of(mul[xn][e] for e in i.elems)
            for xn in bits(powers)
        ):
            return False, x
    return True, None
