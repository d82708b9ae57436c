"""Deterministic generation of the default verification catalog."""

from __future__ import annotations

from itertools import product as iter_product

from .bounds import Bounds
from .errors import OrderTooLarge
from .ideals import all_ideals
from .rings import FiniteRing, build, quotient_ring
from .specs import PolyQuot, Product, Quotient, RingSpec, Zmod, print_ring_spec

QUOTIENT_SOURCE_BOUND = 16


def spec_order(spec: RingSpec) -> int:
    """Order of the ring a spec denotes, where cheaply predictable."""
    if isinstance(spec, Zmod):
        return spec.n
    if isinstance(spec, PolyQuot):
        return spec.p ** (len(spec.coeffs) - 1)
    if isinstance(spec, Product):
        n = 1
        for f in spec.factors:
            n *= spec_order(f)
        return n
    raise ValueError(f"order of {spec!r} is not statically known")


def default_catalog(max_order: int, bounds: Bounds | None = None) -> list[FiniteRing]:
    """Z/n, small GF(p)[x] quotients (reducible moduli included), all
    two-factor products fitting the order cap, and quotients of the small
    entries by each of their proper ideals, each built once.  Deduplicated
    by spec, deterministic order."""
    if max_order < 4:
        raise ValueError("max_order must be >= 4")
    bounds = bounds or Bounds()
    base: list[RingSpec] = [Zmod(n) for n in range(2, max_order + 1)]
    for p in (2, 3):
        for deg in (1, 2, 3):
            if p**deg > max_order:
                continue
            for tail in iter_product(range(p), repeat=deg):
                base.append(PolyQuot(p, tuple(tail) + (1,)))

    entries: dict[RingSpec, None] = dict.fromkeys(base)

    # unordered pairs, factors ordered large-to-small for a canonical spec
    smalls = [b for b in base if spec_order(b) <= max_order // 2]
    for i, left in enumerate(smalls):
        for right in smalls[i:]:
            if spec_order(left) * spec_order(right) > max_order:
                continue
            pair = sorted(
                (left, right), key=lambda s: (-spec_order(s), print_ring_spec(s))
            )
            entries[Product(tuple(pair))] = None

    rings = {spec: build(spec) for spec in entries}
    for spec, source in list(rings.items()):
        if spec_order(spec) > QUOTIENT_SOURCE_BOUND:
            continue
        try:
            lattice = all_ideals(source, bounds.lattice)
        except OrderTooLarge:
            continue
        for ideal in lattice:
            if not ideal.is_proper:
                continue
            quotient = Quotient(spec, ideal.generators())
            rings[quotient] = quotient_ring(source, ideal.mask, quotient)

    return list(rings.values())
