"""Deterministic generation of the default verification catalog."""

from __future__ import annotations

from itertools import product as iter_product

from .bounds import Bounds, check_order
from .errors import OrderTooLarge
from .ideals import all_ideals
from .rings import FiniteRing, build, product_ring, quotient_ring
from .specs import PolyQuot, Product, Quotient, RingSpec, Zmod

QUOTIENT_SOURCE_BOUND = 16


def default_catalog(max_order: int, bounds: Bounds | None = None) -> list[FiniteRing]:
    """Z/n, small GF(p)[x] quotients (reducible moduli included), all
    two-factor products fitting the order cap, and quotients of the small
    entries by each of their proper ideals, each built once.  Deduplicated
    by spec, deterministic order."""
    if max_order < 4:
        raise ValueError("max_order must be >= 4")
    bounds = bounds or Bounds()
    if max_order > bounds.element:
        # Z/2 ... Z/max_order would stop at the first order above the bound
        check_order(max(2, bounds.element + 1), bounds.element)
    base_specs: list[RingSpec] = [Zmod(n) for n in range(2, max_order + 1)]
    for p in (2, 3):
        for deg in (1, 2, 3):
            if p**deg > max_order:
                continue
            for tail in iter_product(range(p), repeat=deg):
                base_specs.append(PolyQuot(p, tuple(tail) + (1,)))
    base = [build(spec, bounds.element) for spec in base_specs]
    rings: dict[RingSpec, FiniteRing] = {ring.spec: ring for ring in base}

    # unordered pairs, factors ordered large-to-small for a canonical spec
    smalls = [b for b in base if b.order <= max_order // 2]
    for i, left in enumerate(smalls):
        for right in smalls[i:]:
            if left.order * right.order > max_order:
                continue
            pair = sorted((left, right), key=lambda r: (-r.order, r.name))
            spec = Product(tuple(r.spec for r in pair))
            rings[spec] = product_ring(pair, spec)

    for spec, source in list(rings.items()):
        if source.order > QUOTIENT_SOURCE_BOUND:
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
