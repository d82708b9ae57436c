"""Prime spectrum, localization kernels, vanishing sets, pure spectrum."""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import DEFAULT_LATTICE_BOUND, DEFAULT_SPP_BOUND
from .errors import NotPrime, OrderTooLarge
from .ideals import Ideal, _purity_scan, all_ideals, ideal_product, is_prime_ideal
from .rings import FiniteRing, bits


@dataclass
class Spectrum:
    """All prime ideals of a finite ring with its minimal/maximal sublists.

    For a finite ring the three lists coincide; that is asserted by tests,
    not assumed here: minimal and maximal are recomputed by inclusion scan.
    """

    ring: FiniteRing
    primes: list[Ideal]
    minimal: list[Ideal] = field(default_factory=list)
    maximal: list[Ideal] = field(default_factory=list)


def spectrum(ring: FiniteRing, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> Spectrum:
    """Scan the ideal lattice for primes; classify minimal/maximal by inclusion."""
    primes = [i for i in all_ideals(ring, lattice_bound) if is_prime_ideal(i).value]
    minimal = [
        p
        for p in primes
        if not any(q.mask != p.mask and p.contains_ideal(q) for q in primes)
    ]
    maximal = [
        p
        for p in primes
        if not any(q.mask != p.mask and q.contains_ideal(p) for q in primes)
    ]
    return Spectrum(ring, primes, minimal, maximal)


def ker_pi(ring: FiniteRing, p: Ideal) -> Ideal:
    """Kernel of the localization map at a prime: {a : s*a = 0, s outside p}."""
    if not is_prime_ideal(p).value:
        raise NotPrime(f"ideal {list(p.elems)} of {ring.name} is not prime")
    return Ideal(ring, ring.localization_kernel_mask(p.mask))


def vanishing_set(i: Ideal, spec: Spectrum) -> list[Ideal]:
    """Primes containing the ideal, sorted by mask for deterministic reports."""
    return sorted((p for p in spec.primes if p.contains_ideal(i)), key=lambda p: p.mask)


def pure_ideals(ring: FiniteRing, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> list[Ideal]:
    """All ideals passing the element-wise purity test."""
    lattice = all_ideals(ring, lattice_bound)
    return [i for i in lattice if _purity_scan(ring, i.mask, ring.zero_set)[0]]


@dataclass
class PureSpectrum:
    """Proper ideals P such that IJ <= P with I, J pure forces I <= P or J <= P."""

    ring: FiniteRing
    members: list[Ideal]


def pure_spectrum(
    ring: FiniteRing,
    spp_bound: int = DEFAULT_SPP_BOUND,
    lattice_bound: int = DEFAULT_LATTICE_BOUND,
) -> PureSpectrum:
    """Brute force over proper ideals x pairs of pure ideals."""
    if ring.order > spp_bound:
        raise OrderTooLarge(
            f"order {ring.order} exceeds pure-spectrum bound {spp_bound}"
        )
    lattice = all_ideals(ring, max(lattice_bound, spp_bound))
    pures = [i for i in lattice if _purity_scan(ring, i.mask, ring.zero_set)[0]]
    pure_products = [
        (i, j, ideal_product(i, j)) for i in pures for j in pures
    ]
    members = []
    for p in lattice:
        if not p.is_proper:
            continue
        if all(
            p.contains_ideal(i) or p.contains_ideal(j)
            for i, j, prod in pure_products
            if p.contains_ideal(prod)
        ):
            members.append(p)
    members.sort(key=lambda i: i.mask)
    return PureSpectrum(ring, members)
