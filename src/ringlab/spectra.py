"""Prime spectrum, localization kernels, vanishing sets, pure spectrum."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotPrime
from .ideals import Ideal, _first_bad_pairs, _purity_scan, ideal_product, is_prime_ideal
from .rings import FiniteRing


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


def spectrum(lattice: list[Ideal]) -> Spectrum:
    """Scan the ideal lattice for primes, every proper ideal at once with the
    pair kernel of is_prime_ideal; classify minimal/maximal by inclusion."""
    proper = [i for i in lattice if i.is_proper]
    bad = _first_bad_pairs(lattice[0].ring, [i.mask for i in proper])
    primes = [i for i, pair in zip(proper, bad) if pair is None]
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
    return Spectrum(lattice[0].ring, primes, minimal, maximal)


def ker_pi(ring: FiniteRing, p: Ideal) -> Ideal:
    """Kernel of the localization map at a prime: {a : s*a = 0, s outside p}."""
    if not is_prime_ideal(p).value:
        raise NotPrime(f"ideal {list(p.elems)} of {ring.name} is not prime")
    return Ideal(ring, ring.localization_kernel_mask(p.mask))


def vanishing_set(i: Ideal, spec: Spectrum) -> list[Ideal]:
    """Primes containing the ideal, sorted by mask for deterministic reports."""
    return sorted((p for p in spec.primes if p.contains_ideal(i)), key=lambda p: p.mask)


def pure_ideals(lattice: list[Ideal]) -> list[Ideal]:
    """The ideals of the lattice passing the element-wise purity test."""
    ring = lattice[0].ring
    return [i for i in lattice if _purity_scan(ring, i.mask, nil=False)[0]]


@dataclass
class PureSpectrum:
    """Proper ideals P such that IJ <= P with I, J pure forces I <= P or J <= P."""

    ring: FiniteRing
    members: list[Ideal]


def pure_spectrum(lattice: list[Ideal], pures: list[Ideal]) -> PureSpectrum:
    """Brute force over the proper ideals P of the lattice and the pairs of
    its pure ideals as masks: IJ = JI and the test is symmetric in I and J,
    so each unordered pair is tried once."""
    pairs = [
        (i.mask, j.mask, ideal_product(i, j).mask) for k, i in enumerate(pures) for j in pures[k:]
    ]
    members = [
        p for p in lattice if p.is_proper and not any(
            prod & ~p.mask == 0 and i & ~p.mask and j & ~p.mask for i, j, prod in pairs
        )
    ]
    members.sort(key=lambda i: i.mask)
    return PureSpectrum(lattice[0].ring, members)
