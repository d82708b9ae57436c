"""Size bounds that gate the combinatorially expensive operations.

Full ideal-lattice enumeration is the hotspot, so it gets the tightest
default; element-level scans stay cheap up to a few hundred elements.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_LATTICE_BOUND = 64
DEFAULT_ELEMENT_BOUND = 200
DEFAULT_SPP_BOUND = 24
DEFAULT_PAIR_CHECK_BOUND = 16


@dataclass(frozen=True)
class Bounds:
    """Caps on ring order for the different families of operations.

    lattice: full ideal-lattice enumeration and everything built on it
             (spectra, localizations at primes, pure-ideal lists).
    element: element-level deciders (annihilator scans, purity tests).
    spp: brute-force pure-spectrum enumeration.

    Theorem checks quantified over pairs of ideals are further capped at
    DEFAULT_PAIR_CHECK_BOUND, which has no flag.
    """

    lattice: int = DEFAULT_LATTICE_BOUND
    element: int = DEFAULT_ELEMENT_BOUND
    spp: int = DEFAULT_SPP_BOUND
