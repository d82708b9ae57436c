"""ringlab: an exact verification laboratory for finite commutative rings.

Builds rings from structured specs (modular, polynomial quotients,
products, quotients, localizations, raw tables), enumerates their ideal
lattices and spectra, decides pure/N-pure ideals and the associated ring
classes by families of independent characterizations, cross-validates the
families, and certifies polynomial-ideal membership facts over prime
fields with Buchberger's algorithm.
"""

from .bounds import Bounds
from .catalog import Catalog, default_catalog
from .classify import (
    PropertyReport,
    RingContext,
    Verdict,
    classify_ideal,
    classify_property,
    classify_ring,
    is_npure,
    is_pure,
    npure_primes,
    ring_class,
    verify_theorems,
)
from .groebner import (
    GroebnerBasis,
    PolyFp,
    buchberger,
    example1_certificate,
    ideal_member,
    normal_form,
    parse_poly,
    radical_member,
)
from .ideals import (
    Ideal,
    all_ideals,
    annihilator,
    ideal_from_generators,
    ideal_power,
    jacobson_radical,
    nilradical,
    power_intersection_hypothesis,
    radical,
)
from .rings import (
    Element,
    FiniteRing,
    build,
    find_isomorphism,
    special_elements,
    total_quotient_ring,
)
from .spectra import PureSpectrum, Spectrum, ker_pi, pure_ideals, pure_spectrum, spectrum, vanishing_set
from .specs import parse_ring_spec, print_ring_spec

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "Catalog",
    "Element",
    "FiniteRing",
    "GroebnerBasis",
    "Ideal",
    "PolyFp",
    "PropertyReport",
    "PureSpectrum",
    "RingContext",
    "Spectrum",
    "Verdict",
    "all_ideals",
    "annihilator",
    "buchberger",
    "build",
    "classify_ideal",
    "classify_property",
    "classify_ring",
    "default_catalog",
    "example1_certificate",
    "find_isomorphism",
    "ideal_from_generators",
    "ideal_member",
    "ideal_power",
    "is_npure",
    "is_pure",
    "jacobson_radical",
    "ker_pi",
    "nilradical",
    "normal_form",
    "npure_primes",
    "parse_poly",
    "parse_ring_spec",
    "power_intersection_hypothesis",
    "print_ring_spec",
    "pure_ideals",
    "pure_spectrum",
    "radical",
    "radical_member",
    "ring_class",
    "special_elements",
    "spectrum",
    "total_quotient_ring",
    "vanishing_set",
    "verify_theorems",
]
