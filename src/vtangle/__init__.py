"""Virtual alternating link and tangle census toolkit.

Diagrams are encoded by a single permutation sigma on an even label set;
everything else (faces, genus, strands, flypes, invariants) is derived from
it.  The ``series`` module carries the exact generating-function side
used to cross-check the census counts, from free energies of every genus
that an integer recurrence for rooted maps gives.
"""

from .diagrams import LinkDiagram, TangleDiagram, OrientedDiagram
from .census import canonical_form, enumerate_diagrams, count_table
from .flypes import FlypeSite, apply_flype, flype_classes, flype_sites

__version__ = "0.1.0"

__all__ = [
    "LinkDiagram",
    "TangleDiagram",
    "OrientedDiagram",
    "canonical_form",
    "enumerate_diagrams",
    "count_table",
    "FlypeSite",
    "apply_flype",
    "flype_classes",
    "flype_sites",
    "__version__",
]
