"""Switching equivalence of gain graphs over roots of unity.

The package models gains as exponents in a cyclic group of a fixed order,
keeps all group arithmetic exact, and crosses into floating point only for
spectra. Mixed graphs are the order-4 case with gains restricted to
1, i, and -i.
"""

from . import census, errors, gaincore, spectral, switching, symmetry
from .census import *
from .errors import *
from .gaincore import *
from .spectral import *
from .switching import *
from .symmetry import *

__version__ = "0.1.0"

# Republished: the public names are the layer modules' __all__ and the errors.
__all__ = [
    *census.__all__,
    *errors.__all__,
    *gaincore.__all__,
    *spectral.__all__,
    *switching.__all__,
    *symmetry.__all__,
]
