"""qweyl: exact normal ordering in the (q-deformed) Heisenberg algebra.

The package normal-orders words in the unital algebra generated by a, b
(and optionally a grading generator N) subject to

    a*b = sigma*b*a + r        r central, or r = F(N)

with exact rational-function coefficients, verifies a catalog of operator
identities (reporting exact residuals on failure, including the variants
that only hold after rescaling the constants by the central remainder), and
cross-validates the abstract engine against concrete representations on
polynomial spaces and truncated Fock matrices.

The hot kernels are plain Python dict arithmetic in ``qweyl._kernels``.
"""

from . import identities, parser, reps, scalar, verdict, weyl
from .identities import *
from .parser import *
from .reps import *
from .scalar import *
from .verdict import *
from .weyl import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__", *scalar.__all__, *weyl.__all__, *verdict.__all__, *identities.__all__, *reps.__all__, *parser.__all__]
