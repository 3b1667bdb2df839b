"""Communication-bounded distributed testing of a Gaussian mean.

Users each hold identity-covariance Gaussian samples and may send only a few
bits; a referee must distinguish mean zero from means of norm at least
epsilon.  The package provides the shared rotation machinery (blockwise
randomized Hadamard transforms driven by a metered four-wise independent
seed), the referee's binary product-distribution mean test, five protocols
for homogeneous and heterogeneous populations, and a Monte Carlo harness
with exact bit accounting.
"""

from .binary_test import *
from .brht import *
from .errors import *
from .hadamard import *
from .harness import *
from .protocols import *
from .randomness import *

__version__ = "0.1.0"
