"""Exact arithmetic for classical modular polynomial coefficients.

The package computes the coefficients a_{m,n} of Phi_ell(X, Y) for prime
ell by four independent routes: a closed partition sum, a power-series
recurrence and a full solver driven by the defining identity, all three
from the q-expansion of the j-invariant, and for the top row a
hypergeometric series that needs no j table at all.  It checks p-adic
divisibility patterns of the results.
"""

from .qseries import *
from .jfun import *
from .comb import *
from .closedform import *
from .recurrence import *
from .congruence import *
from .io_cli import *

__version__ = "0.1.0"

# Each module's __all__ is its public API; importing a submodule binds its name here.
__all__ = [name for layer in (qseries, jfun, comb, closedform, recurrence, congruence, io_cli)
           for name in layer.__all__] + ["__version__"]
