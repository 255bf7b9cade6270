"""Numerical periods, Bergman kernels, and the Siegel-space bracket of curves.

Subpackage map:

* ``symplectic``: the standard symplectic form, the Siegel-space check, the dual pairing.
* ``siegel``: p^{1,0} tensors and their bracket at a period matrix Z, in the
  identified picture (the complex structure J and the endomorphism picture
  are its oracle, ``tests/siegel_oracle.py``).
* ``periods``: curves as branch points, differentials at points, period matrices, Riemann certificate.
* ``bergman``: the Gram matrix of the Hodge product, reproducing elements and
  the kernel value on a curve (its other presentations and the Hodge product
  of arbitrary classes are the oracle ``tests/bergman_oracle.py``).
* ``torelli``: point-supported cup products and the bracket/kernel identity.
* ``weierstrass`` / ``torus``: genus-one lattice functions, potentials, the
  closed-form torus kernel and the exactness check for the connecting form.
* ``cli``: batch commands with JSON reports.
"""

from . import bergman, lattice_sums, periods, siegel, symplectic, torelli, torus, weierstrass
from .errors import CurveKernelError

__version__ = "0.1.0"

__all__ = [
    "CurveKernelError",
    "__version__",
    "bergman",
    "lattice_sums",
    "periods",
    "siegel",
    "symplectic",
    "torelli",
    "torus",
    "weierstrass",
]
