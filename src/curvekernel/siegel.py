"""The bracket tensor on p^{1,0} at a point of Siegel space, in the identified picture.

At a fixed complex structure the symplectic Lie algebra splits into the
commuting part and the anticommuting part p, and the bracket of two
p-elements lands back in the commuting part. The paper's bracket lives on
p^{1,0}, which this module writes in the coordinates of the period matrix
Z = X + iY itself: a p^{1,0} tensor is a g x g matrix t mapping
H10 = (I; Z^T) to H01 = conj(H10) (``p_tensor``), and its membership
condition is the symmetry of Qstar(., t .), where Qstar on H10 x H01 is
conj(Z) - Z^T = -2iY. ``bracket_identified`` computes the bracket
(s, conj t) -> conj(t) s there. Z must be a point of Siegel space, such as
a period matrix that passed the Riemann certificate of ``periods``; both
functions check it with ``siegel_residuals`` against ``TOL_RIEMANN``.

The endomorphism picture, with the complex structure J of Z, p^{1,0}
inside End(V_C) and the bracket a matrix commutator, is the independent
reference for that formula; it lives with the tests, in
``tests/siegel_oracle.py``.
"""
from __future__ import annotations

import numpy as np

from .errors import RiemannRelationError, SpMembershipError
from .symplectic import MATRIX_TOL, TOL_RIEMANN, siegel_residuals


def _qstar_pairing_matrix(Z: np.ndarray) -> np.ndarray:
    """K with K @ t = matrix of Qstar(., t .) restricted to H10: H10^T Q H01 = conj(Z) - Z^T."""
    return Z.conj() - Z.T


def p_tensor(Z, t) -> np.ndarray:
    """t as a complex g x g array, checked to be a p^{1,0} tensor at a point Z of Siegel space."""
    Z, t = np.asarray(Z, dtype=complex), np.asarray(t, dtype=complex)
    g = len(Z)
    if Z.shape != (g, g) or t.shape != (g, g) or not (np.isfinite(Z).all() and np.isfinite(t).all()):
        raise SpMembershipError(f"expected finite {g}x{g} matrices, got shapes {Z.shape} and {t.shape}")
    residual, min_eig = siegel_residuals(Z)
    if residual > TOL_RIEMANN or min_eig <= 0:
        raise RiemannRelationError(
            f"Z is outside Siegel space (||Z - Z^T|| = {residual:.3e}, min eig Im Z = {min_eig:.3e})"
        )
    qt = _qstar_pairing_matrix(Z) @ t
    res = np.linalg.norm(qt - qt.T)
    if res > MATRIX_TOL:
        raise SpMembershipError(f"Qstar_t is not symmetric (residual {res:.3e})")
    return t


def bracket_identified(Z, s, t) -> np.ndarray:
    """Bracket in the identified picture at Z: (s, conj t) -> conj(t) s on H10."""
    s, t = p_tensor(Z, s), p_tensor(Z, t)
    return np.conj(t) @ s
