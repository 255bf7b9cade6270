"""Exception types raised across the package.

Every failure mode named in an operation contract gets its own class so that
callers (and the CLI) can map it to a diagnostic without parsing messages.
"""


class CurveKernelError(Exception):
    """Base class for all errors raised by curvekernel."""


class DimensionMismatchError(CurveKernelError, ValueError):
    """Vector or matrix arguments have incompatible shapes."""


class SpMembershipError(CurveKernelError, ValueError):
    """A matrix is not in the symplectic Lie algebra (Q_X not symmetric)."""


class CurveError(CurveKernelError, ValueError):
    """Base class for hyperelliptic-curve input problems."""


class DegreeError(CurveError):
    """Polynomial degree outside the supported range."""


class RootConfigurationError(CurveError):
    """Branch points are not real and pairwise distinct."""


class BranchPointProximityError(CurveError):
    """Evaluation point within ``periods.BRANCH_EXCLUSION`` half-widths r of a branch point."""


class RiemannRelationError(CurveKernelError):
    """Computed period matrix violates the Riemann bilinear relations.

    Signals quadrature under-resolution or a homology-convention bug; the
    certificate (Z symmetric, Im Z positive definite) is the acceptance test
    for the cycle bookkeeping.
    """


class SingularSystemError(CurveKernelError):
    """A linear system that should be regular came out singular."""


class LatticeError(CurveKernelError, ValueError):
    """Lattice generators the zeta/p evaluators cannot take.

    They are non-finite or degenerate (ratio not in the upper half-plane), a
    length or the lattice scale is outside the supported range, the basis is
    too skewed to reduce, or the lattice is too thin for the tail sums.
    """


class TruncationError(CurveKernelError):
    """Lattice-sum zeta increments miss the exact quasi-periods at every truncation tried."""


class PoleError(CurveKernelError, ValueError):
    """Evaluation requested at (or too close to) a pole of the function."""
