"""Exception types raised across the package.

Every failure mode named in an operation contract gets its own class so that
callers (and the CLI) can map it to a diagnostic without parsing messages.
"""


class CurveKernelError(Exception):
    """Base class for all errors raised by curvekernel."""


class DimensionMismatchError(CurveKernelError, ValueError):
    """Vector or matrix arguments have incompatible shapes."""


class SpanError(CurveKernelError, ValueError):
    """A vector does not lie in the subspace required by the operation."""


class ComplexStructureError(CurveKernelError, ValueError):
    """A matrix fails to define a compatible complex structure."""


class SquareInvariantError(ComplexStructureError):
    """J^2 differs from -I beyond tolerance."""


class SymplecticInvariantError(ComplexStructureError):
    """J^T Q J differs from Q beyond tolerance."""


class PositivityError(ComplexStructureError):
    """The symmetric form Q(., J.) is not positive definite."""


class SiegelDomainError(CurveKernelError, ValueError):
    """A period matrix is not symmetric with positive definite imaginary part."""


class SpMembershipError(CurveKernelError, ValueError):
    """A matrix is not in the symplectic Lie algebra (Q_X not symmetric)."""


class CurveError(CurveKernelError, ValueError):
    """Base class for hyperelliptic-curve input problems."""


class DegreeError(CurveError):
    """Polynomial degree outside the supported range."""


class RootConfigurationError(CurveError):
    """Branch points are not real and pairwise distinct."""


class BranchPointProximityError(CurveError):
    """Evaluation point too close to a branch point (|y| below exclusion radius)."""


class RiemannRelationError(CurveKernelError):
    """Computed period matrix violates the Riemann bilinear relations.

    Signals quadrature under-resolution or a homology-convention bug; the
    certificate (Z symmetric, Im Z positive definite) is the acceptance test
    for the cycle bookkeeping.
    """


class SingularSystemError(CurveKernelError):
    """A linear system that should be regular came out singular."""


class LatticeError(CurveKernelError, ValueError):
    """Lattice generators are degenerate (ratio not in the upper half-plane)."""


class TruncationError(CurveKernelError):
    """Lattice-sum truncation failed its doubling stability check."""


class PoleError(CurveKernelError, ValueError):
    """Evaluation requested at (or too close to) a pole of the function."""
