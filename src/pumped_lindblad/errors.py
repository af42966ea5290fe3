"""Exception taxonomy for the pumped-lindblad package.

Every error raised by the library derives from :class:`PumpedLindbladError`,
so callers (and the CLI) can distinguish numerical/model failures from plain
usage bugs.
"""


class PumpedLindbladError(Exception):
    """Base class for all library errors."""


class ConfigError(PumpedLindbladError):
    """Malformed or inconsistent run configuration."""


# --- atomic model -----------------------------------------------------------

class NonHermitianError(PumpedLindbladError):
    """Input matrix expected Hermitian is not (beyond tolerance)."""


class ScalarHamiltonianError(PumpedLindbladError):
    """Hamiltonian is a scalar multiple of the identity: only one level."""


class ClusterAmbiguityError(PumpedLindbladError):
    """Eigenvalue (or Bohr-frequency) clustering is tolerance-sensitive."""


class DimensionMismatchError(PumpedLindbladError):
    """Operands act on different spaces."""


class PumpSupportViolationError(PumpedLindbladError):
    """Pump operator does not map the ground sector into the top sector."""


class InvalidDensityMatrixError(PumpedLindbladError):
    """Matrix fails Hermiticity / unit-trace / positivity validation."""


# --- reservoir / quadrature -------------------------------------------------

class InvalidFormFactorError(PumpedLindbladError):
    """Form-factor term list violates the family constraints."""


class QuadratureNonConvergenceError(PumpedLindbladError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class DisagreementBetweenRulesError(PumpedLindbladError):
    """Two independent quadrature rules disagree beyond tolerance."""


class NonOrthogonalFamilyError(PumpedLindbladError):
    """Form factors are not pairwise L2-orthogonal but closed forms need it."""


class GeneratorStructureError(PumpedLindbladError):
    """Assembled generator breaks a structural identity (unital adjoint,
    Lamb shift commuting with the atomic Hamiltonian)."""


# --- evolution --------------------------------------------------------------

class StepSizeUnderflowError(PumpedLindbladError):
    """No CF4 step grid converged within ``evolution._GRID_MAX`` steps per period."""


class PositivityBreachError(PumpedLindbladError):
    """State developed a negative eigenvalue beyond the allowed band."""

    def __init__(self, message, t=None, min_eig=None):
        super().__init__(message)
        self.t = t
        self.min_eig = min_eig


class DegenerateKernelError(PumpedLindbladError):
    """Generator kernel is not one-dimensional."""


class NonPositiveKernelError(PumpedLindbladError):
    """Kernel element cannot be normalized to a positive state."""


# --- spectral / Floquet -----------------------------------------------------

class EigensolverFailureError(PumpedLindbladError):
    """The ``eig`` of the d^2 x d^2 monodromy did not converge."""


class ContourHitsSpectrumError(PumpedLindbladError):
    """An eigenvalue lies too close to the integration contour."""


class IdempotencyFailureError(PumpedLindbladError):
    """Contour-quadrature projection is not numerically idempotent."""


class ProjectionPairTooFarError(PumpedLindbladError):
    """Projections too far apart for the pair-of-projections transform."""
