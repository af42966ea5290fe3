"""Effective Lindbladian of a pumped N-level impurity in a thermal
fermionic reservoir: construction from microscopic data, master-equation
integration, and Fourier-space (Floquet) spectral verification."""

from .errors import (
    ClusterAmbiguityError,
    ConfigError,
    ContourHitsSpectrumError,
    DegenerateKernelError,
    DimensionMismatchError,
    DisagreementBetweenRulesError,
    EigensolverFailureError,
    GeneratorStructureError,
    IdempotencyFailureError,
    InvalidDensityMatrixError,
    InvalidFormFactorError,
    NonHermitianError,
    NonOrthogonalFamilyError,
    NonPositiveKernelError,
    PositivityBreachError,
    ProjectionPairTooFarError,
    PumpedLindbladError,
    PumpSupportViolationError,
    QuadratureNonConvergenceError,
    ScalarHamiltonianError,
    StepSizeUnderflowError,
)
from .evolution import (
    GeneratorBundle,
    Trajectory,
    averaged_generator,
    evolve,
    populations,
    stationary_state,
    trajectory_to_csv,
)
from .floquet import (
    FloquetOperator,
    FloquetSpectrum,
    KatoBlock,
    build_howland,
    floquet_lattice,
    floquet_spectrum,
    howland_match,
    kato_block,
    kato_order_check,
)
from .lindblad import (
    AssumptionReport,
    LindbladData,
    algebra_dimension,
    check_assumptions,
    commutant_dimension,
    jump_operators,
    reservoir_lindbladian,
    resolvent_oracle,
)
from .operator_core import (
    AtomSpec,
    BohrIndex,
    Superoperator,
    atomic_lindbladian,
    bohr_spectrum,
    decompose_atom,
    gibbs_state,
    hamiltonian_lindbladian,
    unvec,
    validate_pump,
    validate_state,
    vec,
)
from .reservoir import (
    AnalyticityReport,
    FormFactor,
    ReservoirSpec,
    pv_coefficients,
    rate_coefficient,
    spectral_density,
    strip_analyticity_ladder,
)

__version__ = "0.1.0"
