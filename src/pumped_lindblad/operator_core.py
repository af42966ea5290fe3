"""Atomic model: spectral decomposition, superoperators, Bohr structure.

The impurity is a finite d-dimensional system with Hermitian Hamiltonian
H_at whose spectrum is grouped into N >= 2 levels

    H_at = sum_k E_k P_k ,   E_1 < E_2 < ... < E_N,   rank P_k = n_k,

and everything downstream is phrased on the d^2-dimensional space of d x d
matrices with the Hilbert-Schmidt inner product <A, B> = Tr(A^* B).  We fix
the *column-stacking* vectorization once and for all,

    vec(A X B) = (B^T (x) A) vec(X),

so a superoperator is concretely a d^2 x d^2 matrix and its HS-adjoint is
the conjugate transpose of that matrix.

The free evolution enters through the Lindbladian L_at = -i[H_at, .], whose
spectrum is i * {Bohr frequencies}.  For each Bohr frequency eps the pair
set

    t_eps = {(j, k) : E_j - E_k = eps}

indexes the eigenprojection P_at^(eps)(A) = sum_{(j,k) in t_eps} P_j A P_k.
The zero-frequency projection P_D = P_at^(0) keeps the block-diagonal
("populations") part of a state and is where the slow dynamics lives.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClusterAmbiguityError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    NonHermitianError,
    PumpSupportViolationError,
    ScalarHamiltonianError,
)

__all__ = [
    "AtomSpec",
    "BohrIndex",
    "PumpOperator",
    "Superoperator",
    "atomic_lindbladian",
    "bohr_spectrum",
    "decompose_atom",
    "gibbs_state",
    "hamiltonian_lindbladian",
    "unvec",
    "validate_pump",
    "validate_state",
    "vec",
]

_HERM_TOL = 1e-12     # validate_state: ||rho - rho^*|| relative to max(1, ||rho||)
_TRACE_TOL = 1e-12    # validate_state: |tr rho - 1|
_EIG_FLOOR = -1e-9    # validate_state: smallest admissible eigenvalue
_PUMP_TOL = 1e-10     # validate_pump: support defects of h_p


# --------------------------------------------------------------------------
# vectorization helpers (column-stacking convention)
# --------------------------------------------------------------------------

def vec(a):
    """Column-stack a d x d matrix into a d^2 vector."""
    a = np.asarray(a)
    return a.reshape(-1, order="F")


def unvec(v, d=None):
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if d is None:
        d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DimensionMismatchError(f"vector of size {v.size} is not d^2")
    return v.reshape(d, d, order="F")


def _kron(a, b):
    """Kronecker product of two 2-D arrays: the products np.kron forms, without
    its general-rank bookkeeping (which costs several times the product at d <= 6)."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


# --------------------------------------------------------------------------
# Superoperator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Superoperator:
    """A linear map on d x d matrices, stored as a d^2 x d^2 matrix.

    Column-stacking is assumed throughout: the matrix of A |-> X A Y is
    kron(Y^T, X).  The HS-adjoint is then the conjugate transpose.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"superoperator matrix has shape {m.shape}")
        d = int(round(np.sqrt(m.shape[0])))
        if d * d != m.shape[0]:
            raise DimensionMismatchError(
                f"superoperator side {m.shape[0]} is not a perfect square"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        """Dimension d of the underlying matrix space."""
        return int(round(np.sqrt(self.matrix.shape[0])))

    def __call__(self, a):
        a = np.asarray(a, dtype=complex)
        d = self.dim
        if a.shape != (d, d):
            raise DimensionMismatchError(f"operand shape {a.shape}, expected {(d, d)}")
        return unvec(self.matrix @ vec(a), d)

    def adjoint(self):
        """HS-adjoint (conjugate transpose of the matrix)."""
        return Superoperator(self.matrix.conj().T)

    def __add__(self, other):
        return Superoperator(self.matrix + other.matrix)

    def __sub__(self, other):
        return Superoperator(self.matrix - other.matrix)

    def __mul__(self, scalar):
        return Superoperator(self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Superoperator(-self.matrix)

    def __matmul__(self, other):
        """Composition (self after other)."""
        return Superoperator(self.matrix @ other.matrix)

    @staticmethod
    def identity(d):
        return Superoperator(np.eye(d * d, dtype=complex))


def hamiltonian_lindbladian(a):
    """The Hamiltonian Lindbladian -i[a, .] of a square matrix `a`."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got shape {a.shape}")
    eye = np.eye(a.shape[0], dtype=complex)
    return Superoperator((_kron(eye, a) - _kron(a.T, eye)) * (-1j))


# --------------------------------------------------------------------------
# density matrix validation
# --------------------------------------------------------------------------

def validate_state(rho):
    """Validate a density matrix: finite, Hermitian, unit trace, eigenvalues >= floor.

    Returns the matrix as a complex ndarray.  Violations raise
    InvalidDensityMatrixError; nothing is silently projected or rescaled.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDensityMatrixError(f"state has shape {rho.shape}")
    if not np.all(np.isfinite(rho)):        # NaN fails every tolerance test below
        raise InvalidDensityMatrixError("state has a non-finite entry")
    scale = max(1.0, np.linalg.norm(rho, "fro"))
    herm = np.linalg.norm(rho - rho.conj().T, "fro")
    if herm > _HERM_TOL * scale:
        raise InvalidDensityMatrixError(f"not Hermitian: ||rho - rho^*|| = {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > _TRACE_TOL:
        raise InvalidDensityMatrixError(f"trace {tr} differs from 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < _EIG_FLOOR:
        raise InvalidDensityMatrixError(f"minimum eigenvalue {w.min():.3e} < {_EIG_FLOOR}")
    return rho


# --------------------------------------------------------------------------
# AtomSpec and spectral decomposition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomSpec:
    """Hermitian Hamiltonian together with its clustered level structure."""

    dim: int
    h_at: np.ndarray
    energies: tuple          # (E_1, ..., E_N), strictly increasing
    multiplicities: tuple    # (n_1, ..., n_N), sum = dim
    projections: tuple       # (P_1, ..., P_N), orthogonal projections
    cluster_tol: float

    @property
    def n_levels(self):
        return len(self.energies)

    @property
    def pump_freq(self):
        """omega = E_N - E_1, the level spread driven by the pump."""
        return self.energies[-1] - self.energies[0]


def _clusters(values, tol):
    """Index slices of ascending `values`, cut at every gap > tol.

    The one rule that decides which numbers are equal: atomic levels,
    Bohr frequencies and the eigenspaces of a commutant element.
    """
    cuts = [0, *(np.flatnonzero(np.diff(values) > tol) + 1).tolist(), len(values)]
    return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def _require_tolerance(name, tol):
    """Refuse a clustering tolerance that is not finite and >= 0 (NaN or inf
    would merge every value, a negative one would split equal ones)."""
    if not 0.0 <= tol < np.inf:
        raise ClusterAmbiguityError(f"{name} must be finite and >= 0, got {tol!r}")


def _stable_clusters(values, tol, ambiguity):
    """:func:`_clusters`, refused with ClusterAmbiguityError(ambiguity) if
    halving or doubling `tol` regroups the values."""
    groups = _clusters(values, tol)
    if any(_clusters(values, f * tol) != groups for f in (0.5, 2.0)):
        raise ClusterAmbiguityError(ambiguity)
    return groups


def decompose_atom(h_at, cluster_tol=None):
    """Diagonalize ``h_at`` and cluster its eigenvalues into levels.

    Eigenvalues are grouped agglomeratively: consecutive (sorted)
    eigenvalues closer than ``cluster_tol`` belong to the same level.  The
    default tolerance is 1e-8 * ||h_at||.  If halving or doubling the
    tolerance changes the grouping, the clustering is deemed ambiguous and
    ClusterAmbiguityError is raised rather than guessing, as it is for a
    tolerance that is not finite and >= 0.
    """
    h = np.asarray(h_at, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"Hamiltonian has shape {h.shape}")
    d = h.shape[0]
    scale = max(1.0, np.linalg.norm(h, "fro"))
    herm = np.linalg.norm(h - h.conj().T, "fro")
    if herm > 1e-12 * scale:
        raise NonHermitianError(f"||h - h^*|| = {herm:.3e} exceeds Hermiticity tolerance")
    h = 0.5 * (h + h.conj().T)

    w, u = np.linalg.eigh(h)
    spread = w[-1] - w[0]
    norm = max(abs(w[0]), abs(w[-1]))
    if cluster_tol is None:
        cluster_tol = 1e-8 * max(norm, 1e-300)
    _require_tolerance("cluster_tol", cluster_tol)
    if spread <= cluster_tol:
        raise ScalarHamiltonianError(
            "all eigenvalues within one cluster: H_at is a scalar plus noise"
        )

    levels = _stable_clusters(
        w, cluster_tol,
        f"eigenvalue grouping changes under perturbation of cluster_tol={cluster_tol:.3e}")
    energies = [float(np.mean(w[lv])) for lv in levels]
    projs = [u[:, lv] @ u[:, lv].conj().T for lv in levels]
    if len(energies) < 2:
        raise ScalarHamiltonianError("spectrum clusters into a single level")

    recon = sum(e * p for e, p in zip(energies, projs))
    err = np.linalg.norm(h - recon, "fro")
    if err > cluster_tol * max(1.0, np.sqrt(d)):
        raise ClusterAmbiguityError(
            f"reconstruction error {err:.3e} exceeds cluster tolerance (chained cluster?)"
        )

    return AtomSpec(
        dim=d,
        h_at=h,
        energies=tuple(energies),
        multiplicities=tuple(lv.stop - lv.start for lv in levels),
        projections=tuple(projs),
        cluster_tol=float(cluster_tol),
    )


# --------------------------------------------------------------------------
# Bohr frequencies
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BohrIndex:
    """Bohr frequencies eps with their pair sets t_eps = {(j,k): E_j - E_k = eps}.

    Levels are labelled 1..N.  `frequencies` is sorted ascending and always
    contains 0 (the diagonal pairs (k,k)); `pairs` is keyed by exactly these
    numbers, so no second equality rule decides which frequency is meant.
    """

    frequencies: tuple
    pairs: dict = field(compare=False)   # eps -> tuple of (j, k)


def bohr_spectrum(atom, merge_tol=None):
    """All level differences E_j - E_k of `atom`, indexed by pair sets.

    Differences closer than ``merge_tol`` (default 1e-9 * max|E|) are
    identified; near-coincidences that flip under halving/doubling the
    tolerance raise ClusterAmbiguityError, since the pair sets t_eps change
    discontinuously when two differences merge, and so does a tolerance
    that is not finite and >= 0.
    """
    energies = atom.energies
    n = len(energies)
    if merge_tol is None:
        merge_tol = 1e-9 * max(max(abs(e) for e in energies), 1e-300)
    _require_tolerance("merge_tol", merge_tol)

    diffs = []
    for j in range(n):
        for k in range(n):
            diffs.append((energies[j] - energies[k], (j + 1, k + 1)))
    diffs.sort(key=lambda t: t[0])
    groups = _stable_clusters(
        [t[0] for t in diffs], merge_tol,
        "near-degenerate Bohr frequencies: pair sets are tolerance-sensitive")

    freqs, pairs = [], {}
    for group in groups:
        eps = float(np.mean([g[0] for g in diffs[group]]))
        if abs(eps) <= merge_tol:
            eps = 0.0
        freqs.append(eps)
        pairs[eps] = tuple(sorted(g[1] for g in diffs[group]))
    return BohrIndex(frequencies=tuple(freqs), pairs=pairs)


# --------------------------------------------------------------------------
# atomic Lindbladian
# --------------------------------------------------------------------------

def atomic_lindbladian(atom):
    """L_at = -i[H_at, .]; anti-self-adjoint in the HS product."""
    return hamiltonian_lindbladian(atom.h_at)


# --------------------------------------------------------------------------
# Gibbs state
# --------------------------------------------------------------------------

def gibbs_state(atom, beta):
    """Gibbs state exp(-beta H_at) / Tr exp(-beta H_at), beta in [0, inf].

    Built levelwise with the ground energy subtracted, so large beta never
    overflows: rho_g = sum_k e^{-beta(E_k - E_1)} P_k / Z.  At beta = inf
    the ground weight is 1 and every other 0, so rho_g = P_1 / n_1.
    """
    if not beta >= 0:
        raise InvalidDensityMatrixError(f"inverse temperature {beta} is not in [0, inf]")
    e0 = atom.energies[0]
    weights = [1.0] + [np.exp(-beta * (e - e0)) for e in atom.energies[1:]]
    z = sum(w * n for w, n in zip(weights, atom.multiplicities))
    rho = sum(w * p for w, p in zip(weights, atom.projections)) / z
    return validate_state(rho)


# --------------------------------------------------------------------------
# pump operator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PumpOperator:
    """Validated pump: raising part h_p, Hermitian H_p, and L_p = -i[H_p, .]."""

    h_p: np.ndarray
    h_pump: np.ndarray
    lindbladian: Superoperator


def validate_pump(atom, h_p):
    """Check that h_p raises the ground sector into the top sector.

    Accepts iff ker(h_p)^perp  is contained in the ground eigenspace and
    ran(h_p) in the top eigenspace, i.e. ||(1 - P_1) h_p^*|| <= 1e-10 and
    ||(1 - P_N) h_p|| <= 1e-10, and refuses a non-finite entry.  Returns the
    pump H_p = h_p + h_p^* with its Hamiltonian Lindbladian.
    """
    h_p = np.asarray(h_p, dtype=complex)
    d = atom.dim
    if h_p.shape != (d, d):
        raise DimensionMismatchError(f"pump shape {h_p.shape}, atom dimension {d}")
    if not np.all(np.isfinite(h_p)):        # NaN fails both support tests below
        raise PumpSupportViolationError("h_p has a non-finite entry")
    eye = np.eye(d)
    p1 = atom.projections[0]
    pn = atom.projections[-1]
    src = np.linalg.norm((eye - p1) @ h_p.conj().T, "fro")
    dst = np.linalg.norm((eye - pn) @ h_p, "fro")
    if src > _PUMP_TOL:
        raise PumpSupportViolationError(
            f"h_p does not act from the ground sector: ||(1-P_1) h_p^*|| = {src:.3e}"
        )
    if dst > _PUMP_TOL:
        raise PumpSupportViolationError(
            f"h_p does not map into the top sector: ||(1-P_N) h_p|| = {dst:.3e}"
        )
    h_pump = h_p + h_p.conj().T
    return PumpOperator(h_p=h_p, h_pump=h_pump,
                        lindbladian=hamiltonian_lindbladian(h_pump))
