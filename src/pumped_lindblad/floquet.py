"""Fourier-space (Howland) analysis of the periodic effective generator.

On the truncated mode space k in [-N, N] the autonomous generator of the
T-periodic dynamics is block tridiagonal,

    (F x)_k = (i omega k + B) x_k + (eta/2) C (x_{k-1} + x_{k+1}),

because the cos(omega t) drive splits into the two mode shifts with weight
1/2, with B = L_at + lambda^2 L_R and C = L_p.  Every part of the generator
preserves the trace, so its HS-adjoint annihilates the identity: the
vectors x_p = delta_{k,p} (x) vec(1) are *exact* left eigenvectors,
x_p^H F = i p omega x_p^H, which pins the resonance structure; everything
else hangs off those points with a spectral gap of order lambda^2.  The
adjoint F^H (the Heisenberg picture, whose spectrum is the complex
conjugate) is never assembled: the spectrum report applies the left
eigenvector claim to F itself, and the Kato probe runs the adjoint blocks
inside the block-Thomas kernel.

The CLI spectrum is the lattice mu_j + i omega m of the d^2 x d^2
one-period propagator, which comes from the CF4 step grid of `evolution`
(:func:`floquet_lattice`), checked against F by shifted block-Thomas
solves (:func:`howland_match`); the dense eigensolve of F (which also
settles a gap below 1e-6) and the Hungarian :func:`monodromy` match
(RK45 propagator, scipy imported inside it) are independent
cross-checks.  The rest is standard spectral calculus: Riesz
projections by contour quadrature, first-order perturbation blocks and
the pair-of-projections similarity.

Every contour sum goes through one kernel, block-Thomas elimination of
z - F with a block of right-hand sides (:func:`_resolvent_apply`); no
(n s) x (n s) matrix is ever factored.  The dense Riesz projection is that
sum applied to the identity.  The perturbation block never forms an
(n s) x (n s) matrix at all: P0 of the free operator is exact (one
Hermitian eigensolve of its d^2 x d^2 block), and P is probed on
Range(P0) with rank P0 right-hand sides (Kato's pairs of projections; the
thin contour-integral pattern of Beyn, Lin. Alg. Appl. 436, 3839 (2012));
every norm is taken on a 2r x 2r core.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ContourHitsSpectrumError,
    DimensionMismatchError,
    DisagreementBetweenRulesError,
    EigensolverFailureError,
    GeneratorStructureError,
    IdempotencyFailureError,
    NearSingularPairError,
    ProjectionPairTooFarError,
)
from .evolution import _step_grid, propagator
from .operator_core import Superoperator, vec

__all__ = [
    "FloquetOperator",
    "FloquetSpectrum",
    "KatoBlock",
    "LowRank",
    "MonodromyReport",
    "RieszProjection",
    "build_howland",
    "eigenprojection_direct",
    "floquet_lattice",
    "floquet_spectrum",
    "howland_match",
    "kato_block",
    "kato_order_check",
    "monodromy",
    "pair_transform",
    "riesz_projection",
]


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FloquetOperator:
    matrix: np.ndarray
    n_modes: int
    omega: float
    dim: int                  # atomic dimension d
    lam: float
    base: np.ndarray          # B: diagonal block without its i omega k shift
    coupling: np.ndarray      # H = (eta/2) C: every off-diagonal block

    @property
    def block_size(self):
        return self.dim * self.dim


def build_howland(bundle, n_modes):
    """Assemble the truncated block-tridiagonal Howland operator."""
    if n_modes < 2:
        raise DimensionMismatchError(f"need n_modes >= 2, got {n_modes}")
    d = bundle.l_at.dim
    b = bundle.static_matrix
    c = bundle.l_p.matrix

    n = 2 * n_modes + 1
    d2 = d * d
    eye = np.eye(d2, dtype=complex)
    m = np.zeros((n * d2, n * d2), dtype=complex)
    half_pump = 0.5 * bundle.eta * c
    for idx, k in enumerate(range(-n_modes, n_modes + 1)):
        sl = slice(idx * d2, (idx + 1) * d2)
        m[sl, sl] = 1j * bundle.omega * k * eye + b
        if idx + 1 < n:
            sr = slice((idx + 1) * d2, (idx + 2) * d2)
            m[sl, sr] = half_pump
            m[sr, sl] = half_pump
    return FloquetOperator(matrix=m, n_modes=n_modes, omega=bundle.omega,
                           dim=d, lam=bundle.lam, base=b, coupling=half_pump)


# --------------------------------------------------------------------------
# spectrum and resonance structure
# --------------------------------------------------------------------------

_RESONANCE_TOL = 1e-8       # distance from i omega Z that marks a resonance copy
_LATTICE_GAP_FLOOR = 1e-6   # far above the lattice's CF4 error (M to ~1e-12)


@dataclass(frozen=True)
class FloquetSpectrum:
    eigenvalues: np.ndarray
    interior: np.ndarray        # |k| <= N-2 mask
    gap: float
    gap_over_lambda2: float
    degenerate: bool
    resonance_residuals: dict   # p -> ||F^H x_p + i omega p x_p||, |p| <= N-1
    disc_counts: dict           # p -> eigenvalues within _RESONANCE_TOL of i omega p


def floquet_lattice(bundle, n_modes):
    """Floquet exponents mu_j and their Fourier indices k_j from one period.

    The CF4 step grid of tau(t, 0) over [0, T] (evolution._step_grid,
    converged to 1e-12) gives M = tau(T, 0) with eigenpairs (nu_j, v_j),
    and mu_j = log(nu_j)/T (principal branch); k_j is the dominant FFT
    index of the periodic part e^{-mu_j t} tau(t, 0) v_j =
    sum_k c_k e^{i omega k t} at 2N+1 phases.  All of it stays in the
    grid's Hermitian basis: a unitary change of basis moves neither the
    eigenvalues nor the Fourier mass.
    """
    s, period = bundle.l_at.dim ** 2, bundle.period
    grid = _step_grid(bundle)
    try:
        nu, v = np.linalg.eig(np.eye(s) + grid.dev[-1])
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailureError(str(exc)) from None
    mu = np.log(nu) / period
    t = np.linspace(0.0, period, 2 * n_modes + 1, endpoint=False)
    p = grid.apply(t, v) * np.exp(-np.outer(t, mu))[:, None, :]
    mass = (np.abs(np.fft.fft(p, axis=0)) ** 2).sum(axis=1)
    fourier = np.fft.fftfreq(t.size, 1.0 / t.size)[mass.argmax(axis=0)]
    return mu, np.rint(fourier).astype(int)


def floquet_spectrum(f_op, lattice=None):
    """Spectrum with interior-mode bookkeeping, gap and resonances.

    Dense route: eigensolve F; an eigenvector is interior when its largest
    block is |k| <= N-2 (shift truncation pollutes the outer two).  Given a
    :func:`floquet_lattice` (mu, k), no eigensolve unless the gap is below
    `_LATTICE_GAP_FLOOR`: the copy mu_j + i omega m lies on block m - k_j.
    The gap is min |Re mu| over interior eigenvalues off the resonance
    copies (`_RESONANCE_TOL` from i omega Z).  Also: for |p| <= N-1 the
    residual of the exact left eigenvector claim x_p^H F = i p omega x_p^H,
    x_p = delta_{k,p} (x) vec(1)/sqrt(d), on the assembled matrix, and for
    interior p the number of eigenvalues within `_RESONANCE_TOL` of i p omega.
    """
    n, d2 = f_op.n_modes, f_op.block_size
    if lattice is not None:
        mu, k = lattice
        if mu.size != d2:
            raise DimensionMismatchError("the lattice and the Howland operator differ")
        blocks = np.arange(-n, n + 1)[:, None]
        spec = _spectrum_report(f_op, (mu + 1j * f_op.omega * (k + blocks)).ravel(),
                                np.repeat(np.abs(blocks) <= n - 2, d2))
        if spec.gap >= _LATTICE_GAP_FLOOR:
            return spec
    try:
        w, v = np.linalg.eig(f_op.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailureError(str(exc)) from None
    block_mass = (np.abs(v.reshape(2 * n + 1, d2, -1)) ** 2).sum(axis=1)
    return _spectrum_report(f_op, w, np.abs(block_mass.argmax(axis=0) - n) <= n - 2)


def _spectrum_report(f_op, w, interior):
    """FloquetSpectrum of the eigenvalues `w` of F with their interior mask,
    sorted by (Im rounded to 1e-6, Re): ties in theory keep one order.
    """
    order = np.lexsort((w.real, np.round(w.imag, 6)))
    w, interior = w[order], interior[order]
    n, d2, omega = f_op.n_modes, f_op.block_size, f_op.omega
    nearest = np.round(w.imag / omega)
    on_resonance = np.abs(w - 1j * omega * nearest) <= _RESONANCE_TOL
    candidates = interior & ~on_resonance
    gap = float(np.min(np.abs(w.real[candidates]))) if np.any(candidates) else 0.0
    lam2 = f_op.lam**2

    one = vec(np.eye(f_op.dim, dtype=complex)) / np.sqrt(f_op.dim)   # real: x_p^H = x_p^T
    residuals = {}
    for p in range(-(n - 1), n):
        sl = slice((p + n) * d2, (p + n + 1) * d2)
        left = one @ f_op.matrix[sl]                    # x_p^H F
        left[sl] -= 1j * omega * p * one
        residuals[p] = float(np.linalg.norm(left))
    counts = {p: int(np.sum(on_resonance & (nearest == p))) for p in range(-(n - 2), n - 1)}
    return FloquetSpectrum(
        eigenvalues=w, interior=interior, gap=gap,
        gap_over_lambda2=gap / lam2 if lam2 > 0 else np.inf,
        degenerate=gap < 1e-12,
        resonance_residuals=residuals, disc_counts=counts,
    )


def howland_match(f_op, mu, k):
    """max_j |e^{T mu_j} - e^{T mu_H,j}| for a :func:`floquet_lattice` (mu, k).

    mu_H,j is an eigenvalue of F found from F alone: the Rayleigh quotient
    of one inverse iteration step (one block-Thomas call, a fixed seeded
    right-hand side) at the copy mu_j + i omega k_j on block 0.
    """
    f_op = _require_howland(f_op)
    # the 1e-12 offset keeps a shift at an eigenvalue of a decoupled block off a zero pivot
    shifts = mu + 1j * f_op.omega * k + 1e-12
    rhs = np.random.default_rng(0).standard_normal((f_op.matrix.shape[0], 2)) @ [1.0, 1j]
    x = _resolvent_apply(f_op, shifts, np.eye(shifts.size), rhs[:, None])[..., 0]
    mu_h = np.sum(x.conj() * (x @ f_op.matrix.T), axis=1) / np.sum(np.abs(x) ** 2, axis=1)
    period = 2.0 * np.pi / f_op.omega
    return float(np.max(np.abs(np.exp(period * mu) - np.exp(period * mu_h))))


# --------------------------------------------------------------------------
# Riesz projections
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RieszProjection:
    matrix: np.ndarray
    center: complex
    radius: float
    m_points: int
    idempotency_defect: float
    rank: int


_NODE_CHUNK = 16   # contour nodes eliminated together; bounds the working set


def _require_howland(f_op):
    if not isinstance(f_op, FloquetOperator):
        raise DimensionMismatchError(
            f"expected a FloquetOperator from build_howland, got {type(f_op).__name__}"
        )
    return f_op


def _howland_blocks(f_op, adjoint=False):
    """Mode shifts i omega k, diagonal block B and coupling H of F (or of F^H)."""
    shifts = 1j * f_op.omega * np.arange(-f_op.n_modes, f_op.n_modes + 1)
    if adjoint:
        return shifts.conj(), f_op.base.conj().T, f_op.coupling.conj().T
    return shifts, f_op.base, f_op.coupling


def _diagonal_blocks(z, shifts, base):
    """D_k = (z - shift_k) - B for a batch of nodes: shape (nodes, modes, s, s)."""
    eye = np.eye(base.shape[0], dtype=complex)
    return (z[:, None] - shifts)[:, :, None, None] * eye - base


def _resolvent_apply(f_op, nodes, weights, rhs, adjoint=False):
    """sum_j weights[..., j] (nodes[j] - F)^{-1} rhs by block-Thomas solves.

    z - F has diagonal blocks D_k = (z - i omega k) - B and every
    off-diagonal block equal to -H.  `rhs` has n s rows and r columns.
    Forward elimination runs on the left Schur complements

        L_k = D_k - H L_{k-1}^{-1} H,    u_k = L_k^{-1} (rhs_k + H u_{k-1}),

    and back substitution gives X_k = u_k + (L_k^{-1} H) X_{k+1}, batched
    over a chunk of nodes.  Leading axes of `weights` stack several rules
    over the same nodes at no extra solve.  With `adjoint` the blocks of
    F^H are used and the nodes and weights are conjugated, which returns
    (sum_j w_j rhs^H (z_j - F)^{-1})^H.  Cost is O(M n s^2 (s + r)) for M
    nodes, n modes and block size s, against O(M (n s)^3) for dense
    solves; nothing wider than one block is ever factored.  A singular
    block pivot raises ContourHitsSpectrum.
    """
    n, s = 2 * f_op.n_modes + 1, f_op.block_size
    shifts, base, h = _howland_blocks(f_op, adjoint)
    nodes = np.asarray(nodes, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    if adjoint:
        nodes, weights = nodes.conj(), weights.conj()
    rhs = np.asarray(rhs, dtype=complex).reshape(n, s, -1)
    # u_k (and u_{-1} = 0, read at k = 0) vanishes in each column that is zero
    # in row blocks 0..k, so block k solves columns [0, width[k]) only
    started = np.logical_or.accumulate(np.any(rhs != 0, axis=1), axis=0)
    width = [int(np.flatnonzero(row).max(initial=-1)) + 1 for row in started]
    acc = np.zeros(weights.shape[:-1] + rhs.shape, dtype=complex)
    for start in range(0, nodes.size, _NODE_CHUNK):
        z = nodes[start:start + _NODE_CHUNK]
        d = _diagonal_blocks(z, shifts, base)
        hb = np.broadcast_to(h, z.shape + h.shape)   # one H per node
        x = np.empty_like(d[:, 1:])                  # L_k^{-1} H
        u = np.zeros(z.shape + rhs.shape, dtype=complex)
        try:
            left = d[:, 0]
            for k, c in enumerate(width):
                if k:
                    x[:, k - 1] = np.linalg.solve(left, hb)
                    left = d[:, k] - h @ x[:, k - 1]
                u[:, k, :, :c] = np.linalg.solve(left, rhs[k, :, :c] + h @ u[:, k - 1, :, :c])
        except np.linalg.LinAlgError as exc:
            raise ContourHitsSpectrumError(
                f"singular block pivot on the contour: {exc}") from None
        for k in range(n - 2, -1, -1):
            u[:, k] += x[:, k] @ u[:, k + 1]
        acc += np.tensordot(weights[..., start:start + _NODE_CHUNK], u, axes=1)
    return acc.reshape(weights.shape[:-1] + (n * s, rhs.shape[-1]))


def _contour_radius(eigenvalues, center, radius=None):
    """Radius rule and annulus guard; returns the radius and the enclosed count.

    Default radius: 0.45 times the isolation distance of the cluster at
    `center`, capped at 0.45.  An eigenvalue inside the annulus
    [0.5 r, 1.5 r] aborts with ContourHitsSpectrum.
    """
    dist = np.abs(eigenvalues - center)
    if radius is None:
        outside = dist[dist > 1e-6]
        isolation = float(np.min(outside)) if outside.size else np.inf
        radius = min(0.45 * isolation, 0.45)
        if not radius > 0:
            raise ContourHitsSpectrumError("no isolated cluster at the requested center")
    in_annulus = np.sum((dist >= 0.5 * radius) & (dist <= 1.5 * radius))
    if in_annulus:
        raise ContourHitsSpectrumError(
            f"{in_annulus} eigenvalue(s) inside the [0.5r, 1.5r] annulus at r={radius:.3g}"
        )
    return radius, int(np.sum(dist < radius))


def riesz_projection(f_op, center, radius=None, m_points=64):
    """Contour-quadrature Riesz projection of `f_op` around `center`.

    Trapezoid rule on the circle of the given radius (default: 0.45 times
    the isolation distance of the enclosed cluster, capped at 0.45).  An
    eigenvalue inside the annulus [0.5 r, 1.5 r] aborts with
    ContourHitsSpectrum; an idempotency defect above 1e-6 aborts with
    IdempotencyFailure.  The resolvent sum is the block-Thomas kernel
    :func:`_resolvent_apply` with the identity as right-hand side.
    """
    f_op = _require_howland(f_op)
    radius, _ = _contour_radius(np.linalg.eigvals(f_op.matrix), center, radius)
    phases = np.exp(2j * np.pi * (np.arange(m_points) + 0.5) / m_points)
    eye = np.eye(f_op.matrix.shape[0], dtype=complex)
    p = _resolvent_apply(f_op, center + radius * phases, radius * phases, eye) / m_points
    defect = float(np.linalg.norm(p @ p - p, 2))
    if defect > 1e-6:
        raise IdempotencyFailureError(f"projection defect {defect:.3e} at M={m_points}")
    rank = int(round(np.trace(p).real))
    return RieszProjection(matrix=p, center=complex(center), radius=float(radius),
                           m_points=int(m_points), idempotency_defect=defect, rank=rank)


def eigenprojection_direct(f_op, center, radius):
    """Spectral projection from the dense eigensolver (independent route)."""
    m = f_op.matrix if isinstance(f_op, FloquetOperator) else np.asarray(f_op)
    try:
        w, v = np.linalg.eig(m)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailureError(str(exc)) from None
    idx = np.abs(w - center) <= radius
    return v[:, idx] @ v_inv[idx, :]


# --------------------------------------------------------------------------
# perturbation block
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LowRank:
    """An n s x n s operator kept as thin factors: left @ core @ right."""
    left: np.ndarray          # (n s, r)
    core: np.ndarray          # (r, r)
    right: np.ndarray         # (r, n s)

    def dense(self):
        return self.left @ self.core @ self.right


@dataclass(frozen=True)
class KatoBlock:
    block: LowRank            # P F P
    first_order: LowRank      # P0 (F - F0) P0
    projection: LowRank       # P = X K^{-1} Y on the probe Range(P0)
    residual: float
    separation: float         # ||(P - P0)^2||_2
    idempotency_defect: float
    quadrature_gap: float     # M-node vs every-second-node probe, relative
    center: complex
    radius: float


def _free_basis(f0_op, center, radius=None):
    """Orthonormal basis Q0 of Range(P0) and the contour radius, exactly.

    F0 (lambda = eta = 0) is block diagonal with skew-Hermitian blocks
    i omega k + B0, so one Hermitian eigensolve of i B0 gives its whole
    spectrum eig(B0) + i omega k for the radius rule and an orthonormal
    eigenbasis; P0 = Q0 Q0^H.  Any other operator raises
    GeneratorStructure: there is no dense fallback.
    """
    f0_op = _require_howland(f0_op)
    b0 = f0_op.base
    if np.any(f0_op.coupling) or (np.linalg.norm(b0 + b0.conj().T)
                                  > 1e-12 * max(1.0, np.linalg.norm(b0))):
        raise GeneratorStructureError(
            "F0 must be block diagonal with skew-Hermitian blocks (lambda = eta = 0)")
    mu, vecs = np.linalg.eigh(1j * b0)                    # B0 v = -i mu v
    shifts, _, _ = _howland_blocks(f0_op)
    eigs = shifts[:, None] - 1j * mu                      # (modes, s), row order of F0
    radius, _ = _contour_radius(eigs.ravel(), center, radius)
    modes, cols = np.nonzero(np.abs(eigs - center) < radius)
    s = f0_op.block_size
    q0 = np.zeros((eigs.size, modes.size), dtype=complex)
    for j, (k, c) in enumerate(zip(modes, cols)):
        q0[k * s:(k + 1) * s, j] = vecs[:, c]
    return q0, radius


def kato_block(f_op, f0_op, center, radius=None, m_points=64, eigenvalues=None):
    """Compression P F P against its first-order model around one resonance.

    P and P0 are the Riesz projections of the perturbed and unperturbed
    operators around `center` (same contour).  Returns the thin factors of
    the blocks and

        residual = || P F P - center P0 - P0 (F - F0) P0 ||_2 ,

    the defect of the first-order expansion of the compressed generator.
    Nothing of size n s x n s is formed.  P0 = Q0 Q0^H is exact
    (:func:`_free_basis`), and P is probed on Range(P0): by Kato's pair of
    projections, P maps Range(P0) onto Range(P) while ||(P - P0)^2|| < 1,
    so with X = P Q0, Y = Q0^H P and K = Q0^H X, P = X K^{-1} Y.  X and Y
    are contour sums of block-Thomas solves (:func:`_resolvent_apply`).
    The residual, the pair separation and the idempotency defect are
    2-norms of 2r x 2r cores of the thin QRs of [X, Q0] and [Y^H, Q0].
    The thin form cannot see quadrature error off Range(P0), so X and Y are
    also summed over every second node (a rotated M/2-point rule, needing
    an even M): a relative gap above 1e-6, like a core defect above 1e-6,
    raises IdempotencyFailure.  A count of F's eigenvalues inside the
    contour (`eigenvalues`, else solved here) other than rank P0, a
    singular K, or a separation >= 1 raises ProjectionPairTooFar.
    """
    f_op, f0_op = _require_howland(f_op), _require_howland(f0_op)
    if m_points < 2 or m_points % 2:
        raise DimensionMismatchError(
            f"the Kato probe needs an even number of contour nodes >= 2, got {m_points!r}")
    q0, radius = _free_basis(f0_op, center, radius)
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(f_op.matrix)
    _, enclosed = _contour_radius(eigenvalues, center, radius)
    r = q0.shape[1]
    if enclosed != r:
        raise ProjectionPairTooFarError(
            f"{enclosed} eigenvalue(s) of F inside the contour against rank P0 = {r}")

    phases = np.exp(2j * np.pi * (np.arange(m_points) + 0.5) / m_points)
    w = radius * phases / m_points
    rules = np.stack([w, np.where(np.arange(m_points) % 2, 0.0, 2.0 * w)])
    nodes = center + radius * phases
    x, x_half = _resolvent_apply(f_op, nodes, rules, q0)               # P Q0
    yh, yh_half = _resolvent_apply(f_op, nodes, rules, q0, adjoint=True)  # P^H Q0
    gap = max((np.linalg.norm(full - half) / np.linalg.norm(full) if r else 0.0)
              for full, half in ((x, x_half), (yh, yh_half)))
    if gap > 1e-6:
        raise IdempotencyFailureError(
            f"M={m_points} and M/2 node probes differ by {gap:.3e}")

    y = yh.conj().T                                      # Q0^H P
    k = q0.conj().T @ x                                  # Q0^H P Q0
    try:
        k_inv = np.linalg.inv(k)
    except np.linalg.LinAlgError:
        raise ProjectionPairTooFarError("Q0^H P Q0 is singular") from None
    yx = y @ x
    rank = int(round(np.trace(k_inv @ yx).real))
    if rank != r:
        raise ProjectionPairTooFarError(f"rank P = {rank} against rank P0 = {r}")

    # P - P0 = [X, Q0] diag(K^{-1}, -1) [Y; Q0^H]: every norm is that of a
    # 2r x 2r core between the triangular factors of [X, Q0] and [Y^H, Q0].
    qa, ra = np.linalg.qr(np.hstack([x, q0]))
    qb, rb = np.linalg.qr(np.hstack([yh, q0]))
    eye = np.eye(r, dtype=complex)
    zero = np.zeros((r, r), dtype=complex)

    def core(upper, lower):
        return ra @ np.block([[upper, zero], [zero, lower]]) @ rb.conj().T

    defect = float(np.linalg.norm(core(k_inv @ (yx - k) @ k_inv, zero), 2))
    if defect > 1e-6:
        raise IdempotencyFailureError(f"projection defect {defect:.3e} at M={m_points}")
    diff = core(k_inv, -eye)
    sep = float(np.linalg.norm(diff @ (qb.conj().T @ qa) @ diff, 2))
    if sep >= 1.0:
        raise ProjectionPairTooFarError(f"||(P - P0)^2|| = {sep:.3f} >= 1")
    block = k_inv @ (y @ (f_op.matrix @ x)) @ k_inv
    first = q0.conj().T @ (f_op.matrix @ q0 - f0_op.matrix @ q0)
    residual = float(np.linalg.norm(core(block, -center * eye - first), 2))
    return KatoBlock(
        block=LowRank(x, block, y), first_order=LowRank(q0, first, q0.conj().T),
        projection=LowRank(x, k_inv, y), residual=residual, separation=sep,
        idempotency_defect=defect, quadrature_gap=float(gap),
        center=complex(center), radius=float(radius))


def kato_order_check(bundle, n_modes, m_points=64, f_op=None, lattice=None):
    """Halving ratio of the center-0 Kato-block residual in the coupling.

    Residuals of :func:`kato_block` at (lambda, eta) and (lambda/2, eta/4),
    so that eta stays proportional to lambda^2, both against the one
    unperturbed operator F0 (lambda = eta = 0).  Their annulus guards and
    enclosed counts take the lattice copies mu_j + i omega m.  `f_op`
    (``build_howland(bundle, n_modes)``) and `lattice`
    (``floquet_lattice(bundle, n_modes)``) are the caller's objects at
    lambda, built here when not given.  When both residuals sit at
    roundoff (<= 1e-13 ||F||_inf, as when the first-order model is exact),
    their quotient is noise and `ratio` is None.
    """
    if f_op is not None and (_require_howland(f_op).n_modes != n_modes
                             or f_op.lam != bundle.lam):
        raise DimensionMismatchError("f_op is not the Howland operator of this bundle")
    f0 = build_howland(replace(bundle, lam=0.0, eta=0.0), n_modes)
    half = replace(bundle, lam=bundle.lam * 0.5, eta=bundle.eta * 0.25)
    rungs = []                                          # (residual, ||F||_inf)
    for b, op, lat in ((bundle, f_op, lattice), (half, None, None)):
        op = op or build_howland(b, n_modes)
        mu, k = lat or floquet_lattice(b, n_modes)
        w = (mu + 1j * b.omega * (k + np.arange(-n_modes, n_modes + 1)[:, None])).ravel()
        rungs.append((kato_block(op, f0, 0.0, m_points=m_points, eigenvalues=w).residual,
                      np.linalg.norm(op.matrix, np.inf)))
    (at_lambda, norm), (at_half, _) = rungs
    floor = 1e-13 * norm
    noise = at_lambda <= floor and at_half <= floor
    return {
        "residual_at_lambda": at_lambda,
        "residual_at_half_lambda": at_half,
        "ratio": at_half / at_lambda if at_lambda and not noise else None,
    }


# --------------------------------------------------------------------------
# pairs of projections
# --------------------------------------------------------------------------

def _inv_sqrt_eig(a):
    w, v = np.linalg.eig(a)
    if np.any(np.abs(w) <= 1e-12):
        raise NearSingularPairError("1 - (P-Q)^2 has a near-zero eigenvalue")
    return v @ np.diag(w ** -0.5) @ np.linalg.inv(v)


def _inv_sqrt_series(r, terms=60):
    """(1 - R)^{-1/2} by the binomial series; valid for ||R|| < 1."""
    acc = np.eye(r.shape[0], dtype=complex)
    power = np.eye(r.shape[0], dtype=complex)
    coef = 1.0
    for n in range(1, terms):
        power = power @ (-r)
        coef = coef * (0.5 - n) / n                    # binom(-1/2, n)
        acc = acc + coef * power
    return acc


def pair_transform(p, q):
    """Similarity (U, V) with U V = V U = 1 and Q = U P V for near projections.

    R = (P - Q)^2 must satisfy min singular value of (1 - R) > 1e-6.  The
    inverse square root is computed by eigendecomposition and, whenever
    ||R|| < 0.5, cross-checked against the absolutely convergent binomial
    series.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    eye = np.eye(p.shape[0], dtype=complex)
    r = (p - q) @ (p - q)
    one_minus = eye - r
    smin = np.linalg.svd(one_minus, compute_uv=False)[-1]
    if smin <= 1e-6:
        raise NearSingularPairError(f"min singular value of 1-R is {smin:.3e}")
    inv_sqrt = _inv_sqrt_eig(one_minus)
    r_norm = np.linalg.norm(r, 2)
    if r_norm < 0.5:
        alt = _inv_sqrt_series(r)
        mismatch = np.linalg.norm(alt - inv_sqrt, 2)
        if mismatch > 1e-9 * max(1.0, np.linalg.norm(inv_sqrt, 2)):
            raise DisagreementBetweenRulesError(
                f"series and eigendecomposition roots differ by {mismatch:.3e}"
            )
    u = (q @ p + (eye - q) @ (eye - p)) @ inv_sqrt
    v = (p @ q + (eye - p) @ (eye - q)) @ inv_sqrt
    return u, v


# --------------------------------------------------------------------------
# monodromy cross-check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyReport:
    superop: Superoperator
    eigenvalues: np.ndarray           # of the one-period propagator
    matched_exponents: np.ndarray     # e^{T mu} assigned by the matching
    max_match_error: float
    n_modes: int


def monodromy(bundle, n_modes=32, rtol=1e-10):
    """One-period propagator vs Floquet exponents of the Howland operator.

    Each eigenvalue of tau(T, 0) must coincide with e^{T mu} for some
    truncated-Howland eigenvalue mu (the mode shift +i omega k drops out of
    the exponential).  The assignment minimizing the total distance is
    computed by the Hungarian method on the rectangular cost matrix.
    """
    from scipy.optimize import linear_sum_assignment
    tau = propagator(bundle, 0.0, bundle.period, rtol=rtol)
    mono_eigs = np.linalg.eigvals(tau.matrix)
    order = np.lexsort((mono_eigs.real, mono_eigs.imag))
    mono_eigs = mono_eigs[order]

    candidates = np.exp(bundle.period * np.linalg.eigvals(build_howland(bundle, n_modes).matrix))
    cost = np.abs(mono_eigs[:, None] - candidates[None, :])
    rows, cols = linear_sum_assignment(cost)
    matched = candidates[cols]
    return MonodromyReport(
        superop=tau, eigenvalues=mono_eigs, matched_exponents=matched,
        max_match_error=float(cost[rows, cols].max()), n_modes=n_modes,
    )

