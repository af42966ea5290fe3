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
conjugate) is never assembled.

A :class:`FloquetOperator` is its blocks B, H and omega.  The spectrum is
the lattice mu_j + i omega m of the d^2 x d^2 one-period propagator from
the CF4 step grid of `evolution` (:func:`floquet_lattice`), checked against
F by shifted block-Thomas solves (:func:`howland_match`).  No function here
reads the dense matrix; the independent dense routes (eigensolve of F,
Riesz projection, Hungarian monodromy match) are the tests' own, in
tests/reference.py.  Every contour sum goes through one kernel,
block-Thomas elimination of z - F with right-hand columns and/or left-hand
rows (:func:`_resolvent_apply`): one stack of block pivot inverses per
chunk of nodes serves both sides, each side's forward vectors are kept
from its first nonzero block on, and the back sweeps add into the
weighted sums block by block.  The perturbation block forms no
(n s) x (n s) matrix: it takes the free block B0 = L_at, not a second
Howland operator, since the free operator diag(i omega k + B0) on F's own
modes is block diagonal; its P0 is exact (one Hermitian eigensolve of
i B0), P is probed on Range(P0) with rank P0 right-hand sides (Kato's
pairs of projections; the thin contour-integral pattern of Beyn,
Lin. Alg. Appl. 436, 3839 (2012)) on only the block rows that B, H and B0
reach from Range(P0): the weak-symmetry sector of S_T = e^{-T L_at}
(Buca & Prosen, New J. Phys. 14, 073007 (2012)) that holds P0, 5 of 9
rows per mode on three_level, so its pivots are 5 x 5;
F P comes from the same sum as F (z - F)^{-1} = z (z - F)^{-1} - 1, and
every norm is taken on a 2r x 2r core.  The probe is that of the resonance
0; F preserves Hermiticity, so it commutes with conj o R (R: mode reversal
(x) the vec-transpose swap), and only the upper half of the node pairs is solved.
"""

import random
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    ContourHitsSpectrumError,
    DimensionMismatchError,
    EigensolverFailureError,
    GeneratorStructureError,
    IdempotencyFailureError,
    ProjectionPairTooFarError,
)
from .evolution import _hermitian_basis, _in_basis, _step_grid
from .operator_core import vec

__all__ = [
    "FloquetOperator",
    "FloquetSpectrum",
    "KatoBlock",
    "LowRank",
    "build_howland",
    "floquet_lattice",
    "floquet_spectrum",
    "howland_match",
    "kato_block",
    "kato_order_check",
]


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FloquetOperator:
    """The truncated Howland operator F, kept as its blocks only."""
    base: np.ndarray          # B: diagonal block without its i omega k shift
    coupling: np.ndarray      # H = (eta/2) C: every off-diagonal block
    omega: float
    n_modes: int
    dim: int                  # atomic dimension d
    lam: float

    @property
    def block_size(self):
        return self.base.shape[0]

    @property
    def norm_inf(self):
        """||F||_inf, the largest block row sum (H twice per row, once at |k| = N)."""
        modes = np.arange(-self.n_modes, self.n_modes + 1)
        diag = 1j * self.omega * modes[:, None, None] * np.eye(self.block_size) + self.base
        neighbours = np.where(np.abs(modes) < self.n_modes, 2.0, 1.0)[:, None]
        return float((np.abs(diag).sum(-1) + neighbours * np.abs(self.coupling).sum(-1)).max())

    @cached_property
    def matrix(self):
        """The dense (n s) x (n s) matrix, built on first read: only the tests'
        reference routes and perfbench/tracing.py's row counter read it."""
        n, s = 2 * self.n_modes + 1, self.block_size
        m = np.zeros((n * s, n * s), dtype=complex)
        for idx, k in enumerate(range(-self.n_modes, self.n_modes + 1)):
            sl = slice(idx * s, (idx + 1) * s)
            m[sl, sl] = 1j * self.omega * k * np.eye(s, dtype=complex) + self.base
            if idx + 1 < n:
                sr = slice((idx + 1) * s, (idx + 2) * s)
                m[sl, sr] = m[sr, sl] = self.coupling
        return m


def build_howland(bundle, n_modes):
    """The truncated block-tridiagonal Howland operator; nothing is assembled."""
    if n_modes < 2:
        raise DimensionMismatchError(f"need n_modes >= 2, got {n_modes}")
    return FloquetOperator(base=bundle.static_matrix,
                           coupling=0.5 * bundle.eta * bundle.l_p.matrix, omega=bundle.omega,
                           n_modes=n_modes, dim=bundle.l_at.dim, lam=bundle.lam)


# --------------------------------------------------------------------------
# spectrum and resonance structure
# --------------------------------------------------------------------------

_RESONANCE_TOL = 1e-8       # distance from i omega Z that marks a resonance copy


@dataclass(frozen=True)
class FloquetSpectrum:
    eigenvalues: np.ndarray
    interior: np.ndarray        # |k| <= N-2 mask
    gap: float
    gap_over_lambda2: float
    degenerate: bool
    resonance_residual: float   # ||x_p^H F - i omega p x_p^H||, the same for every |p| <= N-1
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


def _lattice_copies(mu, k, omega, n_modes):
    """The copies mu_j + i omega (k_j + m) on blocks m = -N..N, as (2N+1, d^2)."""
    return mu + 1j * omega * (k + np.arange(-n_modes, n_modes + 1)[:, None])


def floquet_spectrum(f_op, lattice):
    """Spectrum of F from a :func:`floquet_lattice` (mu, k), with interior-mode
    bookkeeping, gap and resonances.

    Nothing is eigensolved at any gap (a zero gap reads at CF4 roundoff):
    the copy mu_j + i omega m lies on block m - k_j, and it is interior for
    |m - k_j| <= N-2 (shift truncation pollutes the outer two blocks).  The
    gap is min |Re mu| over interior eigenvalues off the resonance copies
    (`_RESONANCE_TOL` from i omega Z).  Also: the residual of the exact left
    eigenvector claim x_p^H F = i p omega x_p^H, x_p = delta_{k,p} (x)
    vec(1)/sqrt(d), one number for every |p| <= N-1, and for interior p the
    number of eigenvalues within `_RESONANCE_TOL` of i p omega.
    """
    n, d2 = f_op.n_modes, f_op.block_size
    mu, k = lattice
    if mu.size != d2:
        raise DimensionMismatchError("the lattice and the Howland operator differ")
    return _spectrum_report(f_op, _lattice_copies(mu, k, f_op.omega, n).ravel(),
                            np.repeat(np.abs(np.arange(-n, n + 1)) <= n - 2, d2))


def _spectrum_report(f_op, w, interior):
    """FloquetSpectrum of the eigenvalues `w` of F with their interior mask,
    sorted by (Im rounded to 1e-6, Re): ties in theory keep one order.
    """
    order = np.lexsort((w.real, np.round(w.imag, 6)))
    w, interior = w[order], interior[order]
    n, omega = f_op.n_modes, f_op.omega
    nearest = np.round(w.imag / omega)
    on_resonance = np.abs(w - 1j * omega * nearest) <= _RESONANCE_TOL
    candidates = interior & ~on_resonance
    gap = float(np.min(np.abs(w.real[candidates]))) if np.any(candidates) else 0.0
    lam2 = f_op.lam**2

    # x_p^H F - i p omega x_p^H on row block p of F, [H, i p omega + B, H]:
    # the i p omega terms cancel, so every |p| <= N-1 has the one residual
    one = vec(np.eye(f_op.dim, dtype=complex)) / np.sqrt(f_op.dim)   # real: x_p^H = x_p^T
    side = one @ f_op.coupling
    residual = float(np.linalg.norm(np.concatenate([side, one @ f_op.base, side])))
    counts = {p: int(np.sum(on_resonance & (nearest == p))) for p in range(-(n - 2), n - 1)}
    return FloquetSpectrum(
        eigenvalues=w, interior=interior, gap=gap,
        gap_over_lambda2=gap / lam2 if lam2 > 0 else np.inf,
        degenerate=gap < 1e-12,
        resonance_residual=residual, disc_counts=counts,
    )


def howland_match(f_op, mu, k):
    """max_j |e^{T mu_j} - e^{T mu_H,j}| for a :func:`floquet_lattice` (mu, k).

    mu_H,j is an eigenvalue of F found from F alone: the Rayleigh quotient
    of one inverse iteration step (one block-Thomas call, a fixed seeded
    right-hand side b) at the copy z = mu_j + i omega k_j on block 0.  As
    x = (z - F)^{-1} b gives F x = z x - b, that quotient is z - x^H b / x^H x.
    """
    f_op = _require_howland(f_op)
    # the 1e-12 offset keeps a shift at an eigenvalue of a decoupled block off a zero pivot
    shifts = mu + 1j * f_op.omega * k + 1e-12
    draw = random.Random(0)
    rows = (2 * f_op.n_modes + 1) * f_op.block_size
    rhs = np.array([complex(draw.gauss(0.0, 1.0), draw.gauss(0.0, 1.0)) for _ in range(rows)])
    x = _resolvent_apply(f_op, shifts, np.eye(shifts.size), rhs[:, None])[0][..., 0]
    mu_h = shifts - (x.conj() @ rhs) / np.sum(np.abs(x) ** 2, axis=1)
    period = 2.0 * np.pi / f_op.omega
    return float(np.max(np.abs(np.exp(period * mu) - np.exp(period * mu_h))))


# --------------------------------------------------------------------------
# contour sums
# --------------------------------------------------------------------------

_NODE_CHUNK = 16   # contour nodes eliminated together; bounds the working set


def _require_howland(f_op):
    if not isinstance(f_op, FloquetOperator):
        raise DimensionMismatchError(
            f"expected a FloquetOperator from build_howland, got {type(f_op).__name__}"
        )
    return f_op


def _resolvent_apply(f_op, nodes, weights, rhs=None, lhs=None):
    """(sum_j w_j (z_j - F)^{-1} rhs, sum_j w_j lhs (z_j - F)^{-1}) by block-Thomas.

    z - F has diagonal blocks D_k = (z - i omega k) - B and every
    off-diagonal block -H; `rhs` has n s rows, `lhs` n s columns, and a side
    not given comes back as None.  Each left Schur complement
    L_k = D_k - H (L_{k-1}^{-1} H) is inverted once per node (one batched
    inv per mode over a chunk of nodes), and that one stack of inverses
    serves both sides: u_k = L_k^{-1} (rhs_k + H u_{k-1}) forward and
    X_k = u_k + L_k^{-1} (H X_{k+1}) back; the transposed system
    (z - F)^T Y^T = lhs^T has pivots L_k^T, so the left side runs the same
    two sweeps on the transposed view of each inverse and on H^T.  With
    lhs = Q^H, Y^H is the adjoint sum over z-bar - F^H (pivots L_k^H).  A
    side's forward vectors are 0 before its first nonzero block and are
    kept only from there, and the back sweep adds each block's weighted
    rules into the result as it goes, so one chunk holds n c s^2 inverses
    and (n - k_0) c s r forward vectors per side (c nodes, first nonzero
    block k_0, r columns).  Leading axes of `weights` stack rules over the
    same nodes at no extra solve.  Cost is O(M n s^2 (s + r)) for M nodes,
    n modes and block size s (O(M (n s)^3) dense); a singular pivot raises
    ContourHitsSpectrum.
    """
    n, s = 2 * f_op.n_modes + 1, f_op.block_size
    shifts = 1j * f_op.omega * np.arange(-f_op.n_modes, f_op.n_modes + 1)
    h = f_op.coupling
    nodes = np.asarray(nodes, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    rules = weights.reshape(int(np.prod(weights.shape[:-1])), nodes.size)
    sides = []      # (blocks (n, s, r), coupling, transposed, first nonzero block)
    for b, hc, transposed in ((rhs, h, False), (lhs, h.T, True)):
        if b is not None:
            b = np.asarray(np.transpose(b) if transposed else b, dtype=complex).reshape(n, s, -1)
            nonzero = np.flatnonzero(b.any(axis=(1, 2)))
            sides.append((b, hc, transposed, nonzero[0] if nonzero.size else n))
    acc = [np.zeros((rules.shape[0], n, b[0].size), dtype=complex) for b, *_ in sides]
    eye = np.eye(s, dtype=complex)
    chunk = min(_NODE_CHUNK, nodes.size)   # one set of stacks per call, sliced when short
    inv_stack = np.empty((n, chunk, s, s), dtype=complex)
    u_stack = [np.empty((n - k0, chunk) + b.shape[1:], dtype=complex) for b, _, _, k0 in sides]
    for start in range(0, nodes.size, _NODE_CHUNK):
        z = nodes[start:start + _NODE_CHUNK]
        inv = inv_stack[:, :z.size]
        views = [inv.swapaxes(-1, -2) if transposed else inv for _, _, transposed, _ in sides]
        u = [a[:, :z.size] for a in u_stack]
        schur = 0.0
        try:
            for k in range(n):
                # z - i omega k first: where a shift sits on a lattice copy it
                # cancels exactly, which keeps a near-singular pivot accurate
                pivot = (z - shifts[k])[:, None, None] * eye - f_op.base - schur
                inv[k] = np.linalg.inv(pivot)
                for (b, hc, _, k0), view, uk in zip(sides, views, u):
                    if k >= k0:
                        np.matmul(view[k], b[k] + hc @ uk[k - k0 - 1] if k > k0 else b[k],
                                  out=uk[k - k0])
                schur = h @ (inv[k] @ h)                        # H L_k^{-1} H
        except np.linalg.LinAlgError as exc:
            raise ContourHitsSpectrumError(
                f"singular block pivot on the contour: {exc}") from None
        w = rules[:, start:start + z.size]
        for (_, hc, _, k0), view, uk, total in zip(sides, views, u, acc):
            if k0 == n:                                         # an all-zero side
                continue
            x = uk[-1]
            total[:, -1] += w @ x.reshape(z.size, -1)
            for k in range(n - 2, -1, -1):
                x = view[k] @ (hc @ x)
                if k >= k0:
                    x += uk[k - k0]
                total[:, k] += w @ x.reshape(z.size, -1)
    out = iter(a.reshape(weights.shape[:-1] + (n * s, -1)) for a in acc)
    return (None if rhs is None else next(out),
            None if lhs is None else np.swapaxes(next(out), -1, -2))


def _contour_radius(eigenvalues, center, radius=None):
    """Radius rule and annulus guard; returns the radius and the enclosed count.

    Default radius: 0.45 times the isolation distance of the cluster at
    `center`, capped at 0.45.  A radius that is not finite and > 0, or an
    eigenvalue inside the annulus [0.5 r, 1.5 r], aborts with
    ContourHitsSpectrum.
    """
    dist = np.abs(eigenvalues - center)
    if radius is None:
        outside = dist[dist > 1e-6]
        isolation = float(np.min(outside)) if outside.size else np.inf
        radius = min(0.45 * isolation, 0.45)
    if not 0 < radius < np.inf:
        raise ContourHitsSpectrumError(
            f"the contour radius must be finite and > 0, got {radius!r}")
    in_annulus = np.sum((dist >= 0.5 * radius) & (dist <= 1.5 * radius))
    if in_annulus:
        raise ContourHitsSpectrumError(
            f"{in_annulus} eigenvalue(s) inside the [0.5r, 1.5r] annulus at r={radius:.3g}"
        )
    return radius, int(np.sum(dist < radius))


# --------------------------------------------------------------------------
# perturbation block
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LowRank:
    """An n s x n s operator kept as thin factors: left @ core @ right."""
    left: np.ndarray          # (n s, r)
    core: np.ndarray          # (r, r)
    right: np.ndarray         # (r, n s)


@dataclass(frozen=True)
class KatoBlock:
    block: LowRank            # P F P
    first_order: LowRank      # P0 (F - F0) P0
    projection: LowRank       # P = X K^{-1} Y on the probe Range(P0)
    residual: float
    separation: float         # ||(P - P0)^2||_2
    idempotency_defect: float
    quadrature_gap: float     # M-node vs every-second-node probe, relative
    radius: float


def _free_basis(f_op, b0):
    """Orthonormal basis Q0 of Range(P0) and the contour radius at 0, exactly.

    The free operator F0 = diag(i omega k + B0) on F's modes is block
    diagonal with skew-Hermitian blocks, so one Hermitian eigensolve of
    i B0 gives its whole spectrum eig(B0) + i omega k for the radius rule
    and an orthonormal eigenbasis; P0 = Q0 Q0^H.  A `b0` that is not
    d^2 x d^2 raises DimensionMismatch, one that is not skew-Hermitian, or
    an F or B0 that fails :func:`_preserves_hermiticity`, GeneratorStructure.
    """
    s = f_op.block_size
    b0 = np.asarray(b0)
    if b0.shape != (s, s):
        raise DimensionMismatchError(f"B0 has shape {b0.shape}, F has {s} x {s} blocks")
    if np.linalg.norm(b0 + b0.conj().T) > 1e-12 * max(1.0, np.linalg.norm(b0)):
        raise GeneratorStructureError("B0 must be skew-Hermitian, as L_at is")
    if not _preserves_hermiticity(f_op.dim, f_op.base, f_op.coupling, b0):
        raise GeneratorStructureError(
            "F and B0 must map Hermitian matrices to Hermitian ones, as L_t does")
    mu, vecs = np.linalg.eigh(1j * b0)                    # B0 v = -i mu v
    shifts = 1j * f_op.omega * np.arange(-f_op.n_modes, f_op.n_modes + 1)
    eigs = shifts[:, None] - 1j * mu                      # (modes, s), row order of F0
    radius, _ = _contour_radius(eigs.ravel(), 0.0)
    modes, cols = np.nonzero(np.abs(eigs) < radius)
    q0 = np.zeros((eigs.size, modes.size), dtype=complex)
    for j, (k, c) in enumerate(zip(modes, cols)):
        q0[k * s:(k + 1) * s, j] = vecs[:, c]
    return q0, radius


def _preserves_hermiticity(dim, *blocks):
    """Whether every d^2 x d^2 block maps Hermitian matrices to Hermitian
    ones, conj(A) = S A S for the vec-transpose swap S: the test by which
    `evolution._in_basis` picks a real basis (1e-14 relative)."""
    basis = _hermitian_basis(dim)
    return all(np.isrealobj(_in_basis(a, basis)) for a in blocks)


def _sector_rows(f_op, b0, q0):
    """The block rows of the probe: those where Q0 is nonzero, closed under
    the exact nonzero pattern of B, H and B0 (both ways) and under the
    vec-transpose swap S (passing the 1e-14 Hermiticity test does not make
    the pattern swap-symmetric).

    z - F then has no entry between these rows and the others on any mode,
    so (z - F)^{-1} Q0 and Q0^H (z - F)^{-1} vanish exactly off them.  For
    the covariant generators of this model the rows are the weak-symmetry
    sector of S_T = e^{-T L_at} that holds Range(P0): the |m><n| whose Bohr
    frequency is 0 mod omega (5 of 9 on three_level).  Returns the sorted
    rows and S as their permutation.
    """
    s, d = f_op.block_size, f_op.dim
    link = (f_op.base != 0) | (f_op.coupling != 0) | (b0 != 0)
    link |= link.T
    swap = np.arange(s).reshape(d, d).T.ravel()
    rows = q0.reshape(-1, s, q0.shape[1]).any(axis=(0, 2))
    while True:
        grown = rows | link[rows].any(axis=0) | rows[swap]
        if np.array_equal(grown, rows):
            rows = np.flatnonzero(rows)
            return rows, np.searchsorted(rows, swap[rows])
        rows = grown


def _mirrored_probe(f_op, q0, nodes, w, swap):
    """The probe's sums X, X_half, F X, Y, Y_half from the upper half of the nodes.

    B and H preserve Hermiticity, so conj(F) = R F R for R = mode
    reversal (x) S (`swap`: S as a permutation of one block's rows), and
    (z-bar - F)^{-1} = R conj((z - F)^{-1}) R; for F0 too, so
    R conj(Q0) = Q0 G with G = Q0^H R conj(Q0) unitary.  On the circle
    around 0 node M-1-j is the conjugate of node j, with weight conj(w_j).  A
    sum U = sum_j c_j (z_j - F)^{-1} Q0 over upper nodes thus has the
    lower-half mirror sum_j conj(c_j) (z-bar_j - F)^{-1} Q0 = R conj(U) conj(G),
    and Y-bar = G^T conj(Y) R is the same map on Y^H.  Odd upper nodes
    mirror onto even lower ones, so with E, O the upper sums of 2w over
    even and odd nodes and Z that of w z: the M-node rule is A + mirror(A)
    with A = (E + O)/2, the M/2 rule E + mirror(O), and F X is Z + mirror(Z).
    """
    half = nodes.size // 2
    odd = np.arange(half) % 2 == 1
    upper = w[:half]
    rules = np.stack([np.where(odd, 0.0, 2.0 * upper), np.where(odd, 2.0 * upper, 0.0),
                      upper * nodes[:half]])
    n = 2 * f_op.n_modes + 1

    def reflect(a):                                   # R a for n s rows
        return a.reshape(n, swap.size, -1)[::-1, swap].reshape(a.shape)

    g_bar = (q0.conj().T @ reflect(q0.conj())).conj()

    def mirror(u):
        return reflect(u.conj()) @ g_bar

    (even_x, odd_x, fz), (even_y, odd_y, _) = _resolvent_apply(
        f_op, nodes[:half], rules, q0, q0.conj().T)
    even_y, odd_y = even_y.conj().T, odd_y.conj().T     # the Y^H sums
    x, yh = (even_x + odd_x) / 2, (even_y + odd_y) / 2
    return (x + mirror(x), even_x + mirror(odd_x), fz + mirror(fz),
            (yh + mirror(yh)).conj().T, (even_y + mirror(odd_y)).conj().T)


def kato_block(f_op, b0, m_points=64, *, eigenvalues):
    """Compression P F P against its first-order model at the resonance 0.

    P and P0 are the Riesz projections of F and of the free operator
    F0 = diag(i omega k + B0) around 0 (same contour); `b0` is the d^2 x d^2
    free block B0 = L_at, and F0 lives on F's modes, omega and d.  Returns
    the thin factors of the blocks and

        residual = || P F P - P0 (F - F0) P0 ||_2 ,

    the defect of the first-order expansion of the compressed generator.
    Nothing of size n s x n s is formed.  P0 = Q0 Q0^H is exact
    (:func:`_free_basis`), and P is probed on Range(P0): by Kato's pair of
    projections, P maps Range(P0) onto Range(P) while ||(P - P0)^2|| < 1,
    so with X = P Q0, Y = Q0^H P and K = Q0^H X, P = X K^{-1} Y.  X and Y
    are the two sides of one block-Thomas contour sum
    (:func:`_resolvent_apply` with rhs Q0 and lhs Q0^H), so each pivot is
    factored once per node for both.  The sum runs on the sector rows I of
    every mode (:func:`_sector_rows`: the rows B, H and B0 reach from
    Range(P0), off which X and Y vanish exactly; 5 of 9 on three_level,
    every row when the blocks are dense), so the pivots, QRs and cores are
    those of n |I| rows, and X and Y come back on all n s rows.
    Only the M/2 nodes above the real axis are solved and their conjugates
    are mirrored (:func:`_mirrored_probe`), so an F or B0 that fails the
    Hermiticity test of `evolution._in_basis` (1e-14 relative) is refused.
    The residual, the pair separation and the idempotency defect are
    2-norms of 2r x 2r cores of the thin QRs of [X, Q0] and [Y^H, Q0].
    The thin form cannot see quadrature error off Range(P0), so X and Y are
    also summed over every second node (a rotated M/2-point rule, needing
    an even M): a relative gap above 1e-6, like a core defect above 1e-6,
    raises IdempotencyFailure.  A count of F's eigenvalues inside the
    contour (`eigenvalues`, F's spectrum: required, nothing is solved
    here) other than rank P0, a singular K, or a separation >= 1 raises
    ProjectionPairTooFar.
    """
    f_op = _require_howland(f_op)
    if m_points < 2 or m_points % 2:
        raise DimensionMismatchError(
            f"the Kato probe needs an even number of contour nodes >= 2, got {m_points!r}")
    b0 = np.asarray(b0)
    q0, radius = _free_basis(f_op, b0)
    _, enclosed = _contour_radius(eigenvalues, 0.0, radius)
    r = q0.shape[1]
    if enclosed != r:
        raise ProjectionPairTooFarError(
            f"{enclosed} eigenvalue(s) of F inside the contour against rank P0 = {r}")

    # the probe runs on the sector rows of every mode; X and Y are zero off them
    n, s = 2 * f_op.n_modes + 1, f_op.block_size
    rows, swap = _sector_rows(f_op, b0, q0)
    sector = np.ix_(rows, rows)
    f_sec = replace(f_op, base=f_op.base[sector], coupling=f_op.coupling[sector])
    q = q0.reshape(n, s, r)[:, rows].reshape(n * rows.size, r)

    phases = np.exp(2j * np.pi * (np.arange(m_points) + 0.5) / m_points)
    w = radius * phases / m_points
    nodes = radius * phases
    # F (z - F)^{-1} = z (z - F)^{-1} - 1 and sum w = 0: F X is the rule w z
    x, x_half, fx, y, y_half = _mirrored_probe(f_sec, q, nodes, w, swap)
    gap = max(np.linalg.norm(full - half) / np.linalg.norm(full)
              for full, half in ((x, x_half), (y, y_half)))
    if gap > 1e-6:
        raise IdempotencyFailureError(
            f"M={m_points} and M/2 node probes differ by {gap:.3e}")

    k = q.conj().T @ x                                   # Q0^H P Q0
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
    qa, ra = np.linalg.qr(np.hstack([x, q]))
    qb, rb = np.linalg.qr(np.hstack([y.conj().T, q]))
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
    block = k_inv @ (y @ fx) @ k_inv
    # (F - F0) Q0: B - B0 on each column's own block, H on both neighbours (F0 has no H)
    qk = q.reshape(n, rows.size, r)
    hq = np.pad(f_sec.coupling @ qk, ((1, 1), (0, 0), (0, 0)))
    first = q.conj().T @ ((f_sec.base - b0[sector]) @ qk + hq[:-2] + hq[2:]).reshape(q.shape)
    residual = float(np.linalg.norm(core(block, -first), 2))

    def scatter(a):                                      # sector rows -> n s rows
        out = np.zeros((n, s, r), dtype=complex)
        out[:, rows] = a.reshape(n, rows.size, r)
        return out.reshape(n * s, r)

    x, y = scatter(x), scatter(y.T).T
    return KatoBlock(
        block=LowRank(x, block, y), first_order=LowRank(q0, first, q0.conj().T),
        projection=LowRank(x, k_inv, y), residual=residual, separation=sep,
        idempotency_defect=defect, quadrature_gap=float(gap), radius=float(radius))


def kato_order_check(bundle, n_modes, m_points=64, lattice=None):
    """Halving ratio of the Kato-block residual at 0 in the coupling.

    Residuals of :func:`kato_block` at (lambda, eta) and (lambda/2, eta/4),
    so that eta stays proportional to lambda^2, both against the one free
    block B0 = L_at (``bundle.l_at.matrix``).  Their annulus guards and
    enclosed counts take the lattice copies mu_j + i omega m; `lattice`
    (``floquet_lattice(bundle, n_modes)``) is the caller's at lambda,
    computed here when not given.  When both residuals sit at roundoff
    (<= 1e-13 ||F||_inf, as when the first-order model is exact), their
    quotient is noise and `ratio` is None.
    """
    b0 = bundle.l_at.matrix
    half = replace(bundle, lam=bundle.lam * 0.5, eta=bundle.eta * 0.25)
    rungs = []                                          # (residual, ||F||_inf)
    for b, lat in ((bundle, lattice), (half, None)):
        op = build_howland(b, n_modes)
        w = _lattice_copies(*(lat or floquet_lattice(b, n_modes)), b.omega, n_modes).ravel()
        rungs.append((kato_block(op, b0, m_points, eigenvalues=w).residual,
                      op.norm_inf))
    (at_lambda, norm), (at_half, _) = rungs
    floor = 1e-13 * norm
    noise = at_lambda <= floor and at_half <= floor
    return {
        "residual_at_lambda": at_lambda,
        "residual_at_half_lambda": at_half,
        "ratio": at_half / at_lambda if at_lambda and not noise else None,
    }
