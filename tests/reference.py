"""Reference routes: the tests' independent cross-checks of the library.

Only the tests call these.  They read the dense Howland matrix
`FloquetOperator.matrix` and scipy, which no library function does: the
dense eigensolve of F, the dense resolvent sum, the dense Riesz projection
and eigenprojection, the Hungarian monodromy match, RK45 for a state and
for tau(t, s), Kato's pairs-of-projections transform, the one-integral
adaptive Gauss-Legendre rule, the strip-analyticity ladder one line at a
time, the one-value PV coefficient, and literal definitions (Choi matrix,
spectral projection of L_at, glued function g and its continuation off the
real axis, a `LowRank` as one dense matrix).
Private library helpers are imported, not copied.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment

from pumped_lindblad import (
    DimensionMismatchError,
    DisagreementBetweenRulesError,
    EigensolverFailureError,
    FloquetOperator,
    IdempotencyFailureError,
    PumpedLindbladError,
    StepSizeUnderflowError,
    Superoperator,
    bohr_spectrum,
    build_howland,
    pv_coefficients,
    validate_state,
    vec,
)
from pumped_lindblad.evolution import _output_grid, _trajectory, _unvec_rows
from pumped_lindblad.floquet import (_contour_radius, _require_howland, _resolvent_apply,
                                     _spectrum_report)
from pumped_lindblad.reservoir import (_GL_MAX_LEVELS, _GL_MAX_OPEN, _GL_NODES, _GL_REL_TOL,
                                       _GL_WEIGHTS, _effective_beta, _line_cutoff,
                                       _line_integrand, _logistic)

# --------------------------------------------------------------------------
# the dense Howland matrix: spectrum, Riesz projections, monodromy match
# --------------------------------------------------------------------------

def dense_low_rank(factors):
    """The n s x n s matrix left @ core @ right of a `LowRank`."""
    return factors.left @ factors.core @ factors.right


def dense_spectrum(f_op):
    """`floquet_spectrum` of F from the eigensolve of its dense matrix.

    An eigenvalue is interior when its eigenvector's largest block is
    |k| <= N-2.  That mask is a reference on gapped spectra only: on a
    degenerate spectrum an eigenvector mixes copies from several blocks,
    and on the dephased three-level case (gks_jumps [diag(0, 1, 0)]) at
    n_modes = 8 it counts 115 interior eigenvalues where 117 = 13 d^2 are
    correct.  Acceptance check 6 reads it only on the gapped `three_level`.
    """
    n, d2 = f_op.n_modes, f_op.block_size
    try:
        w, v = np.linalg.eig(f_op.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailureError(str(exc)) from None
    block_mass = (np.abs(v.reshape(2 * n + 1, d2, -1)) ** 2).sum(axis=1)
    return _spectrum_report(f_op, w, np.abs(block_mass.argmax(axis=0) - n) <= n - 2)


@dataclass(frozen=True)
class RieszProjection:
    matrix: np.ndarray
    center: complex
    radius: float
    m_points: int
    idempotency_defect: float
    rank: int


def riesz_projection(f_op, center, radius=None, m_points=64):
    """Contour-quadrature Riesz projection of `f_op` around `center`.

    Trapezoid rule on the circle of the given radius (default: 0.45 times
    the isolation distance of the enclosed cluster in the dense spectrum,
    capped at 0.45).  An eigenvalue inside the annulus [0.5 r, 1.5 r]
    aborts with ContourHitsSpectrum; an idempotency defect above 1e-6
    aborts with IdempotencyFailure.  The resolvent sum is the library's
    block-Thomas kernel with the identity as right-hand side.
    """
    f_op = _require_howland(f_op)
    radius, _ = _contour_radius(np.linalg.eigvals(f_op.matrix), center, radius)
    phases = np.exp(2j * np.pi * (np.arange(m_points) + 0.5) / m_points)
    eye = np.eye(f_op.matrix.shape[0], dtype=complex)
    p = _resolvent_apply(f_op, center + radius * phases, radius * phases, eye)[0] / m_points
    defect = float(np.linalg.norm(p @ p - p, 2))
    if defect > 1e-6:
        raise IdempotencyFailureError(f"projection defect {defect:.3e} at M={m_points}")
    rank = int(round(np.trace(p).real))
    return RieszProjection(matrix=p, center=complex(center), radius=float(radius),
                           m_points=int(m_points), idempotency_defect=defect, rank=rank)


def resolvent_sum_dense(f_op, nodes, weights):
    """sum_j w_j (z_j - F)^{-1} from one dense solve of the Howland matrix per
    node; leading axes of `weights` stack rules over the same nodes."""
    m = f_op.matrix
    eye = np.eye(m.shape[0])
    weights = np.asarray(weights)
    total = np.zeros(weights.shape[:-1] + m.shape, dtype=complex)
    for z, w in zip(nodes, np.moveaxis(weights, -1, 0)):
        total += np.multiply.outer(w, np.linalg.solve(z * eye - m, eye))
    return total


def eigenprojection_direct(f_op, center, radius):
    """Spectral projection from the dense eigensolver; shares no code with the contour sum."""
    m = f_op.matrix if isinstance(f_op, FloquetOperator) else np.asarray(f_op)
    try:
        w, v = np.linalg.eig(m)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailureError(str(exc)) from None
    idx = np.abs(w - center) <= radius
    return v[:, idx] @ v_inv[idx, :]


@dataclass(frozen=True)
class MonodromyReport:
    superop: Superoperator
    eigenvalues: np.ndarray           # of the one-period propagator
    matched_exponents: np.ndarray     # e^{T mu} assigned by the matching
    max_match_error: float
    n_modes: int


def monodromy(bundle, n_modes=32, rtol=1e-10):
    """One-period RK45 propagator vs Floquet exponents of the dense Howland operator.

    Each eigenvalue of tau(T, 0) must coincide with e^{T mu} for some
    truncated-Howland eigenvalue mu (the mode shift +i omega k drops out of
    the exponential).  The assignment minimizing the total distance is
    computed by the Hungarian method on the rectangular cost matrix.
    """
    tau = propagator(bundle, 0.0, bundle.period, rtol=rtol)
    mono_eigs = np.linalg.eigvals(tau.matrix)
    mono_eigs = mono_eigs[np.lexsort((mono_eigs.real, mono_eigs.imag))]
    candidates = np.exp(bundle.period * np.linalg.eigvals(build_howland(bundle, n_modes).matrix))
    cost = np.abs(mono_eigs[:, None] - candidates[None, :])
    rows, cols = linear_sum_assignment(cost)
    return MonodromyReport(
        superop=tau, eigenvalues=mono_eigs, matched_exponents=candidates[cols],
        max_match_error=float(cost[rows, cols].max()), n_modes=n_modes,
    )


# --------------------------------------------------------------------------
# RK45 (scipy): the state over the whole interval, and the propagator
# --------------------------------------------------------------------------

def _rhs(bundle):
    """y -> L_t y for a vectorized state, or for the row-flattened columns
    of a d^2 x k matrix such as the propagator."""
    static, pump = bundle.static_matrix, bundle.l_p.matrix
    eta, omega = bundle.eta, bundle.omega
    n = static.shape[0]

    def rhs(t, y):
        u = y.reshape(n, -1)
        return (static @ u + (eta * np.cos(omega * t)) * (pump @ u)).reshape(-1)

    return rhs


def evolve_rk45(bundle, rho0, t_end, output_grid=None, rtol=1e-8, atol=1e-10):
    """`evolve` by adaptive RK45 over all of [0, t_end], dense output sampled on
    the grid; `meta["rhs_evals"]` counts right-hand-side evaluations, and
    integrator stall raises StepSizeUnderflow."""
    rho0 = validate_state(rho0)
    times = _output_grid(t_end, output_grid)
    sol = solve_ivp(_rhs(bundle), (0.0, t_end), vec(rho0), method="RK45",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise StepSizeUnderflowError(f"integrator failed: {sol.message}")
    return _trajectory(sol.t, _unvec_rows(sol.y.T, rho0.shape[0]), atol,
                       {"method": "rk45", "rtol": rtol, "atol": atol,
                        "rhs_evals": int(sol.nfev)})


def propagator(bundle, s, t, rtol=1e-10, atol=1e-12):
    """Two-parameter propagator tau(t, s) as a superoperator.

    Integrates d/dt tau = L_t tau with tau(s, s) = 1 by RK45 on the
    matrix-valued ODE (dimension d^4).  t >= s required.
    """
    if t < s:
        raise DimensionMismatchError(f"need t >= s, got s={s}, t={t}")
    d = bundle.l_at.dim
    if t == s:
        return Superoperator.identity(d)
    n = d * d
    sol = solve_ivp(_rhs(bundle), (s, t), np.eye(n, dtype=complex).reshape(-1),
                    method="RK45", rtol=rtol, atol=atol)
    if not sol.success:
        raise StepSizeUnderflowError(f"propagator integration failed: {sol.message}")
    return Superoperator(sol.y[:, -1].reshape(n, n))


# --------------------------------------------------------------------------
# pairs of projections and literal definitions
# --------------------------------------------------------------------------

class NearSingularPairError(PumpedLindbladError):
    """1 - (P-Q)^2 is numerically singular: :func:`pair_transform` refuses."""


def _inv_sqrt_series(r, terms=60):
    """(1 - R)^{-1/2} by the binomial series; valid for ||R|| < 1."""
    acc = power = np.eye(r.shape[0], dtype=complex)
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
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    eye = np.eye(p.shape[0], dtype=complex)
    r = (p - q) @ (p - q)
    one_minus = eye - r
    smin = np.linalg.svd(one_minus, compute_uv=False)[-1]
    if smin <= 1e-6:
        raise NearSingularPairError(f"min singular value of 1-R is {smin:.3e}")
    # every |eigenvalue| of 1 - R is >= smin, so the root below is finite
    w, vecs = np.linalg.eig(one_minus)
    inv_sqrt = vecs @ np.diag(w ** -0.5) @ np.linalg.inv(vecs)
    if np.linalg.norm(r, 2) < 0.5:
        mismatch = np.linalg.norm(_inv_sqrt_series(r) - inv_sqrt, 2)
        if mismatch > 1e-9 * max(1.0, np.linalg.norm(inv_sqrt, 2)):
            raise DisagreementBetweenRulesError(
                f"series and eigendecomposition roots differ by {mismatch:.3e}")
    u = (q @ p + (eye - q) @ (eye - p)) @ inv_sqrt
    v = (p @ q + (eye - p) @ (eye - q)) @ inv_sqrt
    return u, v


def choi_matrix(superop):
    """Choi matrix C = sum_{ij} E_ij (x) Phi(E_ij) of a superoperator."""
    d = superop.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(e, superop(e))
    return c


def spectral_projection(atom, eps, bohr=None):
    """Eigenprojection P_at^(eps) of L_at onto eigenvalue -i*eps.

    P_at^(eps)(A) = sum over (j,k) with E_j - E_k = eps of P_j A P_k; eps is
    one of the Bohr table's own frequencies, which key its pair sets.
    """
    pairs = (bohr_spectrum(atom) if bohr is None else bohr).pairs[eps]
    d = atom.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    for (j, k) in pairs:
        m += np.kron(atom.projections[k - 1].T, atom.projections[j - 1])
    return Superoperator(m)


def glued_g_continued(ff, beta, z):
    """Analytic continuation of g off the real axis.

    Uses g(z) = sum w z^{2p} e^{-C z^2} (1+e^{-beta z})^{-1/2} continued
    from Re z >= 0, and the conjugate-weight formula from Re z < 0.  For
    real weights the two branches agree and g is analytic on the strip
    |Im z| < pi/beta.
    """
    beta = _effective_beta(beta)
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        root = 1.0 / np.sqrt(1.0 + np.exp(-beta * z))
        if not np.all(np.isfinite(root)):  # e^{-beta z} overflowed off the real axis
            root = np.where(np.isfinite(root), root,
                            np.exp(0.5 * beta * z) / np.sqrt(np.exp(beta * z) + 1.0))
        out = np.zeros(z.shape, dtype=complex)
        for (w, p, c) in ff.terms:
            weight = np.where(z.real >= 0, w, np.conj(w))
            out += weight * z ** (2 * p) * np.exp(-c * z**2)
        out = out * root
    return out if out.shape else complex(out)


def glued_g(ff, beta, x):
    """g(x) = |x|(1+e^{-beta x})^{-1/2} * (f(x) if x>=0 else conj(f(-x)))."""
    beta = _effective_beta(beta)
    x = np.asarray(x, dtype=float)
    fermi = np.sqrt(_logistic(beta * x))      # (1+e^{-bx})^{-1/2}, overflow-safe
    fvals = ff(np.abs(x))
    fvals = np.where(x >= 0, fvals, np.conj(fvals))
    out = np.abs(x) * fermi * fvals
    return out if out.shape else complex(out)


def pv_coefficient(ff, beta, eps):
    """The one-value form of ``reservoir.pv_coefficients``."""
    return float(pv_coefficients(ff, beta, [eps])[0])


# --------------------------------------------------------------------------
# adaptive Gauss-Legendre, one integral at a time
# --------------------------------------------------------------------------

def adaptive_gauss_legendre_one(h, edges):
    """One integral of h(x) by the rule of ``reservoir._adaptive_gauss_legendre``,
    written for a single integral: returns (value, summed gap, capped).

    A stack of one must reproduce it bit for bit.
    """
    def panels(left, width):
        x = left[:, None] + (0.5 * width)[:, None] * (1.0 + _GL_NODES)
        return 0.5 * width * (h(x.ravel()).reshape(x.shape) @ _GL_WEIGHTS)

    edges = np.asarray(edges, dtype=float)
    left, width = edges[:-1], np.diff(edges)
    whole = panels(left, width)
    val = err = 0.0
    for _ in range(_GL_MAX_LEVELS):
        half = 0.5 * width
        lo, hi = np.split(panels(np.concatenate([left, left + half]),
                                 np.concatenate([half, half])), 2)
        fine = lo + hi
        with np.errstate(invalid="ignore"):
            gap = np.abs(fine - whole)
        if not np.all(np.isfinite(gap)):
            return np.inf, np.inf, False
        ok = gap <= _GL_REL_TOL * abs(val + fine.sum()) / width.size
        val += fine[ok].sum()
        err += gap[ok].sum()
        bisect = ~ok
        left = np.concatenate([left[bisect], left[bisect] + half[bisect]])
        width = np.concatenate([half[bisect], half[bisect]])
        whole = np.concatenate([lo[bisect], hi[bisect]])
        if not 0 < left.size <= _GL_MAX_OPEN:
            break
    return val + whole.sum(), err, bool(left.size)


def strip_ladder_per_line(form_factors, beta, radii, n_lines, bound_ceiling=1e12):
    """The strip-analyticity ladder one line at a time: every line of every
    rung (both signs of y, for real weights too) integrated alone by
    :func:`adaptive_gauss_legendre_one` from 64 equal panels on its cutoff.

    Returns, for each rung up to the first that is not all "finite", one
    (verdict, lines) pair per form factor, lines as in ``AnalyticityReport``.
    A finite line within `bound_ceiling` must have converged (asserted).
    """
    beta = _effective_beta(beta)
    done = {}
    rungs = []
    for r_max in radii:
        below = np.linspace(-r_max, r_max, n_lines)[:n_lines // 2] * (1.0 - 1e-12)
        ys = np.concatenate([below, [0.0], -below[::-1]]).tolist()
        reports = []
        for i, ff in enumerate(form_factors):
            for y in ys:
                if (i, y) not in done:
                    x_max = _line_cutoff(ff, beta, y)
                    val, err, capped = adaptive_gauss_legendre_one(
                        _line_integrand(ff, beta, y), np.linspace(-x_max, x_max, 65))
                    if np.isfinite(val) and val <= bound_ceiling:
                        assert not capped and err <= max(1e-6 * val, 1e-10), (ff, y)
                    done[i, y] = val
            vals = np.array([done[i, y] for y in ys])
            finite = bool(np.all(np.isfinite(vals) & (vals <= bound_ceiling)))
            reports.append(("finite" if finite else "exceeds-bound",
                            tuple((y, done[i, y]) for y in ys)))
        rungs.append(tuple(reports))
        if any(verdict != "finite" for verdict, _ in reports):
            break
    return rungs
