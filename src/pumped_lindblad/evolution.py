"""Time evolution under the pumped effective master equation.

The generator is the T-periodic family

    L_t = L_at + eta cos(omega t) L_p + lambda^2 L_R,      T = 2 pi / omega,

acting on vectorized states.  The dynamics is linear and T-periodic, so

    rho(n T + s) = tau(s, 0) M^n rho_0,      M = tau(T, 0),

and `evolve` ("stroboscopic") builds tau(t_k, 0) once on a uniform grid of
N steps over a single period, then reaches every output time by powers of
the monodromy M and one interpolated phase: each elapsed period costs one
d^2 x d^2 matrix-vector product, so the cost grows linearly with t_end.
Each step is the commutator-free 4th-order Magnus exponential on the two
Gauss nodes (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006));
all 2N exponentials of one grid come from one batched Taylor series in
Horner form, and N doubles from 64 until ||M_N - M_2N|| / 15 <= 1e-12
max(1, ||M_2N||).  Off-grid phases use cubic Hermite interpolation with the
exact derivative L_t tau.  The grid keeps tau - 1 rather than tau, and the
steps are chained by a parallel prefix product, so the trace row of M
(which the exact flow keeps at vec(1)^T) is off by ~1e-18 per period
instead of one rounding of 1 per step.  The same grid gives the Floquet
lattice its monodromy and phases.  Trace drift is a pure roundoff health
metric and is never renormalized away.  The independent RK45 routes (over
the whole interval, and the superoperator propagator tau(t, s)) are the
tests' own, in tests/reference.py.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateKernelError,
    DimensionMismatchError,
    GeneratorStructureError,
    NonPositiveKernelError,
    PositivityBreachError,
    StepSizeUnderflowError,
)
from .operator_core import Superoperator, unvec, validate_state, vec

__all__ = [
    "GeneratorBundle",
    "Trajectory",
    "averaged_generator",
    "evolve",
    "populations",
    "stationary_state",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class GeneratorBundle:
    """Static parts and couplings of the periodic generator."""

    l_at: Superoperator
    l_p: Superoperator
    l_r: Superoperator
    lam: float
    eta: float
    omega: float

    def __post_init__(self):
        if not self.omega > 0:
            raise DimensionMismatchError(f"pump frequency {self.omega} must be > 0")
        d = self.l_at.dim
        if self.l_p.dim != d or self.l_r.dim != d:
            raise DimensionMismatchError("generator parts act on different spaces")
        if not all(np.isfinite(x).all() for x in (self.lam, self.eta, self.omega,
                                                  self.l_at.matrix, self.l_p.matrix,
                                                  self.l_r.matrix)):
            raise GeneratorStructureError("generator has a non-finite coupling or entry")

    @property
    def period(self):
        return 2.0 * np.pi / self.omega

    @property
    def static_matrix(self):
        return self.l_at.matrix + self.lam**2 * self.l_r.matrix


def averaged_generator(bundle):
    """Rotating-frame time average (eta/2) L_p + lambda^2 L_R."""
    return Superoperator(0.5 * bundle.eta * bundle.l_p.matrix
                         + bundle.lam**2 * bundle.l_r.matrix)


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """States on an increasing time grid with per-point health metrics.

    `meta` holds the method ("stroboscopic") and the solver's work:
    `steps`, the CF4 steps of every doubling level.
    """

    times: np.ndarray
    states: np.ndarray        # shape (n, d, d)
    trace_error: np.ndarray
    min_eig: np.ndarray
    purity: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)


def _diagnose(states):
    tr_err = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    herm = states.conj().transpose(0, 2, 1)     # a fresh copy, updated in place
    herm += states
    herm *= 0.5
    min_eig = np.linalg.eigvalsh(herm)[:, 0]
    purity = np.einsum("nij,nji->n", states, states).real
    return tr_err, min_eig, purity


def _unvec_rows(rows, d):
    """`unvec` of each row of an (n, d^2) array, as an (n, d, d) array."""
    return np.asarray(rows).reshape(-1, d, d).transpose(0, 2, 1)


def _output_grid(t_end, output_grid):
    """The validated output grid (1-D, strictly increasing, inside [0, t_end]) for t_end > 0."""
    if not t_end > 0:
        raise DimensionMismatchError(f"t_end={t_end} must be positive")
    if output_grid is None:
        return np.linspace(0.0, t_end, 201)
    grid = np.asarray(output_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionMismatchError(
            f"output grid must be a non-empty 1-D array, got shape {grid.shape}")
    if not np.all(np.diff(grid) > 0):
        raise DimensionMismatchError("output grid must be strictly increasing")
    if not (grid[0] >= 0.0 and grid[-1] <= t_end):
        raise DimensionMismatchError(
            f"output grid [{grid[0]:.6g}, {grid[-1]:.6g}] is not inside [0, {t_end:.6g}]")
    return grid


def evolve(bundle, rho0, t_end, output_grid=None, atol=1e-10):
    """Integrate rho' = L_t rho from the validated state rho0 over [0, t_end].

    The output grid (default: 201 uniform points) must be strictly
    increasing and inside [0, t_end]; otherwise DimensionMismatch.  The
    one-period CF4 step grid is built once (to its own step-doubling
    tolerance) and tau(phase, 0) M^cycles rho0 is returned at each
    t = cycles*T + phase, where M = tau(T, 0) is applied one cycle at a
    time, so past the grid each period costs one d^2 x d^2 matrix-vector
    product; `meta["steps"]` counts the CF4 steps of every doubling level.

    A state whose minimum eigenvalue falls below -100*atol aborts with
    PositivityBreach, and an `atol` that is not finite and >= 0 with
    DimensionMismatch; a grid that does not converge raises
    StepSizeUnderflow.  The trace is never renormalized.
    """
    if not 0.0 <= atol < np.inf:            # NaN would switch the positivity guard off
        raise DimensionMismatchError(f"atol={atol!r} must be finite and >= 0")
    rho0 = validate_state(rho0)
    times = _output_grid(t_end, output_grid)
    rows, steps = _stroboscopic(bundle, vec(rho0), times)
    return _trajectory(times, _unvec_rows(rows, rho0.shape[0]), atol,
                       {"method": "stroboscopic", "steps": steps})


def _trajectory(times, states, atol, meta):
    """The Trajectory of `states` with its health metrics; PositivityBreach
    when a minimum eigenvalue falls below -100*atol."""
    tr_err, min_eig, purity = _diagnose(states)
    worst = int(np.argmin(min_eig))
    if min_eig[worst] < -100.0 * atol:
        raise PositivityBreachError(
            f"state lost positivity at t={times[worst]:.6g}: "
            f"min eigenvalue {min_eig[worst]:.3e}",
            t=float(times[worst]), min_eig=float(min_eig[worst]),
        )
    return Trajectory(times=times, states=states, trace_error=tr_err,
                      min_eig=min_eig, purity=purity, meta=meta)


def _stroboscopic(bundle, v, times):
    """Rows tau(phase, 0) M^cycles v for t = cycles*T + phase, and the CF4 step count.

    `times` must be increasing, so the walk applies M = 1 + (M - 1) one
    cycle at a time, in the grid's Hermitian basis.
    """
    grid = _step_grid(bundle)
    period = bundle.period
    mono_dev = grid.dev[-1]
    cycles = np.floor(times / period)
    phases = np.clip(times - cycles * period, 0.0, period)
    v = grid.basis.conj().T @ v
    vs = np.empty((times.size, v.size), dtype=complex)    # M^cycles v for each point
    done = 0
    for i, c in enumerate(cycles):
        while done < c:
            v = v + mono_dev @ v
            done += 1
        vs[i] = v
    return grid.apply(phases, vs[:, :, None])[:, :, 0] @ grid.basis.T, grid.steps


# --------------------------------------------------------------------------
# one-period CF4 step grid
# --------------------------------------------------------------------------

# 4th-order commutator-free scheme on the two Gauss nodes
# c = 1/2 -/+ sqrt(3)/6 with cross weights (3 -/+ 2 sqrt(3))/12:
# the factor applied first weights the earlier node more.
_CF4_F1 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0
_CF4_F2 = (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
_CF4_C1 = 0.5 - np.sqrt(3.0) / 6.0
_CF4_C2 = 0.5 + np.sqrt(3.0) / 6.0

_GRID_START = 64          # steps per period of the first grid
_GRID_MAX = 4096          # no grid finer than this (StepSizeUnderflow instead)
_GRID_TOL = 1e-12         # ||M_N - M_2N||_1 / 15, relative to max(1, ||M_2N||_1)
_TAYLOR_MAX_NORM = 0.25   # largest ||exponent||_1 of the unscaled Taylor series


@dataclass(frozen=True)
class _StepGrid:
    """tau(t_k, 0) - 1 and h L_{t_k} tau(t_k, 0) at t_k = k h, h = T/N, k = 0..N.

    Both are written, real, in the orthonormal Hermitian basis `basis`
    (columns vec(G_a)).
    """

    step: float
    basis: np.ndarray         # (n, n) unitary
    dev: np.ndarray           # (N + 1, n, n); dev[N] = M - 1
    slope: np.ndarray         # (N + 1, n, n)
    steps: int                # CF4 steps taken over every doubling level

    def apply(self, phases, x):
        """tau(phase_i, 0) @ x_i by cubic Hermite interpolation, phases in [0, T].

        `x` (basis coordinates) is (len(phases), n, r), or (n, r) for one
        block at every phase.  The Hermite weights of tau_k and tau_{k+1}
        sum to 1, so the identity enters as `x` itself and the trace row
        stays that of the grid.
        """
        if np.iscomplexobj(x):
            return self.apply(phases, x.real) + 1j * self.apply(phases, x.imag)
        pos = np.asarray(phases, dtype=float) / self.step
        k = np.clip(np.floor(pos).astype(int), 0, self.dev.shape[0] - 2)
        s = (pos - k)[:, None, None]
        out = x + (1.0 + 2.0 * s) * (1.0 - s) ** 2 * (self.dev[k] @ x)
        out += s * s * (3.0 - 2.0 * s) * (self.dev[k + 1] @ x)
        out += s * (1.0 - s) ** 2 * (self.slope[k] @ x)
        out += s * s * (s - 1.0) * (self.slope[k + 1] @ x)
        return out


def _hermitian_basis(d):
    """Unitary whose columns are vec(G_a) for the orthonormal Hermitian basis
    E_jj, (E_jk + E_kj)/sqrt 2, i(E_jk - E_kj)/sqrt 2 (j < k)."""
    basis = np.zeros((d * d, d * d), dtype=complex)
    col = 0
    for j in range(d):
        basis[j * (d + 1), col] = 1.0
        col += 1
        for k in range(j + 1, d):
            jk, kj = j + k * d, k + j * d         # vec index of E_jk and E_kj
            basis[[jk, kj], col] = np.sqrt(0.5)
            basis[[jk, kj], col + 1] = np.sqrt(0.5) * 1j, -np.sqrt(0.5) * 1j
            col += 2
    return basis


def _in_basis(a, basis):
    """basis^H a basis, real for a generator part that maps Hermitian matrices
    to Hermitian ones; an imaginary part above 1e-14 relative (to max(1,
    largest entry)) raises GeneratorStructure.  The one Hermiticity test of
    the CF4 grid and of floquet's Kato probe.
    """
    r = basis.conj().T @ a @ basis
    imag = np.abs(r.imag).max()
    if imag > 1e-14 * max(1.0, np.abs(r).max()):
        raise GeneratorStructureError(
            "generator part does not map Hermitian matrices to Hermitian ones: "
            f"imaginary part {imag:.3e} in the Hermitian basis")
    return r.real


def _taylor_expm1(x, theta):
    """exp(x) - 1 for a batch of matrices with small theta = max ||x||_1.

    Horner form x (1 + x/2 (1 + x/3 (...))), stopped at the first degree m
    whose remainder term theta^(m+1)/(m+1)! is below the unit roundoff.
    No identity is added, so every term keeps the zero trace row of a
    trace-preserving generator.
    """
    m, remainder = 1, theta * theta / 2.0
    while remainder > 2.0 ** -53:
        m += 1
        remainder *= theta / (m + 1)
    e = x / m
    for j in range(m - 1, 0, -1):
        e = x @ e
        e += x
        e /= j
    return e


def _compose(later, earlier):
    """(1 + later)(1 + earlier) - 1, batched."""
    return later + earlier + later @ earlier


def _chain(steps):
    """(1 + steps[N-1]) ... (1 + steps[0]) - 1 as a pairwise product, N a power of 2."""
    while steps.shape[0] > 1:
        steps = _compose(steps[1::2], steps[0::2])
    return steps[0]


def _cf4_steps(static, pump, omega, h, n_steps):
    """S_k - 1 for N uniform CF4 steps of the generator static + cos(omega t) pump,
    or None when an exponent is too large for the unscaled Taylor series.

    S_k = exp(h (F1 A1 + F2 A2)) exp(h (F2 A1 + F1 A2)) with A1, A2 the
    generator at the Gauss nodes of step k; all 2N exponentials come from
    one batched Taylor call.
    """
    t = h * np.arange(n_steps)
    c1 = np.cos(omega * (t + _CF4_C1 * h))
    c2 = np.cos(omega * (t + _CF4_C2 * h))
    # F1 + F2 = 1/2: the static part enters both exponents with weight h/2
    drive = h * np.concatenate([_CF4_F2 * c1 + _CF4_F1 * c2, _CF4_F1 * c1 + _CF4_F2 * c2])
    x = 0.5 * h * static + drive[:, None, None] * pump
    theta = float(np.abs(x).sum(axis=-2).max())
    if theta > _TAYLOR_MAX_NORM:
        return None
    e = _taylor_expm1(x, theta)
    return _compose(e[n_steps:], e[:n_steps])


def _step_grid(bundle):
    """The one-period CF4 step grid, N doubled from 64 until converged.

    Everything runs in real arithmetic in the Hermitian basis, where a
    generator that fails :func:`_in_basis` raises GeneratorStructure, and
    is kept as a deviation from 1.
    N doubles (skipping grids too coarse for the Taylor series) until the
    monodromies of N/2 and N steps differ by at most 15 * 1e-12 *
    max(1, ||M||_1) in the 1-norm, i.e. until the Richardson estimate of
    the 4th-order error of M_N is below 1e-12; the N grid is kept.  Past
    _GRID_MAX steps, StepSizeUnderflow.

    Each M is a pairwise (tree) product of its steps; the kept grid's
    prefix products come from a Hillis-Steele scan, whose last entry is
    that same tree product.
    """
    basis = _hermitian_basis(bundle.l_at.dim)
    static = _in_basis(bundle.static_matrix, basis)
    pump = _in_basis(bundle.eta * bundle.l_p.matrix, basis)
    prev, work, n = None, 0, _GRID_START
    while n <= _GRID_MAX:
        h = bundle.period / n
        steps = _cf4_steps(static, pump, bundle.omega, h, n)
        if steps is not None:
            work += n
            mono = _chain(steps)
            scale = max(1.0, np.linalg.norm(np.eye(mono.shape[0]) + mono, 1))
            if prev is not None and np.linalg.norm(mono - prev, 1) <= 15.0 * _GRID_TOL * scale:
                dev = np.concatenate([np.zeros_like(steps[:1]), steps])
                span = 1
                while span < n:             # dev[k + 1] -> S_k ... S_{k - 2 span + 1} - 1
                    dev[span + 1:] = _compose(dev[span + 1:], dev[1:-span])
                    span *= 2
                gen = static + np.cos(bundle.omega * h * np.arange(n + 1))[:, None, None] * pump
                return _StepGrid(step=h, basis=basis, dev=dev, slope=h * (gen + gen @ dev),
                                 steps=work)
            prev = mono
        n *= 2
    raise StepSizeUnderflowError(
        f"no CF4 step grid converged to {_GRID_TOL:g} within {n // 2} steps per period")


def __getattr__(name):
    # held for perfbench/tracing.py (`_install_library_counters` wraps
    # `evolution.solve_ivp`) until its counters are re-pointed: the name
    # resolves, and scipy loads only when it is read
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --------------------------------------------------------------------------
# populations and export
# --------------------------------------------------------------------------

def populations(atom, traj):
    """Level populations Tr(P_k rho(t)) as an (n_times, N) real table."""
    return np.einsum("kij,nji->nk", np.array(atom.projections), traj.states).real


def trajectory_to_csv(traj, pops, path):
    """Write `t,pop_1..pop_N,trace,min_eig,purity` with 17-digit floats, LF.

    `pops` is the `populations(atom, traj)` table.
    """
    n = pops.shape[1]
    header = "t," + ",".join(f"pop_{k}" for k in range(1, n + 1)) + ",trace,min_eig,purity"
    trace = np.trace(traj.states, axis1=1, axis2=2).real
    table = np.column_stack([traj.times, pops, trace, traj.min_eig, traj.purity])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write((row * table.shape[0]) % tuple(table.ravel().tolist()))


# --------------------------------------------------------------------------
# stationary states
# --------------------------------------------------------------------------

_KERNEL_TOL = 1e-12   # singular values below this (relative) span the kernel


def stationary_state(superop):
    """Normalized positive kernel element of a generator.

    The kernel is found by SVD; it must be one-dimensional
    (DegenerateKernel otherwise) and the normalized element must be a
    genuine state (NonPositiveKernel otherwise); a generator with a
    non-finite entry has no kernel to find (DegenerateKernel).  Residual
    ||L(rho)|| is verified to 1e-10.
    """
    m = superop.matrix
    d = superop.dim
    if not np.isfinite(m).all():                # the SVD would not converge
        raise DegenerateKernelError("generator has a non-finite entry: no kernel")
    _u, s, vh = np.linalg.svd(m)
    cutoff = _KERNEL_TOL * max(1.0, s[0])
    n_null = int(np.sum(s <= cutoff))
    if n_null != 1:
        raise DegenerateKernelError(
            f"kernel dimension {n_null} (singular values {s[-max(n_null, 2):]})"
        )
    x = unvec(vh.conj().T[:, -1], d)
    tr = np.trace(x)
    if abs(tr) < 1e-10:
        raise NonPositiveKernelError("kernel element is traceless; no state in kernel")
    rho = x / tr
    rho = 0.5 * (rho + rho.conj().T)
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-9:
        raise NonPositiveKernelError(f"kernel element has eigenvalue {w.min():.3e}")
    residual = np.linalg.norm(superop(rho), "fro")
    if residual > 1e-10 * max(1.0, np.linalg.norm(m, 2)):
        raise DegenerateKernelError(f"stationary residual {residual:.3e} too large")
    return rho
