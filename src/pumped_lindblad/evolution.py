"""Time evolution under the pumped effective master equation.

The generator is the T-periodic family

    L_t = L_at + eta cos(omega t) L_p + lambda^2 L_R,      T = 2 pi / omega,

acting on vectorized states.  The dynamics is linear and T-periodic, so

    rho(n T + s) = tau(s, 0) M^n rho_0,      M = tau(T, 0),

and `evolve` by default ("stroboscopic") integrates the superoperator flow
tau(s, 0) once over a single period with dense output, at rtol <= 1e-10
and atol <= 1e-12, then reaches every output time by powers of the
monodromy M and one interpolated phase.  Its cost does not grow with
t_end.  The adaptive embedded Runge-Kutta 4(5) scheme over the whole
interval ("rk45") and a fixed-step commutator-free 4th-order exponential
(Magnus-type) integrator ("magnus-cf4") stay as independent cross-checks.
The trace is conserved structurally (every Runge-Kutta stage lies in the
kernel of the trace functional because the adjoint generator annihilates
the identity), so trace drift is a pure roundoff health metric and is
never renormalized away.

`propagator` integrates the same superoperator-valued equation
d/dt tau(t,s) = L_t tau(t,s), tau(s,s) = 1; its value over one period is
the monodromy map used by the Floquet cross-checks.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import (
    DegenerateKernelError,
    DimensionMismatchError,
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
    "propagator",
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

    `meta` holds the method, the requested tolerances and, for the
    "rk45" and "stroboscopic" methods, `rhs_evals` (the integrator's
    right-hand-side evaluations).
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
    """The validated output grid: 1-D, strictly increasing, inside [0, t_end]."""
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


def evolve(bundle, rho0, t_end, output_grid=None, rtol=1e-8, atol=1e-10,
           method="stroboscopic", n_steps=None):
    """Integrate rho' = L_t rho from the validated state rho0 over [0, t_end].

    The output grid (default: 201 uniform points) must be strictly
    increasing and inside [0, t_end]; otherwise DimensionMismatch.

    method="stroboscopic" (default): integrate the superoperator flow
    tau(s, 0) once over one period T with dense output, at
    rtol=min(rtol, 1e-10) and atol=min(atol, 1e-12), and return
    tau(phase, 0) M^cycles rho0 at each t = cycles*T + phase, where
    M = tau(T, 0) is applied one cycle at a time.  Cost is flat in t_end.
    method="rk45": adaptive embedded Runge-Kutta over all of [0, t_end]
    with dense output sampled on the grid (cross-check mode).
    method="magnus-cf4": fixed-step commutator-free exponential integrator
    with `n_steps` uniform steps (cross-check mode; output grid is the step
    grid).

    A state whose minimum eigenvalue falls below -100*atol aborts with
    PositivityBreach; integrator stall raises StepSizeUnderflow.  The trace
    is never renormalized.
    """
    rho0 = validate_state(rho0)
    d = rho0.shape[0]
    if not t_end > 0:
        raise DimensionMismatchError(f"t_end={t_end} must be positive")
    times = _output_grid(t_end, output_grid)
    meta = {"method": method, "rtol": rtol, "atol": atol}

    if method == "stroboscopic":
        rows, meta["rhs_evals"] = _stroboscopic(bundle, vec(rho0), times,
                                                min(rtol, 1e-10), min(atol, 1e-12))
        states = _unvec_rows(rows, d)
    elif method == "rk45":
        sol = solve_ivp(_rhs(bundle), (0.0, t_end), vec(rho0), method="RK45",
                        t_eval=times, rtol=rtol, atol=atol)
        if not sol.success:
            raise StepSizeUnderflowError(f"integrator failed: {sol.message}")
        states = _unvec_rows(sol.y.T, d)
        times = sol.t
        meta["rhs_evals"] = int(sol.nfev)
    elif method == "magnus-cf4":
        if n_steps is None:
            n_steps = max(int(np.ceil(200 * t_end / bundle.period)), 100)
        times = np.linspace(0.0, t_end, n_steps + 1)
        y = vec(rho0)
        states = [rho0]
        h = t_end / n_steps
        for i in range(n_steps):
            y = _cf4_step(bundle, times[i], h) @ y
            states.append(unvec(y, d))
        states = np.array(states)
    else:
        raise DimensionMismatchError(f"unknown method {method!r}")

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


_PHASE_BLOCK = 64   # output points per interpolant call in the stroboscopic walk


def _stroboscopic(bundle, v, times, rtol, atol):
    """Rows tau(phase, 0) M^cycles v for t = cycles*T + phase, and the RHS count.

    `times` must be increasing, so the walk applies M = tau(T, 0) one cycle
    at a time.  The interpolant is then evaluated on the phases in sorted
    order, _PHASE_BLOCK per call, so that each call spans few of its
    segments and only one block of tau(phase, 0) is held at a time; the
    one-period interpolant is freed on return.
    """
    period = bundle.period
    n = v.size
    sol = _flow(bundle, 0.0, period, rtol, atol, dense_output=True)
    mono = sol.y[:, -1].reshape(n, n)
    cycles = np.floor(times / period)
    phases = np.clip(times - cycles * period, 0.0, period)
    vs = np.empty((times.size, n), dtype=complex)    # M^cycles v for each point
    done = 0
    for i, c in enumerate(cycles):
        while done < c:
            v = mono @ v
            done += 1
        vs[i] = v
    rows = np.empty_like(vs)
    order = np.argsort(phases, kind="stable")
    for start in range(0, times.size, _PHASE_BLOCK):
        block = order[start:start + _PHASE_BLOCK]
        taus = sol.sol(phases[block]).T.reshape(-1, n, n)
        rows[block] = np.matmul(taus, vs[block, :, None])[:, :, 0]
    return rows, int(sol.nfev)


# 4th-order commutator-free scheme on the two Gauss nodes
# c = 1/2 -/+ sqrt(3)/6 with cross weights (3 -/+ 2 sqrt(3))/12:
# the factor applied first weights the earlier node more.
_CF4_F1 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0
_CF4_F2 = (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
_CF4_C1 = 0.5 - np.sqrt(3.0) / 6.0
_CF4_C2 = 0.5 + np.sqrt(3.0) / 6.0


def _cf4_step(bundle, t, h):
    static, l_p = bundle.static_matrix, bundle.l_p.matrix
    a1 = static + bundle.eta * np.cos(bundle.omega * (t + _CF4_C1 * h)) * l_p
    a2 = static + bundle.eta * np.cos(bundle.omega * (t + _CF4_C2 * h)) * l_p
    first = expm(h * (_CF4_F2 * a1 + _CF4_F1 * a2))
    second = expm(h * (_CF4_F1 * a1 + _CF4_F2 * a2))
    return second @ first


# --------------------------------------------------------------------------
# propagator and monodromy interval
# --------------------------------------------------------------------------

def _rhs(bundle):
    """y -> L_t y for a vectorized state, or for the row-flattened columns
    of a d^2 x k matrix such as the propagator."""
    static = bundle.static_matrix
    pump = bundle.l_p.matrix
    eta, omega = bundle.eta, bundle.omega
    n = static.shape[0]

    def rhs(t, y):
        u = y.reshape(n, -1)
        du = static @ u + (eta * np.cos(omega * t)) * (pump @ u)
        return du.reshape(-1)

    return rhs


def _flow(bundle, s, t, rtol, atol, dense_output=False):
    """RK45 solution of d/dt tau = L_t tau, tau(s) = 1, on [s, t].

    Each `y` is tau with its rows flattened; `dense_output=True` adds the
    interpolant `sol.sol`.
    """
    n = bundle.l_at.dim ** 2
    y0 = np.eye(n, dtype=complex).reshape(-1)
    sol = solve_ivp(_rhs(bundle), (s, t), y0, method="RK45", rtol=rtol,
                    atol=atol, dense_output=dense_output)
    if not sol.success:
        raise StepSizeUnderflowError(f"propagator integration failed: {sol.message}")
    return sol


def propagator(bundle, s, t, rtol=1e-10, atol=1e-12):
    """Two-parameter propagator tau(t, s) as a superoperator.

    Integrates d/dt tau = L_t tau with tau(s, s) = 1 on the matrix-valued
    ODE (dimension d^4).  t >= s required.
    """
    if t < s:
        raise DimensionMismatchError(f"need t >= s, got s={s}, t={t}")
    d = bundle.l_at.dim
    if t == s:
        return Superoperator.identity(d)
    n = d * d
    return Superoperator(_flow(bundle, s, t, rtol, atol).y[:, -1].reshape(n, n))


# --------------------------------------------------------------------------
# populations and export
# --------------------------------------------------------------------------

def populations(atom, traj):
    """Level populations Tr(P_k rho(t)) as an (n_times, N) real table."""
    return np.einsum("kij,nji->nk", np.array(atom.projections), traj.states).real


def trajectory_to_csv(atom, traj, path, pops=None):
    """Write `t,pop_1..pop_N,trace,min_eig,purity` with 17-digit floats, LF.

    `pops` is the `populations(atom, traj)` table when the caller already
    has it.
    """
    if pops is None:
        pops = populations(atom, traj)
    n = atom.n_levels
    header = "t," + ",".join(f"pop_{k}" for k in range(1, n + 1)) + ",trace,min_eig,purity"
    trace = np.trace(traj.states, axis1=1, axis2=2).real
    table = np.column_stack([traj.times, pops, trace, traj.min_eig, traj.purity])
    row = ",".join(["%.17g"] * table.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row % tuple(r) + "\n" for r in table)


# --------------------------------------------------------------------------
# stationary states
# --------------------------------------------------------------------------

_KERNEL_TOL = 1e-12   # singular values below this (relative) span the kernel


def stationary_state(superop):
    """Normalized positive kernel element of a generator.

    The kernel is found by SVD; it must be one-dimensional
    (DegenerateKernel otherwise) and the normalized element must be a
    genuine state (NonPositiveKernel otherwise).  Residual ||L(rho)||
    is verified to 1e-10.
    """
    m = superop.matrix
    d = superop.dim
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
