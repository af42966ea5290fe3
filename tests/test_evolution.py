"""Master-equation integration: rate-equation oracle, CP health, cross-checks.

For the two-level instance without pump the populations decouple from the
coherences and obey the scalar rate equation

    p_2' = lambda^2 (c_up p_1 - c_down p_2),
    p_2(t) = p_inf + (p_2(0) - p_inf) e^{-lambda^2 (c_up + c_down) t},
    p_inf = c_up / (c_up + c_down) = e^{-beta omega} / (1 + e^{-beta omega}),

an exact closed form used as the oracle for the default route.  The
autonomous case is also compared against a direct matrix exponential, and
the one-period commutator-free (CF4) step grid is verified to be
fourth-order against a tight Runge-Kutta reference and to keep the
half-period symmetry of the drive, M = P M_h P^-1 M_h, to roundoff.  The default
stroboscopic route (the step grid, then monodromy powers and one Hermite
interpolated phase) is compared against adaptive Runge-Kutta over the
whole interval on grids that do and do not fit the period.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from pumped_lindblad import evolution
from pumped_lindblad import (
    DegenerateKernelError,
    DimensionMismatchError,
    GeneratorBundle,
    GeneratorStructureError,
    InvalidDensityMatrixError,
    NonPositiveKernelError,
    PositivityBreachError,
    StepSizeUnderflowError,
    Superoperator,
    averaged_generator,
    evolve,
    floquet_lattice,
    hamiltonian_lindbladian,
    populations,
    stationary_state,
    trajectory_to_csv,
    vec,
)
from reference import choi_matrix, evolve_rk45, propagator

C_DOWN = 3.905916462669718
C_UP = 1.4369063655492724
STATIONARY_POPS_3LVL = (0.13667764428297613, 0.788876855660134,
                        0.07444550005688981)


def _ground(d):
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


# --------------------------------------------------------------------------
# closed-form rate-equation oracle
# --------------------------------------------------------------------------

def test_two_level_rate_equation_oracle(two_level):
    bundle = two_level.make_bundle(0.1, 0.0)
    t_grid = np.linspace(0.0, 300.0, 61)
    traj = evolve(bundle, _ground(2), 300.0, output_grid=t_grid)
    pops = populations(two_level.atom, traj)
    s = C_UP + C_DOWN
    p_inf = C_UP / s
    exact = p_inf * (1.0 - np.exp(-0.1**2 * s * t_grid))
    assert np.max(np.abs(pops[:, 1] - exact)) <= 1e-7
    # the Gibbs weight is reached: p_inf = e^{-beta omega}/(1 + e^{-beta omega})
    assert abs(p_inf - np.exp(-1.0) / (1.0 + np.exp(-1.0))) <= 1e-12


def test_autonomous_evolution_matches_matrix_exponential(two_level):
    bundle = two_level.make_bundle(0.1, 0.0)
    rng = np.random.default_rng(41)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    t = 7.3
    traj = evolve(bundle, rho0, t, output_grid=np.array([0.0, t]), atol=1e-12)
    direct = (expm(t * bundle.static_matrix) @ vec(rho0)).reshape(2, 2, order="F")
    assert np.linalg.norm(traj.states[-1] - direct) <= 1e-8


def test_trajectory_health_metrics(three_level):
    traj = evolve(three_level.bundle, _ground(3), 200.0)
    assert np.max(traj.trace_error) <= 1e-12
    assert np.min(traj.min_eig) >= -1e-10
    assert np.max(traj.purity) <= 1.0 + 1e-12
    assert traj.times[0] == 0.0 and traj.times[-1] == 200.0


# --------------------------------------------------------------------------
# one-period CF4 step grid: agreement and measured order
# --------------------------------------------------------------------------

def _grid_monodromy(grid):
    """M = tau(T, 0) of a step grid, in the standard basis."""
    n = grid.basis.shape[0]
    return grid.basis @ (np.eye(n) + grid.dev[-1]) @ grid.basis.conj().T


def test_cf4_matches_adaptive_reference(three_level):
    bundle = three_level.make_bundle(0.1, 0.04)   # strong drive
    t_end = 3.0 * bundle.period
    ref = evolve_rk45(bundle, _ground(3), t_end, output_grid=np.array([0.0, t_end]),
                      rtol=1e-12, atol=1e-13)
    cf4 = evolve(bundle, _ground(3), t_end, output_grid=np.array([0.0, t_end]))
    assert np.linalg.norm(cf4.states[-1] - ref.states[-1]) <= 1e-9
    # the converged grid's monodromy against a tight RK45 propagator
    mono = propagator(bundle, 0.0, bundle.period, rtol=1e-13, atol=1e-15).matrix
    assert np.max(np.abs(_grid_monodromy(evolution._step_grid(bundle)) - mono)) <= 1e-11


def _half_period_defect(inst, omega):
    """||P M_h P^-1 M_h - M|| / ||M|| on the grid at pump frequency `omega`.

    P = Ad(e^{i pi H_at / omega}) in the grid's Hermitian basis, M_h and M
    the grid's tau(T/2, 0) and tau(T, 0).  P commutes with L_at and L_R
    (both covariant) and flips L_p when every pumped Bohr frequency is an
    odd multiple of omega, so cos(omega (t + T/2)) = -cos(omega t) gives
    tau(T, T/2) = P M_h P^-1.
    """
    grid = evolution._step_grid(replace(inst.bundle, omega=omega))
    u = expm(1j * np.pi * inst.atom.h_at / omega)
    p = (grid.basis.conj().T @ np.kron(u.conj(), u) @ grid.basis).real
    n = grid.dev.shape[0] - 1
    eye = np.eye(p.shape[0])
    m_half, m = eye + grid.dev[n // 2], eye + grid.dev[n]
    return np.linalg.norm(p @ m_half @ p.T @ m_half - m) / np.linalg.norm(m)


@pytest.mark.parametrize("case,ratio", [
    ("two_level", 1.0), ("three_level", 1.0), ("degenerate", 1.0), ("three_level", 1.0 / 3.0)],
    ids=["two_level", "three_level", "degenerate", "three_level-omega/3"])
def test_monodromy_is_the_square_of_its_half_period_map(request, case, ratio):
    # the CF4 grid keeps the half-period symmetry of the drive to roundoff,
    # also at omega/3, where the pumped transition is three times omega
    inst = request.getfixturevalue(case)
    assert _half_period_defect(inst, ratio * inst.atom.pump_freq) <= 1e-14


def test_half_period_symmetry_needs_an_odd_frequency_ratio(three_level):
    # at 0.9 omega the pump is not flipped by P: the defect is far from roundoff
    assert _half_period_defect(three_level, 0.9 * three_level.atom.pump_freq) > 1e-6


def test_step_grid_refuses_a_generator_that_breaks_hermiticity(three_level):
    # -i[h_p, .] with the non-Hermitian h_p is not real in the Hermitian
    # basis: no Lindbladian of the model is, so the grid refuses it, and so
    # do evolve and the Floquet lattice that run on the grid
    bundle = GeneratorBundle(l_at=three_level.l_at, l_p=hamiltonian_lindbladian(three_level.h_p),
                             l_r=three_level.data.l_r, lam=0.1, eta=0.04,
                             omega=three_level.atom.pump_freq)
    for run in (lambda: evolution._step_grid(bundle),
                lambda: evolve(bundle, _ground(3), 1.0),
                lambda: floquet_lattice(bundle, 4)):
        with pytest.raises(GeneratorStructureError, match="Hermitian matrices to Hermitian"):
            run()


def test_cf4_is_fourth_order(two_level):
    # M of N uniform CF4 steps, here in the standard (complex) basis
    bundle = two_level.make_bundle(0.3, 0.4)      # fast, strongly driven
    ref = propagator(bundle, 0.0, bundle.period, rtol=1e-13, atol=1e-15).matrix
    errs = []
    for n in (64, 128, 256):
        steps = evolution._cf4_steps(bundle.static_matrix, bundle.eta * bundle.l_p.matrix,
                                     bundle.omega, bundle.period / n, n)
        errs.append(np.linalg.norm(np.eye(4) + evolution._chain(steps) - ref))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.5), f"measured orders {orders}"


# --------------------------------------------------------------------------
# failure modes
# --------------------------------------------------------------------------

def test_positivity_breach_detected(two_level):
    # Time-reversed dissipation is not completely positive: evolving the
    # ground state backwards along the thermal flow must breach positivity.
    bad = GeneratorBundle(l_at=two_level.l_at, l_p=two_level.pump,
                          l_r=-1.0 * two_level.data.l_r, lam=1.0, eta=0.0,
                          omega=two_level.atom.pump_freq)
    with pytest.raises(PositivityBreachError) as exc:
        evolve(bad, _ground(2), 5.0)
    assert exc.value.min_eig < 0.0
    assert exc.value.t > 0.0


def test_step_grid_gives_up_past_its_cap(two_level):
    # 1e4 L_R is too stiff for the unscaled Taylor series on every grid up
    # to the cap: no exponential is taken, and the run stops cleanly
    stiff = GeneratorBundle(l_at=two_level.l_at, l_p=two_level.pump,
                            l_r=1e4 * two_level.data.l_r, lam=1.0, eta=0.0,
                            omega=two_level.atom.pump_freq)
    with pytest.raises(StepSizeUnderflowError):
        evolve(stiff, _ground(2), 1.0)


def test_evolve_input_validation(two_level):
    with pytest.raises(DimensionMismatchError):
        evolve(two_level.bundle, _ground(2), -1.0)


@pytest.mark.parametrize("atol", [np.nan, np.inf, -1.0])
def test_evolve_refuses_an_atol_that_is_not_finite_and_non_negative(two_level, atol):
    # a NaN atol switched the positivity guard off: the time-reversed flow
    # below reached a minimum eigenvalue of -0.993 and returned a trajectory
    bad = GeneratorBundle(l_at=two_level.l_at, l_p=two_level.pump,
                          l_r=-1.0 * two_level.data.l_r, lam=1.0, eta=0.0,
                          omega=two_level.atom.pump_freq)
    with pytest.raises(DimensionMismatchError, match="atol"):
        evolve(bad, _ground(2), 5.0, atol=atol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evolve_refuses_a_non_finite_state(two_level, bad):
    # a NaN or infinite coherence passes every "x > tol" guard of the trace,
    # Hermiticity and eigenvalue tests, and would run to a NaN trajectory
    rho = _ground(2)
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(InvalidDensityMatrixError):
        evolve(two_level.bundle, rho, 10.0)


ROUTES = {"stroboscopic": evolve, "rk45": evolve_rk45}


@pytest.mark.parametrize("method", list(ROUTES))
@pytest.mark.parametrize("grid", [
    [0.0, 0.5, 1.5],          # past t_end
    [-0.1, 0.5, 1.0],         # before 0
    [0.0, 0.7, 0.3, 1.0],     # unsorted
    [0.0, 0.5, 0.5, 1.0],     # repeated point
    [],                       # empty
    [[0.0, 1.0]],             # not 1-D
], ids=["past-end", "negative", "unsorted", "repeated", "empty", "2d"])
def test_evolve_rejects_bad_grid(two_level, method, grid):
    with pytest.raises(DimensionMismatchError):
        ROUTES[method](two_level.bundle, _ground(2), 1.0, output_grid=grid)


# --------------------------------------------------------------------------
# stroboscopic default against adaptive Runge-Kutta
# --------------------------------------------------------------------------

def _grids(period):
    kt = period * np.arange(0, 9)
    return {
        "uneven-uniform": (7.3 * period, np.linspace(0.0, 7.3 * period, 53)),
        "multiples-of-T": (kt[-1], kt),
        "shorter-than-T": (0.7 * period, np.linspace(0.0, 0.7 * period, 11)),
        "non-uniform": (5.2 * period, 5.2 * period * np.linspace(0.0, 1.0, 40)**2),
    }


@pytest.mark.parametrize("case", ["uneven-uniform", "multiples-of-T",
                                  "shorter-than-T", "non-uniform"])
def test_stroboscopic_matches_rk45(three_level, case):
    bundle = three_level.make_bundle(0.1, 0.04)   # strong drive
    t_end, grid = _grids(bundle.period)[case]
    if case == "multiples-of-T":
        # some k T round to a cycle count of k - 1 and a phase of about T
        assert np.any(np.floor(grid / bundle.period) < np.arange(grid.size))
    strobe = evolve(bundle, _ground(3), t_end, output_grid=grid)
    ref = evolve_rk45(bundle, _ground(3), t_end, output_grid=grid, rtol=1e-12, atol=1e-13)
    assert strobe.meta["method"] == "stroboscopic"
    assert np.array_equal(strobe.times, grid)
    err = np.linalg.norm(strobe.states - ref.states, axis=(1, 2))
    assert err.max() <= 1e-8, f"max state error {err.max():.3e}"
    assert np.max(strobe.trace_error) <= 1e-12
    assert np.min(strobe.min_eig) >= -1e-10


def test_stroboscopic_cost_is_flat_in_t_end(three_level):
    bundle = three_level.bundle
    steps, evals = [], []
    for cycles in (20, 200):
        t_end = cycles * bundle.period
        steps.append(evolve(bundle, _ground(3), t_end).meta["steps"])
        evals.append(evolve_rk45(bundle, _ground(3), t_end).meta["rhs_evals"])
    assert steps[0] == steps[1] > 0
    assert evals[1] > 5 * evals[0]       # the cross-check's cost grows with t_end


@pytest.mark.parametrize("per_period", [7, 64])
def test_blocked_stroboscopic_walk_matches_per_point_loop(three_level, per_period):
    # the batched walk (one Hermite call for all points) against a reference
    # per output point in the standard basis: M^cycles v by repeated
    # products, then the cubic Hermite formula on the grid's tau_k and its
    # exact derivative L_t tau_k; 1201 points at about `per_period` points
    # per period, spaced off the step grid (a partial last period), then
    # five grid nodes
    bundle = three_level.make_bundle(0.1, 0.04)
    period = bundle.period
    grid = evolution._step_grid(bundle)
    basis, h = grid.basis, grid.step
    taus = basis @ (np.eye(9) + grid.dev) @ basis.conj().T
    end = 1200.5 / per_period * period
    times = np.concatenate([np.linspace(0.0, end, 1201),
                            (np.floor(end / period) + 1.0) * period + h * np.arange(5)])
    v = vec(_ground(3))
    rows, steps = evolution._stroboscopic(bundle, v, times)
    assert steps == grid.steps
    mono = taus[-1]
    cycles = np.floor(times / period)
    phases = np.clip(times - cycles * period, 0.0, period)
    done = 0
    for row, c, phase in zip(rows, cycles, phases):
        while done < c:
            v = mono @ v
            done += 1
        k = min(int(phase / h), taus.shape[0] - 2)
        s = phase / h - k
        slope = [h * (bundle.static_matrix + bundle.eta * np.cos(bundle.omega * h * j)
                      * bundle.l_p.matrix) @ taus[j] for j in (k, k + 1)]
        tau = ((1 + 2 * s) * (1 - s) ** 2 * taus[k] + s * s * (3 - 2 * s) * taus[k + 1]
               + s * (1 - s) ** 2 * slope[0] + s * s * (s - 1) * slope[1])
        assert np.max(np.abs(row - tau @ v)) <= 1e-13


def test_bundle_validation(two_level):
    with pytest.raises(DimensionMismatchError):
        GeneratorBundle(l_at=two_level.l_at, l_p=two_level.pump,
                        l_r=two_level.data.l_r, lam=0.1, eta=0.0, omega=0.0)
    with pytest.raises(DimensionMismatchError):
        GeneratorBundle(l_at=two_level.l_at, l_p=Superoperator(np.eye(9)),
                        l_r=two_level.data.l_r, lam=0.1, eta=0.0, omega=1.0)


@pytest.mark.parametrize("part, bad", [
    ("lam", np.nan), ("eta", np.inf), ("omega", np.inf),
    ("l_at", np.inf), ("l_p", np.nan), ("l_r", np.nan),
])
def test_bundle_refuses_non_finite_input(two_level, part, bad):
    # a NaN in L_R or lambda doubled the CF4 grid to its cap and then read
    # as StepSizeUnderflow; omega or eta = inf ran on with a RuntimeWarning
    fields = dict(l_at=two_level.l_at, l_p=two_level.pump, l_r=two_level.data.l_r,
                  lam=0.1, eta=0.01, omega=two_level.atom.pump_freq)
    if part.startswith("l_"):
        m = fields[part].matrix.copy()
        m[0, 0] = bad
        fields[part] = Superoperator(m)
    else:
        fields[part] = bad
    with pytest.raises(GeneratorStructureError, match="non-finite"):
        GeneratorBundle(**fields)


# --------------------------------------------------------------------------
# propagator, cocycle, monodromy interval
# --------------------------------------------------------------------------

def test_propagator_cocycle_and_cp(three_level):
    bundle = three_level.bundle
    t1, t2 = 0.4 * bundle.period, bundle.period
    tau_02 = propagator(bundle, 0.0, t2)
    tau_12 = propagator(bundle, t1, t2)
    tau_01 = propagator(bundle, 0.0, t1)
    gap = np.linalg.norm(tau_12.matrix @ tau_01.matrix - tau_02.matrix, 2)
    assert gap <= 1e-8
    # complete positivity and trace preservation of the flow
    c = choi_matrix(tau_02)
    assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() >= -1e-10
    assert np.linalg.norm(tau_02.adjoint()(np.eye(3)) - np.eye(3)) <= 1e-10
    # identity at coincident times
    assert np.array_equal(propagator(bundle, 1.0, 1.0).matrix,
                          Superoperator(np.eye(9)).matrix)


# --------------------------------------------------------------------------
# populations and CSV export
# --------------------------------------------------------------------------

def test_populations_and_csv_roundtrip(tmp_path, three_level):
    traj = evolve(three_level.bundle, _ground(3), 5.0,
                  output_grid=np.linspace(0.0, 5.0, 11))
    pops = populations(three_level.atom, traj)
    assert pops.shape == (11, 3)
    assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(pops[0], [1.0, 0.0, 0.0], atol=1e-14)

    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, pops, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,pop_1,pop_2,pop_3,trace,min_eig,purity"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and abs(first[1] - 1.0) <= 1e-16
    assert "\r" not in text
    # determinism: a second export is byte-identical
    path2 = tmp_path / "traj2.csv"
    trajectory_to_csv(traj, pops, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_batched_tables_match_per_state_loops(three_level):
    traj = evolve(three_level.make_bundle(0.1, 0.04), _ground(3), 10.0,
                  output_grid=np.linspace(0.0, 10.0, 7))
    pops = populations(three_level.atom, traj)
    for i, rho in enumerate(traj.states):
        for k, p in enumerate(three_level.atom.projections):
            assert abs(pops[i, k] - np.trace(p @ rho).real) <= 1e-15
        herm = 0.5 * (rho + rho.conj().T)
        assert traj.min_eig[i] == np.linalg.eigvalsh(herm).min()
        assert abs(traj.trace_error[i] - abs(np.trace(rho) - 1.0)) <= 1e-16
        assert abs(traj.purity[i] - np.trace(rho @ rho).real) <= 1e-15


# --------------------------------------------------------------------------
# stationary states
# --------------------------------------------------------------------------

def test_stationary_state_of_averaged_generator(three_level):
    avg = averaged_generator(three_level.bundle)
    rho = stationary_state(avg)
    assert np.linalg.norm(avg(rho), "fro") <= 1e-12
    pops = np.real(np.diag(rho))
    assert np.allclose(pops, STATIONARY_POPS_3LVL, atol=1e-9)
    # the optical-pumping inversion: the middle level beats the ground level
    assert pops[1] > pops[0]


def test_stationary_state_degenerate_kernel(two_level):
    # lambda = eta = 0: every diagonal matrix is stationary for L_at alone.
    with pytest.raises(DegenerateKernelError):
        stationary_state(two_level.l_at)


def test_stationary_state_traceless_kernel():
    # A rank-deficient superoperator whose only kernel element is traceless.
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    v = vec(sz) / np.linalg.norm(vec(sz))
    proj_complement = np.eye(4, dtype=complex) - np.outer(v, v.conj())
    with pytest.raises(NonPositiveKernelError):
        stationary_state(Superoperator(proj_complement))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stationary_state_of_a_non_finite_generator(bad):
    # the SVD of a non-finite matrix does not converge: a typed refusal, not LinAlgError
    with pytest.raises(DegenerateKernelError, match="non-finite"):
        stationary_state(Superoperator(np.full((4, 4), bad, dtype=complex)))
