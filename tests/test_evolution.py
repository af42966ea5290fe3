"""Master-equation integration: rate-equation oracle, CP health, cross-checks.

For the two-level instance without pump the populations decouple from the
coherences and obey the scalar rate equation

    p_2' = lambda^2 (c_up p_1 - c_down p_2),
    p_2(t) = p_inf + (p_2(0) - p_inf) e^{-lambda^2 (c_up + c_down) t},
    p_inf = c_up / (c_up + c_down) = e^{-beta omega} / (1 + e^{-beta omega}),

an exact closed form used as the oracle for the adaptive integrator.  The
autonomous case is also compared against a direct matrix exponential, and
the fixed-step commutator-free exponential integrator is verified to be
fourth-order against a tight reference.  The default stroboscopic route
(one period of the propagator, then monodromy powers) is compared against
adaptive Runge-Kutta over the whole interval on grids that do and do not
fit the period.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from pumped_lindblad import evolution
from pumped_lindblad import (
    DegenerateKernelError,
    DimensionMismatchError,
    GeneratorBundle,
    NonPositiveKernelError,
    PositivityBreachError,
    Superoperator,
    averaged_generator,
    choi_matrix,
    evolve,
    populations,
    propagator,
    stationary_state,
    trajectory_to_csv,
    vec,
)

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
    traj = evolve(bundle, rho0, t, output_grid=np.array([0.0, t]),
                  rtol=1e-10, atol=1e-12)
    direct = (expm(t * bundle.static_matrix) @ vec(rho0)).reshape(2, 2, order="F")
    assert np.linalg.norm(traj.states[-1] - direct) <= 1e-8


def test_trajectory_health_metrics(three_level):
    traj = evolve(three_level.bundle, _ground(3), 200.0)
    assert np.max(traj.trace_error) <= 1e-12
    assert np.min(traj.min_eig) >= -1e-10
    assert np.max(traj.purity) <= 1.0 + 1e-12
    assert traj.times[0] == 0.0 and traj.times[-1] == 200.0


# --------------------------------------------------------------------------
# fixed-step exponential integrator: agreement and measured order
# --------------------------------------------------------------------------

def test_cf4_matches_adaptive_reference(three_level):
    bundle = three_level.make_bundle(0.1, 0.04)   # strong drive
    t_end = 3.0 * bundle.period
    ref = evolve(bundle, _ground(3), t_end, output_grid=np.array([0.0, t_end]),
                 rtol=1e-12, atol=1e-13)
    cf4 = evolve(bundle, _ground(3), t_end, method="magnus-cf4", n_steps=400)
    assert np.linalg.norm(cf4.states[-1] - ref.states[-1]) <= 1e-9


def test_cf4_is_fourth_order(two_level):
    bundle = two_level.make_bundle(0.3, 0.4)      # fast, strongly driven
    t_end = 3.0
    ref = evolve(bundle, _ground(2), t_end, output_grid=np.array([0.0, t_end]),
                 rtol=1e-12, atol=1e-13)
    errs = []
    for n in (20, 40, 80):
        tr = evolve(bundle, _ground(2), t_end, method="magnus-cf4", n_steps=n)
        errs.append(np.linalg.norm(tr.states[-1] - ref.states[-1]))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.5), f"measured orders {orders}"


# --------------------------------------------------------------------------
# failure modes
# --------------------------------------------------------------------------

def test_positivity_breach_detected(two_level):
    # Time-reversed dissipation is not completely positive: evolving the
    # ground state backwards along the thermal flow must breach positivity.
    bad = GeneratorBundle(l_at=two_level.l_at, l_p=two_level.pump.lindbladian,
                          l_r=-1.0 * two_level.data.l_r, lam=1.0, eta=0.0,
                          omega=two_level.atom.pump_freq)
    with pytest.raises(PositivityBreachError) as exc:
        evolve(bad, _ground(2), 5.0)
    assert exc.value.min_eig < 0.0
    assert exc.value.t > 0.0


def test_evolve_input_validation(two_level):
    with pytest.raises(DimensionMismatchError):
        evolve(two_level.bundle, _ground(2), -1.0)
    with pytest.raises(DimensionMismatchError):
        evolve(two_level.bundle, _ground(2), 1.0, method="rk99")


METHODS = ("stroboscopic", "rk45", "magnus-cf4")


@pytest.mark.parametrize("method", METHODS)
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
        evolve(two_level.bundle, _ground(2), 1.0, output_grid=grid,
               method=method, n_steps=4)


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
    ref = evolve(bundle, _ground(3), t_end, output_grid=grid, method="rk45",
                 rtol=1e-12, atol=1e-13)
    assert strobe.meta["method"] == "stroboscopic"
    assert np.array_equal(strobe.times, grid)
    err = np.linalg.norm(strobe.states - ref.states, axis=(1, 2))
    assert err.max() <= 1e-8, f"max state error {err.max():.3e}"
    assert np.max(strobe.trace_error) <= 1e-12
    assert np.min(strobe.min_eig) >= -1e-10


def test_stroboscopic_cost_is_flat_in_t_end(three_level):
    bundle = three_level.bundle
    evals = []
    for cycles in (20, 200):
        t_end = cycles * bundle.period
        traj = evolve(bundle, _ground(3), t_end)
        evals.append(traj.meta["rhs_evals"])
    assert evals[0] == evals[1] > 0
    rk = evolve(bundle, _ground(3), 20 * bundle.period, method="rk45")
    assert rk.meta["rhs_evals"] > evals[0]


@pytest.mark.parametrize("block", [7, evolution._PHASE_BLOCK])
def test_blocked_stroboscopic_walk_matches_per_point_loop(monkeypatch, three_level, block):
    # reference: one interpolant call and one M^cycles v per output point
    monkeypatch.setattr(evolution, "_PHASE_BLOCK", block)
    bundle = three_level.make_bundle(0.1, 0.04)
    period = bundle.period
    times = np.linspace(0.0, 700.0 * period, 1201)   # several blocks, a partial last one
    v = vec(_ground(3))
    rows, _ = evolution._stroboscopic(bundle, v, times, 1e-10, 1e-12)
    sol = evolution._flow(bundle, 0.0, period, 1e-10, 1e-12, dense_output=True)
    mono = sol.y[:, -1].reshape(9, 9)
    cycles = np.floor(times / period)
    phases = np.clip(times - cycles * period, 0.0, period)
    done = 0
    for row, c, phase in zip(rows, cycles, phases):
        while done < c:
            v = mono @ v
            done += 1
        assert np.max(np.abs(row - sol.sol(phase).reshape(9, 9) @ v)) <= 1e-15


def test_bundle_validation(two_level):
    with pytest.raises(DimensionMismatchError):
        GeneratorBundle(l_at=two_level.l_at, l_p=two_level.pump.lindbladian,
                        l_r=two_level.data.l_r, lam=0.1, eta=0.0, omega=0.0)
    with pytest.raises(DimensionMismatchError):
        GeneratorBundle(l_at=two_level.l_at, l_p=Superoperator.identity(3),
                        l_r=two_level.data.l_r, lam=0.1, eta=0.0, omega=1.0)


# --------------------------------------------------------------------------
# propagator, cocycle, monodromy interval
# --------------------------------------------------------------------------

def test_propagator_cocycle_and_cp(three_level):
    bundle = three_level.bundle
    t1, t2 = 0.4 * bundle.period, bundle.period
    tau_02 = propagator(bundle, 0.0, t2)
    tau_12 = propagator(bundle, t1, t2)
    tau_01 = propagator(bundle, 0.0, t1)
    gap = np.linalg.norm((tau_12 @ tau_01).matrix - tau_02.matrix, 2)
    assert gap <= 1e-8
    # complete positivity and trace preservation of the flow
    c = choi_matrix(tau_02)
    assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() >= -1e-10
    assert np.linalg.norm(tau_02.adjoint()(np.eye(3)) - np.eye(3)) <= 1e-10
    # identity at coincident times
    assert np.array_equal(propagator(bundle, 1.0, 1.0).matrix,
                          Superoperator.identity(3).matrix)


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
    trajectory_to_csv(three_level.atom, traj, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,pop_1,pop_2,pop_3,trace,min_eig,purity"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and abs(first[1] - 1.0) <= 1e-16
    assert "\r" not in text
    # determinism: a second export is byte-identical
    path2 = tmp_path / "traj2.csv"
    trajectory_to_csv(three_level.atom, traj, path2)
    assert path.read_bytes() == path2.read_bytes()
    # a precomputed population table writes the same bytes
    path3 = tmp_path / "traj3.csv"
    trajectory_to_csv(three_level.atom, traj, path3, pops=pops)
    assert path.read_bytes() == path3.read_bytes()


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
