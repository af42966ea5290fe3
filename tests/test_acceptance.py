"""End-to-end acceptance battery.

Twelve independent checks covering the full pipeline: thermal-density
identities, Lamb-shift structure, oracle equivalence of the generator
assembly, detailed balance, master-equation health against a closed-form
rate solution, the resonance structure and spectral gap of the Fourier-mode
(Howland) operator, monodromy consistency, the order of the compressed-block
expansion in the coupling, Riesz projection quality, pairs-of-projections
identities, the irreducibility checker, and the optical-pumping inversion.

Each check prints one line

    [ n] name  measured=...  limit=...  time=...s  PASS|FAIL

and asserts the stated tolerance plus its runtime budget.  Measured values
that serve as regression locks are frozen as module constants.
"""

import time

import numpy as np

from pumped_lindblad import (
    algebra_dimension,
    averaged_generator,
    build_howland,
    commutant_dimension,
    evolve,
    kato_order_check,
    rate_coefficient,
    reservoir_lindbladian,
    resolvent_oracle,
    spectral_density,
    stationary_state,
    vec,
)
from reference import (dense_spectrum, eigenprojection_direct, monodromy, pair_transform,
                       riesz_projection)

# Regression locks (first honest computation, frozen thereafter).
STATIONARY_POPS_3LVL = (0.13667764428297613, 0.788876855660134,
                        0.07444550005688981)


class _Check:
    """Timer + one-line PASS/FAIL reporter for a numbered acceptance item."""

    def __init__(self, idx, name, limit, budget_s):
        self.idx, self.name, self.limit, self.budget = idx, name, limit, budget_s
        self.t0 = time.perf_counter()

    def finish(self, measured, ok):
        elapsed = time.perf_counter() - self.t0
        ok = bool(ok) and elapsed < self.budget
        print(f"[{self.idx:2d}] {self.name:<34s} measured={measured:.6e} "
              f"limit={self.limit:.0e} time={elapsed:.1f}s "
              f"{'PASS' if ok else 'FAIL'}")
        assert ok, (f"{self.name}: measured {measured:.6e} vs limit "
                    f"{self.limit:.0e} in {elapsed:.1f}s (budget {self.budget}s)")


def test_01_kms_identity(two_level, three_level):
    chk = _Check(1, "kms-density-identity", 1e-12, 1.0)
    xs = np.linspace(0.05, 3.0, 10)
    betas = np.linspace(0.1, 2.8, 10)
    worst = 0.0
    families = (two_level.res.form_factors + three_level.res.form_factors)
    for ff in families:
        for b in betas:
            lhs = spectral_density(ff, b, xs)
            rhs = np.exp(b * xs) * spectral_density(ff, b, -xs)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(lhs))))
    chk.finish(worst, worst <= 1e-12)


def test_02_lamb_shift_commutes(two_level, three_level):
    chk = _Check(2, "lamb-shift-commutation", 1e-10, 5.0)
    worst = 0.0
    for inst in (two_level, three_level):
        h_at = sum(e * p for e, p in zip(inst.atom.energies, inst.atom.projections))
        h_lamb = reservoir_lindbladian(inst.atom, inst.res).lamb
        comm = h_lamb @ h_at - h_at @ h_lamb
        worst = max(worst, np.linalg.norm(comm) / np.linalg.norm(h_lamb))
    chk.finish(worst, worst <= 1e-10)


def test_03_resolvent_oracle_equivalence(two_level):
    chk = _Check(3, "resolvent-oracle-equivalence", 1e-5, 30.0)
    exact = two_level.data.l_r.matrix
    ladder = (1e-2, 5e-3, 2.5e-3)
    mats = [op.matrix for op in resolvent_oracle(two_level.atom, two_level.res, ladder)]
    errs = [np.linalg.norm(m - exact, 2) for m in mats]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    extrapolated = (8.0 * mats[2] - 6.0 * mats[1] + mats[0]) / 3.0
    ext_err = float(np.linalg.norm(extrapolated - exact, 2))
    ok = all(0.75 <= o <= 1.25 for o in orders) and ext_err <= 1e-5
    chk.finish(ext_err, ok)


def test_04_detailed_balance(two_level, three_level):
    chk = _Check(4, "detailed-balance-stationarity", 1e-8, 2.0)
    rho_d = stationary_state(two_level.data.l_d)
    dev2 = float(np.max(np.abs(rho_d - two_level.rho_g)))
    res3 = float(np.linalg.norm(
        three_level.data.l_r.matrix @ vec(three_level.rho_g)))
    ok = dev2 <= 1e-10 and res3 <= 1e-8
    chk.finish(max(dev2, res3), ok)


def test_05_master_equation_health(two_level):
    chk = _Check(5, "master-equation-health", 1e-6, 20.0)
    lam, beta, omega = 0.1, 1.0, 1.0
    ff = two_level.res.form_factors[0]
    c_down = rate_coefficient(ff, beta, omega)
    c_up = rate_coefficient(ff, beta, -omega)
    s = c_down + c_up
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = evolve(two_level.bundle, rho0, 50.0 / lam**2)
    p2 = traj.states[:, 1, 1].real
    p2_exact = (c_up / s) * (1.0 - np.exp(-lam**2 * s * traj.times))
    dev = float(np.max(np.abs(p2 - p2_exact)))
    ok = (traj.trace_error.max() <= 1e-9 and traj.min_eig.min() >= -1e-9
          and dev <= 1e-6)
    chk.finish(dev, ok)


def test_06_resonance_structure_and_gap(three_level):
    chk = _Check(6, "resonance-structure-and-gap", 1e-12, 60.0)
    n = 32
    s1 = dense_spectrum(build_howland(three_level.make_bundle(0.1, 0.01), n))
    s2 = dense_spectrum(build_howland(three_level.make_bundle(0.05, 0.0025), n))
    residual = max(s1.resonance_residuals.values())
    counts_ok = (set(s1.disc_counts) == set(range(-(n - 2), n - 1))
                 and all(c == 1 for c in s1.disc_counts.values()))
    factor = s2.gap_over_lambda2 / s1.gap_over_lambda2
    gap_ok = (not s1.degenerate and not s2.degenerate
              and s2.gap >= 0.5 * 0.05**2 * s1.gap_over_lambda2
              and 0.5 <= factor <= 2.0)
    ok = residual <= 1e-12 and counts_ok and gap_ok
    chk.finish(residual, ok)


def test_07_monodromy_consistency(three_level):
    chk = _Check(7, "monodromy-consistency", 1e-6, 60.0)
    rep = monodromy(three_level.bundle, n_modes=32, rtol=1e-10)
    chk.finish(rep.max_match_error, rep.max_match_error <= 1e-6)


def test_08_compressed_block_order(three_level):
    chk = _Check(8, "compressed-block-order", 2e-1, 60.0)
    ratio = kato_order_check(three_level.bundle, 32)["ratio"]
    # The asserted window [1/12, 1/5] brackets third-order residual scaling
    # (nominal ratio 1/8).  The residual is the remainder of the first-order
    # expansion in F - F0 = lambda^2 L_R + eta * pump, which is O(lambda^2)
    # for every instance of this model (the effective generator has no
    # lambda-linear term, and eta ~ lambda^2), so the remainder is
    # O(lambda^4) and the measured ratio sits at ~1/16, below the window's
    # lower edge.  This is generic, not special to the bundled instance.
    # The measurement is reported as is (the unit suite locks the quartic
    # behavior).
    chk.finish(ratio, 1.0 / 12.0 <= ratio <= 1.0 / 5.0)


def test_09_riesz_projection_quality(three_level):
    chk = _Check(9, "riesz-projection-quality", 1e-7, 30.0)
    f_op = build_howland(three_level.bundle, 16)
    pr = riesz_projection(f_op, 0.0, m_points=64)
    direct = eigenprojection_direct(f_op, 0.0, pr.radius)
    diff = float(np.linalg.norm(pr.matrix - direct, 2))
    ok = pr.idempotency_defect <= 1e-8 and diff <= 1e-7
    chk.finish(diff, ok)


def test_10_pairs_of_projections():
    chk = _Check(10, "pairs-of-projections", 1e-10, 1.0)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        base = np.diag(np.concatenate([np.ones(k), np.zeros(d - k)])).astype(complex)
        s1 = np.eye(d) + 0.2 * (rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)))
        p = s1 @ base @ np.linalg.inv(s1)
        s2 = np.eye(d) + 0.05 * (rng.standard_normal((d, d))
                                 + 1j * rng.standard_normal((d, d)))
        q = s2 @ p @ np.linalg.inv(s2)
        u, v = pair_transform(p, q)
        eye = np.eye(d)
        worst = max(worst,
                    np.linalg.norm(u @ v - eye, 2),
                    np.linalg.norm(v @ u - eye, 2),
                    np.linalg.norm(u @ p @ v - q, 2))
    chk.finish(worst, worst <= 1e-10)


def test_11_irreducibility_checker():
    chk = _Check(11, "irreducibility-checker", 1e-10, 2.0)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)

    def verdicts(jumps, d):
        c_dim, _ = commutant_dimension(jumps)
        a_dim = algebra_dimension(jumps)
        # the two routes must agree on the verdict
        assert (c_dim == 1) == (a_dim == d * d)
        return c_dim == 1

    ok = (not verdicts([sx], 2)) and verdicts([sx, sz], 2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ok = ok and verdicts([a, a.conj().T, b, b.conj().T], d)
    chk.finish(0.0 if ok else 1.0, ok)


def test_12_optical_pumping_inversion(three_level):
    chk = _Check(12, "optical-pumping-inversion", 1e-9, 2.0)
    rho = stationary_state(averaged_generator(three_level.bundle))
    pops = np.diag(rho).real
    dev = float(np.max(np.abs(pops - np.array(STATIONARY_POPS_3LVL))))
    ok = pops[1] > pops[0] and dev <= 1e-9
    chk.finish(dev, ok)
