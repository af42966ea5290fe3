"""Vectorization calculus, level decomposition, Bohr structure, Gibbs states.

The identities exercised here are the backbone of everything downstream:

* vec(A X B) = (B^T (x) A) vec(X) in column-stacking convention,
* <A, L(B)>_HS = <L^*(A), B>_HS for the matrix adjoint,
* i L_at has eigenvalue eps on the block P_j (.) P_k iff E_j - E_k = eps,
* sum over Bohr frequencies of the spectral projections = identity,
* the Gibbs state is levelwise with Boltzmann ratios e^{-beta(E_j - E_k)}.
"""

import numpy as np
import pytest

from pumped_lindblad import (
    ClusterAmbiguityError,
    InvalidDensityMatrixError,
    NonHermitianError,
    PumpSupportViolationError,
    ScalarHamiltonianError,
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
from reference import spectral_projection


def _random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _random_hermitian(rng, d):
    a = _random_matrix(rng, d)
    return 0.5 * (a + a.conj().T)


# --------------------------------------------------------------------------
# vec / unvec / HS inner product
# --------------------------------------------------------------------------

def test_vec_unvec_roundtrip_and_sandwich():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = rng.integers(2, 6)
        a, x, b = (_random_matrix(rng, d) for _ in range(3))
        assert np.array_equal(unvec(vec(x)), x)
        lhs = np.kron(b.T, a) @ vec(x)
        rhs = vec(a @ x @ b)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_vec_column_stacking_order():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(x), np.array([1.0, 3.0, 2.0, 4.0]))


def test_hs_adjoint_moves_across_inner_product():
    rng = np.random.default_rng(12)
    for _ in range(25):
        d = rng.integers(2, 6)
        sup = Superoperator(_random_matrix(rng, d * d))
        a, b = _random_matrix(rng, d), _random_matrix(rng, d)
        # <X, Y> = Tr(X^* Y), antilinear in X
        lhs = np.trace(a.conj().T @ sup(b))
        rhs = np.trace(sup.adjoint()(a).conj().T @ b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_adjoint_is_an_exact_involution():
    rng = np.random.default_rng(13)
    sup = Superoperator(_random_matrix(rng, 9))
    again = sup.adjoint().adjoint()
    assert np.array_equal(again.matrix, sup.matrix)


def test_superoperator_algebra_is_matrix_algebra():
    rng = np.random.default_rng(14)
    s1 = Superoperator(_random_matrix(rng, 4))
    s2 = Superoperator(_random_matrix(rng, 4))
    x = _random_matrix(rng, 2)
    composed = s1 @ s2
    assert np.linalg.norm(composed(x) - s1(s2(x))) <= 1e-12
    ident = Superoperator.identity(2)
    assert np.array_equal((ident @ s1).matrix, s1.matrix)
    assert np.linalg.norm((s1 + (-s1)).matrix) == 0.0


def test_multiplication_superops_act_correctly():
    rng = np.random.default_rng(15)
    for _ in range(10):
        d = rng.integers(2, 5)
        a = _random_matrix(rng, d)
        x = _random_matrix(rng, d)
        lb = hamiltonian_lindbladian(a)
        assert np.linalg.norm(lb(x) + 1j * (a @ x - x @ a)) <= 1e-13


# --------------------------------------------------------------------------
# level decomposition
# --------------------------------------------------------------------------

def test_decompose_atom_recovers_clustered_structure():
    rng = np.random.default_rng(16)
    for _ in range(10):
        # three well-separated levels with multiplicities (2, 1, 3)
        levels = np.sort(rng.uniform(-2.0, 2.0, size=3))
        while np.min(np.diff(levels)) < 0.3:
            levels = np.sort(rng.uniform(-2.0, 2.0, size=3))
        diag = np.concatenate([np.full(2, levels[0]),
                               np.full(1, levels[1]),
                               np.full(3, levels[2])])
        q, _ = np.linalg.qr(_random_matrix(rng, 6))
        h = q @ np.diag(diag) @ q.conj().T
        atom = decompose_atom(h)
        assert atom.n_levels == 3
        assert atom.multiplicities == (2, 1, 3)
        assert np.allclose(atom.energies, levels, atol=1e-10)
        # projections: Hermitian, idempotent, mutually orthogonal, complete
        total = np.zeros((6, 6), dtype=complex)
        for i, p in enumerate(atom.projections):
            assert np.linalg.norm(p - p.conj().T) <= 1e-12
            assert np.linalg.norm(p @ p - p) <= 1e-12
            for pj in atom.projections[i + 1:]:
                assert np.linalg.norm(p @ pj) <= 1e-12
            total += p
        assert np.linalg.norm(total - np.eye(6)) <= 1e-12
        assert abs(atom.pump_freq - (levels[2] - levels[0])) <= 1e-10


def test_decompose_atom_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        decompose_atom(np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_decompose_atom_rejects_scalar():
    with pytest.raises(ScalarHamiltonianError):
        decompose_atom(3.7 * np.eye(4))


def test_decompose_atom_flags_tolerance_sensitive_clustering():
    # A gap of 1.5 * tol merges when the tolerance is doubled but not at tol:
    # the grouping depends on the tolerance, which must be reported, not guessed.
    h = np.diag([0.0, 1.5e-6, 1.0])
    with pytest.raises(ClusterAmbiguityError):
        decompose_atom(h, cluster_tol=1e-6)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_clustering_tolerance_must_be_finite_and_non_negative(tol):
    # NaN and inf merged all nine Bohr pairs of three levels into one
    # frequency; -1 listed 0.0 three times, keeping only one of its pairs
    h = np.diag([0.0, 0.9, 2.1])
    with pytest.raises(ClusterAmbiguityError, match="cluster_tol must be finite"):
        decompose_atom(h, cluster_tol=tol)
    with pytest.raises(ClusterAmbiguityError, match="merge_tol must be finite"):
        bohr_spectrum(decompose_atom(h), merge_tol=tol)


# --------------------------------------------------------------------------
# Bohr frequencies and spectral projections
# --------------------------------------------------------------------------

def test_bohr_spectrum_three_level():
    atom = decompose_atom(np.diag([0.0, 0.9, 2.1]))
    bohr = bohr_spectrum(atom)
    assert np.allclose(bohr.frequencies, [-2.1, -1.2, -0.9, 0.0, 0.9, 1.2, 2.1])
    # the pair sets are keyed by the table's own frequencies, in their order
    assert [bohr.pairs[eps] for eps in bohr.frequencies] == [
        ((1, 3),), ((2, 3),), ((1, 2),), ((1, 1), (2, 2), (3, 3)),
        ((2, 1),), ((3, 2),), ((3, 1),)]


def test_bohr_spectrum_flags_near_degenerate_differences():
    # E_2 - E_1 = 1.0 and E_3 - E_2 = 1.0 + 1.5e-9 collide at doubled tolerance.
    atom = decompose_atom(np.diag([0.0, 1.0, 2.0 + 1.5e-9]))
    with pytest.raises(ClusterAmbiguityError):
        bohr_spectrum(atom, merge_tol=1e-9)
    # a zero tolerance identifies only equal differences: the three (k, k)
    assert bohr_spectrum(atom, merge_tol=0.0).pairs[0.0] == ((1, 1), (2, 2), (3, 3))


def test_spectral_projections_diagonalize_atomic_lindbladian():
    rng = np.random.default_rng(17)
    h = np.diag([0.0, 0.9, 2.1]).astype(complex)
    atom = decompose_atom(h)
    l_at = atomic_lindbladian(atom)
    bohr = bohr_spectrum(atom)
    total = np.zeros((9, 9), dtype=complex)
    for eps in bohr.frequencies:
        proj = spectral_projection(atom, eps, bohr=bohr)
        # idempotent and an eigenprojection of i L_at with eigenvalue eps
        assert np.linalg.norm(proj.matrix @ proj.matrix - proj.matrix) <= 1e-12
        diff = 1j * (l_at.matrix @ proj.matrix) - eps * proj.matrix
        assert np.linalg.norm(diff) <= 1e-10
        total += proj.matrix
    assert np.linalg.norm(total - np.eye(9)) <= 1e-12
    # random matrix: resolving the identity reproduces the matrix
    x = _random_matrix(rng, 3)
    parts = sum(spectral_projection(atom, eps, bohr=bohr)(x)
                for eps in bohr.frequencies)
    assert np.linalg.norm(parts - x) <= 1e-12


def test_block_diag_projection_keeps_level_blocks():
    atom = decompose_atom(np.diag([0.0, 0.0, 1.0]), cluster_tol=1e-8)
    assert atom.multiplicities == (2, 1)
    rng = np.random.default_rng(18)
    x = _random_matrix(rng, 3)
    y = spectral_projection(atom, 0.0)(x)       # P_D = P_at^(0)
    # the 2x2 ground block and the scalar top block survive; cross blocks die
    assert np.linalg.norm(y[:2, :2] - x[:2, :2]) <= 1e-12
    assert abs(y[2, 2] - x[2, 2]) <= 1e-12
    assert np.linalg.norm(y[:2, 2]) <= 1e-14
    assert np.linalg.norm(y[2, :2]) <= 1e-14


# --------------------------------------------------------------------------
# Gibbs state and pump validation
# --------------------------------------------------------------------------

def test_gibbs_state_boltzmann_ratios_and_degeneracy():
    atom = decompose_atom(np.diag([0.0, 0.0, 1.3]), cluster_tol=1e-8)
    beta = 0.7
    rho = gibbs_state(atom, beta)
    assert abs(np.trace(rho) - 1.0) <= 1e-14
    # degenerate ground level is uniformly occupied
    assert abs(rho[0, 0] - rho[1, 1]) <= 1e-15
    # Boltzmann ratio between levels
    assert abs(rho[2, 2] / rho[0, 0] - np.exp(-beta * 1.3)) <= 1e-13
    # infinite temperature: maximally mixed
    flat = gibbs_state(atom, 0.0)
    assert np.linalg.norm(flat - np.eye(3) / 3.0) <= 1e-14
    # commutes with H_at
    assert np.linalg.norm(rho @ atom.h_at - atom.h_at @ rho) <= 1e-14


def test_gibbs_rejects_negative_beta():
    atom = decompose_atom(np.diag([0.0, 1.0]))
    with pytest.raises(InvalidDensityMatrixError):
        gibbs_state(atom, -0.5)


@pytest.mark.filterwarnings("error")
def test_gibbs_state_at_non_finite_beta():
    # beta = NaN is refused like beta < 0; beta = inf is the zero-temperature
    # limit P_1 / n_1, which beta = 1e308 already reaches, degenerate or not
    for energies in ([0.0, 1.0], [0.0, 0.0, 1.3]):
        atom = decompose_atom(np.diag(energies), cluster_tol=1e-8)
        with pytest.raises(InvalidDensityMatrixError):
            gibbs_state(atom, np.nan)
        ground = atom.projections[0] / atom.multiplicities[0]
        cold = gibbs_state(atom, np.inf)
        assert np.linalg.norm(cold - ground) <= 1e-15
        assert np.array_equal(cold, gibbs_state(atom, 1e308))


def test_validate_pump_accepts_raising_rejects_other():
    atom = decompose_atom(np.diag([0.0, 1.0, 2.5]))
    good = np.zeros((3, 3), dtype=complex)
    good[2, 0] = 0.8j
    pump = validate_pump(atom, good)
    assert np.linalg.norm(pump.h_pump - (good + good.conj().T)) == 0.0
    # L_p on a test matrix is -i[H_p, .]
    rng = np.random.default_rng(19)
    x = _random_matrix(rng, 3)
    hp = pump.h_pump
    assert np.linalg.norm(pump.lindbladian(x) + 1j * (hp @ x - x @ hp)) <= 1e-13

    lowering = np.zeros((3, 3), dtype=complex)
    lowering[0, 2] = 1.0   # maps top sector down: wrong direction
    with pytest.raises(PumpSupportViolationError):
        validate_pump(atom, lowering)
    sigma_x = np.zeros((3, 3), dtype=complex)
    sigma_x[0, 1] = sigma_x[1, 0] = 1.0   # touches the middle level
    with pytest.raises(PumpSupportViolationError):
        validate_pump(atom, sigma_x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_pump_rejects_non_finite_entries(bad):
    # NaN fails both support tests (and inf turns them into NaN), so each
    # guard alone let the pump through
    atom = decompose_atom(np.diag([0.0, 1.0, 2.5]))
    h_p = np.zeros((3, 3), dtype=complex)
    h_p[2, 0] = bad
    with pytest.raises(PumpSupportViolationError, match="non-finite"):
        validate_pump(atom, h_p)


def test_validate_pump_with_degenerate_sectors():
    atom = decompose_atom(np.diag([0.0, 0.0, 2.0, 2.0]), cluster_tol=1e-8)
    h_p = np.zeros((4, 4), dtype=complex)
    h_p[2, 0] = 1.0
    h_p[3, 1] = 0.5
    pump = validate_pump(atom, h_p)    # both columns live in the sectors
    assert pump.h_p.shape == (4, 4)


def test_validate_state_rejects_bad_inputs():
    good = np.diag([0.6, 0.4]).astype(complex)
    assert np.array_equal(validate_state(good), good)
    with pytest.raises(InvalidDensityMatrixError):
        validate_state(np.array([[0.6, 0.2], [0.0, 0.4]]))   # not Hermitian
    with pytest.raises(InvalidDensityMatrixError):
        validate_state(np.diag([0.7, 0.4]))                  # trace 1.1
    with pytest.raises(InvalidDensityMatrixError):
        validate_state(np.diag([1.1, -0.1]))                 # negative eigenvalue


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_validate_state_rejects_non_finite_entries(bad, entry):
    # NaN fails every "x > tol" comparison, so each guard alone lets it through
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[entry] = rho[entry[::-1]] = bad
    with pytest.raises(InvalidDensityMatrixError):
        validate_state(rho)
