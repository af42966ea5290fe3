"""Howland operator: resonances, Riesz projections, perturbation blocks.

The time-periodic generator L_t = L_at + eta cos(omega t) L_p + lambda^2 L_R
is made autonomous on Fourier modes k = -N..N: block-diagonal entries
i omega k + B and nearest-neighbour couplings (eta/2) C (the cosine).  Facts
under test:

* delta_{k,p} (x) vec(1) is an *exact* left eigenvector of F with
  eigenvalue i p omega for |p| <= N-1, because the adjoint of every
  generator part annihilates the identity (the heisenberg picture F^H has
  it as an eigenvector), and floquet_spectrum reports its residuals and
  the eigenvalue count at each interior i p omega;
* the truncated spectrum is closed under complex conjugation (the
  generator preserves Hermiticity and the mode range is symmetric), so
  the heisenberg spectrum, its conjugate, is the state spectrum itself;
* away from the resonance copies, interior eigenvalues sit at distance
  >= O(lambda^2) left of the imaginary axis, with gap/lambda^2 stable
  under lambda -> lambda/2 (eta proportional to lambda^2);
* the contour resolvent sum built by block-Thomas elimination equals the
  dense one, for the identity and for a few right-hand sides, of F and
  (through the adjoint mode of the kernel) of F^H, and factors nothing
  wider than one block;
* contour-integral Riesz projections agree with eigensolver projections,
  and the compressed block P F P matches its first-order model
  center P0 + P0 (F - F0) P0 with a residual falling like lambda^4
  (two orders beyond the O(lambda^2) perturbation);
* the Kato block probed on Range(P0) (P = X K^{-1} Y with thin factors)
  equals the dense projections and norms, factors nothing wider than
  max(d^2, 2 rank P0), and rejects a contour rule its M/2 half disowns;
* eigenvalues of the one-period propagator are e^{T mu} for Howland
  eigenvalues mu, matched by the Hungarian assignment;
* the monodromy lattice mu_j + i omega m (copy on block m - k_j) gives the
  dense route's interior spectrum in the same order, gap, degenerate flag,
  disc counts and residuals, and the shifted block-Thomas Rayleigh
  quotient checks it independently.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import binom

from pumped_lindblad import (
    ContourHitsSpectrumError,
    DimensionMismatchError,
    GeneratorStructureError,
    IdempotencyFailureError,
    NearSingularPairError,
    ProjectionPairTooFarError,
    ReservoirSpec,
    build_howland,
    eigenprojection_direct,
    floquet_lattice,
    floquet_spectrum,
    howland_match,
    kato_block,
    kato_order_check,
    monodromy,
    pair_transform,
    reservoir_lindbladian,
    riesz_projection,
)
from pumped_lindblad.floquet import _inv_sqrt_series, _resolvent_apply

# Frozen: interior spectral gap of the bundled three-level instance at
# lambda = 0.1, eta = 0.01 (converged in N by N = 16).
GAP_3LVL = 0.0023519477809868226


def _matched_distance(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------

def test_howland_block_structure(three_level):
    bundle = three_level.bundle
    n = 3
    f_op = build_howland(bundle, n)
    d2 = 9
    m = f_op.matrix
    assert m.shape == ((2 * n + 1) * d2,) * 2
    b = bundle.l_at.matrix + bundle.lam**2 * bundle.l_r.matrix
    half_pump = 0.5 * bundle.eta * bundle.l_p.matrix
    for idx, k in enumerate(range(-n, n + 1)):
        sl = slice(idx * d2, (idx + 1) * d2)
        block = m[sl, sl]
        assert np.linalg.norm(block - 1j * bundle.omega * k * np.eye(d2) - b) <= 1e-14
        if idx + 1 < 2 * n + 1:
            sr = slice((idx + 1) * d2, (idx + 2) * d2)
            assert np.linalg.norm(m[sl, sr] - half_pump) <= 1e-14
            assert np.linalg.norm(m[sr, sl] - half_pump) <= 1e-14
            # nothing beyond the first off-diagonal
            if idx + 2 < 2 * n + 1:
                s2 = slice((idx + 2) * d2, (idx + 3) * d2)
                assert np.linalg.norm(m[sl, s2]) == 0.0


def test_howland_requires_two_modes(three_level):
    with pytest.raises(DimensionMismatchError):
        build_howland(three_level.bundle, 1)


# --------------------------------------------------------------------------
# exact resonances and conjugation symmetry
# --------------------------------------------------------------------------

def test_heisenberg_resonances_exact(three_level):
    f_op = build_howland(three_level.bundle, 8)
    spec = floquet_spectrum(f_op)
    assert max(spec.resonance_residuals.values()) <= 1e-12
    assert set(spec.resonance_residuals) == set(range(-7, 8))
    assert set(spec.disc_counts) == set(range(-6, 7))
    assert all(c == 1 for c in spec.disc_counts.values())
    # the residual is that of F^H x_p = -i p omega x_p on the assembled matrix
    d2 = f_op.block_size
    x = np.zeros(f_op.matrix.shape[0], dtype=complex)
    x[(3 + 8) * d2:(3 + 9) * d2] = np.eye(3).reshape(-1) / np.sqrt(3)
    direct = np.linalg.norm(f_op.matrix.conj().T @ x + 3j * f_op.omega * x)
    assert abs(spec.resonance_residuals[3] - direct) <= 1e-15


def test_resonance_counts_from_conjugated_state_spectrum(three_level):
    # the heisenberg spectrum is the conjugate of the state one: counting
    # around i p omega on either side gives the same numbers
    spec = floquet_spectrum(build_howland(three_level.bundle, 8))
    conj = np.conj(spec.eigenvalues)
    omega = three_level.bundle.omega
    recount = {p: int(np.sum(np.abs(conj - 1j * omega * p) <= 1e-8))
               for p in range(-6, 7)}
    assert spec.disc_counts == recount


def test_truncated_spectrum_is_closed_under_conjugation(three_level):
    w = np.linalg.eigvals(build_howland(three_level.bundle, 6).matrix)
    assert _matched_distance(w, np.conj(w)) <= 1e-9


# --------------------------------------------------------------------------
# spectrum and gap
# --------------------------------------------------------------------------

def test_interior_gap_frozen_and_stable(three_level):
    spec = floquet_spectrum(build_howland(three_level.bundle, 16))
    assert not spec.degenerate
    assert abs(spec.gap - GAP_3LVL) <= 1e-10
    # halving lambda with eta ~ lambda^2 keeps gap/lambda^2 within a factor 2
    half = floquet_spectrum(
        build_howland(three_level.make_bundle(0.05, 0.0025), 16))
    ratio = half.gap_over_lambda2 / spec.gap_over_lambda2
    assert 0.5 <= ratio <= 2.0
    # all eigenvalues live in the closed left half plane (dissipativity)
    assert spec.eigenvalues.real.max() <= 1e-10


def _gks_bundle(two_level):
    # the two-level atom with raw GKS jumps sigma_- and sigma_+
    lower = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    res = ReservoirSpec(beta=1.0, lam=0.1, form_factors=(), couplings=(),
                        gks_jumps=(lower.T, lower))
    return replace(two_level.bundle, l_r=reservoir_lindbladian(two_level.atom, res).l_r)


def _dephased_bundle(three_level):
    # the three-level atom with the one GKS jump |1><1|: levels 0 and 2,
    # which the pump couples, evolve unitarily, so their quasi-energy
    # coherences keep Re mu = 0 off i omega Z at lambda, eta != 0
    res = ReservoirSpec(beta=2.0, lam=0.1, form_factors=(), couplings=(),
                        gks_jumps=(np.diag([0.0, 1.0, 0.0]).astype(complex),))
    return replace(three_level.bundle,
                   l_r=reservoir_lindbladian(three_level.atom, res).l_r)


_VARIANTS = {"gks": ("two_level", _gks_bundle), "dephased": ("three_level", _dephased_bundle)}


@pytest.mark.parametrize("case, n", [("three_level", 8), ("three_level", 16),
                                     ("three_level", 32), ("two_level", 32), ("gks", 8),
                                     ("dephased", 8)])
def test_lattice_spectrum_equals_dense_route(request, case, n):
    if case in _VARIANTS:
        fixture, variant = _VARIANTS[case]
        bundle = variant(request.getfixturevalue(fixture))
    else:
        bundle = request.getfixturevalue(case).bundle
    f_op = build_howland(bundle, n)
    dense = floquet_spectrum(f_op)
    lattice = floquet_lattice(bundle, n)
    spec = floquet_spectrum(f_op, lattice)
    # a zero gap reads ~1e-14 on the lattice (CF4 roundoff), so the flag
    # must come from the dense fallback
    assert spec.degenerate == dense.degenerate == (case == "dephased")
    assert spec.eigenvalues.size == dense.eigenvalues.size
    assert np.sum(spec.interior) == np.sum(dense.interior)
    # the copy mu_j + i omega m sits on block m - k_j, k_j the index of
    # e^{+i omega k t} in e^{-mu_j t} tau(t) v_j; the opposite sign fails
    interior = spec.eigenvalues[spec.interior]
    assert _matched_distance(interior, dense.eigenvalues[dense.interior]) <= 1e-7
    # and in the same order: ties in Im (i omega p, -gamma + i omega p) are
    # not ordered by roundoff
    assert np.max(np.abs(interior - dense.eigenvalues[dense.interior])) <= 1e-7
    assert abs(spec.gap - dense.gap) <= 1e-8 * dense.gap
    assert spec.disc_counts == dense.disc_counts
    assert spec.resonance_residuals == dense.resonance_residuals
    assert howland_match(f_op, *lattice) <= 1e-6


def test_lattice_sign_convention_is_pinned(two_level):
    # on two_level omega equals the level spread, so the coherences carry
    # Fourier indices -1 and +1 and the flipped convention moves them
    bundle = two_level.bundle
    f_op = build_howland(bundle, 8)
    dense = floquet_spectrum(f_op)
    mu, k = floquet_lattice(bundle, 8)
    assert set(k) == {-1, 0, 1}
    flipped = floquet_spectrum(f_op, (mu, -k))
    assert np.sum(flipped.interior) == np.sum(dense.interior)
    assert _matched_distance(flipped.eigenvalues[flipped.interior],
                             dense.eigenvalues[dense.interior]) > 1e-3


def test_howland_match_catches_a_wrong_exponent(three_level):
    # the Rayleigh quotient converges to the Howland eigenvalue nearest the
    # shift, not to the exponent it was given
    bundle = three_level.bundle
    f_op = build_howland(bundle, 16)
    mu, k = floquet_lattice(bundle, 16)
    assert howland_match(f_op, mu, k) <= 1e-8
    for j in range(mu.size):
        wrong = mu.copy()
        wrong[j] += 1e-3
        assert howland_match(f_op, wrong, k) > 1e-6, j


def test_lattice_must_fit_the_operator(three_level, two_level):
    lattice = floquet_lattice(two_level.bundle, 8)
    with pytest.raises(DimensionMismatchError):
        floquet_spectrum(build_howland(three_level.bundle, 8), lattice)


def test_free_spectrum_is_degenerate(three_level):
    spec = floquet_spectrum(build_howland(three_level.make_bundle(0.0, 0.0), 4))
    assert spec.degenerate
    assert spec.gap == 0.0
    assert spec.gap_over_lambda2 == np.inf


# --------------------------------------------------------------------------
# Riesz projections
# --------------------------------------------------------------------------

def test_riesz_projection_against_eigensolver(three_level):
    f_op = build_howland(three_level.bundle, 8)
    proj = riesz_projection(f_op, 0.0)
    assert proj.idempotency_defect <= 1e-8
    assert proj.rank == 1
    direct = eigenprojection_direct(f_op, 0.0, proj.radius)
    assert np.linalg.norm(proj.matrix - direct, 2) <= 1e-7
    # the block-Thomas sum is the dense-solve contour sum of the same rule
    nodes, weights = _contour(0.0, proj.radius)
    eye = np.eye(f_op.matrix.shape[0])
    dense = sum(wj * np.linalg.solve(zj * eye - f_op.matrix, eye)
                for zj, wj in zip(nodes, weights)) / nodes.size
    assert np.linalg.norm(proj.matrix - dense) <= 1e-12 * np.linalg.norm(dense)
    # quadrature-order stability: doubling the contour points changes nothing
    proj2 = riesz_projection(f_op, 0.0, radius=proj.radius, m_points=128)
    assert np.linalg.norm(proj.matrix - proj2.matrix, 2) <= 1e-9


def test_riesz_projection_rejects_contour_through_spectrum(three_level):
    f_op = build_howland(three_level.bundle, 8)
    w = np.linalg.eigvals(f_op.matrix)
    dist = np.abs(w)
    nearest = float(np.min(dist[dist > 1e-6]))
    with pytest.raises(ContourHitsSpectrumError):
        riesz_projection(f_op, 0.0, radius=nearest)


def test_riesz_projections_resolve_resonance_copies(three_level):
    # projections at two different resonance copies are disjoint
    bundle = three_level.bundle
    f_op = build_howland(bundle, 8)
    p0 = riesz_projection(f_op, 0.0)
    p1 = riesz_projection(f_op, 1j * bundle.omega)
    assert p0.rank == 1 and p1.rank == 1
    assert np.linalg.norm(p0.matrix @ p1.matrix, 2) <= 1e-7


def _contour(center, radius, m_points=64):
    phases = np.exp(2j * np.pi * (np.arange(m_points) + 0.5) / m_points)
    return center + radius * phases, radius * phases


@pytest.mark.parametrize("n_modes", [2, 8])
@pytest.mark.parametrize("picture", ["state", "heisenberg"])
@pytest.mark.parametrize("eta", [0.01, 0.0])
@pytest.mark.parametrize("at_omega", [False, True])
def test_structured_resolvent_sum_equals_dense(three_level, n_modes, picture, eta,
                                               at_omega):
    # the heisenberg picture is F^H, reached through the adjoint mode of the
    # kernel, which returns (sum_j w_j (z_j - F)^{-1})^H for the identity
    heisenberg = picture == "heisenberg"
    bundle = three_level.make_bundle(0.1, eta)
    f_op = build_howland(bundle, n_modes)
    center = 1j * bundle.omega if at_omega else 0.0
    # the default-radius contour of riesz_projection and a wide one
    w = np.linalg.eigvals(f_op.matrix)
    dist = np.abs(w - center)
    tight = 0.45 * float(np.min(dist[dist > 1e-6]))
    eye = np.eye(f_op.matrix.shape[0])
    # 17 and 25 nodes end in a partial chunk of 1 and of block_size nodes
    for radius, m_points in ((tight, 64), (0.3, 64), (tight, 17), (0.3, 25)):
        nodes, weights = _contour(center, radius, m_points)
        dense = sum(wj * np.linalg.solve(zj * eye - f_op.matrix, eye)
                    for zj, wj in zip(nodes, weights))
        if heisenberg:
            dense = dense.conj().T
        got = _resolvent_apply(f_op, nodes, weights, eye, adjoint=heisenberg)
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("adjoint", [False, True], ids=["F", "adjoint"])
def test_block_thomas_apply_equals_dense(three_level, adjoint):
    f_op = build_howland(three_level.bundle, 4)
    rng = np.random.default_rng(61)
    rhs = rng.standard_normal((f_op.matrix.shape[0], 3)) + 0j
    # 17 nodes end in a partial chunk; two stacked rules share the solves
    nodes, w = _contour(0.0, 0.3, 17)
    rules = np.stack([w, np.where(np.arange(17) % 2, 0.0, 2.0 * w)])
    got = _resolvent_apply(f_op, nodes, rules, rhs, adjoint=adjoint)
    eye = np.eye(f_op.matrix.shape[0])
    for rule, thin in zip(rules, got):
        dense = sum(wj * np.linalg.solve(zj * eye - f_op.matrix, eye)
                    for zj, wj in zip(nodes, rule))
        want = (rhs.conj().T @ dense).conj().T if adjoint else dense @ rhs
        assert np.linalg.norm(thin - want) <= 1e-12 * np.linalg.norm(want)


def test_riesz_projection_factors_only_blocks(three_level, monkeypatch):
    f_op = build_howland(three_level.bundle, 8)
    widths = []
    for name in ("solve", "inv"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            widths.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    proj = riesz_projection(f_op, 0.0)
    assert widths and max(widths) <= f_op.block_size
    assert proj.rank == 1


def test_singular_block_pivot_is_contour_hit(three_level):
    # lambda = eta = 0: the blocks decouple and D_0(0) = -L_at is singular
    f0 = build_howland(three_level.make_bundle(0.0, 0.0), 4)
    with pytest.raises(ContourHitsSpectrumError):
        _resolvent_apply(f0, [0.0], [1.0], np.eye(f0.matrix.shape[0]))


def test_riesz_and_kato_need_a_howland_operator(three_level):
    f_op = build_howland(three_level.bundle, 4)
    with pytest.raises(DimensionMismatchError):
        riesz_projection(f_op.matrix, 0.0)
    with pytest.raises(DimensionMismatchError):
        kato_block(f_op.matrix, f_op, 0.0)
    with pytest.raises(DimensionMismatchError):
        kato_block(f_op, f_op.matrix, 0.0)
    # the independent eigensolver route keeps taking plain arrays
    assert eigenprojection_direct(f_op.matrix, 0.0, 1e-3).shape == f_op.matrix.shape


# --------------------------------------------------------------------------
# Kato block: first-order model and measured residual order
# --------------------------------------------------------------------------

def test_kato_block_residual_scaling(three_level):
    f0 = build_howland(three_level.make_bundle(0.0, 0.0), 8)
    res = {}
    for lam in (0.1, 0.05):
        f_op = build_howland(three_level.make_bundle(lam, three_level.eta
                                                     * (lam / 0.1) ** 2), 8)
        res[lam] = kato_block(f_op, f0, 0.0).residual
    ratio = res[0.05] / res[0.1]
    # The perturbation enters at O(lambda^2) and the center-0 block has no
    # first-order defect (the unperturbed projection commutes with the
    # unperturbed operator at its own eigenvalue), so the residual is
    # O(lambda^4): halving lambda divides it by ~16.
    assert 1.0 / 20.0 <= ratio <= 1.0 / 12.0, f"measured ratio {ratio}"
    assert res[0.1] <= 1e-3


def test_kato_order_check_matches_independent_blocks(three_level):
    n = 8
    check = kato_order_check(three_level.bundle, n)
    f0 = build_howland(three_level.make_bundle(0.0, 0.0), n)
    independent = [
        kato_block(build_howland(three_level.make_bundle(0.1 * s, 0.01 * s**2), n),
                   f0, 0.0).residual
        for s in (1.0, 0.5)
    ]
    assert check["residual_at_lambda"] == independent[0]
    assert check["residual_at_half_lambda"] == independent[1]
    assert check["ratio"] == independent[1] / independent[0]


def test_kato_order_check_reuses_the_callers_objects(three_level):
    bundle, n = three_level.bundle, 8
    given = kato_order_check(bundle, n, f_op=build_howland(bundle, n),
                             lattice=floquet_lattice(bundle, n))
    assert given == kato_order_check(bundle, n)
    with pytest.raises(DimensionMismatchError):
        kato_order_check(bundle, n, f_op=build_howland(bundle, n + 1))


def test_kato_order_check_ratio_is_none_at_roundoff(two_level):
    # eta = 0: the Davies L_R commutes with L_at, so P = P0 and the
    # first-order model is exact; both residuals are rounding noise
    check = kato_order_check(two_level.bundle, 8)
    assert check["residual_at_lambda"] <= 1e-13
    assert check["ratio"] is None


@pytest.mark.parametrize("at_omega", [False, True], ids=["center-0", "center-omega"])
@pytest.mark.parametrize("scale", [1.0, 0.5], ids=["lambda", "half-lambda"])
def test_thin_kato_block_equals_dense_route(three_level, at_omega, scale):
    bundle = three_level.make_bundle(0.1 * scale, 0.01 * scale**2)
    center = 1j * bundle.omega if at_omega else 0.0
    f_op = build_howland(bundle, 8)
    f0 = build_howland(three_level.make_bundle(0.0, 0.0), 8)
    kb = kato_block(f_op, f0, center)
    assert kb.projection.left.shape == (f_op.matrix.shape[0], 5)
    # the dense route: both projections materialized by the structured sum
    p = riesz_projection(f_op, center, radius=kb.radius).matrix
    p0 = riesz_projection(f0, center, radius=kb.radius).matrix
    m, m0 = f_op.matrix, f0.matrix

    def close(thin, dense, rel):
        return np.linalg.norm(thin - dense, 2) <= rel * np.linalg.norm(dense, 2)

    assert close(kb.projection.dense(), p, 1e-12)
    assert close(kb.block.dense(), p @ m @ p, 1e-12)
    assert close(kb.first_order.dense(), p0 @ (m - m0) @ p0, 1e-12)
    residual = np.linalg.norm(p @ m @ p - center * p0 - p0 @ (m - m0) @ p0, 2)
    separation = np.linalg.norm((p - p0) @ (p - p0), 2)
    assert abs(kb.residual - residual) <= 1e-10 * residual
    assert abs(kb.separation - separation) <= 1e-10 * separation
    assert kb.idempotency_defect <= 1e-12 and kb.quadrature_gap <= 1e-12


def test_kato_probe_needs_an_even_converged_rule(three_level):
    f_op = build_howland(three_level.bundle, 8)
    f0 = build_howland(three_level.make_bundle(0.0, 0.0), 8)
    fine = kato_block(f_op, f0, 0.0)
    # M = 16: the dense projection misses its 1e-6 idempotency limit, while
    # the probe passes and states its error estimate, the M vs M/2 gap
    with pytest.raises(IdempotencyFailureError):
        riesz_projection(f_op, 0.0, radius=fine.radius, m_points=16)
    coarse = kato_block(f_op, f0, 0.0, m_points=16)
    assert 1e-10 <= coarse.quadrature_gap <= 1e-6
    assert abs(coarse.residual - fine.residual) <= 1e-10 * fine.residual
    with pytest.raises(IdempotencyFailureError):
        kato_block(f_op, f0, 0.0, m_points=8)
    for m_points in (63, 1, 0):
        with pytest.raises(DimensionMismatchError):
            kato_block(f_op, f0, 0.0, m_points=m_points)
    with pytest.raises(DimensionMismatchError):
        kato_order_check(three_level.bundle, 8, m_points=63)


def test_kato_needs_a_free_f0_and_equal_ranks(three_level):
    f_op = build_howland(three_level.bundle, 4)
    with pytest.raises(GeneratorStructureError):
        kato_block(f_op, f_op, 0.0)              # coupled: not block diagonal
    damped = build_howland(three_level.make_bundle(0.1, 0.0), 4)
    with pytest.raises(GeneratorStructureError):
        kato_block(f_op, damped, 0.0)            # blocks not skew-Hermitian
    # a spectrum of F with one eigenvalue fewer inside the contour than rank P0
    f0 = build_howland(three_level.make_bundle(0.0, 0.0), 4)
    w = np.linalg.eigvals(f_op.matrix)
    w = np.delete(w, np.argmin(np.abs(w)))
    with pytest.raises(ProjectionPairTooFarError):
        kato_block(f_op, f0, 0.0, eigenvalues=w)
    # a contour around no eigenvalue: P = P0 = 0 and the block is empty
    empty = kato_block(f_op, f0, 0.3j, radius=0.1)
    assert empty.projection.left.shape[1] == 0
    assert empty.residual == empty.quadrature_gap == 0.0


def test_kato_order_check_factors_only_small_matrices(three_level, monkeypatch):
    bundle = three_level.bundle
    calls = []
    for name in ("svd", "solve", "inv", "qr", "eig", "eigvals", "eigh", "norm"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            order = args[0] if args else kwargs.get("ord")
            # Frobenius and infinity norms factor nothing; a 2-norm is an SVD
            if _name != "norm" or order == 2:
                calls.append((_name, np.asarray(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    check = kato_order_check(bundle, 32)
    d2 = 9
    # the annulus guards take the lattice spectra: no Howland eigensolve
    eigs = [a.shape[-1] for name, a in calls if name in ("eig", "eigvals")]
    assert eigs and max(eigs) <= d2
    rank = 5                                  # of P0 at center 0 on three_level
    widest = max(a.shape[-1] for _, a in calls if a.shape[-1] == a.shape[-2])
    assert widest <= max(d2, 2 * rank)
    assert 0.06 <= check["ratio"] <= 0.065


# --------------------------------------------------------------------------
# pairs of near projections
# --------------------------------------------------------------------------

def test_pair_transform_random_near_pairs():
    rng = np.random.default_rng(51)
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
        assert np.linalg.norm(u @ v - eye, 2) <= 1e-10
        assert np.linalg.norm(v @ u - eye, 2) <= 1e-10
        assert np.linalg.norm(u @ p @ v - q, 2) <= 1e-10


def test_pair_transform_rotation_closed_form():
    # Orthogonal rank-one projections in the plane: the transform *is* the
    # rotation carrying ran P to ran Q.
    theta = 0.3
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    q = rot @ p @ rot.conj().T
    u, v = pair_transform(p, q)
    assert np.linalg.norm(u - rot, 2) <= 1e-12
    assert np.linalg.norm(v - rot.conj().T, 2) <= 1e-12


def test_binomial_series_coefficients():
    # for the nilpotent shift J, (1 - R)^{-1/2} at R = -J is sum_n c_n J^n,
    # exact at 60 terms; its first row is c_0 .. c_59 = binom(-1/2, n)
    coef = _inv_sqrt_series(-np.eye(60, k=1))[0]
    for n, c in enumerate(coef):
        assert abs(c - binom(-0.5, n)) <= 1e-15 * abs(binom(-0.5, n)), n


def test_pair_transform_orthogonal_ranges_rejected():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)   # (P-Q)^2 = 1: transform singular
    with pytest.raises(NearSingularPairError):
        pair_transform(p, q)


# --------------------------------------------------------------------------
# monodromy cross-check
# --------------------------------------------------------------------------

def test_monodromy_matches_floquet_exponents(three_level):
    rep = monodromy(three_level.bundle, n_modes=16)
    assert rep.max_match_error <= 1e-6
    assert rep.eigenvalues.shape == (9,)
    # the stationary direction: one multiplier equals 1
    assert np.min(np.abs(rep.eigenvalues - 1.0)) <= 1e-8

