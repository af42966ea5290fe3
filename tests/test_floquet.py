"""Howland operator: resonances, Riesz projections, perturbation blocks.

The time-periodic generator L_t = L_at + eta cos(omega t) L_p + lambda^2 L_R
is made autonomous on Fourier modes k = -N..N: block-diagonal entries
i omega k + B and nearest-neighbour couplings (eta/2) C (the cosine).  Facts
under test:

* delta_{k,p} (x) vec(1) is an *exact* left eigenvector of F with
  eigenvalue i p omega for |p| <= N-1, because the adjoint of every
  generator part annihilates the identity (the heisenberg picture F^H has
  it as an eigenvector), and floquet_spectrum reports its one residual and
  the eigenvalue count at each interior i p omega;
* the truncated spectrum is closed under complex conjugation (the
  generator preserves Hermiticity and the mode range is symmetric), so
  the heisenberg spectrum, its conjugate, is the state spectrum itself;
* away from the resonance copies, interior eigenvalues sit at distance
  >= O(lambda^2) left of the imaginary axis, with gap/lambda^2 stable
  under lambda -> lambda/2 (eta proportional to lambda^2);
* the contour resolvent sum built by block-Thomas elimination equals the
  dense one, for the identity and for a few right-hand sides, of F and
  (through the left side of the kernel) of F^H, gives both sides from one
  inverse per block pivot, and factors nothing wider than one block;
* contour-integral Riesz projections agree with eigensolver projections,
  and the compressed block P F P at the resonance 0 matches its
  first-order model P0 (F - F0) P0, F0 = diag(i omega k + B0) from the free
  block B0 = L_at on F's modes (both read from one bundle), with a residual
  falling like lambda^4 (two orders beyond the O(lambda^2) perturbation);
* the Kato block probed on Range(P0) (P = X K^{-1} Y with thin factors)
  equals the dense projections and norms, factors nothing wider than
  max(d^2, 2 rank P0), and rejects a contour rule its M/2 half disowns;
  around the resonance 0 it solves only the nodes above the real axis
  (in the Hermitian basis F is real, so their conjugates follow from
  conj(F) = J F J, J the mode reversal), equals the full M-node sums and
  refuses an F that does not preserve Hermiticity; it runs on the rows B, H
  and B0 reach from Range(P0) (5 x 5 pivots on three_level) and equals
  the full-block probe, and on the Fourier modes its resolvent reaches (19
  of 65 on three_level at n_modes = 32, so its pivot count does not grow
  with n_modes) and equals the uncut probe, whose sums are below
  2^-53 ||X|| on every dropped mode, in a rotated atomic basis too; an
  L_at with no eigenvalue 0 and a contour radius that is not finite and
  > 0 are refused;
* eigenvalues of the one-period propagator are e^{T mu} for Howland
  eigenvalues mu, matched by the Hungarian assignment;
* the monodromy lattice mu_j + i omega m (copy on block m - k_j) gives the
  dense route's interior spectrum in the same order, gap, degenerate flag,
  disc counts and residual, and the shifted block-Thomas Rayleigh
  quotient checks it independently; on a zero or near-zero gap it keeps
  the dense route's flag and gap to roundoff with no eigensolve.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import binom

from pumped_lindblad import (
    ContourHitsSpectrumError,
    DimensionMismatchError,
    GeneratorBundle,
    GeneratorStructureError,
    IdempotencyFailureError,
    ProjectionPairTooFarError,
    ReservoirSpec,
    Superoperator,
    build_howland,
    floquet_lattice,
    floquet_spectrum,
    howland_match,
    kato_block,
    kato_order_check,
    reservoir_lindbladian,
)
from pumped_lindblad import floquet
from pumped_lindblad.evolution import _hermitian_basis
from pumped_lindblad.floquet import _lattice_copies, _resolvent_apply
from reference import (NearSingularPairError, _inv_sqrt_series, dense_spectrum,
                       eigenprojection_direct, monodromy, pair_transform, resolvent_sum_dense,
                       riesz_projection)

# Frozen: interior spectral gap of the bundled three-level instance at
# lambda = 0.1, eta = 0.01 (converged in N by N = 16).
GAP_3LVL = 0.0023519477809868226


def _kato(bundle, n_modes, **kwargs):
    # kato_block with the dense spectrum of F for its annulus guard
    return kato_block(bundle, n_modes, **kwargs,
                      eigenvalues=np.linalg.eigvals(build_howland(bundle, n_modes).matrix))


def _free(f_op, b0):
    # the free operator diag(i omega k + B0) on F's modes, for the dense routes
    return replace(f_op, base=b0, coupling=np.zeros_like(f_op.coupling))


def _resonance_rows(f_op):
    """x_p^H F - i p omega x_p^H for every |p| <= N-1, from the dense matrix."""
    n, d2 = f_op.n_modes, f_op.block_size
    one = np.eye(f_op.dim).reshape(-1) / np.sqrt(f_op.dim)
    for p in range(-(n - 1), n):
        row = one @ f_op.matrix[(p + n) * d2:(p + n + 1) * d2]
        row[(p + n) * d2:(p + n + 1) * d2] -= 1j * f_op.omega * p * one
        yield row


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


@pytest.mark.parametrize("case", ["two_level", "three_level"])
def test_block_forms_equal_the_dense_matrix(request, case):
    # every product a CLI path takes from the blocks, against the dense matrix
    inst = request.getfixturevalue(case)
    f_op = build_howland(inst.bundle, 8)
    m, m0, d2 = f_op.matrix, _free(f_op, inst.l_at.matrix).matrix, f_op.block_size

    def close(blocks, dense, rel=1e-13):
        return np.linalg.norm(blocks - dense) <= rel * np.linalg.norm(dense)

    # resonance rows x_p^H F - i p omega x_p^H, also on blocks that do not
    # preserve the trace, where the one residual is far from zero
    rng = np.random.default_rng(0)
    noisy = replace(f_op, base=rng.normal(size=(d2, d2)) + f_op.base,
                    coupling=rng.normal(size=(d2, d2)) + 0j)
    for op in (f_op, noisy):
        residual = dense_spectrum(op).resonance_residual
        for row in _resonance_rows(op):
            assert abs(residual - np.linalg.norm(row)) <= 1e-13 * max(1.0, residual)
        # ||F||_inf as the largest block row sum
        assert abs(op.norm_inf - np.linalg.norm(op.matrix, np.inf)) <= 1e-13 * op.norm_inf
    # F X from the weight rule w z, and (F - F0) Q0 from B - B0 and H
    kb = _kato(inst.bundle, 8)
    x, k_inv, y, q0 = kb.x, kb.k_inv, kb.y, kb.q0
    assert close(kb.block, k_inv @ (y @ (m @ x)) @ k_inv)
    assert close(kb.first_order, q0.conj().T @ (m - m0) @ q0)


# --------------------------------------------------------------------------
# exact resonances and conjugation symmetry
# --------------------------------------------------------------------------

def test_heisenberg_resonances_exact(three_level):
    f_op = build_howland(three_level.bundle, 8)
    spec = dense_spectrum(f_op)
    assert spec.resonance_residual <= 1e-12
    assert set(spec.disc_counts) == set(range(-6, 7))
    assert all(c == 1 for c in spec.disc_counts.values())
    # the residual is that of F^H x_p = -i p omega x_p on the assembled matrix
    d2 = f_op.block_size
    x = np.zeros(f_op.matrix.shape[0], dtype=complex)
    x[(3 + 8) * d2:(3 + 9) * d2] = np.eye(3).reshape(-1) / np.sqrt(3)
    direct = np.linalg.norm(f_op.matrix.conj().T @ x + 3j * f_op.omega * x)
    assert abs(spec.resonance_residual - direct) <= 1e-15


@pytest.mark.parametrize("case", ["two_level", "three_level", "degenerate"])
def test_resonance_residual_is_that_of_every_row_block(request, case):
    # row block p of F is [H, i p omega + B, H], so the i p omega terms cancel
    # and one number is the residual of x_p^H F = i p omega x_p^H for every
    # |p| <= N-1; checked here on the dense matrix F itself
    bundle = request.getfixturevalue(case).bundle
    f_op = build_howland(bundle, 8)
    spec = floquet_spectrum(f_op, floquet_lattice(bundle, 8))
    rows = list(_resonance_rows(f_op))
    assert len(rows) == 15
    for row in rows:
        assert abs(spec.resonance_residual - np.linalg.norm(row)) <= 1e-15


def test_resonance_counts_from_conjugated_state_spectrum(three_level):
    # the heisenberg spectrum is the conjugate of the state one: counting
    # around i p omega on either side gives the same numbers
    spec = dense_spectrum(build_howland(three_level.bundle, 8))
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
    spec = dense_spectrum(build_howland(three_level.bundle, 16))
    assert not spec.degenerate
    assert abs(spec.gap - GAP_3LVL) <= 1e-10
    # halving lambda with eta ~ lambda^2 keeps gap/lambda^2 within a factor 2
    half = dense_spectrum(
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


@pytest.mark.parametrize("case, n", [("three_level", 8), ("three_level", 16),
                                     ("three_level", 32), ("two_level", 32), ("gks", 8)])
def test_lattice_spectrum_equals_dense_route(request, case, n):
    if case == "gks":
        bundle = _gks_bundle(request.getfixturevalue("two_level"))
    else:
        bundle = request.getfixturevalue(case).bundle
    f_op = build_howland(bundle, n)
    dense = dense_spectrum(f_op)
    lattice = floquet_lattice(bundle, n)
    spec = floquet_spectrum(f_op, lattice)
    assert not spec.degenerate and not dense.degenerate
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
    assert spec.resonance_residual == dense.resonance_residual
    assert howland_match(f_op, *lattice) <= 1e-6


def _dephased_bundle(three_level, omega=None, eps=0.0):
    # the three-level atom with the one GKS jump |1><1|: levels 0 and 2,
    # which the pump couples, evolve unitarily, so their quasi-energy
    # coherences keep Re mu = 0 off i omega Z at lambda, eta != 0.  A second
    # jump eps |0><2| opens a gap of order lambda^2 eps^2 / 2.
    decay = np.zeros((3, 3), dtype=complex)
    decay[0, 2] = eps
    jumps = (np.diag([0.0, 1.0, 0.0]).astype(complex),) + ((decay,) if eps else ())
    res = ReservoirSpec(beta=2.0, lam=0.1, form_factors=(), couplings=(), gks_jumps=jumps)
    return replace(three_level.bundle, omega=omega or three_level.bundle.omega,
                   l_r=reservoir_lindbladian(three_level.atom, res).l_r)


_DEPHASED = ([{"omega": omega} for omega in (0.3, 2.1, 10.0, 50.0)]
             + [{"eps": eps} for eps in (0.3, 0.1, 0.03, 1e-2, 1e-3, 1e-4, 1e-5)])


@pytest.mark.parametrize("variant", _DEPHASED,
                         ids=[f"{key}-{value}" for v in _DEPHASED for key, value in v.items()])
def test_lattice_settles_a_zero_or_tiny_gap(three_level, variant):
    # a zero gap reads at CF4 roundoff on the lattice (4e-19 to 1.3e-14),
    # and gaps from 4.5e-4 down to 7e-13 read to roundoff: the dense
    # route's flag is the reference, and no eigensolve settles any of them
    bundle = _dephased_bundle(three_level, **variant)
    n = 8
    f_op = build_howland(bundle, n)
    dense = dense_spectrum(f_op)
    lattice = floquet_lattice(bundle, n)
    spec = floquet_spectrum(f_op, lattice)
    assert spec.eigenvalues.size == dense.eigenvalues.size
    assert spec.degenerate == dense.degenerate
    assert dense.degenerate == ("omega" in variant or variant["eps"] <= 1e-5)
    assert abs(spec.gap - dense.gap) <= max(1e-8 * dense.gap, 1e-13)
    assert spec.disc_counts == dense.disc_counts
    assert spec.resonance_residual == dense.resonance_residual
    # one copy per exponent on every interior block; the dense route's
    # largest-block rule can miscount a copy spread over two blocks
    assert np.sum(spec.interior) == (2 * (n - 2) + 1) * f_op.block_size
    assert howland_match(f_op, *lattice) <= 1e-6


def test_lattice_sign_convention_is_pinned(two_level):
    # on two_level omega equals the level spread, so the coherences carry
    # Fourier indices -1 and +1 and the flipped convention moves them
    bundle = two_level.bundle
    f_op = build_howland(bundle, 8)
    dense = dense_spectrum(f_op)
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
    spec = dense_spectrum(build_howland(three_level.make_bundle(0.0, 0.0), 4))
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
    dense = resolvent_sum_dense(f_op, nodes, weights) / nodes.size
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
    # the heisenberg picture is F^H: sum_j conj(w_j) (conj(z_j) - F^H)^{-1} is
    # (sum_j w_j (z_j - F)^{-1})^H, the kernel's left side for the identity
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
        dense = resolvent_sum_dense(f_op, nodes, weights)
        if heisenberg:
            dense = dense.conj().T
            got = _resolvent_apply(f_op, nodes, weights, lhs=eye)[1].conj().T
        else:
            got = _resolvent_apply(f_op, nodes, weights, eye)[0]
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("adjoint", [False, True], ids=["F", "adjoint"])
def test_block_thomas_apply_equals_dense(three_level, adjoint):
    f_op = build_howland(three_level.bundle, 4)
    rng = np.random.default_rng(61)
    rhs = rng.standard_normal((f_op.matrix.shape[0], 3)) + 0j
    # 17 nodes end in a partial chunk; two stacked rules share the solves
    nodes, w = _contour(0.0, 0.3, 17)
    rules = np.stack([w, np.where(np.arange(17) % 2, 0.0, 2.0 * w)])
    # the adjoint sum (sum_j w_j rhs^H (z_j - F)^{-1})^H from the left side
    if adjoint:
        got = _resolvent_apply(f_op, nodes, rules, lhs=rhs.conj().T)[1].conj().swapaxes(-1, -2)
    else:
        got = _resolvent_apply(f_op, nodes, rules, rhs)[0]
    for dense, thin in zip(resolvent_sum_dense(f_op, nodes, rules), got):
        want = (rhs.conj().T @ dense).conj().T if adjoint else dense @ rhs
        assert np.linalg.norm(thin - want) <= 1e-12 * np.linalg.norm(want)


def test_one_call_gives_both_sides_on_a_centre_block(three_level):
    # rows only on the centre block, like Q0: one call gives the right and
    # the left sum of each rule; 17 nodes end in a partial chunk
    f_op = build_howland(three_level.bundle, 4)
    s, n = f_op.block_size, f_op.matrix.shape[0]
    rng = np.random.default_rng(62)
    centre = slice(4 * s, 5 * s)
    rhs = np.zeros((n, 3), dtype=complex)
    rhs[centre] = rng.standard_normal((s, 3)) + 1j * rng.standard_normal((s, 3))
    lhs = np.zeros((2, n), dtype=complex)
    lhs[:, centre] = rng.standard_normal((2, s)) + 1j * rng.standard_normal((2, s))
    nodes, w = _contour(0.0, 0.3, 17)
    rules = np.stack([w, np.where(np.arange(17) % 2, 0.0, 2.0 * w)])
    right, left = _resolvent_apply(f_op, nodes, rules, rhs, lhs)
    for dense, x, y in zip(resolvent_sum_dense(f_op, nodes, rules), right, left):
        assert np.linalg.norm(x - dense @ rhs) <= 1e-12 * np.linalg.norm(dense @ rhs)
        assert np.linalg.norm(y - lhs @ dense) <= 1e-12 * np.linalg.norm(lhs @ dense)


@pytest.mark.parametrize("right_from, left_from, mode", [(2, 0, 0), (9, 8, 4)],
                         ids=["right-2-left-0", "right-zero-left-8"])
def test_sides_from_different_first_blocks_equal_dense(three_level, right_from, left_from,
                                                        mode):
    # each side keeps its forward vectors from its own first nonzero block;
    # block 9 of 9 makes an all-zero side; 17 nodes end in a partial chunk.
    # The contour circles the resonance copy at i omega mode, on a block that
    # every nonzero side reaches, so no sum cancels to a sliver of its terms
    f_op = build_howland(three_level.bundle, 4)
    s, n = f_op.block_size, f_op.matrix.shape[0]
    rng = np.random.default_rng(63)
    rhs = np.zeros((n, 3), dtype=complex)
    rhs[right_from * s:] = rng.standard_normal((n - right_from * s, 3))
    lhs = np.zeros((2, n), dtype=complex)
    lhs[:, left_from * s:] = (rng.standard_normal((2, n - left_from * s))
                              + 1j * rng.standard_normal((2, n - left_from * s)))
    nodes, w = _contour(1j * f_op.omega * mode, 0.3, 17)
    rules = np.stack([w, np.where(np.arange(17) % 2, 0.0, 2.0 * w)])
    right, left = _resolvent_apply(f_op, nodes, rules, rhs, lhs)
    for dense, x, y in zip(resolvent_sum_dense(f_op, nodes, rules), right, left):
        for got, want in ((x, dense @ rhs), (y, lhs @ dense)):
            if np.any(want):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            else:
                assert not np.any(got)


def test_two_sided_thin_call_holds_one_inverse_stack(three_level):
    # the pivot inverses of a chunk serve both sides: with thin rows on the
    # centre block, like Q0, the left side adds only its forward vectors
    # (a stack of back-substitution factors per side peaks at about twice
    # the one-sided call)
    import tracemalloc

    f_op = build_howland(three_level.bundle, 8)
    s, n = f_op.block_size, f_op.matrix.shape[0]
    rng = np.random.default_rng(64)
    rhs = np.zeros((n, 3), dtype=complex)
    rhs[8 * s:9 * s] = rng.standard_normal((s, 3)) + 1j * rng.standard_normal((s, 3))
    nodes, weights = _contour(0.0, 0.3, 16)
    peaks = []
    for sides in ((rhs,), (rhs, rhs.conj().T)):
        tracemalloc.start()
        try:
            _resolvent_apply(f_op, nodes, weights, *sides)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


@pytest.mark.parametrize("side", ["rhs", "lhs"])
def test_one_sided_identity_sum_holds_one_forward_stack(three_level, side):
    # the identity is the widest input (riesz_projection): one 16-node chunk
    # of forward vectors is the working set, and a one-sided call (the
    # heisenberg tests use the left side alone) must not hold a second one
    import tracemalloc

    f_op = build_howland(three_level.bundle, 8)
    eye = np.eye(f_op.matrix.shape[0], dtype=complex)
    nodes, weights = _contour(0.0, 0.3, 16)
    tracemalloc.start()
    try:
        _resolvent_apply(f_op, nodes, weights, **{side: eye})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * eye.nbytes


def test_node_chunks_reuse_one_set_of_stacks(three_level):
    # thin sides on both ends, as in the Kato probe: the pivot inverses of
    # one chunk are the working set, so 64 nodes (four chunks) peak no
    # higher than 16 nodes (one chunk)
    import tracemalloc

    f_op = build_howland(three_level.bundle, 8)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal((f_op.matrix.shape[0], 3)) + 0j
    peaks = []
    for m_points in (16, 64):
        nodes, weights = _contour(0.0, 0.3, m_points)
        tracemalloc.start()
        try:
            _resolvent_apply(f_op, nodes, weights, rhs, rhs.T)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


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


def test_riesz_needs_a_howland_operator(three_level):
    f_op = build_howland(three_level.bundle, 4)
    with pytest.raises(DimensionMismatchError):
        riesz_projection(f_op.matrix, 0.0)
    # the independent eigensolver route keeps taking plain arrays
    assert eigenprojection_direct(f_op.matrix, 0.0, 1e-3).shape == f_op.matrix.shape


# --------------------------------------------------------------------------
# Kato block: first-order model and measured residual order
# --------------------------------------------------------------------------

def test_kato_block_residual_scaling(three_level):
    res = {}
    for lam in (0.1, 0.05):
        res[lam] = _kato(three_level.make_bundle(lam, three_level.eta * (lam / 0.1) ** 2),
                         8).residual
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
    independent = [_kato(three_level.make_bundle(0.1 * s, 0.01 * s**2), n).residual
                   for s in (1.0, 0.5)]
    assert check["residual_at_lambda"] == independent[0]
    assert check["residual_at_half_lambda"] == independent[1]
    assert check["ratio"] == independent[1] / independent[0]


def test_kato_order_check_reuses_the_callers_objects(three_level):
    bundle, n = three_level.bundle, 8
    given = kato_order_check(bundle, n, lattice=floquet_lattice(bundle, n))
    assert given == kato_order_check(bundle, n)


def test_kato_order_check_ratio_is_none_at_roundoff(two_level):
    # eta = 0: the Davies L_R commutes with L_at, so P = P0 and the
    # first-order model is exact; both residuals are rounding noise
    check = kato_order_check(two_level.bundle, 8)
    assert check["residual_at_lambda"] <= 1e-13
    assert check["ratio"] is None


@pytest.mark.parametrize("scale", [1.0, 0.5], ids=["lambda-center-0", "half-lambda-center-0"])
def test_thin_kato_block_equals_dense_route(three_level, scale):
    bundle = three_level.make_bundle(0.1 * scale, 0.01 * scale**2)
    f_op = build_howland(bundle, 8)
    kb = _kato(bundle, 8)
    assert kb.x.shape == (f_op.matrix.shape[0], 5)
    _assert_thin_equals_dense(kb, f_op, three_level.l_at.matrix)


def _assert_thin_equals_dense(kb, f_op, b0):
    # the dense route: both projections materialized by the structured sum
    f0 = _free(f_op, b0)
    m, m0 = f_op.matrix, f0.matrix
    p = riesz_projection(f_op, 0.0, radius=kb.radius).matrix
    p0 = riesz_projection(f0, 0.0, radius=kb.radius).matrix

    def close(thin, dense, rel):
        return np.linalg.norm(thin - dense, 2) <= rel * np.linalg.norm(dense, 2)

    assert close(kb.x @ kb.k_inv @ kb.y, p, 1e-12)
    assert close(kb.x @ kb.block @ kb.y, p @ m @ p, 1e-12)
    assert close(kb.q0 @ kb.first_order @ kb.q0.conj().T, p0 @ (m - m0) @ p0, 1e-12)
    residual = np.linalg.norm(p @ m @ p - p0 @ (m - m0) @ p0, 2)
    separation = np.linalg.norm((p - p0) @ (p - p0), 2)
    assert abs(kb.residual - residual) <= 1e-10 * residual
    assert abs(kb.separation - separation) <= 1e-10 * separation
    assert kb.idempotency_defect <= 1e-12 and kb.quadrature_gap <= 1e-12


def _record_inverses(monkeypatch):
    shapes = []
    original = np.linalg.inv

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", recording)
    return shapes


def _change_of_basis(u, *blocks):
    # L -> W L W^H with W = conj(U) (x) U, as vec(U A U*) = W vec(A): the
    # same model in another atomic basis, Hermiticity preserved only to
    # roundoff.  A diagonal U commutes with the level-diagonal atom (the
    # gauge of a conjugated config); a full one makes the blocks dense in
    # the Hermitian basis too
    w = np.kron(u.conj(), u)
    return [w @ b @ w.conj().T for b in blocks]


def _rotated_bundle(bundle, u):
    # the bundle's L_at, L_p and L_R under the change of basis U
    l_at, l_p, l_r = (Superoperator(a) for a in _change_of_basis(
        u, bundle.l_at.matrix, bundle.l_p.matrix, bundle.l_r.matrix))
    return replace(bundle, l_at=l_at, l_p=l_p, l_r=l_r)


def _in_test_basis(bundle, basis):
    # the bundle as given ("seed-0"), under a random diagonal gauge, or in a
    # random rotated atomic basis
    if basis == "seed-0":
        return bundle
    rng = np.random.default_rng(5)
    d = bundle.l_at.dim
    if basis == "gauge":
        u = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d)))
    else:
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return _rotated_bundle(bundle, u)


@pytest.mark.parametrize("basis", ["seed-0", "gauge", "rotated"])
@pytest.mark.parametrize("m_points", [16, 64])
@pytest.mark.parametrize("case", ["two_level", "three_level"])
def test_mirrored_kato_probe_equals_the_full_node_sums(request, case, m_points, basis,
                                                        monkeypatch):
    # around 0 the lower-half nodes come from the upper half by the
    # symmetry conj(F) = J F J of the real Hermitian-basis blocks; the
    # result must be that of all M nodes on the vec-basis F
    bundle = _in_test_basis(request.getfixturevalue(case).bundle, basis)
    f_op = build_howland(bundle, 8)
    inverses = _record_inverses(monkeypatch)
    kb = _kato(bundle, 8, m_points=m_points)
    # one batched pivot inverse per kept mode and node, on the M/2 upper
    # nodes only: all 17 modes on three_level at n_modes = 8, and on
    # two_level (eta = 0, so H = 0) the 3 modes of Q0 and one on each side,
    # in every basis (see _KEPT_AT_32)
    kept = 5 if case == "two_level" else 17
    assert sum(shape[0] for shape in inverses if len(shape) == 3) == kept * m_points // 2

    q0 = kb.q0
    nodes, w = _contour(0.0, kb.radius, m_points)
    w = w / m_points
    rules = np.stack([w, np.where(np.arange(m_points) % 2, 0.0, 2.0 * w), w * nodes])
    (x, x_half, fx), (y, y_half, _) = _resolvent_apply(f_op, nodes, rules, q0, q0.conj().T)
    k_inv = np.linalg.inv(q0.conj().T @ x)
    gap = max(np.linalg.norm(full - half) / np.linalg.norm(full)
              for full, half in ((x, x_half), (y, y_half)))

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    assert close(kb.x, x) and close(kb.y, y)
    assert close(kb.block, k_inv @ (y @ fx) @ k_inv)
    assert abs(kb.quadrature_gap - gap) <= 1e-13


def test_kato_block_refuses_an_f_without_the_symmetry(three_level, monkeypatch):
    # a complex perturbation of L_R, L_p or L_at (so of B, H or B0) leaves an
    # imaginary part in the Hermitian basis, whose real blocks the mirrored
    # probe solves: refused before any pivot is factored
    bundle = three_level.bundle
    rng = np.random.default_rng(3)
    s = bundle.l_at.matrix.shape[0]
    kick = 1e-4 * (rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)))
    inverses = _record_inverses(monkeypatch)
    for kicked in (replace(bundle, l_r=Superoperator(bundle.l_r.matrix + kick)),
                   replace(bundle, l_p=Superoperator(bundle.l_p.matrix + kick)),
                   replace(bundle, l_at=Superoperator(bundle.l_at.matrix + kick
                                                      - kick.conj().T))):
        with pytest.raises(GeneratorStructureError, match="Hermitian matrices to Hermitian"):
            kato_block(kicked, 8, eigenvalues=np.zeros(0))
    assert inverses == []


def test_kato_probe_needs_an_even_converged_rule(three_level):
    bundle = three_level.bundle
    f_op = build_howland(bundle, 8)
    fine = _kato(bundle, 8)
    # M = 16: the dense projection misses its 1e-6 idempotency limit, while
    # the probe passes and states its error estimate, the M vs M/2 gap
    with pytest.raises(IdempotencyFailureError):
        riesz_projection(f_op, 0.0, radius=fine.radius, m_points=16)
    coarse = _kato(bundle, 8, m_points=16)
    assert 1e-10 <= coarse.quadrature_gap <= 1e-6
    assert abs(coarse.residual - fine.residual) <= 1e-10 * fine.residual
    with pytest.raises(IdempotencyFailureError):
        _kato(bundle, 8, m_points=8)
    for m_points in (63, 1, 0):
        with pytest.raises(DimensionMismatchError):
            _kato(bundle, 8, m_points=m_points)
    with pytest.raises(DimensionMismatchError):
        kato_order_check(three_level.bundle, 8, m_points=63)


def test_kato_needs_a_skew_hermitian_b0_and_equal_ranks(three_level):
    bundle = three_level.bundle
    for damped in (bundle.static_matrix, three_level.make_bundle(0.1, 0.0).static_matrix):
        with pytest.raises(GeneratorStructureError):   # lambda^2 L_R: not skew-Hermitian
            _kato(replace(bundle, l_at=Superoperator(damped)), 4)
    # a spectrum of F with one eigenvalue fewer inside the contour than rank P0
    w = np.linalg.eigvals(build_howland(bundle, 4).matrix)
    w = np.delete(w, np.argmin(np.abs(w)))
    with pytest.raises(ProjectionPairTooFarError):
        kato_block(bundle, 4, eigenvalues=w)


def test_kato_block_refuses_an_empty_p0(monkeypatch):
    # a skew B0 that preserves Hermiticity but has no eigenvalue 0 (in the
    # Hermitian basis the real block [[0, .3], [-.3, 0]] + [[0, .7], [-.7, 0]]):
    # P0 is empty, which no real L_at gives, as L_at annihilates the identity;
    # refused before the sector step
    real = np.zeros((4, 4))
    real[0, 1], real[2, 3] = 0.3, 0.7
    basis = _hermitian_basis(2)
    zero = Superoperator(np.zeros((4, 4)))
    bundle = GeneratorBundle(l_at=Superoperator(basis @ (real - real.T) @ basis.conj().T),
                             l_p=zero, l_r=zero, lam=0.1, eta=0.0, omega=1.0)
    w = np.linalg.eigvals(build_howland(bundle, 8).matrix)
    assert np.abs(w).min() > 0.29
    monkeypatch.setattr(floquet, "_sector_rows", None)
    with pytest.raises(GeneratorStructureError, match="no eigenvalue at 0"):
        kato_block(bundle, 8, eigenvalues=w)


def test_kato_block_has_no_dense_fallback(three_level):
    # F's spectrum is an input: leaving it out is a TypeError, not an eigensolve of F
    with pytest.raises(TypeError):
        kato_block(three_level.bundle, 4)


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


def test_kato_order_check_factors_each_pivot_once(three_level, monkeypatch):
    calls = {"solve": [], "inv": []}
    for name, shapes in calls.items():
        original = getattr(np.linalg, name)

        def recording(a, *args, _shapes=shapes, _original=original, **kwargs):
            _shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    # two 16-node chunks (the M/2 upper nodes; the lower half is their
    # mirror) x the modes each rung keeps: all 17 at n_modes = 8; at 32 the
    # 19 and 17 that the resolvent reaches at lambda and lambda/2.  X and Y
    # share every pivot inverse, each 5 x 5 on the sector rows (populations
    # and the pumped coherences); the only other inverses are the two
    # rank-5 K, and no 9 x 9 pivot is formed
    for n_modes, kept in ((8, (17, 17)), (32, (19, 17))):
        for shapes in calls.values():
            shapes.clear()
        kato_order_check(three_level.bundle, n_modes, m_points=64)
        assert calls["inv"].count((16, 5, 5)) == 2 * sum(kept)
        assert sorted(set(calls["inv"])) == [(5, 5), (16, 5, 5)]
        assert calls["inv"].count((5, 5)) == 2
        assert calls["solve"] == []


def test_kato_probe_cost_does_not_grow_with_n_modes(three_level, monkeypatch):
    # the probe solves the modes its resolvent reaches, not F's n_modes
    inverses, pivots = _record_inverses(monkeypatch), []
    for n_modes in (32, 64):
        inverses.clear()
        kato_order_check(three_level.bundle, n_modes)
        pivots.append(sum(shape[0] for shape in inverses if len(shape) == 3))
    assert pivots[0] == pivots[1] == 32 * (19 + 17)


# every matrix a KatoBlock holds
_THIN_FIELDS = ("x", "y", "q0", "k_inv", "block", "first_order")

# modes kept at n_modes = 32 (of 65): Q0 sits on |k| <= 1, and the cut adds
# modes until prod rho_j <= 2^-60.  two_level has H = 0 (eta = 0), so one
# mode on each side.  ||B|| is bounded by max |eig(B0)| plus the bound
# sqrt(||B - B0||_1 ||B - B0||_inf), which a change of atomic basis barely
# moves: the rotated blocks keep as many modes as the sparse ones
_KEPT_AT_32 = {"two_level": {"seed-0": 5, "gauge": 5, "rotated": 5},
               "three_level": {"seed-0": 19, "gauge": 19, "rotated": 19},
               "degenerate": {"seed-0": 19, "gauge": 19, "rotated": 19}}


@pytest.mark.parametrize("basis", ["seed-0", "gauge", "rotated"])
@pytest.mark.parametrize("case", ["two_level", "three_level", "degenerate"])
def test_mode_cut_kato_probe_equals_the_uncut_probe(request, case, basis, monkeypatch):
    # n_modes = 32, where the cut acts: the cut probe against the all-mode
    # block-Thomas sums on the vec-basis F and against the probe with every
    # mode kept.  The uncut X and Y must be below 2^-53 ||X|| on each dropped
    # mode, so the 2^-60 bound is shown to be conservative
    inst = request.getfixturevalue(case)
    n = 32
    bundle = _in_test_basis(inst.bundle, basis)
    f_op = build_howland(bundle, n)
    # the spectrum is gauge and basis invariant: one lattice serves all three
    w_f = _lattice_copies(*floquet_lattice(inst.bundle, n), inst.bundle.omega, n).ravel()
    inverses = _record_inverses(monkeypatch)
    kb = kato_block(bundle, n, eigenvalues=w_f)
    # one batched inverse per kept mode and upper node
    kept = _KEPT_AT_32[case][basis]
    assert sum(shape[0] for shape in inverses if len(shape) == 3) == kept * 32

    q0, m_points = kb.q0, 64
    nodes, w = _contour(0.0, kb.radius, m_points)
    w = w / m_points
    rules = np.stack([w, np.where(np.arange(m_points) % 2, 0.0, 2.0 * w), w * nodes])
    (x, x_half, fx), (y, y_half, _) = _resolvent_apply(f_op, nodes, rules, q0, q0.conj().T)
    k_inv = np.linalg.inv(q0.conj().T @ x)
    gap = max(np.linalg.norm(full - half) / np.linalg.norm(full)
              for full, half in ((x, x_half), (y, y_half)))

    def close(got, want, rel):
        return np.linalg.norm(got - want) <= rel * np.linalg.norm(want)

    assert close(kb.x, x, 1e-14) and close(kb.y, y, 1e-14)
    assert abs(kb.quadrature_gap - gap) <= 1e-14
    # the core differs from the vec-basis route by ~1e-14 at n_modes = 8 too,
    # where nothing is cut (Hermitian basis, mirrored nodes): the bound of
    # the mirrored-probe test
    assert close(kb.block, k_inv @ (y @ fx) @ k_inv, 1e-13)

    s = f_op.block_size
    dropped = np.abs(np.arange(-n, n + 1)) > kept // 2
    norm_x = np.linalg.norm(x)
    assert not kb.x.reshape(2 * n + 1, s, -1)[dropped].any()
    assert not kb.y.reshape(-1, 2 * n + 1, s)[:, dropped].any()
    assert np.abs(x.reshape(2 * n + 1, s, -1)[dropped]).max(initial=0.0) <= 2.0**-53 * norm_x
    assert np.abs(y.reshape(-1, 2 * n + 1, s)[:, dropped]).max(initial=0.0) <= 2.0**-53 * norm_x

    monkeypatch.setattr(floquet, "_reach", lambda f_sec, *_: f_sec.n_modes)
    ref = kato_block(bundle, n, eigenvalues=w_f)
    for field in _THIN_FIELDS:
        assert close(getattr(kb, field), getattr(ref, field), 1e-14)
    assert abs(kb.residual - ref.residual) <= 1e-14 * ref.residual
    # ||(P - P0)^2|| is a square: where P = P0 exactly (two_level: eta = 0 and
    # L_R commutes with L_at) it reads ~eps^2 of noise, 3e-31 in the rotated
    # basis, so it is compared to 1e-14 relative plus eps^2
    assert (abs(kb.separation - ref.separation)
            <= 1e-14 * ref.separation + np.finfo(float).eps ** 2)
    assert abs(kb.quadrature_gap - ref.quadrature_gap) <= 1e-14


def _pattern_closure(f_op, b0, q0):
    # the rows Q0 touches, grown along the exact nonzeros of B, H, B0 (either
    # direction) until nothing new is reached: no tolerance
    s = f_op.block_size
    link = (f_op.base != 0) | (f_op.coupling != 0) | (b0 != 0)
    link |= link.T
    rows = set(np.flatnonzero(q0.reshape(-1, s, q0.shape[1]).any(axis=(0, 2))))
    while True:
        grown = rows | {j for i in rows for j in np.flatnonzero(link[i])}
        if grown == rows:
            return np.array(sorted(rows))
        rows = grown


@pytest.mark.parametrize("case,sector", [
    ("two_level", 4), ("three_level", 5), ("degenerate", 8), ("rotated", 9)],
    ids=["two_level-0.0-4", "three_level-0.0-5", "degenerate-0.0-8", "rotated-0.0-9"])
def test_sector_probe_equals_the_full_block_probe(request, case, sector, monkeypatch):
    # the probe runs on the rows B, H and B0 reach from Range(P0); with every
    # row it is the full-block probe, and both must give the same block to
    # roundoff.  Every row is the sector on two_level (omega is its one Bohr
    # frequency) and in a rotated basis (as atom.matrix gives: dense blocks).
    # The rows are those of the Hermitian basis, where the probe runs
    bundle = request.getfixturevalue("three_level" if case == "rotated" else case).bundle
    if case == "rotated":
        rng = np.random.default_rng(11)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        bundle = _rotated_bundle(bundle, u)
    f_op = build_howland(bundle, 8)
    s = f_op.block_size
    real_op, real_b0, q0, *_ = floquet._free_basis(bundle, 8)
    rows = floquet._sector_rows(real_op, real_b0, q0)
    assert rows.size == sector
    assert np.array_equal(rows, _pattern_closure(real_op, real_b0, q0))

    kb = _kato(bundle, 8)
    monkeypatch.setattr(floquet, "_sector_rows", lambda *_: np.arange(s))
    ref = _kato(bundle, 8)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    for field in ("residual", "separation"):
        assert abs(getattr(kb, field) - getattr(ref, field)) <= 1e-13 * getattr(ref, field)
    for field in ("idempotency_defect", "quadrature_gap"):
        assert abs(getattr(kb, field) - getattr(ref, field)) <= 1e-13
    for field in _THIN_FIELDS:
        assert close(getattr(kb, field), getattr(ref, field))
    # X and Y are exactly zero, on every mode, off the vec rows that the
    # sector's Hermitian basis columns touch
    off = np.flatnonzero(~_hermitian_basis(f_op.dim)[:, rows].any(axis=1))
    assert off.size == s - sector
    assert not kb.x.reshape(-1, s, kb.x.shape[1])[:, off].any()
    assert not kb.y.reshape(kb.y.shape[0], -1, s)[..., off].any()


def test_contour_radius_must_be_finite_and_positive(three_level):
    # a negative, zero or NaN radius encloses nothing and used to pass with
    # an empty block; an infinite one encloses everything
    f_op = build_howland(three_level.bundle, 4)
    for radius in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ContourHitsSpectrumError):
            riesz_projection(f_op, 0.0, radius=radius)


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

