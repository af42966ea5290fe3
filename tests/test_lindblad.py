"""Jump operators, the one-pass generator (Lamb shift and dissipator), oracle
route, assumptions.

Key structural facts under test:

* V_{j,k} = P_j Q P_k picks out one Bohr transition; rates are
  c_{j,k} = pi f^(beta)(E_k - E_j), so upward/downward rates obey the
  Boltzmann ratio e^{-beta (E_k - E_j)}.
* H_Lamb is Hermitian, commutes with H_at, and is assembled from PV
  integrals; the dissipator is GKS-form, so exp(t L_R) is completely
  positive (PSD Choi matrix) and trace preserving (unital adjoint).
* The Gibbs state is stationary (detailed balance).
* An independent regularized-resolvent route converges to the same
  generator at first order in the regularization parameter.
* The two-level generator has the closed-form spectrum
  {0, -s, -s/2 +/- i(l_1 - l_2)} with s = c_up + c_down and l_i the
  Lamb-shift level corrections.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from pumped_lindblad import lindblad, reservoir
from pumped_lindblad import (
    FormFactor,
    GeneratorBundle,
    GeneratorStructureError,
    InvalidFormFactorError,
    LindbladData,
    NonHermitianError,
    NonOrthogonalFamilyError,
    PumpedLindbladError,
    ReservoirSpec,
    Superoperator,
    algebra_dimension,
    build_howland,
    check_assumptions,
    commutant_dimension,
    decompose_atom,
    evolve,
    floquet_lattice,
    floquet_spectrum,
    kato_order_check,
    populations,
    rate_coefficient,
    reservoir_lindbladian,
    resolvent_oracle,
    stationary_state,
    strip_analyticity_ladder,
    validate_pump,
)
from reference import choi_matrix

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Frozen after the first verified computation (two-rule PV agreement and
# closed-form cross-checks); these guard against silent convention drift.
C_DOWN_2LVL = 3.905916462669718     # pi f^(beta)(+1) at beta = 1
C_UP_2LVL = 1.4369063655492724      # pi f^(beta)(-1)
LAMB_DIAG_2LVL = (-0.37470368487677874, -0.13864735663418531)
LAMB_DIAG_3LVL = (-0.2053852233984111, -1.448594998124757, 0.7754039824985739)
RATES_3LVL = {
    (2, 3, 1): 4.213123126065586,
    (3, 2, 1): 0.38220590695296125,
    (1, 2, 2): 0.01583572249045921,
    (2, 1, 2): 0.0026176273218584804,
}


# --------------------------------------------------------------------------
# jump operators and rates
# --------------------------------------------------------------------------

def test_two_level_jump_structure_and_rates(two_level):
    data = two_level.data
    labels = {lbl: c for (_v, c, lbl) in data.jumps}
    assert set(labels) == {(1, 2, 1), (2, 1, 1)}
    assert abs(labels[(1, 2, 1)] - C_DOWN_2LVL) <= 1e-12
    assert abs(labels[(2, 1, 1)] - C_UP_2LVL) <= 1e-12
    # detailed-balance ratio of upward to downward rate
    assert abs(labels[(2, 1, 1)] / labels[(1, 2, 1)] - np.exp(-1.0)) <= 1e-12
    # jump operators are the scaled level-transition matrices
    for v, _c, (j, k, _l) in data.jumps:
        direct = two_level.atom.projections[j - 1] @ SIGMA_X \
            @ two_level.atom.projections[k - 1]
        assert np.linalg.norm(v - direct) <= 1e-14


def test_three_level_rates_and_channel_structure(three_level):
    data = three_level.data
    labels = {lbl: c for (_v, c, lbl) in data.jumps}
    assert set(labels) == set(RATES_3LVL)
    for lbl, frozen in RATES_3LVL.items():
        assert abs(labels[lbl] - frozen) <= 1e-12 * max(1.0, frozen)
    # Boltzmann ratios per channel
    beta = three_level.beta
    assert abs(labels[(3, 2, 1)] / labels[(2, 3, 1)] - np.exp(-beta * 1.2)) <= 1e-12
    assert abs(labels[(2, 1, 2)] / labels[(1, 2, 2)] - np.exp(-beta * 0.9)) <= 1e-12


def test_rate_coefficient_is_pi_times_density():
    ff = FormFactor(((1.0, 1, 1.0),))
    assert abs(rate_coefficient(ff, 1.0, 1.0) - C_DOWN_2LVL) <= 1e-12
    assert abs(rate_coefficient(ff, 1.0, -1.0) - C_UP_2LVL) <= 1e-12


# --------------------------------------------------------------------------
# Lamb shift
# --------------------------------------------------------------------------

def test_lamb_shift_hermitian_commuting_frozen(two_level, three_level):
    for inst, frozen in ((two_level, LAMB_DIAG_2LVL), (three_level, LAMB_DIAG_3LVL)):
        lamb = inst.data.lamb
        h_at = inst.atom.h_at
        assert np.linalg.norm(lamb - lamb.conj().T) <= 1e-13
        comm = np.linalg.norm(lamb @ h_at - h_at @ lamb, "fro")
        assert comm <= 1e-10 * max(1.0, np.linalg.norm(lamb, "fro"))
        assert np.allclose(np.real(np.diag(lamb)), frozen, atol=1e-9)
        assert np.linalg.norm(np.imag(np.diag(lamb))) <= 1e-13


# --------------------------------------------------------------------------
# generator: GKS form, CP semigroup, detailed balance, spectrum
# --------------------------------------------------------------------------

def test_generator_adjoint_annihilates_identity(two_level, three_level):
    for inst in (two_level, three_level):
        d = inst.atom.dim
        resid = inst.data.l_r.adjoint()(np.eye(d))
        assert np.linalg.norm(resid) <= 1e-12


def test_semigroup_is_completely_positive(three_level):
    # Choi matrix of exp(t L_R) must be PSD: complete positivity of the
    # dissipative semigroup, checked at a non-perturbative time.
    for t in (0.05, 0.3, 1.0):
        prop = Superoperator(expm(t * three_level.data.l_r.matrix))
        w = np.linalg.eigvalsh(0.5 * (choi_matrix(prop) + choi_matrix(prop).conj().T))
        assert w.min() >= -1e-12


def test_choi_of_identity_channel_is_maximally_entangled():
    ident = Superoperator(np.eye(9))
    c = choi_matrix(ident)
    w = np.linalg.eigvalsh(c)
    assert abs(w[-1] - 3.0) <= 1e-12        # one eigenvalue d
    assert np.linalg.norm(w[:-1]) <= 1e-12  # rest zero
    assert abs(np.trace(c) - 3.0) <= 1e-12


def test_detailed_balance_two_level(two_level):
    rho = stationary_state(two_level.data.l_d)
    assert np.linalg.norm(rho - two_level.rho_g, "fro") <= 1e-10


def test_detailed_balance_three_level(three_level):
    resid = three_level.data.l_r(three_level.rho_g)
    assert np.linalg.norm(resid, "fro") <= 1e-8


def test_two_level_generator_closed_form_spectrum(two_level):
    lamb = np.real(np.diag(two_level.data.lamb))
    s = C_DOWN_2LVL + C_UP_2LVL
    delta = lamb[0] - lamb[1]
    expected = np.sort_complex(np.array(
        [0.0, -s, -0.5 * s + 1j * delta, -0.5 * s - 1j * delta]))
    got = np.sort_complex(np.linalg.eigvals(two_level.data.l_r.matrix))
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_generator_computes_each_pair_once(three_level, monkeypatch):
    # three_level: 4 jump pairs over 2 channels, one stacked PV call per
    # channel; one pass over the pairs serves H_Lamb, L_d and jumps
    calls = {name: [] for name in ("rate_coefficient", "jump_operators", "pv_coefficients")}
    for name in calls:
        def counted(*args, _fn=getattr(lindblad, name), _name=name):
            calls[_name].append(args)
            return _fn(*args)
        monkeypatch.setattr(lindblad, name, counted)
    data = reservoir_lindbladian(three_level.atom, three_level.res)
    assert {name: len(log) for name, log in calls.items()} == {
        "rate_coefficient": 4, "jump_operators": 2, "pv_coefficients": 2}
    assert np.array_equal(data.l_r.matrix, three_level.data.l_r.matrix)
    # V_{j,k} is keyed by E_k - E_j, the Bohr frequency of (k, j)
    assert set(data.pv) == {(1, 1.2000000000000002), (1, -1.2000000000000002),
                            (2, 0.9), (2, -0.9)}

    # E_3 - E_2 = 1.2000000000000002 and E_5 - E_4 = 1.1999999999999997 agree
    # only to roundoff: one t_eps, so one key, one PV value and one rate
    calls["pv_coefficients"].clear()
    atom = decompose_atom(np.diag([0.0, 0.9, 2.1, 3.4, 4.6]).astype(complex))
    q = np.zeros((5, 5), dtype=complex)
    q[1, 2] = q[2, 1] = q[3, 4] = q[4, 3] = 1.0
    data = reservoir_lindbladian(atom, ReservoirSpec(
        beta=2.0, lam=0.1, form_factors=(FormFactor(((1.0, 1, 1.0),)),), couplings=(q,)))
    assert [args[2] for args in calls["pv_coefficients"]] == [[1.2, -1.2]]
    assert set(data.pv) == {(1, 1.2), (1, -1.2)}
    lamb = np.diag(data.lamb)
    assert lamb[2] == lamb[4] == -0.5 * data.pv[1, 1.2]    # V*V of V_{2,3}, V_{4,5}
    assert lamb[1] == lamb[3] == -0.5 * data.pv[1, -1.2]   # V*V of V_{3,2}, V_{5,4}
    rates = {label[:2]: c for _v, c, label in data.jumps}
    assert rates[2, 3] == rates[4, 5] and rates[3, 2] == rates[5, 4]


# --------------------------------------------------------------------------
# independent oracle: regularized resolvents
# --------------------------------------------------------------------------

def test_resolvent_oracle_first_order_convergence(two_level):
    target = two_level.data.l_r.matrix
    errs = [np.linalg.norm(approx.matrix - target, 2)
            for approx in resolvent_oracle(two_level.atom, two_level.res, (1e-2, 5e-3))]
    order = np.log2(errs[0] / errs[1])
    assert 0.75 <= order <= 1.25


def _quadpack_resolvent(ff, beta, eps_p, eps_reg):
    """The QUADPACK route the numpy oracle replaced, kept as its oracle."""
    from scipy import integrate

    from pumped_lindblad.reservoir import _effective_beta, _gauss_cutoff, spectral_density

    beta = _effective_beta(beta)
    x_max = _gauss_cutoff(ff.min_decay) + beta / (2.0 * ff.min_decay) + abs(eps_p)

    def f(p):
        return spectral_density(ff, beta, p)

    re_val, _ = integrate.quad(lambda p: f(p) * eps_reg / (eps_reg**2 + (eps_p + p) ** 2),
                               -x_max, x_max, points=[-eps_p], limit=800,
                               epsabs=1e-12, epsrel=1e-11)
    im_val, _ = integrate.quad(lambda t: (f(t - eps_p) - f(-t - eps_p)) * t / (eps_reg**2 + t**2),
                               0.0, x_max, points=[eps_reg, 10 * eps_reg], limit=800,
                               epsabs=1e-12, epsrel=1e-11)
    return re_val - 1j * im_val


# the CLI's oracle ladder, and one regularization above the cutoff (the
# graded edges must stay ascending there)
@pytest.mark.parametrize("eps_reg", [1e-2, 5e-3, 2.5e-3, 50.0])
@pytest.mark.parametrize("case", ["two_level", "three_level"])
def test_numpy_resolvent_matches_quadpack(request, case, eps_reg):
    inst = request.getfixturevalue(case)
    energies = inst.atom.energies
    bohr = sorted({ej - ek for ej in energies for ek in energies})
    for ff in inst.res.form_factors:
        stack = reservoir._scalar_resolvent(ff, inst.beta, bohr, [eps_reg] * len(bohr))
        for eps_p, got in zip(bohr, stack):
            want = _quadpack_resolvent(ff, inst.beta, eps_p, eps_reg)
            assert abs(got - want) <= 1e-11 * abs(want), (eps_p, got, want)


def test_oracle_makes_one_adaptive_integral_per_resolvent(three_level, monkeypatch):
    # three_level: 4 distinct (channel, Bohr frequency) keys, 2 per channel;
    # each w is one complex integral, and each channel stacks all of its
    # integrals over the whole ladder into one adaptive call
    stacks = []

    def counted(h, edges, *args, _fn=reservoir._adaptive_gauss_legendre):
        stacks.append(len(edges))
        return _fn(h, edges, *args)

    monkeypatch.setattr(reservoir, "_adaptive_gauss_legendre", counted)
    resolvent_oracle(three_level.atom, three_level.res, (1e-2, 5e-3, 2.5e-3))
    assert stacks == [6, 6]


def test_resolvent_refinement_cap_raises(monkeypatch, two_level):
    from pumped_lindblad import QuadratureNonConvergenceError

    monkeypatch.setattr(reservoir, "_GL_MAX_LEVELS", 1)
    with pytest.raises(QuadratureNonConvergenceError, match="refinement cap"):
        resolvent_oracle(two_level.atom, two_level.res, [2.5e-3])


def _oracle_errors(atom, res, l_r):
    return np.array([np.linalg.norm(op.matrix - l_r.matrix, 2)
                     for op in resolvent_oracle(atom, res, (1e-2, 5e-3, 2.5e-3))])


def _verdicts(report):
    return [(r["name"], r["verdict"]) for r in report.records]


def _spectrum_side(inst, bundle):
    """The sorted Floquet eigenvalues and gap (n_modes = 8), the level
    populations of a 31-point evolve to t = 300 from the ground projection,
    and both Kato residuals, of the degenerate instance with this bundle."""
    lattice = floquet_lattice(bundle, 8)
    spec = floquet_spectrum(build_howland(bundle, 8), lattice)
    traj = evolve(bundle, inst.atom.projections[0], 300.0,
                  output_grid=np.linspace(0.0, 300.0, 31))
    kato = kato_order_check(bundle, 8, lattice=lattice)
    return (np.sort(spec.eigenvalues), spec.gap, populations(inst.atom, traj),
            np.array([kato["residual_at_lambda"], kato["residual_at_half_lambda"]]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gauge_covariance_on_a_degenerate_level(degenerate, seed):
    # U = diag(1, u2, 1) diag(e^{i theta}) commutes with H_at (u2 is a random
    # unitary on the degenerate pair), so conjugating every Q_l and h_p by U
    # is a symmetry of the model: it moves neither the oracle's distance to
    # L_R nor any assumption verdict, nor the Floquet spectrum, the gap, the
    # level populations of a run or the Kato residuals
    rng = np.random.default_rng(seed)
    u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u = np.eye(4, dtype=complex)
    u[1:3, 1:3] = u2
    u = u @ np.diag(np.exp(2j * np.pi * rng.random(4)))
    inst = degenerate
    res = ReservoirSpec(beta=inst.beta, lam=inst.lam, form_factors=inst.res.form_factors,
                        couplings=tuple(u @ q @ u.conj().T for q in inst.res.couplings))
    data = reservoir_lindbladian(inst.atom, res)
    l_p = validate_pump(inst.atom, u @ inst.h_p @ u.conj().T)
    bundle = GeneratorBundle(l_at=inst.l_at, l_p=l_p, l_r=data.l_r,
                             lam=inst.lam, eta=inst.eta, omega=inst.atom.pump_freq)

    base = _oracle_errors(inst.atom, inst.res, inst.data.l_r)
    moved = _oracle_errors(inst.atom, res, data.l_r)
    assert np.max(np.abs(moved - base) / base) <= 1e-12

    base_report = check_assumptions(inst.res, inst.bundle, inst.data)
    assert base_report.clean_pass
    assert _verdicts(check_assumptions(res, bundle, data)) == _verdicts(base_report)

    eig, gap, pops, kato = _spectrum_side(inst, inst.bundle)
    eig_u, gap_u, pops_u, kato_u = _spectrum_side(inst, bundle)
    assert np.max(np.abs(eig_u - eig)) <= 1e-12
    assert abs(gap_u - gap) <= 1e-10 * gap
    assert np.max(np.abs(pops_u - pops)) <= 1e-13
    assert np.max(np.abs(kato_u - kato) / kato) <= 1e-12


# --------------------------------------------------------------------------
# coupling-family validation and the raw-GKS route
# --------------------------------------------------------------------------

def test_couplings_must_be_adjoint_closed():
    raising = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(InvalidFormFactorError):
        ReservoirSpec(beta=1.0, lam=0.1,
                      form_factors=(FormFactor(((1.0, 1, 1.0),)),),
                      couplings=(raising,))


def test_orthogonality_is_computed_not_passed():
    # two identical channels are not orthogonal; no constructor argument can
    # claim they are, and the family is refused where it is built
    ff = FormFactor(((1.0, 1, 1.0),))
    with pytest.raises(TypeError):
        ReservoirSpec(beta=1.0, lam=0.1, form_factors=(ff, ff),
                      couplings=(SIGMA_X, SIGMA_Z), orthogonal=True)
    with pytest.raises(NonOrthogonalFamilyError):
        ReservoirSpec(beta=1.0, lam=0.1, form_factors=(ff, ff),
                      couplings=(SIGMA_X, SIGMA_Z))


def test_negative_beta_rejected():
    with pytest.raises(InvalidFormFactorError):
        ReservoirSpec(beta=-1.0, lam=0.1,
                      form_factors=(FormFactor(((1.0, 1, 1.0),)),),
                      couplings=(SIGMA_X,))


def test_generator_defects_raise_typed_errors(two_level, monkeypatch):
    data = two_level.data
    assert issubclass(GeneratorStructureError, PumpedLindbladError)
    with pytest.raises(NonHermitianError):
        LindbladData(jumps=(), lamb=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                     l_d=data.l_d, l_r=data.l_r)
    # L(rho) = -rho is not trace preserving: its adjoint maps 1 to -1
    with pytest.raises(GeneratorStructureError):
        LindbladData(jumps=(), lamb=data.lamb, l_d=data.l_d,
                     l_r=Superoperator(-np.eye(4, dtype=complex)))
    # a jump that is not one level block: its V*V mixes the two levels, so
    # the Lamb shift it builds does not commute with H_at
    mixing = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    monkeypatch.setattr(lindblad, "jump_operators", lambda atom, q: [(mixing, (1, 2))])
    with pytest.raises(GeneratorStructureError, match="block structure broken"):
        reservoir_lindbladian(two_level.atom, two_level.res)


def test_gks_route_builds_pure_dissipator(two_level):
    lowering = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    res = ReservoirSpec(beta=1.0, lam=0.1, form_factors=(), couplings=(),
                        gks_jumps=(lowering,))
    data = reservoir_lindbladian(two_level.atom, res)
    assert data.l_r is data.l_d and data.pv == {}
    assert np.linalg.norm(data.lamb) == 0.0
    # spontaneous decay: |2><2| decays at rate 1, trace preserved
    rho = np.diag([0.0, 1.0]).astype(complex)
    drho = data.l_r(rho)
    assert abs(drho[1, 1] + 1.0) <= 1e-14
    assert abs(np.trace(drho)) <= 1e-14
    # the oracle rebuilds L_R from form factors, which raw GKS jumps lack
    with pytest.raises(InvalidFormFactorError, match="GKS"):
        resolvent_oracle(two_level.atom, res, [1e-2])


# --------------------------------------------------------------------------
# irreducibility: commutant and algebra dimension
# --------------------------------------------------------------------------

def test_commutant_sigma_x_alone_is_reducible():
    dim, basis = commutant_dimension([SIGMA_X])
    assert dim == 2
    assert algebra_dimension([SIGMA_X]) == 2   # span{1, sigma_x}


def test_commutant_sigma_x_sigma_z_is_irreducible():
    dim, _ = commutant_dimension([SIGMA_X, SIGMA_Z])
    assert dim == 1
    assert algebra_dimension([SIGMA_X, SIGMA_Z]) == 4


def test_random_full_algebra_jump_sets(three_level):
    rng = np.random.default_rng(31)
    for trial in range(10):
        d = int(rng.integers(2, 4))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        jumps = [a, a.conj().T, b, b.conj().T]
        dim, _ = commutant_dimension(jumps)
        assert dim == 1
        assert algebra_dimension(jumps) == d * d


def test_bundled_instance_jumps_are_irreducible(three_level):
    jumps = [v for (v, _c, _lbl) in three_level.data.jumps]
    dim, _ = commutant_dimension(jumps)
    assert dim == 1
    assert algebra_dimension(jumps) == 9


# --------------------------------------------------------------------------
# standing assumptions
# --------------------------------------------------------------------------

def test_assumptions_pass_on_bundled_instance(three_level):
    rep = check_assumptions(three_level.res, three_level.bundle, three_level.data)
    names = [r["name"] for r in rep.records]
    assert names == ["reservoir-analyticity", "moderate-pump", "spectral-gap",
                     "jump-irreducibility", "no-first-order-coupling"]
    assert rep.hard_pass and rep.clean_pass
    assert rep["spectral-gap"]["evidence"]["zero_multiplicity"] == 1
    gap = rep["spectral-gap"]["evidence"]["gap"]
    assert abs(gap - 0.0023530464012103394) <= 1e-12
    d = rep.to_dict()
    assert d["all_pass"] and len(d["assumptions"]) == 5


@pytest.mark.parametrize("name", ["two_level", "three_level"])
def test_analyticity_ladder_matches_rung_by_rung_checks(name, request):
    inst = request.getfixturevalue(name)
    report = check_assumptions(inst.res, inst.bundle, inst.data)
    evidence = report["reservoir-analyticity"]["evidence"]
    best_r, best_val = 0.0, 0.0
    for r in evidence["ladder"]:
        reports = [strip_analyticity_ladder((ff,), inst.res.beta, (r,))[0][0]
                   for ff in inst.res.form_factors]
        if not all(rep.verdict == "finite" for rep in reports):
            break
        best_r, best_val = r, max(rep.max_line_value for rep in reports)
    assert evidence["largest_passing_half_width"] == best_r
    assert evidence["max_line_integral"] == best_val
    assert best_r == 0.5


def test_assumptions_flag_reducible_gks_set(two_level):
    res = ReservoirSpec(beta=1.0, lam=0.1, form_factors=(), couplings=(),
                        gks_jumps=(SIGMA_X,))
    data = reservoir_lindbladian(two_level.atom, res)
    bundle = GeneratorBundle(l_at=two_level.l_at, l_p=two_level.pump, l_r=data.l_r,
                             lam=res.lam, eta=0.0, omega=two_level.atom.pump_freq)
    rep = check_assumptions(res, bundle, data)
    assert rep["jump-irreducibility"]["verdict"] == "fail"
    assert not rep.hard_pass
    # raw GKS input: analyticity and parity can only be attested
    assert rep["reservoir-analyticity"]["verdict"] == "attested"
    assert rep["no-first-order-coupling"]["verdict"] == "attested"


def test_assumptions_flag_immoderate_pump(two_level):
    rep = check_assumptions(two_level.res, two_level.make_bundle(eta_=10 * two_level.lam**2),
                            two_level.data)
    assert rep["moderate-pump"]["verdict"] == "fail"
    assert not rep.hard_pass


def test_assumptions_lambda_zero_semantics(two_level):
    rep = check_assumptions(two_level.res, two_level.make_bundle(0.0, 0.0), two_level.data)
    assert rep["spectral-gap"]["verdict"] == "attested"
    assert rep["moderate-pump"]["evidence"]["ratio"] == 0.0
    assert rep.hard_pass
    # eta != 0 with lambda = 0 is never moderate
    rep2 = check_assumptions(two_level.res, two_level.make_bundle(0.0, 0.1), two_level.data)
    assert rep2["moderate-pump"]["verdict"] == "fail"
