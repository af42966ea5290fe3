"""Form factors, glued functions, spectral densities, PV integrals.

The central objects: a form factor f(x) = sum_i w_i |x|^{2 p_i - 1} e^{-C_i x^2}
on the half line, its thermal gluing

    g(x) = |x| (1 + e^{-beta x})^{-1/2} * ( f(x) for x >= 0,
                                            conj(f(-x)) for x < 0 ),

the companion g#(x) = i conj(g(-x)), and the spectral density
f^(beta)(x) = 4 pi |x f(|x|)|^2 / (1 + e^{-beta x}), which obeys the KMS
(detailed-balance) identity f^(beta)(x) = e^{beta x} f^(beta)(-x).
"""

import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit

from pumped_lindblad import (
    DisagreementBetweenRulesError,
    FormFactor,
    InvalidFormFactorError,
    NonOrthogonalFamilyError,
    QuadratureNonConvergenceError,
    ReservoirSpec,
    check_assumptions,
    pv_coefficients,
    rate_coefficient,
    spectral_density,
    strip_analyticity_ladder,
)
from pumped_lindblad import reservoir
from pumped_lindblad.reservoir import (
    _gauss_cutoff,
    _l2_inner,
    _line_cutoff,
    _line_integrand,
)
from reference import (adaptive_gauss_legendre_one, glued_g, glued_g_continued,
                       pv_coefficient, strip_ladder_per_line)


def _random_form_factor(rng, n_terms=2, complex_weights=False):
    terms = []
    for _ in range(n_terms):
        w = rng.uniform(0.3, 1.5)
        if complex_weights:
            w = w + 1j * rng.uniform(-0.5, 0.5)
        terms.append((w, int(rng.integers(1, 4)), rng.uniform(0.5, 2.0)))
    return FormFactor(tuple(terms))


# --------------------------------------------------------------------------
# form-factor family
# --------------------------------------------------------------------------

def test_form_factor_matches_formula():
    rng = np.random.default_rng(21)
    for _ in range(10):
        ff = _random_form_factor(rng, n_terms=3, complex_weights=True)
        x = rng.uniform(-3.0, 3.0, size=40)
        direct = sum(w * np.abs(x) ** (2 * p - 1) * np.exp(-c * x * x)
                     for (w, p, c) in ff.terms)
        assert np.linalg.norm(ff(x) - direct) <= 1e-13 * max(1.0, np.linalg.norm(direct))


def test_form_factor_validation():
    with pytest.raises(InvalidFormFactorError):
        FormFactor(())                       # no terms
    with pytest.raises(InvalidFormFactorError):
        FormFactor(((1.0, 0, 1.0),))         # p must be >= 1
    with pytest.raises(InvalidFormFactorError):
        FormFactor(((1.0, 1.5, 1.0),))       # p must be integer
    with pytest.raises(InvalidFormFactorError):
        FormFactor(((1.0, 1, -0.2),))        # decay must be positive
    assert FormFactor(((1.0, 1, 1.0),)).is_real
    assert not FormFactor(((1.0 + 0.1j, 1, 1.0),)).is_real


def test_orthogonal_family_detection():
    # <f1, f2>_{L2(0, inf)} = int x(x^3 - 0.75 x) e^{-2x^2} dx = 0:
    # the bundled three-level pair is orthogonal by construction.
    f1 = FormFactor(((1.0, 1, 1.0),))
    f2 = FormFactor(((1.0, 2, 1.0), (-0.75, 1, 1.0)))
    q1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    q2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    ReservoirSpec(beta=1.0, lam=0.1, form_factors=(f1, f2), couplings=(q1, q2))   # accepted

    f3 = FormFactor(((1.0, 2, 1.0),))        # <f1, f3> != 0
    with pytest.raises(NonOrthogonalFamilyError):
        ReservoirSpec(beta=1.0, lam=0.1, form_factors=(f1, f3), couplings=(q1, q2))


def _quad_inner(f1, f2):
    x_max = _gauss_cutoff(min(f1.min_decay, f2.min_decay))
    parts = [integrate.quad(lambda x: part(np.conj(f1(x)) * f2(x)), 0.0, x_max,
                            limit=200)[0] for part in (np.real, np.imag)]
    return complex(*parts)


def test_closed_form_inner_product_matches_quadrature():
    # adaptive quadrature on (0, X) is the oracle for the Gamma-function sum
    rng = np.random.default_rng(23)
    for _ in range(50):
        f1, f2 = (_random_form_factor(rng, n_terms=int(rng.integers(1, 4)),
                                      complex_weights=True) for _ in range(2))
        n1, n2 = np.sqrt(_quad_inner(f1, f1).real), np.sqrt(_quad_inner(f2, f2).real)
        assert abs(f1.l2_norm() - n1) <= 1e-13 * n1
        assert abs(_l2_inner(f1, f2) - _quad_inner(f1, f2)) <= 1e-13 * n1 * n2


# --------------------------------------------------------------------------
# gluing and analytic continuation
# --------------------------------------------------------------------------

def test_glued_g_definition_and_density_relation():
    rng = np.random.default_rng(22)
    for trial in range(8):
        ff = _random_form_factor(rng, complex_weights=(trial % 2 == 1))
        beta = rng.uniform(0.2, 3.0)
        x = rng.uniform(0.05, 3.0, size=17)
        w = np.sqrt(expit(beta * x))
        expected_pos = np.abs(x) * w * ff(x)
        assert np.linalg.norm(glued_g(ff, beta, x) - expected_pos) <= 1e-12

        xm = -x
        wm = np.sqrt(expit(beta * xm))
        expected_neg = np.abs(xm) * wm * np.conj(ff(-xm))
        assert np.linalg.norm(glued_g(ff, beta, xm) - expected_neg) <= 1e-12

        # f^(beta) = 4 pi |g|^2 on the whole line
        for pts in (x, xm):
            lhs = spectral_density(ff, beta, pts)
            rhs = 4.0 * np.pi * np.abs(glued_g(ff, beta, pts)) ** 2
            assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(1.0, np.linalg.norm(rhs))


def test_continuation_agrees_on_the_real_axis():
    rng = np.random.default_rng(24)
    for trial in range(6):
        ff = _random_form_factor(rng, complex_weights=(trial % 2 == 1))
        beta = rng.uniform(0.3, 2.0)
        x = rng.uniform(-3.0, 3.0, size=41)
        x = x[np.abs(x) > 1e-3]
        on_axis = glued_g_continued(ff, beta, x.astype(complex))
        assert np.linalg.norm(on_axis - glued_g(ff, beta, x)) <= 1e-11


def test_continuation_reflection_symmetry_real_weights():
    # real weights: g(conj z) = conj(g(z)) inside the strip (Schwarz reflection)
    ff = FormFactor(((1.0, 1, 1.0), (0.4, 2, 0.8)))
    beta = 1.0
    rng = np.random.default_rng(25)
    z = (rng.uniform(0.1, 2.0, size=20)
         + 1j * rng.uniform(-0.9, 0.9, size=20) * np.pi / beta * 0.3)
    lhs = glued_g_continued(ff, beta, np.conj(z))
    rhs = np.conj(glued_g_continued(ff, beta, z))
    assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_continuation_survives_overflow_off_the_real_axis():
    # e^{-beta z} overflows for Re z < -709/beta; off the real axis the
    # plain root is nan there, while g itself is vanishingly small
    ff = FormFactor(((1.0, 1, 1.0),))
    assert np.isfinite(glued_g_continued(ff, 30.0, -30.0 + 0.05j))
    # wherever nothing overflows the values are the plain formula, bit for bit
    beta = 2.0
    re, im = np.meshgrid(np.linspace(-4.0, 4.0, 41), np.linspace(-1.5, 1.5, 13))
    z = re + 1j * im
    root = 1.0 / np.sqrt(1.0 + np.exp(-beta * z))
    plain = ((1.0 + 0j) * z**2 * np.exp(-1.0 * z**2)) * root
    assert np.array_equal(glued_g_continued(ff, beta, z), plain)


def test_kms_identity_on_grid():
    rng = np.random.default_rng(26)
    ff = _random_form_factor(rng)
    for beta in (0.5, 1.0, 2.7):
        x = rng.uniform(-4.0, 4.0, size=50)
        lhs = spectral_density(ff, beta, x)
        rhs = np.exp(beta * x) * spectral_density(ff, beta, -x)
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)) <= 1e-12


def test_density_nonnegative_and_rate_scaling():
    rng = np.random.default_rng(27)
    ff = _random_form_factor(rng, complex_weights=True)
    x = np.linspace(-5.0, 5.0, 201)
    dens = spectral_density(ff, 1.2, x)
    assert np.all(dens >= 0.0)
    assert dens[100] == 0.0   # x = 0: the |x f|^2 prefactor vanishes
    eps = 0.7
    assert abs(rate_coefficient(ff, 1.2, eps)
               - np.pi * spectral_density(ff, 1.2, eps)) <= 1e-15


def _literal_density(ff, beta, x):
    """4 pi |x f(|x|)|^2 sigma(beta x) with f from FormFactor.__call__."""
    x = np.asarray(x, dtype=float)
    return 4.0 * np.pi * np.abs(x * ff(np.abs(x))) ** 2 * reservoir._logistic(beta * x)


def test_spectral_density_matches_literal_definition():
    # real weights, complex weights, and terms drawn from two decays (so
    # several share one exp), each with mixed exponents; the grid runs past
    # both tails and holds x = 0
    rng = np.random.default_rng(31)
    families = [_random_form_factor(rng, n_terms=int(rng.integers(1, 4)),
                                    complex_weights=cplx)
                for cplx in (False, True) for _ in range(6)]
    for trial in range(6):
        families.append(FormFactor(tuple(
            (rng.uniform(-1.5, 1.5) + (1j * rng.uniform(-0.5, 0.5) if trial % 2 else 0.0),
             int(rng.integers(1, 4)), float(rng.choice([0.6, 1.3])))
            for _ in range(int(rng.integers(2, 5))))))
    families.append(FormFactor(((1.0, 2, 1.0), (-0.75, 1, 1.0))))
    for ff in families:
        beta = float(rng.uniform(0.0, 5.0))
        x_max = 2.0 * reservoir._density_cutoff(ff, 0.0)
        x = np.concatenate([np.linspace(-x_max, x_max, 801), [0.0, -40.0, 40.0]])
        got, want = spectral_density(ff, beta, x), _literal_density(ff, beta, x)
        assert got[-3] == 0.0 and max(got[0], got[800]) <= 1e-16 * np.max(want)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want), ff.terms
        for xs in (0.7, -1.3):
            value = spectral_density(ff, beta, xs)
            assert type(value) is float
            assert abs(value - _literal_density(ff, beta, xs)) <= 1e-13 * np.max(want)


def test_infinite_temperature_floor():
    # beta = 0 is replaced by a 1e-12 floor internally, so the density is
    # even up to a relative skew of order beta_floor * |x|.
    ff = FormFactor(((1.0, 1, 1.0),))
    x = np.linspace(0.1, 3.0, 30)
    lhs = spectral_density(ff, 0.0, x)
    rhs = spectral_density(ff, 0.0, -x)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)


# --------------------------------------------------------------------------
# strip analyticity report
# --------------------------------------------------------------------------

def _one_rung(ff, beta, r_max):
    """The ladder's report for one form factor at one half-width."""
    return strip_analyticity_ladder((ff,), beta, (r_max,))[0][0]


def test_strip_analyticity_pinned_form_factor():
    ff = FormFactor(((1.0, 1, 1.0),))
    rep = _one_rung(ff, 1.0, 0.5)
    assert rep.verdict == "finite"
    assert rep.crosscheck_rel_err <= 1e-6
    assert np.isfinite(rep.max_line_value)
    assert rep.notes == ""
    below = [-0.5 * (1.0 - 1e-12), -0.25 * (1.0 - 1e-12)]
    assert [y for y, _ in rep.lines] == below + [0.0] + [-y for y in below[::-1]]


def test_strip_ladder_reports_equal_one_off_reports(three_level):
    beta = three_level.beta
    radii = (0.05, 0.1, 0.2, 0.4, 0.5)
    rungs = strip_analyticity_ladder(three_level.res.form_factors, beta, radii)
    assert len(rungs) == len(radii)
    for r, reports in zip(radii, rungs):
        for ff, rep in zip(three_level.res.form_factors, reports):
            assert rep == _one_rung(ff, beta, r)
    # the two-term form factor passes the Simpson cross-check on every rung
    assert all(reports[1].crosscheck_rel_err <= 1e-6 for reports in rungs)


def test_strip_ladder_stops_at_first_failing_rung():
    # a narrow form factor at beta = 4: the lines grow like e^{2 C y^2}, so
    # the rungs read 2.9e-4 and 1.3e5, and across the branch line
    # |Im z| = pi/beta far above the 1e12 bound; the last rung is never reported
    ff = FormFactor(((1.0, 1, 50.0),))
    beta = 4.0
    rungs = strip_analyticity_ladder((ff,), beta, (0.1, 0.4, 1.05 * np.pi / beta, 2.0))
    assert [reports[0].verdict for reports in rungs] == ["finite", "finite", "exceeds-bound"]
    assert rungs[1][0].max_line_value < 1e12 < rungs[2][0].max_line_value


def test_vectorized_line_integrand_matches_pointwise_loop(three_level):
    # the Simpson cross-check evaluates the y=0 integrand on a whole grid
    for ff in three_level.res.form_factors:
        h0 = _line_integrand(ff, three_level.beta, 0.0)
        x_max = _line_cutoff(ff, three_level.beta, 0.0)
        grid = np.linspace(-x_max, x_max, 4097)
        loop = np.array([h0(x) for x in grid])
        assert np.allclose(h0(grid), loop, rtol=1e-14, atol=1e-300)


def _quad_stack(h, edges):
    """QUADPACK stand-in for the stacked engine: each row k of `edges` is one
    integral of h(x, k) over [row[0], row[-1]], at a tolerance well below 1e-9."""
    vals = []
    for k, row in enumerate(np.asarray(edges)):
        def line(x, k=k):
            return float(h(np.array([[x]]), np.array([[k]]))[0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(line, row[0], row[-1], epsabs=0.0, epsrel=1e-11,
                                      limit=2000)
        if np.isfinite(val):
            assert err <= 1e-10 * val
        vals.append(val if np.isfinite(val) else np.inf)
    m = len(vals)
    return np.array(vals), np.zeros(m), np.zeros(m, dtype=bool)


STRIP_FAMILIES = (     # the three_level pair; a narrow c = 50; a wide p = 3, c = 0.2
    (FormFactor(((1.0, 1, 1.0),)), FormFactor(((1.0, 2, 1.0), (-0.75, 1, 1.0)))),
    (FormFactor(((1.0, 1, 50.0),)),),
    (FormFactor(((1.0, 3, 0.2),)),),
)


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 6.159, 12.0])
def test_gauss_legendre_ladder_matches_quad_route(monkeypatch, beta):
    # The check_assumptions rungs, then one just under the 0.98 pi/beta cap
    # (nearest the branch point) and one across the branch line at 1.05 pi/beta.
    cap = 0.98 * np.pi / beta
    radii = ([r for r in (0.05, 0.1, 0.2, 0.4, 0.5) if r < cap]
             + [cap * (1.0 - 1e-9), 1.05 * np.pi / beta])
    for family in STRIP_FAMILIES:
        rungs = strip_analyticity_ladder(family, beta, radii)
        stacks = []

        def quad_stack(h, edges):
            stacks.append(len(edges))
            return _quad_stack(h, edges)

        with monkeypatch.context() as m:
            m.setattr(reservoir, "_adaptive_gauss_legendre", quad_stack)
            oracle = strip_analyticity_ladder(family, beta, radii)
        assert len(stacks) == len(family) and min(stacks) >= 3   # QUADPACK did the lines
        assert len(rungs) == len(oracle)                   # same stop rung
        for reports, expected in zip(rungs, oracle):
            for rep, ref in zip(reports, expected):
                assert rep.verdict == ref.verdict
                assert [y for y, _ in rep.lines] == [y for y, _ in ref.lines]
                for (_, val), (_, want) in zip(rep.lines, ref.lines):
                    if np.isinf(want):
                        assert val == np.inf
                    else:
                        assert abs(val - want) <= 1e-9 * want


def _literal_line_integrand(ff, beta, y):
    """The strip integrand straight from its definition, in complex arithmetic:
    (|g(z)| + |e^{-beta z/2} g#(z)|)^2 with g#(z) = i conj(g(-conj z))."""
    def h(x):
        z = x + 1j * y
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.abs(glued_g_continued(ff, beta, z))
            g_sharp = 1j * np.conj(glued_g_continued(ff, beta, -np.conj(z)))
            b = np.abs(np.exp(-beta * z / 2.0) * g_sharp)
            return (a + b) ** 2
    return h


COMPLEX_TWO_DECAY = (FormFactor(((1.0 + 0.5j, 1, 1.0), (0.3, 2, 2.0))),)
COLD_FAMILY = (FormFactor(((2.0, 3, 0.2),)),)


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 6.159, 12.0])
def test_line_integrand_matches_literal_definition(beta):
    # measured <= 8e-14, next to the real zero x^2 = 3/4 of the two-term
    # form factor, where both forms cancel; the grid holds x = 0 exactly
    for family in STRIP_FAMILIES + (COMPLEX_TWO_DECAY,):
        for ff in family:
            for y in (0.0, 0.2, -0.2, 0.5, 1.05 * np.pi / beta):
                x_max = _line_cutoff(ff, beta, y)
                x = np.linspace(-x_max, x_max, 2001)
                assert x[1000] == 0.0
                got = _line_integrand(ff, beta, y)(x)
                want = _literal_line_integrand(ff, beta, y)(x)
                assert np.array_equal(np.isfinite(got), np.isfinite(want))
                keep = np.isfinite(want) & (want > 1e-300)
                rel = np.abs(got[keep] - want[keep]) / want[keep]
                assert np.max(rel) <= 1e-12, (ff.terms, beta, y)


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 6.159, 12.0, 30.0])
def test_strip_ladder_matches_literal_integrand(monkeypatch, beta):
    # Finite lines measured <= 6e-16 apart.  At beta = 30 a node of the
    # literal form can stay finite (2e248 at x = -47.33, y = 0.05) where
    # e^{-beta x/2} overflows in the real form; those lines read inf in both.
    cap = 0.98 * np.pi / beta
    radii = ([r for r in (0.05, 0.1, 0.2, 0.4, 0.5) if r < cap]
             + [cap * (1.0 - 1e-9), 1.05 * np.pi / beta])
    for family in STRIP_FAMILIES + (COMPLEX_TWO_DECAY, COLD_FAMILY):
        rungs = strip_analyticity_ladder(family, beta, radii)
        with monkeypatch.context() as m:
            m.setattr(reservoir, "_line_integrand", _literal_line_integrand)
            oracle = strip_analyticity_ladder(family, beta, radii)
        assert len(rungs) == len(oracle)                   # same stop rung
        for reports, expected in zip(rungs, oracle):
            for rep, ref in zip(reports, expected):
                assert rep.verdict == ref.verdict
                assert [y for y, _ in rep.lines] == [y for y, _ in ref.lines]
                for (_, val), (_, want) in zip(rep.lines, ref.lines):
                    if np.isinf(want):
                        assert val == np.inf
                    else:
                        assert abs(val - want) <= 1e-12 * want


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 6.159, 12.0, 13.5])
def test_stacked_ladder_matches_the_per_line_64_panel_route(beta):
    # One stack of 16-panel lines per form factor against every line alone
    # from 64 panels, both signs of y: measured <= 1.3e-14 apart.
    cap = 0.98 * np.pi / beta
    radii = ([r for r in (0.05, 0.1, 0.2, 0.4, 0.5) if r < cap]
             + [cap * (1.0 - 1e-9), 1.05 * np.pi / beta])
    for family in STRIP_FAMILIES + (COMPLEX_TWO_DECAY, COLD_FAMILY):
        rungs = strip_analyticity_ladder(family, beta, radii)
        oracle = strip_ladder_per_line(family, beta, radii, n_lines=5)
        assert len(rungs) == len(oracle)                   # same stop rung
        for reports, expected in zip(rungs, oracle):
            for rep, (verdict, lines) in zip(reports, expected):
                assert rep.verdict == verdict
                assert [y for y, _ in rep.lines] == [y for y, _ in lines]
                for (_, val), (_, want) in zip(rep.lines, lines):
                    if np.isinf(want):
                        assert val == np.inf
                    else:
                        assert abs(val - want) <= 1e-13 * want


@pytest.mark.parametrize("family", STRIP_FAMILIES + (COMPLEX_TWO_DECAY, COLD_FAMILY))
def test_strip_ladder_makes_one_adaptive_call_per_form_factor(monkeypatch, family):
    engine, stacks = reservoir._adaptive_gauss_legendre, []

    def counted(h, edges):
        stacks.append(len(edges))
        return engine(h, edges)

    monkeypatch.setattr(reservoir, "_adaptive_gauss_legendre", counted)
    # At beta = 1 every rung is finite.  At beta = 30 the walk stops after
    # the first rung (five lines of one |y|) for all but the narrow family,
    # and the stack still holds the lines of every rung.
    for beta in (1.0, 30.0):
        stacks.clear()
        strip_analyticity_ladder(family, beta, (0.05, 0.1, 0.2, 0.4, 0.5))
        assert len(stacks) == len(family) and min(stacks) > 5


def test_a_capped_line_beyond_the_stop_rung_raises_nothing(monkeypatch):
    # The lines with |y| > 0.15, which only the second rung holds, are made
    # 1e-9/|x|: not integrable across 0, so they reach the refinement cap
    # inside the stack, with values far within the 1e12 bound.  Scaled by
    # 1e13, the first rung's lines (0.64-0.67 unscaled) exceed the bound and
    # stop the walk there, and the capped lines raise nothing; unscaled, the
    # walk reaches them and raises.
    integrand, engine, capped = reservoir._line_integrand, reservoir._adaptive_gauss_legendre, []
    scale = [1e13]

    def forced(ff, beta, y):
        line, far = integrand(ff, beta, y), np.abs(y) > 0.15

        def h(x):
            with np.errstate(divide="ignore"):
                return np.where(far, 1e-9 / np.abs(x), scale[0] * line(x))
        return h

    def recorded(h, edges):
        out = engine(h, edges)
        capped.append(out[2].tolist())
        return out

    monkeypatch.setattr(reservoir, "_line_integrand", forced)
    monkeypatch.setattr(reservoir, "_adaptive_gauss_legendre", recorded)
    ff = FormFactor(((1.0, 1, 1.0),))
    rungs = strip_analyticity_ladder((ff,), 1.0, (0.1, 0.4))
    assert [reports[0].verdict for reports in rungs] == ["exceeds-bound"]
    assert capped == [[False, False, False, True, True]]   # y = -0.1, -0.05, 0, -0.4, -0.2
    scale[0] = 1.0
    with pytest.raises(QuadratureNonConvergenceError, match="y=-0.4: .* cap reached"):
        strip_analyticity_ladder((ff,), 1.0, (0.1, 0.4))


class _ExpSqrtRecorder:
    """numpy, except that exp and sqrt record the dtype of their argument."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("exp", "sqrt"):
            return attr

        def recorded(arg, *args, **kwargs):
            self.dtypes.append((name, np.asarray(arg).dtype))
            return attr(arg, *args, **kwargs)
        return recorded


def test_strip_ladder_takes_no_complex_exp_or_sqrt(monkeypatch, three_level):
    # the check_assumptions ladder on three_level: every integrand node in
    # real arithmetic (one decay per form factor, so no complex exponential)
    recorder = _ExpSqrtRecorder()
    monkeypatch.setattr(reservoir, "np", recorder)
    beta = three_level.beta
    radii = [r for r in (0.05, 0.1, 0.2, 0.4, 0.5) if r < 0.98 * np.pi / beta]
    rungs = strip_analyticity_ladder(three_level.res.form_factors, beta, radii)
    assert all(rep.verdict == "finite" for reports in rungs for rep in reports)
    assert {name for name, _ in recorder.dtypes} == {"exp", "sqrt"}
    assert [call for call in recorder.dtypes if call[1].kind == "c"] == []


def test_strip_ladder_integrates_one_line_per_abs_y(monkeypatch, three_level):
    # Real weights: g(conj z) = conj g(z) makes the integrand even in y, and
    # the lines at +y and -y come out bit for bit equal, so the ladder takes
    # the +y value from the -y line.  Complex weights integrate every line.
    beta = three_level.beta
    real_families = three_level.res.form_factors + STRIP_FAMILIES[2] + (
        FormFactor(((1.0, 1, 1.0), (0.4, 2, 0.8))),)
    for ff in real_families:
        for y in (0.1, 0.37, 0.785, 1.2):
            ys = np.array([y, -y])
            x_max = _line_cutoff(ff, beta, ys)
            vals, _, _ = reservoir._adaptive_gauss_legendre(
                lambda x, k: _line_integrand(ff, beta, ys[k])(x),
                np.linspace(-x_max, x_max, reservoir._GL_PANELS + 1, axis=1))
            assert vals[0] == vals[1]
    # each stacked call as (form factor, sorted distinct line ys, stack
    # height); the y=0 Simpson grid (scalar y) is not a stacked call
    stacks, seen = [], []
    engine, integrand = reservoir._adaptive_gauss_legendre, reservoir._line_integrand

    def stacked(h, edges, *args):
        seen.clear()
        out = engine(h, edges, *args)
        if seen:
            stacks.append((seen[0][0], sorted({y for _, y in seen}), len(edges)))
        return out

    def line_integrand(ff, beta, y):
        if np.ndim(y):
            seen.extend((ff, v) for v in np.ravel(y).tolist())
        return integrand(ff, beta, y)

    monkeypatch.setattr(reservoir, "_adaptive_gauss_legendre", stacked)
    monkeypatch.setattr(reservoir, "_line_integrand", line_integrand)
    radii = (0.05, 0.1, 0.2, 0.4, 0.5)
    for family in (real_families, COMPLEX_TWO_DECAY):
        stacks.clear()
        rungs = strip_analyticity_ladder(family, beta, radii)      # five lines a rung
        assert [f for f, _, _ in stacks] == list(family)          # one stack per form factor
        for i, ff in enumerate(family):
            ys = set()
            for reports in rungs:
                lines = dict(reports[i].lines)
                assert set(lines) == {-y for y in lines}
                if ff.is_real:
                    assert all(lines[-y] == lines[y] for y in lines)
                ys |= set(lines)
            _, made, height = stacks[i]
            assert height == len(made)                            # no line twice
            assert set(made) == ({-abs(y) for y in ys} if ff.is_real else ys)
    # `check` on three_level: eight distinct |y| per form factor
    stacks.clear()
    check_assumptions(three_level.res, three_level.bundle, three_level.data)
    assert [height for *_, height in stacks] == [8, 8]


def test_check_evaluates_at_most_15360_strip_nodes(monkeypatch, three_level):
    # A count, not a clock: `check` on three_level integrates 16 lines
    # (8 per form factor), each from 16 panels that all converge at the
    # first bisection, so 16 x 16 x 60 nodes (a panel and its two halves).
    # One 64-panel line at a time took 61,440.  The y=0 Simpson grid
    # (scalar y) is not counted.
    integrand, nodes = reservoir._line_integrand, []

    def counted(ff, beta, y):
        line = integrand(ff, beta, y)

        def h(x):
            nodes.append(np.size(x))
            return line(x)
        return h if np.ndim(y) else line

    monkeypatch.setattr(reservoir, "_line_integrand", counted)
    check_assumptions(three_level.res, three_level.bundle, three_level.data)
    assert 0 < sum(nodes) <= 15_360


def test_unresolvable_line_raises_nonconvergence(monkeypatch):
    # 1/|x| is not integrable across 0: the panels next to it never converge
    monkeypatch.setattr(reservoir, "_line_integrand",
                        lambda ff, beta, y: (lambda x: 1.0 / np.abs(x)))
    with pytest.raises(QuadratureNonConvergenceError):
        _one_rung(FormFactor(((1.0, 1, 1.0),)), 1.0, 0.5)


def _graded_edges(eps, x_max=10.0):
    return np.concatenate([[0.0], np.geomspace(min(eps, 0.5 * x_max), x_max, 8)])


@pytest.mark.parametrize("eps", [1e-2, 2.5e-3, 1e-5])
def test_adaptive_rule_integrates_a_complex_kernel(eps):
    # the resolvent oracle's kernel shape on its graded edges:
    # int_0^X (eps - i t)/(eps^2 + t^2) dt = arctan(X/eps) - (i/2) ln(1 + X^2/eps^2)
    x_max = 10.0
    (val,), (err,), (capped,) = reservoir._adaptive_gauss_legendre(
        lambda t, _k: (eps - 1j * t) / (eps**2 + t * t), _graded_edges(eps, x_max)[None])
    want = np.arctan(x_max / eps) - 0.5j * np.log1p((x_max / eps) ** 2)
    assert not capped
    assert abs(val - want) <= 1e-13 * abs(want)
    assert isinstance(err, float) and err >= 0.0


def test_stack_of_one_reproduces_the_one_integral_rule(three_level):
    # a stack of one is bit for bit the one-integral rule, and so is every
    # line of the ladder's stack: its arithmetic ignores the other lines
    beta = three_level.beta
    for ff in three_level.res.form_factors:
        rungs = strip_analyticity_ladder((ff,), beta, (0.37, 0.785))
        ladder = {y: val for reports in rungs for y, val in reports[0].lines}
        for y in sorted(ladder)[:3]:
            x_max = _line_cutoff(ff, beta, y)
            edges = np.linspace(-x_max, x_max, reservoir._GL_PANELS + 1)
            line = _line_integrand(ff, beta, y)
            want = adaptive_gauss_legendre_one(line, edges)
            got = reservoir._adaptive_gauss_legendre(lambda x, _k: line(x), edges[None])
            assert tuple(part[0] for part in got) == want
            assert ladder[y] == want[0]


def test_each_integral_of_a_stack_matches_its_solo_run():
    # complex kernels on graded edges of different widths, stacked
    eps = np.array([1e-2, 2.5e-3, 1e-5, 3.0])
    x_max = np.array([10.0, 4.0, 25.0, 7.5])
    edges = np.array([_graded_edges(e, x) for e, x in zip(eps, x_max)])

    def h(t, k):
        return (eps[k] - 1j * t) / (eps[k] ** 2 + t * t) + np.exp(-t * t / x_max[k])

    vals, errs, capped = reservoir._adaptive_gauss_legendre(h, edges)
    assert not capped.any()
    for i in range(eps.size):
        solo = reservoir._adaptive_gauss_legendre(lambda t, k, i=i: h(t, k + i), edges[i:i + 1])
        assert not solo[2][0]
        assert abs(vals[i] - solo[0][0]) <= 1e-14 * abs(solo[0][0])
        assert abs(errs[i] - solo[1][0]) <= 1e-14 * abs(solo[0][0])


def test_an_empty_stack_returns_empty_arrays():
    # a list of no rows (the resolvent oracle's, for a channel without pairs)
    # and a (0, 9) array (pv_coefficients' for no eps) alike
    for edges in ([], np.zeros((0, 9))):
        vals, errs, capped = reservoir._adaptive_gauss_legendre(
            lambda t, k: (1.0 - 1j * t) / (1.0 + t * t), edges)
        assert vals.shape == errs.shape == capped.shape == (0,)
        assert vals.dtype == complex and capped.dtype == bool


def test_scalar_resolvent_of_no_pairs_is_empty():
    ff = FormFactor(((1.0, 1, 1.0),))
    empty = reservoir._scalar_resolvent(ff, 1.0, [], [])
    assert empty.shape == (0,) and empty.dtype == complex
    assert pv_coefficients(ff, 1.0, []).shape == (0,)


def test_a_non_finite_integral_reads_inf_and_spares_the_rest():
    edges = np.array([np.linspace(0.0, 1.0, 9)] * 3)
    vals, errs, capped = reservoir._adaptive_gauss_legendre(
        lambda x, k: np.where(k == 1, np.inf, np.exp(-x * x)), edges)
    assert (vals[1], errs[1], capped[1]) == (np.inf, np.inf, False)
    want = 0.5 * np.sqrt(np.pi) * 0.8427007929497149       # erf(1)
    assert np.all(np.abs(vals[[0, 2]] - want) <= 1e-15)
    assert not capped.any()


def test_the_refinement_caps_apply_per_integral(monkeypatch):
    # 1/|x| is not integrable across 0: it alone reaches the level cap
    edges = np.array([np.linspace(-1.0, 1.0, 9)] * 2)
    vals, _, capped = reservoir._adaptive_gauss_legendre(
        lambda x, k: np.where(k == 0, 1.0 / np.abs(x), np.exp(-x * x)), edges)
    assert list(capped) == [True, False]
    assert abs(vals[1] - np.sqrt(np.pi) * 0.8427007929497149) <= 1e-15
    # cos(40 x) on [0, 10] never has more than 16 open panels, cos(80 x) up
    # to 150: with a cap of 20 open panels only the latter stops, though the
    # stack together holds more than 20
    a = np.array([40.0, 40.0, 40.0, 80.0])
    edges = np.array([np.linspace(0.0, 10.0, 9)] * a.size)
    monkeypatch.setattr(reservoir, "_GL_MAX_OPEN", 20)
    vals, _, capped = reservoir._adaptive_gauss_legendre(lambda x, k: np.cos(a[k] * x), edges)
    assert list(capped) == [False, False, False, True]
    assert np.all(np.abs(vals[:3] - np.sin(400.0) / 40.0) <= 1e-13)


def test_simpson_crosscheck_rejects_a_biased_primary_rule(monkeypatch):
    exact, stacks = reservoir._adaptive_gauss_legendre, []

    def biased(*args):
        vals, errs, capped = exact(*args)
        stacks.append(len(vals))
        return (1.0 + 1e-5) * vals, errs, capped

    monkeypatch.setattr(reservoir, "_adaptive_gauss_legendre", biased)
    with pytest.raises(DisagreementBetweenRulesError):
        _one_rung(FormFactor(((1.0, 1, 1.0),)), 1.0, 0.5)
    assert stacks == [3]                 # the biased stack held the rung's lines


def test_pv_rule_b_rejects_a_biased_rule_a(monkeypatch):
    exact = reservoir._pv_contour
    monkeypatch.setattr(reservoir, "_pv_contour",
                        lambda *args: (1.0 + 1e-5) * exact(*args))
    with pytest.raises(DisagreementBetweenRulesError):
        pv_coefficient(FormFactor(((1.0, 1, 1.0),)), 1.0, 0.5)


def test_cold_reservoir_overflow_reads_inf():
    # At beta = 30, e^{-beta z/2} overflows where g# underflows (inf * 0 on
    # every line): each line reads inf and the first rung exceeds the bound.
    ff = FormFactor(((2.0, 3, 0.2),))
    rungs = strip_analyticity_ladder((ff,), 30.0, (0.05, 0.1))
    assert len(rungs) == 1
    rep = rungs[0][0]
    assert rep.verdict == "exceeds-bound"
    assert rep.max_line_value == np.inf
    assert all(val == np.inf for _, val in rep.lines)


def test_strip_analyticity_branch_line_note():
    ff = FormFactor(((1.0, 1, 1.0),))
    beta = 1.0
    rep = _one_rung(ff, beta, 1.05 * np.pi / beta)
    assert "branch line" in rep.notes


def test_strip_analyticity_rejects_bad_halfwidth():
    ff = FormFactor(((1.0, 1, 1.0),))
    with pytest.raises(InvalidFormFactorError):
        _one_rung(ff, 1.0, 0.0)


# --------------------------------------------------------------------------
# principal-value coefficients: two independent rules
# --------------------------------------------------------------------------

def _quadpack_pv(ff, beta, eps, x_max=None):
    """QUADPACK's Cauchy-weight PV on [-x_max, x_max] (the old rule A), by
    default on a range wider than rule A's by beta/(2 C_min)."""
    if x_max is None:
        x_max = _gauss_cutoff(ff.min_decay) + beta / (2.0 * ff.min_decay) + abs(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(lambda x: spectral_density(ff, beta, x + eps), -x_max, x_max,
                                weight="cauchy", wvar=0.0, limit=400, epsabs=1e-12,
                                epsrel=1e-11)
    return val


@pytest.mark.parametrize("ff, beta, energies", [
    (FormFactor(((1.0, 1, 1.0),)), 1.0, (0.0, 1.0)),                          # two_level
    (FormFactor(((1.0, 1, 1.0),)), 2.0, (0.0, 0.9, 2.1)),                     # three_level
    (FormFactor(((1.0, 2, 1.0), (-0.75, 1, 1.0))), 2.0, (0.0, 0.9, 2.1)),
    (FormFactor(((1.0 + 0.4j, 1, 1.0), (0.5 - 0.3j, 2, 0.7))), 2.0, (0.0, 0.9, 2.1)),
], ids=["two_level", "three_level-f1", "three_level-f2", "complex-weights"])
def test_contour_rule_matches_quadpack_cauchy_weight(ff, beta, energies):
    # every Bohr frequency of the config, both signs; measured <= 1e-14
    bohr = sorted({ek - ej for ej in energies for ek in energies if ek != ej})
    for eps in bohr:
        want = _quadpack_pv(ff, beta, eps)
        got = reservoir._pv_contour(ff, beta, eps)
        assert abs(got - want) <= 1e-11 * abs(want), (eps, got, want)
        assert pv_coefficient(ff, beta, eps) == got


def test_logistic_keeps_relative_accuracy_in_both_tails():
    # 0.5 (1 + tanh(x/2)) would read 0 at x = -40; the density at a large
    # negative argument must keep the scipy value's relative accuracy
    x = np.linspace(-700.0, 700.0, 14001)
    assert np.max(np.abs(reservoir._logistic(x) - expit(x)) / expit(x)) <= 1e-15
    ff = FormFactor(((1.0, 1, 1.0),))
    xs = np.linspace(-6.0, 6.0, 25)
    want = 4.0 * np.pi * np.abs(xs * ff(xs)) ** 2 * expit(30.0 * xs)
    assert np.all(np.abs(spectral_density(ff, 30.0, xs) - want) <= 1e-15 * want)


def test_simpson_crosscheck_equals_scipy_simpson(three_level):
    for ff in three_level.res.form_factors:
        rep = _one_rung(ff, three_level.beta, 0.1)
        ref = dict(rep.lines)[0.0]
        x_max = _line_cutoff(ff, three_level.beta, 0.0)
        grid = np.linspace(-x_max, x_max, 4097)
        want = integrate.simpson(_line_integrand(ff, three_level.beta, 0.0)(grid), x=grid)
        assert abs(rep.crosscheck_rel_err - abs(want - ref) / ref) <= 1e-14


def test_pv_regression_pinned_value():
    # Frozen after the first two-rule-agreed computation; guards the
    # principal-part convention against silent changes.
    ff = FormFactor(((1.0, 1, 1.0),))
    val = pv_coefficient(ff, 1.0, 0.5)
    assert abs(val - 2.221702653941896) <= 1e-9


def test_pv_even_density_vanishes_at_origin():
    # At beta = 0 the density is even, so PV int f^(0)(x)/x dx = 0 exactly.
    ff = FormFactor(((1.0, 1, 1.0), (0.3, 2, 1.4)))
    assert abs(pv_coefficient(ff, 0.0, 0.0)) <= 1e-9


def test_pv_rules_agree_over_random_family():
    rng = np.random.default_rng(28)
    for _ in range(12):
        ff = _random_form_factor(rng, n_terms=int(rng.integers(1, 3)))
        beta = float(rng.uniform(0.0, 3.0))
        eps = float(rng.uniform(-2.0, 2.0))
        val = pv_coefficient(ff, beta, eps)   # raises if the rules disagree
        assert np.isfinite(val)


def test_pv_rule_b_converges_on_a_cold_reservoir():
    # the fixed midpoint grid rule B once used drifted 2.0e-7 from rule A at
    # beta = 600; at beta = 1e4 rule A sums its 8.5e5 nodes in 13 chunks, so
    # its memory does not grow with beta (an array of every node takes
    # about 120 MB)
    import tracemalloc

    for beta in (600.0, 1e4):
        tracemalloc.start()
        try:
            vals = pv_coefficients(FormFactor(((1.0, 1, 1.0),)), beta, [1.0, -1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (2,) and np.all(np.isfinite(vals))
        assert peak <= 32e6, beta


@pytest.mark.parametrize("beta", [600.0, 1e4])
@pytest.mark.parametrize("ff", [FormFactor(((1.0, 1, 1.0),)),
                                FormFactor(((1.0, 2, 1.0), (-0.75, 1, 1.0)))],
                         ids=["f1", "f2"])
def test_pv_coefficients_match_quadpack_on_a_cold_reservoir(monkeypatch, ff, beta):
    # the density's range does not widen with beta, so rule A takes about
    # 85 beta nodes at C = 1 (845,363 at beta = 1e4), not 5 beta^2.  The
    # reference integrates twice the Gaussian cutoff: on the beta-widened
    # range (5,000 wide at beta = 1e4) QUADPACK misses the density's narrow
    # support.  Measured <= 1.4e-15.
    monkeypatch.setattr(reservoir, "_PV_MAX_NODES", 10**6)
    eps = [1.2, -0.9]
    got = pv_coefficients(ff, beta, eps)
    want = [_quadpack_pv(ff, beta, e, 2.0 * _gauss_cutoff(ff.min_decay) + abs(e)) for e in eps]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (got, want)


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0, 50.0, 100.0])
def test_pv_rules_agree_closely_over_a_seeded_sweep(monkeypatch, beta):
    stacked, rule_b = reservoir._adaptive_gauss_legendre, []

    def spy(*args):
        out = stacked(*args)
        rule_b.append(out[0])
        return out

    monkeypatch.setattr(reservoir, "_adaptive_gauss_legendre", spy)
    rng = np.random.default_rng(int(beta * 10))
    for i in range(6):
        ff = _random_form_factor(rng, n_terms=int(rng.integers(1, 3)), complex_weights=i % 2 == 1)
        eps = rng.uniform(-3.0, 3.0, 3)
        rule_a = pv_coefficients(ff, beta, eps)
        assert np.all(np.abs(rule_a - rule_b[-1]) <= 1e-11 * np.abs(rule_a)), (ff, eps)


def test_pv_rule_b_converges_where_the_coefficient_vanishes():
    # d(eps) changes sign within 1e-15 of this eps; rule B's absolute
    # tolerance lets it converge where a relative one alone would stall
    val = pv_coefficient(FormFactor(((1.0, 1, 1.0),)), 1.0, -0.7616712738039491)
    assert abs(val) <= 1e-12


def test_pv_rule_b_refinement_cap_raises(monkeypatch):
    monkeypatch.setattr(reservoir, "_GL_MAX_LEVELS", 0)
    with pytest.raises(QuadratureNonConvergenceError, match="eps=0.5: refinement cap"):
        pv_coefficient(FormFactor(((1.0, 1, 1.0),)), 1.0, 0.5)


def test_pv_contour_refuses_too_many_nodes():
    # 2 X/h nodes grow as beta: about 8.5e7 at beta = 1e6, refused before allocation
    with pytest.raises(QuadratureNonConvergenceError, match="84536131 nodes"):
        pv_coefficient(FormFactor(((1.0, 1, 1.0),)), 1e6, 1.0)


@pytest.mark.parametrize("beta", [np.inf, np.nan])
def test_non_finite_beta_is_refused(beta):
    ff = FormFactor(((1.0, 1, 1.0),))
    calls = [lambda: pv_coefficients(ff, beta, [1.0]),
             lambda: spectral_density(ff, beta, 1.0),
             lambda: strip_analyticity_ladder([ff], beta, [0.1]),
             lambda: ReservoirSpec(beta=beta, lam=0.1, form_factors=(ff,),
                                   couplings=(np.eye(2),))]
    for call in calls:
        with pytest.raises(InvalidFormFactorError, match="finite"):
            call()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_model_input_is_refused(bad):
    # NaN fails every "> 0" and "> tol" test and inf passes "> 0": weights,
    # decays, lambda and matrix entries used to be kept, a frequency to read
    # NaN (rate) or fail untyped in the node count (PV)
    ff = FormFactor(((1.0, 1, 1.0),))
    q = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    q_bad = q.copy()
    q_bad[0, 1] = q_bad[1, 0] = bad
    calls = [lambda: FormFactor(((bad, 1, 1.0),)),
             lambda: FormFactor(((1.0, 1, bad),)),
             lambda: ReservoirSpec(beta=1.0, lam=bad, form_factors=(ff,), couplings=(q,)),
             lambda: ReservoirSpec(beta=1.0, lam=0.1, form_factors=(ff,), couplings=(q_bad,)),
             lambda: ReservoirSpec(beta=1.0, lam=0.1, form_factors=(), couplings=(),
                                   gks_jumps=(q_bad,)),
             lambda: pv_coefficients(ff, 1.0, [0.5, bad]),
             lambda: rate_coefficient(ff, 1.0, bad)]
    for call in calls:
        with pytest.raises(InvalidFormFactorError, match="finite"):
            call()


def test_error_taxonomy():
    # Every failure mode shares one catchable base class.
    from pumped_lindblad import PumpedLindbladError, QuadratureNonConvergenceError
    for err in (InvalidFormFactorError, NonOrthogonalFamilyError,
                DisagreementBetweenRulesError, QuadratureNonConvergenceError):
        assert issubclass(err, PumpedLindbladError)
