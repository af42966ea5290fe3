"""Reservoir side: form factors, glued spectral functions, PV coefficients.

The atom couples to a thermal fermionic field at inverse temperature beta
through scalar form factors taken from the family

    f(x) = sum_i  w_i |x|^{2 p_i - 1} exp(-C_i x^2),     x >= 0,

with p_i >= 1 integers and C_i > 0.  Two derived objects drive everything:

* the glued function on the whole line,

      g(x) = |x| (1 + e^{-beta x})^{-1/2} * { f(x),        x >= 0
                                            { conj(f(-x)), x < 0,

  together with g#(x) = i conj(g(-x)), and

* the thermal spectral density

      f^(beta)(x) = 4 pi |x f(|x|)|^2 / (1 + e^{-beta x}) = 4 pi |g(x)|^2,

  which satisfies the KMS identity f^(beta)(x) = e^{beta x} f^(beta)(-x).

Rates are half-residues c = pi f^(beta)(eps); Lamb-shift coefficients are
Cauchy principal values d = PV \\int f^(beta)(x + eps)/x dx.  The PV
convention is isolated in :func:`pv_coefficient`, so swapping conventions
is a one-line change there.

For real weights w_i the glued g extends to a single analytic function

    g(z) = P(z) (1 + e^{-beta z})^{-1/2},   P(z) = sum_i w_i z^{2 p_i} e^{-C_i z^2},

on the strip |Im z| < pi/beta (the square root stays on its principal
branch there); :func:`glued_g_continued` evaluates this definition.  The
strip-integrability check samples (|g(z)| + |e^{-beta z/2} g#(z)|)^2 on
horizontal lines z = x + iy, and only moduli enter it, so its integrand
takes one |P(z)| per node and two Fermi moduli from real exponentials:

    |g(z)|                = |P(z)| |1 + e^{-beta z}|^{-1/2},
    |e^{-beta z/2} g#(z)| = e^{-beta x/2} |P(z)| |1 + e^{beta z}|^{-1/2},
    |1 + e^{-+beta z}|    = hypot(1 + e^{-+beta x} cos(beta y), e^{-+beta x} sin(beta y)),
    |P(z)|                = e^{-C0 (x^2 - y^2)} |sum_i w_i (z^2)^{p_i} e^{-(C_i - C0) z^2}|,

with C0 = min C_i (see :func:`_line_integrand`).  For real weights the
integrand is even in y, so a ladder integrates one line per |y|.  Each
horizontal line is integrated by an adaptive composite 20-node
Gauss-Legendre rule (panel against its two halves, 1e-12 relative
tolerance) that evaluates the vectorized integrand on all open panels of
a level at once; a fixed composite Simpson grid on the line y = 0 is its
independent cross-check.
The same adaptive rule takes the resolvent oracle's regularized resolvent
as one complex integral on a graded mesh (:func:`_scalar_resolvent`).

The PV coefficient has two rules.  Rule A is a trapezoid sum on a line
below the real axis (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)):
f^(beta) continues analytically to |Im z| < pi/beta, so the line may pass
below the pole of 1/x, and the trapezoid rule converges exponentially
there.  Rule B, a midpoint sum of the symmetric difference with one
Richardson step, stays on the real axis as its cross-check.  Everything
here is numpy; QUADPACK is only the unit tests' oracle.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisagreementBetweenRulesError,
    InvalidFormFactorError,
    NonOrthogonalFamilyError,
    QuadratureNonConvergenceError,
)

__all__ = [
    "AnalyticityReport",
    "FormFactor",
    "ReservoirSpec",
    "glued_g_continued",
    "pv_coefficient",
    "rate_coefficient",
    "spectral_density",
    "strip_analyticity_ladder",
]

_MIN_BETA = 1e-12
_PV_REL_TOL = 1e-7   # the two PV rules must agree to this, relative

# Strip-line quadrature: 20-node Gauss-Legendre panels, 64 to start, bisected
# until each meets its share of _GL_REL_TOL.  The caps bound the depth and
# the number of open panels (and so the memory of one integrand call).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL_PANELS = 64
_GL_REL_TOL = 1e-12
_GL_MAX_LEVELS = 20
_GL_MAX_OPEN = 4096
_SIMPSON_REL_TOL = 1e-6  # the y=0 Simpson cross-check must agree to this


def _logistic(x):
    """1 / (1 + e^{-x}) with full relative accuracy in both tails (the
    same function as 0.5 (1 + tanh(x/2)), which loses it to cancellation
    for x << 0)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _effective_beta(beta):
    """Map beta=0 to the documented internal floor; reject beta < 0."""
    if beta < 0:
        raise InvalidFormFactorError(f"negative inverse temperature {beta}")
    return max(float(beta), _MIN_BETA)


# --------------------------------------------------------------------------
# form factors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FormFactor:
    """f(x) = sum w |x|^(2p-1) exp(-C x^2) with p >= 1 integer, C > 0."""

    terms: tuple  # of (weight: complex, exponent_p: int, decay_c: float)

    def __post_init__(self):
        if len(self.terms) == 0:
            raise InvalidFormFactorError("form factor needs at least one term")
        clean = []
        for (w, p, c) in self.terms:
            if p != int(p):
                raise InvalidFormFactorError(
                    f"exponent p={p} must be an integer (z^(2p) must stay entire)"
                )
            p = int(p)
            c = float(c)
            if p < 1:
                raise InvalidFormFactorError(f"exponent p={p} must be >= 1")
            if not c > 0:
                raise InvalidFormFactorError(f"decay C={c} must be positive")
            clean.append((complex(w), p, c))
        object.__setattr__(self, "terms", tuple(clean))

    @property
    def is_real(self):
        return all(abs(w.imag) == 0.0 for (w, _, _) in self.terms)

    @property
    def min_decay(self):
        return min(c for (_, _, c) in self.terms)

    def __call__(self, x):
        """Evaluate f on |x| (the defining half-line formula)."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        out = np.zeros(ax.shape, dtype=complex)
        for (w, p, c) in self.terms:
            out += w * ax ** (2 * p - 1) * np.exp(-c * ax**2)
        return out if out.shape else complex(out)

    def l2_norm(self):
        """L2 norm of f on (0, infinity)."""
        return float(np.sqrt(_l2_inner(self, self).real))


def _gauss_cutoff(c_min, margin=1.2):
    """Half-width X with exp(-c_min X^2) below 1e-16 of the peak."""
    return margin * np.sqrt(37.0 / c_min)


def _density_cutoff(ff, beta, eps):
    """Half-width X past which f^(beta)(x + eps) is negligible: the Gaussian
    cutoff, widened by the Fermi factor's shift beta/(2 C_min) and by |eps|."""
    return _gauss_cutoff(ff.min_decay) + beta / (2.0 * ff.min_decay) + abs(eps)


def _l2_inner(f1, f2):
    """<f1, f2> on (0, infinity), exactly: every pair of terms contributes
    int_0^inf x^(2a-1) e^(-c x^2) dx = Gamma(a) / (2 c^a), a = p+q-1/2, c = c1+c2."""
    total = 0j
    for (w1, p1, c1) in f1.terms:
        for (w2, p2, c2) in f2.terms:
            a = p1 + p2 - 0.5
            total += np.conj(w1) * w2 * math.gamma(a) / (2.0 * (c1 + c2) ** a)
    return total


@dataclass(frozen=True)
class ReservoirSpec:
    """Inverse temperature, coupling, form factors, and coupling matrices.

    `couplings` must be closed under conjugate transpose (the interaction
    Hamiltonian is self-adjoint).  `orthogonal`, computed and never passed,
    records whether the form factors are pairwise L2-orthogonal; the
    closed-form generator of ``lindblad.reservoir_lindbladian`` is only valid
    when it holds, and it raises NonOrthogonalFamilyError otherwise.
    """

    beta: float
    lam: float
    form_factors: tuple
    couplings: tuple
    gks_jumps: tuple = None
    orthogonal: bool = field(init=False)

    def __post_init__(self):
        if self.gks_jumps is not None:
            jumps = tuple(np.asarray(v, dtype=complex) for v in self.gks_jumps)
            object.__setattr__(self, "gks_jumps", jumps)
            object.__setattr__(self, "form_factors", tuple(self.form_factors or ()))
            object.__setattr__(self, "couplings", tuple(self.couplings or ()))
            object.__setattr__(self, "orthogonal", False)
            return
        _effective_beta(self.beta)
        ffs = tuple(self.form_factors)
        qs = tuple(np.asarray(q, dtype=complex) for q in self.couplings)
        if len(ffs) == 0 or len(ffs) != len(qs):
            raise InvalidFormFactorError(
                f"{len(ffs)} form factors vs {len(qs)} coupling matrices"
            )
        for q in qs:
            adj = q.conj().T
            if min(np.linalg.norm(adj - q2, "fro") for q2 in qs) > 1e-12:
                raise InvalidFormFactorError(
                    "coupling family not closed under conjugate transpose"
                )
        object.__setattr__(self, "form_factors", ffs)
        object.__setattr__(self, "couplings", qs)
        object.__setattr__(self, "orthogonal", _verify_orthogonality(ffs))

    def require_orthogonal(self):
        if not self.orthogonal:
            raise NonOrthogonalFamilyError(
                "closed-form coefficients need pairwise L2-orthogonal form factors"
            )


def _verify_orthogonality(ffs, rel_tol=1e-8):
    return all(abs(_l2_inner(f, g)) <= rel_tol * f.l2_norm() * g.l2_norm()
               for f, g in itertools.combinations(ffs, 2))


# --------------------------------------------------------------------------
# glued functions and spectral density
# --------------------------------------------------------------------------

def glued_g_continued(ff, beta, z):
    """Analytic continuation of g off the real axis.

    Uses g(z) = sum w z^{2p} e^{-C z^2} (1+e^{-beta z})^{-1/2} continued
    from Re z >= 0, and the conjugate-weight formula from Re z < 0.  For
    real weights the two branches agree and g is analytic on the strip
    |Im z| < pi/beta.
    """
    beta = _effective_beta(beta)
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        root = 1.0 / np.sqrt(1.0 + np.exp(-beta * z))
        if not np.all(np.isfinite(root)):  # e^{-beta z} overflowed off the real axis
            root = np.where(np.isfinite(root), root,
                            np.exp(0.5 * beta * z) / np.sqrt(np.exp(beta * z) + 1.0))
        out = np.zeros(z.shape, dtype=complex)
        for (w, p, c) in ff.terms:
            weight = np.where(z.real >= 0, w, np.conj(w))
            out += weight * z ** (2 * p) * np.exp(-c * z**2)
        out = out * root
    return out if out.shape else complex(out)


def _powers(s, p_max):
    """[s, s^2, ..., s^p_max] by repeated multiplication."""
    powers = [s]
    for _ in range(p_max - 1):
        powers.append(powers[-1] * s)
    return powers


def spectral_density(ff, beta, x):
    """Thermal density f^(beta)(x) = 4 pi |x f(|x|)|^2 / (1 + e^{-beta x}).

    |x f(|x|)| = |sum w s^p e^{-C s}| with s = x^2, so the sum takes its
    integer powers of s by multiplication and one exp per distinct decay C.
    Real weights keep it real and square it; complex weights take |.|^2 of
    the complex sum.  :meth:`FormFactor.__call__` is the literal definition
    the tests compare against.
    """
    beta = _effective_beta(beta)
    x = np.asarray(x, dtype=float)
    s = x * x
    powers = _powers(s, max(p for (_, p, _) in ff.terms))
    real = ff.is_real
    amp = 0.0
    for c in dict.fromkeys(c for (_, _, c) in ff.terms):
        poly = sum((w.real if real else w) * powers[p - 1]
                   for (w, p, d) in ff.terms if d == c)
        amp = amp + poly * np.exp(-c * s)
    square = amp * amp if real else amp.real * amp.real + amp.imag * amp.imag
    out = 4.0 * np.pi * square * _logistic(beta * x)
    return out if out.shape else float(out)


def rate_coefficient(ff, beta, eps):
    """Jump rate c = pi * f^(beta)(eps) >= 0."""
    return float(np.pi * spectral_density(ff, beta, eps))


# --------------------------------------------------------------------------
# strip analyticity (integrability along horizontal lines)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticityReport:
    verdict: str              # "finite" | "exceeds-bound"
    r_max: float
    n_lines: int
    max_line_value: float
    argmax_y: float
    lines: tuple              # of (y, integral value)
    crosscheck_rel_err: float  # Simpson vs adaptive at y = 0
    bound_ceiling: float
    notes: str = ""

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "r_max": self.r_max,
            "n_lines": self.n_lines,
            "max_line_value": self.max_line_value,
            "argmax_y": self.argmax_y,
            "lines": [[y, v] for (y, v) in self.lines],
            "crosscheck_rel_err": self.crosscheck_rel_err,
            "bound_ceiling": self.bound_ceiling,
            "notes": self.notes,
        }


def _line_integrand(ff, beta, y):
    """x -> (|g(z)| + |e^{-beta z/2} g#(z)|)^2 on the line z = x + iy, in real arithmetic.

    With P(z) = sum w z^{2p} e^{-C z^2}, its weights conjugated where x < 0
    (the branch rule of :func:`glued_g_continued`), and g#(z) = i conj(g(-conj z)),

        |g(z)|                = |P(z)| |1 + e^{-beta z}|^{-1/2},
        |e^{-beta z/2} g#(z)| = e^{-beta x/2} |P(-conj z)| |1 + e^{beta z}|^{-1/2},

    and |P(-conj z)| = |P(z)|: off x = 0 both take the same weights, and at
    x = 0, where g# takes the conjugate ones, z^2 = -y^2 is real, so the two
    sums are complex conjugates.  The Fermi moduli and |P(z)| come from the
    real forms in the module docstring, integer powers by multiplication, so
    a family with one decay takes no complex exp, sqrt or pow.  e^{-beta x/2}
    stays a separate factor: where it overflows and |P| underflows (a cold
    reservoir) the product is nan, and the line reads inf.
    """
    c0 = ff.min_decay
    p_max = max(p for (_, p, _) in ff.terms)
    cos_by, sin_by = math.cos(beta * y), math.sin(beta * y)
    branch = not ff.is_real

    def h(x):
        x = np.asarray(x, dtype=float)
        z = x + 1j * y
        s = z * z
        powers = _powers(s, p_max)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            total = 0.0
            for (w, p, c) in ff.terms:
                weight = np.where(x < 0, w.conjugate(), w) if branch else w.real
                term = weight * powers[p - 1]
                total = total + (term if c == c0 else term * np.exp(-(c - c0) * s))
            modulus = np.abs(total) * np.exp(-c0 * s.real)
            half = np.exp(-0.5 * beta * x)              # e^{-beta x/2}
            down = half * half                          # e^{-beta x}
            up = 1.0 / down                             # e^{beta x}
            fermi_g = np.hypot(1.0 + down * cos_by, down * sin_by)
            fermi_gs = np.hypot(1.0 + up * cos_by, up * sin_by)
            # non-finite (inf, or inf * 0 where half overflows) reads as inf
            return (modulus * (1.0 / np.sqrt(fermi_g) + half / np.sqrt(fermi_gs))) ** 2
    return h


def _line_cutoff(ff, beta, y):
    # The e^{-beta x/2} weight shifts the Gaussian peak; widen accordingly.
    c = ff.min_decay
    shift = beta / (4.0 * c)
    return 1.5 * (shift + np.sqrt(shift**2 + 37.0 / c)) + abs(y)


def strip_analyticity_ladder(form_factors, beta, radii, n_lines=9, bound_ceiling=1e12):
    """Sample sup_{|y|<r} int (|g(x+iy)| + |e^{-beta(x+iy)/2} g#(x+iy)|)^2 dx
    for every form factor at each half-width r in `radii`.

    Each line is integrated over a Gaussian tail cutoff by an adaptive
    composite 20-node Gauss-Legendre rule: 64 equal panels to start, each
    panel compared with the sum over its halves and bisected until it
    meets an equal share of a 1e-12 relative tolerance.  A line whose
    summed error estimate exceeds max(1e-6 |value|, 1e-10), or that hits
    the refinement cap, raises QuadratureNonConvergence; a line that
    overflows reads inf.  The y=0 line is recomputed on a fixed Simpson
    grid as an independent cross-check: on a finite line within
    `bound_ceiling` the two must agree to 1e-6 relative, or
    DisagreementBetweenRules is raised.  A value above `bound_ceiling`
    (or non-finite) gives the verdict "exceeds-bound", not an exception.

    Returns one tuple of reports (one per form factor) per rung, in order,
    and stops after the first rung at which some report is not "finite":
    no line beyond that rung is integrated.  A rung's lines are y = 0, the
    n_lines // 2 negative values of linspace(-r, r, n_lines) (times
    1 - 1e-12) and their exact negations.  A line shared by several rungs
    is integrated once per form factor, and the y=0 Simpson cross-check
    runs once per form factor, so each report equals that of a one-rung
    ladder at its half-width.  For real weights the integrand is even in
    y (g(conj z) = conj g(z)), so the line at +y takes the value of the
    line at -y and only one line per |y| is integrated.
    """
    beta = _effective_beta(beta)
    line_values = [{} for _ in form_factors]     # per form factor: y -> integral
    rel_errs = [None] * len(form_factors)
    rungs = []
    for r_max in radii:
        if not r_max > 0:
            raise InvalidFormFactorError(f"strip half-width r_max={r_max} must be > 0")
        below = np.linspace(-r_max, r_max, n_lines)[:n_lines // 2] * (1.0 - 1e-12)
        ys = [float(y) for y in np.concatenate([below, [0.0], -below[::-1]])]
        notes = ""
        if r_max >= np.pi / beta:
            notes = (f"strip reaches the branch line |Im z| = pi/beta = {np.pi/beta:.6g}; "
                     "values beyond it use the principal square-root branch")
        reports = []
        for i, ff in enumerate(form_factors):
            values = line_values[i]
            for y in ys:                  # ascending, so -y is done before y > 0
                if y not in values:
                    values[y] = (values[-y] if y > 0 and ff.is_real
                                 else _line_integral(ff, beta, y, bound_ceiling))
            if rel_errs[i] is None:
                rel_errs[i] = _simpson_rel_err(ff, beta, values[0.0], bound_ceiling)
            vals = np.array([values[y] for y in ys])
            k = int(np.argmax(vals))
            exceeded = bool(np.any(~np.isfinite(vals) | (vals > bound_ceiling)))
            reports.append(AnalyticityReport(
                verdict="exceeds-bound" if exceeded else "finite",
                r_max=float(r_max),
                n_lines=len(ys),
                max_line_value=float(vals[k]),
                argmax_y=ys[k],
                lines=tuple((y, values[y]) for y in ys),
                crosscheck_rel_err=rel_errs[i],
                bound_ceiling=float(bound_ceiling),
                notes=notes,
            ))
        rungs.append(tuple(reports))
        if any(rep.verdict != "finite" for rep in reports):
            break
    return rungs


def _simpson_rel_err(ff, beta, ref, bound_ceiling):
    """Independent fixed-grid Simpson value of the y=0 line, relative to `ref`.

    On a finite line within `bound_ceiling` the two rules must agree to
    _SIMPSON_REL_TOL, or DisagreementBetweenRules is raised; a non-finite
    `ref` has no relative error (nan).
    """
    if not np.isfinite(ref):
        return float("nan")
    x_max = _line_cutoff(ff, beta, 0.0)
    grid = np.linspace(-x_max, x_max, 4097)
    y = _line_integrand(ff, beta, 0.0)(grid)
    # composite Simpson: weights 1, 4, 2, 4, ..., 2, 4, 1 times dx/3
    simpson_val = (2.0 * x_max / 4096) / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                                                 + 2.0 * y[2:-1:2].sum())
    rel_err = float(abs(simpson_val - ref) / max(abs(ref), 1e-300))
    if ref <= bound_ceiling and not rel_err <= _SIMPSON_REL_TOL:
        raise DisagreementBetweenRulesError(
            f"y=0 line: Simpson {simpson_val!r} vs Gauss-Legendre {ref!r} "
            f"(relative gap {rel_err:.3e})"
        )
    return rel_err


def _gauss_legendre(h, left, width):
    """The 20-node Gauss-Legendre value of h on each panel [left, left + width],
    from one call of h on every node."""
    x = left[:, None] + (0.5 * width)[:, None] * (1.0 + _GL_NODES)
    return 0.5 * width * (h(x.ravel()).reshape(x.shape) @ _GL_WEIGHTS)


def _adaptive_gauss_legendre(h, edges):
    """Adaptive composite 20-node Gauss-Legendre integral of h over [edges[0], edges[-1]].

    The panels start as the intervals between consecutive `edges`.  Each
    open panel is compared with the sum over its two halves; a panel whose
    gap meets an equal share (one over the number of panels still open) of
    _GL_REL_TOL times the running total is accepted with the halves' sum,
    the others are bisected.  (A share by width stalls at roundoff on a
    peak a few 1e-3 wide.)  All open panels of one level are evaluated in
    one call of h, which may be complex (the gap is a modulus, so both
    parts refine together).  Returns (value, summed gap of the accepted
    panels, capped); `capped` is True when panels are still open after
    _GL_MAX_LEVELS bisections or number more than _GL_MAX_OPEN, and the
    value then includes their last estimate.  A non-finite evaluation
    anywhere (inf, or inf * 0 inside h) gives (inf, inf, False).
    """
    edges = np.asarray(edges, dtype=float)
    left, width = edges[:-1], np.diff(edges)
    whole = _gauss_legendre(h, left, width)
    val = err = 0.0
    for _ in range(_GL_MAX_LEVELS):
        half = 0.5 * width
        lo, hi = np.split(_gauss_legendre(h, np.concatenate([left, left + half]),
                                          np.concatenate([half, half])), 2)
        fine = lo + hi
        with np.errstate(invalid="ignore"):
            gap = np.abs(fine - whole)
        if not np.all(np.isfinite(gap)):
            return np.inf, np.inf, False
        ok = gap <= _GL_REL_TOL * abs(val + fine.sum()) / width.size
        val += fine[ok].sum()
        err += gap[ok].sum()
        bisect = ~ok
        left = np.concatenate([left[bisect], left[bisect] + half[bisect]])
        width = np.concatenate([half[bisect], half[bisect]])
        whole = np.concatenate([lo[bisect], hi[bisect]])
        if not 0 < left.size <= _GL_MAX_OPEN:
            break
    return val + whole.sum(), err, bool(left.size)


def _line_integral(ff, beta, y, bound_ceiling):
    """Adaptive composite Gauss-Legendre integral of the strip integrand along Im z = y.

    The cutoff interval starts as _GL_PANELS equal panels
    (:func:`_adaptive_gauss_legendre`).  Overflow gives inf.  A finite
    value within `bound_ceiling` raises QuadratureNonConvergence when its
    summed gap exceeds max(1e-6 |value|, 1e-10), or when the refinement
    cap is reached.
    """
    x_max = _line_cutoff(ff, beta, y)
    val, err, capped = _adaptive_gauss_legendre(
        _line_integrand(ff, beta, y), np.linspace(-x_max, x_max, _GL_PANELS + 1))
    val = float(val)
    if capped:
        err = np.inf
    if np.isfinite(val) and val <= bound_ceiling and not err <= max(1e-6 * abs(val), 1e-10):
        raise QuadratureNonConvergenceError(
            f"line y={y:.4g}: Gauss-Legendre error estimate {err:.3e} for value {val:.6e}"
            + (" (refinement cap reached)" if capped else "")
        )
    return val


# --------------------------------------------------------------------------
# principal-value coefficient (two independent rules), regularized resolvent
# --------------------------------------------------------------------------

def _pv_contour(ff, beta, eps):
    """Rule A: PV int f^(beta)(x + eps)/x dx by a trapezoid sum on Im z = -a.

    With P(z) = sum w z^{2p} e^{-C z^2} and Pbar the same sum with the
    conjugate weights, f^(beta)(z) = 4 pi P(z) Pbar(z) (1 + tanh(beta z/2))/2
    is the density on the real axis (for complex weights too, since
    z^{2p} = |x|^{2p} there) and is analytic on |Im z| < pi/beta.  Moving
    the line below the pole of 1/z adds i pi f^(beta)(eps), which is
    imaginary, so the PV is the real part of the line integral.  The line
    sits at a = min(pi/(2 beta), 1/sqrt(2 C_max)): midway to the poles of
    tanh, but no lower than where e^{-2 C z^2} grows by e, which would
    cost accuracy to cancellation.  The spacing h = min(0.05, a/8) puts the
    discretization error near e^{-2 pi a/h} <= e^{-50}.  The same sum over
    every second node (spacing 2h) must agree within max(1e-8 |value|,
    1e-9), else QuadratureNonConvergence.
    """
    c_max = max(c for (_, _, c) in ff.terms)
    a = min(np.pi / (2.0 * beta), 1.0 / np.sqrt(2.0 * c_max))
    h = min(0.05, a / 8.0)
    x_max = _density_cutoff(ff, beta, eps)
    n = int(np.ceil(x_max / h))
    z = h * np.arange(-n, n + 1) - 1j * a
    w = z + eps
    parts = [(c, w ** (2 * q), np.exp(-d * w * w)) for (c, q, d) in ff.terms]
    p = sum(c * power * decay for (c, power, decay) in parts)
    p_bar = sum(np.conj(c) * power * decay for (c, power, decay) in parts)
    terms = 2.0 * np.pi * p * p_bar * (1.0 + np.tanh(0.5 * beta * w)) / z
    val = h * terms.sum().real
    coarse = 2.0 * h * terms[n % 2::2].sum().real         # every second node, x = 0 kept
    if abs(val - coarse) > max(1e-8 * abs(val), 1e-9):
        raise QuadratureNonConvergenceError(
            f"contour rule: spacing h and 2h differ by {abs(val - coarse):.3e} at eps={eps}")
    return float(val)


def pv_coefficient(ff, beta, eps):
    """d = PV int_R f^(beta)(x + eps) / x dx  (Cauchy principal value at 0).

    Rule A: trapezoid sum on a line below the real axis (:func:`_pv_contour`).
    Rule B: symmetric-difference form int_0^X (F(x) - F(-x))/x dx on a
    midpoint grid with one Richardson extrapolation step (O(h^4)).
    The two must agree to 1e-7 relative (with a small absolute floor)
    or DisagreementBetweenRules is raised.

    This function is the single home of the principal-part convention.
    """
    beta = _effective_beta(beta)
    x_max = _density_cutoff(ff, beta, eps)

    def f_shift(x):
        return spectral_density(ff, beta, x + eps)

    val_a = _pv_contour(ff, beta, eps)

    def midpoint_sym(n):
        h = x_max / n
        x = (np.arange(n) + 0.5) * h
        return float(np.sum((f_shift(x) - f_shift(-x)) / x) * h)

    n0 = 4096
    coarse, fine = midpoint_sym(n0), midpoint_sym(2 * n0)
    val_b = (4.0 * fine - coarse) / 3.0

    # Relative agreement, with an absolute floor tied to the density's
    # magnitude so near-cancelling (odd) cases don't trip on roundoff.
    peak = float(np.max(f_shift(np.linspace(-x_max, x_max, 513))))
    floor = 1e-9 * max(1.0, peak)
    if abs(val_a - val_b) > max(_PV_REL_TOL * max(abs(val_a), abs(val_b)), floor):
        raise DisagreementBetweenRulesError(
            f"PV rules disagree at eps={eps}: {val_a!r} vs {val_b!r}"
        )
    return float(val_a)


def _scalar_resolvent(ff, beta, eps_p, eps_reg):
    """w = int f^(beta)(p) / (eps_reg + i(eps_p + p)) dp for eps_reg > 0 (the oracle's).

    With t = eps_p + p folded onto t >= 0 and F+- = f^(beta)(+-t - eps_p),

        w = int_0^X [(F+ + F-) eps_reg - i t (F+ - F-)] / (eps_reg^2 + t^2) dt,

    one complex integral whose Poisson (real) and conjugate-Poisson
    (imaginary) parts share the density samples; X is the density cutoff.
    The adaptive panels start on [0, geomspace(min(eps_reg, X/2), X, 8)], a
    scale-invariant grading for eps_reg/(eps_reg^2 + t^2).  An error
    estimate above max(1e-9 |w|, 1e-9) or the refinement cap raises
    QuadratureNonConvergence.  The line stays on the real axis, so it
    shares nothing with the contour rule of :func:`pv_coefficient`.
    """
    beta = _effective_beta(beta)
    x_max = _density_cutoff(ff, beta, eps_p)

    def kernel(t):
        up = spectral_density(ff, beta, t - eps_p)
        down = spectral_density(ff, beta, -t - eps_p)
        return ((up + down) * eps_reg - 1j * t * (up - down)) / (eps_reg**2 + t * t)

    edges = np.concatenate([[0.0], np.geomspace(min(eps_reg, 0.5 * x_max), x_max, 8)])
    val, err, capped = _adaptive_gauss_legendre(kernel, edges)
    if capped or not err <= max(1e-9 * abs(val), 1e-9):
        raise QuadratureNonConvergenceError(
            f"resolvent integral error {err:.3e} at eps'={eps_p}, reg={eps_reg}"
            + (" (refinement cap reached)" if capped else ""))
    return complex(val)
