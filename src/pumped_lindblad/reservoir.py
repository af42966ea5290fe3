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
convention is isolated in :func:`pv_coefficients`, so swapping conventions
is a one-line change there.

For real weights w_i the glued g extends to a single analytic function

    g(z) = P(z) (1 + e^{-beta z})^{-1/2},   P(z) = sum_i w_i z^{2 p_i} e^{-C_i z^2},

on the strip |Im z| < pi/beta (the square root stays on its principal
branch there); the tests' ``glued_g_continued`` evaluates this
definition.  The strip-integrability check samples
(|g(z)| + |e^{-beta z/2} g#(z)|)^2 on horizontal lines z = x + iy, and
only moduli enter it, so its integrand
takes one |P(z)| per node and two Fermi moduli from real exponentials:

    |g(z)|                = |P(z)| |1 + e^{-beta z}|^{-1/2},
    |e^{-beta z/2} g#(z)| = e^{-beta x/2} |P(z)| |1 + e^{beta z}|^{-1/2},
    |1 + e^{-+beta z}|    = hypot(1 + e^{-+beta x} cos(beta y), e^{-+beta x} sin(beta y)),
    |P(z)|                = e^{-C0 (x^2 - y^2)} |sum_i w_i (z^2)^{p_i} e^{-(C_i - C0) z^2}|,

with C0 = min C_i (see :func:`_line_integrand`).  For real weights the
integrand is even in y, so a ladder integrates one line per |y|.

One adaptive engine does every real-axis integral here
(:func:`_adaptive_gauss_legendre`): composite 20-node Gauss-Legendre
panels, each compared with its two halves against a 1e-12 relative
tolerance, for a stack of integrals that each refine on their own while
all open panels of all of them are evaluated in one vectorized integrand
call per level.  Every horizontal line of a strip-analyticity ladder is
one integral of a single stack per form factor, and a fixed composite
Simpson grid on the line y = 0 is its independent cross-check.  The
resolvent oracle stacks every regularized resolvent of a channel, each
one complex integral on a graded mesh, over its whole regularization
ladder (:func:`_scalar_resolvent`).

The PV coefficient has two rules.  Rule A is a trapezoid sum on a line
below the real axis (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)):
f^(beta) continues analytically to |Im z| < pi/beta, so the line may pass
below the pole of 1/x, and the trapezoid rule converges exponentially
there.  Rule B, the symmetric difference integrated on the real axis by
the adaptive engine (all frequencies of a channel in one stack), is its
cross-check.  Everything here is numpy; QUADPACK is only the unit tests'
oracle.
"""

import itertools
import math
from dataclasses import dataclass

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
    "pv_coefficients",
    "rate_coefficient",
    "spectral_density",
    "strip_analyticity_ladder",
]

_MIN_BETA = 1e-12
_PV_REL_TOL = 1e-7   # the two PV rules must agree to this, relative
_PV_CHUNK = 2**16      # rule A nodes evaluated at once: bounds its memory
_PV_MAX_NODES = 2**22  # rule A's node cap: bounds its time (64 chunks)
_ORTHOGONAL_REL_TOL = 1e-8  # |<f, g>| <= this times ||f|| ||g|| counts as orthogonal

# Adaptive quadrature: 20-node Gauss-Legendre panels (16 to start on a strip
# line), bisected until each meets its share of _GL_REL_TOL.  The caps bound
# each integral's depth and number of open panels (and so the memory of one
# integrand call, per integral of a stack).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL_PANELS = 16
_GL_REL_TOL = 1e-12
_GL_MAX_LEVELS = 20
_GL_MAX_OPEN = 4096
_SIMPSON_REL_TOL = 1e-6  # the y=0 Simpson cross-check must agree to this
_STRIP_LINES = 5         # sampled lines per strip half-width: y = 0, +-r/2, +-r
_STRIP_BOUND = 1e12      # a line integral above this reads "exceeds-bound"


def _logistic(x):
    """1 / (1 + e^{-x}) with full relative accuracy in both tails (the
    same function as 0.5 (1 + tanh(x/2)), which loses it to cancellation
    for x << 0)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _effective_beta(beta):
    """Map beta=0 to the documented internal floor; reject beta < 0, inf and nan."""
    if not 0 <= beta < math.inf:
        raise InvalidFormFactorError(f"inverse temperature {beta} must be finite and >= 0")
    return max(float(beta), _MIN_BETA)


# --------------------------------------------------------------------------
# form factors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FormFactor:
    """f(x) = sum w |x|^(2p-1) exp(-C x^2) with p >= 1 integer, finite w and C > 0."""

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
            w, p, c = complex(w), int(p), float(c)
            if p < 1:
                raise InvalidFormFactorError(f"exponent p={p} must be >= 1")
            if not 0 < c < math.inf:
                raise InvalidFormFactorError(f"decay C={c} must be positive and finite")
            if not np.isfinite(w):
                raise InvalidFormFactorError(f"weight w={w} must be finite")
            clean.append((w, p, c))
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


def _gauss_cutoff(c_min):
    """Half-width X with exp(-c_min X^2) below 1e-16 of the peak, times a 1.2 margin."""
    return 1.2 * np.sqrt(37.0 / c_min)


def _density_cutoff(ff, eps):
    """Half-width X past which f^(beta)(x + eps) is negligible at every beta: the
    Gaussian cutoff widened by |eps| (the Fermi factor lies in [0, 1])."""
    return _gauss_cutoff(ff.min_decay) + abs(eps)


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
    Hamiltonian is self-adjoint).  A non-finite `lam` or matrix entry raises
    InvalidFormFactorError.  The closed-form generator of
    ``lindblad.reservoir_lindbladian`` needs pairwise L2-orthogonal form
    factors, so a family that is not raises NonOrthogonalFamilyError here.
    """

    beta: float
    lam: float
    form_factors: tuple
    couplings: tuple
    gks_jumps: tuple = None

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise InvalidFormFactorError(f"coupling constant lambda={self.lam} must be finite")
        if self.gks_jumps is not None:
            jumps = tuple(np.asarray(v, dtype=complex) for v in self.gks_jumps)
            _require_finite("GKS jump", jumps)
            object.__setattr__(self, "gks_jumps", jumps)
            object.__setattr__(self, "form_factors", tuple(self.form_factors or ()))
            object.__setattr__(self, "couplings", tuple(self.couplings or ()))
            return
        _effective_beta(self.beta)
        ffs = tuple(self.form_factors)
        qs = tuple(np.asarray(q, dtype=complex) for q in self.couplings)
        _require_finite("coupling matrix", qs)
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
        if not _verify_orthogonality(ffs):
            raise NonOrthogonalFamilyError(
                "closed-form coefficients need pairwise L2-orthogonal form factors"
            )
        object.__setattr__(self, "form_factors", ffs)
        object.__setattr__(self, "couplings", qs)


def _require_finite(what, matrices):
    if not all(np.isfinite(m).all() for m in matrices):
        raise InvalidFormFactorError(f"a {what} has a non-finite entry")


def _verify_orthogonality(ffs):
    return all(abs(_l2_inner(f, g)) <= _ORTHOGONAL_REL_TOL * f.l2_norm() * g.l2_norm()
               for f, g in itertools.combinations(ffs, 2))


# --------------------------------------------------------------------------
# glued functions and spectral density
# --------------------------------------------------------------------------

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
    """Jump rate c = pi * f^(beta)(eps) >= 0 at a finite frequency eps."""
    if not math.isfinite(eps):
        raise InvalidFormFactorError(f"frequency eps={eps} must be finite")
    return float(np.pi * spectral_density(ff, beta, eps))


# --------------------------------------------------------------------------
# strip analyticity (integrability along horizontal lines)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticityReport:
    verdict: str              # "finite" | "exceeds-bound"
    max_line_value: float
    lines: tuple              # of (y, integral value)
    crosscheck_rel_err: float  # Simpson vs adaptive at y = 0
    notes: str = ""


def _line_integrand(ff, beta, y):
    """x -> (|g(z)| + |e^{-beta z/2} g#(z)|)^2 on the line z = x + iy, in real arithmetic.

    `y` is one value or an array that broadcasts against x (one line per
    row of x in the ladder's stacked call).  With P(z) = sum w z^{2p} e^{-C z^2},
    its weights conjugated where x < 0 (the branch rule of the glued g's
    continuation), and g#(z) = i conj(g(-conj z)),

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
    cos_by, sin_by = np.cos(beta * y), np.sin(beta * y)
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


def strip_analyticity_ladder(form_factors, beta, radii):
    """Sample sup_{|y|<r} int (|g(x+iy)| + |e^{-beta(x+iy)/2} g#(x+iy)|)^2 dx
    for every form factor at each half-width r in `radii`.

    A rung's _STRIP_LINES = 5 lines are y = 0, the two negative values of
    linspace(-r, r, 5) (times 1 - 1e-12) and their exact negations.
    For real weights the integrand is even in y (g(conj z) = conj g(z)),
    so the line at +y takes the value of the line at -y and only one line
    per |y| is integrated; complex weights integrate every line.  Each
    distinct line of the whole ladder is integrated once per form factor,
    all of them in one stacked call of the adaptive composite 20-node
    Gauss-Legendre engine (:func:`_adaptive_gauss_legendre`): each line
    starts from _GL_PANELS equal panels on its Gaussian tail cutoff, each
    panel compared with the sum over its halves and bisected until it
    meets an equal share of a 1e-12 relative tolerance.  A stack of L lines
    holds at most L * _GL_MAX_OPEN open panels, so one integrand call takes
    at most 40 L _GL_MAX_OPEN nodes (each open panel's two halves).

    The ladder is then walked rung by rung, each rung form factor by form
    factor, each line in ascending y.  On first reaching a finite line
    within _STRIP_BOUND = 1e12, its summed error estimate must be at most
    max(1e-6 |value|, 1e-10), and it must not have hit the refinement cap,
    or QuadratureNonConvergence is raised; a line that overflows reads inf.
    After a form factor's lines of the first rung, its y=0 line is
    recomputed on a fixed Simpson grid as an independent cross-check: on a
    finite line within the bound the two must agree to 1e-6 relative, or
    DisagreementBetweenRules is raised.  A value above the bound (or
    non-finite) gives the verdict "exceeds-bound", not an exception.

    Returns one tuple of reports (one per form factor) per rung, in order,
    and stops after the first rung at which some report is not "finite".
    The lines beyond that rung are integrated inside the stack, but no
    verdict is applied to them: they raise nothing and are not reported.
    Each report equals that of a one-rung ladder at its half-width.  A
    half-width <= 0 raises InvalidFormFactor before any line is integrated.
    """
    beta = _effective_beta(beta)
    rung_ys = []
    for r_max in radii:
        if not r_max > 0:
            raise InvalidFormFactorError(f"strip half-width r_max={r_max} must be > 0")
        below = np.linspace(-r_max, r_max, _STRIP_LINES)[:_STRIP_LINES // 2] * (1.0 - 1e-12)
        rung_ys.append([float(y) for y in np.concatenate([below, [0.0], -below[::-1]])])
    walk = list(dict.fromkeys(y for ys in rung_ys for y in ys))
    line_stacks = []            # per form factor: y -> (value, summed gap, capped)
    for ff in form_factors:
        ys = np.array([y for y in walk if not (y > 0 and ff.is_real)])
        x_max = _line_cutoff(ff, beta, ys)
        vals, errs, capped = _adaptive_gauss_legendre(
            lambda x, k: _line_integrand(ff, beta, ys[k])(x),
            np.linspace(-x_max, x_max, _GL_PANELS + 1, axis=1))
        stack = dict(zip(ys.tolist(), zip(vals.tolist(), errs.tolist(), capped.tolist())))
        line_stacks.append({y: stack[-y if y > 0 and ff.is_real else y] for y in walk})

    def verified(y, val, err, capped):
        if capped:
            err = np.inf
        if np.isfinite(val) and val <= _STRIP_BOUND and not err <= max(1e-6 * abs(val), 1e-10):
            raise QuadratureNonConvergenceError(
                f"line y={y:.4g}: Gauss-Legendre error estimate {err:.3e} for value {val:.6e}"
                + (" (refinement cap reached)" if capped else ""))
        return val

    rel_errs = [None] * len(form_factors)
    rungs = []
    for r_max, ys in zip(radii, rung_ys):
        notes = ""
        if r_max >= np.pi / beta:
            notes = (f"strip reaches the branch line |Im z| = pi/beta = {np.pi/beta:.6g}; "
                     "values beyond it use the principal square-root branch")
        reports = []
        for i, lines in enumerate(line_stacks):
            values = [verified(y, *lines[y]) for y in ys]
            if rel_errs[i] is None:
                rel_errs[i] = _simpson_rel_err(form_factors[i], beta, lines[0.0][0])
            vals = np.array(values)
            exceeded = bool(np.any(~np.isfinite(vals) | (vals > _STRIP_BOUND)))
            reports.append(AnalyticityReport(
                verdict="exceeds-bound" if exceeded else "finite",
                max_line_value=float(np.max(vals)),
                lines=tuple(zip(ys, values)),
                crosscheck_rel_err=rel_errs[i],
                notes=notes,
            ))
        rungs.append(tuple(reports))
        if any(rep.verdict != "finite" for rep in reports):
            break
    return rungs


def _simpson_rel_err(ff, beta, ref):
    """Independent fixed-grid Simpson value of the y=0 line, relative to `ref`.

    On a finite line within _STRIP_BOUND the two rules must agree to
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
    if ref <= _STRIP_BOUND and not rel_err <= _SIMPSON_REL_TOL:
        raise DisagreementBetweenRulesError(
            f"y=0 line: Simpson {simpson_val!r} vs Gauss-Legendre {ref!r} "
            f"(relative gap {rel_err:.3e})"
        )
    return rel_err


def _gauss_legendre(h, left, width, owner):
    """The 20-node Gauss-Legendre value of each panel [left, left + width] of
    integral `owner`, from one call h(x, k): x holds each panel's nodes as a
    row, and k (one column) the panel's integral."""
    x = left[:, None] + (0.5 * width)[:, None] * (1.0 + _GL_NODES)
    return 0.5 * width * (h(x, owner[:, None]) @ _GL_WEIGHTS)


def _adaptive_gauss_legendre(h, edges, floor=0.0):
    """Adaptive composite 20-node Gauss-Legendre integrals of a stack.

    Row i of the 2-D `edges` holds the starting panel edges of integral i.
    The integrand h(x, k) takes the nodes x of many panels at once, one
    panel a row, with the column k naming each row's integral, and returns
    its values in the shape of x.

    Each integral refines on its own.  Each of its open panels is compared
    with the sum over its two halves.  A panel whose gap meets an equal
    share (one over the number of that integral's panels still open) of
    the larger of _GL_REL_TOL times the integral's running total and its
    absolute `floor` (0 by default; one value, or one per integral) is
    accepted with the halves' sum; the others are bisected.  (A share by
    width stalls at roundoff on a peak a few 1e-3 wide.)  All open panels
    of all integrals are evaluated in one call of h per level; h may be
    complex (the gap is a modulus, so both parts refine together).  An
    integral's panels, taken in stack order, are in the order a stack of
    one would hold them (its lower halves, then its upper halves), and its
    sums run over them alone, so its arithmetic does not depend on the
    rest of the stack.

    Returns arrays (values, summed gaps of the accepted panels, capped),
    one entry per integral.  An integral is capped when it still has open
    panels after _GL_MAX_LEVELS bisections or more than _GL_MAX_OPEN of
    them; its value then includes their last estimate.  A non-finite
    evaluation anywhere in an integral (inf, or inf * 0 inside h) makes it
    read (inf, inf, False) and leaves the others as they are.  An empty
    stack returns three empty arrays.
    """
    edges = np.asarray(edges, dtype=float) if len(edges) else np.empty((0, 2))   # [] has no rows
    m = edges.shape[0]
    left, width = edges[:, :-1].ravel(), np.diff(edges, axis=1).ravel()
    owner = np.repeat(np.arange(m), edges.shape[1] - 1)
    whole = _gauss_legendre(h, left, width, owner)
    val = np.zeros(m, dtype=whole.dtype)
    err = np.zeros(m)
    capped = np.zeros(m, dtype=bool)
    floor = np.broadcast_to(floor, m)

    def close(stopped):
        # the integrals marked in `stopped` end capped, with their open panels' last estimate
        for i in np.flatnonzero(stopped):
            val[i] += whole[owner == i].sum()
        capped[stopped] = True

    for _ in range(_GL_MAX_LEVELS):
        half = 0.5 * width
        lo, hi = np.split(_gauss_legendre(h, np.concatenate([left, left + half]),
                                          np.concatenate([half, half]),
                                          np.concatenate([owner, owner])), 2)
        fine = lo + hi
        with np.errstate(invalid="ignore"):
            gap = np.abs(fine - whole)
        bisect = np.zeros(owner.size, dtype=bool)
        for i in np.flatnonzero(np.bincount(owner, minlength=m)):
            mine = owner == i
            g, f = gap[mine], fine[mine]
            if not np.all(np.isfinite(g)):
                val[i], err[i] = np.inf, np.inf
                continue
            ok = g <= max(_GL_REL_TOL * abs(val[i] + f.sum()), floor[i]) / g.size
            val[i] += f[ok].sum()
            err[i] += g[ok].sum()
            bisect[mine] = ~ok
        owner = np.concatenate([owner[bisect], owner[bisect]])
        left = np.concatenate([left[bisect], left[bisect] + half[bisect]])
        width = np.concatenate([half[bisect], half[bisect]])
        whole = np.concatenate([lo[bisect], hi[bisect]])
        crowded = np.bincount(owner, minlength=m) > _GL_MAX_OPEN
        if crowded.any():
            close(crowded)
            keep = ~crowded[owner]
            owner, left, width, whole = owner[keep], left[keep], width[keep], whole[keep]
        if not owner.size:
            break
    close(np.bincount(owner, minlength=m) > 0)
    return val, err, capped


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
    1e-9), else QuadratureNonConvergence.  Both sums run over chunks of
    _PV_CHUNK nodes, so memory stays flat in beta; the node count 2 X/h
    grows as beta (X does not depend on it, h ~ 1/beta), and above
    _PV_MAX_NODES it raises QuadratureNonConvergence before the first chunk.
    """
    c_max = max(c for (_, _, c) in ff.terms)
    a = min(np.pi / (2.0 * beta), 1.0 / np.sqrt(2.0 * c_max))
    h = min(0.05, a / 8.0)
    x_max = _density_cutoff(ff, eps)
    n = int(np.ceil(x_max / h))
    if 2 * n + 1 > _PV_MAX_NODES:
        raise QuadratureNonConvergenceError(
            f"contour rule: {2 * n + 1} nodes at eps={eps}, beta={beta} "
            f"(more than {_PV_MAX_NODES})")
    fine = coarse = 0.0
    for start in range(-n, n + 1, _PV_CHUNK):
        z = h * np.arange(start, min(start + _PV_CHUNK, n + 1)) - 1j * a
        w = z + eps
        parts = [(c, w ** (2 * q), np.exp(-d * w * w)) for (c, q, d) in ff.terms]
        p = sum(c * power * decay for (c, power, decay) in parts)
        p_bar = sum(np.conj(c) * power * decay for (c, power, decay) in parts)
        terms = 2.0 * np.pi * p * p_bar * (1.0 + np.tanh(0.5 * beta * w)) / z
        fine += terms.sum().real
        coarse += terms[start % 2::2].sum().real          # every second node, x = 0 kept
    val = h * fine
    coarse *= 2.0 * h
    if abs(val - coarse) > max(1e-8 * abs(val), 1e-9):
        raise QuadratureNonConvergenceError(
            f"contour rule: spacing h and 2h differ by {abs(val - coarse):.3e} at eps={eps}")
    return float(val)


def pv_coefficients(ff, beta, eps_values):
    """d(eps) = PV int_R f^(beta)(x + eps) / x dx  (Cauchy principal value at 0)
    for every eps in `eps_values`, as a float array.

    Rule A: trapezoid sum on a line below the real axis (:func:`_pv_contour`),
    one per eps; its values are returned.
    Rule B: the symmetric-difference form int_0^X (F(eps + x) - F(eps - x))/x dx
    on the real axis, X the (beta-free) density cutoff of that eps, for every
    eps in one stacked adaptive Gauss-Legendre call (:func:`_adaptive_gauss_legendre`,
    8 equal panels on [0, X] to start, tolerance 1e-12 relative or 1e-12 S
    absolute, S = max(1, peak of the density on [-X, X])).  A capped or
    non-finite rule B raises QuadratureNonConvergence.  The two rules must
    agree to 1e-7 relative or 1e-9 S absolute, or DisagreementBetweenRules is raised.
    A non-finite eps, like a negative or non-finite beta, raises InvalidFormFactor.

    This function is the single home of the principal-part convention.
    """
    beta = _effective_beta(beta)
    eps = np.array(eps_values, dtype=float).reshape(-1)
    if not np.isfinite(eps).all():
        raise InvalidFormFactorError(f"frequencies must be finite, got {eps.tolist()}")
    x_max = np.array([_density_cutoff(ff, e) for e in eps])
    val_a = np.array([_pv_contour(ff, beta, e) for e in eps])
    # The density's scale sets rule B's absolute tolerance and the agreement
    # floor, so a coefficient that cancels to ~0 neither stalls rule B nor
    # trips the check on roundoff.
    grid = np.linspace(-x_max, x_max, 513, axis=1) + eps[:, None]
    scale = np.maximum(1.0, spectral_density(ff, beta, grid).max(axis=1))

    def sym_diff(x, k):
        e = eps[k]
        return (spectral_density(ff, beta, e + x) - spectral_density(ff, beta, e - x)) / x

    val_b, _, capped = _adaptive_gauss_legendre(
        sym_diff, np.linspace(0.0, x_max, 9, axis=1), _GL_REL_TOL * scale)
    for e, a, b, cap, s in zip(eps.tolist(), val_a.tolist(), val_b.tolist(),
                               capped.tolist(), scale.tolist()):
        if cap or not np.isfinite(b):
            raise QuadratureNonConvergenceError(
                f"symmetric-difference rule at eps={e}: "
                + ("refinement cap reached" if cap else "non-finite value"))
        if abs(a - b) > max(_PV_REL_TOL * max(abs(a), abs(b)), 1e-9 * s):
            raise DisagreementBetweenRulesError(
                f"PV rules disagree at eps={e}: {a!r} vs {b!r}")
    return val_a


def _scalar_resolvent(ff, beta, eps_p, eps_reg):
    """w = int f^(beta)(p) / (eps_reg + i(eps_p + p)) dp for every pair of the
    equal-length arrays `eps_p` and `eps_reg` > 0 (the oracle's), as a complex array.

    With t = eps_p + p folded onto t >= 0 and F+- = f^(beta)(+-t - eps_p),

        w = int_0^X [(F+ + F-) eps_reg - i t (F+ - F-)] / (eps_reg^2 + t^2) dt,

    one complex integral whose Poisson (real) and conjugate-Poisson
    (imaginary) parts share the density samples; X is the density cutoff.
    Every pair is one integral of a single stacked adaptive call
    (:func:`_adaptive_gauss_legendre`); each starts from the panels
    [0, geomspace(min(eps_reg, X/2), X, 8)], a scale-invariant grading for
    eps_reg/(eps_reg^2 + t^2).  An error estimate above max(1e-9 |w|, 1e-9)
    or the refinement cap raises QuadratureNonConvergence.  The line stays
    on the real axis, so it shares nothing with the contour rule of
    :func:`pv_coefficients`.
    """
    beta = _effective_beta(beta)
    eps_p = np.array(eps_p, dtype=float).reshape(-1)
    eps_reg = np.array(eps_reg, dtype=float).reshape(-1)
    x_max = [_density_cutoff(ff, e) for e in eps_p]

    def kernel(t, k):
        e, r = eps_p[k], eps_reg[k]
        up = spectral_density(ff, beta, t - e)
        down = spectral_density(ff, beta, -t - e)
        return ((up + down) * r - 1j * t * (up - down)) / (r**2 + t * t)

    edges = [np.concatenate([[0.0], np.geomspace(min(r, 0.5 * x), x, 8)])
             for r, x in zip(eps_reg, x_max)]
    val, err, capped = _adaptive_gauss_legendre(kernel, edges)
    for e, r, w, gap, cap in zip(eps_p.tolist(), eps_reg.tolist(), val.tolist(),
                                 err.tolist(), capped.tolist()):
        if cap or not gap <= max(1e-9 * abs(w), 1e-9):
            raise QuadratureNonConvergenceError(
                f"resolvent integral error {gap:.3e} at eps'={e}, reg={r}"
                + (" (refinement cap reached)" if cap else ""))
    return val
