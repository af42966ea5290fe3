"""Effective reservoir generator: jumps, rates, Lamb shift, and checks.

For each level pair (j, k) and coupling channel l the jump operator is the
block

    V_{j,k}^(l) = P_j Q_l P_k ,

carrying the rate c_{j,k}^(l) = pi f_l^(beta)(E_k - E_j) >= 0 and the
principal-value coefficient d_{j,k}^(l) = PV int f_l^(beta)(x + E_k - E_j)/x dx.
The assembled generator is

    L_R = -i [H_Lamb, . ] + L_d,
    H_Lamb = -(1/2) sum_{pairs with E_j != E_k} sum_l d_{j,k}^(l) V* V,
    L_d    = (1/2) sum_{all pairs} sum_l c_{j,k}^(l) (2 V rho V* - V*V rho - rho V*V),

with H_Lamb commuting with H_at by block structure.  Both sums come from
one pass over (V, c, d) in :func:`reservoir_lindbladian`, which takes
user-supplied GKS jumps through the same loop with c = 1 and no d.

An independent route ("resolvent oracle") rebuilds L_R^(rho_reg) from the
regularized scalar integrals

    w(eps') = int f^(beta)(p) / (rho_reg + i(eps' + p)) dp ,

one per Bohr frequency eps' = E_j - E_k and channel.  Writing
Gamma = w/2, each pair contributes

    Gamma (V rho V* - V*V rho) + conj(Gamma) (V rho V* - rho V*V),

because as rho_reg -> 0 one has Re w -> pi f^(beta)(E_k - E_j) = c and
Im w -> -d (Poisson / conjugate-Poisson limits), which reproduces exactly
the c- and d-terms above.  For pairs with E_j = E_k only Re w is kept,
matching the closed form's exclusion of zero frequencies from the Lamb
sum.  Convergence is first order in rho_reg.  Each w is one complex
integral on the real axis (``reservoir._scalar_resolvent``: the adaptive
Gauss-Legendre panels of the strip check on a mesh graded at rho_reg), so
the oracle shares nothing with the contour rule of the PV coefficients.
"""

import random
from dataclasses import dataclass

import numpy as np

from .errors import GeneratorStructureError, NonHermitianError, QuadratureNonConvergenceError
from .operator_core import Superoperator, hamiltonian_lindbladian, validate_pump
from .reservoir import (
    _effective_beta,
    _scalar_resolvent,
    pv_coefficient,
    rate_coefficient,
    strip_analyticity_ladder,
)

__all__ = [
    "AssumptionReport",
    "LindbladData",
    "algebra_dimension",
    "check_assumptions",
    "commutant_dimension",
    "jump_operators",
    "reservoir_lindbladian",
    "resolvent_oracle",
]

_RATE_FLOOR = 1e-14
_COMMUTANT_TOL = 1e-10   # relative singular-value cutoff of the Sylvester stack
_GAP_FLOOR = 1e-3        # spectral gap must reach lambda^2 times this
_MODERATE_CONST = 1.0    # moderate pump: |eta| <= this times lambda^2
_ZERO_TOL = 1e-10        # |mu| below this counts as a zero eigenvalue


# --------------------------------------------------------------------------
# jump operators and closed-form coefficients
# --------------------------------------------------------------------------

def jump_operators(atom, q):
    """All nonzero blocks V_{j,k} = P_j q P_k, labelled by 1-based (j, k)."""
    q = np.asarray(q, dtype=complex)
    out = []
    for j, pj in enumerate(atom.projections, start=1):
        for k, pk in enumerate(atom.projections, start=1):
            v = pj @ q @ pk
            if np.linalg.norm(v, "fro") > _RATE_FLOOR:
                out.append((v, (j, k)))
    return out


def _pair_coefficients(atom, res):
    """Iterate (V, c, d, (j,k,l)) over channels and level pairs.

    d is None for within-level pairs (E_j == E_k); PV integrals are cached
    per (channel, energy difference).
    """
    energies = atom.energies
    cache = {}
    for l, (ff, q) in enumerate(zip(res.form_factors, res.couplings), start=1):
        for v, (j, k) in jump_operators(atom, q):
            ekj = energies[k - 1] - energies[j - 1]
            c = rate_coefficient(ff, res.beta, ekj)
            if c < _RATE_FLOOR:
                c = 0.0
            d = None
            if j != k:
                key = (l, round(ekj, 12))
                if key not in cache:
                    cache[key] = pv_coefficient(ff, res.beta, ekj)
                d = cache[key]
            yield v, c, d, (j, k, l)


def _dissipator_term(v, c):
    """Superoperator matrix of (c/2)(2 V rho V* - V*V rho - rho V*V)."""
    d = v.shape[0]
    eye = np.eye(d, dtype=complex)
    vv = v.conj().T @ v
    return c * (np.kron(np.conj(v), v)
                - 0.5 * np.kron(eye, vv)
                - 0.5 * np.kron(vv.T, eye))


@dataclass(frozen=True)
class LindbladData:
    """Assembled reservoir generator with its ingredients."""

    jumps: tuple          # of (V, rate, (j, k, l))
    lamb: np.ndarray      # H_Lamb
    l_d: Superoperator
    l_r: Superoperator
    from_gks: bool = False

    def __post_init__(self):
        d = self.l_r.dim
        eye = np.eye(d, dtype=complex)
        h = np.asarray(self.lamb)
        if np.linalg.norm(h - h.conj().T, "fro") > 1e-12 * max(1.0, np.linalg.norm(h, "fro")):
            raise NonHermitianError("Lamb shift not Hermitian")
        unital = np.linalg.norm(self.l_r.adjoint()(eye), "fro")
        if unital > 1e-12 * max(1.0, np.linalg.norm(self.l_r.matrix, 2)):
            raise GeneratorStructureError(
                f"adjoint generator does not annihilate identity: {unital:.3e}")


def reservoir_lindbladian(atom, res):
    """Assemble L_R = -i[H_Lamb, .] + L_d in one pass over (V, c, d, label).

    The form-factor route takes the level pairs of every channel, the GKS
    route the user's jumps with c = 1 and no d (so L_R = L_d).  Validates
    on construction: Hermitian Lamb shift commuting with H_at, and
    unitality of the adjoint.
    """
    d = atom.dim
    gks = res.gks_jumps is not None
    if gks:
        source = ((np.asarray(v, dtype=complex), 1.0, None, (0, 0, a))
                  for a, v in enumerate(res.gks_jumps, start=1))
    else:
        res.require_orthogonal()
        source = _pair_coefficients(atom, res)
    lamb = np.zeros((d, d), dtype=complex)
    m = np.zeros((d * d, d * d), dtype=complex)
    jumps = []
    for v, c, pv, label in source:
        if pv is not None:
            lamb -= 0.5 * pv * (v.conj().T @ v)
        if c > 0.0:
            m += _dissipator_term(v, c)
            jumps.append((v, c, label))
    l_d = Superoperator(m)
    if gks:
        return LindbladData(jumps=tuple(jumps), lamb=lamb, l_d=l_d,
                            l_r=l_d, from_gks=True)
    lamb = 0.5 * (lamb + lamb.conj().T)
    comm_norm = np.linalg.norm(lamb @ atom.h_at - atom.h_at @ lamb, "fro")
    if comm_norm > 1e-10 * max(1.0, np.linalg.norm(lamb, "fro")):
        raise GeneratorStructureError(
            f"[H_Lamb, H_at] = {comm_norm:.3e} — block structure broken")
    l_r = hamiltonian_lindbladian(lamb) + l_d
    return LindbladData(jumps=tuple(jumps), lamb=lamb, l_d=l_d, l_r=l_r)


# --------------------------------------------------------------------------
# regularized-resolvent oracle
# --------------------------------------------------------------------------

def resolvent_oracle(atom, res, eps_reg):
    """Rebuild the reservoir generator from regularized scalar resolvents.

    Independent of the closed forms: no rate or PV routine is called.  The
    diagonal (E_j = E_k) pairs keep only the real part of w, since the
    closed form's Lamb sum excludes zero frequencies.
    """
    if not eps_reg > 0:
        raise QuadratureNonConvergenceError(f"regularization {eps_reg} must be > 0")
    res.require_orthogonal()
    d = atom.dim
    eye = np.eye(d, dtype=complex)
    energies = atom.energies
    m = np.zeros((d * d, d * d), dtype=complex)
    cache = {}
    for l, (ff, q) in enumerate(zip(res.form_factors, res.couplings), start=1):
        for v, (j, k) in jump_operators(atom, q):
            eps_p = energies[j - 1] - energies[k - 1]
            key = (l, round(eps_p, 12))
            if key not in cache:
                cache[key] = _scalar_resolvent(ff, res.beta, eps_p, eps_reg)
            w = cache[key]
            if j == k:
                w = w.real + 0.0j
            gamma = 0.5 * w
            vv = v.conj().T @ v
            sandwich = np.kron(np.conj(v), v)
            m += gamma * (sandwich - np.kron(eye, vv))
            m += np.conj(gamma) * (sandwich - np.kron(vv.T, eye))
    return Superoperator(m)


# --------------------------------------------------------------------------
# commutant / irreducibility
# --------------------------------------------------------------------------

def commutant_dimension(jumps):
    """Dimension of {X : X V = V X for all V in jumps} and a basis.

    Solved as the joint nullspace of the stacked Sylvester maps
    X |-> V X - X V in vectorized form.
    """
    vs = [np.asarray(v, dtype=complex) for v in jumps]
    d = vs[0].shape[0]
    eye = np.eye(d, dtype=complex)
    rows = [np.kron(eye, v) - np.kron(v.T, eye) for v in vs]
    stack = np.vstack(rows)
    _u, s, vh = np.linalg.svd(stack)
    cutoff = _COMMUTANT_TOL * max(1.0, s[0] if s.size else 1.0)
    null_mask = np.ones(d * d, dtype=bool)
    null_mask[: s.size] = s <= cutoff
    # columns of vh^H spanning the nullspace
    basis = [vh.conj().T[:, i].reshape(d, d, order="F")
             for i in range(d * d) if null_mask[i]]
    return len(basis), basis


def algebra_dimension(jumps):
    """Dimension of the unital *-algebra generated by the jump set.

    Grown by word spanning: repeatedly right-multiply an orthonormal basis
    by the generators (and their adjoints) until the rank stabilizes.
    Irreducibility is equivalent to this reaching d^2 for *-closed sets.
    """
    vs = [np.asarray(v, dtype=complex) for v in jumps]
    d = vs[0].shape[0]
    gens = [np.eye(d, dtype=complex)] + vs + [v.conj().T for v in vs]
    basis = _orthonormalize([g.reshape(-1) for g in gens])
    for _ in range(d * d):
        words = list(basis)
        for b in basis:
            bm = b.reshape(d, d)
            for g in gens[1:]:
                words.append((bm @ g).reshape(-1))
        new_basis = _orthonormalize(words)
        if len(new_basis) == len(basis):
            break
        basis = new_basis
    return len(basis)


def _orthonormalize(vectors, tol=1e-10):
    a = np.array(vectors).T
    _u, s, _vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return [_u[:, i] for i in range(rank)]


def _block_structure_check(jumps, basis, seed=0):
    """Second look at reducibility: random self-adjoint commutant element.

    Draw S = sum g_i B_i over the commutant basis, Hermitize, and verify S
    stays in the commutant; its eigenvalue clusters define the invariant
    blocks.  A one-dimensional commutant forces S to be scalar (single
    cluster); otherwise the eigenspaces of S are invariant under every
    jump, which is verified directly.
    """
    draw = random.Random(seed)
    d = basis[0].shape[0]
    coeff = [complex(draw.gauss(0.0, 1.0), draw.gauss(0.0, 1.0)) for _ in basis]
    s_raw = sum(c * b for c, b in zip(coeff, basis))
    s = 0.5 * (s_raw + s_raw.conj().T)
    in_comm = max(
        np.linalg.norm(s @ np.asarray(v) - np.asarray(v) @ s, "fro") for v in jumps
    )
    if in_comm > 1e-8 * max(1.0, np.linalg.norm(s, "fro")):
        return {"applicable": False, "notes": "commutant not *-closed"}
    w, u = np.linalg.eigh(s)
    scale = max(1.0, float(np.max(np.abs(w))))
    clusters = 1 + int(np.sum(np.diff(w) > 1e-8 * scale))
    # eigenspace invariance under the jumps (only meaningful when > 1 block)
    defect = 0.0
    start = 0
    bounds = [i + 1 for i in range(len(w) - 1) if w[i + 1] - w[i] > 1e-8 * scale]
    for end in bounds + [len(w)]:
        block = u[:, start:end]
        proj = block @ block.conj().T
        comp = np.eye(d) - proj
        for v in jumps:
            defect = max(defect, np.linalg.norm(comp @ np.asarray(v) @ proj, "fro"))
        start = end
    return {
        "applicable": True,
        "n_blocks": clusters,
        "invariance_defect": float(defect),
    }


# --------------------------------------------------------------------------
# standing assumptions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionReport:
    """One record per standing assumption: name, verdict, evidence, notes."""

    records: tuple

    @property
    def hard_pass(self):
        return all(r["verdict"] != "fail" for r in self.records)

    @property
    def clean_pass(self):
        return all(r["verdict"] == "pass" for r in self.records)

    def to_dict(self):
        return {"assumptions": list(self.records), "all_pass": self.hard_pass}

    def __getitem__(self, name):
        for r in self.records:
            if r["name"] == name:
                return r
        raise KeyError(name)


def check_assumptions(atom, res, h_p, eta, seed=0, data=None, pump=None):
    """Verify the standing assumptions; report-only (never raises on fail).

    `data` (``reservoir_lindbladian(atom, res)``) and `pump`
    (``validate_pump(atom, h_p)``) are built here unless the caller passes
    the ones it already has.

    Records, in order:
      reservoir-analyticity : strip integrability of the glued functions,
                              largest passing half-width on a ladder;
      moderate-pump         : |eta| <= _MODERATE_CONST * lambda^2;
      spectral-gap          : spec((eta/2) L_p + lambda^2 L_R) has simple 0
                              and the rest in Re <= -lambda^2 * _GAP_FLOOR;
      jump-irreducibility   : commutant of the jump set is trivial
                              (cross-checked two independent ways);
      no-first-order-coupling : odd single-fermion coupling, by construction
                              for the built-in family ("attested" for raw
                              GKS input, which carries no microscopic model).
    """
    records = []
    lam = res.lam

    # --- reservoir analyticity --------------------------------------------
    if res.gks_jumps is not None:
        records.append({
            "name": "reservoir-analyticity", "verdict": "attested",
            "evidence": {}, "notes": "raw GKS jumps carry no form factors",
        })
    else:
        beta = _effective_beta(res.beta)
        ladder = [r for r in (0.05, 0.1, 0.2, 0.4, 0.5) if r < 0.98 * np.pi / beta]
        best_r, best_val = 0.0, 0.0
        rungs = strip_analyticity_ladder(res.form_factors, res.beta, ladder, n_lines=5)
        for r, reports in zip(ladder, rungs):
            if all(rep.verdict == "finite" for rep in reports):
                best_r = r
                best_val = max(rep.max_line_value for rep in reports)
        records.append({
            "name": "reservoir-analyticity",
            "verdict": "pass" if best_r > 0 else "fail",
            "evidence": {"largest_passing_half_width": best_r,
                         "max_line_integral": best_val,
                         "ladder": ladder},
            "notes": "sup over sampled lines of the squared L2 bound",
        })

    # --- moderate pump -----------------------------------------------------
    if lam != 0:
        ratio = abs(eta) / lam**2
    else:
        ratio = 0.0 if eta == 0 else np.inf
    records.append({
        "name": "moderate-pump",
        "verdict": "pass" if ratio <= _MODERATE_CONST else "fail",
        "evidence": {"eta": eta, "lambda": lam, "ratio": ratio,
                     "bound": _MODERATE_CONST},
        "notes": "|eta| <= C * lambda^2",
    })

    # --- spectral gap of the averaged generator ----------------------------
    if data is None:
        data = reservoir_lindbladian(atom, res)
    if pump is None:
        pump = validate_pump(atom, h_p)
    if lam == 0:
        records.append({
            "name": "spectral-gap", "verdict": "attested",
            "evidence": {"gap": None},
            "notes": "lambda = 0: the gap statement is vacuous",
        })
    else:
        avg = (0.5 * eta) * pump.lindbladian + lam**2 * data.l_r
        mu = np.linalg.eigvals(avg.matrix)
        zero_mask = np.abs(mu) <= _ZERO_TOL
        n_zero = int(np.sum(zero_mask))
        rest = mu[~zero_mask]
        gap = float(-np.max(rest.real)) if rest.size else np.inf
        gap_ok = n_zero == 1 and gap >= lam**2 * _GAP_FLOOR
        records.append({
            "name": "spectral-gap",
            "verdict": "pass" if gap_ok else "fail",
            "evidence": {"zero_multiplicity": n_zero, "gap": gap,
                         "gap_over_lambda2": gap / lam**2,
                         "gap_floor": _GAP_FLOOR},
            "notes": "spectrum of (eta/2) L_p + lambda^2 L_R",
        })

    # --- irreducibility of the jump set ------------------------------------
    jumps = [v for (v, _c, _label) in data.jumps]
    if jumps:
        dim_c, basis = commutant_dimension(jumps)
        dim_a = algebra_dimension(jumps)
        cross = _block_structure_check(jumps, basis, seed=seed)
        agree = (dim_c == 1) == (dim_a == atom.dim**2)
        if cross.get("applicable"):
            agree = agree and ((dim_c == 1) == (cross["n_blocks"] == 1))
        verdict = "pass" if (dim_c == 1 and agree) else "fail"
        evidence = {"commutant_dim": dim_c, "algebra_dim": dim_a,
                    "algebra_dim_full": atom.dim**2,
                    "methods_agree": bool(agree), "block_check": cross}
    else:
        verdict, evidence = "fail", {"commutant_dim": None,
                                     "notes": "empty jump set"}
    records.append({
        "name": "jump-irreducibility", "verdict": verdict,
        "evidence": evidence,
        "notes": "trivial commutant of the jump operators",
    })

    # --- no first-order coupling -------------------------------------------
    if res.gks_jumps is not None:
        records.append({
            "name": "no-first-order-coupling", "verdict": "attested",
            "evidence": {},
            "notes": "cannot be derived from raw GKS jumps; user-attested",
        })
    else:
        records.append({
            "name": "no-first-order-coupling", "verdict": "pass",
            "evidence": {"interaction_monomials": 1},
            "notes": "linear-in-field coupling leaves no level-diagonal "
                     "first-order term by construction",
        })

    return AssumptionReport(records=tuple(records))
