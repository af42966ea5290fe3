"""Command-line front end: config ingestion and deterministic artifacts.

Subcommands:

  check    validate the standing assumptions, write report.json
  evolve   integrate the master equation, write trajectory.csv + summary.json
  floquet  spectrum/gap/monodromy report, write floquet.json
  oracle   resolvent-oracle convergence + PV coefficients, write oracle.json

Exit codes: 0 success, 1 usage/config error (an unknown or abbreviated
option too), 2 assumption failure, 3 numerical failure.  All outputs are
deterministic for a fixed config and seed: summation orders are fixed, JSON
keys are sorted, CSV floats are written with 17 significant digits and LF
endings, and no timestamps ever enter file contents.
"""

import argparse
import copy
import json
import math
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidDensityMatrixError, PumpedLindbladError
from .evolution import GeneratorBundle, evolve, populations, trajectory_to_csv
from .floquet import (build_howland, floquet_lattice, floquet_spectrum, howland_match,
                      kato_order_check)
from .lindblad import check_assumptions, reservoir_lindbladian, resolvent_oracle
from .operator_core import (
    atomic_lindbladian,
    bohr_spectrum,
    decompose_atom,
    validate_pump,
    validate_state,
)
from .reservoir import FormFactor, ReservoirSpec, pv_coefficients

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSUMPTION = 2
EXIT_NUMERICAL = 3

SCHEMA_VERSION = "1"


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value):
    """A finite number; math.isfinite raises on an int beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _as_complex(value, what):
    parts = [value, 0.0] if _is_number(value) else value
    if (not isinstance(parts, (list, tuple)) or len(parts) != 2
            or not all(_is_number(x) for x in parts)):
        raise ConfigError(f"{what}: expected number or [re, im], got {value!r}")
    if not all(_is_finite(x) for x in parts):
        raise ConfigError(f"{what}: non-finite entry {value!r}")
    return complex(*parts)


def _as_matrix(rows, what):
    try:
        mat = np.array([[_as_complex(x, what) for x in row] for row in rows])
    except TypeError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    except ValueError:
        raise ConfigError(f"{what}: rows of unequal length") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{what}: expected a square matrix, got shape {mat.shape}")
    return mat


def _require_dim(mat, d, what):
    if mat.shape != (d, d):
        raise ConfigError(f"{what}: expected a {d} x {d} matrix, got shape {mat.shape}")
    return mat


def _complex_pairs(values):
    return [[float(v.real), float(v.imag)] for v in values]


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require_finite(value, what, positive=False):
    if (not _is_number(value) or not _is_finite(value)
            or (positive and not value > 0)):
        kind = "positive" if positive else "finite"
        raise ConfigError(f"{what}: expected a {kind} number, got {value!r}")
    return float(value)


def _require_int(value, what, minimum):
    """An integer >= `minimum`; integral floats (as sweeps write them) pass."""
    if (not _is_number(value) or not _is_finite(value) or not float(value).is_integer()
            or value < minimum):
        raise ConfigError(f"{what}: expected an integer >= {minimum}, got {value!r}")
    return int(value)


# size bounds, each refused before any array of that size is built
_MAX_TRAJECTORY_ENTRIES = 2**24   # n_out d^2: a 256 MiB complex trajectory
_MAX_HOWLAND_ROWS = 2**16         # (2 n_modes + 1) d^2: 20x the rows of d = 5, n_modes = 64
_MAX_CONTOUR_POINTS = 2**16       # far past a converged trapezoid rule (64 nodes by default)


def _require_size(what, size, limit, unit):
    if size > limit:
        raise ConfigError(f"{what}: {size} {unit} exceed the bound {limit}")


def _require_list(value, what):
    if not isinstance(value, list):
        raise ConfigError(f"{what}: expected a list, got {value!r}")
    return value


# every key RunSetup reads, per object (`schema_version` is accepted unread)
_KEYS = {
    "config": {"schema_version", "atom", "reservoir", "pump", "sim", "floquet", "seed"},
    "atom": {"energies", "degeneracies", "matrix"},
    "reservoir": {"beta", "lambda", "form_factors", "couplings_Q", "gks_jumps"},
    "pump": {"h_p", "eta", "omega"},
    "sim": {"t_end", "n_out", "rtol", "atol", "rho0"},
    "floquet": {"n_modes", "contour_points"},
    "form_factors": {"weight", "exponent_p", "decay_c"},
}


def _known_keys(obj, kind, where=None):
    """`obj` itself; a misspelt key is refused instead of silently falling back."""
    unknown = sorted(set(obj) - _KEYS[kind])
    if unknown:
        raise ConfigError(f"{where or kind}: unknown key {unknown[0]!r} "
                          f"(known: {', '.join(sorted(_KEYS[kind]))})")
    return obj


def _section(cfg, name, required=False):
    """A config section; absent means empty unless `required`, else it must be an object."""
    section = cfg.get(name, None if required else {})
    if not isinstance(section, dict):
        raise ConfigError(f"missing '{name}' section" if section is None
                          else f"'{name}' section: expected an object, got {section!r}")
    return _known_keys(section, name)


class RunSetup:
    """Parsed and constructed model objects for one run."""

    def __init__(self, cfg):
        _known_keys(cfg, "config")
        self.warnings = []

        pump_cfg = _section(cfg, "pump", required=True)
        if "h_p" not in pump_cfg:
            raise ConfigError("missing key 'pump.h_p'")
        h_p = _as_matrix(pump_cfg["h_p"], "pump.h_p")

        atom_cfg = _section(cfg, "atom", required=True)
        has_levels = "energies" in atom_cfg
        has_matrix = "matrix" in atom_cfg
        if has_levels == has_matrix:
            raise ConfigError("atom: give exactly one of 'energies' or 'matrix'")
        if has_levels:
            energies = [_require_finite(e, "atom.energies")
                        for e in _require_list(atom_cfg["energies"], "atom.energies")]
            degs = [_require_int(n, "atom.degeneracies", 1) for n in _require_list(
                atom_cfg.get("degeneracies", [1] * len(energies)), "atom.degeneracies")]
            if len(degs) != len(energies):
                raise ConfigError("atom: degeneracies length mismatch")
            # before the Hamiltonian is built, so a huge degeneracy allocates nothing
            _require_dim(h_p, sum(degs), "pump.h_p")
            diag = np.concatenate([[e] * n for e, n in zip(energies, degs)])
            h_at = np.diag(diag.astype(complex))
        else:
            h_at = _as_matrix(atom_cfg["matrix"], "atom.matrix")
        self.atom = decompose_atom(h_at)

        res_cfg = _section(cfg, "reservoir", required=True)
        if "beta" not in res_cfg and "gks_jumps" not in res_cfg:
            raise ConfigError("missing key 'reservoir.beta' (the form-factor route needs it)")
        beta = _require_finite(res_cfg.get("beta", -1), "reservoir.beta")
        lam = _require_finite(res_cfg.get("lambda", 0.0), "reservoir.lambda")
        has_closed = "couplings_Q" in res_cfg or "form_factors" in res_cfg
        has_gks = "gks_jumps" in res_cfg
        if has_closed == has_gks:
            raise ConfigError(
                "reservoir: give exactly one of (form_factors + couplings_Q) or gks_jumps"
            )
        if has_gks:
            jumps = [self._atom_matrix(v, "reservoir.gks_jumps")
                     for v in _require_list(res_cfg["gks_jumps"], "reservoir.gks_jumps")]
            self.res = ReservoirSpec(beta=beta, lam=lam, form_factors=(),
                                     couplings=(), gks_jumps=tuple(jumps))
        else:
            ff_cfg = _require_list(res_cfg.get("form_factors", []), "reservoir.form_factors")
            q_cfg = _require_list(res_cfg.get("couplings_Q", []), "reservoir.couplings_Q")
            if not ff_cfg or len(ff_cfg) != len(q_cfg):
                raise ConfigError("reservoir: need matching form_factors and couplings_Q")
            ffs = []
            for i, item in enumerate(ff_cfg):
                terms = item if isinstance(item, list) else [item]
                parsed = []
                for term in terms:
                    what = f"form_factors[{i}]"
                    if not isinstance(term, dict):
                        raise ConfigError(f"{what}: expected an object, got {term!r}")
                    _known_keys(term, "form_factors", what)
                    parsed.append((
                        _as_complex(term.get("weight"), f"{what}.weight"),
                        _require_int(term.get("exponent_p", 1), f"{what}.exponent_p", 1),
                        _require_finite(term.get("decay_c"), f"{what}.decay_c"),
                    ))
                ffs.append(FormFactor(tuple(parsed)))
            qs = [self._atom_matrix(q, "reservoir.couplings_Q") for q in q_cfg]
            self.res = ReservoirSpec(beta=beta, lam=lam, form_factors=tuple(ffs),
                                     couplings=tuple(qs))
        # the generator's frequency keys: an ambiguous Bohr spectrum is a config error
        self.bohr = None if has_gks else bohr_spectrum(self.atom)

        self.h_p = _require_dim(h_p, self.atom.dim, "pump.h_p")
        self.pump = validate_pump(self.atom, self.h_p)
        self.eta = _require_finite(pump_cfg.get("eta", 0.0), "pump.eta")
        omega = pump_cfg.get("omega")
        natural = self.atom.pump_freq
        if omega is None:
            self.omega = natural
        else:
            self.omega = _require_finite(omega, "pump.omega", positive=True)
            if abs(self.omega - natural) > 1e-9 * max(1.0, abs(natural)):
                self.warnings.append(
                    f"pump frequency {self.omega} detuned from level spread {natural}"
                )

        sim = _section(cfg, "sim")
        self.t_end = sim.get("t_end")
        if self.t_end is not None:
            self.t_end = _require_finite(self.t_end, "sim.t_end", positive=True)
        d2 = self.atom.dim ** 2
        self.n_out = _require_int(sim.get("n_out", 201), "sim.n_out", 2)
        _require_size("sim.n_out", self.n_out * d2, _MAX_TRAJECTORY_ENTRIES,
                      "trajectory entries (n_out d^2)")
        self.rtol = _require_finite(sim.get("rtol", 1e-8), "sim.rtol", positive=True)
        self.atol = _require_finite(sim.get("atol", 1e-10), "sim.atol")
        if self.atol < 0:
            raise ConfigError(f"sim.atol: expected a number >= 0, got {self.atol!r}")
        if sim.get("rho0") is None:
            p1 = self.atom.projections[0]
            self.rho0 = p1 / np.trace(p1)
        else:
            try:
                self.rho0 = validate_state(self._atom_matrix(sim["rho0"], "sim.rho0"))
            except InvalidDensityMatrixError as exc:
                raise ConfigError(f"sim.rho0: {exc}") from None
        flo = _section(cfg, "floquet")
        self.n_modes = _require_int(flo.get("n_modes", 32), "floquet.n_modes", 2)
        _require_size("floquet.n_modes", (2 * self.n_modes + 1) * d2, _MAX_HOWLAND_ROWS,
                      "Howland rows ((2 n_modes + 1) d^2)")
        self.contour_points = _require_int(flo.get("contour_points", 64),
                                           "floquet.contour_points", 2)
        _require_size("floquet.contour_points", self.contour_points, _MAX_CONTOUR_POINTS,
                      "contour nodes")
        if self.contour_points % 2:
            # the order check compares the rule with its every-second-node half
            raise ConfigError("floquet.contour_points: expected an even integer >= 2, "
                              f"got {flo['contour_points']!r}")
        self.seed = _require_int(cfg.get("seed", 0), "seed", 0)

    def _atom_matrix(self, rows, what):
        """A d x d matrix, d the atomic dimension."""
        return _require_dim(_as_matrix(rows, what), self.atom.dim, what)

    @cached_property
    def data(self):
        return reservoir_lindbladian(self.atom, self.res)

    def bundle(self):
        return GeneratorBundle(
            l_at=atomic_lindbladian(self.atom),
            l_p=self.pump.lindbladian,
            l_r=self.data.l_r,
            lam=self.res.lam, eta=self.eta, omega=self.omega,
        )


def _sanitize(obj):
    """Make a payload JSON-clean: non-finite floats become null."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _write_json(path, payload):
    payload = _sanitize(dict(payload))
    payload["schema_version"] = SCHEMA_VERSION
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def _run_check(setup, out_dir):
    report = check_assumptions(setup.atom, setup.res, setup.h_p, setup.eta,
                               seed=setup.seed, data=setup.data, pump=setup.pump)
    payload = report.to_dict()
    payload["warnings"] = setup.warnings
    _write_json(out_dir / "report.json", payload)
    for rec in report.records:
        if rec["verdict"] == "attested":
            print(f"warning: assumption '{rec['name']}' attested, not proven",
                  file=sys.stderr)
    for w in setup.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return report


def _guard_assumptions(setup, out_dir, force):
    report = _run_check(setup, out_dir)
    if not report.hard_pass and not force:
        print("assumption check failed (use --force to run anyway)", file=sys.stderr)
        return False
    return True


# --------------------------------------------------------------------------
# subcommand bodies: each takes a validated RunSetup and an existing out_dir
# --------------------------------------------------------------------------

def _do_check(setup, out_dir, **_kw):
    """Verify the standing assumptions and write report.json."""
    report = _run_check(setup, out_dir)
    return EXIT_OK if report.hard_pass else EXIT_ASSUMPTION


def _do_evolve(setup, out_dir, force=False, **_kw):
    """Integrate the master equation; write trajectory.csv and summary.json."""
    if not _guard_assumptions(setup, out_dir, force):
        return EXIT_ASSUMPTION
    grid = np.linspace(0.0, setup.t_end, setup.n_out)
    traj = evolve(setup.bundle(), setup.rho0, setup.t_end,
                  output_grid=grid, atol=setup.atol)
    pops = populations(setup.atom, traj)
    trajectory_to_csv(setup.atom, traj, out_dir / "trajectory.csv", pops=pops)
    summary = {
        "final_populations": [float(x) for x in pops[-1]],
        "max_trace_drift": float(np.max(traj.trace_error)),
        "min_eigenvalue": float(np.min(traj.min_eig)),
        "t_end": setup.t_end,
        "n_out": setup.n_out,
        "rtol": setup.rtol,
        "atol": setup.atol,
        "method": traj.meta["method"],
    }
    _write_json(out_dir / "summary.json", summary)
    return EXIT_OK


def _do_floquet(setup, out_dir, force=False, order_check=False, **_kw):
    """Spectrum, gap, resonances, monodromy; write floquet.json."""
    if not _guard_assumptions(setup, out_dir, force):
        return EXIT_ASSUMPTION
    bundle = setup.bundle()
    f_op = build_howland(bundle, setup.n_modes)
    lattice = floquet_lattice(bundle, setup.n_modes)
    spec = floquet_spectrum(f_op, lattice)

    payload = {
        "n_modes": setup.n_modes,
        "omega": setup.omega,
        "gap": spec.gap,
        "gap_over_lambda2": spec.gap_over_lambda2,
        "degenerate": bool(spec.degenerate),
        "interior_eigenvalues": _complex_pairs(spec.eigenvalues[spec.interior]),
        "resonance_max_residual": spec.resonance_residual,
        "resonance_disc_counts": {str(p): c for p, c in spec.disc_counts.items()},
        "monodromy_max_match_error": howland_match(f_op, *lattice),
    }
    if spec.degenerate:
        print("warning: zero spectral gap (degenerate case)", file=sys.stderr)
    if order_check:
        payload["order_check"] = kato_order_check(
            bundle, setup.n_modes, m_points=setup.contour_points, lattice=lattice)
    _write_json(out_dir / "floquet.json", payload)
    return EXIT_OK


def _do_oracle(setup, out_dir, force=False, **_kw):
    """Resolvent-oracle convergence and PV coefficients; write oracle.json."""
    if not _guard_assumptions(setup, out_dir, force):
        return EXIT_ASSUMPTION
    data = setup.data
    ladder = [1e-2, 5e-3, 2.5e-3]
    mats = [op.matrix for op in resolvent_oracle(setup.atom, setup.res, ladder)]
    errors = [float(np.linalg.norm(m - data.l_r.matrix, 2)) for m in mats]
    # an order is undefined (null) where an error is exactly zero, as when L_R = 0
    orders = [float(np.log2(errors[i] / errors[i + 1])) if errors[i] and errors[i + 1] else None
              for i in range(len(errors) - 1)]
    # quadratic Richardson step on the geometric ladder (4h, 2h, h)
    extrap = (8.0 * mats[2] - 6.0 * mats[1] + mats[0]) / 3.0
    extrap_err = float(np.linalg.norm(extrap - data.l_r.matrix, 2))

    # the generator's PV table, completed at the frequencies no pair of a channel carries
    nonzero = [eps for eps in setup.bohr.frequencies if eps != 0.0]
    pv_records = []
    for l, ff in enumerate(setup.res.form_factors, start=1):
        table = {eps: data.pv[l, eps] for eps in nonzero if (l, eps) in data.pv}
        missing = [eps for eps in nonzero if eps not in table]
        table.update(zip(missing, pv_coefficients(ff, setup.res.beta, missing).tolist()))
        pv_records += [{"channel": l, "eps": eps, "value": table[eps]} for eps in nonzero]
    payload = {
        "eps_reg": ladder,
        "errors": errors,
        "observed_orders": orders,
        "extrapolated_error": extrap_err,
        "pv_coefficients": pv_records,
        "pv_rule_agreement": "two independent rules agree to 1e-7 relative (enforced)",
    }
    _write_json(out_dir / "oracle.json", payload)
    return EXIT_OK


_COMMANDS = {
    "check": _do_check,
    "evolve": _do_evolve,
    "floquet": _do_floquet,
    "oracle": _do_oracle,
}

# config paths of the numeric scalars RunSetup reads (`seed` is top level)
_SWEEP_FIELDS = {
    "reservoir.beta", "reservoir.lambda", "pump.eta", "pump.omega",
    "sim.t_end", "sim.n_out", "sim.rtol", "sim.atol",
    "floquet.n_modes", "floquet.contour_points", "seed",
}
_SWEEP_ALIASES = {
    "lambda": "reservoir.lambda",
    "beta": "reservoir.beta",
    "eta": "pump.eta",
    "t_end": "sim.t_end",
}


def _apply_sweep_value(cfg, key, raw):
    path = _SWEEP_ALIASES.get(key, key)
    if path not in _SWEEP_FIELDS:
        raise ConfigError(f"unknown sweep key {key!r} (sweepable: "
                          f"{', '.join(sorted(_SWEEP_FIELDS | set(_SWEEP_ALIASES)))})")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"sweep value {raw!r} is not a number") from None
    new = copy.deepcopy(cfg)
    section, _, field = path.rpartition(".")
    target = new.setdefault(section, {}) if section else new
    if not isinstance(target, dict):
        raise ConfigError(f"sweep key {key!r}: '{section}' is not an object")
    target[field] = value
    return new


def _points(cfg, out_dir, sweep):
    """(config, out_dir) of every run: the config itself, or one per sweep value."""
    if not sweep:
        return [(cfg, out_dir)]
    if "=" not in sweep:
        raise ConfigError("--sweep expects key=v1,v2,...")
    key, _, values = sweep.partition("=")
    tokens = [v for v in values.split(",") if v]
    if not tokens:
        raise ConfigError("--sweep got an empty value list")
    points = [(_apply_sweep_value(cfg, key, tok), out_dir / f"sweep-{key}-{tok}")
              for tok in tokens]
    if len({float(tok) for tok in tokens}) < len(tokens):
        raise ConfigError(f"--sweep repeats a value of {key}: {values}")
    return points


def _validated_setup(command, cfg):
    """RunSetup plus the subcommand's own config requirements.

    Any model the library refuses while RunSetup builds it is a config error.
    """
    try:
        setup = RunSetup(cfg)
    except ConfigError:
        raise
    except PumpedLindbladError as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from None
    if command == "evolve":
        if setup.t_end is None:
            raise ConfigError("sim.t_end is required for evolve")
    if command == "oracle" and setup.res.gks_jumps is not None:
        raise ConfigError("oracle needs the form-factor route, not raw GKS jumps")
    return setup


def _dispatch(command, config_path, out, force, order_check, sweep):
    """Validate every point of the run, then run them in order on this thread."""
    try:
        points = [(_validated_setup(command, cfg), out_dir)
                  for cfg, out_dir in _points(load_config(config_path), Path(out), sweep)]
        code = EXIT_OK
        for setup, out_dir in points:
            out_dir.mkdir(parents=True, exist_ok=True)
            code = max(code, _COMMANDS[command](setup, out_dir, force=force,
                                                order_check=order_check))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PumpedLindbladError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error exits 1, where argparse exits 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(args=None, prog_name=None):
    """Effective Lindbladian of a pumped impurity: build, evolve, verify."""
    parser = _Parser(prog=prog_name or "pumped-lindblad", description=main.__doc__,
                     allow_abbrev=False)
    parser.set_defaults(order_check=False)     # a flag of floquet only
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, run in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=run.__doc__, description=run.__doc__,
                                    allow_abbrev=False)
        sub.add_argument("config_path", metavar="CONFIG.JSON")
        sub.add_argument("--out", default="out", help="output directory (default: out)")
        sub.add_argument("--force", action="store_true",
                         help="run even if assumption checks fail")
        sub.add_argument("--sweep", metavar="KEY=V1,V2,...",
                         help="run once per value of lambda, eta, beta, t_end or a "
                              "numeric config field such as pump.omega, in order")
        if name == "floquet":
            sub.add_argument("--order-check", action="store_true",
                             help="also record the perturbation-block residual at "
                                  "two couplings")
    sys.exit(_dispatch(**vars(parser.parse_args(args))))


if __name__ == "__main__":
    main()
