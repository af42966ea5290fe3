"""Workload definitions: seeded input generation and output gates.

Seed s conjugates the bundled config by a random diagonal unitary
U = diag(e^{i theta}): Q_l -> U Q_l U* and h_p -> U h_p U*.  Seed 0 leaves
the bundled file unchanged.  A diagonal unitary commutes with the
level-diagonal atom, so this is a gauge change: every gated output is the
same for every seed, and one reference (``reference.json``) serves them all.
"""

import csv
import json
import math
import random
from pathlib import Path

# name -> bundled config, config overrides, CLI arguments after CONFIG.JSON
WORKLOADS = {
    "quadrature-3lvl": {
        "config": "three_level.json",
        "overrides": {},
        "command": "oracle",
        "args": [],
    },
    "evolve-long-3lvl": {
        "config": "three_level.json",
        "overrides": {"sim": {"t_end": 4000.0, "n_out": 2001}},
        "command": "evolve",
        "args": [],
    },
    "floquet-order-3lvl": {
        "config": "three_level.json",
        "overrides": {},
        "command": "floquet",
        "args": ["--order-check"],
    },
}

# Populations are compared every REF_STRIDE rows of trajectory.csv.
REF_STRIDE = 100


class GateError(Exception):
    """An artifact is missing or fails one of the workload's limits."""


def _conjugate(rows, phases):
    """U M U* for U = diag(phases), on a matrix of [re, im] pairs."""
    out = []
    for j, row in enumerate(rows):
        out_row = []
        for k, entry in enumerate(row):
            re, im = (entry, 0.0) if isinstance(entry, (int, float)) else entry
            z = complex(re, im) * phases[j] * phases[k].conjugate()
            out_row.append([z.real, z.imag])
        out.append(out_row)
    return out


def make_config(name, seed, config_dir):
    """The config dict the program receives for workload `name` and `seed`."""
    spec = WORKLOADS[name]
    cfg = json.loads((Path(config_dir) / spec["config"]).read_text(encoding="utf-8"))
    for section, fields in spec["overrides"].items():
        cfg.setdefault(section, {}).update(fields)
    if seed:
        rng = random.Random(seed)
        dim = len(cfg["pump"]["h_p"])
        phases = [complex(math.cos(t), math.sin(t))
                  for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(dim))]
        res = cfg["reservoir"]
        res["couplings_Q"] = [_conjugate(q, phases) for q in res["couplings_Q"]]
        cfg["pump"]["h_p"] = _conjugate(cfg["pump"]["h_p"], phases)
    return cfg


# --------------------------------------------------------------------------
# output gates
# --------------------------------------------------------------------------

def _load(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise GateError(f"cannot read {path}: {exc}") from None


def _require(ok, message):
    if not ok:
        raise GateError(message)


def _close(value, ref, rel, what):
    _require(value is not None and abs(value - ref) <= rel * abs(ref),
             f"{what} = {value!r}, reference {ref!r} (rel tol {rel:g})")


def _check_report(out_dir):
    report = _load(out_dir / "report.json")
    _require(report.get("all_pass") is True, "report.json: all_pass is not true")


def gate_quadrature(out_dir, ref):
    _check_report(out_dir)
    oracle = _load(out_dir / "oracle.json")
    orders = oracle["observed_orders"]
    _require(len(orders) == 2 and all(0.75 <= o <= 1.25 for o in orders),
             f"oracle orders {orders!r} outside [0.75, 1.25]")
    _require(oracle["extrapolated_error"] <= 1e-5,
             f"extrapolated error {oracle['extrapolated_error']!r} > 1e-5")
    for got, want in zip(orders, ref["observed_orders"]):
        _close(got, want, 1e-6, "oracle observed order")
    _close(oracle["extrapolated_error"], ref["extrapolated_error"], 1e-3,
           "oracle extrapolated error")


def trajectory_populations(path):
    """Population columns of every REF_STRIDE-th row of trajectory.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    pops = sorted((k for k in rows[0] if k.startswith("pop_")),
                  key=lambda k: int(k[4:]))
    return [[float(rows[i][k]) for k in pops] for i in range(0, len(rows), REF_STRIDE)]


def gate_evolve(out_dir, ref):
    _check_report(out_dir)
    summary = _load(out_dir / "summary.json")
    _require(summary["max_trace_drift"] <= 1e-9,
             f"trace drift {summary['max_trace_drift']!r} > 1e-9")
    _require(summary["min_eigenvalue"] >= -1e-9,
             f"min eigenvalue {summary['min_eigenvalue']!r} < -1e-9")
    try:
        got = trajectory_populations(out_dir / "trajectory.csv")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise GateError(f"cannot read trajectory.csv: {exc}") from None
    _require(len(got) == len(ref["populations"]),
             f"trajectory has {len(got)} sampled rows, reference {len(ref['populations'])}")
    worst = max(abs(a - b) for row, ref_row in zip(got, ref["populations"])
                for a, b in zip(row, ref_row))
    _require(worst <= 1e-6, f"populations differ from reference by {worst:.3e} > 1e-6")
    final = max(abs(a - b) for a, b in zip(summary["final_populations"],
                                          ref["final_populations"]))
    _require(final <= 1e-6, f"final populations differ by {final:.3e} > 1e-6")


def gate_floquet_order(out_dir, ref):
    _check_report(out_dir)
    fl = _load(out_dir / "floquet.json")
    # acceptance checks 6 and 7, and the gauge-invariant gap
    _require(fl["resonance_max_residual"] is not None
             and fl["resonance_max_residual"] <= 1e-12,
             f"resonance residual {fl['resonance_max_residual']!r} > 1e-12")
    _require(fl["monodromy_max_match_error"] is not None
             and fl["monodromy_max_match_error"] <= 1e-6,
             f"monodromy error {fl['monodromy_max_match_error']!r} > 1e-6")
    _close(fl["gap_over_lambda2"], ref["gap_over_lambda2"], 1e-6, "gap_over_lambda2")
    # Recorded as measured; deliberately not gated on check 8's [1/12, 1/5].
    _close(fl["order_check"]["ratio"], ref["order_check_ratio"], 1e-4,
           "order_check.ratio")


GATES = {
    "quadrature-3lvl": gate_quadrature,
    "evolve-long-3lvl": gate_evolve,
    "floquet-order-3lvl": gate_floquet_order,
}


def reference_values(name, out_dir):
    """The gauge-invariant outputs a seed-0 run records in reference.json."""
    out_dir = Path(out_dir)
    if name == "quadrature-3lvl":
        oracle = _load(out_dir / "oracle.json")
        return {"observed_orders": oracle["observed_orders"],
                "extrapolated_error": oracle["extrapolated_error"]}
    if name == "evolve-long-3lvl":
        summary = _load(out_dir / "summary.json")
        return {"final_populations": summary["final_populations"],
                "populations": trajectory_populations(out_dir / "trajectory.csv")}
    fl = _load(out_dir / "floquet.json")
    return {"gap_over_lambda2": fl["gap_over_lambda2"],
            "order_check_ratio": fl["order_check"]["ratio"]}
