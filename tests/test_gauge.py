"""Gauge covariance of the whole CLI pipeline.

Conjugating every coupling Q_l and the pump h_p by a unitary U, and H_at
with them, is a change of basis: the model is the same, so `check`,
`evolve`, `floquet --order-check` and `oracle` must all exit 0 and report
the same physics.  Two kinds of U run on the bundled configs:

* a seeded diagonal phase U = diag(e^{i theta}), which commutes with the
  level-diagonal H_at, so `atom.energies` stays as it is;
* for three_level, a seeded random unitary, with H_at given rotated as
  `atom.matrix`: every generator block is then dense, and every one must
  still pass the Hermiticity test of the CF4 grid and of the Kato probe.

Compared against the unconjugated run (measured worst case over three
seeds, all on the rotated three_level):
  assumption verdicts               equal;
  trajectory.csv populations        |diff| <= 1e-11    (2.7e-13);
  floquet.json gap_over_lambda2     relative 1e-10     (8.4e-13);
  floquet.json order_check.ratio    relative 1e-10     (6.2e-13), or both null;
  oracle.json observed_orders       |diff| <= 1e-10    (4.9e-14).
"""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from pumped_lindblad.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RUNS = (["check"], ["evolve"], ["floquet", "--order-check"], ["oracle"])


def _matrix(rows):
    return np.array([[complex(*x) if isinstance(x, list) else complex(x) for x in row]
                     for row in rows])


def _pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _conjugated(cfg, u, rotate_atom):
    """`cfg` with Q_l -> U Q_l U* and h_p -> U h_p U*, and with `rotate_atom`
    H_at -> U H_at U* given as `atom.matrix`."""
    cfg = json.loads(json.dumps(cfg))
    res = cfg["reservoir"]
    res["couplings_Q"] = [_pairs(u @ _matrix(q) @ u.conj().T) for q in res["couplings_Q"]]
    cfg["pump"]["h_p"] = _pairs(u @ _matrix(cfg["pump"]["h_p"]) @ u.conj().T)
    if rotate_atom:
        atom = cfg["atom"]
        h_at = np.diag(np.repeat(atom.pop("energies"), atom.pop("degeneracies")))
        atom["matrix"] = _pairs(u @ h_at @ u.conj().T)
    return cfg


def _outputs(cfg, out):
    """Run every subcommand in this process; the compared values."""
    out.mkdir(exist_ok=True)
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    for command, *flags in RUNS:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()), \
                pytest.raises(SystemExit) as exit_:
            main([command, str(path), "--out", str(out / command), *flags])
        assert exit_.value.code == 0, command
    report = json.loads((out / "check" / "report.json").read_text())
    floquet = json.loads((out / "floquet" / "floquet.json").read_text())
    oracle = json.loads((out / "oracle" / "oracle.json").read_text())
    with open(out / "evolve" / "trajectory.csv", encoding="utf-8") as fh:
        pops = np.array([[float(v) for k, v in row.items() if k.startswith("pop_")]
                         for row in csv.DictReader(fh)])
    return {
        "verdicts": [(rec["name"], rec["verdict"]) for rec in report["assumptions"]],
        "pops": pops,
        "gap_over_lambda2": floquet["gap_over_lambda2"],
        "ratio": floquet["order_check"]["ratio"],
        "orders": np.array(oracle["observed_orders"]),
    }


@pytest.fixture(scope="module")
def unconjugated(tmp_path_factory):
    cache = {}

    def outputs(name):
        if name not in cache:
            cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
            cache[name] = _outputs(cfg, tmp_path_factory.mktemp(name))
        return cache[name]
    return outputs


@pytest.mark.parametrize("name, kind", [
    ("two_level", "phase"), ("three_level", "phase"), ("three_level", "rotation"),
])
def test_pipeline_is_gauge_covariant(tmp_path, unconjugated, name, kind):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    d = len(cfg["pump"]["h_p"])
    rng = np.random.default_rng(1)
    if kind == "phase":
        u = np.diag(np.exp(2j * np.pi * rng.random(d)))
    else:
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    got = _outputs(_conjugated(cfg, u, kind == "rotation"), tmp_path / "conjugated")
    want = unconjugated(name)
    assert got["verdicts"] == want["verdicts"]
    assert np.max(np.abs(got["pops"] - want["pops"])) <= 1e-11
    assert abs(got["gap_over_lambda2"] - want["gap_over_lambda2"]) \
        <= 1e-10 * want["gap_over_lambda2"]
    if want["ratio"] is None:
        assert got["ratio"] is None
    else:
        assert abs(got["ratio"] - want["ratio"]) <= 1e-10 * abs(want["ratio"])
    assert np.max(np.abs(got["orders"] - want["orders"])) <= 1e-10
