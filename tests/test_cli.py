"""Command-line contract: exit codes, artifact formats, determinism.

Exit codes: 0 success, 1 usage/config error, 2 assumption failure,
3 numerical failure.  Artifacts are JSON with sorted keys and a
schema_version field, plus CSV trajectories with 17-significant-digit
floats; byte-identical across reruns of the same config and seed.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumped_lindblad import ConfigError
from pumped_lindblad.cli import (_COMMANDS, _MAX_CONTOUR_POINTS, _MAX_HOWLAND_ROWS,
                                 _MAX_TRAJECTORY_ENTRIES, RunSetup, _points, _validated_setup,
                                 main)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _invoke(cli, args):
    """Run the CLI in this process: its exit code, stdout + stderr, and stderr.

    Every run must end in SystemExit; any other exception propagates, so a
    crash fails the test instead of reading as an exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        cli(args)
    return SimpleNamespace(exit_code=exit_.value.code, stderr=err.getvalue(),
                           output=out.getvalue() + err.getvalue())


@pytest.fixture()
def runner():
    return SimpleNamespace(invoke=_invoke)


def _load(path):
    return json.loads(Path(path).read_text())


def _write(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _two_level_cfg():
    return _load(CONFIG_DIR / "two_level.json")


def _three_level_cfg():
    return _load(CONFIG_DIR / "three_level.json")


def _gks_two_level_cfg():
    # the bundled two-level atom with raw GKS jumps sigma_- and sigma_+
    cfg = _two_level_cfg()
    cfg["reservoir"] = {
        "beta": 1.0, "lambda": 0.1,
        "gks_jumps": [
            [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        ],
    }
    return cfg


def _get(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _set(cfg, path, value):
    _get(cfg, path[:-1])[path[-1]] = value
    return cfg


def _assert_one_config_error(result, out):
    assert result.exit_code == 1, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), result.output
    assert not Path(out).exists()


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def test_check_bundled_three_level_passes(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["check", str(CONFIG_DIR / "three_level.json"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = _load(out / "report.json")
    assert report["schema_version"] == "1"
    assert report["all_pass"] is True
    names = [r["name"] for r in report["assumptions"]]
    assert names == ["reservoir-analyticity", "moderate-pump", "spectral-gap",
                     "jump-irreducibility", "no-first-order-coupling"]


def test_check_sigma_x_only_jumps_fail_irreducibility(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["reservoir"] = {
        "beta": 1.0, "lambda": 0.1,
        "gks_jumps": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
    }
    result = runner.invoke(main, ["check", _write(tmp_path, cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    report = _load(tmp_path / "out" / "report.json")
    by_name = {r["name"]: r for r in report["assumptions"]}
    assert by_name["jump-irreducibility"]["verdict"] == "fail"
    evidence = by_name["jump-irreducibility"]["evidence"]
    assert evidence["commutant_dim"] == 2
    # sigma_x commutes with its own eigenprojections: two invariant blocks
    assert evidence["block_check"]["n_blocks"] == 2
    assert evidence["block_check"]["invariance_defect"] <= 1e-12


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_check_immoderate_pump_fails(runner, tmp_path, command):
    cfg = _two_level_cfg()
    cfg["pump"]["eta"] = 10 * 0.1**2
    out = tmp_path / "out"
    result = runner.invoke(main, [command, _write(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 2
    report = _load(out / "report.json")
    by_name = {r["name"]: r for r in report["assumptions"]}
    assert by_name["moderate-pump"]["verdict"] == "fail"
    if command != "check":     # the guard stops the run before any other artifact
        assert result.output.splitlines() == [
            "assumption check failed (use --force to run anyway)"]
        assert [p.name for p in out.iterdir()] == ["report.json"]


def test_numerical_failure_exits_3(runner, tmp_path):
    # four contour nodes are too few: the Riesz projection's M and M/2 probes disagree
    cfg = _set(_three_level_cfg(), ("floquet", "contour_points"), 4)
    out = tmp_path / "out"
    result = runner.invoke(main, ["floquet", "--order-check", _write(tmp_path, cfg),
                                  "--out", str(out)])
    assert result.exit_code == 3
    lines = result.output.splitlines()
    assert len(lines) == 1, result.output
    assert lines[0].startswith("numerical failure: IdempotencyFailureError")
    assert [p.name for p in out.iterdir()] == ["report.json"]


def test_check_records_detuning_warning(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["pump"]["omega"] = 1.05      # 5 percent off the level spread
    result = runner.invoke(main, ["check", _write(tmp_path, cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 0
    report = _load(tmp_path / "out" / "report.json")
    assert any("detuned" in w for w in report["warnings"])


def test_check_cold_reservoir_fails_analyticity_without_traceback(runner, tmp_path):
    # e^{-beta z/2} overflows where g# underflows: every strip line reads inf
    cfg = _two_level_cfg()
    cfg["reservoir"]["beta"] = 30.0
    cfg["reservoir"]["form_factors"] = [{"weight": 2.0, "exponent_p": 3, "decay_c": 0.2}]
    out = tmp_path / "out"
    result = runner.invoke(main, ["check", _write(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output and not result.output.strip()
    report = _load(out / "report.json")
    by_name = {r["name"]: r for r in report["assumptions"]}
    assert by_name["reservoir-analyticity"]["verdict"] == "fail"
    assert by_name["reservoir-analyticity"]["evidence"]["largest_passing_half_width"] == 0.0


def test_check_runs_on_a_cold_reservoir(runner, tmp_path):
    # every PV coefficient is served at beta = 1000 (the beta-widened range
    # once took 5.2e6 rule-A nodes, past the cap, and exited 3); the
    # assumption check itself still fails cold
    cfg = _two_level_cfg()
    cfg["reservoir"]["beta"] = 1000.0
    out = tmp_path / "out"
    result = runner.invoke(main, ["check", _write(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "numerical failure" not in result.output
    assert (out / "report.json").is_file()


@pytest.mark.parametrize("name", ["two_level", "three_level"])
def test_check_strip_ladder_makes_no_quad_call(runner, tmp_path, monkeypatch, name):
    # the strip ladder runs once, and neither it nor anything else in
    # `check` (PV coefficients included) calls QUADPACK
    import scipy.integrate

    from pumped_lindblad import lindblad

    ladder_calls, quad_calls = [0], [0]
    ladder, quad = lindblad.strip_analyticity_ladder, scipy.integrate.quad

    def spy_ladder(*args, **kwargs):
        ladder_calls[0] += 1
        return ladder(*args, **kwargs)

    def spy_quad(*args, **kwargs):
        quad_calls[0] += 1
        return quad(*args, **kwargs)

    monkeypatch.setattr(lindblad, "strip_analyticity_ladder", spy_ladder)
    monkeypatch.setattr(scipy.integrate, "quad", spy_quad)
    result = runner.invoke(main, ["check", str(CONFIG_DIR / f"{name}.json"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert ladder_calls == [1] and quad_calls == [0]


_SCIPY_PROBE = """
import sys
preloaded = set(sys.modules)
from pumped_lindblad.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = {m.partition(".")[0] for m in set(sys.modules) - preloaded}
print(code, any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
      "numpy.random" in sys.modules,
      sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "pumped_lindblad"}))
"""


@pytest.mark.parametrize("args", [["check"], ["evolve"], ["floquet", "--order-check"],
                                  ["oracle"]], ids=lambda a: "-".join(a))
def test_subcommands_never_import_scipy(tmp_path, args):
    # a fresh interpreter: the CLI path loads numpy and the standard library
    # only (scipy is left to the cross-checks that no subcommand runs), and
    # its seeded draws come from the stdlib, so numpy.random stays unloaded
    # too.  Modules `site` preloaded before the import are not counted.
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *args, str(CONFIG_DIR / "three_level.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.stdout.split() == ["0", "False", "False", "[]"], proc.stdout + proc.stderr


def test_no_library_module_imports_scipy():
    # every import statement, at module level or in any function; the one
    # held is evolution.__getattr__ (`evolution.solve_ivp` for perfbench/tracing.py)
    import ast

    found = set()
    for path in (CONFIG_DIR.parent / "src" / "pumped_lindblad").glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                if any(name.partition(".")[0] == "scipy" for name in names):
                    found.add((path.name, getattr(top, "name", None)))
    assert found <= {("evolution.py", "__getattr__")}, sorted(found)


# --------------------------------------------------------------------------
# usage and config errors -> exit 1
# --------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ["check"],
    ["check", "CFG", "--bogus"],
    ["floquet", "CFG", "--order-chek"],
    ["frobnicate", "CFG"],
    ["floquet", "CFG", "--ord"],            # an abbreviation is refused, not expanded
], ids=["no-config", "unknown-option", "misspelt-option", "unknown-subcommand",
        "abbreviated-option"])
def test_usage_error_exits_1(runner, tmp_path, args):
    args = [str(CONFIG_DIR / "two_level.json") if a == "CFG" else a for a in args]
    out = tmp_path / "out"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("usage: pumped-lindblad"), result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_help_exits_0(runner):
    result = runner.invoke(main, ["floquet", "--help"])
    assert result.exit_code == 0, result.output
    assert "--order-check" in result.output and not result.stderr


def test_config_error_missing_atom(runner, tmp_path):
    cfg = _two_level_cfg()
    del cfg["atom"]
    result = runner.invoke(main, ["check", _write(tmp_path, cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1


def test_config_error_both_atom_forms(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["atom"]["matrix"] = [[[0.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [1.0, 0.0]]]
    result = runner.invoke(main, ["check", _write(tmp_path, cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1


def test_config_error_nonfinite_entry(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["reservoir"]["beta"] = float("nan")
    text = json.dumps(cfg).replace("NaN", "1e999")   # still parses, to inf
    p = tmp_path / "bad.json"
    p.write_text(text)
    result = runner.invoke(main, ["check", str(p), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1


MALFORMED = [
    (("pump", "eta"), True),
    (("floquet", "n_modes"), 1),
    (("floquet", "n_modes"), 2.5),
    (("floquet", "contour_points"), 0),
    (("floquet", "contour_points"), 1),
    (("floquet", "contour_points"), 63),
    (("floquet", "contour_points"), "64"),
    (("sim", "rtol"), "abc"),
    (("sim", "t_end"), "x"),
    (("sim", "n_out"), 0),
    (("sim", "n_out"), 2.5),
    (("sim", "atol"), -1),
    (("seed",), [1]),
    (("sim",), "x"),
    (("floquet",), "x"),
    (("reservoir", "form_factors", 0), 5),
    (("reservoir", "form_factors", 0, "exponent_p"), "x"),
    (("reservoir", "form_factors", 0, "weight"), float("nan")),
    (("reservoir", "couplings_Q", 0, 0, 1), [float("inf"), 0.0]),
    (("atom", "degeneracies"), [1, -1]),
    (("pump", "omega"), 0),
    (("pump", "omega"), -1),
    (("reservoir", "form_factors"), 5),
    (("reservoir", "couplings_Q"), 5),
    (("reservoir", "couplings_Q", 0, 0), [[1.0, 0.0]]),
    (("pump", "h_p", 0), [[0.0, 0.0]]),
    (("pump", "h_p", 0, 0, 0), True),
    # models the library refuses while RunSetup builds them
    (("reservoir", "form_factors", 0, "decay_c"), 0),
    (("reservoir", "form_factors", 0, "decay_c"), -1),
    (("reservoir", "form_factors", 0), []),
    (("reservoir", "beta"), -1),
    (("reservoir", "couplings_Q", 0), [[[0.0, 0.0], [1.0, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.0]]]),   # not *-closed
    (("atom",), {"matrix": [[[0.0, 0.0], [1.0, 0.0]],
                            [[0.0, 0.0], [1.0, 0.0]]]}),              # not Hermitian
    (("atom", "energies"), [1, 1]),
    # two form factors that are not L2-orthogonal (sigma_x and sigma_z channels)
    (("reservoir",), {"beta": 1.0, "lambda": 0.1,
                      "form_factors": [{"weight": 1.0, "exponent_p": 1, "decay_c": 1.0},
                                       {"weight": 1.0, "exponent_p": 2, "decay_c": 1.0}],
                      "couplings_Q": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                                      [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]]}),
    (("atom",), {"matrix": [[[0.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [1.0, 0.0]]],
                 "degeneracies": [5, 7]}),                            # read only with energies
    # misspelt keys, which would otherwise fall back to the defaults
    (("floquet", "n_mode"), 8),
    (("reservoir", "lamda"), 0.1),
    # numbers beyond the int64 or the float range, and a degeneracy that
    # would expand into a huge Hamiltonian before any matrix is checked
    (("pump", "omega"), -10**20),
    (("sim", "n_out"), 10**400),
    (("pump", "h_p", 1, 0), 10**400),
    (("atom", "degeneracies"), [1, 10**12]),
    # sizes whose arrays would not fit: refused before any is built
    (("sim", "n_out"), 10**20),
    (("floquet", "n_modes"), 10**12),
    (("floquet", "contour_points"), 10**12),
]


def _case_id(path, value):
    if isinstance(value, int) and abs(value) > 10**9:
        value = f"{'-' * (value < 0)}10**{len(str(abs(value))) - 1}"     # not 401 digits
    return "-".join(map(str, path + (value,)))


@pytest.mark.parametrize("path, value", MALFORMED,
                         ids=[_case_id(p, v) for p, v in MALFORMED])
def test_config_error_bad_scalar(runner, tmp_path, path, value):
    # every field is validated in RunSetup, before any subcommand-specific work
    cfg = _set(_two_level_cfg(), path, value)
    out = tmp_path / "out"
    result = runner.invoke(main, ["floquet", _write(tmp_path, cfg), "--out", str(out)])
    _assert_one_config_error(result, out)


@pytest.mark.parametrize("jumps", [
    5,
    [[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 3],     # a 3 x 3 jump on a 2-level atom
], ids=["not-a-list", "3x3-jump"])
def test_config_error_bad_gks_jumps(runner, tmp_path, jumps):
    cfg = _set(_gks_two_level_cfg(), ("reservoir", "gks_jumps"), jumps)
    out = tmp_path / "out"
    result = runner.invoke(main, ["check", _write(tmp_path, cfg), "--out", str(out)])
    _assert_one_config_error(result, out)


@pytest.mark.parametrize("path", [("reservoir", "beta"), ("pump", "h_p")],
                         ids=".".join)
def test_config_error_names_a_missing_key(runner, tmp_path, path):
    cfg = _two_level_cfg()
    del _get(cfg, path[:-1])[path[-1]]
    out = tmp_path / "out"
    result = runner.invoke(main, ["floquet", _write(tmp_path, cfg), "--out", str(out)])
    _assert_one_config_error(result, out)
    assert f"missing key '{'.'.join(path)}'" in result.output


def test_gks_config_may_omit_beta():
    cfg = _gks_two_level_cfg()
    del cfg["reservoir"]["beta"]
    assert _validated_setup("check", cfg).res.gks_jumps is not None


MUTATION_VALUES = [None, True, -1, 0, 2.5, "x", [], {}, [[1]], float("nan")]


def _mutation_paths(node, prefix=(), every_index=False):
    """Every dict key and the first (or every) list element, depth first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list) and node:
        keys = range(len(node)) if every_index else [0]
    else:
        keys = []
    for key in keys:
        yield prefix + (key,)
        yield from _mutation_paths(node[key], prefix + (key,), every_index)


@pytest.mark.parametrize("make_cfg", [_two_level_cfg, _gks_two_level_cfg],
                         ids=["form-factors", "gks"])
def test_single_field_mutations_raise_only_library_errors(make_cfg):
    # every malformed field ends in a ConfigError (exit 1), never in another
    # library error (exit 3) or a bare TypeError/ValueError
    base = make_cfg()
    paths = list(_mutation_paths(base)) + [("sim", "rho0"), ("pump", "omega")]
    escaped = []
    for path in paths:
        for value in MUTATION_VALUES:
            cfg = _set(copy.deepcopy(base), path, value)
            try:
                _validated_setup("evolve", cfg)
            except ConfigError:
                pass
            except Exception as exc:   # collected, so one run reports them all
                escaped.append((path, value, f"{type(exc).__name__}: {exc}"))
    assert len(paths) * len(MUTATION_VALUES) >= 180
    assert not escaped, escaped
    # one unknown key in any object (a misspelling) is refused, not ignored
    objects = [()] + [path for path in _mutation_paths(base)
                      if isinstance(_get(base, path), dict)]
    assert len(objects) >= 6
    for path in objects:
        cfg = _set(copy.deepcopy(base), path + ("unknown_key",), 0)
        with pytest.raises(ConfigError, match="unknown_key"):
            _validated_setup("evolve", cfg)


FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-999, 999) | st.floats() | st.text(max_size=3)
    | st.sampled_from([10**20, 10**400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=6)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(make_cfg=st.sampled_from([_two_level_cfg, _gks_two_level_cfg]), data=st.data())
def test_fuzzed_configs_raise_only_config_errors(make_cfg, data):
    # 1-3 values anywhere in a bundled config: every subcommand's validation
    # passes or raises ConfigError, never another error or a huge allocation
    cfg = make_cfg()
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_mutation_paths(cfg, every_index=True))))
        _set(cfg, path, data.draw(FUZZ_VALUES))
    for command in _COMMANDS:
        try:
            _validated_setup(command, cfg)
        except ConfigError:
            pass


@pytest.mark.parametrize("path, at_bound, step", [
    (("sim", "n_out"), _MAX_TRAJECTORY_ENTRIES // 4, 1),
    (("floquet", "n_modes"), (_MAX_HOWLAND_ROWS // 4 - 1) // 2, 1),
    (("floquet", "contour_points"), _MAX_CONTOUR_POINTS, 2),
], ids=["sim.n_out", "floquet.n_modes", "floquet.contour_points"])
def test_size_bounds_are_inclusive(path, at_bound, step):
    # d^2 = 4 on two_level; the contour rule must also be even, so its next
    # value is bound + 2.  Validation alone builds no array of these sizes.
    assert _validated_setup("check", _set(_two_level_cfg(), path, at_bound))
    with pytest.raises(ConfigError, match="exceed the bound"):
        _validated_setup("check", _set(_two_level_cfg(), path, at_bound + step))


def test_integer_beyond_int64_is_a_number():
    cfg = _two_level_cfg()
    cfg["reservoir"]["lambda"] = 10**20
    assert RunSetup(cfg).res.lam == 1e20


def test_integral_float_mode_count_accepted():
    # --sweep writes every value as a float
    cfg = _two_level_cfg()
    cfg["floquet"]["n_modes"] = 8.0
    assert RunSetup(cfg).n_modes == 8


def test_config_error_unreadable_file(runner, tmp_path):
    result = runner.invoke(main, ["check", str(tmp_path / "missing.json"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1


@pytest.mark.parametrize("content,reason", [
    (b"\xff\xfe{}", "not UTF-8"), (b"[" * 100_000, "nested too deeply")],
    ids=["not-utf8", "deeply-nested"])
def test_config_error_undecodable_or_too_deep(runner, tmp_path, content, reason):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    result = runner.invoke(main, ["check", str(path), "--out", str(out)])
    _assert_one_config_error(result, out)
    assert reason in result.output


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_unusable_out_exits_1_with_one_line(runner, tmp_path, target):
    (tmp_path / "file").write_text("")
    result = runner.invoke(main, ["check", str(CONFIG_DIR / "two_level.json"),
                                  "--out", str(tmp_path / target)])
    assert result.exit_code == 1, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write outputs:"), result.output
    assert "Traceback" not in result.output


def test_pump_support_violation_is_config_error(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["pump"]["h_p"] = [[[0.0, 0.0], [1.0, 0.0]],
                          [[1.0, 0.0], [0.0, 0.0]]]   # sigma_x: not a raiser
    result = runner.invoke(main, ["evolve", _write(tmp_path, cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1


# --------------------------------------------------------------------------
# evolve
# --------------------------------------------------------------------------

def test_evolve_two_level_reaches_gibbs(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["evolve", str(CONFIG_DIR / "two_level.json"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = _load(out / "summary.json")
    gibbs = [1.0 / (1.0 + np.exp(-1.0)), np.exp(-1.0) / (1.0 + np.exp(-1.0))]
    assert np.allclose(summary["final_populations"], gibbs, atol=1e-4)
    assert summary["max_trace_drift"] <= 1e-9
    assert summary["min_eigenvalue"] >= -1e-9
    assert summary["method"] == "stroboscopic"
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,pop_1,pop_2,trace,min_eig,purity"
    assert len(lines) == 202


def test_evolve_zero_couplings_constant_populations(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["reservoir"]["couplings_Q"] = [
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
    cfg["sim"]["t_end"] = 10.0
    out = tmp_path / "out"
    # empty jump set fails irreducibility, so the run needs --force
    result = runner.invoke(main, ["evolve", _write(tmp_path, cfg),
                                  "--out", str(out)])
    assert result.exit_code == 2
    result = runner.invoke(main, ["evolve", _write(tmp_path, cfg),
                                  "--out", str(out), "--force"])
    assert result.exit_code == 0, result.output
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.allclose(rows[:, 1], 1.0, atol=1e-12)   # pop_1 frozen
    assert np.allclose(rows[:, 2], 0.0, atol=1e-12)


def test_evolve_deterministic_reruns(runner, tmp_path):
    cfg = _three_level_cfg()
    cfg["sim"]["t_end"] = 20.0
    path = _write(tmp_path, cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(main, ["evolve", path, "--out", str(out)])
        assert result.exit_code == 0
        outs.append(out)
    for fname in ("trajectory.csv", "summary.json", "report.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


@pytest.mark.parametrize("rho0", [
    [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 3,               # 3 x 3 on two levels
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],      # trace 2
    "abc",
], ids=["3x3", "trace-2", "abc"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_rejects_bad_initial_state(runner, tmp_path, command, rho0):
    # sim.rho0 is parsed with the rest of the config, not only where evolve reads it
    cfg = _set(_two_level_cfg(), ("sim", "rho0"), rho0)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, _write(tmp_path, cfg), "--out", str(out)])
    _assert_one_config_error(result, out)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_rejects_an_ambiguous_bohr_spectrum(runner, tmp_path, command):
    # E_3 - E_2 and E_2 - E_1 differ by 1.5e-9: halving the merge tolerance
    # 1e-9 max|E| splits them and doubling it joins them, so the pair sets
    # that key the generator are undetermined
    cfg = _set(_three_level_cfg(), ("atom", "energies"), [0.0, 1.0, 2.0 + 1.5e-9])
    out = tmp_path / "out"
    result = runner.invoke(main, [command, _write(tmp_path, cfg), "--out", str(out)])
    _assert_one_config_error(result, out)


def test_evolve_takes_the_validated_initial_state(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["sim"]["t_end"] = 5.0
    cfg["sim"]["rho0"] = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    out = tmp_path / "out"
    result = runner.invoke(main, ["evolve", _write(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows[0, 1] == 0.0 and rows[0, 2] == 1.0     # starts in the excited level


def test_evolve_sweep_fans_out(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["sim"]["t_end"] = 5.0
    out = tmp_path / "out"
    result = runner.invoke(main, ["evolve", _write(tmp_path, cfg),
                                  "--out", str(out),
                                  "--sweep", "lambda=0.1,0.05"])
    assert result.exit_code == 0, result.output
    for token in ("0.1", "0.05"):
        sub = out / f"sweep-lambda-{token}"
        assert (sub / "trajectory.csv").exists()
        assert (sub / "summary.json").exists()


@pytest.mark.parametrize("sweep", ["nonsense", "seed.x=1", ".x=1", "sim.=1",
                                   "pump.omgea=0.9,1.1", "lambda=0.1,0.10,1e-1"])
def test_sweep_rejects_unknown_key(runner, tmp_path, sweep):
    result = runner.invoke(main, ["evolve", str(CONFIG_DIR / "two_level.json"),
                                  "--out", str(tmp_path / "out"),
                                  "--sweep", sweep])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), result.output
    assert not (tmp_path / "out").exists()


SWEEPABLE = [
    ("lambda", "0.05", lambda s: s.res.lam),
    ("beta", "1.5", lambda s: s.res.beta),
    ("eta", "0.02", lambda s: s.eta),
    ("t_end", "5", lambda s: s.t_end),
    ("reservoir.lambda", "0.05", lambda s: s.res.lam),
    ("reservoir.beta", "1.5", lambda s: s.res.beta),
    ("pump.eta", "0.02", lambda s: s.eta),
    ("pump.omega", "1.1", lambda s: s.omega),
    ("sim.t_end", "5", lambda s: s.t_end),
    ("sim.n_out", "11", lambda s: s.n_out),
    ("sim.rtol", "1e-7", lambda s: s.rtol),
    ("sim.atol", "1e-11", lambda s: s.atol),
    ("floquet.n_modes", "8", lambda s: s.n_modes),
    ("floquet.contour_points", "16", lambda s: s.contour_points),
    ("seed", "3", lambda s: s.seed),
]


@pytest.mark.parametrize("key, token, read", SWEEPABLE,
                         ids=[k for k, *_ in SWEEPABLE])
def test_sweep_sets_every_numeric_field(key, token, read):
    [(cfg, out_dir)] = _points(_two_level_cfg(), Path("out"), f"{key}={token}")
    assert read(RunSetup(cfg)) == float(token)
    assert out_dir == Path("out") / f"sweep-{key}-{token}"


def test_sweep_runs_in_order_like_direct_runs(runner, tmp_path):
    path = str(CONFIG_DIR / "two_level.json")
    out = tmp_path / "sweep"
    result = runner.invoke(main, ["check", path, "--out", str(out),
                                  "--sweep", "pump.omega=0.9,1.1"])
    assert result.exit_code == 0, result.output
    detuned = [line for line in result.stderr.splitlines() if "detuned" in line]
    assert len(detuned) == 2
    assert "frequency 0.9 " in detuned[0] and "frequency 1.1 " in detuned[1]
    for token in ("0.9", "1.1"):
        cfg = _two_level_cfg()
        cfg["pump"]["omega"] = float(token)
        direct = tmp_path / f"direct-{token}"
        result = runner.invoke(main, ["check", _write(tmp_path, cfg),
                                      "--out", str(direct)])
        assert result.exit_code == 0, result.output
        assert ((out / f"sweep-pump.omega-{token}" / "report.json").read_bytes()
                == (direct / "report.json").read_bytes())

    # a malformed last value stops the sweep before any point runs
    bad = tmp_path / "bad"
    result = runner.invoke(main, ["check", path, "--out", str(bad),
                                  "--sweep", "floquet.n_modes=8,1.5"])
    assert result.exit_code == 1
    assert result.stderr.strip().startswith("config error:"), result.output
    assert not list(bad.glob("sweep-*"))


# --------------------------------------------------------------------------
# floquet
# --------------------------------------------------------------------------

def test_floquet_bundled_three_level(runner, tmp_path):
    cfg = _three_level_cfg()
    cfg["floquet"]["n_modes"] = 8     # unit-test size
    out = tmp_path / "out"
    result = runner.invoke(main, ["floquet", _write(tmp_path, cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rep = _load(out / "floquet.json")
    assert rep["degenerate"] is False
    assert rep["monodromy_max_match_error"] <= 1e-6
    assert rep["resonance_max_residual"] <= 1e-12
    assert all(c == 1 for c in rep["resonance_disc_counts"].values())
    assert abs(rep["gap_over_lambda2"] - 0.2352) <= 1e-3


def test_floquet_free_case_warns_but_succeeds(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["reservoir"]["lambda"] = 0.0
    cfg["pump"]["eta"] = 0.0
    cfg["floquet"]["n_modes"] = 4
    out = tmp_path / "out"
    result = runner.invoke(main, ["floquet", _write(tmp_path, cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "zero spectral gap" in result.output
    rep = _load(out / "floquet.json")
    assert rep["degenerate"] is True
    assert rep["gap_over_lambda2"] is None    # infinity sanitized to null


def test_floquet_order_check_records_quartic_ratio(runner, tmp_path):
    cfg = _three_level_cfg()
    cfg["floquet"]["n_modes"] = 8
    out = tmp_path / "out"
    result = runner.invoke(main, ["floquet", _write(tmp_path, cfg),
                                  "--out", str(out), "--order-check"])
    assert result.exit_code == 0, result.output
    oc = _load(out / "floquet.json")["order_check"]
    assert 0.05 <= oc["ratio"] <= 0.08      # measured quartic scaling (~1/16)
    assert oc["residual_at_half_lambda"] < oc["residual_at_lambda"]


def test_floquet_order_check_values_on_three_level(runner, tmp_path, monkeypatch):
    # the bundled config as is (n_modes = 32, 64 contour nodes); the values
    # are those of the dense Riesz/Kato route the thin probe replaced.  The
    # whole run eigensolves nothing wider than d^2 = 9: the spectrum, the
    # monodromy match and the annulus guards all come from lattices.
    widths = []
    for name in ("eig", "eigvals"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            widths.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    out = tmp_path / "out"
    result = runner.invoke(main, ["floquet", str(CONFIG_DIR / "three_level.json"),
                                  "--out", str(out), "--order-check"])
    assert result.exit_code == 0, result.output
    assert widths and max(widths) <= 9
    oc = _load(out / "floquet.json")["order_check"]
    expected = {
        "residual_at_lambda": 1.0296288580843247e-04,
        "residual_at_half_lambda": 6.446203204185966e-06,
        "ratio": 0.06260705645119004,
    }
    assert set(oc) == set(expected)
    for key, value in expected.items():
        assert abs(oc[key] - value) <= 1e-10 * value, (key, oc[key])


def _dephased_three_level_cfg():
    # only the middle level dephases, so the pumped pair keeps a zero gap
    cfg = _three_level_cfg()
    cfg["reservoir"] = {"beta": 2.0, "lambda": 0.1,
                        "gks_jumps": [[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]]}
    return cfg


@pytest.mark.parametrize("make_cfg, flags", [
    (_three_level_cfg, []),
    (_three_level_cfg, ["--order-check"]),
    (_dephased_three_level_cfg, ["--force"]),
], ids=["plain", "order-check", "dephased-force"])
def test_floquet_never_reads_the_dense_matrix(runner, tmp_path, monkeypatch, make_cfg, flags):
    # every CLI product of F comes from its blocks, at every gap; the lattice
    # at lambda serves floquet.json and the order check, which adds the
    # lambda/2 one
    from pumped_lindblad import evolution, floquet

    def dense(f_op):
        raise AssertionError("FloquetOperator.matrix read on a CLI path")

    grids = [0]
    step_grid = evolution._step_grid

    def spy_grid(*args, **kwargs):
        grids[0] += 1
        return step_grid(*args, **kwargs)

    monkeypatch.setattr(floquet.FloquetOperator, "matrix", property(dense))
    monkeypatch.setattr(floquet, "_step_grid", spy_grid)
    out = tmp_path / "out"
    result = runner.invoke(main, ["floquet", _write(tmp_path, make_cfg()), "--out", str(out)]
                           + flags)
    assert result.exit_code == 0, result.output
    assert grids == [1 + ("--order-check" in flags)]
    if "--force" in flags:
        assert _load(out / "floquet.json")["degenerate"] is True


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def test_oracle_command_reports_convergence(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["oracle", str(CONFIG_DIR / "two_level.json"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rep = _load(out / "oracle.json")
    assert rep["eps_reg"] == [1e-2, 5e-3, 2.5e-3]
    assert all(0.75 <= o <= 1.25 for o in rep["observed_orders"])
    assert rep["extrapolated_error"] <= 1e-5
    assert all({"channel", "eps", "value"} <= set(r) for r in rep["pv_coefficients"])


@pytest.mark.filterwarnings("error")
def test_oracle_force_converges_on_a_cold_reservoir(runner, tmp_path):
    cfg = _three_level_cfg()
    cfg["reservoir"]["beta"] = 600.0
    out = tmp_path / "out"
    result = runner.invoke(main, ["oracle", _write(tmp_path, cfg), "--out", str(out),
                                  "--force"])
    assert result.exit_code == 0, result.output
    orders = _load(out / "oracle.json")["observed_orders"]
    assert all(0.75 <= o <= 1.25 for o in orders), orders


@pytest.mark.parametrize("vanishing", ["weight", "couplings"])
def test_oracle_force_with_a_vanishing_reservoir_generator(runner, tmp_path, vanishing):
    # L_R = 0 makes every oracle error exactly zero, and each observed order null
    cfg = _two_level_cfg()
    if vanishing == "weight":
        cfg["reservoir"]["form_factors"][0]["weight"] = 0.0
    else:
        cfg["reservoir"]["couplings_Q"] = [
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
    out = tmp_path / "out"
    result = runner.invoke(main, ["oracle", _write(tmp_path, cfg), "--out", str(out), "--force"])
    assert result.exit_code == 0, result.output
    assert "Traceback" not in result.output
    rep = _load(out / "oracle.json")
    assert rep["errors"] == [0.0, 0.0, 0.0]
    assert rep["observed_orders"] == [None, None]


def test_oracle_reuses_the_generators_pv_table(runner, tmp_path, monkeypatch):
    # the generator's 4 PV coefficients are read back, not summed again:
    # 12 rule-A sums, one per channel and nonzero Bohr frequency
    from pumped_lindblad import reservoir

    data = RunSetup(_three_level_cfg()).data
    sums = []
    contour = reservoir._pv_contour
    monkeypatch.setattr(reservoir, "_pv_contour", lambda *a: sums.append(a) or contour(*a))
    out = tmp_path / "out"
    result = runner.invoke(main, ["oracle", str(CONFIG_DIR / "three_level.json"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(sums) == 12
    records = {(r["channel"], r["eps"]): r["value"]
               for r in _load(out / "oracle.json")["pv_coefficients"]}
    assert len(records) == 12 and len(data.pv) == 4
    assert all(records[key] == d for key, d in data.pv.items())


def test_oracle_rejects_gks_route(runner, tmp_path):
    cfg = _two_level_cfg()
    cfg["reservoir"] = {
        "beta": 1.0, "lambda": 0.1,
        "gks_jumps": [
            [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        ],
    }
    result = runner.invoke(main, ["oracle", _write(tmp_path, cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), result.output
    assert not (tmp_path / "out" / "report.json").exists()


def _degenerate_cfg():
    # the `degenerate` fixture (d = 4): three_level with its middle level
    # doubled and couplings that mix the doubled pair, so P_j Q P_k has rank 2
    cfg = _three_level_cfg()
    cfg["atom"] = {"energies": [0.0, 0.9, 2.1], "degeneracies": [1, 2, 1]}
    q1, q2, h_p = np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4))
    q1[1, 3] = q1[3, 1] = 1.0
    q1[2, 3] = q1[3, 2] = 0.4
    q1[1, 2] = q1[2, 1] = 0.3
    q2[0, 1] = q2[1, 0] = 1.0
    q2[0, 2] = q2[2, 0] = -0.7
    h_p[3, 0] = 1.0
    cfg["reservoir"]["couplings_Q"] = [q1.tolist(), q2.tolist()]
    cfg["pump"]["h_p"] = h_p.tolist()
    return cfg


@pytest.mark.parametrize("args", [["check"], ["evolve"], ["floquet", "--order-check"],
                                  ["oracle"]], ids=lambda a: "-".join(a))
def test_degenerate_config_runs_every_command(runner, tmp_path, args):
    out = tmp_path / "out"
    result = runner.invoke(main, [args[0], _write(tmp_path, _degenerate_cfg()),
                                  "--out", str(out), *args[1:]])
    assert result.exit_code == 0, result.output
    if args == ["oracle"]:
        orders = _load(out / "oracle.json")["observed_orders"]
        assert all(0.75 <= o <= 1.25 for o in orders), orders


def test_evolve_requires_t_end(runner, tmp_path):
    cfg = _two_level_cfg()
    del cfg["sim"]["t_end"]
    result = runner.invoke(main, ["evolve", _write(tmp_path, cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), result.output
    assert not (tmp_path / "out" / "report.json").exists()
