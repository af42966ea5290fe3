"""The traced benchmark launch runs the CLI unchanged.

perfbench/tracing.py rebinds or reads names of the package from outside
it: ``FloquetOperator.matrix`` (the Howland row counter),
``evolution.solve_ivp`` and ``cli._COMMANDS``.  A traced launch of
``floquet --order-check`` must exit 0 and write the floquet.json of an
untraced one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _launch(tmp_path, name, trace):
    out = tmp_path / name
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), f"{name}-timing.json", trace,
         "floquet", "--order-check", str(ROOT / "configs" / "three_level.json"),
         "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return (out / "floquet.json").read_bytes()


def test_traced_launch_writes_the_untraced_floquet_json(tmp_path):
    trace = tmp_path / "trace.json"
    assert _launch(tmp_path, "traced", str(trace)) == _launch(tmp_path, "plain", "-")
    counters = json.loads(trace.read_text())["counters"]
    assert counters["floquet.howland_rows"] > 0
