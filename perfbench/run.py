"""Benchmark of the pumped-lindblad CLI: closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each invocation is a fresh process
(``launch.py``) on the seeded input of the workload, started only after the
previous one ended; invocations repeat while the next one is expected to
finish within S seconds (at least one runs).  Every invocation is gated:
exit code 0, the workload's output limits (``workloads.py``), and artifacts
byte-identical to the first invocation of the run.

--trace 0 prints the end-to-end metrics (medians over the invocations);
--trace 1 makes one untraced invocation, then traced ones, and prints the
per-layer metrics.  ``--workload all`` runs every workload in turn.  The
last line of standard output is one JSON object; details of the run go to
``.perfbench-work/<workload>/result.json``.  See README.md.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import LAYERS
from workloads import GATES, WORKLOADS, GateError, make_config, reference_values

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

RUN_LIMIT_S = 170.0          # a run ends well within 180 s
PROBE_EIG_N = 260            # a Howland-sized matrix (two-level config, 32 modes)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# span -> the per-layer metrics taken from it
SPAN_METRICS = {
    "reservoir.check_strip_analyticity": ("busy_s", "first_s", "calls"),
    "reservoir.pv_coefficient": ("busy_s", "calls"),
    "lindblad.check_assumptions": ("busy_s", "first_s"),
    "lindblad.reservoir_lindbladian": ("calls",),
    "lindblad.resolvent_oracle": ("busy_s",),
    "evolution.evolve": ("busy_s",),
    "evolution.propagator": ("busy_s",),
    "evolution.trajectory_to_csv": ("busy_s",),
    "floquet.build_howland": ("calls",),
    "floquet.floquet_spectrum": ("busy_s", "first_s"),
    "floquet.resonance_report": ("busy_s",),
    "floquet.monodromy": ("busy_s",),
    "floquet.riesz_projection": ("busy_s", "first_s", "calls"),
    "floquet.kato_block": ("busy_s", "first_s"),
}
COUNTERS = ("reservoir.integrand_evals", "reservoir.quad_evals", "lindblad.quad_evals",
            "evolution.rhs_evals", "evolution.propagator.rhs_evals",
            "floquet.howland_rows", "floquet.eig_calls", "floquet.solve_rhs_cols",
            "floquet.flops_computed", "operator_core.superop_constructions")


def per_layer_units():
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            units[f"{span}.{field}"] = "s" if field.endswith("_s") else "count"
    for name in COUNTERS:
        units[name] = "flop" if name.endswith("flops_computed") else "count"
    units.update({
        "floquet.linalg_s": "s", "cli.artifact_bytes": "bytes", "cli.cpu_s": "s",
        "linalg.probe_cold_eig_s": "s", "linalg.probe_warm_eig_s": "s",
        "trace.overhead_s": "s", "trace.spans": "count",
    })
    return units


PER_LAYER = per_layer_units()
# values that must repeat exactly between traced invocations
EXACT = [k for k, unit in PER_LAYER.items() if unit in ("count", "flop", "bytes")]


class BenchError(Exception):
    """The benchmark cannot run here (no result is printed)."""


# --------------------------------------------------------------------------
# one invocation
# --------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _artifacts(out_dir):
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def invoke(spec, cfg_path, run_dir, tag, trace, deadline):
    """Run one fresh CLI process; return its measurements."""
    inv_dir = run_dir / tag
    shutil.rmtree(inv_dir, ignore_errors=True)
    inv_dir.mkdir(parents=True)
    out_dir, timing = inv_dir / "out", inv_dir / "timing.json"
    trace_path = inv_dir / "trace.json" if trace else None
    cmd = [sys.executable, str(BENCH / "launch.py"), str(timing),
           str(trace_path) if trace else "-", spec["command"], str(cfg_path),
           "--out", str(out_dir), *spec["args"]]
    killed = threading.Event()
    reaped = threading.Lock()

    with open(inv_dir / "stdout", "wb") as so, open(inv_dir / "stderr", "wb") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=inv_dir, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=so, stderr=se)

        def kill():
            with reaped:
                if proc.returncode is None:
                    killed.set()
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(1.0, deadline - t0), kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            with reaped:
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:     # interrupted: stop the child first
                proc.kill()
                proc.wait()

    rec = {"tag": tag, "traced": trace, "exit_code": proc.returncode,
           "wall_s": end - t0, "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime, "killed": killed.is_set()}
    try:
        tm = json.loads(timing.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        tm = None
    if tm is not None:
        if not Path(tm["cli_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"CLI imported from {tm['cli_file']}, not from {SRC}")
        rec["setup_s"] = tm["ready"] - t0
        rec["solve_s"] = tm["done"] - tm["dispatch"]
    if trace_path is not None and trace_path.exists():
        rec["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
    rec["artifacts"], rec["artifact_bytes"] = _artifacts(out_dir) if out_dir.exists() else (None, 0)
    rec["stderr_tail"] = (inv_dir / "stderr").read_text(errors="replace")[-400:]
    return rec


def gate(name, rec, out_dir, ref, first_hash):
    """Reason the invocation failed, or None."""
    if rec["killed"]:
        return "killed at the run's time limit"
    if rec["exit_code"] != 0:
        return f"exit code {rec['exit_code']}: {rec['stderr_tail'].strip()[-200:]}"
    if "solve_s" not in rec:
        return "no timing record"
    try:
        GATES[name](out_dir, ref)
    except (GateError, KeyError, TypeError, ValueError, IndexError) as exc:
        return f"output gate: {type(exc).__name__}: {exc}"
    if first_hash is not None and rec["artifacts"] != first_hash:
        return "artifacts differ from the first invocation of this seed"
    return None


# --------------------------------------------------------------------------
# traced-run aggregation
# --------------------------------------------------------------------------

def layer_breakdown(trace):
    """Per-span-name and per-layer figures from one invocation's spans."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _tid in spans:
        if parent is not None:
            child[parent] += end - start
    per_span, self_s = {}, {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _parent, _tid) in enumerate(spans):
        dur = end - start
        agg = per_span.setdefault(name, {"calls": 0, "busy_s": 0.0, "first_s": dur,
                                         "first_start": start, "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += dur
        agg["self_s"] += dur - child[i]
        if start < agg["first_start"]:
            agg["first_s"], agg["first_start"] = dur, start
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
    for agg in per_span.values():
        agg["rest_s"] = agg["busy_s"] - agg["first_s"]
        del agg["first_start"]
    return per_span, self_s


def layer_metrics(rec):
    per_span, self_s = layer_breakdown(rec["trace"])
    counters = rec["trace"]["counters"]
    values = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            values[f"{span}.{field}"] = per_span.get(span, {}).get(field, 0)
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    values["floquet.linalg_s"] = counters.get("floquet.linalg_s", 0.0)
    values["cli.artifact_bytes"] = rec["artifact_bytes"]
    values["cli.cpu_s"] = rec["cpu_s"]
    values["trace.spans"] = len(rec["trace"]["spans"])
    return values, per_span


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def environment(seed, eig_n=None):
    cmd = [sys.executable, str(BENCH / "probe.py")]
    if eig_n:
        cmd += ["--eig", str(eig_n)]
    probe = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                           timeout=60, check=True)
    env = json.loads(probe.stdout.strip().splitlines()[-1])
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    env.update({
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "commit": commit,
        "seed": seed,
    })
    return env


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------

def _tail(values):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def run_workload(name, seed, seconds, trace):
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = WORK / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    compileall.compile_dir(str(SRC / "pumped_lindblad"), quiet=1)
    spec = WORKLOADS[name]
    cfg_path = run_dir / "input.json"
    cfg_path.write_text(json.dumps(make_config(name, seed, ROOT / "configs"), indent=2),
                        encoding="utf-8")
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[name]
    env = environment(seed, PROBE_EIG_N if trace else None)

    records, first_hash = [], None
    end_by = started + seconds

    def one(tag, traced):
        nonlocal first_hash
        rec = invoke(spec, cfg_path, run_dir, tag, traced, deadline)
        rec["failure"] = gate(name, rec, run_dir / tag / "out", ref, first_hash)
        if rec["failure"] is None and first_hash is None:
            first_hash = rec["artifacts"]
        records.append(rec)
        return rec

    def more(walls):
        now = time.monotonic()
        expect = statistics.median(walls)
        return now + expect <= end_by and now + 1.2 * expect <= deadline

    if trace:
        untraced = one("untraced", False)
        traced = [one("traced-0", True)]
        while traced[-1]["failure"] is None and more([r["wall_s"] for r in traced]):
            traced.append(one(f"traced-{len(traced)}", True))
        metrics, extra = trace_metrics(untraced, traced, env)
    else:
        one("run-0", False)
        while records[-1]["failure"] is None and more([r["wall_s"] for r in records]):
            one(f"run-{len(records)}", False)
        metrics, extra = timing_metrics(records)

    failed = sum(1 for r in records if r["failure"] is not None)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "environment": env, "attempted": len(records), "failed": failed,
        "fail_frac": failed / len(records), "metrics": metrics, **extra,
        "invocations": [{k: v for k, v in r.items() if k != "trace"} for r in records],
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True),
                                         encoding="utf-8")
    return result


def timing_metrics(records):
    metrics, detail = {}, {}
    for key, unit in END_TO_END.items():
        values = [r[key] for r in records if key in r]
        if not values:
            raise BenchError(f"no invocation recorded {key}")
        metrics[key] = {"value": statistics.median(values), "unit": unit}
        detail[key] = {"median": statistics.median(values), "n": len(values),
                       "tail": _tail(values), "unit": unit}
    return metrics, {"detail": detail}


def trace_metrics(untraced, traced, env):
    runs = [layer_metrics(r) for r in traced if "trace" in r]
    if not runs:
        raise BenchError("no traced invocation wrote a trace")
    mismatched = [k for k in EXACT if k in runs[0][0]
                  and any(v[k] != runs[0][0][k] for v, _ in runs[1:])]
    for rec in traced[1:]:
        if mismatched and rec["failure"] is None:
            rec["failure"] = f"traced counts differ between invocations: {mismatched}"
    values = {}
    for key in PER_LAYER:
        if key in runs[0][0]:
            values[key] = (runs[0][0][key] if key in EXACT
                           else statistics.median(v[key] for v, _ in runs))
    values["linalg.probe_cold_eig_s"] = env.get("cold_eig_s", 0.0)
    values["linalg.probe_warm_eig_s"] = env.get("warm_eig_s", 0.0)
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - untraced["wall_s"])
    metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    return metrics, {"spans": runs[0][1], "untraced_wall_s": untraced["wall_s"]}


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def print_summary(result):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {int(result['trace'])}  invocations {result['attempted']}  "
          f"failed {result['failed']} (fail_frac {result['fail_frac']:.3g})")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for rec in result["invocations"]:
        if rec["failure"]:
            print(f"  FAILED {rec['tag']}: {rec['failure']}")
    if not result["trace"]:
        for key, d in result["detail"].items():
            tail = (f"p{d['tail']['percentile']:.0f} {d['tail']['value']:.4f}"
                    if d["tail"] else "tail n/a (< 11 samples)")
            print(f"  {key:<12} median {d['median']:.4f} {d['unit']:<3} {tail}  n={d['n']}")
        return
    m = result["metrics"]
    layers = sorted(LAYERS, key=lambda layer: -m[f"{layer}.self_s"]["value"])
    print("  self time by layer: " + ", ".join(
        f"{layer} {m[f'{layer}.self_s']['value']:.3f} s" for layer in layers))
    print(f"  untraced wall {result['untraced_wall_s']:.3f} s, tracing overhead "
          f"{m['trace.overhead_s']['value']:.3f} s")
    print(f"  {'span':<40} {'calls':>6} {'busy_s':>9} {'self_s':>9} {'first_s':>9} {'rest_s':>9}")
    for span, agg in sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {span:<40} {agg['calls']:>6} {agg['busy_s']:>9.4f} {agg['self_s']:>9.4f} "
              f"{agg['first_s']:>9.4f} {agg['rest_s']:>9.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record seed-0 outputs as perfbench/reference.json")
    args = parser.parse_args(argv)
    # a terminated benchmark still stops and reaps its child (see invoke)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")

    if not (SRC / "pumped_lindblad" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no package source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_summary(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


def write_reference():
    """Run every workload once at seed 0 and store its gauge-invariant outputs."""
    refs = {}
    for name, spec in WORKLOADS.items():
        run_dir = WORK / "reference" / name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        cfg_path = run_dir / "input.json"
        cfg_path.write_text(json.dumps(make_config(name, 0, ROOT / "configs")),
                            encoding="utf-8")
        rec = invoke(spec, cfg_path, run_dir, "ref", False, time.monotonic() + 600)
        if rec["exit_code"] != 0:
            print(f"perfbench: {name} failed: {rec['stderr_tail']}", file=sys.stderr)
            return 1
        refs[name] = reference_values(name, run_dir / "ref" / "out")
    (BENCH / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
