"""gapspec benchmark: end-to-end metrics, per-layer traces, checked outputs.

Run from the root of a checkout (the package is used from `src`, never
installed):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md):
  cli       fresh `python -m gapspec.cli` processes: det, spectrum, asymp, scan
  sweep     in-process build_discretization -> compute_spectrum -> log det
  counting  in-process sine spectra read through counting_prob for E(0..11)
  verify    fresh `python -m gapspec.cli verify` processes

Ops run in a closed loop with one client until `--seconds` of op time has
been spent. Every op's output is checked outside the timed region; an op
that raises, exits non-zero or misses its reference counts as failed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, taken by wrapping
gapspec's public entry points (tracer.py). The lines before it give the
provenance, the tail percentile used, and every metric as a table.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread here as well, set before numpy loads, so the in-process
# CLI reference computes like the CLI processes it is compared with.
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
HOLDOUT_OFFSET = 1_000_003
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10


# --------------------------------------------------------------------------
# environment and provenance
# --------------------------------------------------------------------------


AFFINITY = frozenset(os.sched_getaffinity(0))


def controlled_env():
    """The host environment without GAPSPEC_* variables, with `src` as the
    only extra import path and one BLAS thread (the work is pinned to one
    CPU, see pin_to_one_cpu)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GAPSPEC_")}
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so each speed probe
    runs on the core the timed work ran on. The work is single-threaded
    (BLAS threads are 1), so this moves it without slowing it."""
    cpu = max(AFFINITY)
    os.sched_setaffinity(0, {cpu})
    return cpu


def _git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_digest():
    """sha256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gapspec")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path) and name.endswith((".py", ".pyx", ".c")):
            h.update(name.encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def provenance(env):
    import numpy as np

    import gapspec

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(AFFINITY),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": int(env["OPENBLAS_NUM_THREADS"]),
        },
        "backend": gapspec.backend_name(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_digest(),
    }


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


def spawn(argv, env, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion and reap it.

    Returns (wall_s, returncode, stdout, stderr, peak_rss_mb, t_spawn). A
    child still running after `timeout` seconds is killed, which shows as a
    negative returncode.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, err[0], usage.ru_maxrss / 1024.0, t0


def setup_times(workload, env):
    """Wall time of SETUP_REPEATS fresh processes that only set up."""
    if workload in workloads.IN_PROCESS:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                "--setup-only"]
    else:
        argv = [sys.executable, "-c", "import gapspec"]
    spawn(argv, env)  # fills __pycache__ in a fresh checkout; not timed
    times = []
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        wall, rc, _, err, _, _ = spawn(argv, env)
        after = speed.probe()
        if rc != 0:
            raise RuntimeError(f"set-up child failed: {err.decode(errors='replace')[-500:]}")
        times.append(Op(wall, speed=speed.factor(before, after)))
        before = after
    return times


def parse_importtime(stderr):
    """(numpy_ms, gapspec_ms) from `-X importtime` lines: numpy's cumulative
    time, and gapspec's top-level imports without the numpy inside them."""
    numpy_us = 0
    gapspec_us = 0
    numpy_under_gapspec = False
    pending_numpy = False
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        try:
            cum = int(cumulative)
        except ValueError:  # the header line
            continue
        stripped = name.strip()
        if stripped == "numpy":
            numpy_us = cum
            pending_numpy = name.startswith("  ")
        if not name.startswith("  "):  # top level: closes the nested lines above
            if stripped == "gapspec" or stripped.startswith("gapspec."):
                gapspec_us += cum
                numpy_under_gapspec |= pending_numpy
            pending_numpy = False
    if numpy_under_gapspec:
        gapspec_us -= numpy_us
    return numpy_us / 1000.0, gapspec_us / 1000.0


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Op:
    """One attempted op: its wall time, the speed factor that takes it to
    reference speed (speed.py) and, if it failed, why."""

    __slots__ = ("latency_s", "speed", "error")

    def __init__(self, latency_s, error=None, speed=1.0):
        self.latency_s = latency_s
        self.speed = speed
        self.error = error

    @property
    def norm_s(self):
        return self.latency_s * self.speed


def run_in_process(workload, seed, seconds, trace, env, inject=None):
    """The sweep or counting worker. Returns (ops, peak_rss_mb, layer_data)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        argv[1:1] = ["-X", "importtime"]
    if inject:
        argv += ["--inject", inject]
    wall, rc, out, err, rss, t_spawn = spawn(argv, env)
    err = err.decode(errors="replace")
    if rc != 0:
        raise RuntimeError(f"worker exited with {rc}: {err[-2000:]}")
    res = json.loads(out.decode().strip().splitlines()[-1])
    for rec in res.get("records", []) + res.get("untraced", []) + res.get("traced", []):
        if "entries" in rec and "error" not in rec:
            rec["error"] = check_entries(rec.pop("entries"))
    if not trace:
        return [_op(r) for r in res["records"]], rss, None
    ops, layers = _trace_phases(res["untraced"], res["traced"])
    numpy_ms, gapspec_ms = parse_importtime(err)
    layers.update(
        trace=res["trace"],
        interpreter_ms=1000.0 * (res["t_start"] - t_spawn),
        import_numpy_ms=numpy_ms,
        import_gapspec_ms=gapspec_ms,
        command_ms=1000.0 * statistics.fmean(r["latency_s"] for r in res["traced"]),
        exit_ms=1000.0 * (t_spawn + wall - res["t_end"]),
        stream_ops=len(res["untraced"]),
        startup_in_op=False,
    )
    return ops, rss, layers


def _op(rec):
    return Op(rec["latency_s"], rec.get("error"), rec["speed"])


def check_entries(entries):
    """mpmath check of the Nystrom entries the worker sampled from one op:
    None, or why the first wrong entry is wrong."""
    import mpmath

    for entry in entries:
        error = checks.check_entry(mpmath, entry)
        if error:
            return error
    return None


def _trace_phases(untraced, traced):
    """Ops of both phases; a traced op whose output differs in any bit from
    the untraced run of the same input is failed."""
    for i, (u, t) in enumerate(zip(untraced, traced)):
        if u.get("digest") != t.get("digest") and "error" not in t:
            t["error"] = f"op {i}: traced output differs from untraced"
    ops = [_op(r) for r in untraced + traced]
    k = len(traced)
    untraced_norm = sum(o.norm_s for o in ops[:k])
    traced_norm = sum(o.norm_s for o in ops[len(untraced):])
    traced_s = sum(r["latency_s"] for r in traced)
    layers = {"overhead_pct": 100.0 * (traced_norm / untraced_norm - 1.0), "traced_ops": k,
              "traced_s": traced_s, "speed": traced_norm / traced_s}
    return ops, layers


def _in_process_cli(argv):
    """The same query run in this process: (returncode, stdout text)."""
    import gapspec.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = gapspec.cli.main(list(argv))
    return rc, buf.getvalue()


def _check_process_op(workload, argv, rc, text, inject_wrong):
    if rc != 0:
        return f"exit code {rc}"
    if workload == "verify":
        statuses = checks.verify_statuses(text)
        if inject_wrong:
            statuses[0] = "FAIL"
        return checks.check_verify(statuses)
    got = checks.parse_csv_numbers(text)
    if inject_wrong:
        got = [checks.nudge(g) if isinstance(g, float) else g for g in got]
    ref_rc, ref_text = _in_process_cli(argv)
    if ref_rc != 0:
        return f"in-process reference exited with {ref_rc}"
    return checks.check_cli(got, checks.parse_csv_numbers(ref_text))


def _process_loop(workload, seed, seconds, env, traced, inject, max_ops=None):
    """Closed loop over fresh CLI processes. Returns (ops, peak_rss_mb,
    outputs, child trace reports)."""
    ops, outputs, reports = [], [], []
    peak = 0.0
    busy = 0.0
    deadline = time.perf_counter() + workloads.wall_limit(seconds)
    before = speed.probe()
    for i, inp in enumerate(workloads.inputs(workload, seed)):
        if busy >= seconds or i == max_ops or time.perf_counter() > deadline:
            break
        if traced:
            argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_child.py")]
        else:
            argv = [sys.executable, "-m", "gapspec.cli"]
        if inject == "raise" and i == 1:
            ops.append(Op(0.0, "RuntimeError: injected failure"))
            outputs.append(None)
            continue
        wall, rc, out, err, rss, t_spawn = spawn(argv + inp["argv"], env)
        after = speed.probe()
        factor = speed.factor(before, after)
        before = after
        busy += wall
        peak = max(peak, rss)
        text = out.decode(errors="replace")
        error = _check_process_op(workload, inp["argv"], rc, text, inject == "wrong")
        ops.append(Op(wall, error, factor))
        outputs.append(out)
        if traced:
            reports.append(_child_report(err.decode(errors="replace"), t_spawn, wall))
    return ops, peak, outputs, reports


def _child_report(stderr, t_spawn, wall):
    lines = [ln for ln in stderr.splitlines() if ln.startswith(tracer.TRACE_MARK)]
    if not lines:
        raise RuntimeError(f"traced CLI child wrote no trace report: {stderr[-2000:]}")
    rep = json.loads(lines[-1][len(tracer.TRACE_MARK):])
    rep["numpy_ms"], rep["gapspec_ms"] = parse_importtime(stderr)
    rep["interpreter_ms"] = 1000.0 * (rep["t_start"] - t_spawn)
    rep["exit_ms"] = 1000.0 * (t_spawn + wall - rep["t_end"])
    return rep


def run_processes(workload, seed, seconds, trace, env, inject=None):
    """The cli or verify workload. Returns (ops, peak_rss_mb, layer_data)."""
    if not trace:
        ops, peak, _, _ = _process_loop(workload, seed, seconds, env, False, inject)
        return ops, peak, None
    half = seconds / 2.0
    u_ops, peak, u_out, _ = _process_loop(workload, seed, half, env, False, inject)
    t_ops, _, t_out, reports = _process_loop(
        workload, seed, half, env, True, inject, max_ops=len(u_ops)
    )
    for i, (u, t, op) in enumerate(zip(u_out, t_out, t_ops)):
        if _untimed(u) != _untimed(t) and op.error is None:
            op.error = f"op {i}: traced output differs from untraced"
    ops = u_ops + t_ops
    k = len(t_ops)
    traced_norm = sum(o.norm_s for o in t_ops)
    layers = {
        "overhead_pct": 100.0 * (traced_norm / sum(o.norm_s for o in u_ops[:k]) - 1.0),
        "traced_ops": k,
        "traced_s": sum(o.latency_s for o in t_ops),
        "speed": traced_norm / sum(o.latency_s for o in t_ops),
        "trace": _merge_reports(reports),
        "interpreter_ms": statistics.fmean(r["interpreter_ms"] for r in reports),
        "import_numpy_ms": statistics.fmean(r["numpy_ms"] for r in reports),
        "import_gapspec_ms": statistics.fmean(r["gapspec_ms"] for r in reports),
        "command_ms": 1000.0 * statistics.fmean(r["command_s"] for r in reports),
        "exit_ms": statistics.fmean(r["exit_ms"] for r in reports),
        "stream_ops": len(u_ops),
        "startup_in_op": True,
    }
    return ops, peak, layers


def _untimed(output):
    """CLI output without the wall times `verify` prints in its details."""
    return None if output is None else re.sub(rb"\d+\.\d+s\b", b"<t>s", output)


def _merge_reports(reports):
    merged = {"calls": {}, "self_s": {}, "fn_calls": {}, "counters": {}, "missing": []}
    for rep in reports:
        for key in ("calls", "self_s", "fn_calls", "counters"):
            for name, value in rep[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["missing"] = sorted(set(merged["missing"]) | set(rep["missing"]))
    return merged


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("error_rate", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# error_rate is printed with the others but left out of BENCHMARK.json: it is
# 0 on a correct program, and the result line's `failed` already carries it.
NOT_IN_RESULT = ("error_rate",)

PER_LAYER = (
    ("specfun.calls", "count"),
    ("specfun.self_ms", "ms"),
    ("specfun.us_per_call", "us"),
    ("kernels.kernel_eval.calls", "count"),
    ("kernels.self_ms", "ms"),
    ("operator.gauss_legendre.calls", "count"),
    ("operator.gauss_legendre.self_ms", "ms"),
    ("operator.build_discretization.calls", "count"),
    ("operator.build_discretization.self_ms", "ms"),
    ("operator.build_discretization.entries", "count"),
    ("operator.compute_spectrum.calls", "count"),
    ("operator.compute_spectrum.self_ms", "ms"),
    ("operator.compute_spectrum.gflops_computed", "GFLOP"),
    ("operator.det.calls", "count"),
    ("operator.det.self_ms", "ms"),
    ("operator.counting.calls", "count"),
    ("operator.counting.self_ms", "ms"),
    ("asymptotics.calls", "count"),
    ("asymptotics.self_ms", "ms"),
    ("verify.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.import_gapspec_ms", "ms"),
    ("cli.command_ms", "ms"),
    ("cli.exit_ms", "ms"),
    ("repeat_share", "share"),
    ("trace.op_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
)

CALL_LAYERS = ("specfun", "operator.gauss_legendre", "operator.build_discretization",
               "operator.compute_spectrum", "operator.det", "operator.counting", "asymptotics")
SELF_LAYERS = CALL_LAYERS + ("kernels", "verify", "cli")


def tail(latencies):
    """(value, percentile, samples above): the highest percentile with at
    least TAIL_BEYOND samples above it. A run too short to have one above
    the median (TAIL_BEYOND * 2 ops or fewer, as on verify) reports the
    median."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, n // 2
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _timings(ops, setup, attr):
    lat = [getattr(o, attr) for o in ops if o.latency_s > 0.0]
    failed = sum(o.error is not None for o in ops)
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "ops_per_s": (len(ops) - failed) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail_s,
        "error_rate": failed / len(ops),
        "setup_s": statistics.median(getattr(o, attr) for o in setup),
    }
    info = {"op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
            "op_samples": len(lat)}
    return metrics, info


def end_to_end(ops, setup, peak_rss_mb):
    """Metrics at reference speed, plus the same from raw wall times."""
    metrics, info = _timings(ops, setup, "norm_s")
    metrics["peak_rss_mb"] = peak_rss_mb
    info["raw_wall_time"], _ = _timings(ops, setup, "latency_s")
    info["speed_factor_median"] = statistics.median(o.speed for o in ops + setup)
    return metrics, info


def per_layer(layers, rep_share):
    trace = layers["trace"]
    k = layers["traced_ops"]
    calls, self_s = trace["calls"], trace["self_s"]
    metrics = {}
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0) / k
    # times at reference speed: scaled by the traced ops' mean speed factor
    ms = 1000.0 * layers["speed"]
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_ms"] = ms * self_s.get(layer, 0.0) / k
    spec_calls = calls.get("specfun", 0)
    metrics["specfun.us_per_call"] = (
        1000.0 * ms * self_s.get("specfun", 0.0) / spec_calls if spec_calls else 0.0
    )
    metrics["kernels.kernel_eval.calls"] = trace["fn_calls"].get("kernels.kernel_eval", 0) / k
    for name in ("operator.build_discretization.entries",
                 "operator.compute_spectrum.gflops_computed"):
        metrics[name] = trace["counters"].get(name, 0) / k
    for name in ("interpreter_ms", "import_numpy_ms", "import_gapspec_ms", "command_ms",
                 "exit_ms"):
        metrics[f"cli.{name}"] = layers[name] * layers["speed"]
    covered = sum(self_s.values())
    if layers["startup_in_op"]:
        covered += k * (layers["interpreter_ms"] + layers["import_numpy_ms"]
                        + layers["import_gapspec_ms"] + layers["exit_ms"]) / 1000.0
    metrics["repeat_share"] = rep_share
    metrics["trace.op_ms"] = ms * layers["traced_s"] / k
    metrics["trace.coverage_pct"] = 100.0 * covered / layers["traced_s"]
    metrics["trace.overhead_pct"] = layers["overhead_pct"]
    return {name: metrics[name] for name, _ in PER_LAYER}


def measure(workload, seed, seconds, trace, inject=None):
    """Run one workload. Returns (result dict, details dict)."""
    env = controlled_env()
    os.environ.clear()
    os.environ.update(env)  # no GAPSPEC_* for the in-process CLI reference either
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    prov = provenance(env)
    prov["pinned_cpu"] = pin_to_one_cpu()
    setup = setup_times(workload, env)
    if workload in workloads.IN_PROCESS:
        ops, peak, layers = run_in_process(workload, seed, seconds, trace, env, inject)
    else:
        ops, peak, layers = run_processes(workload, seed, seconds, trace, env, inject)
    failed = [o.error for o in ops if o.error is not None]
    units = dict(END_TO_END + PER_LAYER)
    if trace:
        inps = list(itertools.islice(workloads.inputs(workload, seed), layers["stream_ops"]))
        values = per_layer(layers, workloads.repeat_share(inps))
        info = {
            "trace_missing_entry_points": layers["trace"]["missing"],
            "trace_fn_calls_per_op": {
                name: count / layers["traced_ops"]
                for name, count in layers["trace"]["fn_calls"].items()
            },
        }
    else:
        e2e, info = end_to_end(ops, setup, peak)
        info["end_to_end"] = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
        values = {k: v for k, v in e2e.items() if k not in NOT_IN_RESULT}
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "holdout_seed": seed + HOLDOUT_OFFSET,
        "seconds": seconds,
        "trace": trace,
        "provenance": prov,
        **info,
        "failures": failed[:20],
    }
    return result, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gapspec", "__init__.py")):
        print(f"perfbench: no gapspec package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    table = details.get("end_to_end") or result["metrics"]
    for name, m in table.items():
        print(f"  {args.workload:9s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
