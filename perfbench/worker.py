"""In-process worker for the `sweep` and `counting` workloads.

Started by run.py as a child process with `src` on the path. It imports
gapspec, warms up, runs the seeded ops in a closed loop for the requested
time, checks each op's output against an independent numpy reference
outside the timed region, and prints one JSON line with the results.

    PYTHONPATH=src python3 perfbench/worker.py --workload sweep --seed 1 --seconds 5
    PYTHONPATH=src python3 perfbench/worker.py --workload sweep --setup-only

With --trace 1 the ops are run twice from the start of the same input
stream: first untraced, then with the tracer installed. The two halves give
`trace.overhead_pct`, and every op run in both halves must give
bit-identical output.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ENTRY_SAMPLE_EVERY = 25  # ops between mpmath entry samples (checked by run.py)


def _spec(gs, inp):
    if inp["family"] == "bessel":
        return gs.bessel_spec(inp["a"])
    return gs.KernelSpec(inp["family"])


def sweep_op(gs, inp):
    d = gs.build_discretization(_spec(gs, inp), gs.IntervalSpec(inp["family"], inp["s"]), inp["n"])
    sp = gs.compute_spectrum(d)
    return d, gs.log_fredholm_det(sp, inp["gamma"])


def counting_op(gs, inp):
    d = gs.build_discretization(_spec(gs, inp), gs.IntervalSpec(inp["family"], inp["s"]), inp["n"])
    sp = gs.compute_spectrum(d)
    return sp, [gs.counting_prob(sp, k, inp["gamma"]) for k in range(workloads.COUNTING_TABLE)]


OPS = {"sweep": sweep_op, "counting": counting_op}


def check(workload, inp, state, value):
    if workload == "sweep":
        return checks.check_log_det(state.matrix, inp["gamma"], value)
    return checks.check_counting_table(state.eigenvalues, inp["gamma"], value)


def warm_up(gs, workload):
    """One op per discrete combination, so lazy set-up and caches are done."""
    seen = set()
    for inp in itertools.islice(workloads.inputs(workload, seed=0), 200):
        combo = (inp["family"], inp["a"], inp["n"])
        if combo not in seen:
            seen.add(combo)
            OPS[workload](gs, inp)


def run_loop(gs, workload, seed, seconds, inject=None, max_ops=None):
    """Closed loop of one client: run ops until `seconds` of op time.
    Each op is bracketed by speed probes (see speed.py)."""
    op = OPS[workload]
    records = []
    busy = 0.0
    deadline = time.perf_counter() + workloads.wall_limit(seconds)
    before = speed.probe()
    for i, inp in enumerate(workloads.inputs(workload, seed)):
        if busy >= seconds or i == max_ops or time.perf_counter() > deadline:
            break
        error = None
        t0 = time.perf_counter()
        try:
            if inject == "raise" and i == 1:
                raise RuntimeError("injected failure")
            state, value = op(gs, inp)
        except Exception as exc:  # any failure of the program counts as a failed op
            dt = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - t0
        after = speed.probe()
        busy += dt
        rec = {"latency_s": dt, "speed": speed.factor(before, after)}
        before = after
        if error is None:
            if inject == "wrong":
                value = checks.nudge(value)
            error = check(workload, inp, state, value)
            rec["digest"] = checks.digest(value)
            if workload == "sweep" and i % ENTRY_SAMPLE_EVERY == 0:
                rec["entries"] = checks.sample_entries(state)
        if error is not None:
            rec["error"] = error
        records.append(rec)
    return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.IN_PROCESS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject", choices=("wrong", "raise"), default=None)
    args = ap.parse_args(argv)

    import gapspec as gs

    warm_up(gs, args.workload)
    if args.setup_only:
        return 0
    out = {"t_start": T_START}
    if args.trace:
        import tracer

        half = args.seconds / 2.0
        out["untraced"] = run_loop(gs, args.workload, args.seed, half, args.inject)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = run_loop(
                gs, args.workload, args.seed, half, args.inject, max_ops=len(out["untraced"])
            )
        finally:
            tr.uninstall()
        out["traced"] = traced
        out["trace"] = tr.report()
    else:
        out["records"] = run_loop(gs, args.workload, args.seed, args.seconds, args.inject)
    out["t_end"] = time.perf_counter()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
