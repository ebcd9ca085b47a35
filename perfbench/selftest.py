"""Self-test of the benchmark's own checks. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. On every workload, an op that raises must be counted as failed, and with
   every op's output nudged by a relative 1e-8 every op must be counted as
   failed.
2. On every workload, a traced run must give output bit-identical to the
   untraced run of the same inputs (run.py counts any difference as a
   failed op), and its layer self times must account for the traced op
   time within 10%.

Exits 0 when every case holds and 1 otherwise.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

# op time per run: enough for at least three ops of the slowest workload
SECONDS = {"sweep": 1, "counting": 2, "cli": 2, "verify": 5}


def main():
    failures = []
    for workload in workloads.WORKLOADS:
        for inject in ("wrong", "raise"):
            result, details = run.measure(workload, 7, SECONDS[workload], 0, inject=inject)
            rate = details["end_to_end"]["error_rate"]["value"]
            expected = result["attempted"] if inject == "wrong" else 1
            ok = result["failed"] == expected and rate > 0.0 and not result["correct"]
            print(f"{workload:9s} inject={inject:6s} failed={result['failed']}/"
                  f"{result['attempted']} error_rate={rate:.3f} {'ok' if ok else 'MISSED'}")
            if not ok:
                failures.append(f"{workload}: injected {inject} not counted")
        result, details = run.measure(workload, 7, 2 * SECONDS[workload], 1)
        coverage = result["metrics"]["trace.coverage_pct"]["value"]
        ok = result["correct"] and abs(coverage - 100.0) <= 10.0
        print(f"{workload:9s} traced: failed={result['failed']}/{result['attempted']} "
              f"coverage={coverage:.1f}% {'ok' if ok else 'FAILED'} {details['failures'][:3]}")
        if not ok:
            failures.append(f"{workload}: traced run failed or coverage off")
    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
