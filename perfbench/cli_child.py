"""Traced bootstrap for one gapspec CLI process.

    python3 -X importtime perfbench/cli_child.py det --kernel sine --s 3

Imports gapspec.cli, installs the tracer, then calls `gapspec.cli.main`
with the remaining arguments, exactly as `python -m gapspec.cli` would.
The CLI's output is untouched on stdout; the trace report is the last line
of stderr, after the `-X importtime` lines, prefixed with tracer.TRACE_MARK.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402

import gapspec.cli  # noqa: E402

import json  # noqa: E402
import os  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main():
    tr = tracer.Tracer()
    tr.install()
    t0 = time.perf_counter()
    try:
        rc = gapspec.cli.main(sys.argv[1:])
    finally:
        t1 = time.perf_counter()
        tr.uninstall()
        sys.stdout.flush()
        report = tr.report()
        report.update(t_start=T_START, command_s=t1 - t0, t_end=time.perf_counter())
        print(tracer.TRACE_MARK + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
