"""Command-line front end.

Subcommands: spectrum, det, asymp, scan, verify. Each registers only the
options it reads (`gapspec <command> --help` lists them), declared once in
_OPTIONS. asymp's --formula and scan's --kind select what runs; an option
that only some formulas or kinds read (_ASYMP_READS, _SCAN_READS) is
refused for the others. A --config JSON object supplies the flags left
unset; it may hold only keys of the command's own options, each once and of
its flag's type (a number given for a float option is read as a float), so
a misspelt, foreign or repeated key is refused rather than silently
ignored, and the selector's refusals hold for its keys too.

There is one namespace of options: _load_config sets every key of _OPTIONS
on the parsed arguments (flag, else --config, else default), checks them,
and sets args.family once, from --kernel or asymp's --formula; each cmd_*
reads that namespace alone, and _emit formats every float it prints.

Output is deterministic CSV or JSON (schema_version 1); floats are
emitted with 17 significant digits so files are byte-identical across runs.

Exit codes: 0 success, 1 verification failure, 2 usage error (a config or
output file that cannot be read or written included), 3 numerical
error. A PrecisionWarning (a result resting on an unresolved factor) goes to
stderr and leaves stdout as it is; under python -W error it exits 3. The
process entry point, run(), ends the process without interpreter teardown
once its output is flushed; if a flush fails (stdout a closed pipe),
Python's own exit runs and reports it, with exit code 120. main() returns
the code and never exits.
"""

import argparse
import json
import math
import os
import sys

from . import asymptotics as asym
from . import verify as verify_mod
from .errors import (
    ArgumentError,
    DegeneracyError,
    DomainError,
    NumericalError,
    PoleError,
    PrecisionWarning,
    _real,
)
from .kernels import _ROWS, IntervalSpec, KernelSpec, _coerce_family
from .operator import _gamma_lambda, build_discretization, compute_spectrum, log_fredholm_det

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x):
    """17-significant-digit float formatting shared by CSV and JSON."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _floats(record):
    """record with each float formatted by _fmt, for the JSON output."""
    return {k: (_fmt(x) if isinstance(x, float) else x) for k, x in record.items()}


def _spectrum(args):
    """The discretization of --kernel, --a, --s and --n, and its spectrum."""
    spec = KernelSpec(args.family, args.a or 0.0)
    d = build_discretization(spec, IntervalSpec(args.family, args.s), args.n)
    return d, compute_spectrum(d)


def _gamma(args):
    """gamma from exactly one of --gamma / --v / --chi; 1 when none is given."""
    if sum(x is not None for x in (args.gamma, args.v, args.chi)) > 1:
        raise ArgumentError("supply exactly one of --gamma, --v, --chi")
    if args.gamma is not None:
        return args.gamma
    if args.v is not None:
        return -math.expm1(-args.v)
    if args.chi is not None:
        return -math.expm1(-_chi_v(args.family, args.s, args.chi, args.a or 0.0))
    return 1.0


def _chi_v(fam, s, chi, a):
    """v of the Stokes curve chi at s, for --chi."""
    t = IntervalSpec(fam, s).t
    if math.isnan(t):
        raise ArgumentError(f"--chi needs s < 0 for the {fam.value} kernel, got s = {s}")
    return asym.stokes_v(fam, t, chi, a)


def _emit(args, header, rows, summary):
    """Write rows in --format to --output or stdout. JSON adds the summary
    and the config echo; every float of the three is formatted here."""
    if args.format == "csv":
        text = "".join(",".join(_fmt(x) for x in row) + "\n" for row in [header, *rows])
    else:
        echo = {key: getattr(args, key) for key in ("a", "s", "gamma", "v", "chi", "n", "format")}
        # asymp takes its family from --formula, not --kernel: its echo has none
        echo.update(family=args.family.value if args.kernel else None, deterministic=True)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config_echo": _floats(echo),
            "rows": [_floats(dict(zip(header, row))) for row in rows],
            "summary": _floats(summary),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args):
    top = args.top
    if top < 0:
        raise ArgumentError(f"--top must be >= 0, got {top}")
    d, sp = _spectrum(args)
    lams, factors = (x.tolist()[:top] for x in _gamma_lambda(sp, 1.0, "spectrum"))
    rows = [(i, lam, f, lam / f) for i, (lam, f) in enumerate(zip(lams, factors))]
    keys = ("repaired_entries", "clamped_zero", "clamped_top", "floor", "unresolved_top")
    summary = {key: sp.meta[key] for key in keys}
    summary.update(n=args.n, truncation=d.truncation)
    _emit(args, ("index", "lambda", "one_minus_lambda", "mu"), rows, summary)
    return EXIT_OK


def cmd_det(args):
    gamma = _gamma(args)
    d, sp = _spectrum(args)
    logdet = log_fredholm_det(sp, gamma)
    det = math.exp(logdet) if logdet > -745.0 else 0.0
    rows = [(logdet, det, args.n, float(d.truncation))]
    _emit(args, ("log_det", "det", "n", "truncation"), rows, {"gamma": gamma})
    return EXIT_OK


# the options that only some asymp formulas read, by formula
_ASYMP_READS = {
    "sine-transition": ("v", "chi", "p"),
    "airy-transition": ("v", "chi", "p"),
    "bessel-transition": ("v", "chi", "p"),
    "airy-gap": (),
    "bessel-gap": (),
    "sine-crit": (),
    "sine-sub": ("v",),
}


def cmd_asymp(args):
    sel, fam = args.formula, args.family
    s, v, a, chi = args.s, args.v, args.a or 0.0, args.chi
    if sel.endswith("transition"):
        if (v is None) == (chi is None):
            raise ArgumentError("transition formulas take exactly one of --v, --chi")
        if chi is not None:
            v = _chi_v(fam, s, chi, a)
        p = args.p if args.p is not None else asym.p_of_chi(chi if chi is not None else 0.0, fam)
        te = asym.transition(fam, s, v, p, a, chi)
        factors = ";".join(_fmt(f) for f in te.factors)
        rows = [(te.log_prefactor, factors, te.p, te.error_exponent, te.log_value)]
        header = ("log_prefactor", "factors", "p", "error_exponent", "log_value")
        _emit(args, header, rows, {"formula": sel, "v": v})
        return EXIT_OK
    if sel == "sine-sub":
        if v is None:
            raise ArgumentError("sine-sub needs --v")
        value = asym.sine_det_sub(s, v)
    else:
        value = asym.gap(fam, s, a)
    _emit(args, ("log_value",), [(value,)], {"formula": sel})
    return EXIT_OK


def _parse_grid(text):
    grid = []
    for item in text.split(","):
        try:
            grid.append(float(item))
        except ValueError:
            raise ArgumentError(f"--grid item {item!r} is not a number") from None
    return grid


# the options that only some scan kinds read, by kind
_SCAN_READS = {"eig": ("index",), "det": ("chi",), "stokes": ("q",)}


def cmd_scan(args):
    grid = _parse_grid(args.grid)
    kind, fam, a = args.kind, args.family, args.a or 0.0
    if kind == "eig":
        index = 0 if args.index is None else args.index
        res = verify_mod.eig_ratio_scan(fam, index, grid, n=args.n, a=a)
    elif kind == "det":
        if args.chi is None:
            raise ArgumentError("det scans need --chi")
        res = verify_mod.det_ratio_scan(fam, args.chi, grid, a=a, n=args.n)
    else:
        q = 1 if args.q is None else args.q
        res = verify_mod.stokes_crossing_scan(fam, q, grid, a=a, n=args.n)
    rows = list(zip(res.grid, res.numeric, res.predicted, res.rel_error))
    summary = {k: v for k, v in res.metadata.items() if k != "seconds"}
    _emit(args, ("t", "numeric", "predicted", "rel_error"), rows, summary)
    return EXIT_OK


def cmd_verify(args):
    results = verify_mod.run_acceptance()
    rows = [(name, "pass" if ok else "FAIL", detail) for name, ok, detail in results]
    n_fail = sum(1 for _, ok, _ in results if not ok)
    summary = {"passed": len(results) - n_fail, "failed": n_fail}
    _emit(args, ("criterion", "status", "detail"), rows, summary)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAIL


# every option a config-file key may name: its argparse keywords, whose
# type is also the JSON type the key's value must have (an int is a number,
# read as a float)
_OPTIONS = {
    "kernel": dict(type=str, choices=["sine", "airy", "bessel"]),
    "a": dict(type=float, help="Bessel order"),
    "s": dict(type=float, help="interval parameter"),
    "gamma": dict(type=float),
    "v": dict(type=float, help="v = -ln(1-gamma)"),
    "chi": dict(type=float, help="Stokes curve parameter"),
    "n": dict(type=int, help="quadrature size"),
    "p": dict(type=int, help="transition factors (transition formulas)"),
    "index": dict(type=int, help="eigenvalue index (eig scans; default 0)"),
    "q": dict(type=int, help="factor index (stokes scans; default 1)"),
    "format": dict(type=str, choices=["csv", "json"]),
    "output": dict(type=str),
}
_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer"}
# the value of an option that neither its flag nor --config gives; else None
_DEFAULTS = {"n": 80, "format": "csv"}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="gapspec",
        description="Spectra, Fredholm determinants and eigenvalue expansions "
        "of the sine, Airy and Bessel kernels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, options, need, select=None):
        """Subparser taking options (keys of _OPTIONS), format, output and
        --config; the options in need must be set by a flag or the config.
        select = (flag, reads) adds the required --flag, choosing a key of
        reads; _load_config refuses an option that some value of reads
        lists and the chosen one does not."""
        p = sub.add_parser(name, help=help)
        options += ("format", "output")
        if select:
            p.add_argument(f"--{select[0]}", choices=list(select[1]), required=True)
        for key in options:
            p.add_argument(f"--{key}", **_OPTIONS[key])
        p.add_argument("--config", help="optional JSON config file")
        p.set_defaults(fn=fn, options=options, need=need, select=select)
        return p

    p = command("spectrum", cmd_spectrum, "top eigenvalues of the discretized operator",
                ("kernel", "a", "s", "n"), need=("kernel", "s"))
    p.add_argument("--top", type=int, default=10)

    command("det", cmd_det, "Fredholm determinant",
            ("kernel", "a", "s", "gamma", "v", "chi", "n"), need=("kernel", "s"))

    command("asymp", cmd_asymp, "closed-form expansions", ("a", "s", "v", "chi", "p"),
            need=("s",), select=("formula", _ASYMP_READS))

    p = command("scan", cmd_scan, "oracle-vs-formula scans",
                ("kernel", "a", "chi", "n", "index", "q"), need=("kernel",),
                select=("kind", _SCAN_READS))
    p.add_argument("--grid", required=True, help="comma-separated t values")

    command("verify", cmd_verify, "run the full acceptance suite", (), need=())
    return ap


def _read_config(path):
    """The --config file's JSON object. A file that is not UTF-8 JSON, or
    that repeats a key, is refused with a message naming the file."""

    def unique(pairs):
        keys = [key for key, _ in pairs]
        for key in keys:
            if keys.count(key) > 1:
                raise ValueError(f"key {key!r} is given twice")
        return dict(pairs)

    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f, object_pairs_hook=unique)
        except ValueError as exc:  # not UTF-8, not JSON, or a key repeated
            raise ArgumentError(f"config file {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ArgumentError("config file must contain a JSON object")
    return obj


def _load_config(args):
    """Set every key of _OPTIONS on args, from its flag, else the --config
    file (which may hold only keys of the command's options), else
    _DEFAULTS; check them; and set args.family from --kernel or, for asymp,
    from the formula's prefix."""
    file_cfg = _read_config(args.config) if args.config else {}
    for key in file_cfg:
        if key not in args.options:
            raise ArgumentError(
                f"config key {key!r} is not an option of {args.command}, "
                f"which takes {', '.join(args.options)}"
            )
    for key, option in _OPTIONS.items():
        val = getattr(args, key, None)
        if val is None and file_cfg.get(key) is not None:
            val, want = file_cfg[key], option["type"]
            ok = isinstance(val, (int, float) if want is float else want)
            if not ok or isinstance(val, bool):
                raise ArgumentError(f"config key {key!r} must be {_TYPE_NAMES[want]}, got {val!r}")
            val = want(val)
        setattr(args, key, _DEFAULTS.get(key) if val is None else val)
    if args.select:
        flag, reads = args.select
        choice = getattr(args, flag)
        for key in args.options:
            refused = key not in reads[choice] and any(key in r for r in reads.values())
            if refused and getattr(args, key) is not None:
                raise ArgumentError(f"--{key} is not read by --{flag} {choice}")
    kernel = args.kernel or getattr(args, "formula", "").split("-")[0]
    args.family = _coerce_family(kernel) if kernel else None
    for key in ("a", "gamma", "v", "chi"):
        if getattr(args, key) is not None:
            _real(getattr(args, key), f"--{key}", "value")
    if not 20 <= args.n <= 1000:
        raise ArgumentError(f"n must be in [20, 1000], got {args.n}")
    if args.format not in ("csv", "json"):
        raise ArgumentError(f"format must be csv or json, got {args.format}")
    for key in args.need:
        if getattr(args, "family" if key == "kernel" else key) is None:
            raise ArgumentError(f"--{key} is required for this command")
    _check_order(args.family, args.a)


def _check_order(fam, a):
    """--a, the Bessel order, is required for a kernel whose row has an order
    and refused for the others."""
    if fam is not None and _ROWS[fam].order == (a is None):
        raise ArgumentError(f"--a is required for the {fam.value} kernel" if a is None else
                            f"--a is the order of the bessel kernel; the {fam.value} kernel has none")


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _load_config(args)
        return args.fn(args)
    # an OSError is a config or output file that cannot be read or written
    except (ArgumentError, DomainError, OSError) as exc:
        print(f"gapspec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # a PrecisionWarning arrives here only as an error, under -W error
    except (NumericalError, PoleError, DegeneracyError, FloatingPointError, OverflowError,
            PrecisionWarning) as exc:
        print(f"gapspec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run():
    """Process entry point: main(), then, once stdout and stderr are
    flushed, os._exit without interpreter teardown. A flush that fails (a
    closed pipe) leaves the exit to sys.exit, so Python reports it as usual
    and the process exits 120."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
