"""Command-line front end.

Subcommands: spectrum, det, asymp, scan, verify. Each registers only the
options it reads (`gapspec <command> --help` lists them), declared once in
_OPTIONS. A --config JSON object supplies the flags left unset; it may hold
only keys of the command's own options, each of its flag's type, so a
misspelt or foreign key is refused rather than silently ignored.

Output is deterministic CSV or JSON (schema_version 1); floats are
emitted with 17 significant digits so files are byte-identical across runs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
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
)
from .kernels import Family, IntervalSpec, _coerce_family, _Record, family_spec
from .operator import build_discretization, compute_spectrum, log_fredholm_det

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


class RunConfig(_Record):
    """Validated run parameters; seedless determinism is unconditional."""

    _fields = ("family", "a", "s", "gamma", "v", "chi", "n", "fmt", "output")

    def __init__(self, family=None, a=None, s=None, gamma=None, v=None, chi=None, n=80,
                 fmt="csv", output=None):
        for name, x in (("a", a), ("gamma", gamma), ("v", v), ("chi", chi)):
            if x is not None and not math.isfinite(x):
                raise ArgumentError(f"--{name} must be finite, got {x}")
        if not 20 <= n <= 1000:
            raise ArgumentError(f"n must be in [20, 1000], got {n}")
        if fmt not in ("csv", "json"):
            raise ArgumentError(f"format must be csv or json, got {fmt}")
        self._set(family=family, a=a, s=s, gamma=gamma, v=v, chi=chi, n=n, fmt=fmt,
                  output=output)

    @property
    def spec(self):
        return family_spec(self.family, self.a)

    def gamma_value(self):
        """Resolve exactly one of gamma / v / chi into gamma."""
        given = [x is not None for x in (self.gamma, self.v, self.chi)]
        if sum(given) > 1:
            raise ArgumentError("supply exactly one of --gamma, --v, --chi")
        if self.gamma is not None:
            return self.gamma
        if self.v is not None:
            return -math.expm1(-self.v)
        if self.chi is not None:
            t = _stokes_t(self.family, self.s)
            return -math.expm1(-asym.stokes_v(self.family, t, self.chi, self.a or 0.0))
        return 1.0


def _stokes_t(fam, s):
    """Scaling variable t of the Stokes curves at s, for --chi."""
    t = IntervalSpec(fam, s).t
    if math.isnan(t):
        raise ArgumentError(f"--chi needs s < 0 for the {fam.value} kernel, got s = {s}")
    return t


def _emit(cfg, header, rows, summary, out=None):
    """Write rows in the configured format to the output path or stdout."""
    stream = out or sys.stdout
    if cfg.fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(x) for x in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config_echo": _config_echo(cfg),
            "rows": [
                {h: (_fmt(x) if isinstance(x, float) else x) for h, x in zip(header, row)}
                for row in rows
            ],
            "summary": summary,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        stream.write(text)


def _config_echo(cfg):
    echo = {
        "family": cfg.family.value if cfg.family else None,
        "a": cfg.a,
        "s": cfg.s,
        "gamma": cfg.gamma,
        "v": cfg.v,
        "chi": cfg.chi,
        "n": cfg.n,
        "format": cfg.fmt,
        "deterministic": True,
    }
    return {k: (_fmt(v) if isinstance(v, float) else v) for k, v in echo.items()}


def cmd_spectrum(cfg, args):
    top = args.top
    if top < 0:
        raise ArgumentError(f"--top must be >= 0, got {top}")
    d = build_discretization(cfg.spec, IntervalSpec(cfg.family, cfg.s), cfg.n)
    sp = compute_spectrum(d)
    rows = []
    for i in range(min(top, sp.n)):
        lam = float(sp.eigenvalues[i])
        one_minus = 1.0 - lam
        mu = lam / one_minus if one_minus > 0.0 else math.inf
        rows.append((i, lam, one_minus, mu))
    _emit(
        cfg,
        ("index", "lambda", "one_minus_lambda", "mu"),
        rows,
        {
            "n": cfg.n,
            "truncation": _fmt(d.truncation),
            "repaired_entries": sp.meta["repaired_entries"],
            "clamped_zero": sp.meta["clamped_zero"],
            "clamped_top": sp.meta["clamped_top"],
        },
    )
    return EXIT_OK


def cmd_det(cfg, args):
    gamma = cfg.gamma_value()
    d = build_discretization(cfg.spec, IntervalSpec(cfg.family, cfg.s), cfg.n)
    sp = compute_spectrum(d)
    logdet = log_fredholm_det(sp, gamma)
    det = math.exp(logdet) if logdet > -745.0 else 0.0
    rows = [(logdet, det, cfg.n, float(d.truncation))]
    _emit(cfg, ("log_det", "det", "n", "truncation"), rows, {"gamma": _fmt(gamma)})
    return EXIT_OK


_ASYMP_SELECTORS = (
    "sine-transition",
    "airy-transition",
    "bessel-transition",
    "airy-gap",
    "bessel-gap",
    "sine-crit",
    "sine-sub",
)


def cmd_asymp(cfg, args):
    sel = args.formula
    fam = _coerce_family(sel.split("-")[0])
    if fam is Family.BESSEL and cfg.a is None:
        raise ArgumentError("--a is required for the bessel kernel")
    s, v, a = cfg.s, cfg.v, cfg.a or 0.0
    chi = cfg.chi
    if sel.endswith("transition"):
        if v is None:
            if chi is None:
                raise ArgumentError("transition formulas need --v or --chi")
            v = asym.stokes_v(fam, _stokes_t(fam, s), chi, a)
        p = args.p if args.p is not None else asym.p_of_chi(chi if chi is not None else 0.0, fam)
        te = asym.transition(fam, s, v, p, a, chi)
        rows = [
            (
                te.log_prefactor,
                ";".join(_fmt(f) for f in te.factors),
                te.p,
                te.error_exponent,
                te.log_value,
            )
        ]
        _emit(
            cfg,
            ("log_prefactor", "factors", "p", "error_exponent", "log_value"),
            rows,
            {"formula": sel, "v": _fmt(float(v))},
        )
        return EXIT_OK
    if sel == "sine-sub":
        if v is None:
            raise ArgumentError("sine-sub needs --v")
        value = asym.sine_det_sub(s, v)
    else:
        value = asym.gap(fam, s, a)
    _emit(cfg, ("log_value",), [(value,)], {"formula": sel})
    return EXIT_OK


def _parse_grid(text):
    grid = []
    for item in text.split(","):
        try:
            grid.append(float(item))
        except ValueError:
            raise ArgumentError(f"--grid item {item!r} is not a number") from None
    return grid


def cmd_scan(cfg, args):
    grid = _parse_grid(args.grid)
    kind = args.kind
    if kind == "eig":
        res = verify_mod.eig_ratio_scan(cfg.family, args.index, grid, n=cfg.n, a=cfg.a or 0.0)
    elif kind == "det":
        if cfg.chi is None:
            raise ArgumentError("det scans need --chi")
        res = verify_mod.det_ratio_scan(cfg.family, cfg.chi, grid, a=cfg.a or 0.0, n=cfg.n)
    else:
        res = verify_mod.stokes_crossing_scan(cfg.family, args.q, grid, a=cfg.a or 0.0, n=cfg.n)
    rows = list(zip(res.grid, res.numeric, res.predicted, res.rel_error))
    summary = {
        k: (_fmt(v) if isinstance(v, float) else v)
        for k, v in res.metadata.items()
        if k != "seconds"
    }
    _emit(cfg, ("t", "numeric", "predicted", "rel_error"), rows, summary)
    return EXIT_OK


def cmd_verify(cfg, args):
    results = verify_mod.run_acceptance()
    rows = [(name, "pass" if ok else "FAIL", detail) for name, ok, detail in results]
    n_fail = sum(1 for _, ok, _ in results if not ok)
    _emit(
        cfg,
        ("criterion", "status", "detail"),
        rows,
        {"passed": len(results) - n_fail, "failed": n_fail},
    )
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAIL


# every option a config-file key may name: its argparse keywords, whose
# type is also the JSON type the key's value must have (an int is a number)
_OPTIONS = {
    "kernel": dict(type=str, choices=["sine", "airy", "bessel"]),
    "a": dict(type=float, help="Bessel order"),
    "s": dict(type=float, help="interval parameter"),
    "gamma": dict(type=float),
    "v": dict(type=float, help="v = -ln(1-gamma)"),
    "chi": dict(type=float, help="Stokes curve parameter"),
    "n": dict(type=int, help="quadrature size"),
    "format": dict(type=str, choices=["csv", "json"]),
    "output": dict(type=str),
}
_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer"}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="gapspec",
        description="Spectra, Fredholm determinants and eigenvalue expansions "
        "of the sine, Airy and Bessel kernels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, options, need):
        """Subparser taking options (keys of _OPTIONS), format, output and
        --config; the options in need must be set by a flag or the config."""
        p = sub.add_parser(name, help=help)
        options += ("format", "output")
        for key in options:
            p.add_argument(f"--{key}", **_OPTIONS[key])
        p.add_argument("--config", help="optional JSON config file")
        p.set_defaults(fn=fn, options=options, need=need)
        return p

    p = command("spectrum", cmd_spectrum, "top eigenvalues of the discretized operator",
                ("kernel", "a", "s", "n"), need=("kernel", "s"))
    p.add_argument("--top", type=int, default=10)

    command("det", cmd_det, "Fredholm determinant",
            ("kernel", "a", "s", "gamma", "v", "chi", "n"), need=("kernel", "s"))

    p = command("asymp", cmd_asymp, "closed-form expansions", ("a", "s", "v", "chi"), need=("s",))
    p.add_argument("--formula", choices=_ASYMP_SELECTORS, required=True)
    p.add_argument("--p", type=int, default=None)

    p = command("scan", cmd_scan, "oracle-vs-formula scans", ("kernel", "a", "chi", "n"),
                need=("kernel",))
    p.add_argument("--kind", choices=["eig", "det", "stokes"], required=True)
    p.add_argument("--grid", required=True, help="comma-separated t values")
    p.add_argument("--index", type=int, default=0, help="eigenvalue index (eig scans)")
    p.add_argument("--q", type=int, default=1, help="factor index (stokes scans)")

    command("verify", cmd_verify, "run the full acceptance suite", (), need=())
    return ap


def _load_config(args):
    """RunConfig from the command's flags, each unset one taken from the
    --config file; the file may hold only keys of the command's options."""
    file_cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            file_cfg = json.load(f)
        if not isinstance(file_cfg, dict):
            raise ArgumentError("config file must contain a JSON object")
    for key in file_cfg:
        if key not in args.options:
            raise ArgumentError(
                f"config key {key!r} is not an option of {args.command}, "
                f"which takes {', '.join(args.options)}"
            )
    given = {}
    for key in args.options:
        val = getattr(args, key)
        if val is None:
            val = file_cfg.get(key)
            want = _OPTIONS[key]["type"]
            ok = isinstance(val, (int, float) if want is float else want)
            if val is not None and (not ok or isinstance(val, bool)):
                raise ArgumentError(f"config key {key!r} must be {_TYPE_NAMES[want]}, got {val!r}")
        if val is not None:
            given[key] = val
    kernel = given.pop("kernel", None)
    family = _coerce_family(kernel) if kernel else None
    if "format" in given:
        given["fmt"] = given.pop("format")
    cfg = RunConfig(family=family, **given)
    for key in args.need:
        attr = "family" if key == "kernel" else key
        if getattr(cfg, attr) is None:
            raise ArgumentError(f"--{key} is required for this command")
    if cfg.family is Family.BESSEL and cfg.a is None:
        raise ArgumentError("--a is required for the bessel kernel")
    return cfg


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args)
    except (ArgumentError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"gapspec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(cfg, args)
    except (ArgumentError, DomainError) as exc:
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
