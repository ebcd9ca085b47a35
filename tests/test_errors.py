"""The argument readers of gapspec.errors: every size and index goes
through _integer, gamma, s, v, t, chi and sine kernel points through _real,
and the Bessel order through _bessel_order. Each reader refuses with its
own exception type and one message, and what it accepts keeps its bits. A
non-number (a string, None, a bool, a complex number) is refused by _real
and _bessel_order as by _integer, never parsed or converted, and a kernel
point before numpy converts it; sine and Airy, which have no order, refuse
any a but 0 (kernels._order). A walk of every public function's signature
holds each numeric parameter to that rule. errors._warn is the one place a
warning is issued."""

import ast
import inspect
import math
import pathlib
import re

import numpy as np
import pytest

from gapspec import asymptotics as asym
from gapspec import kernels, operator, specfun, verify
from gapspec.errors import ArgumentError, DomainError
from gapspec.kernels import (
    SINE,
    Family,
    IntervalSpec,
    KernelSpec,
    airy_convolution,
    bessel_spec,
    kernel_eval,
    kernel_matrix,
)
from gapspec.operator import (
    Spectrum,
    airy_truncation,
    build_discretization,
    compute_spectrum,
    counting_prob,
    d_ds_log_det,
    fredholm_det,
    gauss_legendre,
    log_fredholm_det,
    trace_norm,
)
from gapspec.verify import (
    commuting_residual,
    convolution_check,
    det_ratio_scan,
    eig_ratio_scan,
    lidskii_split,
    logderiv_check,
    stokes_crossing_scan,
)

_SINE_2 = IntervalSpec(Family.SINE, 2.0)
_SMALL = Spectrum(np.array([0.5, 0.2, 0.1]), 3, {})

# (reader name in the message, call taking the size or index)
_INTEGERS = {
    "gauss_legendre-n": ("gauss_legendre", lambda x: gauss_legendre(x)),
    "build_discretization-n": ("build_discretization",
                               lambda x: build_discretization(SINE, _SINE_2, x)),
    "trace_norm-n": ("trace_norm", lambda x: trace_norm(SINE, _SINE_2, x)),
    "airy_convolution-n": ("airy_convolution", lambda x: airy_convolution(0.0, 1.0, n=x)),
    "eig_ratio_scan-n": ("eig_ratio_scan", lambda x: eig_ratio_scan(Family.SINE, 0, [3.0], n=x)),
    "eig_ratio_scan-i": ("eig_ratio_scan", lambda x: eig_ratio_scan(Family.SINE, x, [3.0])),
    "det_ratio_scan-n": ("det_ratio_scan", lambda x: det_ratio_scan(Family.SINE, 0.0, [3.0], n=x)),
    "stokes_crossing_scan-n": ("stokes_crossing_scan",
                               lambda x: stokes_crossing_scan(Family.AIRY, 1, [8.0], n=x)),
    "stokes_crossing_scan-q": ("stokes_crossing_scan",
                               lambda x: stokes_crossing_scan(Family.AIRY, x, [8.0])),
    "commuting_residual-n": ("commuting_residual",
                             lambda x: commuting_residual(Family.SINE, 0, 3.0, n=x)),
    "commuting_residual-i": ("commuting_residual",
                             lambda x: commuting_residual(Family.SINE, x, 3.0)),
    "commuting_residual-m": ("commuting_residual",
                             lambda x: commuting_residual(Family.SINE, 0, 3.0, m=x)),
    "commuting_residual-each-m": ("commuting_residual",
                                  lambda x: commuting_residual(Family.SINE, 0, 3.0, m=(800, x))),
    "convolution_check-sample_count": ("convolution_check",
                                       lambda x: convolution_check(-3.0, sample_count=x)),
    "convolution_check-seed": ("convolution_check", lambda x: convolution_check(-3.0, seed=x)),
    # convolution_check passes n on to airy_convolution, which reads it
    "convolution_check-n": ("airy_convolution", lambda x: convolution_check(-3.0, n=x)),
    "lidskii_split-p": ("lidskii_split", lambda x: lidskii_split(_SMALL, 1.0, x)),
    "transition-p": ("airy_transition", lambda x: asym.transition(Family.AIRY, -6.0, 2.0, x)),
    "eig_law-i": ("sine eig_law", lambda x: asym.eig_law(Family.SINE, x, 5.0)),
}


@pytest.mark.parametrize("x", [80.7, True, np.float64(80.0)], ids=repr)
@pytest.mark.parametrize("key", sorted(_INTEGERS))
def test_integer_reader_refuses(key, x):
    # each key ends in the parameter, which the message names
    name, call = _INTEGERS[key]
    message = f"{name} takes an integer {key.rsplit('-', 1)[1]}, got {x!r}"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call(x)


def _scan_rows(res):
    meta = {k: v for k, v in res.metadata.items() if k != "seconds"}
    return res.grid, res.numeric, res.predicted, res.rel_error, meta


def test_numpy_integers_keep_the_bits():
    i64 = np.int64
    assert repr(gauss_legendre(i64(80))) == repr(gauss_legendre(80))
    assert gauss_legendre(i64(80)).nodes.tobytes() == gauss_legendre(80).nodes.tobytes()
    d, ref = build_discretization(SINE, _SINE_2, i64(60)), build_discretization(SINE, _SINE_2, 60)
    assert type(d.n) is int and d.n == 60
    assert d.matrix.tobytes() == ref.matrix.tobytes()
    assert compute_spectrum(d).eigenvalues.tobytes() == compute_spectrum(ref).eigenvalues.tobytes()
    assert trace_norm(SINE, _SINE_2, i64(60)) == trace_norm(SINE, _SINE_2, 60)
    assert airy_convolution(0.0, 1.0, n=i64(60)) == airy_convolution(0.0, 1.0, n=60)
    assert _scan_rows(eig_ratio_scan(Family.SINE, i64(1), [5.0], n=i64(80))) == _scan_rows(
        eig_ratio_scan(Family.SINE, 1, [5.0], n=80))
    assert _scan_rows(det_ratio_scan(Family.SINE, 0.0, [3.0], n=i64(80))) == _scan_rows(
        det_ratio_scan(Family.SINE, 0.0, [3.0], n=80))
    assert _scan_rows(stokes_crossing_scan(Family.AIRY, i64(1), [8.0], n=i64(80))) == _scan_rows(
        stokes_crossing_scan(Family.AIRY, 1, [8.0], n=80))
    assert commuting_residual(Family.SINE, i64(0), 3.0, n=i64(60), m=np.array([400, 800])) == (
        commuting_residual(Family.SINE, 0, 3.0, n=60, m=(400, 800)))
    assert convolution_check(-3.0, i64(5), i64(60)) == convolution_check(-3.0, 5, 60)
    assert lidskii_split(_SMALL, 1.0, i64(2)) == lidskii_split(_SMALL, 1.0, 2)
    assert asym.eig_law(Family.SINE, i64(1), 5.0) == asym.eig_law(Family.SINE, 1, 5.0)
    assert repr(asym.transition(Family.AIRY, -6.0, 2.0, i64(2))) == repr(
        asym.transition(Family.AIRY, -6.0, 2.0, 2))


_SP = compute_spectrum(build_discretization(SINE, _SINE_2, 40))

# (reader name and quantity in the message, call taking the real)
_REALS = {
    "log_fredholm_det-gamma": ("log_fredholm_det", "gamma", lambda g: log_fredholm_det(_SP, g)),
    "fredholm_det-gamma": ("fredholm_det", "gamma", lambda g: fredholm_det(_SP, g)),
    "counting_prob-gamma": ("counting_prob", "gamma", lambda g: counting_prob(_SP, 1, g)),
    "counting_prob-degrees-gamma": ("counting_prob", "gamma",
                                    lambda g: counting_prob(_SP, [0, 1], g)),
    # degrees all above N give 0, but gamma is still read
    "counting_prob-above-N-gamma": ("counting_prob", "gamma",
                                    lambda g: counting_prob(_SP, [_SP.n + 1, _SP.n + 2], g)),
    "d_ds_log_det-gamma": ("d_ds_log_det", "gamma", lambda g: d_ds_log_det(SINE, 2.0, g, n=40)),
    "d_ds_log_det-s": ("d_ds_log_det", "s", lambda s: d_ds_log_det(SINE, s, 1.0, n=40)),
    "IntervalSpec-s": ("sine interval", "s", lambda s: IntervalSpec("sine", s)),
    "kernel_eval-sine-point": ("kernel_eval", "point", lambda x: kernel_eval(SINE, [0.5, x], 0.0)),
    "kernel_matrix-sine-point": ("kernel_matrix", "point",
                                 lambda x: kernel_matrix(SINE, [0.5, x], [1.0, 1.0])),
    "airy_truncation-s": ("airy_truncation", "s", airy_truncation),
    "gap-s": ("airy gap", "s <= -2", lambda s: asym.gap(Family.AIRY, s)),
    "sine_det_sub-s": ("sine_det_sub", "s", lambda s: asym.sine_det_sub(s, 1.0)),
    "sine_det_sub-v": ("sine_det_sub", "v", lambda v: asym.sine_det_sub(4.0, v)),
    "logderiv-s": ("airy logderiv", "s", lambda s: asym.logderiv(Family.AIRY, s, math.inf, 0.0)),
    "transition-s": ("airy_transition", "s", lambda s: asym.transition(Family.AIRY, s, 2.0, 2)),
    "transition-v": ("airy_transition", "v", lambda v: asym.transition(Family.AIRY, -6.0, v, 2)),
    "sigma_pm-t": ("sigma_pm", "t", lambda t: asym.sigma_pm(Family.AIRY, "+", 0, 0.2, t)),
    "lidskii_split-v": ("lidskii_split", "v", lambda v: lidskii_split(_SMALL, v, 1)),
    "commuting_residual-s": ("commuting_residual", "s",
                             lambda s: commuting_residual(Family.SINE, 0, s)),
    "convolution_check-s": ("convolution_check", "s", lambda s: convolution_check(s)),
    "det_ratio_scan-chi": ("det_ratio_scan", "chi",
                           lambda c: det_ratio_scan(Family.AIRY, c, [6.0], n=80)),
    "logderiv_check-chi": ("logderiv_check", "chi",
                           lambda c: logderiv_check(Family.AIRY, -6.0, c, n=80)),
    "logderiv_check-s": ("logderiv_check", "s",
                         lambda s: logderiv_check(Family.AIRY, s, 0.0, n=80)),
    # every item of a grid is read before the first spectrum
    "eig_ratio_scan-t": ("eig_ratio_scan", "t",
                         lambda t: eig_ratio_scan(Family.SINE, 0, [3.0, t], n=80)),
    "det_ratio_scan-t": ("det_ratio_scan", "t",
                         lambda t: det_ratio_scan(Family.AIRY, 0.0, [6.0, t], n=80)),
    "stokes_crossing_scan-t": ("stokes_crossing_scan", "t",
                               lambda t: stokes_crossing_scan(Family.AIRY, 1, [8.0, t], n=80)),
}
# the readers of v, where v = +inf is gamma = 1 and is taken
_INF_OK = {"transition-v", "lidskii_split-v"}
# readers of a non-number only: airy_convolution takes any float point
_POINTS = {
    "airy_convolution-point": ("airy_convolution", "point",
                               lambda x: airy_convolution([0.5, x], 0.0)),
}

# each refused as it stands: '2' is not parsed, True is not 1, 2+0j not 2
_NON_NUMBERS = ["2", None, True, 2 + 0j]

_NON_FINITE = [(key, x) for key in sorted(_REALS) for x in (math.nan, math.inf, -math.inf)
               if not (key in _INF_OK and x == math.inf)]


@pytest.mark.parametrize("key, x", _NON_FINITE, ids=[f"{k}-{x!r}" for k, x in _NON_FINITE])
def test_real_reader_refuses(key, x):
    name, what, call = _REALS[key]
    allowed = "finite or +inf" if key in _INF_OK else "finite"
    message = f"{name} requires a {allowed} {what}, got {x}"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call(x)


def test_v_takes_plus_inf_as_gamma_one():
    assert lidskii_split(_SMALL, math.inf, 1) == ((1.0,), 1.0)
    te = asym.transition(Family.AIRY, -6.0, math.inf, 2)
    assert te.excesses == (0.0, 0.0) and te.log_value == asym.gap(Family.AIRY, -6.0)


@pytest.mark.parametrize("x", _NON_NUMBERS, ids=repr)
@pytest.mark.parametrize("key", sorted(set(_REALS) | set(_POINTS)))
def test_real_reader_refuses_non_numbers(key, x):
    name, what, call = {**_REALS, **_POINTS}[key]
    message = f"{name} takes a real {what}, got {x!r}"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call(x)


# (reader name in the message, call taking the Bessel order)
_ORDERS = {
    "KernelSpec": ("KernelSpec", lambda a: KernelSpec(Family.BESSEL, a)),
    "bessel_spec": ("KernelSpec", bessel_spec),
    "bessel_j_pair": ("bessel_j_pair", lambda a: specfun.bessel_j_pair(a, [1.0, 2.0])),
    "bessel_j": ("bessel_j_pair", lambda a: specfun.bessel_j(a, 1.0)),
    "gap": ("bessel gap", lambda a: asym.gap(Family.BESSEL, 16.0, a)),
    "transition": ("bessel_transition", lambda a: asym.transition(Family.BESSEL, 16.0, 1.0, 2, a)),
    "eig_law": ("bessel eig_law", lambda a: asym.eig_law(Family.BESSEL, 0, 16.0, a)),
    "stokes_v": ("stokes_v", lambda a: asym.stokes_v(Family.BESSEL, 6.0, 0.5, a)),
    "stokes_chi": ("stokes_chi", lambda a: asym.stokes_chi(Family.BESSEL, 6.0, 10.0, a)),
    "sigma_pm": ("sigma_pm", lambda a: asym.sigma_pm(Family.BESSEL, "+", 0, 0.2, 4.0, a)),
    "logderiv": ("bessel logderiv", lambda a: asym.logderiv(Family.BESSEL, 16.0, math.inf, 0.0, a)),
    "d_coeff": ("d_coeff", lambda a: asym.d_coeff(0, a)),
}


@pytest.mark.parametrize("a", [math.nan, math.inf, -1.0], ids=repr)
@pytest.mark.parametrize("key", sorted(_ORDERS))
def test_bessel_order_reader_refuses(key, a):
    name, call = _ORDERS[key]
    message = f"{name} requires a finite Bessel order a > -1, got {a}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(a)



@pytest.mark.parametrize("a", _NON_NUMBERS, ids=repr)
@pytest.mark.parametrize("key", sorted(_ORDERS))
def test_bessel_order_reader_refuses_non_numbers(key, a):
    name, call = _ORDERS[key]
    message = f"{name} takes a real Bessel order a, got {a!r}"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call(a)


# (reader name in the message, family, call taking a sine or Airy order)
_NO_ORDERS = {
    "KernelSpec-sine": ("KernelSpec", "sine", lambda a: KernelSpec(Family.SINE, a)),
    "KernelSpec-airy": ("KernelSpec", "airy", lambda a: KernelSpec("airy", a)),
    "eig_law": ("sine eig_law", "sine", lambda a: asym.eig_law("sine", 0, 5.0, a=a)),
    "gap": ("airy gap", "airy", lambda a: asym.gap(Family.AIRY, -6.0, a)),
    "transition": ("sine_transition", "sine",
                   lambda a: asym.transition(Family.SINE, 5.0, 1.0, 2, a)),
    "stokes_v": ("stokes_v", "airy", lambda a: asym.stokes_v(Family.AIRY, 6.0, 0.5, a)),
    "stokes_chi": ("stokes_chi", "sine", lambda a: asym.stokes_chi(Family.SINE, 6.0, 10.0, a)),
    "sigma_pm": ("sigma_pm", "airy", lambda a: asym.sigma_pm(Family.AIRY, "+", 0, 0.2, 4.0, a)),
    "logderiv": ("airy logderiv", "airy",
                 lambda a: asym.logderiv(Family.AIRY, -6.0, math.inf, 0.0, a)),
    # the scans read a through the KernelSpec of their spectra
    "eig_ratio_scan": ("KernelSpec", "sine",
                       lambda a: eig_ratio_scan("sine", 0, [5.0], n=80, a=a)),
    "det_ratio_scan": ("KernelSpec", "airy",
                       lambda a: det_ratio_scan(Family.AIRY, 0.5, [6.0], a=a, n=80)),
    "stokes_crossing_scan": ("KernelSpec", "airy",
                             lambda a: stokes_crossing_scan(Family.AIRY, 1, [8.0], a=a, n=80)),
}


@pytest.mark.parametrize("a", [0.7, math.nan, math.inf, -1.0], ids=repr)
@pytest.mark.parametrize("key", sorted(_NO_ORDERS))
def test_sine_and_airy_refuse_an_order(key, a):
    name, fam, call = _NO_ORDERS[key]
    message = f"{name} requires a = 0 for the {fam} kernel, got {a}"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call(a)


@pytest.mark.parametrize("a", _NON_NUMBERS, ids=repr)
@pytest.mark.parametrize("key", sorted(_NO_ORDERS))
def test_sine_and_airy_order_refuses_non_numbers(key, a):
    name, _, call = _NO_ORDERS[key]
    message = f"{name} takes a real order a, got {a!r}"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call(a)


def test_accepted_reals_and_orders_keep_the_bits():
    # a = 0 in any int or float form is the sine and Airy order, stored as 0.0
    for zero in (0, 0.0, -0.0, np.int64(0), np.float64(-0.0)):
        for fam in (Family.SINE, Family.AIRY):
            spec = KernelSpec(fam, zero)
            assert spec == KernelSpec(fam) and repr(spec.a) == "0.0"
        assert asym.eig_law("sine", 1, 5.0, zero) == asym.eig_law("sine", 1, 5.0)
    assert eig_ratio_scan("sine", 0, [5.0], n=80).metadata["a"] == 0.0
    # Python and numpy ints and floats keep their value as floats
    for x in (0.3, np.float64(0.3), np.float32(0.3), 2, np.int64(2)):
        assert bessel_spec(x).a.hex() == float(x).hex() and type(bessel_spec(x).a) is float
        assert IntervalSpec("sine", x).s.hex() == float(x).hex()
    assert log_fredholm_det(_SP, np.float64(0.5)) == log_fredholm_det(_SP, 0.5)
    assert counting_prob(_SP, 1, 1) == counting_prob(_SP, 1, 1.0)


def test_warnings_come_only_from_errors_warn():
    # errors._warn finds the caller's frame itself: no other module issues a
    # warning, and no function takes a hand-counted stacklevel
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "gapspec"
    warns, stacklevels = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr == "warn" and (
                    isinstance(func.value, ast.Name) and func.value.id == "warnings"):
                warns.append(path.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                if "stacklevel" in names:
                    stacklevels.append(f"{path.name}:{node.lineno}")
    assert warns == ["errors.py"]
    assert stacklevels == []


# One call that each public function accepts; test_numeric_parameter_refuses
# swaps each numeric parameter, as inspect.signature lists them, for each
# non-number in turn
_ACCEPTED = {
    "airy_pair": dict(x=1.0),
    "airy_ai": dict(x=1.0),
    "airy_ai_prime": dict(x=1.0),
    "bessel_j_pair": dict(a=0.5, x=1.0),
    "bessel_j": dict(a=0.5, x=1.0),
    "bessel_j_prime": dict(a=0.5, x=1.0),
    "log_gamma": dict(x=2.5),
    "log_gamma_complex": dict(z=2.5 + 1j),
    "log_barnes_g": dict(z=2.5),
    "zeta_prime_minus_one": {},
    "zeta_real": dict(s=3.0),
    "backend_name": {},
    "KernelSpec": dict(family="bessel", a=0.5),
    "IntervalSpec": dict(family="sine", s=2.0),
    "bessel_spec": dict(a=0.5),
    "kernel_eval": dict(spec=SINE, lam=0.5, mu=0.2),
    "kernel_matrix": dict(spec=SINE, x=[0.5, 0.2], sw=[1.0, 1.0]),
    "airy_convolution": dict(lam=0.5, mu=0.2, upper=12.0, n=40),
    "gauss_legendre": dict(n=10),
    "airy_truncation": dict(s=-2.0),
    "build_discretization": dict(spec=SINE, interval=_SINE_2, n=20),
    "compute_spectrum": dict(d=build_discretization(SINE, _SINE_2, 20)),
    "compute_spectrum_with_vectors": dict(d=build_discretization(SINE, _SINE_2, 20)),
    "fredholm_det": dict(sp=_SMALL, gamma=0.5),
    "log_fredholm_det": dict(sp=_SMALL, gamma=0.5),
    "counting_prob": dict(sp=_SMALL, n=1, gamma=0.5),
    "counting_ratio": dict(sp=_SMALL, n=1),
    "trace_norm": dict(spec=SINE, interval=_SINE_2, n=20),
    "d_ds_log_det": dict(spec=SINE, s=2.0, gamma=0.5, n=20),
    "chi_decompose": dict(chi=0.3),
    "p_of_chi": dict(chi=0.3, family="airy"),
    "stokes_v": dict(family="airy", t=6.0, chi=0.3, a=0.0),
    "stokes_chi": dict(family="airy", t=6.0, v=3.0, a=0.0),
    "eig_law": dict(family="sine", i=1, s=5.0, a=0.0),
    "d_coeff": dict(i=1, a=0.5),
    "gap": dict(family="airy", s=-6.0, a=0.0),
    "sine_det_sub": dict(s=4.0, v=1.0),
    "transition": dict(family="airy", s=-6.0, v=2.0, p=2, a=0.0, chi=0.3),
    "sigma_pm": dict(family="airy", sign="+", k=0, alpha=0.2, t=4.0, a=0.0),
    "logderiv": dict(family="airy", s=-6.0, v=3.0, chi=0.0, a=0.0),
    "eig_ratio_scan": dict(family="sine", i=0, t_grid=[3.0], n=60, a=0.0),
    "det_ratio_scan": dict(family="airy", chi=0.0, t_grid=[6.0], a=0.0, n=40),
    "lidskii_split": dict(sp=_SMALL, v=1.0, p=1),
    "stokes_crossing_scan": dict(family="airy", q=1, t_grid=[8.0], a=0.0, n=40),
    "commuting_residual": dict(family="sine", i=0, s=3.0, n=40, m=400, a=0.0),
    "convolution_check": dict(s=-3.0, sample_count=2, n=40, seed=7),
    "logderiv_check": dict(family="airy", s=-6.0, chi=0.0, a=0.0, n=40),
    "run_acceptance": {},
}
# parameters that take no number, and what they take instead
_NOT_NUMBERS = {
    "family": "a Family or its name",
    "spec": "a KernelSpec",
    "interval": "an IntervalSpec",
    "sp": "a Spectrum",
    "d": "a Discretization",
    "sign": "the branch, '+' or '-'",
}
# result records: their constructors store what gapspec computed and read
# no argument; Family is an enum of names
_RECORDS = {"Family", "Quadrature", "Discretization", "Spectrum", "TransitionExpansion",
            "ScanResult"}
# the non-numbers that are values of a parameter: None is the default upper
# and chi, and a complex number is the z of the two complex functions
_TAKEN = {("airy_convolution", "upper"): {None}, ("transition", "chi"): {None},
          ("log_gamma_complex", "z"): {2 + 0j}, ("log_barnes_g", "z"): {2 + 0j}}


def _public_functions():
    for mod in (specfun, kernels, operator, asym, verify):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and name not in _RECORDS:
                yield name, obj


_PUBLIC = dict(_public_functions())
_NUMERIC = [(name, p) for name, fn in _PUBLIC.items()
            for p in inspect.signature(fn).parameters if p not in _NOT_NUMBERS]
_NUMERIC_CASES = [(name, p, x) for name, p in _NUMERIC for x in _NON_NUMBERS
                  if not any(x is y or x == y and type(x) is type(y)
                             for y in _TAKEN.get((name, p), ()))]


def test_every_public_function_has_an_accepted_call():
    assert sorted(_PUBLIC) == sorted(_ACCEPTED)
    for name, fn in _PUBLIC.items():
        assert set(inspect.signature(fn).parameters) == set(_ACCEPTED[name]), name


@pytest.mark.parametrize("name", sorted(set(name for name, _ in _NUMERIC)))
def test_accepted_call_runs(name):
    # each refusal below is then the swapped parameter's
    _PUBLIC[name](**_ACCEPTED[name])


@pytest.mark.parametrize("name, param, x", _NUMERIC_CASES,
                         ids=[f"{n}-{p}-{x!r}" for n, p, x in _NUMERIC_CASES])
def test_numeric_parameter_refuses(name, param, x):
    with pytest.raises(ArgumentError, match=re.escape(f"got {x!r}")):
        _PUBLIC[name](**{**_ACCEPTED[name], param: x})


# the parameters of _NOT_NUMBERS that take a gapspec record: each is read
# through errors._record, which names the function and the record's type
_RECORD_PARAMS = {"spec", "interval", "sp", "d"}
_NOT_NUMBER_CASES = [(name, p, x) for name, fn in _PUBLIC.items()
                     for p in inspect.signature(fn).parameters if p in _NOT_NUMBERS
                     for x in ("x", None)]


@pytest.mark.parametrize("name, param, x", _NOT_NUMBER_CASES,
                         ids=[f"{n}-{p}-{x!r}" for n, p, x in _NOT_NUMBER_CASES])
def test_non_numeric_parameter_refuses(name, param, x):
    # a family name where a KernelSpec goes is refused, not read by attribute
    message = re.escape(repr(x))
    if param in _RECORD_PARAMS:
        message = f"^{re.escape(f'{name} takes {_NOT_NUMBERS[param]}, got {x!r}')}$"
    with pytest.raises(ArgumentError, match=message):
        _PUBLIC[name](**{**_ACCEPTED[name], param: x})


def test_record_parameters_name_the_function():
    cases = [
        ("kernel_eval takes a KernelSpec, got 'sine'", lambda: kernel_eval("sine", 0.1, 0.2)),
        ("build_discretization takes a KernelSpec, got 'sine'",
         lambda: build_discretization("sine", _SINE_2, 20)),
        ("fredholm_det takes a Spectrum, got 'x'", lambda: fredholm_det("x", 0.5)),
        ("d_ds_log_det takes a KernelSpec, got 'sine'", lambda: d_ds_log_det("sine", 2.0, 0.5)),
        ("compute_spectrum takes a Discretization, got None", lambda: compute_spectrum(None)),
        ("trace_norm takes an IntervalSpec, got 2.0", lambda: trace_norm(SINE, 2.0)),
    ]
    for message, call in cases:
        with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("call, z", [
    (specfun.log_gamma_complex, complex(math.nan, 1.0)),
    (specfun.log_gamma_complex, complex(2.0, math.inf)),
    (specfun.log_barnes_g, complex(2.0, math.nan)),
    (specfun.log_barnes_g, complex(-math.inf, 0.0)),
    (specfun.log_barnes_g, math.nan),
], ids=repr)
def test_complex_reader_refuses_non_finite(call, z):
    message = f"{call.__name__} requires a finite complex z, got {complex(z)}"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call(z)


@pytest.mark.parametrize("grid", ["35", b"35", ""], ids=repr)
def test_grid_reader_refuses_a_string_whole(grid):
    message = f"eig_ratio_scan takes a sequence of real t values, got {grid!r}"
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        eig_ratio_scan("sine", 0, grid)
