"""Cross-verification harness: oracle-vs-formula scans, Lidskii factor
extraction, Stokes-crossing detection, convolution and commuting-operator
checks, and the acceptance suite shared with the CLI.

Numeric spectra act as the oracle; the closed-form expansions are the
formulas under test. The three scans (eig_ratio_scan, det_ratio_scan,
stokes_crossing_scan) run one loop, _scan: it visits the grid in order,
maps t to the endpoint s, and asks the scan's point function for a row
(t, numeric, predicted, rel_error) or None, and a note or None. A point
reads its spectrum through _spectrum, so scans over the same (kernel, s, n)
share one eigensolve. The loop's wall time, metadata["seconds"], is the
one timing a scan records; the CLI leaves it out, so its output stays
byte-identical across runs.

The acceptance suite's inputs are fixed: the Lidskii cases and the
convolution samples are literal tables (_LIDSKII_CASES, _CONVOLUTION_UNITS)
of the draws np.random once made for them, so a verify process never
imports numpy.random. Only convolution_check draws, when it is called.
Every Gauss-Legendre size the checks read is listed in the rule plan,
_RULE_PLAN, and run_acceptance solves the plan in one batched Newton
before its first check. A rule's bits do not depend on its batch, so the
rows are those of rules solved one at a time.
"""

import functools
import math
import time

import numpy as np

from . import asymptotics as asym
from . import kernels
from .errors import ArgumentError, _integer, _real, _warn
from .kernels import (
    AIRY,
    SINE,
    Family,
    IntervalSpec,
    KernelSpec,
    _coerce_family,
    _Record,
    bessel_spec,
)
from .operator import (
    _floor,
    _gamma_lambda,
    _gauss_legendre_rules,
    _is_even_integer,
    build_discretization,
    compute_spectrum,
    compute_spectrum_with_vectors,
    counting_prob,
    counting_ratio,
    d_ds_log_det,
    fredholm_det,
    gauss_legendre,
    log_fredholm_det,
)

__all__ = [
    "ScanResult",
    "eig_ratio_scan",
    "det_ratio_scan",
    "lidskii_split",
    "stokes_crossing_scan",
    "commuting_residual",
    "convolution_check",
    "logderiv_check",
    "run_acceptance",
]

_T_WINDOWS = {Family.AIRY: (5.0, 20.0), Family.BESSEL: (4.0, 16.0), Family.SINE: (2.0, 10.0)}


class ScanResult(_Record):
    """Aligned per-point scan output; rel_error[i] = |num-pred|/|pred|.
    metadata defaults to a new empty dict."""

    _fields = ("grid", "numeric", "predicted", "rel_error", "metadata")

    def __init__(self, grid, numeric, predicted, rel_error, metadata=None):
        if not len(grid) == len(numeric) == len(predicted) == len(rel_error):
            raise ArgumentError("ScanResult sequences must have equal length")
        self._set(grid=grid, numeric=numeric, predicted=predicted, rel_error=rel_error,
                  metadata={} if metadata is None else metadata)


@functools.lru_cache(maxsize=32)
def _spectrum(spec, interval, n):
    # The eigenvalue-law and transition checks read the same (kernel, s, n)
    # spectra, so each is diagonalized once per process. Only the read-only
    # Spectrum is kept, never the n x n matrix; 32 entries cover the longest
    # gap between a build and its reuse in run_acceptance (20 spectra).
    return compute_spectrum(build_discretization(spec, interval, n))


def _scan(fam, a, n, t_grid, point, meta):
    """ScanResult of point(t, s, spectrum) over t_grid; spectrum() builds
    or reuses the (kernel, s, n) spectrum when called. A None row is
    dropped, notes go to meta["notes"], and meta gains n, family, a (the
    order as the KernelSpec reads it) and seconds."""
    spec = KernelSpec(fam, a)
    rows = []
    t0 = time.perf_counter()
    for t in t_grid:
        s = -(t ** (2.0 / 3.0)) if fam is Family.AIRY else t * t if fam is Family.BESSEL else t
        row, note = point(t, s, lambda: _spectrum(spec, IntervalSpec(fam, s), n))
        if row is not None:
            rows.append(row)
        if note is not None:
            meta["notes"].append(note)
    meta.update(n=n, family=fam.value, a=spec.a, seconds=time.perf_counter() - t0)
    return ScanResult(*(tuple(r[k] for r in rows) for k in range(4)), meta)


def eig_ratio_scan(family, i, t_grid, n=120, a=0.0):
    """Numeric 1 - lambda_i against the closed-form eigenvalue law. A point
    whose 1 - lambda_0 is below the resolution floor n eps (operator._floor)
    warns; one whose 1 - lambda_i is below max(1e-13, n eps) warns and is
    skipped, so no unresolved point is compared with the law."""
    fam = _coerce_family(family)
    i = _integer(i, "eig_ratio_scan")
    n = _integer(n, "eig_ratio_scan", 60)
    if not 0 <= i < n:
        raise ArgumentError(f"eig_ratio_scan requires 0 <= i < n = {n}, got i = {i}")
    lo, hi = _T_WINDOWS[fam]
    t_grid = [_real(t, "eig_ratio_scan", "t") for t in t_grid]
    for t in t_grid:
        if not lo <= t <= hi:
            raise ArgumentError(f"t = {t} outside the desk-scale window [{lo}, {hi}]")

    def point(t, s, spectrum):
        sp = spectrum()
        num = float(_gamma_lambda(sp, 1.0, "eig_ratio_scan")[1][i])
        if num < max(1e-13, _floor(sp.n)):
            _warn(f"1 - lambda_{i} = {num:.3e} at t={t} is below resolvable precision; "
                  "point skipped")
            return None, None
        pred = asym.eig_law(fam, i, s, a)
        return (t, num, pred, abs(num - pred) / abs(pred)), None

    return _scan(fam, a, n, t_grid, point, {"i": i})


def det_ratio_scan(family, chi, t_grid, a=0.0, n=120):
    """Numeric log-determinant along a Stokes curve vs the transition
    expansion; the fitted power-law decay of the log-gap is recorded."""
    fam = _coerce_family(family)
    chi = _real(chi, "det_ratio_scan", "chi")
    n = _integer(n, "det_ratio_scan")
    p = asym.p_of_chi(chi, fam)
    t_grid = [_real(t, "det_ratio_scan", "t") for t in t_grid]

    def point(t, s, spectrum):
        v = asym.stokes_v(fam, t, chi, a)
        note = None
        if v > 700.0:
            # e^{-v} is below machine epsilon: gamma is exactly 1 in floats
            gamma = 1.0
            note = f"t={t}: v={v:.1f} > 700, computed with gamma=1"
        else:
            gamma = -math.expm1(-v)
        num = log_fredholm_det(spectrum(), gamma)
        pred = asym.transition(fam, s, v, p, a, chi).log_value
        return (t, num, pred, abs(num - pred) / abs(pred)), note

    meta = {"chi": chi, "p": p, "error_exponent": asym._error_exponent(fam, p, chi), "notes": []}
    res = _scan(fam, a, n, t_grid, point, meta)
    # fitted decay exponent of the log-space gap |num - pred| ~ C t^{-e}
    gaps = np.array([abs(nm - pr) for nm, pr in zip(res.numeric, res.predicted)])
    meta["fitted_exponent"] = meta["fitted_constant"] = math.nan
    if len(gaps) >= 2 and np.all(gaps > 0):
        slope, intercept = np.polyfit(np.log(res.grid), np.log(gaps), 1)
        meta["fitted_exponent"] = -float(slope)
        meta["fitted_constant"] = float(math.exp(intercept))
    return res


def lidskii_split(sp, v, p):
    """Split D(J;gamma)/D(J;1) into p leading eigenvalue factors times the
    residual product over the remaining spectrum, gamma = 1 - e^{-v}.
    v = inf is gamma = 1."""
    p = _integer(p, "lidskii_split", 0, "p")
    v = _real(v, "lidskii_split", "v", inf_ok=True)
    # every factor divides by 1 - lambda_i, whatever v is
    lam, factor = _gamma_lambda(sp, 1.0, "lidskii_split")
    ev = math.exp(-v)
    mu = ev * lam / factor
    factors = tuple(1.0 + float(m) for m in mu[:p])
    residual = float(np.prod(1.0 + mu[p:]))
    return factors, residual


def stokes_crossing_scan(family, q, t_grid, a=0.0, n=120):
    """Locate, per t, the v where the q-th Lidskii factor equals the
    marginal-contribution threshold, and compare with the Stokes curve
    chi = q - 1/2.

    The threshold (1 + t^{-1/2} for Airy, 1 + 1/t for Bessel) is a proxy
    convention: the factor crosses it at v = ln(mu_{q-1} / threshold), which
    is solved exactly from the numeric spectrum.
    """
    fam = _coerce_family(family)
    q = _integer(q, "stokes_crossing_scan")
    n = _integer(n, "stokes_crossing_scan")
    if not 1 <= q <= n:
        raise ArgumentError(f"stokes_crossing_scan requires 1 <= q <= n = {n}, got q = {q}")
    if fam is Family.SINE:
        raise ArgumentError("stokes_crossing_scan is defined for Airy and Bessel")
    t_grid = [_real(t, "stokes_crossing_scan", "t") for t in t_grid]

    def point(t, s, spectrum):
        # stokes_v refuses t <= 1 first: the threshold and the spectrum
        # are not defined there
        pred = asym.stokes_v(fam, t, q - 0.5, a)
        thr = t ** -0.5 if fam is Family.AIRY else 1.0 / t
        lam, factor = _gamma_lambda(spectrum(), 1.0, "stokes_crossing_scan")
        mu = float(lam[q - 1] / factor[q - 1])
        if mu <= thr:
            # factor never reaches the threshold for any v > 0
            note = f"t={t}: factor {q} never crosses the threshold"
            return (t, math.nan, pred, math.nan), note
        detected = math.log(mu / thr)
        return (t, detected, pred, abs(detected - pred) / abs(pred)), None

    return _scan(fam, a, n, t_grid, point, {"q": q, "notes": []})


def _barycentric_weights(xi, wq):
    # classical barycentric weights for Gauss nodes on [-1, 1], up to scale
    sign = np.where(np.arange(len(xi)) % 2 == 0, 1.0, -1.0)
    return sign * np.sqrt((1.0 - xi * xi) * wq)


def _barycentric_eval(nodes, bw, values, x):
    diff = x[:, None] - nodes[None, :]
    exact = np.argwhere(diff == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = bw[None, :] / diff
        out = (terms @ values) / terms.sum(axis=1)
    for r, c in exact:
        out[r] = values[c]
    return out


def _sturm_liouville(fam, a, s):
    # L u = (P u')' + Q u, written so that P vanishes at the natural
    # singular endpoints and no boundary conditions are needed
    if fam is Family.SINE:
        return (lambda x: x * x - s * s, lambda x: x * x)
    if fam is Family.AIRY:
        return (lambda x: x - s, lambda x: -x * (x - s))
    return (lambda x: x * (s - x), lambda x: -(a * a * s / (4.0 * x) + x / 4.0))


def commuting_residual(family, i, s, n=100, m=800, a=0.0):
    """Squared sine of the angle between L u_i and u_i, where u_i is the
    i-th Nystrom eigenvector interpolated to a uniform grid of m interior
    points and L is the commuting second-order differential operator of the
    family. m may be a sequence of grid sizes: one eigendecomposition then
    gives the tuple of their residuals."""
    fam = _coerce_family(family)
    i = _integer(i, "commuting_residual")
    n = _integer(n, "commuting_residual")
    if not 0 <= i < n:
        raise ArgumentError(f"commuting_residual requires 0 <= i < n = {n}, got i = {i}")
    s = _real(s, "commuting_residual", "s")
    sizes = [_integer(v, "commuting_residual", 400, "m") for v in (m if np.ndim(m) else [m])]
    spec = KernelSpec(fam, a)
    d = build_discretization(spec, IntervalSpec(fam, s), n)
    sp, vecs = compute_spectrum_with_vectors(d)
    if sp.eigenvalues[i] < 1e-10:
        _warn(f"eigenvalue {i} = {sp.eigenvalues[i]:.3e} is below 1e-10; "
              "the eigenvector is not numerically trustworthy")
    w = np.asarray(d.weights)
    y = vecs[:, i]
    u_nodes = y / np.sqrt(w)
    u_nodes = u_nodes / math.sqrt(float(np.sum(w * u_nodes * u_nodes)))
    lo, hi = d.interval.lo, d.truncation
    q = gauss_legendre(d.n)
    bw = _barycentric_weights(np.asarray(q.nodes), np.asarray(q.weights))
    # the Bessel quadrature grid is affine in sqrt(x), so interpolate there
    in_sqrt = fam is Family.BESSEL and not _is_even_integer(a)
    interp_nodes = np.sqrt(np.asarray(d.nodes)) if in_sqrt else np.asarray(d.nodes)
    P, Q = _sturm_liouville(fam, a, s)

    def residual(size):
        # interpolate to size uniform interior points
        h = (hi - lo) / (size + 1)
        grid = lo + h * np.arange(1, size + 1)
        u = _barycentric_eval(interp_nodes, bw, u_nodes, np.sqrt(grid) if in_sqrt else grid)
        # conservative second-order finite differences on the uniform grid
        xp = grid[:-1] + 0.5 * h
        ph = P(xp)
        flux = ph * (u[1:] - u[:-1]) / h
        lu = (flux[1:] - flux[:-1]) / h + Q(grid[1:-1]) * u[1:-1]
        uu = u[1:-1]
        num = float(np.dot(lu, uu))
        den = float(np.dot(lu, lu) * np.dot(uu, uu))
        if den == 0.0:
            return 1.0
        return max(0.0, 1.0 - num * num / den)

    residuals = tuple(residual(size) for size in sizes)
    return residuals if np.ndim(m) else residuals[0]


def _convolution_deviation(s, sample_count, n, draw):
    """Max |direct - convolution| Airy kernel over sample_count pairs from
    [s, s+5]^2, each coordinate s + 5u for the next unit draw u = draw();
    every fifth pair is diagonal and takes one draw, to exercise that path."""
    s = _real(s, "convolution_check", "s")
    lam, mu = [], []
    for j in range(_integer(sample_count, "convolution_check")):
        lam.append(s + 5.0 * draw())
        mu.append(lam[-1] if j % 5 == 0 else s + 5.0 * draw())
    direct = kernels.kernel_eval(AIRY, lam, mu)
    conv = kernels.airy_convolution(lam, mu, n=n)
    return float(np.max(np.abs(direct - conv), initial=0.0))


def convolution_check(s, sample_count=25, n=60, seed=20260826):
    """Max deviation between the direct Airy kernel and its convolution
    form over random samples from [s, s+5]^2, diagonal pairs included. The
    unit draws come from np.random.default_rng(seed)."""
    return _convolution_deviation(s, sample_count, n, np.random.default_rng(seed).random)


def logderiv_check(family, s, chi, a=0.0, n=120):
    """Relative deviation between d/ds log D at gamma = 1, taken from the
    resolvent (d_ds_log_det), and the asymptotic formula at v = infinity.

    gamma = 1 is the k = 0 curve of the expansion, so chi must lie in
    [-1/2, 1/2); a larger chi would compare two different quantities."""
    fam = _coerce_family(family)
    chi = _real(chi, "logderiv_check", "chi")
    if not -0.5 <= chi < 0.5:
        raise ArgumentError(
            "logderiv_check requires -1/2 <= chi < 1/2 (gamma = 1 is the k = 0 "
            f"curve), got chi={chi}"
        )
    pred = asym.logderiv(fam, s, math.inf, chi, a)
    num = d_ds_log_det(KernelSpec(fam, a), s, 1.0, n=n)
    return abs(num - pred) / abs(pred)


# ---------------------------------------------------------------------------
# acceptance suite (shared by the CLI verify command and the test suite)
# ---------------------------------------------------------------------------


def _trend_ok(errs, cap, tol_violations=1):
    """cap at the first grid point plus monotone decrease, with at most
    tol_violations failures among all the individual conditions."""
    violations = 0
    if errs[0] > cap:
        violations += 1
    for prev, cur in zip(errs, errs[1:]):
        if cur >= prev:
            violations += 1
    return violations <= tol_violations


def _acc_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for spec, s in ((SINE, 2.0), (AIRY, -2.0), (bessel_spec(0.0), 4.0)):
        vals = []
        for n in (40, 80):
            sp = _spectrum(spec, IntervalSpec(spec.family, s), n)
            vals.append(log_fredholm_det(sp, 1.0))
        worst = max(worst, abs(vals[0] - vals[1]))
    # the time bounds the pass condition but stays out of the detail, which
    # must read the same on every run
    dt = time.perf_counter() - t0
    return worst <= 1e-9 and dt < 5.0, f"max |logdet(40)-logdet(80)| = {worst:.3e}"


def _acc_eig_law(fam, cases, t_grid, cap):
    details = []
    ok = True
    for a, i in cases:
        scan = eig_ratio_scan(fam, i, t_grid, n=160, a=a)
        good = _trend_ok(scan.rel_error, cap)
        ok = ok and good
        details.append(
            f"a={a} i={i}: errs=" + "/".join(f"{e:.3f}" for e in scan.rel_error)
        )
    return ok, "; ".join(details)


def _acc_transition(fam, chis, a_values, t_grid):
    ok = True
    details = []
    for a in a_values:
        for chi in chis:
            scan = det_ratio_scan(fam, chi, t_grid, a=a, n=160)
            gaps = [abs(nm - pr) for nm, pr in zip(scan.numeric, scan.predicted)]
            e = scan.metadata["error_exponent"]
            bounds = [asym._error_bound(fam, t, e) for t in scan.grid]
            c_fit = max(g / b for g, b in zip(gaps, bounds))
            decreasing = all(b <= a_ for a_, b in zip(gaps, gaps[1:]))
            good = c_fit < 10.0 and decreasing
            ok = ok and good
            details.append(f"a={a} chi={chi}: C={c_fit:.3f} gaps=" + "/".join(f"{g:.2e}" for g in gaps))
    return ok, "; ".join(details)


def _acc_gap_constants():
    details = []
    ok = True
    errs = []
    for s in (-4.0, -5.0, -6.0):
        sp = _spectrum(AIRY, IntervalSpec(Family.AIRY, s), 200)
        errs.append(abs(math.exp(log_fredholm_det(sp, 1.0) - asym.gap(Family.AIRY, s)) - 1.0))
    ok = ok and errs[-1] <= 0.02 and errs[-1] <= errs[0]
    details.append("airy c0 errs=" + "/".join(f"{e:.4f}" for e in errs))
    for a in (0.0, 1.0):
        s = 144.0
        sp = _spectrum(bessel_spec(a), IntervalSpec(Family.BESSEL, s), 300)
        err = abs(math.exp(log_fredholm_det(sp, 1.0) - asym.gap(Family.BESSEL, s, a)) - 1.0)
        ok = ok and err <= 0.02
        details.append(f"bessel tau_{a:g} err={err:.4f}")
    return ok, "; ".join(details)


# (n, v, p) of the 20 Lidskii cases, as np.random.default_rng(1234) drew them
# per case: n = integers(50, 120), v = uniform(0.1, 8.0), p = integers(0, 6).
# Case j reads spectrum _LIDSKII_SPECTRA[j % 3].
_LIDSKII_CASES = (
    (118, 3.1035463066549807, 5), (61, 2.167370148521999, 5),
    (59, 1.0329207404364782, 1), (105, 2.616418037379589, 1),
    (105, 2.182833453773241, 5), (88, 4.917979394437809, 2),
    (112, 6.923685599119218, 5), (86, 5.3130073488795055, 4),
    (53, 1.8597538992379594, 4), (110, 6.97627828266259, 1),
    (83, 5.501142381779484, 0), (52, 4.927042050776981, 4),
    (88, 7.82437726150035, 0), (78, 4.30750067003094, 2),
    (63, 2.085010133381304, 0), (96, 3.4598569744509096, 5),
    (62, 7.384141412801415, 4), (104, 7.938847912952191, 0),
    (75, 7.526891928033524, 1), (118, 3.7988646490834226, 0),
)
_LIDSKII_SPECTRA = ((SINE, 3.0), (AIRY, -3.0), (bessel_spec(0.5), 9.0))


def _acc_lidskii():
    worst = 0.0
    for j, (n, v, p) in enumerate(_LIDSKII_CASES):
        spec, s = _LIDSKII_SPECTRA[j % 3]
        sp = _spectrum(spec, IntervalSpec(spec.family, s), n)
        factors, residual = lidskii_split(sp, v, p)
        gamma = -math.expm1(-v)
        ratio = fredholm_det(sp, gamma) / fredholm_det(sp, 1.0)
        recon = residual
        for f in factors:
            recon *= f
        worst = max(worst, abs(recon / ratio - 1.0))
    return worst <= 1e-12, f"worst reconstruction error = {worst:.3e}"


def _acc_logderiv():
    e_airy = logderiv_check(Family.AIRY, -6.0, 0.0, n=160)
    e_bess = logderiv_check(Family.BESSEL, 100.0, 0.0, a=0.0, n=160)
    ok = e_airy <= 0.02 and e_bess <= 0.02
    return ok, f"airy s=-6: {e_airy:.4f}; bessel s=100 a=0: {e_bess:.4f}"


def _acc_reciprocity():
    worst = 0.0
    for fam, s, a in ((Family.AIRY, -6.0, 0.0), (Family.BESSEL, 36.0, 0.5), (Family.SINE, 5.0, 0.0)):
        v = asym.stokes_v(fam, IntervalSpec(fam, s).t, 0.0, a)
        te = asym.transition(fam, s, v, 5, a)
        for i, e in enumerate(te.excesses):
            worst = max(worst, abs(e * math.exp(v) * asym.eig_law(fam, i, s, a) - 1.0))
    return worst <= 1e-12, f"worst |excess * e^v * (1-lambda)_pred - 1| = {worst:.3e}"


def _acc_counting():
    sp = _spectrum(AIRY, IntervalSpec(Family.AIRY, -2.0), 120)
    probs = counting_prob(sp, np.arange(sp.n + 1)).tolist()
    total = sum(probs)
    worst_ratio = 0.0
    for k, ratio in enumerate(counting_ratio(sp, np.arange(1, 8)).tolist(), start=1):
        direct = probs[k] / probs[0]
        worst_ratio = max(worst_ratio, abs(direct / ratio - 1.0))
    ok = abs(total - 1.0) <= 1e-10 and worst_ratio <= 1e-12
    return ok, f"sum E(n) - 1 = {total - 1.0:.3e}; worst r(n) mismatch = {worst_ratio:.3e}"


# the 45 unit draws convolution_check(-3.0) takes from
# np.random.default_rng(20260826): one per diagonal pair (every fifth), two
# per other pair, in draw order
_CONVOLUTION_UNITS = (
    0.15964439647438378, 0.390284741803938, 0.8382210379292323,
    0.5730242906245304, 0.18102305322860424, 0.12055786469325125,
    0.8757460696855895, 0.5081914319665, 0.6192558745545981,
    0.5277745713529824, 0.12520972151439336, 0.6562495032610284,
    0.06987306355323397, 0.11919918874784707, 0.5394616134244625,
    0.9292408603224473, 0.2110579421989245, 0.39303163330521473,
    0.7431531411804885, 0.1250859250201264, 0.25937980487031664,
    0.4909335282976024, 0.34883413210157854, 0.867132116844054,
    0.7817926344311764, 0.7498450171527224, 0.2575897297049491,
    0.6963587344110205, 0.08760021092249082, 0.9050205376639475,
    0.9505077343344208, 0.5055742420756935, 0.6538101357874597,
    0.8316041987985948, 0.7240337137581212, 0.18952167461476654,
    0.5482659906035633, 0.676942273206902, 0.07034348176119232,
    0.8003903628317222, 0.5386725392984151, 0.6750470251839624,
    0.3798481746505722, 0.5834211077934033, 0.6378835175748861,
)


def _acc_convolution():
    worst = _convolution_deviation(-3.0, 25, 60, iter(_CONVOLUTION_UNITS).__next__)
    return worst <= 1e-7, f"max deviation = {worst:.3e}"


def _acc_commuting():
    r400, r800 = commuting_residual(Family.SINE, 0, 3.0, n=100, m=(400, 800))
    ok = r800 <= 1e-3 and r800 < r400
    return ok, f"residual m=400: {r400:.3e}, m=800: {r800:.3e}"


# the rule plan: every Gauss-Legendre size the acceptance checks read.
# 40 and 80 (quadrature), 60 (convolution), 100 (commuting), 120
# (counting), 160 (laws, transitions, logderiv), 200 and 300 (gap
# constants), and the sizes of the Lidskii cases.
_RULE_PLAN = (40, 60, 80, 100, 120, 160, 200, 300) + tuple(
    sorted({n for n, _, _ in _LIDSKII_CASES}))


def run_acceptance():
    """Run every acceptance criterion; returns a list of (name, ok, detail).
    The rules of _RULE_PLAN are solved together before the first check."""
    _gauss_legendre_rules(_RULE_PLAN)
    checks = [
        ("quadrature_convergence", _acc_quadrature),
        (
            "airy_eigenvalue_law",
            lambda: _acc_eig_law(Family.AIRY, [(0.0, 0), (0.0, 1)], (8, 10, 12, 14), 0.25),
        ),
        (
            "bessel_eigenvalue_law",
            lambda: _acc_eig_law(
                Family.BESSEL,
                [(a, i) for a in (-0.5, 0.0, 1.0) for i in (0, 1)],
                (6, 8, 10, 12),
                0.25,
            ),
        ),
        (
            "sine_eigenvalue_law",
            lambda: _acc_eig_law(Family.SINE, [(0.0, 0), (0.0, 1)], (5, 6, 7, 8), 0.20),
        ),
        (
            "airy_transition_theorem",
            lambda: _acc_transition(Family.AIRY, (0.0, 0.5), (0.0,), (8, 10, 12)),
        ),
        (
            "bessel_transition_theorem",
            lambda: _acc_transition(Family.BESSEL, (0.0, 0.5), (0.0, 1.0), (8, 10, 12)),
        ),
        ("gap_constants", _acc_gap_constants),
        ("lidskii_algebra", _acc_lidskii),
        ("logderiv_expansions", _acc_logderiv),
        ("reciprocity_identity", _acc_reciprocity),
        ("counting_normalization", _acc_counting),
        ("convolution_identity", _acc_convolution),
        ("commuting_residual", _acc_commuting),
    ]
    results = []
    for name, fn in checks:
        ok, detail = fn()
        results.append((name, bool(ok), detail))
    return results
