"""Nystrom discretization, spectra, Fredholm determinants and counting
probabilities for the sine, Airy and Bessel trace-class operators.

The operator on L^2(J) is discretized with Gauss-Legendre quadrature mapped
onto J and symmetrized as A[i,j] = K(x_i, x_j) (sqrt(w_i) sqrt(w_j)), so a
symmetric eigensolver applies and the Nystrom eigenvalues converge
exponentially in n for these analytic kernels. kernels.kernel_matrix
assembles A in one pass, the weights applied block by block.

The sine operator on (-s, s) commutes with the reflection x -> -x, and its
matrix is exactly symmetric under the index reversal that maps x_i to -x_i.
A sine spectrum therefore comes from two half-size blocks, even and odd
under x -> -x, each solved on its own; the eigenvectors alternate in parity
like the prolate spheroidal functions. The assembly evaluates only the two
blocks of A that this solve reads; both take the split from
kernels._parity_layout. Airy and Bessel intervals have no such symmetry
and take one full solve.
"""

import functools
import math
import warnings

import numpy as np

from . import kernels, specfun
from .errors import (
    ArgumentError,
    DegeneracyError,
    DomainError,
    NumericalError,
    PoleError,
    PrecisionWarning,
)
from .kernels import Family, IntervalSpec, _Record

__all__ = [
    "Quadrature",
    "Discretization",
    "Spectrum",
    "gauss_legendre",
    "airy_truncation",
    "build_discretization",
    "compute_spectrum",
    "fredholm_det",
    "log_fredholm_det",
    "counting_prob",
    "counting_ratio",
    "trace_norm",
    "d_ds_log_det",
]

_EPS_NEG = 1e-10
_EPS_FLOOR = 1e-300
_CLAMP_TOP = 1.0 - 1e-16
_EPS = float(np.finfo(float).eps)
_SQRT2 = math.sqrt(2.0)


class Quadrature(_Record):
    """Quadrature rule: strictly increasing nodes, positive weights."""

    _fields = ("nodes", "weights", "interval")

    def __init__(self, nodes, weights, interval):
        self._set(nodes=_frozen(nodes), weights=_frozen(weights), interval=interval)


def _frozen(arr):
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _legendre_top(x, n):
    """(P_{n-1}(x), P_n(x)) by the three-term recurrence, written as
    P_m = x P_{m-1} + (1 - 1/m)(x P_{m-1} - P_{m-2}) so that x enters
    unrounded: Newton then rounds more nodes to the nearest double."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for m in range(2, n + 1):
        t = x * p1
        p = t - p0
        p *= (m - 1.0) / m
        p += t
        p0, p1 = p1, p
    return p0, p1


# j_{0,1..10}, the first zeros of J_0; McMahon's expansion gives the rest
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013, 11.79153443901428,
             14.93091770848779, 18.07106396791092, 21.21163662987926, 24.35247153074930,
             27.49347913204025, 30.63460646843198)


def _legendre_root_guesses(n):
    """The ceil(n/2) non-negative roots of P_n, descending, from the
    asymptotic formulas of Hale & Townsend (2013): Tricomi's interior
    expansion, and the Bessel-zero boundary formula where theta < pi/3."""
    theta = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    edge = int(np.count_nonzero(theta < math.pi / 3.0))
    b = (np.arange(1, edge + 1) - 0.25) * math.pi
    r = 0.125 / b
    r2 = r * r
    j = b + r * (1.0 + r2 * (-124.0 / 3.0 + r2 * (120928.0 / 15.0 + r2 * (
        -401743168.0 / 105.0 + r2 * 1071187749376.0 / 315.0))))
    j[:10] = _J0_ZEROS[:edge]
    rho = n + 0.5
    phi = j / rho
    # cot as cos / sin: a process's first np.tan call maps ~256 KB of tables
    x[:edge] = np.cos(phi + (phi * np.cos(phi) / np.sin(phi) - 1.0) / (8.0 * phi * rho * rho))
    if n % 2 == 1:
        x[-1] = 0.0  # the centre, exactly
    return x


@functools.lru_cache(maxsize=64)
def _gauss_legendre_cached(n):
    # Newton on P_n over the non-negative half of the rule
    x = _legendre_root_guesses(n)
    for _ in range(100):
        p0, p1 = _legendre_top(x, n)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one_minus_x2
        dx = p1 / dp
        if np.max(np.abs(dx)) < 1e-15:
            break
        x = x - dx
    else:
        raise NumericalError("gauss_legendre Newton iteration did not converge")
    # 2 / ((1 - r^2) P_n'(r)^2) at the root r = x - dx, to first order in dx
    # by Legendre's equation: at r rounded to a double, an outer weight
    # would carry that rounding amplified by 2 / (1 - r^2)
    w = 2.0 / (one_minus_x2 * dp * dp - 2.0 * x * p1 * dp)
    x = x - dx
    m = n // 2  # mirror the half, whose last node is an odd rule's centre
    return (_frozen(np.concatenate((-x[:m], x[::-1]))),
            _frozen(np.concatenate((w[:m], w[::-1]))))


def gauss_legendre(n):
    """Gauss-Legendre rule with n nodes on [-1, 1].

    The ceil(n/2) non-negative nodes are solved for and mirrored, so the
    rule is exactly symmetric and an odd rule's centre node is 0.0. Newton
    on P_n starts from asymptotic root formulas (Hale & Townsend, SIAM J.
    Sci. Comput. 35, 2013); for n >= 22 it takes two sweeps of the Legendre
    recurrence: one step, and one that certifies |dx| < 1e-15 and gives
    P_n' for the weights.
    """
    n = int(n)
    if not 1 <= n <= 2000:
        raise ArgumentError(f"gauss_legendre requires 1 <= n <= 2000, got {n}")
    x, w = _gauss_legendre_cached(n)
    return Quadrature(x, w, (-1.0, 1.0))


def airy_truncation(s):
    """Effective upper endpoint M for the Airy interval (s, inf).

    M is the smallest point with (4/3) max(M,1)^{3/2} >= 45 (so that the
    diagonal tail integral is below 1e-17) and M >= s + 10.
    """
    m_star = (45.0 * 3.0 / 4.0) ** (2.0 / 3.0)
    return max(float(s) + 10.0, m_star)


class Discretization(_Record):
    """Symmetrized Nystrom matrix with its grid and provenance.

    repaired_entries counts the matrix entries the near-diagonal Taylor
    branch set, both triangles and the diagonal.
    """

    _fields = ("spec", "interval", "n", "truncation", "nodes", "weights", "matrix",
               "repaired_entries")

    def __init__(self, spec, interval, n, truncation, nodes, weights, matrix,
                 repaired_entries):
        self._set(spec=spec, interval=interval, n=n, truncation=truncation,
                  nodes=_frozen(nodes), weights=_frozen(weights), matrix=_frozen(matrix),
                  repaired_entries=repaired_entries)


def _map_quadrature(lo, hi, n):
    base = gauss_legendre(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * base.nodes, half * base.weights


def discretization_grid(spec, interval, n):
    """Mapped quadrature grid for (spec, interval), plus the truncation point.

    For the Bessel family with non-even order a, the substitution x = u^2 is
    applied: eigenfunctions behave like x^{a/2} at the hard edge, which ruins
    plain Gauss-Legendre convergence, while in the u variable the kernel is
    analytic for half-odd a and the endpoint exponent improves to a + 1/2
    otherwise.
    """
    if spec.family is not interval.family:
        raise ArgumentError(
            f"kernel family {spec.family} does not match interval family "
            f"{interval.family}"
        )
    if spec.family is Family.AIRY:
        hi = airy_truncation(interval.s)
        lo = interval.s
        # the nodes lie in (s, M), M = max(s + 10, 9.49), where Ai is evaluated
        if lo < specfun.AIRY_LO or hi > specfun.AIRY_HI:
            raise DomainError(
                f"Airy interval needs {specfun.AIRY_LO:g} <= s <= "
                f"{specfun.AIRY_HI - 10.0:g}, got s={lo}"
            )
    else:
        lo, hi = interval.lo, interval.hi
    # the Bessel kernel evaluates J at sqrt(x) for x in (0, s)
    if spec.family is Family.BESSEL and math.sqrt(hi) > specfun.BESSEL_XMAX:
        raise DomainError(
            f"Bessel interval needs s <= {specfun.BESSEL_XMAX**2:g}, got s={hi}"
        )
    if spec.family is Family.BESSEL and not _is_even_integer(spec.a):
        u, wu = _map_quadrature(0.0, math.sqrt(hi), n)
        return u * u, 2.0 * u * wu, hi
    nodes, weights = _map_quadrature(lo, hi, n)
    return nodes, weights, hi


def _is_even_integer(a):
    return a >= 0.0 and a == 2.0 * round(a / 2.0)


def build_discretization(spec, interval, n):
    """Square-root-weighted Nystrom matrix on the (truncated) interval."""
    n = int(n)
    if n < 1:
        raise ArgumentError(f"build_discretization requires n >= 1, got {n}")
    nodes, weights, hi = discretization_grid(spec, interval, n)
    mat, repaired = kernels.kernel_matrix(spec, nodes, np.sqrt(weights))
    return Discretization(spec, interval, n, hi, nodes, weights, mat, repaired)


class Spectrum(_Record):
    """Descending eigenvalues of a discretized operator, validated to (0,1).

    A spectrum also keeps, out of sight of == and repr, the counting state
    of the last gamma it was read at: mu, the highest ESP row reached and
    e_0..e_k. counting_prob and counting_ratio extend it instead of
    starting again at e_0, so a table E(0..k) read one degree at a time
    costs one pass per degree in all.
    """

    _fields = ("eigenvalues", "n", "meta")
    _esp_memo = None

    def __init__(self, eigenvalues, n, meta):
        self._set(eigenvalues=_frozen(eigenvalues), n=n, meta=meta)


def _sine_parity_eig(mat, vectors):
    """Ascending eigenvalues of a sine Nystrom matrix from its two parity
    blocks, and with vectors the full eigenvectors, columns in that order.

    The sine matrix is persymmetric to the bit (mat = J mat J, J reversing
    the index order): the nodes are antisymmetric and the kernel is even in
    x - y. With h = n // 2 and the lower half A22 = mat[n-h:, n-h:],
    A21 = mat[n-h:, :h], the vectors (J u, u) / sqrt2 and (-J u, u) / sqrt2
    span the even and odd subspaces, on which mat acts as A22 + A21 J and
    A22 - A21 J. For odd n the centre node is even: it leads the even block,
    coupled to the lower half by sqrt2. Two half-size eigensolves replace
    one of size n.
    """
    n = len(mat)
    h, k, c = kernels._parity_layout(n)  # k is also the even block's size
    a21j = mat[k:, :h][:, ::-1]
    even = mat[h:, h:].copy()
    even[c:, c:] += a21j
    if c:
        even[0, 1:] *= _SQRT2
        even[1:, 0] *= _SQRT2
    odd = mat[k:, k:] - a21j
    vals = np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)])
    order = np.argsort(vals, kind="stable")
    if not vectors:
        return vals[order], None
    ue = np.linalg.eigh(even)[1]
    uo = np.linalg.eigh(odd)[1]
    full = np.zeros((n, n))
    full[k:, :k] = ue[c:] / _SQRT2
    full[:h, :k] = full[k:, :k][::-1]
    if c:
        full[h, :k] = ue[0]
    full[k:, k:] = uo / _SQRT2
    full[:h, k:] = -full[k:, k:][::-1]
    return vals[order], full[:, order]


def _eig(d, vectors=False):
    """Ascending eigenvalues of d.matrix, with eigenvector columns in the
    same order if vectors (else None). The values always come from eigvalsh,
    so both spectrum functions return the same bits."""
    mat = np.asarray(d.matrix)
    if d.spec.family is Family.SINE:
        return _sine_parity_eig(mat, vectors)
    vals = np.linalg.eigvalsh(mat)
    return vals, np.linalg.eigh(mat)[1] if vectors else None


def compute_spectrum(d):
    """Eigenvalues of the symmetric Nystrom matrix, sorted descending."""
    vals, _ = _eig(d)
    return _validate_spectrum(vals[::-1], d)


def compute_spectrum_with_vectors(d):
    """(Spectrum, eigenvector matrix) with columns ordered like eigenvalues."""
    vals, vecs = _eig(d, vectors=True)
    return _validate_spectrum(vals[::-1], d), vecs[:, ::-1]


def _validate_spectrum(vals, d):
    vals = np.array(vals, dtype=float)
    low, high = vals.min(), vals.max()
    if low < -_EPS_NEG or high > 1.0 + _EPS_NEG:
        raise DegeneracyError(
            f"eigenvalues outside (-{_EPS_NEG}, 1+{_EPS_NEG}): "
            f"min={low}, max={high}"
        )
    # Nystrom noise can push values epsilon outside [0, 1); clamp small
    # spills, negative values included, and count them at either end
    bottom = vals < _EPS_FLOOR
    top = vals > _CLAMP_TOP
    vals[bottom] = 0.0
    vals[top] = _CLAMP_TOP
    floor = _floor(d.n)
    meta = {
        "family": d.spec.family.value,
        "a": d.spec.a,
        "s": d.interval.s,
        "n": d.n,
        "truncation": d.truncation,
        "clamped_zero": int(np.count_nonzero(bottom)),
        "clamped_top": int(np.count_nonzero(top)),
        "repaired_entries": d.repaired_entries,
        "floor": floor,
        "unresolved_top": int(np.count_nonzero(1.0 - vals < floor)),
    }
    return Spectrum(vals, d.n, meta)


def _floor(n):
    """The smallest 1 - lambda an n x n eigensolve resolves: n eps ||A||, the
    solver's absolute error bound, with ||A|| <= 1. A factor below it may
    carry no correct digit. At Airy s = -12, n = 160 the computed 1 - lambda_0
    is 4.4e-16 = 0.0125 n eps against 5.2e-16 from the eigenvalue law, and
    no eigenvalue is clamped; the default verify rows read 2.5e4 n eps or
    more."""
    return n * _EPS


def _warn_unresolved(sp, gamma, caller, stacklevel=3):
    """PrecisionWarning when the largest factor's 1 - gamma lambda_0 is below
    the spectrum's floor: the result then rests on a factor with no
    resolved digit. One comparison, on every call."""
    factor = 1.0 - float(gamma) * float(sp.eigenvalues[0])
    floor = _floor(sp.n)
    if factor < floor:
        warnings.warn(
            f"{caller}: 1 - gamma*lambda_0 = {factor:.3e} is below the resolvable "
            f"floor n*eps = {floor:.3e} (n = {sp.n}); the result is not accurate",
            PrecisionWarning,
            stacklevel=stacklevel,
        )


def fredholm_det(sp, gamma):
    """D(J; gamma) = prod(1 - gamma lambda_i); warns when it underflows."""
    factors = 1.0 - float(gamma) * np.asarray(sp.eigenvalues)
    det = float(np.prod(factors))
    if det == 0.0 and np.all(factors != 0.0):
        warnings.warn(
            "fredholm_det underflowed to 0.0 although no factor "
            "1 - gamma*lambda is zero; use log_fredholm_det",
            PrecisionWarning,
            stacklevel=2,
        )
    return det


def _check_factors(sp, gamma, caller):
    """PoleError unless every factor 1 - gamma lambda_i is positive."""
    if np.any(1.0 - float(gamma) * np.asarray(sp.eigenvalues) <= 0.0):
        raise PoleError(
            f"{caller}: a factor 1 - gamma*lambda is nonpositive (gamma={gamma})"
        )


def log_fredholm_det(sp, gamma):
    """log D(J; gamma) via sum of log(1 - gamma lambda_i); warns when
    1 - gamma lambda_0 is below the resolution floor (_floor)."""
    _check_factors(sp, gamma, "log_fredholm_det")
    _warn_unresolved(sp, gamma, "log_fredholm_det")
    return float(np.sum(np.log1p(-float(gamma) * np.asarray(sp.eigenvalues))))


def _mu_values(sp, gamma=1.0):
    lam = float(gamma) * np.asarray(sp.eigenvalues)
    if np.any(lam >= 1.0):
        raise DegeneracyError("counting statistics require gamma*lambda < 1")
    return lam / (1.0 - lam)


def _esp_extend(mu, row, e, kmax):
    """Extend e = [e_0..e_k] of mu, whose ESP row k is row, to e_0..e_kmax;
    return (row kmax, the longer list). Neither argument is changed.

    Row k holds e_k of the first k, k+1, ..., len(mu) values, a running sum
    (sequential cumsum) of mu_j times row k-1. Every e_k is then a running
    sum of positive terms, stable even when the mu span many orders of
    magnitude, and costs one array pass instead of a loop over mu. Row k
    does not depend on kmax, or on where a previous extension stopped.
    """
    e = list(e)
    for k in range(len(e), kmax + 1):
        row = np.cumsum(mu[k - 1 :] * row[:-1])
        e.append(row[-1])
    return row, e


def _esp_all(mu, kmax):
    """Elementary symmetric polynomials e_0..e_kmax of mu, kmax <= len(mu)."""
    return np.array(_esp_extend(mu, np.ones(len(mu) + 1), [1.0], kmax)[1])


def _same_float(x, y):
    """x and y are the same double, signed zeros told apart (NaN never is)."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _counting(sp, n, least, gamma, times_det, name):
    """e_k(mu), mu = g l/(1 - g l), at the degrees n (an int or a 1-D array),
    times D(J; gamma) if times_det.

    The ESP comes from sp's memo of the last gamma, extended to the largest
    degree asked for when it holds less; row k does not depend on where the
    recurrence stopped before, so each value is the one a call for degree k
    alone gives. D and the gamma check run on every call, and the memo
    takes nothing from a call that raised. A degree above N gives 0. A
    degree that is not of integer dtype (a float or a bool) is refused, not
    truncated; an empty list is accepted.
    """
    deg = np.asarray(n)
    if deg.dtype.kind not in "iu" and deg.size:
        raise ArgumentError(f"{name} takes integer degrees, got {n!r}")
    deg = deg.astype(int, copy=False)
    if deg.ndim == 0:
        low = top = int(deg)
    elif deg.ndim == 1:
        ks = deg.tolist()
        low, top = min(ks, default=least), max(ks, default=-1)
    else:
        raise ArgumentError(f"{name} takes an int or a 1-D array of degrees")
    if low < least:
        raise ArgumentError(f"{name} requires n >= {least}")
    size = len(sp.eigenvalues)
    if low > size or top < 0:
        return np.zeros(deg.shape) if deg.ndim else 0.0
    g = float(gamma)
    memo = sp._esp_memo
    if memo is None or not _same_float(memo[0], g):
        memo = (g, _mu_values(sp, g), np.ones(size + 1), [1.0])
    _, mu, row, e = memo
    _warn_unresolved(sp, g, name, stacklevel=4)
    det = fredholm_det(sp, gamma) if times_det else None
    kmax = min(top, size)
    if kmax >= len(e):
        row, e = _esp_extend(mu, row, e, kmax)
    sp._set(_esp_memo=(g, mu, row, e))
    if deg.ndim:
        # index kmax + 1 holds e = 0 for every degree above N
        e = np.array(e[: kmax + 1] + [0.0])[np.minimum(deg, kmax + 1)]
    else:
        e = e[top]
    if times_det:
        e = det * e
    return e if deg.ndim else float(e)


def counting_prob(sp, n, gamma=1.0):
    """E(n; J) — probability of exactly n points of the (gamma-thinned)
    process in J: prod(1 - gamma lambda) * e_n(mu), mu = g l/(1 - g l).

    n is an int (a float is returned) or a 1-D array of degrees (an array
    is returned). The ESP rows are kept on sp for the last gamma, so calls
    on one spectrum and gamma, in any order, cost one array pass per degree
    in all, and each value is the one a fresh call gives. D(J; gamma) and
    the gamma lambda < 1 check (DegeneracyError) run on every call, so its
    PrecisionWarning is issued by every call whose D underflows; so is the
    one for 1 - gamma lambda_0 below the resolution floor (_floor)."""
    return _counting(sp, n, 0, gamma, True, "counting_prob")


def counting_ratio(sp, n):
    """r(n; J) = E(n)/E(0) = e_n of the mu values; n as for counting_prob."""
    return _counting(sp, n, 1, 1.0, False, "counting_ratio")


def trace_norm(spec, interval, n=60):
    """Trace of the (positive) operator: sum of w_i K(x_i, x_i)."""
    n = int(n)
    if n < 20:
        raise ArgumentError(f"trace_norm requires n >= 20, got {n}")
    nodes, weights, _ = discretization_grid(spec, interval, n)
    return float(np.sum(weights * kernels.kernel_diag(spec, nodes)))


def d_ds_log_det(spec, s, gamma, n=80):
    """d/ds log D(J(s); gamma) from the resolvent kernel on the diagonal at
    the moving endpoint (Tracy & Widom 1994):

        R(s, s) = gamma K(s, s) + gamma^2 k_s^T (I - gamma A)^{-1} k_s,

    with A the Nystrom matrix of J(s) and k_s[i] = sqrt(w_i) K(x_i, s).
    The sign follows how J moves with s: +R for Airy, J = (s, inf);
    -R for Bessel, J = (0, s); -2R for sine, J = (-s, s), whose two
    endpoints give equal R. One discretization and one linear solve; the
    spectrum is computed only for its checks (DegeneracyError, PoleError).
    """
    s = float(s)
    gamma = float(gamma)
    d = build_discretization(spec, IntervalSpec(spec.family, s), n)
    sp = compute_spectrum(d)
    _check_factors(sp, gamma, "d_ds_log_det")
    # the solve's condition number is about 1 / (1 - gamma lambda_0)
    _warn_unresolved(sp, gamma, "d_ds_log_det")
    k_s = np.sqrt(d.weights) * kernels.kernel_eval(spec, d.nodes, s)
    x = np.linalg.solve(np.eye(d.n) - gamma * d.matrix, k_s)
    r = gamma * kernels.kernel_diag(spec, s) + gamma * gamma * float(k_s @ x)
    sign = {Family.AIRY: 1.0, Family.BESSEL: -1.0, Family.SINE: -2.0}[spec.family]
    return sign * r
