"""Special-function surface: Airy Ai/Ai', Bessel J_a/J_a', Gamma family,
complex log-Barnes-G, and the zeta derivative constant.

Airy and Bessel values come from one array implementation, `airy_pair` and
`bessel_j_pair`, which evaluate a whole grid per call. Each element takes
its zone by mask, and a zone costs a fixed number of array passes, its
degree set by a tail below 1e-18 at the zone's worst point: Airy on (-3, 2)
by Horner in x^3 to degree 15 (at |x| = 3), Airy on [2, 15.5] and [-13, -3]
by one Clenshaw pass over the stacked tables of _coeffs.py, Bessel on x <= 9
by 26 series terms (at x = 9, relative to the terms' moduli, for any a > -1)
and below 30 + a^2 by backward recurrence, normalized in logs at a point
whose weights pass the largest double (orders above about 150). Airy for
x < -13 and x > 15.5 and Bessel from 30 + a^2 read one Hankel series,
sum a_k(nu) z^{-k} at nu = 1/3, 2/3 and nu = a, a + 1, cut element by
element below 1e-18 (or at the smallest term), with the oscillatory phase
and Airy's e^{-zeta} taken exactly. Every sum is elementwise, so no value
depends on the rest of the batch. The scalar functions `airy_ai`,
`airy_ai_prime`, `bessel_j` and `bessel_j_prime` are one-element calls of
the same code.
"""

import cmath
import functools
import math
import sys

import numpy as np

from . import _coeffs
from .errors import DomainError, _bessel_order

__all__ = [
    "airy_pair",
    "airy_ai",
    "airy_ai_prime",
    "bessel_j_pair",
    "bessel_j",
    "bessel_j_prime",
    "log_gamma",
    "log_gamma_complex",
    "log_barnes_g",
    "zeta_prime_minus_one",
    "zeta_real",
    "backend_name",
]


def backend_name():
    """Name of the special-function implementation: always 'python' (numpy)."""
    return "python"


AIRY_LO, AIRY_HI = -40.0, 200.0
BESSEL_XMAX = 1e4


def _check_range(name, x, lo, hi):
    bad = ~((x >= lo) & (x <= hi))
    if bad.any():
        raise DomainError(f"{name}: x={x[bad].flat[0]} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Hankel's asymptotic series, read by the three asymptotic zones: Airy at
# nu = 1/3 and 2/3 (DLMF 9.7), Bessel at nu = a and a + 1 (DLMF 10.17)


def _hankel_sums(mu, z, osc):
    """Even and odd parts of sum_k a_k(nu) z^{-k}, one row per mu = 4 nu^2,
    a_k(nu) = prod_{j<=k} (mu - (2j - 1)^2) / (8j). Each element stops at its
    smallest term or once a term is below 1e-18. With osc (the oscillatory
    zones), term k carries the sign (-1)^{floor(k/2)}."""
    ak = np.ones(np.broadcast_shapes(mu.shape, z.shape))
    even, odd, prev = ak.copy(), np.zeros_like(ak), ak
    live = np.ones(ak.shape, dtype=bool)
    for k in range(1, 60):
        ak = ak * ((mu - (2 * k - 1) ** 2) / (8.0 * k * z))
        t = np.abs(ak)
        live &= ~(t > prev)  # divergence onset: stop at the smallest term
        prev = t
        sgn = -1.0 if osc and (k // 2) % 2 else 1.0
        acc = odd if k % 2 else even
        np.add(acc, sgn * ak, out=acc, where=live)
        live &= ~(t < 1e-18)
        if not live.any():
            break
    return even, odd


# ---------------------------------------------------------------------------
# Airy Ai, Ai'

_SQRT_PI = math.sqrt(math.pi)
_TWO_THIRDS = 2.0 / 3.0

# Maclaurin values Ai(0) = 3^{-2/3}/Gamma(2/3), -Ai'(0) = 3^{-1/3}/Gamma(1/3)
_AI_C1 = 0.3550280538878172
_AI_C2 = 0.2588194037928068

# seams: Maclaurin on (-YLO, XLO), Chebyshev zones, asymptotics beyond
_X_POS_CHEB = _coeffs.AIRY_POS_XLO  # 2.0
_X_POS_ASYM = _coeffs.AIRY_POS_XHI  # 15.5
_Y_NEG_CHEB = _coeffs.AIRY_NEG_YLO  # 3.0
_Y_NEG_ASYM = _coeffs.AIRY_NEG_YHI  # 13.0

# central-zone series in z = x^3 as (term, row, 1): f = F, g = x G, f' = x^2 FP, g' = GP
_MAC = np.array(
    [_coeffs.AIRY_MAC_F, _coeffs.AIRY_MAC_G, _coeffs.AIRY_MAC_FP, _coeffs.AIRY_MAC_GP]
).T[:, :, None]


def _cheb_tables(*zones):
    """Chebyshev tables as (term, row, zone), zero-padded to four rows and at
    the top to the longest table: zero top terms leave every Clenshaw sum as is."""
    out = np.zeros((max(len(t) for rows in zones for t in rows), 4, len(zones)))
    for j, rows in enumerate(zones):
        for i, t in enumerate(rows):
            out[: len(t), i, j] = t
    return out


# zone 0 (x >= 2) has the rows FA, FAP and zone 1 (x <= -3) P, Q, R, S
_CHEB = _cheb_tables(
    (_coeffs.AIRY_FA, _coeffs.AIRY_FAP),
    (_coeffs.AIRY_NEG_P, _coeffs.AIRY_NEG_Q, _coeffs.AIRY_NEG_R, _coeffs.AIRY_NEG_S),
)
# per zone, r = 1/zeta in [R_LO, R_HI] maps onto [-1, 1]
_R_LO = np.array([_coeffs.AIRY_POS_RLO, _coeffs.AIRY_NEG_RLO])
_R_HI = np.array([_coeffs.AIRY_POS_RHI, _coeffs.AIRY_NEG_RHI])


def _airy_maclaurin(x):
    """(Ai, Ai') on the central zone: the rows F, G, FP, GP in one Horner pass,
    on the full (row, point) shape, as a broadcast operand costs twice as much."""
    cs = np.repeat(_MAC, len(x), axis=2)
    z = np.repeat((x * x * x)[None], 4, axis=0)
    h = cs[-1].copy()
    for c in cs[-2::-1]:
        h *= z
        h += c
    f, g, fp, gp = h
    return _AI_C1 * f - _AI_C2 * (x * g), _AI_C1 * (x * x * fp) - _AI_C2 * gp


_AIRY_MU = np.array([[4.0 / 9.0], [16.0 / 9.0]])  # mu = 4 nu^2 at nu = 1/3 (Ai), 2/3 (Ai')


def _two_prod(a, b):
    """(p, e) with p = fl(ab) and p + e = ab exactly: Dekker's product, each
    factor split into halves of 26 bits through a product with 2^27 + 1."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    a1, b1 = ca - (ca - a), cb - (cb - b)
    a2, b2 = a - a1, b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


_TWO_THIRDS_LO = 3.700743415417188e-17  # 2/3 less the double nearest it


def _zeta(y):
    """zeta = (2/3) y^{3/2} in double-double, as (hi, lo). One rounding would
    move it by up to 1.4e-14 at x = -40 and 1.1e-13 at x = 100."""
    r = np.sqrt(y)
    p, e = _two_prod(r, r)
    h, lo = _two_prod(y, r)
    lo += y * ((y - p) - e) / (2.0 * r)  # y sqrt(y) = y (r + (y - r^2) / 2r) = h + lo
    zeta, e = _two_prod(_TWO_THIRDS, h)
    return zeta, e + _TWO_THIRDS * lo + _TWO_THIRDS_LO * h


def _airy_pos_asym(x):
    """(Ai, Ai') at x > 15.5, with e^{-zeta} taken as e^{-hi} (1 - lo)."""
    zeta, lo = _zeta(x)
    even, odd = _hankel_sums(_AIRY_MU, zeta, False)
    su, sv = even + odd
    pre = np.exp(-zeta) * (1.0 - lo) / (2.0 * _SQRT_PI)
    x4 = x**0.25
    ai = pre / x4 * su
    aip = -pre * x4 * sv
    far = zeta > 700.0
    if far.any():
        # e^{-zeta} underflows; split the exponent through the prefactor
        xf = x[far]
        lg = -zeta[far] - lo[far] - math.log(2.0 * _SQRT_PI) - 0.25 * np.log(xf)
        under = lg < -745.0
        pre = np.exp(lg)
        ai[far] = np.where(under, 0.0, pre * su[far])
        aip[far] = np.where(under, 0.0, -pre * xf**0.5 * sv[far])
    return ai, aip


def _airy_neg_asym(y):
    """(Ai, Ai') at x = -y < -13. The phase zeta + pi/4 is taken in
    double-double as ph + lo, and lo enters cos and sin to first order."""
    zeta, lo = _zeta(y)
    ph = zeta + 0.25 * math.pi
    lo = lo + (0.25 * math.pi - (ph - zeta))
    c, s = np.cos(ph), np.sin(ph)
    c, s = c - lo * s, s + lo * c
    even, odd = _hankel_sums(_AIRY_MU, zeta, True)
    y4 = y**0.25
    ai = (s * even[0] + c * odd[0]) / (_SQRT_PI * y4)
    aip = -(c * even[1] - s * odd[1]) * y4 / _SQRT_PI
    return ai, aip


def _airy_cheb(x):
    """(Ai, Ai') on both Chebyshev zones, in one Clenshaw pass."""
    neg = x < 0.0
    zone = neg.astype(np.intp)
    y = np.abs(x)
    zeta = _TWO_THIRDS * y * np.sqrt(y)
    u = (2.0 / zeta - (_R_LO + _R_HI)[zone]) / (_R_HI - _R_LO)[zone]
    cs = np.take(_CHEB, zone, axis=2)
    u2 = np.repeat(2.0 * u[None], 4, axis=0)  # full shape, as in _airy_maclaurin
    b1 = b2 = np.zeros(u2.shape)
    for ck in cs[:0:-1]:
        b1, b2 = u2 * b1 - b2 + ck, b1
    p, q, r, s = u * b1 - b2 + cs[0]
    y4 = y**0.25
    # x >= 2: FA and FAP scale e^{-zeta}; x <= -3: P..S carry the phase
    pre = np.exp(-zeta) / (2.0 * _SQRT_PI)
    zp = zeta + 0.25 * math.pi
    c, sn = np.cos(zp), np.sin(zp)
    ai = np.where(neg, (sn * p - c * q) / (_SQRT_PI * y4), pre / y4 * p)
    aip = np.where(neg, -(c * r - sn * s) * y4 / _SQRT_PI, -pre * y4 * q)
    return ai, aip


def airy_pair(x):
    """(Ai(x), Ai'(x)) elementwise, for x (scalar or array) in [-40, 200]."""
    x = np.asarray(x, dtype=float)
    _check_range("airy_pair", x, AIRY_LO, AIRY_HI)
    ai = np.empty(x.shape)
    aip = np.empty(x.shape)
    y = -x
    mac = (x > -_Y_NEG_CHEB) & (x < _X_POS_CHEB)
    for mask, branch, arg in (
        (mac, _airy_maclaurin, x),
        ((y <= _Y_NEG_ASYM) & (x <= _X_POS_ASYM) & ~mac, _airy_cheb, x),
        (x > _X_POS_ASYM, _airy_pos_asym, x),
        (y > _Y_NEG_ASYM, _airy_neg_asym, y),
    ):
        if mask.any():
            ai[mask], aip[mask] = branch(arg[mask])
    return ai, aip


def airy_ai(x):
    """Airy function Ai(x), certified for x in [-40, 200]."""
    return float(airy_pair(x)[0])


def airy_ai_prime(x):
    """Derivative Ai'(x), certified for x in [-40, 200]."""
    return float(airy_pair(x)[1])


# ---------------------------------------------------------------------------
# Bessel J_a for real order a > -1. Series and Hankel evaluate the orders
# a and a + 1 together, as the two rows of one (2, len(x)) array.


_LOG_MAX = math.log(sys.float_info.max)  # e^t overflows a double past t = 709.78

# Series degree on x <= 9: t_k = t_{k-1} q / (k (k + v)), q = -(x/2)^2, obeys
# |t_k| <= |t_1| |q|^{k-1} / (k! (k-1)!) for every order v > -1, and |t_1| <= sum |t_k|,
# the scale of the sum's rounding; at |q| = 81/4 the tail past 25 is below 1e-18 of it.
_SERIES_DEGREE = 25


def _bessel_series(a, x):
    """Ascending power series; accurate for x <= 9."""
    a1 = a + 1.0
    order = np.array([[a], [a1]])
    lgam = np.array([[math.lgamma(a + 1.0)], [math.lgamma(a1 + 1.0)]])
    zero = x == 0.0
    xh = 0.5 * np.where(zero, 1.0, x)
    lpre = order * np.log(xh) - lgam
    # ratios t_k / t_{k-1} as one (term, order, point) array, made terms and summed in order
    k = np.arange(1.0, _SERIES_DEGREE + 1.0)[:, None, None]
    terms = -xh * xh / (k * (k + order))
    s = 1.0 + terms[0]
    for prev, cur in zip(terms, terms[1:]):
        cur *= prev
        s += cur
    out = np.exp(lpre) * s
    tiny = lpre < -700.0
    if tiny.any():
        st = s[tiny]
        out[tiny] = np.where(
            st != 0.0, np.exp(lpre[tiny] + np.log(np.abs(st))) * np.copysign(1.0, st), 0.0
        )
    out[:, zero] = np.where(order == 0.0, 1.0, 0.0)
    return out


def _bessel_hankel(a, x):
    """Large-x expansion: Hankel's P and Q sums at the orders a and a + 1."""
    order = np.array([[a], [a + 1.0]])
    p, q = _hankel_sums(4.0 * order * order, x, True)
    # the phase x - theta by angle addition, theta = (order/2 + 1/4) pi mod 2 pi:
    # x - theta itself would round by up to 9e-13 at x = 1e4
    theta = np.fmod(0.5 * order + 0.25, 2.0) * math.pi
    ct, st = np.cos(theta), np.sin(theta)
    cx, sx = np.cos(x), np.sin(x)
    return np.sqrt(2.0 / (math.pi * x)) * ((cx * ct + sx * st) * p - (sx * ct - cx * st) * q)


def _bessel_miller(a, x):
    """(J_a, J_{a+1}) by backward recurrence with Gegenbauer normalization."""
    start = (x + 12.0 * np.sqrt(x) + 22.0).astype(int)
    top = int(start.max())
    # normalization S = sum_k c_k f_{a+2k} -> (x/2)^a / Gamma(a+1), with
    # c_0 = 1, c_k = (a+2k) Gamma(a+k) / (Gamma(a+1) k!); rows past a
    # column's start are zero, so each column sums its own terms in order.
    # A column whose weights and prefactor fit in a double (every column at
    # moderate orders) sums them as they are; a wide one (orders above about
    # 150) takes the terms and the prefactor in logs.
    lg_a1 = math.lgamma(a + 1.0)
    log_g = [math.lgamma(a + k) - lg_a1 - math.lgamma(k + 1.0) for k in range(1, top // 2 + 1)]
    log_pre = a * np.log(0.5 * x) - lg_a1
    log_c = np.concatenate(([0.0], log_g + np.log(a + 2.0 * np.arange(1, top // 2 + 1))))
    wide = np.maximum(np.maximum.accumulate(log_c)[start // 2], log_pre) > _LOG_MAX
    # f[n] holds f_{a+n}. Each column starts at its own n_start with
    # f[n_start + 1] = 0, f[n_start] = 1e-300 and is zero above; the update
    # adds 0 to a row until its column has started, which keeps the seed.
    f = np.zeros((top + 2, len(x)))
    f[start, np.arange(len(x))] = 1e-300
    ratio = (2.0 * (a + np.arange(top + 1)))[:, None] / x
    # A step grows |f| at most g = 1 + 2(|a| + 67)/9 times on x > 9, n <= x + 12 sqrt(x)
    # + 22. Checks every m rows, g^m <= 2^480, scale columns past 2^512 by the exact
    # 2^-512, so no value passes 2^992; the checked rows depend on a, not the batch.
    # A wide column's largest terms can lie so far below f[0] that scaling every
    # row would flush them: only its two live rows are scaled, and the rows above
    # keep the frame they were made in.
    every = max(1, int(480.0 / math.log2(1.0 + 2.0 * (abs(a) + 67.0) / 9.0)))
    rescaled = []  # (n, wide columns scaled at row n)
    rows, ratio = list(f), list(ratio)  # row views, indexed faster by a list
    for n in range(top, 0, -1):
        rows[n - 1] += ratio[n] * rows[n] - rows[n + 1]
        if n % every == 0:
            big = np.abs(f[n - 1 : n + 1]).max(axis=0) > 2.0**512
            if big.any():
                f[n - 1 :, big & ~wide] *= 2.0**-512
                f[n - 1 : n + 1, big & wide] *= 2.0**-512
                rescaled.append((n, big & wide))
    if not wide.any():
        return _gegenbauer_scale(a, f, start, log_g, log_pre)
    # a batch with wide columns: each kind of column on its own
    out = np.empty((2, len(x)))
    fits = ~wide
    if fits.any():
        out[:, fits] = _gegenbauer_scale(a, f[:, fits], start[fits], log_g, log_pre[fits])
    frames = np.zeros((top + 2, len(x)))
    for n, cols in rescaled:
        frames[: n + 1, cols] += 1.0
    lost = (frames[0] - frames) * (512.0 * math.log(2.0))
    out[:, wide] = _gegenbauer_scale_log(f[:, wide], lost[:, wide], log_c, log_pre[wide])
    return out[0], out[1]


def _gegenbauer_scale(a, f, start, log_g, log_pre):
    """Miller's rows f normalized to (J_a, J_{a+1}), with the weights and
    the prefactor e^log_pre as they are."""
    kmax = int(start.max()) // 2
    c = [1.0] + [(a + 2.0 * k) * math.exp(lg) for k, lg in zip(range(1, kmax + 1), log_g)]
    s = np.cumsum(np.array(c)[:, None] * f[0 : 2 * len(c) : 2], axis=0)[-1]
    scale = np.exp(log_pre) / s
    return f[0] * scale, f[1] * scale


def _gegenbauer_scale_log(f, lost, log_c, log_pre):
    """The same from logs: row n of f, times e^-lost[n], is its value in the
    frame of rows 0 and 1. The terms log |c_k f_{a+2k}| and the prefactor
    take one shift per column, its largest term."""
    even = slice(0, 2 * len(log_c), 2)
    with np.errstate(divide="ignore"):  # log 0 = -inf on rows past a column's start
        log_t = log_c[:, None] + np.log(np.abs(f[even])) - lost[even]
        shift = log_t.max(axis=0)
        s = np.cumsum(np.sign(f[even]) * np.exp(log_t - shift), axis=0)[-1]
        log_j = np.log(np.abs(f[:2])) + (log_pre - shift - np.log(np.abs(s)))
    return np.sign(f[:2]) * np.sign(s) * np.exp(log_j)


def bessel_j_pair(a, x):
    """(J_a(x), J_{a+1}(x)) elementwise, for real order a > -1 and x
    (scalar or array) in [0, 1e4]."""
    a = _bessel_order(a, "bessel_j_pair")
    x = np.asarray(x, dtype=float)
    _check_range("bessel_j_pair", x, 0.0, BESSEL_XMAX)
    ja = np.empty(x.shape)
    ja1 = np.empty(x.shape)
    series = x <= 9.0
    hankel = x >= 30.0 + a * a
    for mask, branch in (
        (series, _bessel_series),
        (hankel, _bessel_hankel),
        (~(series | hankel), _bessel_miller),
    ):
        if mask.any():
            ja[mask], ja1[mask] = branch(a, x[mask])
    return ja, ja1


def bessel_j(a, x):
    """Bessel J_a(x) for real order a > -1, x in [0, 1e4]."""
    return float(bessel_j_pair(a, x)[0])


def bessel_j_prime(a, x):
    """Derivative J_a'(x) = (a/x) J_a(x) - J_{a+1}(x), for real order a > -1
    and x in [0, 1e4]."""
    ja, ja1 = bessel_j_pair(a, x)
    a = float(a)
    x = float(x)
    if x == 0.0:
        if a == 1.0:
            return 0.5
        if a == 0.0 or a > 1.0:
            return 0.0
        return math.inf if a > 0.0 else -math.inf
    return float((a / x) * ja - ja1)


def log_gamma(x):
    """log Gamma(x) for real x > 0."""
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"log_gamma: x={x} must be positive")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# complex log-gamma (Lanczos, g = 607/128, 15 terms; principal branch,
# accurate to ~1e-14 relative for Re z > 0)

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma_complex(z):
    """Principal-branch log Gamma(z) for complex z with Re z > 0."""
    z = complex(z)
    if z.real <= 0.0:
        raise DomainError(f"log_gamma_complex: Re z={z.real} must be positive")
    if z.imag == 0.0:
        return complex(math.lgamma(z.real))
    zm = z - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (zm + k)
    t = zm + _LANCZOS_G + 0.5
    return (zm + 0.5) * cmath.log(t) - t + _LOG_SQRT_2PI + cmath.log(s)


# ---------------------------------------------------------------------------
# Riemann zeta on integers >= 2 (Borwein's alternating-series algorithm)

_BORWEIN_N = 40


@functools.cache
def _borwein_c():
    """The float weights (d_k - d_n)/d_n, k < n, of Borwein's series, with
    d_i = n sum_{j<=i} (n+j-1)! 4^j / ((n-j)! (2j)!).

    The d_i are kept times n! (2n)! / n, which makes every term an integer;
    int / int rounds correctly, so each weight is its exact ratio rounded."""
    n = _BORWEIN_N
    f = math.factorial
    d = []
    acc = 0
    for j in range(n + 1):
        acc += f(n + j - 1) * 4**j * (f(n) // f(n - j)) * (f(2 * n) // f(2 * j))
        d.append(acc)
    return tuple((d[k] - d[n]) / d[n] for k in range(n))


def zeta_real(s):
    """Riemann zeta(s) for real s >= 2, ~1e-16 relative accuracy."""
    if s < 2:
        raise DomainError("zeta_real requires s >= 2")
    total = 0.0
    for k, c in enumerate(_borwein_c()):
        total += (-1.0) ** k * c / float(k + 1) ** s
    return -total / (1.0 - 2.0 ** (1.0 - s))


@functools.cache
def _zeta_int():
    """zeta(k) for the integers k = 2..79."""
    return {k: zeta_real(k) for k in range(2, 80)}


# B_0..B_32 as exact numerator/denominator pairs; p / q of two ints rounds
# correctly
_BERNOULLI_PQ = (
    (1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1),
    (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6), (0, 1),
    (-3617, 510), (0, 1), (43867, 798), (0, 1), (-174611, 330), (0, 1),
    (854513, 138), (0, 1), (-236364091, 2730), (0, 1), (8553103, 6), (0, 1),
    (-23749461029, 870), (0, 1), (8615841276005, 14322), (0, 1),
    (-7709321041217, 510),
)
_BERNOULLI = tuple(p / q for p, q in _BERNOULLI_PQ)

_EULER_GAMMA = 0.5772156649015328606

# zeta'(-1) = 1/12 - ln A (A the Glaisher-Kinkelin constant) as that
# relation gave it in double arithmetic, one ulp from the correctly rounded
# -0.16542114370045094; the closed forms are pinned to this value
_ZETA_PRIME_MINUS_ONE = -0.16542114370045097


def zeta_prime_minus_one():
    """zeta'(-1) = 1/12 - ln A, A the Glaisher-Kinkelin constant."""
    return _ZETA_PRIME_MINUS_ONE


# ---------------------------------------------------------------------------
# complex log-Barnes-G, principal branch, Re z > 0

_BARNES_TAYLOR_RADIUS = 0.5
_BARNES_ASYM_RADIUS = 15.0


def _log_barnes_taylor(w):
    """ln G(1+w) for |w| <= ~0.6 from the zeta-coefficient Taylor series."""
    w = complex(w)
    s = 0.5 * w * math.log(2.0 * math.pi) - 0.5 * w * (1.0 + w)
    s -= 0.5 * _EULER_GAMMA * w * w
    wp = w * w  # holds w^{n-1} entering the n-th term
    sign = 1.0
    zeta = _zeta_int()
    for n in range(3, 200):
        wp *= w
        term = sign * zeta[n - 1] * wp / n
        s += term
        if abs(term) < 1e-18:
            break
        sign = -sign
    return s


def _log_barnes_asym(w):
    """ln G(1+w) for large |w|, Re w > 0 (Stirling-type expansion)."""
    lw = cmath.log(w)
    s = (
        0.5 * w * w * lw
        - 0.75 * w * w
        + 0.5 * w * math.log(2.0 * math.pi)
        - lw / 12.0
        + zeta_prime_minus_one()
    )
    w2 = w * w
    wp = w2
    for k in range(1, 14):
        term = _BERNOULLI[2 * k + 2] / (2 * k * (2 * k + 2) * wp)
        s += term
        if abs(term) < 1e-18 * max(1.0, abs(s)):
            break
        wp *= w2
    return s


def log_barnes_g(z):
    """Principal-branch ln G(z) for complex z with Re z > 0.

    Uses the Taylor series of ln G(1+w) near w = 0, the recurrence
    ln G(z+1) = ln Gamma(z) + ln G(z) for moderate reduction, and a
    Stirling-type expansion once |z| is large.
    """
    z = complex(z)
    if z.real <= 0.0:
        raise DomainError(f"log_barnes_g: Re z={z.real} must be positive")
    w = z - 1.0
    if abs(w) <= _BARNES_TAYLOR_RADIUS:
        return _log_barnes_taylor(w)
    # climb with the recurrence until the asymptotic zone, then descend in log
    shift = 0.0
    zz = z
    acc = 0.0 + 0.0j
    while abs(zz - 1.0) < _BARNES_ASYM_RADIUS:
        acc += log_gamma_complex(zz)
        zz += 1.0
        shift += 1.0
        if shift > 64:
            break
    return _log_barnes_asym(zz - 1.0) - acc
