"""Closed-form eigenvalue laws, gap and transition determinants, Stokes-curve
parameterizations and the sigma coefficients for the log-derivative estimates.

Each family has one eigenvalue law, in its scaling variable t:

    log(1 - lambda_i) ~ L_i(a) + (m(i + 1/2) + a) log t - kappa t

    family  t           kappa      m  L_i(a)
    sine    s           2          1  log(pi)/2 - log i! + (3i + 2) log 2
    Airy    (-s)^(3/2)  2 sqrt2/3  1  log(pi)/2 - log i! + (7i/2 + 9/4) log 2
    Bessel  sqrt(s)     2          2  -log d_i(a),
                                      d_i(a) = i! Gamma(1+a+i) / (pi 2^(4i+2a+3))

The order a enters for Bessel only (a = 0 elsewhere). Each quantity has one
public function that takes the family and reads its closed form from the
family's row of _LAWS: eig_law gives 1 - lambda_i, gap the gap expansion
log D(J; 1) (row fields gap and gap_s, its domain in s), transition the
transition determinant (at least p_min factors, error order from error_cap
and error_floor) and logderiv d/ds log D along a Stokes curve. Everything
else is derived from that table:

- the Stokes curve of parameter chi is v = kappa t - (m chi + a) log t;
- the transition determinant is the gap expansion times the factors
  1 + E_i, with excesses E_i = e^{-v} / (1 - lambda_i);
- sigma+ = c z/(1+z) with z = e^{-L_k} t^{m(alpha-1/2)}, and sigma- likewise
  with z = e^{L_{k-1}} t^{-m(alpha+1/2)}, where c = 1 (Airy) or -2 (Bessel).
  On the curve through (t, v) these are c E_k/(1+E_k) and c/(1+E_{k-1}).

All determinant expansions are computed and compared in log space: the
prefactors like exp(s^3/12) underflow long before the regimes of interest.
"""

import math
import numbers
import operator

from .errors import ArgumentError, DomainError
from .kernels import Family, IntervalSpec, _coerce_family, _Record
from .specfun import log_barnes_g, log_gamma, zeta_prime_minus_one

__all__ = [
    "TransitionExpansion",
    "chi_decompose",
    "p_of_chi",
    "stokes_v",
    "stokes_chi",
    "eig_law",
    "d_coeff",
    "gap",
    "sine_det_sub",
    "transition",
    "sigma_pm",
    "logderiv",
]

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
_LOG_PI = math.log(math.pi)


def _log_factorial(i):
    return log_gamma(i + 1.0)


def _log_d(i, a):
    # log d_i(a) = log(i! Gamma(1+a+i) / (pi 2^{4i+2a+3}))
    return _log_factorial(i) + log_gamma(1.0 + a + i) - _LOG_PI - (4 * i + 2 * a + 3) * _LN2


class _Law(_Record):
    """One family's row of the table in the module docstring."""

    _fields = (
        "kappa",
        "m",
        "uses_a",  # whether the order a enters the formulas
        "log_const",  # (i, a) -> L_i(a)
        "gap",  # (s, a) -> log D(J; 1), the transition prefactor, for s in gap_s
        "gap_s",  # (lo, hi), one end infinite: the s the gap expansion takes
        "p_min",  # fewest transition factors: sine always carries its leading one
        "sigma_c",  # c of sigma+-; nan where no log-derivative expansion exists
        "error_cap",  # largest transition error exponent
        "error_floor",  # t -> least transition error order, whatever the exponent
        "t_min",  # smallest t the expansions are evaluated at
        "t_of_s",  # t as a function of s, for messages
    )

    def __init__(self, *values):
        self._set(**dict(zip(self._fields, values, strict=True)))


_LAWS = {
    Family.SINE: _Law(
        2.0,
        1,
        False,
        lambda i, a: 0.5 * _LOG_PI - _log_factorial(i) + (3 * i + 2) * _LN2,
        lambda s, a: -0.5 * s * s - 0.25 * math.log(s) + _log_c0_crit(),
        (2.0, math.inf),
        1,
        math.nan,
        1.0,
        lambda t: 0.0,
        2.0,
        "s",
    ),
    Family.AIRY: _Law(
        2.0 * _SQRT2 / 3.0,
        1,
        False,
        lambda i, a: 0.5 * _LOG_PI - _log_factorial(i) + (3.5 * i + 2.25) * _LN2,
        lambda s, a: s**3 / 12.0 - 0.125 * math.log(-s) + _log_c0(),
        (-math.inf, -2.0),
        0,
        1.0,
        0.5,
        lambda t: 0.0,
        5.0,
        "(-s)^(3/2)",
    ),
    Family.BESSEL: _Law(
        2.0,
        2,
        True,
        lambda i, a: -_log_d(i, a),
        lambda s, a: -0.25 * s + a * math.sqrt(s) - 0.25 * a * a * math.log(s) + _log_tau(a),
        (4.0, math.inf),
        0,
        -2.0,
        math.inf,
        lambda t: math.log(t) / t,
        4.0,
        "sqrt(s)",
    ),
}


def _log_eig(fam, i, t, a):
    """log(1 - lambda_i) from the family's law; a is 0 unless Bessel."""
    law = _LAWS[fam]
    return law.log_const(i, a) + (law.m * (i + 0.5) + a) * math.log(t) - law.kappa * t


def _log_excess(fam, i, t, v, a):
    """log E_i = log(e^{-v} / (1 - lambda_i)), the i-th transition excess."""
    return -_log_eig(fam, i, t, a) - v


def _order(fam, a):
    """The order a as the family's formulas read it: checked for Bessel, else 0."""
    return _check_order(a) if _LAWS[fam].uses_a else 0.0


def _real(x, name, what, inf_ok=False):
    """x as a float, or ArgumentError for NaN, -inf, and +inf unless inf_ok
    (v = +inf is the gamma = 1 curve)."""
    x = float(x)
    if not (-math.inf < x < math.inf or (inf_ok and x == math.inf)):
        allowed = "finite or +inf" if inf_ok else "finite"
        raise ArgumentError(f"{name} requires a {allowed} {what}, got {x}")
    return x


def _scale(fam, s, name):
    """The scaling variable t at s, checked against the family's smallest t."""
    law = _LAWS[fam]
    t = IntervalSpec(fam, s).t
    if not t >= law.t_min:
        raise ArgumentError(f"{name} requires t = {law.t_of_s} >= {law.t_min:g}, got s = {s}")
    return t


def chi_decompose(chi):
    """Split chi = k + alpha with integer k >= 0 and alpha in [-1/2, 1/2)."""
    chi = _real(chi, "chi_decompose", "chi")
    if not chi >= -0.5:
        raise ArgumentError(f"chi_decompose requires chi >= -1/2, got {chi}")
    k = math.floor(chi + 0.5)
    alpha = chi - k
    # guard rounding at the upper edge so alpha stays in [-1/2, 1/2)
    if alpha >= 0.5:
        k += 1
        alpha = chi - k
    return k, alpha


def p_of_chi(chi, family):
    """Number of transition factors prescribed for curve parameter chi: the
    unique integer in (chi + 1/2, chi + 3/2], and never below p_min."""
    p_min = _LAWS[_coerce_family(family)].p_min
    chi = _real(chi, "p_of_chi", "chi")
    return p_min if chi < p_min - 0.5 else math.floor(chi + 1.5)


def stokes_v(family, t, chi, a=0.0):
    """v on the Stokes curve with parameter chi at scale t."""
    fam = _coerce_family(family)
    law = _LAWS[fam]
    t = _real(t, "stokes_v", "t")
    if not t > 1.0:
        raise ArgumentError(f"stokes_v requires t > 1, got {t}")
    chi = _real(chi, "stokes_v", "chi")
    a = _order(fam, a)
    return law.kappa * t - (law.m * chi + a) * math.log(t)


def stokes_chi(family, t, v, a=0.0):
    """Invert stokes_v: the curve parameter chi passing through (t, v)."""
    fam = _coerce_family(family)
    law = _LAWS[fam]
    t = _real(t, "stokes_chi", "t")
    if not t > 1.0:
        raise ArgumentError(f"stokes_chi requires t > 1, got {t}")
    v = _real(v, "stokes_chi", "v", inf_ok=True)
    a = _order(fam, a)
    return ((law.kappa * t - v) / math.log(t) - a) / law.m


class TransitionExpansion(_Record):
    """Log-space transition determinant: exp(log_prefactor) * prod(factors).

    excesses[i] = factors[i] - 1 held at full precision, so that identities
    involving factor - 1 do not lose digits when the factor is close to 1.
    """

    _fields = ("log_prefactor", "factors", "p", "error_exponent", "excesses")

    def __init__(self, log_prefactor, factors, p, error_exponent=math.nan, excesses=None):
        factors = tuple(float(f) for f in factors)
        if excesses is None:
            excesses = tuple(f - 1.0 for f in factors)
        else:
            excesses = tuple(float(e) for e in excesses)
        self._set(log_prefactor=log_prefactor, factors=factors, p=p,
                  error_exponent=error_exponent, excesses=excesses)
        if len(factors) != p or len(excesses) != p:
            raise ArgumentError("TransitionExpansion: len(factors) must equal p")

    @property
    def log_value(self):
        return self.log_prefactor + sum(math.log1p(e) for e in self.excesses)


def eig_law(family, i, s, a=0.0):
    """Predicted 1 - lambda_i of the family's operator at interval parameter s."""
    fam = _coerce_family(family)
    name = f"{fam.value} eig_law"
    i = _check_index(i, name)
    a = _order(fam, a)
    return math.exp(_log_eig(fam, i, _scale(fam, s, name), a))


def d_coeff(i, a):
    """d_i(a) = i! Gamma(1+a+i) / (pi 2^{4i+2a+3}), via log-gamma."""
    return math.exp(_log_d(_check_index(i, "d_coeff"), _check_order(a)))


def _integer(x, name):
    """x as an int; a bool, a float or any other non-integer is refused, not truncated."""
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return operator.index(x)
    raise ArgumentError(f"{name} takes an integer index, got {x!r}")


def _check_index(x, name):
    i = _integer(x, name)
    if i < 0:
        raise ArgumentError(f"index must be >= 0, got {i}")
    return i


def _check_order(a):
    a = float(a)
    if not a > -1.0:
        raise DomainError(f"Bessel order must satisfy a > -1, got {a}")
    return a


def _log_c0():
    # c0 = exp((1/24) ln 2 + zeta'(-1))
    return _LN2 / 24.0 + zeta_prime_minus_one()


def _log_c0_crit():
    # c0' = exp((1/12) ln 2 + 3 zeta'(-1))
    return _LN2 / 12.0 + 3.0 * zeta_prime_minus_one()


def _log_tau(a):
    # tau_a = G(1+a) / (2 pi)^{a/2}
    return log_barnes_g(1.0 + a).real - 0.5 * a * math.log(2.0 * math.pi)


def gap(family, s, a=0.0):
    """log D(J; 1), the family's gap expansion, for s in its gap_s."""
    fam = _coerce_family(family)
    law = _LAWS[fam]
    s = float(s)
    a = _order(fam, a)
    lo, hi = law.gap_s
    if not (lo <= s <= hi and math.isfinite(s)):
        bound = f"s <= {hi:g}" if lo == -math.inf else f"s >= {lo:g}"
        raise ArgumentError(f"{fam.value} gap requires a finite {bound}, got {s}")
    return law.gap(s, a)


def sine_det_sub(s, v):
    """Sub-critical log D(J_sin; gamma), gamma = 1 - e^{-v} < 1."""
    s = float(s)
    v = float(v)
    if not 2.0 <= s < math.inf:
        raise ArgumentError(f"sine_det_sub requires a finite s >= 2, got {s}")
    if not 0.0 < v < math.inf:
        raise ArgumentError(f"sine_det_sub requires a finite v > 0, got {v}")
    return (
        -(2.0 * v / math.pi) * s
        + (v * v / (2.0 * math.pi**2)) * math.log(4.0 * s)
        + 4.0 * log_barnes_g(complex(1.0, v / (2.0 * math.pi))).real
    )


def _error_exponent(family, p, chi):
    """e = min(m (p - chi - 1/2), error_cap) of the transition error t^{-e}
    with p factors on the curve chi; nan without chi."""
    if chi is None:
        return math.nan
    law = _LAWS[family]
    return min(law.m * (p - chi - 0.5), law.error_cap)


def _error_bound(family, t, exponent):
    """The order of a transition expansion's error at scale t, from the
    exponent e it reports: t^{-e}, and never below the row's error_floor."""
    return max(t**-exponent, _LAWS[family].error_floor(t))


def transition(family, s, v, p, a=0.0, chi=None):
    """Transition determinant with p explicit factors: the gap expansion
    times 1 + E_i, E_i = e^{-v} / (1 - lambda_i) from the eigenvalue law."""
    fam = _coerce_family(family)
    law = _LAWS[fam]
    name = f"{fam.value}_transition"
    a = _order(fam, a)
    p = _integer(p, name)
    if p < law.p_min:
        raise ArgumentError(f"{name} requires p >= {law.p_min}, got {p}")
    t = _scale(fam, s, name)
    v = float(v)
    if not v > 0.0:
        raise ArgumentError(f"{name} requires v > 0, got {v}")
    exc = tuple(math.exp(_log_excess(fam, i, t, v, a)) for i in range(p))
    return TransitionExpansion(
        law.gap(float(s), a),
        tuple(1.0 + e for e in exc),
        p,
        _error_exponent(fam, p, chi),
        exc,
    )


def _logistic(c, lz):
    """c z / (1 + z) for z = e^{lz}, without overflow at either end."""
    if lz > 0.0:
        return c / (1.0 + math.exp(-lz))
    z = math.exp(lz)
    return c * z / (1.0 + z)


def sigma_pm(family, sign, k, alpha, t, a=0.0):
    """sigma+/- coefficients of the log-derivative estimates.

    The '+' branch is c z/(1+z) with z = e^{-L_k} t^{m(alpha-1/2)}, small for
    alpha < 1/2; the '-' branch has z = e^{L_{k-1}} t^{-m(alpha+1/2)} and is 0
    at k = 0. L_i is the law constant, c = 1 (Airy) or -2 (Bessel).
    """
    fam = _coerce_family(family)
    k = _check_index(k, "sigma_pm")
    alpha = _real(alpha, "sigma_pm", "alpha")
    t = float(t)
    if not t > 0.0:
        raise ArgumentError(f"sigma_pm requires t > 0, got {t}")
    if sign not in ("+", "-"):
        raise ArgumentError(f"sign must be '+' or '-', got {sign!r}")
    if fam is Family.SINE:
        raise ArgumentError("sigma_pm is defined for the Airy and Bessel families")
    law = _LAWS[fam]
    a = _order(fam, a)
    if sign == "+":
        lz = -law.log_const(k, a) + law.m * (alpha - 0.5) * math.log(t)
    elif k == 0:
        return 0.0
    else:
        lz = law.log_const(k - 1, a) - law.m * (alpha + 0.5) * math.log(t)
    return _logistic(law.sigma_c, lz)


def logderiv(family, s, v, chi, a=0.0):
    """d/ds log D(J; gamma) along the Stokes curve chi = k + alpha, gamma =
    1 - e^{-v}; Airy and Bessel. sigma on the curve through (t, v) enters with
    sign +1 as c E_k/(1+E_k) for alpha >= 0, else with sign -1 as
    c/(1+E_{k-1}), which is 0 at k = 0. At v = inf (gamma = 1) every E_i is 0."""
    fam = _coerce_family(family)
    if fam is Family.SINE:
        raise ArgumentError("logderiv is defined for the Airy and Bessel families")
    name = f"{fam.value} logderiv"
    s = float(s)
    v = _real(v, name, "v", inf_ok=True)
    a = _order(fam, a)
    t = _scale(fam, s, name)
    k, alpha = chi_decompose(chi)
    c = _LAWS[fam].sigma_c
    if alpha >= 0.0:
        sign, sig = 1.0, _logistic(c, _log_excess(fam, k, t, v, a))
    else:
        sign, sig = -1.0, _logistic(c, -_log_excess(fam, k - 1, t, v, a)) if k else 0.0
    if fam is Family.AIRY:
        # -d(kappa t)/ds
        root = 1.5 * _LAWS[fam].kappa * math.sqrt(-s)
        base = s * s / 4.0 - 1.0 / (8.0 * s) - root * k - 2.0 * k * k / s
        return base - sign * root * sig + (7.0 * k / (12.0 * s)) * (k + sign)
    base = -0.25 + a / (2.0 * t) - a * a / (4.0 * s) + k / t - k * (k + a) / (2.0 * s)
    return base - sign * sig / (2.0 * t)
