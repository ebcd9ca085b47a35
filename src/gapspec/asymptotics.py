"""Closed-form eigenvalue laws, gap and transition determinants, Stokes-curve
parameterizations and the sigma coefficients for the log-derivative estimates.

Each family has one eigenvalue law, in its scaling variable t:

    log(1 - lambda_i) ~ L_i(a) + (m(i + 1/2) + a) log t - kappa t

    family  t           kappa      m  L_i(a)
    sine    s           2          1  log(pi)/2 - log i! + (3i + 2) log 2
    Airy    (-s)^(3/2)  2 sqrt2/3  1  log(pi)/2 - log i! + (7i/2 + 9/4) log 2
    Bessel  sqrt(s)     2          2  -log d_i(a),
                                      d_i(a) = i! Gamma(1+a+i) / (pi 2^(4i+2a+3))

The order a enters for Bessel only (a = 0 elsewhere). Everything else is
derived from that table:

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

from .errors import ArgumentError, DomainError
from .kernels import Family, IntervalSpec, _coerce_family, _Record
from .specfun import log_barnes_g, log_gamma, zeta_prime_minus_one

__all__ = [
    "StokesPoint",
    "TransitionExpansion",
    "chi_decompose",
    "p_of_chi",
    "stokes_v",
    "stokes_chi",
    "eig_law",
    "sine_eig",
    "airy_eig",
    "bessel_eig",
    "d_coeff",
    "airy_gap",
    "bessel_gap",
    "sine_det_sub",
    "sine_det_crit",
    "transition",
    "sine_transition",
    "airy_transition",
    "bessel_transition",
    "sigma_pm",
    "airy_logderiv_asymp",
    "bessel_logderiv_asymp",
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
        "gap",  # (s, a) -> log D(J; 1), the transition prefactor
        "sigma_c",  # c of sigma+-; nan where no log-derivative expansion exists
        "t_min",  # smallest t the expansions are evaluated at
        "t_of_s",  # t as a function of s, for messages
    )

    def __init__(self, kappa, m, uses_a, log_const, gap, sigma_c, t_min, t_of_s):
        self._set(kappa=kappa, m=m, uses_a=uses_a, log_const=log_const, gap=gap,
                  sigma_c=sigma_c, t_min=t_min, t_of_s=t_of_s)


_LAWS = {
    Family.SINE: _Law(
        2.0,
        1,
        False,
        lambda i, a: 0.5 * _LOG_PI - _log_factorial(i) + (3 * i + 2) * _LN2,
        lambda s, a: sine_det_crit(s),
        math.nan,
        2.0,
        "s",
    ),
    Family.AIRY: _Law(
        2.0 * _SQRT2 / 3.0,
        1,
        False,
        lambda i, a: 0.5 * _LOG_PI - _log_factorial(i) + (3.5 * i + 2.25) * _LN2,
        lambda s, a: airy_gap(s),
        1.0,
        5.0,
        "(-s)^(3/2)",
    ),
    Family.BESSEL: _Law(
        2.0,
        2,
        True,
        lambda i, a: -_log_d(i, a),
        lambda s, a: bessel_gap(s, a),
        -2.0,
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
    """Number of transition factors prescribed for curve parameter chi."""
    fam = _coerce_family(family)
    chi = _real(chi, "p_of_chi", "chi")
    if fam is Family.SINE:
        if chi < 0.5:
            return 1
    elif chi < -0.5:
        return 0
    # unique integer in (chi + 1/2, chi + 3/2]
    return math.floor(chi + 1.5)


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


class StokesPoint(_Record):
    """A point (t, v) on the Stokes curve with parameter chi = k + alpha."""

    _fields = ("family", "t", "v", "chi", "k", "alpha", "a")

    def __init__(self, family, t, v, chi, k, alpha, a=0.0):
        self._set(family=family, t=t, v=v, chi=chi, k=k, alpha=alpha, a=a)

    @property
    def kappa(self):
        return self.v / self.t

    @classmethod
    def from_chi(cls, family, t, chi, a=0.0):
        fam = _coerce_family(family)
        k, alpha = chi_decompose(chi)
        return cls(fam, float(t), stokes_v(fam, t, chi, a), float(chi), k, alpha, float(a))


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
    i = _check_index(i)
    a = _order(fam, a)
    return math.exp(_log_eig(fam, i, _scale(fam, s, f"{fam.value}_eig"), a))


def sine_eig(i, s):
    """Predicted 1 - lambda_i for the sine operator on [-s, s]."""
    return eig_law(Family.SINE, i, s)


def airy_eig(i, s):
    """Predicted 1 - lambda_i for the Airy operator on (s, inf), s < 0."""
    return eig_law(Family.AIRY, i, s)


def bessel_eig(i, s, a):
    """Predicted 1 - lambda_i for the Bessel operator on [0, s]."""
    return eig_law(Family.BESSEL, i, s, a)


def d_coeff(i, a):
    """d_i(a) = i! Gamma(1+a+i) / (pi 2^{4i+2a+3}), via log-gamma."""
    return math.exp(_log_d(_check_index(i), _check_order(a)))


def _check_index(i):
    i = int(i)
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


def airy_gap(s):
    """log D(J_Ai; 1) expansion: s^3/12 - (1/8) ln|s| + ln c0."""
    s = float(s)
    if not -math.inf < s <= -2.0:
        raise ArgumentError(f"airy_gap requires a finite s <= -2, got {s}")
    return s**3 / 12.0 - 0.125 * math.log(-s) + _log_c0()


def bessel_gap(s, a):
    """log D(J_Bess; 1) expansion: -s/4 + a sqrt(s) - (a^2/4) ln s + ln tau_a."""
    s = float(s)
    a = _check_order(a)
    if not 4.0 <= s < math.inf:
        raise ArgumentError(f"bessel_gap requires a finite s >= 4, got {s}")
    return -0.25 * s + a * math.sqrt(s) - 0.25 * a * a * math.log(s) + _log_tau(a)


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


def sine_det_crit(s):
    """Critical log D(J_sin; 1): -s^2/2 - (1/4) ln s + ln c0'."""
    s = float(s)
    if not 2.0 <= s < math.inf:
        raise ArgumentError(f"sine_det_crit requires a finite s >= 2, got {s}")
    return -0.5 * s * s - 0.25 * math.log(s) + _log_c0_crit()


def _error_exponent(family, p, chi):
    if chi is None:
        return math.nan
    gap = p - chi - 0.5
    if family is Family.SINE:
        return min(gap, 1.0)
    if family is Family.AIRY:
        return min(gap, 0.5)
    # Bessel: the bound is max(t^{-2 gap}, ln t / t) (_error_bound); report
    # the power part
    return 2.0 * gap


def _error_bound(family, t, exponent):
    """The order of a transition expansion's error at scale t, from the
    exponent e it reports: t^{-e}, and max(t^{-e}, ln t / t) for Bessel."""
    power = t**-exponent
    if family is Family.BESSEL:
        return max(power, math.log(t) / t)
    return power


def transition(family, s, v, p, a=0.0, chi=None):
    """Transition determinant with p explicit factors: the gap expansion
    times 1 + E_i, E_i = e^{-v} / (1 - lambda_i) from the eigenvalue law."""
    fam = _coerce_family(family)
    name = f"{fam.value}_transition"
    a = _order(fam, a)
    p = int(p)
    # the sine expansion always carries its leading factor
    p_min = 1 if fam is Family.SINE else 0
    if p < p_min:
        raise ArgumentError(f"{name} requires p >= {p_min}, got {p}")
    t = _scale(fam, s, name)
    v = float(v)
    if not v > 0.0:
        raise ArgumentError(f"{name} requires v > 0, got {v}")
    exc = tuple(math.exp(_log_excess(fam, i, t, v, a)) for i in range(p))
    return TransitionExpansion(
        _LAWS[fam].gap(s, a),
        tuple(1.0 + e for e in exc),
        p,
        _error_exponent(fam, p, chi),
        exc,
    )


def sine_transition(s, v, p, chi=None):
    """Transition determinant for the sine kernel with p explicit factors."""
    return transition(Family.SINE, s, v, p, chi=chi)


def airy_transition(s, v, p, chi=None):
    """Transition determinant for the Airy kernel with p explicit factors."""
    return transition(Family.AIRY, s, v, p, chi=chi)


def bessel_transition(s, v, a, p, chi=None):
    """Transition determinant for the Bessel kernel with p explicit factors."""
    return transition(Family.BESSEL, s, v, p, a, chi)


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
    k = _check_index(k)
    alpha = float(alpha)
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


def _sigma_on_curve(fam, k, alpha, t, v, a):
    """sigma on the curve through (t, v): c E_k/(1+E_k) for alpha >= 0, else
    c/(1+E_{k-1}), which is 0 at k = 0. At v = inf (gamma = 1) every E_i is 0."""
    c = _LAWS[fam].sigma_c
    if alpha >= 0.0:
        return _logistic(c, _log_excess(fam, k, t, v, a))
    if k == 0:
        return 0.0
    return _logistic(c, -_log_excess(fam, k - 1, t, v, a))


def airy_logderiv_asymp(s, v, chi):
    """d/ds log D(J_Ai; gamma) along the curve, gamma = 1 - e^{-v}."""
    s = float(s)
    v = _real(v, "airy_logderiv_asymp", "v", inf_ok=True)
    t = _scale(Family.AIRY, s, "airy_logderiv_asymp")
    k, alpha = chi_decompose(chi)
    # -d(kappa t)/ds
    root = 1.5 * _LAWS[Family.AIRY].kappa * math.sqrt(-s)
    base = s * s / 4.0 - 1.0 / (8.0 * s) - root * k - 2.0 * k * k / s
    sig = _sigma_on_curve(Family.AIRY, k, alpha, t, v, 0.0)
    if alpha >= 0.0:
        return base - root * sig + (7.0 * k / (12.0 * s)) * (k + 1.0)
    return base + root * sig + (7.0 * k / (12.0 * s)) * (k - 1.0)


def bessel_logderiv_asymp(s, v, chi, a):
    """d/ds log D(J_Bess; gamma) along the curve, gamma = 1 - e^{-v}."""
    s = float(s)
    v = _real(v, "bessel_logderiv_asymp", "v", inf_ok=True)
    a = _check_order(a)
    t = _scale(Family.BESSEL, s, "bessel_logderiv_asymp")
    k, alpha = chi_decompose(chi)
    base = (
        -0.25
        + a / (2.0 * t)
        - a * a / (4.0 * s)
        + k / t
        - k * (k + a) / (2.0 * s)
    )
    sig = _sigma_on_curve(Family.BESSEL, k, alpha, t, v, a)
    if alpha >= 0.0:
        return base - sig / (2.0 * t)
    return base + sig / (2.0 * t)
