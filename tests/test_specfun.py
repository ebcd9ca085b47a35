"""Special-function layer against independent high-precision oracles."""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapspec import backend_name, specfun
from gapspec.errors import DomainError

mp.mp.dps = 35


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestAiry:
    @pytest.mark.parametrize("x", np.linspace(-39.5, 199.5, 240))
    def test_against_mpmath_grid(self, x):
        assert rel(specfun.airy_ai(x), float(mp.airyai(mp.mpf(x)))) < 5e-12
        assert rel(specfun.airy_ai_prime(x), float(mp.airyai(mp.mpf(x), 1))) < 5e-12

    def test_origin_values(self):
        # Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
        assert rel(specfun.airy_ai(0.0), 3 ** (-2 / 3) / math.gamma(2 / 3)) < 1e-15
        assert rel(specfun.airy_ai_prime(0.0), -(3 ** (-1 / 3)) / math.gamma(1 / 3)) < 1e-15

    def test_underflow_region_is_zero_or_tiny(self):
        assert specfun.airy_ai(180.0) >= 0.0
        assert specfun.airy_ai(180.0) < 1e-280

    @given(st.floats(min_value=-38.0, max_value=150.0))
    @settings(max_examples=80, deadline=None)
    def test_wronskian(self, x):
        # Ai(x) Bi'(x) - Ai'(x) Bi(x) = 1/pi; use the ODE instead:
        # second derivative from a 5-point stencil must satisfy Ai'' = x Ai
        h = 1e-3
        vals = [specfun.airy_ai(x + k * h) for k in (-2, -1, 0, 1, 2)]
        d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (
            12 * h * h
        )
        scale = max(abs(vals[2]) * max(abs(x), 1.0), 1e-30)
        assert abs(d2 - x * vals[2]) / scale < 1e-5


class TestBessel:
    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.3, 5.0])
    def test_against_mpmath(self, a):
        for x in np.linspace(0.05, 120.0, 80):
            got = specfun.bessel_j(a, x)
            ref = float(mp.besselj(a, mp.mpf(x)))
            assert abs(got - ref) < 2e-11 * max(1.0, abs(ref) * 1e2)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 3.7])
    def test_derivative_against_mpmath(self, a):
        for x in np.linspace(0.1, 60.0, 40):
            got = specfun.bessel_j_prime(a, x)
            ref = float(mp.besselj(a, mp.mpf(x), derivative=1))
            assert abs(got - ref) < 5e-11

    def test_derivative_at_origin(self):
        assert specfun.bessel_j_prime(1.0, 0.0) == 0.5
        assert specfun.bessel_j_prime(0.0, 0.0) == 0.0
        assert specfun.bessel_j_prime(2.0, 0.0) == 0.0

    @given(
        st.floats(min_value=0.05, max_value=6.0),
        st.floats(min_value=0.01, max_value=80.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_recurrence(self, a, x):
        # J_{a-1}(x) + J_{a+1}(x) = (2a/x) J_a(x)
        ja = specfun.bessel_j(a, x)
        ja1 = specfun.bessel_j(a + 1.0, x)
        jam1 = specfun.bessel_j(a - 1.0, x)
        assert abs(jam1 + ja1 - 2.0 * a / x * ja) < 1e-10


class TestGammaZeta:
    def test_log_gamma_real(self):
        for z in (0.3, 1.0, 2.5, 10.0, 120.5):
            assert rel(specfun.log_gamma(z), float(mp.loggamma(z))) < 1e-13

    def test_log_gamma_complex(self):
        for z in (1 + 1j, 0.5 + 3.0j, 4.2 - 7.1j, 1.0 + 0.159j):
            got = specfun.log_gamma_complex(complex(z))
            ref = complex(mp.loggamma(z))
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))

    def test_zeta_values(self):
        assert rel(specfun.zeta_real(2.0), math.pi**2 / 6.0) < 1e-14
        assert rel(specfun.zeta_real(3.0), float(mp.zeta(3))) < 1e-14

    @staticmethod
    def _zeta_per_call_reference(s):
        # the loop zeta_real ran before its weights were cached: the exact
        # Borwein table and every weight rebuilt on each call
        from fractions import Fraction

        n = 40
        bw = [Fraction(0)] * (n + 1)
        acc = Fraction(0)
        for i in range(n + 1):
            acc += Fraction(
                math.factorial(n + i - 1) * 4**i,
                math.factorial(n - i) * math.factorial(2 * i),
            )
            bw[i] = n * acc
        dn = bw[n]
        total = 0.0
        for k in range(n):
            c = float((bw[k] - dn) / dn)
            total += (-1.0) ** k * c / float(k + 1) ** s
        return -total / (1.0 - 2.0 ** (1.0 - s))

    def test_zeta_matches_per_call_weights_bitwise(self):
        rng = np.random.default_rng(20261018)
        args = [float(k) for k in range(2, 80)] + list(rng.uniform(2.0, 120.0, 60))
        for s in args:
            assert specfun.zeta_real(s) == self._zeta_per_call_reference(s), s
        for k, z in specfun._zeta_int().items():
            assert z == self._zeta_per_call_reference(float(k)), k

    def test_tables_are_the_exact_rationals_rounded(self):
        from fractions import Fraction

        bern = [Fraction(1)]
        for m in range(1, 33):
            bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
        assert specfun._BERNOULLI_PQ == tuple((b.numerator, b.denominator) for b in bern)
        assert specfun._BERNOULLI == tuple(float(b) for b in bern)
        n = 40
        d, acc = [], Fraction(0)
        for i in range(n + 1):
            acc += Fraction(
                math.factorial(n + i - 1) * 4**i, math.factorial(n - i) * math.factorial(2 * i)
            )
            d.append(n * acc)
        assert specfun._borwein_c() == tuple(float((d[k] - d[n]) / d[n]) for k in range(n))

    def test_zeta_prime_minus_one(self):
        # zeta'(-1) = 1/12 - ln A with A the Glaisher-Kinkelin constant
        ref = float(mp.mpf(1) / 12 - mp.log(mp.glaisher))
        assert abs(specfun.zeta_prime_minus_one() - ref) < 1e-14


class TestBarnesG:
    @pytest.mark.parametrize(
        "z",
        [1.0, 2.0, 3.5, 0.25, 1.0 + 0.5j, 1.0 + 5.0j, 0.5 + 3.0j, 1.0 + 40.0j, 7.3 - 2.0j],
    )
    def test_against_mpmath(self, z):
        got = specfun.log_barnes_g(complex(z))
        ref = complex(mp.log(mp.barnesg(z))) if abs(z) < 5 else None
        if ref is not None and abs(mp.barnesg(z)) > 1e-300:
            # log branches may differ by 2 pi i; compare exponentials
            assert abs(complex(mp.exp(got)) - complex(mp.barnesg(z))) < 1e-12 * abs(
                complex(mp.barnesg(z))
            )
        # recurrence G(z+1) = Gamma(z) G(z) holds in log space up to 2 pi i
        lhs = specfun.log_barnes_g(complex(z) + 1.0)
        rhs = specfun.log_gamma_complex(complex(z)) + got
        diff = (lhs - rhs).imag % (2.0 * math.pi)
        assert abs(lhs.real - rhs.real) < 1e-10 * max(1.0, abs(lhs.real))
        assert min(diff, 2.0 * math.pi - diff) < 1e-8

    def test_special_values(self):
        assert abs(specfun.log_barnes_g(1.0)) < 1e-14
        assert abs(specfun.log_barnes_g(2.0)) < 1e-14
        assert abs(specfun.log_barnes_g(3.0)) < 1e-14  # G(3) = 1! = 1


class TestBranchRanges:
    def test_overlap_agreement(self):
        # evaluate in overlap windows; both branches feed the same public
        # function, so smoothness across seams is the observable
        for x in (-12.0, -3.5, 2.2, 14.0):
            vals = [specfun.airy_ai(x + d) for d in (-1e-7, 0.0, 1e-7)]
            assert abs(vals[0] - 2 * vals[1] + vals[2]) < 1e-9 * max(abs(vals[1]), 1e-10)


def _around(points):
    """Each point with its two floating-point neighbours and points 1e-9 away."""
    out = []
    for p in points:
        out += [p - 1e-9, np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf), p + 1e-9]
    return np.array(out)


# every Airy seam (Chebyshev and asymptotic zones, the e^{-zeta} split at
# zeta = 700, the underflow to 0 near x = 107.4) and the ends of the domain,
# shuffled so that each call mixes all branches
_AIRY_GRID = np.random.default_rng(5).permutation(
    np.concatenate(
        [
            np.linspace(-40.0, 200.0, 241),
            _around([-13.0, -3.0, 0.0, 2.0, 15.5, 1050.0 ** (2.0 / 3.0)]),
            np.linspace(107.0, 108.0, 21),
        ]
    )
)


def _bessel_grid(a):
    """Series, Miller and Hankel zones with their seams at 9 and 30 + a^2."""
    return np.random.default_rng(6).permutation(
        np.concatenate([np.linspace(0.0, 120.0, 241), _around([9.0, 30.0 + a * a]), [1e-300]])
    )


class TestArrayCore:
    def test_implementation_name_is_python(self):
        assert backend_name() == "python"

    @pytest.mark.parametrize("x", np.linspace(-30.0, 100.0, 50))
    def test_airy_scalar_is_one_element_of_the_array(self, x):
        grid = np.append(_AIRY_GRID, x)
        ai, aip = specfun.airy_pair(grid)
        assert specfun.airy_ai(x) == ai[-1]
        assert specfun.airy_ai_prime(x) == aip[-1]

    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 1.3, 3.7])
    def test_bessel_array_matches_elementwise(self, a):
        grid = _bessel_grid(a)
        ja, ja1 = specfun.bessel_j_pair(a, grid)
        for x, p, q in zip(grid, ja, ja1):
            ep, eq = specfun.bessel_j_pair(a, np.array([x]))
            assert (ep[0], eq[0]) == (p, q), x
            assert specfun.bessel_j(a, x) == p
        half = specfun.bessel_j_pair(a, grid[::2])
        assert np.array_equal(half[0], ja[::2]) and np.array_equal(half[1], ja1[::2])

    def test_airy_array_matches_elementwise(self):
        ai, aip = specfun.airy_pair(_AIRY_GRID)
        for x, p, q in zip(_AIRY_GRID, ai, aip):
            ep, eq = specfun.airy_pair(np.array([x]))
            assert (ep[0], eq[0]) == (p, q), x
            zp, zq = specfun.airy_pair(x)  # zero-dimensional
            assert zp.shape == () and (zp, zq) == (p, q), x
        block = specfun.airy_pair(_AIRY_GRID[:200].reshape(10, 20))
        assert np.array_equal(block[0].ravel(), ai[:200])
        assert np.array_equal(block[1].ravel(), aip[:200])

    def test_airy_grid_against_mpmath(self):
        x = np.linspace(-39.5, 199.5, 240)
        ai, aip = specfun.airy_pair(x)
        for xi, p, q in zip(x, ai, aip):
            assert rel(p, float(mp.airyai(mp.mpf(xi)))) < 5e-12, xi
            assert rel(q, float(mp.airyai(mp.mpf(xi), 1))) < 5e-12, xi

    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.3, 5.0])
    def test_bessel_grid_against_mpmath(self, a):
        x = np.linspace(0.05, 120.0, 80)
        ja, ja1 = specfun.bessel_j_pair(a, x)
        for xi, p, q in zip(x, ja, ja1):
            for got, order in ((p, a), (q, a + 1.0)):
                ref = float(mp.besselj(order, mp.mpf(xi)))
                assert abs(got - ref) < 2e-11 * max(1.0, abs(ref) * 1e2), (order, xi)

    def test_one_bad_element_raises(self):
        x = np.linspace(-5.0, 5.0, 11)
        for bad in (-40.5, 200.5, math.nan):
            y = x.copy()
            y[4] = bad
            with pytest.raises(DomainError):
                specfun.airy_pair(y)
        for bad in (-1e-3, 1.0001e4, math.nan):
            y = np.abs(x)
            y[7] = bad
            with pytest.raises(DomainError):
                specfun.bessel_j_pair(0.5, y)
        with pytest.raises(DomainError):
            specfun.bessel_j_pair(-1.0, np.abs(x))


class TestDomainErrors:
    def test_bessel_negative_x(self):
        with pytest.raises(DomainError):
            specfun.bessel_j(0.0, -1.0)

    def test_airy_out_of_range(self):
        with pytest.raises(DomainError):
            specfun.airy_ai(-1e6)


# one point deep in every Airy zone, both sides of each of the four seams,
# and the far ends of the domain
_AIRY_BATCH = np.random.default_rng(13).permutation(
    np.concatenate(
        [
            [-40.0, -25.0, -8.0, -2.3381074104597670, -1.0187929716474710, 0.0],
            [1.0, 7.0, 30.0, 200.0],
            _around([-13.0, -3.0, 2.0, 15.5]),
            np.linspace(-39.0, 120.0, 400),
        ]
    )
)

_ORDERS = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.3, 5.0)


def _bessel_batch(a):
    """Series, Miller and Hankel points, x = 0 and both sides of 9 and 30 + a^2."""
    return np.random.default_rng(14).permutation(
        np.concatenate(
            [
                [0.0, 1e-300, 0.5, 4.0, 20.0, 100.0, 1e4],
                _around([9.0, 30.0 + a * a]),
                np.linspace(0.0, 150.0, 400),
            ]
        )
    )


def _assert_batch_independent(pair, grid):
    """Every value of every batch equals its one-element call, bit for bit."""
    single = [pair(np.array([x])) for x in grid]
    one = np.array([[s[0][0] for s in single], [s[1][0] for s in single]])
    for size in (1, 2, 47, 333):
        for start in range(0, len(grid), size):
            got = pair(grid[start : start + size])
            want = one[:, start : start + size]
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (
                size,
                start,
            )


class TestBatchIndependence:
    def test_airy(self):
        _assert_batch_independent(specfun.airy_pair, _AIRY_BATCH)

    @pytest.mark.parametrize("a", _ORDERS)
    def test_bessel(self, a):
        _assert_batch_independent(lambda x: specfun.bessel_j_pair(a, x), _bessel_batch(a))


# every zone of the array core, as (lo, hi); each gets 200 points inside (an
# asymptotic zone 100, as mpmath is slow there), and the central zone also
# 11 points within 1e-3 of each zero of Ai and of Ai' in it
_AIRY_ZONES = {
    "maclaurin": (-3.0, 2.0),
    "pos_cheb": (2.0, 15.5),
    "neg_cheb": (-13.0, -3.0),
    "pos_asym": (15.5, 100.0),
    "neg_asym": (-40.0, -13.0),
}
_BESSEL_ZONES = {
    "series": lambda a: (0.0, 9.0),
    "miller": lambda a: (9.0, 30.0 + a * a),
    "hankel": lambda a: (30.0 + a * a, 1e4),
}
_POINTS = {"pos_asym": 100, "neg_asym": 100, "hankel": 100}


def _airy_zero(k, derivative):
    """The k-th zero of Ai (derivative 0) or Ai' (1), from mpmath; below -13,
    where mpmath is slow, from the zeros' expansion in
    t = 3 pi (4k - 1 - 2 derivative) / 8 (DLMF 9.9.6, 9.9.18-19), within 1e-9."""
    t = 3.0 * math.pi * (4 * k - 1 - 2 * derivative) / 8.0
    c2, c4 = ((5 / 48, -5 / 36), (-7 / 48, 35 / 288))[derivative]
    z = -(t ** (2 / 3)) * (1.0 + c2 / t**2 + c4 / t**4)
    return z if z < -13.0 else float(mp.airyaizero(k, derivative=derivative))


def _airy_zeros(lo, hi, derivative):
    """Zeros of Ai (derivative 0) or Ai' (1) inside (lo, hi), hi <= 0."""
    zeros, k = [], 1
    while (z := _airy_zero(k, derivative)) > lo:
        if z < hi:
            zeros.append(z)
        k += 1
    return zeros


@functools.cache
def _airy_zone_reference(zone):
    """The zone's points, mpmath's Ai and Ai' there, and the zeros of each."""
    lo, hi = _AIRY_ZONES[zone]
    zeros = [_airy_zeros(lo, min(hi, 0.0), d) for d in (0, 1)]
    x = np.linspace(lo, hi, _POINTS.get(zone, 200) + 2)[1:-1]
    if zone == "maclaurin":
        x = np.concatenate([x] + [z + np.linspace(-1e-3, 1e-3, 11) for z in zeros[0] + zeros[1]])
    refs = [np.array([float(mp.airyai(mp.mpf(xi), d)) for xi in x]) for d in (0, 1)]
    return x, refs, zeros


def _airy_zone_errors(zone):
    """Worst errors of Ai and Ai' on the zone against mpmath: relative, but
    within 1e-3 of a zero of the function, the absolute error over the
    function's largest modulus on the zone."""
    x, refs, zeros = _airy_zone_reference(zone)
    got = specfun.airy_pair(x)
    worst = []
    for d in (0, 1):
        ref = refs[d]
        scale = np.abs(ref)
        for z in zeros[d]:
            scale[np.abs(x - z) <= 1e-3] = np.abs(ref).max()
        worst.append(float(np.max(np.abs(got[d] - ref) / scale)))
    return worst


@functools.cache
def _bessel_zone_reference(zone, a):
    """The zone's points and mpmath's J_a and J_{a+1} there."""
    lo, hi = _BESSEL_ZONES[zone](a)
    x = np.linspace(lo, hi, _POINTS.get(zone, 200) + 2)[1:-1]
    return x, [np.array([float(mp.besselj(a + d, mp.mpf(xi))) for xi in x]) for d in (0, 1)]


def _bessel_zone_errors(zone, a):
    """Worst errors of J_a and J_{a+1} on the zone against mpmath, in the
    measure of the Bessel tests: |error| / max(1, 100 |J|)."""
    x, refs = _bessel_zone_reference(zone, a)
    got = specfun.bessel_j_pair(a, x)
    return [
        float(np.max(np.abs(got[d] - ref) / np.maximum(1.0, 100.0 * np.abs(ref))))
        for d, ref in enumerate(refs)
    ]


class TestZoneAccuracy:
    @pytest.mark.parametrize("zone", sorted(_AIRY_ZONES))
    def test_airy(self, zone):
        assert max(_airy_zone_errors(zone)) < 5e-12

    def test_airy_pos_asym_exponent(self):
        # e^{-zeta} comes from the double-double zeta: rounded in double,
        # zeta gave relative errors up to 1.5e-13 on (15.5, 100] and 2.1e-13
        # on (100, 103]; with it they are 4.9e-16 and 6.2e-16
        x = np.linspace(15.6, 103.0, 120)
        got = specfun.airy_pair(x)
        for d in (0, 1):
            ref = np.array([float(mp.airyai(mp.mpf(v), d)) for v in x])
            assert np.max(np.abs(got[d] - ref) / np.abs(ref)) < 2e-15, d

    @pytest.mark.parametrize("zone", sorted(_BESSEL_ZONES))
    @pytest.mark.parametrize("a", _ORDERS)
    def test_bessel(self, zone, a):
        assert max(_bessel_zone_errors(zone, a)) < 2e-11


class TestAsymptoticPhase:
    """The oscillatory asymptotic zones take their phase exactly, so their
    error, |error| over the amplitude against mpmath, is at the level of the
    series: under 2e-15 (at most 5.7e-16 for Airy and 4.4e-16 for J on these
    points; with the phase rounded in double it was 3.2e-14 and 8.7e-13)."""

    def test_airy(self):
        x, refs, _ = _airy_zone_reference("neg_asym")
        got = specfun.airy_pair(x)
        y4 = (-x) ** 0.25
        for d, amp in ((0, 1.0 / (math.sqrt(math.pi) * y4)), (1, y4 / math.sqrt(math.pi))):
            assert np.max(np.abs(got[d] - refs[d]) / amp) < 2e-15, d

    @pytest.mark.parametrize("a", _ORDERS)
    def test_bessel(self, a):
        x, refs = _bessel_zone_reference("hankel", a)
        got = specfun.bessel_j_pair(a, x)
        amp = np.sqrt(2.0 / (math.pi * x))
        for d in (0, 1):
            assert np.max(np.abs(got[d] - refs[d]) / amp) < 2e-15, d


# the seams where the asymptotic zones begin, as (mu = 4 nu^2 per row, z,
# oscillatory): Ai and Ai' above x = 15.5 and below x = -13 at
# zeta = (2/3)|x|^{3/2}, J_a and J_{a+1} from x = 30 + a^2
_HANKEL_SEAMS = [
    (specfun._AIRY_MU, specfun._TWO_THIRDS * y * math.sqrt(y), osc)
    for y, osc in ((specfun._X_POS_ASYM, False), (specfun._Y_NEG_ASYM, True))
] + [(4.0 * np.array([[a], [a + 1.0]]) ** 2, 30.0 + a * a, True) for a in _ORDERS]


class TestHankelSeams:
    @pytest.mark.parametrize("mu, z, osc", _HANKEL_SEAMS)
    def test_sums_stop_below_1e18_before_the_terms_grow(self, mu, z, osc):
        # each row's terms a_k z^{-k}, in exact arithmetic from the double
        # mu and z, fall until one is below 1e-18; as they fall faster at a
        # larger z, the smallest-term rule fires nowhere in the zone, and the
        # engine's sums are the sums to that term
        even, odd = specfun._hankel_sums(mu, np.array([z]), osc)
        for row, m in enumerate(mu[:, 0]):
            terms, k = [Fraction(1)], 0
            while abs(terms[-1]) >= Fraction(1e-18):
                k += 1
                terms.append(terms[-1] * (Fraction(m) - (2 * k - 1) ** 2) / (8 * k * Fraction(z)))
                assert abs(terms[-1]) < abs(terms[-2]), (row, k)
            signs = [-1 if osc and (j // 2) % 2 else 1 for j in range(len(terms))]
            for part, got in ((0, even), (1, odd)):
                want = sum(s * t for s, t in zip(signs[part::2], terms[part::2]))
                assert abs(got[row, 0] - float(want)) <= 4e-16, (row, part)


class TestFixedDegrees:
    def test_series_degree_is_the_least_meeting_its_tail_bound(self):
        # |t_k| <= |t_1| |q|^{k-1} / (k! (k-1)!) for every order > -1, at
        # |q| = (9/2)^2 the largest on the series zone
        q = mp.mpf(81) / 4

        def tail(degree):
            return mp.nsum(lambda k: q ** (k - 1) / (mp.factorial(k) * mp.factorial(k - 1)), [degree + 1, mp.inf])

        assert tail(specfun._SERIES_DEGREE) < 1e-18 <= tail(specfun._SERIES_DEGREE - 1)

    def test_miller_rescales_without_overflow(self):
        # at a = 3e7 the unnormalized recurrence passes 1e400 near x = 9.5, so
        # columns are rescaled many times; J itself underflows to 0
        x = np.array([9.5, 12.0, 20.0])
        with np.errstate(over="raise", invalid="raise"):
            ja, ja1 = specfun.bessel_j_pair(3e7, x)
        assert np.all(ja == 0.0) and np.all(ja1 == 0.0)
        _assert_batch_independent(lambda v: specfun.bessel_j_pair(3e7, v), np.linspace(9.1, 20.0, 50))


# (a, x) past the range of a double's weights c_k or prefactor (x/2)^a / Gamma(a+1):
# the calls that overflowed, two where those weights summed to inf and J read 0.0,
# and two whose largest terms lie so far below f[0] that rescaling every row flushes them
_LARGE_ORDERS = [
    (300.0, 5000.0),
    (1000.0, 1000.0),
    (500.0, 2000.0),
    (1000.0, 5000.0),
    (180.0, 5884.168059186901),
    (300.0, 1609.5075297212707),
    (2000.0, 4382.604984653766),
    (5000.0, 5547.464353446033),
]


class TestLargeOrders:
    @pytest.mark.parametrize("a, x", _LARGE_ORDERS)
    def test_against_mpmath(self, a, x):
        with np.errstate(over="raise", invalid="raise"):
            got = specfun.bessel_j_pair(a, np.array([x]))
        for d in (0, 1):
            ref = float(mp.besselj(a + d, mp.mpf(x), maxprec=20000))
            assert abs(got[d][0] - ref) < 2e-11 * max(1.0, abs(ref) * 1e2), (d, got[d][0], ref)

    def test_batch_independent_across_the_log_switch(self):
        # at a = 300 the columns below x of about 1600 sum their weights as they are
        grid = np.random.default_rng(15).permutation(np.geomspace(9.5, 1e4, 24))
        _assert_batch_independent(lambda v: specfun.bessel_j_pair(300.0, v), grid)
