"""Kernel evaluation against high-precision oracles, including the
near-diagonal Taylor regime where naive formulas cancel catastrophically."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapspec import kernels, specfun
from gapspec.errors import ArgumentError, DomainError
from gapspec.kernels import (
    AIRY,
    SINE,
    Family,
    IntervalSpec,
    KernelSpec,
    airy_convolution,
    bessel_spec,
    kernel_eval,
)
from gapspec.operator import build_discretization

mp.mp.dps = 40


def mp_sine(x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    if x == y:
        return 1 / mp.pi
    return mp.sin(x - y) / (mp.pi * (x - y))


def mp_airy(x, y):
    # the numerator cancels to O(x - y), losing -log10|x - y| digits: work
    # 40 digits past those lost (at most 400), so the reference stays
    # trustworthy arbitrarily close to the diagonal
    lost = 0.0 if x == y else max(0.0, -math.log10(abs(x - y)))
    with mp.workdps(min(400, 40 + math.ceil(lost))):
        x, y = mp.mpf(x), mp.mpf(y)
        if x == y:
            return mp.airyai(x, 1) ** 2 - x * mp.airyai(x) ** 2
        num = mp.airyai(x) * mp.airyai(y, 1) - mp.airyai(x, 1) * mp.airyai(y)
        return num / (x - y)


def mp_bessel(a, x, y):
    a, x, y = mp.mpf(a), mp.mpf(x), mp.mpf(y)

    def phi(t):
        return mp.besselj(a, mp.sqrt(t))

    def psi(t):
        return mp.sqrt(t) * mp.besselj(a, mp.sqrt(t), derivative=1)

    if x == y:
        sx = mp.sqrt(x)
        j = mp.besselj(a, sx)
        return (j**2 - mp.besselj(a + 1, sx) * mp.besselj(a - 1, sx)) / 4
    return (phi(x) * psi(y) - psi(x) * phi(y)) / (2 * (x - y))


class TestSpecs:
    def test_singletons(self):
        assert SINE.family is Family.SINE
        assert AIRY.family is Family.AIRY
        assert bessel_spec(0.5).a == 0.5

    def test_bessel_order_domain(self):
        with pytest.raises(DomainError):
            bessel_spec(-1.0)

    def test_interval_spec_family_coercion(self):
        iv = IntervalSpec("sine", 2.0)
        assert iv.family is Family.SINE

    def test_kernel_spec_frozen(self):
        with pytest.raises(AttributeError):
            SINE.a = 1.0  # type: ignore[misc]

    # the derived t is nan for Airy with s >= 0; it must not enter
    # equality or the hash, or equal intervals never match
    @pytest.mark.parametrize(
        "family, s",
        [
            (Family.SINE, 5.0),
            (Family.AIRY, -4.0),
            (Family.AIRY, 0.0),
            (Family.AIRY, 2.0),
            (Family.BESSEL, 9.0),
        ],
    )
    def test_interval_spec_equal_and_hash(self, family, s):
        a, b = IntervalSpec(family, s), IntervalSpec(family, s)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_interval_spec_unequal(self):
        assert IntervalSpec(Family.SINE, 5.0) != IntervalSpec(Family.SINE, 5.5)
        assert IntervalSpec(Family.AIRY, 2.0) != IntervalSpec(Family.AIRY, 3.0)
        assert IntervalSpec(Family.SINE, 4.0) != IntervalSpec(Family.BESSEL, 4.0)
        assert IntervalSpec(Family.AIRY, 4.0) != IntervalSpec(Family.BESSEL, 4.0)


class TestSineKernel:
    @given(
        st.floats(min_value=-8.0, max_value=8.0),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, x, y):
        got = kernel_eval(SINE, x, y)
        assert abs(got - float(mp_sine(x, y))) < 1e-14

    def test_near_diagonal(self):
        for d in (0.0, 1e-12, 1e-7, 1e-5, 9e-5):
            got = kernel_eval(SINE, 1.0, 1.0 + d)
            assert abs(got - float(mp_sine(1.0, 1.0 + d))) < 1e-15

    def test_diag(self):
        assert abs(kernel_eval(SINE, 3.7, 3.7) - 1.0 / math.pi) < 1e-16


class TestAiryKernel:
    @given(
        st.floats(min_value=-10.0, max_value=6.0),
        st.floats(min_value=-10.0, max_value=6.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, x, y):
        got = kernel_eval(AIRY, x, y)
        ref = float(mp_airy(x, y))
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))

    def test_near_diagonal(self):
        for x in (-6.0, -1.0, 0.0, 2.0):
            for d in (0.0, 1e-11, 1e-6, 5e-5):
                got = kernel_eval(AIRY, x, x + d)
                ref = float(mp_airy(x, x + d))
                assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))

    def test_diag_formula(self):
        for x in (-5.0, -0.5, 1.5):
            assert abs(kernel_eval(AIRY, x, x) - float(mp_airy(x, x))) < 1e-13


class TestBesselKernel:
    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.7])
    def test_matches_oracle_grid(self, a):
        spec = bessel_spec(a)
        pts = [1e-8, 1e-4, 0.03, 0.5, 2.0, 9.0, 40.0, 100.0]
        for x in pts:
            for y in pts:
                got = kernel_eval(spec, x, y)
                ref = float(mp_bessel(a, x, y))
                assert abs(got - ref) < 1e-10 * max(1.0, abs(ref)), (a, x, y)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 3.7])
    def test_near_diagonal(self, a):
        spec = bessel_spec(a)
        for x in (1e-6, 1e-3, 0.7, 13.0, 90.0):
            for rel_d in (0.0, 1e-13, 1e-9, 1e-6, 4e-5):
                y = x * (1.0 + rel_d)
                got = kernel_eval(spec, x, y)
                ref = float(mp_bessel(a, x, y))
                assert abs(got - ref) < 1e-10 * max(1.0, abs(ref)), (a, x, rel_d)

    def test_diag_origin_limits(self):
        assert abs(kernel_eval(bessel_spec(0.0), 0.0, 0.0) - 0.25) < 1e-16
        assert kernel_eval(bessel_spec(1.5), 0.0, 0.0) == 0.0
        with pytest.raises(DomainError, match="diverges at 0 for a < 0"):
            kernel_eval(bessel_spec(-0.5), 0.0, 0.0)

    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.5, 1.0, 3.7])
    def test_diag_against_mpmath(self, a):
        # the diagonal is the band form at h = 0; the worst error measured
        # over this grid is 2.2e-14 relative
        spec = bessel_spec(a)
        for x in (1e-8, 1e-4, 0.5, 9.0, 100.0, 1e4):
            got = kernel_eval(spec, x, x)
            ref = float(mp_bessel(a, x, x))
            assert abs(got - ref) <= 1e-13 * abs(ref), (a, x, got, ref)

    @given(
        st.floats(min_value=-0.9, max_value=4.0),
        st.floats(min_value=1e-6, max_value=100.0),
        st.floats(min_value=1e-6, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, x, y):
        spec = bessel_spec(a)
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)


class TestBesselDomain:
    def test_negative_argument_message(self):
        with pytest.raises(DomainError, match="must be >= 0, got -1.0"):
            kernel_eval(bessel_spec(0.5), -1.0, 2.0)

    def test_origin_accepted(self):
        assert kernel_eval(bessel_spec(0.0), 0.0, 0.0) == 0.25
        assert math.isfinite(kernel_eval(bessel_spec(0.5), 0.0, 2.0))


@functools.lru_cache(maxsize=None)
def _mp_bessel_triple(a, z):
    """J_{a-1}(z), J_a(z), J_{a+1}(z) at 40 digits. An integer order of 1000
    or more at z >= 0.99 a comes by forward recurrence from J_0 and J_1 at
    60 digits, where mp.besselj takes seconds: the recurrence is stable
    below the turning point z = a and loses under 10 digits from 0.99 a on."""
    if a >= 1000 and a == int(a) and z >= 0.99 * a:
        with mp.workdps(60):
            lo, hi = mp.besselj(0, z), mp.besselj(1, z)
            for k in range(1, int(a) + 1):
                if k == a:
                    below = lo
                lo, hi = hi, 2 * k / z * hi - lo
            return below, lo, hi
    return tuple(mp.besselj(a + d, z, maxprec=20000) for d in (-1, 0, 1))


def _mp_bessel_u(a, x, y):
    """Bessel kernel at x, y from J_a and J_{a+1} at u = sqrt(x), w = sqrt(y),
    in the form the code takes; the diagonal by its closed form."""
    u, w = mp.sqrt(mp.mpf(x)), mp.sqrt(mp.mpf(y))
    jm_u, ja_u, j1_u = _mp_bessel_triple(a, u)
    if x == y:
        return (ja_u**2 - j1_u * jm_u) / 4
    _, ja_w, j1_w = _mp_bessel_triple(a, w)
    return (u * j1_u * ja_w - w * j1_w * ja_u) / (2 * (u * u - w * w))


class TestBesselBand:
    """The Taylor band |u - w| <= min(1e-4 (u + w), 1e-3), in u = sqrt(x).
    Without the cap its h^4 error grew with u: 1e-9 relative at u = 100 and
    1e-5 at u = 1000 on pairs at the band's edge, which left large-order
    spectra outside [0, 1]."""

    # gaps u - w as multiples of the half-width 1e-3: the diagonal and band
    # pairs, pairs just outside, and a pair at the uncapped edge 2e-4 u
    RATIOS = (0.0, 0.5, 0.99, 1.01, 2.0)

    @pytest.mark.parametrize("a", [0.0, 0.5, 300.0, 1e4])
    @pytest.mark.parametrize("u", [10.0, 100.0, 1000.0, 1e4])
    def test_against_mpmath(self, a, u):
        spec = bessel_spec(a)
        gaps = [r * 1e-3 for r in self.RATIOS] + [0.99 * 2e-4 * u]
        for g in gaps:
            w = u - g
            x, y = u * u, w * w
            near = kernels._near(spec, np.array([math.sqrt(x)]), np.array([math.sqrt(y)]))[0]
            assert near == (g < 1e-3), (u, g)
            got = kernel_eval(spec, x, y)
            ref = float(_mp_bessel_u(a, x, y))
            # test_specfun's measure |err| / max(1, 100 |K|): an absolute
            # 1e-13 up to |K| = 0.01, and every K here is at most 0.016
            assert abs(got - ref) <= 1e-13 * max(1.0, 100.0 * abs(ref)), (u, g, got, ref)


def _mp_airy_kernel(x, y):
    """Airy kernel at 40 digits: the difference quotient, and on the diagonal
    Ai'(x)^2 - x Ai(x)^2."""
    x, y = mp.mpf(x), mp.mpf(y)
    if x == y:
        return mp.airyai(x, 1) ** 2 - x * mp.airyai(x) ** 2
    return (mp.airyai(x) * mp.airyai(y, 1) - mp.airyai(x, 1) * mp.airyai(y)) / (x - y)


class TestAiryBand:
    """The Taylor band |x - y| <= min(1e-4 max(1, |x| + |y|), 5e-3 / sqrt|x|).
    Without the cap its h^4 error grew with |x| while Ai's wavelength
    shrinks: 3.3e-11 relative at x = -12 and 4.4e-8 at x = -39.9 on pairs
    at the band's edge. At c = 5e-3 the expansion at the edge and the exact
    form just outside it are both within the bound out to x = -40; c = 6e-3
    fails inside, and 4e-3 comes to the bound outside."""

    # gaps y - x as multiples of the band's half-width at x: the diagonal and
    # band pairs, and pairs just outside
    RATIOS = (0.0, 0.5, 0.99, 1.01, 2.0)

    @pytest.mark.parametrize("x", [-40.0, -25.0, -12.0, -5.0, 0.0, 5.0, 20.0])
    def test_against_mpmath(self, x):
        width = min(1e-4 * max(1.0, 2.0 * abs(x)), 5e-3 / max(1.0, math.sqrt(abs(x))))
        # ... and a pair at the uncapped edge, inside the band only where
        # the cap does not bind (|x| below about 8.5)
        gaps = [r * width for r in self.RATIOS] + [0.99e-4 * max(1.0, 2.0 * abs(x))]
        for g in gaps:
            y = x + g
            near = kernels._near(AIRY, np.array([y]), np.array([x]))[0]
            assert near == (g < width), (x, g)
            got = kernel_eval(AIRY, x, y)
            ref = float(_mp_airy_kernel(x, y))
            # test_specfun's measure |err| / max(1, 100 |K|)
            assert abs(got - ref) <= 1e-13 * max(1.0, 100.0 * abs(ref)), (x, g, got, ref)


class TestNear:
    """_near, the one switch-radius rule."""

    @staticmethod
    def _near(spec, lam, mu):
        return bool(kernels._near(spec, np.array([lam]), np.array([mu]))[0])

    def test_sine_radius_scales_with_magnitude(self):
        # 1e-4 max(1, |lam| + |mu|): 1e-4 at 0, about 2e-2 at 100
        assert self._near(SINE, 0.99e-4, 0.0)
        assert not self._near(SINE, 1.01e-4, 0.0)
        assert self._near(SINE, 100.0199, 100.0)
        assert not self._near(SINE, 100.0201, 100.0)

    @pytest.mark.parametrize("spec", [SINE, AIRY], ids=["sine", "airy"])
    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, spec, lam, mu):
        assert self._near(spec, lam, mu) == self._near(spec, mu, lam)


class TestAiryConvolution:
    def test_reproduces_kernel(self):
        # the Airy kernel equals the convolution of Ai against itself on
        # the half-line; the quadrature form must match kernel_eval
        for x, y in [(-2.0, 1.0), (0.0, 0.0), (-4.5, -4.5), (1.0, 2.5)]:
            got = airy_convolution(x, y)
            ref = kernel_eval(AIRY, x, y)
            assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))

    def test_minimum_panel_size(self):
        with pytest.raises(ArgumentError):
            airy_convolution(0.0, 0.0, n=10)


def _kernel_eval_one_pair(spec, lam, mu):
    # the former one-pair implementation, kept verbatim as the reference
    lam = float(lam)
    mu = float(mu)
    kernels._check_domain(spec, lam, "kernel_eval")
    kernels._check_domain(spec, mu, "kernel_eval")
    if mu > lam:  # evaluate on the sorted pair for exact symmetry
        lam, mu = mu, lam
    if spec.family is Family.BESSEL and lam == 0.0:
        # the diagonal's series limit at the origin, written out
        if spec.a < 0.0:
            raise DomainError("Bessel kernel diagonal diverges at 0 for a < 0")
        return 0.25 if spec.a == 0.0 else 0.0
    s = kernels._variable(spec, np.array([lam]))
    t = kernels._variable(spec, np.array([mu]))
    if kernels._near(spec, s, t)[0]:
        k = kernels._taylor(spec, s, t, kernels._edge_values(spec, 0.5 * (s + t)))
    else:
        k = kernels._exact(
            spec, s, kernels._edge_values(spec, s), t, kernels._edge_values(spec, t)
        )
    return float(k[0])


def _airy_convolution_one_pair(lam, mu, upper=None, n=60):
    # the former one-pair implementation, kept verbatim as the reference
    lam = float(lam)
    mu = float(mu)
    if n < 40:
        raise ArgumentError(f"airy_convolution requires n >= 40, got {n}")
    if upper is None:
        upper = max(11.0 - min(lam, mu), 11.0)
    upper = float(upper)
    from gapspec.operator import gauss_legendre

    quad = gauss_legendre(int(n))
    half = 0.5 * upper
    tt = half * (quad.nodes + 1.0)
    lo_arg, hi_arg = (lam, mu) if lam <= mu else (mu, lam)
    ai = specfun.airy_pair(np.concatenate([lo_arg + tt, tt + hi_arg]))[0]
    return half * float(np.sum(quad.weights * ai[: len(tt)] * ai[len(tt) :]))


def _pairs(points, rng):
    """Every ordered pair of points (so both orders of each), near-diagonal
    pairs at relative gaps from 0 to past the Taylor switch, shuffled."""
    lam, mu = np.meshgrid(points, points)
    lam, mu = list(lam.ravel()), list(mu.ravel())
    for x in points:
        for d in (1e-13, 1e-9, 1e-6, 4e-5, 2e-4):
            y = x + d * max(1.0, abs(x))
            lam += [x, y]
            mu += [y, x]
    order = rng.permutation(len(lam))
    return np.array(lam)[order], np.array(mu)[order]


class TestArrayPairs:
    """Array calls of kernel_eval and airy_convolution against the former
    one-pair code, bit for bit."""

    @staticmethod
    def _assert_bitwise(got, ref):
        got = np.asarray(got, dtype=float)
        assert got.shape == np.shape(ref)
        assert got.tobytes() == np.asarray(ref, dtype=float).tobytes()

    @pytest.mark.parametrize(
        "spec, points",
        [
            (SINE, [-7.5, -1.0, 0.0, 1e-7, 0.3, 2.0, 6.25]),
            # the Taylor switch radius grows with |lam| + |mu|: pairs on both
            # sides of it, in all of the Airy zones
            (AIRY, [-9.0, -4.2, -1.0, 0.0, 0.5, 2.0, 5.5]),
            (bessel_spec(0.0), [0.0, 1e-8, 0.03, 0.5, 9.0, 40.0]),
            (bessel_spec(0.5), [0.0, 1e-8, 0.03, 0.5, 9.0, 40.0]),
            (bessel_spec(2.0), [1e-8, 0.03, 2.0, 100.0]),
        ],
    )
    def test_kernel_eval_array_matches_one_pair_code(self, spec, points):
        lam, mu = _pairs(points, np.random.default_rng(11))
        ref = [_kernel_eval_one_pair(spec, x, y) for x, y in zip(lam, mu)]
        self._assert_bitwise(kernel_eval(spec, lam, mu), ref)
        # swapped pairs, a 2-D batch, and one-pair calls
        self._assert_bitwise(kernel_eval(spec, mu, lam), ref)
        got = kernel_eval(spec, lam[:6].reshape(2, 3), mu[:6].reshape(2, 3))
        self._assert_bitwise(got, np.reshape(ref[:6], (2, 3)))
        for x, y, r in zip(lam[:20], mu[:20], ref):
            got = kernel_eval(spec, x, y)
            assert type(got) is float and got.hex() == r.hex()

    def test_kernel_eval_branches_covered(self):
        # the Airy pairs above take both the exact and the Taylor form
        lam, mu = _pairs([-9.0, -4.2, -1.0, 0.0, 0.5, 2.0, 5.5], np.random.default_rng(11))
        near = kernels._near(AIRY, np.maximum(lam, mu), np.minimum(lam, mu))
        assert near.any() and not near.all()

    def test_bessel_origin(self):
        # at lam = mu = 0 the kernel is its diagonal limit, which diverges
        # for a < 0; pairs with one zero take the exact form
        lam = np.array([0.0, 2.0, 0.0, 1e-12, 0.0])
        mu = np.array([0.0, 0.0, 2.0, 0.0, 1e-12])
        for a in (0.0, 0.5):
            spec = bessel_spec(a)
            ref = [_kernel_eval_one_pair(spec, x, y) for x, y in zip(lam, mu)]
            self._assert_bitwise(kernel_eval(spec, lam, mu), ref)
        spec = bessel_spec(-0.5)
        ref = [_kernel_eval_one_pair(spec, x, y) for x, y in zip(lam[1:], mu[1:])]
        self._assert_bitwise(kernel_eval(spec, lam[1:], mu[1:]), ref)
        with pytest.raises(DomainError):
            kernel_eval(spec, lam, mu)
        with pytest.raises(DomainError):
            kernel_eval(bessel_spec(0.5), [1.0, -1.0], [1.0, 1.0])

    def test_empty(self):
        assert kernel_eval(AIRY, [], []).shape == (0,)
        assert airy_convolution([], []).shape == (0,)

    @pytest.mark.parametrize("n", [40, 60, 97])
    def test_airy_convolution_array_matches_one_pair_code(self, n):
        lam, mu = _pairs([-6.0, -3.0, -1.5, 0.0, 2.0], np.random.default_rng(5))
        ref = [_airy_convolution_one_pair(x, y, n=n) for x, y in zip(lam, mu)]
        self._assert_bitwise(airy_convolution(lam, mu, n=n), ref)
        self._assert_bitwise(airy_convolution(mu, lam, n=n), ref)
        upper = 13.0 + np.arange(len(lam)) / 7.0
        ref = [_airy_convolution_one_pair(x, y, u, n=n) for x, y, u in zip(lam, mu, upper)]
        self._assert_bitwise(airy_convolution(lam, mu, upper, n=n), ref)
        # one pair against several upper limits
        ref = [_airy_convolution_one_pair(lam[0], mu[0], u, n=n) for u in upper]
        self._assert_bitwise(airy_convolution(lam[0], mu[0], upper, n=n), ref)
        for x, y in zip(lam[:5], mu[:5]):
            got = airy_convolution(x, y, n=n)
            assert type(got) is float
            assert got.hex() == _airy_convolution_one_pair(x, y, n=n).hex()


def _taylor_bessel_former(spec, s, t, vm):
    # the former Bessel branch of kernels._taylor, kept verbatim as the
    # reference for its closed-form h^2 coefficient
    m = 0.5 * (s + t)
    h = 0.5 * (s - t)
    # Bessel: derivatives of p, q follow from the Bessel equation:
    # q' = -(u - a^2/u) p, p' = q/u.
    a = spec.a
    ja, ja1 = vm
    p = ja
    q = a * ja - m * ja1
    a2 = a * a
    m2 = m * m
    m3 = m2 * m
    p1 = q / m
    q1 = -(m - a2 / m) * p
    p2 = -(1.0 - a2 / m2) * p - q / m2
    q2 = -(1.0 + a2 / m2) * p - (1.0 - a2 / m2) * q
    p3 = p * (1.0 / m - 3.0 * a2 / m3) + q * (-1.0 / m + (a2 + 2.0) / m3)
    q3 = p * (m - 2.0 * a2 / m + (a2 * a2 + 2.0 * a2) / m3) - q * (
        1.0 / m + 3.0 * a2 / m3
    )
    # s1 = p'q - pq' = (q^2 - a^2 p^2)/m + m p^2; the first part is written
    # through q - ap = -m J_{a+1} so the a^2 p^2 pieces never meet head-on
    s1 = m * p * p - ja1 * (2.0 * a * p - m * ja1)
    bracket = (p3 * q - p * q3) / 3.0 + (p1 * q2 - p2 * q1)
    return (s1 + 0.5 * h * h * bracket) / (2.0 * (s + t))


# (a, s, n): four orders on small and mid grids, and the large-order and
# wide grids the band cap was measured on
_BESSEL_GRIDS = [
    (a, s, n) for a in (-0.5, 0.0, 0.5, 1.0) for s in (16.0, 100.0, 256.0) for n in (160, 300)
] + [(300.0, 2.5e5, 300), (1000.0, 1.2e6, 300), (0.0, 1e4, 300), (0.0, 1e4, 700), (0.5, 1e6, 300)]


class TestBesselTaylorClosedForm:
    """The Bessel h^2 coefficient in closed form gives every Nystrom matrix
    the bits of the former hand-expanded p1 ... q3 form."""

    @pytest.mark.parametrize("a, s, n", _BESSEL_GRIDS)
    def test_matrix_matches_former_coefficient(self, a, s, n, monkeypatch):
        spec, interval = bessel_spec(a), IntervalSpec(Family.BESSEL, s)
        d = build_discretization(spec, interval, n)
        monkeypatch.setattr(kernels, "_taylor", _taylor_bessel_former)
        ref = build_discretization(spec, interval, n)
        assert np.array_equal(d.matrix, ref.matrix)

    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.5, 1.0, 3.7, 300.0, 1000.0])
    def test_band_pairs_match_former_coefficient(self, a):
        # most grids above hold only the diagonal, where h = 0; pairs up to
        # the band's edge carry the h^2 term. The two forms round apart only
        # where K is below 1e-30 (a = 3.7, u near 1e-3), by 2e-15 relative.
        spec = bessel_spec(a)
        u = np.geomspace(1e-3, 1e4, 400)
        for frac in (0.3, 0.7, 0.999):
            w = u - frac * np.minimum(2e-4 * u, 1e-3)
            vm = kernels._edge_values(spec, 0.5 * (u + w))
            got = kernels._taylor(spec, u, w, vm)
            ref = _taylor_bessel_former(spec, u, w, vm)
            assert np.all(np.abs(got - ref) <= 4e-15 * np.abs(ref)), (a, frac)
