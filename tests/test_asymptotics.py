"""Closed-form expansion layer: every constant and formula is re-derived with
mpmath at 30+ digits, and structural identities are property-tested."""

import json
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapspec import asymptotics
from gapspec.asymptotics import (
    TransitionExpansion,
    chi_decompose,
    d_coeff,
    eig_law,
    gap,
    logderiv,
    p_of_chi,
    sigma_pm,
    sine_det_sub,
    stokes_chi,
    stokes_v,
    transition,
)
from gapspec.errors import ArgumentError, DomainError
from gapspec.kernels import Family, IntervalSpec

mp.mp.dps = 35

SQRT2 = math.sqrt(2.0)


class TestChiDecompose:
    @pytest.mark.parametrize(
        "chi,k,alpha",
        [(0.0, 0, 0.0), (0.49, 0, 0.49), (0.5, 1, -0.5), (1.5, 2, -0.5), (2.2, 2, 0.2), (-0.5, 0, -0.5)],
    )
    def test_examples(self, chi, k, alpha):
        got_k, got_alpha = chi_decompose(chi)
        assert got_k == k
        assert got_alpha == pytest.approx(alpha, abs=1e-15)

    @given(st.floats(min_value=-0.5, max_value=50.0))
    @settings(max_examples=150, deadline=None)
    def test_reconstruction_and_range(self, chi):
        k, alpha = chi_decompose(chi)
        assert k >= 0
        assert -0.5 <= alpha < 0.5
        assert k + alpha == pytest.approx(chi, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ArgumentError):
            chi_decompose(-0.6)
        with pytest.raises(ArgumentError):
            chi_decompose(math.nan)


class TestPOfChi:
    def test_examples(self):
        assert p_of_chi(0.0, Family.SINE) == 1
        assert p_of_chi(-1.0, Family.AIRY) == 0
        assert p_of_chi(0.5, Family.AIRY) == 2
        assert p_of_chi(0.0, Family.AIRY) == 1
        assert p_of_chi(-0.6, Family.BESSEL) == 0

    @given(st.floats(min_value=-0.49, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_p_brackets_chi(self, chi):
        # the returned p is the unique integer in (chi + 1/2, chi + 3/2]
        for fam in (Family.AIRY, Family.BESSEL):
            p = p_of_chi(chi, fam)
            assert chi + 0.5 < p <= chi + 1.5


class TestStokesCurve:
    @given(
        st.sampled_from([Family.SINE, Family.AIRY, Family.BESSEL]),
        st.floats(min_value=1.01, max_value=100.0),
        st.floats(min_value=-0.5, max_value=10.0),
        st.floats(min_value=-0.9, max_value=4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, fam, t, chi, a):
        v = stokes_v(fam, t, chi, a)
        assert stokes_chi(fam, t, v, a) == pytest.approx(chi, abs=1e-9)

    def test_bessel_example(self):
        # chi = 1/2, a = 0, t = e: v = 2e - 2*(1/2)*1 = 2e - 1
        assert stokes_v(Family.BESSEL, math.e, 0.5, 0.0) == pytest.approx(2.0 * math.e - 1.0)

    def test_t_domain(self):
        with pytest.raises(ArgumentError):
            stokes_v(Family.SINE, 1.0, 0.0)
        with pytest.raises(ArgumentError):
            stokes_chi(Family.AIRY, 0.5, 1.0)


def mp_sine_eig(i, s):
    i, s = mp.mpf(i), mp.mpf(s)
    return mp.sqrt(mp.pi) / mp.factorial(i) * 2 ** (3 * i + 2) * s ** (i + mp.mpf(1) / 2) * mp.exp(-2 * s)


def mp_airy_eig(i, s):
    t = (-mp.mpf(s)) ** mp.mpf(1.5)
    return (
        mp.sqrt(mp.pi)
        / mp.factorial(i)
        * mp.mpf(2) ** (mp.mpf(7) / 2 * i + mp.mpf(9) / 4)
        * t ** (i + mp.mpf(1) / 2)
        * mp.exp(-2 * mp.sqrt(2) / 3 * t)
    )


def mp_bessel_eig(i, s, a):
    t = mp.sqrt(mp.mpf(s))
    return (
        mp.pi
        / mp.factorial(i)
        * mp.mpf(2) ** (4 * i + 2 * mp.mpf(a) + 3)
        / mp.gamma(1 + mp.mpf(a) + i)
        * t ** (2 * i + 1 + mp.mpf(a))
        * mp.exp(-2 * t)
    )


class TestEigenvalueLaws:
    @pytest.mark.parametrize("i", [0, 1, 4, 12])
    @pytest.mark.parametrize("s", [2.0, 5.0, 30.0, 200.0])
    def test_sine_vs_oracle(self, i, s):
        assert eig_law(Family.SINE, i, s) == pytest.approx(float(mp_sine_eig(i, s)), rel=1e-13)

    @pytest.mark.parametrize("i", [0, 1, 3])
    @pytest.mark.parametrize("s", [-3.0, -6.0, -20.0])
    def test_airy_vs_oracle(self, i, s):
        assert eig_law(Family.AIRY, i, s) == pytest.approx(float(mp_airy_eig(i, s)), rel=1e-13)

    @pytest.mark.parametrize("i", [0, 1, 3])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 2.5])
    @pytest.mark.parametrize("s", [16.0, 100.0])
    def test_bessel_vs_oracle(self, i, s, a):
        assert eig_law(Family.BESSEL, i, s, a) == pytest.approx(
            float(mp_bessel_eig(i, s, a)), rel=1e-13
        )

    def test_domains(self):
        with pytest.raises(ArgumentError):
            eig_law(Family.SINE, 0, 1.0)
        with pytest.raises(ArgumentError):
            eig_law(Family.AIRY, 0, -1.0)
        with pytest.raises(ArgumentError):
            eig_law(Family.BESSEL, 0, 4.0, 0.0)
        with pytest.raises(ArgumentError):
            eig_law(Family.SINE, -1, 5.0)
        with pytest.raises(DomainError):
            eig_law(Family.BESSEL, 0, 25.0, -1.5)

    @pytest.mark.parametrize("i,a", [(0, 0.0), (3, 0.0), (1, -0.5), (2, 3.2)])
    def test_d_coeff_vs_oracle(self, i, a):
        ref = float(
            mp.factorial(i) * mp.gamma(1 + mp.mpf(a) + i) / (mp.pi * mp.mpf(2) ** (4 * i + 2 * mp.mpf(a) + 3))
        )
        assert d_coeff(i, a) == pytest.approx(ref, rel=1e-13)

    def test_d_coeff_known_values(self):
        assert d_coeff(0, 0.0) == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-14)
        assert d_coeff(1, 0.0) / d_coeff(0, 0.0) == pytest.approx(1.0 / 16.0, rel=1e-13)

    def test_bessel_eig_reciprocal_of_d(self):
        # the law is exactly t^{2i+1+a} e^{-2t} / d_i(a) restated
        i, s, a = 2, 49.0, 0.5
        t = math.sqrt(s)
        assert eig_law(Family.BESSEL, i, s, a) == pytest.approx(
            t ** (2 * i + 1 + a) * math.exp(-2 * t) / d_coeff(i, a), rel=1e-12
        )


class TestGapExpansions:
    def test_c0_constant(self):
        # c0 = 2^{1/24} exp(zeta'(-1)); zeta'(-1) = 1/12 - ln(Glaisher)
        zp = mp.mpf(1) / 12 - mp.log(mp.glaisher)
        ref = float(mp.mpf(2) ** (mp.mpf(1) / 24) * mp.exp(zp))
        got = math.exp(gap(Family.AIRY, -2.0) - ((-2.0) ** 3 / 12.0 - 0.125 * math.log(2.0)))
        assert got == pytest.approx(ref, rel=1e-13)
        assert ref == pytest.approx(0.8723714, rel=1e-7)

    def test_airy_gap_formula(self):
        for s in (-2.0, -5.5, -20.0):
            zp = mp.mpf(1) / 12 - mp.log(mp.glaisher)
            ref = float(
                mp.mpf(s) ** 3 / 12 - mp.log(-mp.mpf(s)) / 8 + mp.log(2) / 24 + zp
            )
            assert gap(Family.AIRY, s) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.5])
    def test_bessel_gap_formula(self, a):
        for s in (4.0, 50.0, 400.0):
            ref = float(
                -mp.mpf(s) / 4
                + mp.mpf(a) * mp.sqrt(s)
                - mp.mpf(a) ** 2 / 4 * mp.log(s)
                + mp.log(mp.barnesg(1 + mp.mpf(a)))
                - mp.mpf(a) / 2 * mp.log(2 * mp.pi)
            )
            assert gap(Family.BESSEL, s, a) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_tau_special_values(self):
        # tau_0 = 1 and tau_1 = (2 pi)^{-1/2}
        assert gap(Family.BESSEL, 16.0, 0.0) == pytest.approx(-4.0, rel=1e-14)
        got = gap(Family.BESSEL, 16.0, 1.0) - (-4.0 + 4.0 - 0.25 * math.log(16.0))
        assert math.exp(got) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-13)

    def test_sine_det_crit_formula(self):
        zp = mp.mpf(1) / 12 - mp.log(mp.glaisher)
        for s in (2.0, 8.0, 40.0):
            ref = float(-mp.mpf(s) ** 2 / 2 - mp.log(s) / 4 + mp.log(2) / 12 + 3 * zp)
            assert gap(Family.SINE, s) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("v", [0.3, 2.0, 11.0])
    def test_sine_det_sub_formula(self, v):
        for s in (2.0, 10.0):
            z = mp.mpc(1, mp.mpf(v) / (2 * mp.pi))
            ref = float(
                -2 * mp.mpf(v) / mp.pi * s
                + mp.mpf(v) ** 2 / (2 * mp.pi**2) * mp.log(4 * mp.mpf(s))
                + 4 * mp.re(mp.log(mp.barnesg(z)))
            )
            assert sine_det_sub(s, v) == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_domains(self):
        with pytest.raises(ArgumentError):
            gap(Family.AIRY, -1.0)
        with pytest.raises(ArgumentError):
            gap(Family.BESSEL, 1.0, 0.0)
        with pytest.raises(ArgumentError):
            gap(Family.SINE, 1.0)
        with pytest.raises(ArgumentError):
            sine_det_sub(5.0, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ArgumentError, match="finite"):
                sine_det_sub(5.0, bad)
            with pytest.raises(ArgumentError, match="finite"):
                sine_det_sub(bad, 1.0)
            with pytest.raises(ArgumentError, match="finite"):
                gap(Family.SINE, bad)
            with pytest.raises(ArgumentError, match="finite"):
                gap(Family.AIRY, -bad)
            with pytest.raises(ArgumentError, match="finite"):
                gap(Family.BESSEL, bad, 0.0)


class TestTransitions:
    def test_structure(self):
        te = transition(Family.SINE, 4.0, 2.0, 2, chi=0.0)
        assert te.p == 2 and len(te.factors) == 2 == len(te.excesses)
        assert te.log_value == pytest.approx(
            te.log_prefactor + sum(math.log1p(e) for e in te.excesses)
        )
        assert te.error_exponent == pytest.approx(min(2 - 0.0 - 0.5, 1.0))

    def test_error_exponent_nan_without_chi(self):
        assert math.isnan(transition(Family.AIRY, -4.0, 1.0, 1).error_exponent)

    def test_prefactor_matches_gap(self):
        assert transition(Family.AIRY, -4.0, 3.0, 0).log_prefactor == pytest.approx(
            gap(Family.AIRY, -4.0)
        )
        assert transition(Family.BESSEL, 25.0, 3.0, 0, 0.5).log_prefactor == pytest.approx(
            gap(Family.BESSEL, 25.0, 0.5)
        )
        assert transition(Family.SINE, 4.0, 3.0, 1).log_prefactor == pytest.approx(
            gap(Family.SINE, 4.0)
        )

    def test_zero_factors_reduce_to_gap(self):
        te = transition(Family.AIRY, -4.0, 2.0, 0)
        assert te.log_value == pytest.approx(gap(Family.AIRY, -4.0))

    @given(
        st.floats(min_value=-10.0, max_value=-3.0),
        st.floats(min_value=0.1, max_value=30.0),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_airy_excess_is_reciprocal_eig(self, s, v, p):
        # excess_i * eig_law(AIRY, i, s) = e^{-v} exactly, for every i < p: the
        # explicit factors are reciprocals of the eigenvalue law
        te = transition(Family.AIRY, s, v, p)
        target = math.exp(-v)
        for i, e in enumerate(te.excesses):
            assert e * eig_law(Family.AIRY, i, s) == pytest.approx(target, rel=1e-12)

    @given(
        st.floats(min_value=16.0, max_value=300.0),
        st.floats(min_value=0.1, max_value=30.0),
        st.floats(min_value=-0.9, max_value=3.0),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_bessel_excess_is_reciprocal_eig(self, s, v, a, p):
        te = transition(Family.BESSEL, s, v, p, a)
        target = math.exp(-v)
        for i, e in enumerate(te.excesses):
            assert e * eig_law(Family.BESSEL, i, s, a) == pytest.approx(target, rel=1e-12)

    def test_on_curve_first_factor_identity(self):
        # on the Stokes curve with parameter chi the leading excess equals
        # t^chi / (reciprocal eigenvalue law constant): check via e^{-v}
        t = 9.0
        s = -t ** (2.0 / 3.0)
        chi = 0.0
        v = stokes_v(Family.AIRY, t, chi)
        te = transition(Family.AIRY, s, v, 1, chi=chi)
        assert te.excesses[0] * eig_law(Family.AIRY, 0, s) == pytest.approx(
            math.exp(-v), rel=1e-12
        )

    @pytest.mark.parametrize("fam,s", [(Family.SINE, 5.0), (Family.AIRY, -6.0)])
    def test_order_enters_bessel_only(self, fam, s):
        assert transition(fam, s, 2.0, 3, 1.5) == transition(fam, s, 2.0, 3)
        assert eig_law(fam, 2, s, 1.5) == eig_law(fam, 2, s)
        assert stokes_v(fam, 7.0, 0.3, 1.5) == stokes_v(fam, 7.0, 0.3)

    @pytest.mark.parametrize("v", [0.0, -1.0, math.nan])
    def test_v_must_be_positive(self, v):
        for fam, s in ((Family.SINE, 5.0), (Family.AIRY, -6.0), (Family.BESSEL, 36.0)):
            with pytest.raises(ArgumentError, match="v > 0"):
                transition(fam, s, v, 1)

    def test_argument_validation(self):
        with pytest.raises(ArgumentError):
            transition(Family.SINE, 4.0, 1.0, 0)
        with pytest.raises(ArgumentError):
            transition(Family.AIRY, -1.0, 1.0, 1)
        with pytest.raises(ArgumentError):
            transition(Family.BESSEL, 4.0, 1.0, 1, 0.0)  # sqrt(4) = 2 < 4
        with pytest.raises(ArgumentError):
            TransitionExpansion(0.0, (1.0, 1.0), 3)


class TestErrorBound:
    def test_bessel_log_term(self):
        # the transition error is t^-e, and for Bessel never below ln t / t
        assert asymptotics._error_bound(Family.AIRY, 10, 0.5) == 10**-0.5
        assert asymptotics._error_bound(Family.AIRY, 10, 3.0) == 10**-3.0
        assert asymptotics._error_bound(Family.BESSEL, 10, 0.5) == 10**-0.5
        assert asymptotics._error_bound(Family.BESSEL, 10, 3.0) == math.log(10) / 10
        assert asymptotics._error_bound(Family.SINE, 10, 3.0) == 10**-3.0


class TestSigma:
    def test_airy_plus_in_unit_interval(self):
        for t in (5.0, 20.0):
            for alpha in (-0.4, 0.0, 0.4):
                x = sigma_pm(Family.AIRY, "+", 1, alpha, t)
                assert 0.0 < x < 1.0

    def test_airy_minus_k0_vanishes(self):
        assert sigma_pm(Family.AIRY, "-", 0, 0.2, 10.0) == 0.0

    def test_airy_plus_oracle(self):
        # x = (h_k/2pi) 2^{-5k/2-5/4} t^{alpha-1/2}, sigma = x/(1+x)
        k, alpha, t = 1, 0.25, 12.0
        hk = mp.factorial(k) * mp.sqrt(mp.pi) / mp.mpf(2) ** k
        x = hk / (2 * mp.pi) * mp.mpf(2) ** (-mp.mpf(5) * k / 2 - mp.mpf(5) / 4) * mp.mpf(t) ** (alpha - 0.5)
        ref = float(x / (1 + x))
        assert sigma_pm(Family.AIRY, "+", k, alpha, t) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("t", [5.0, 12.0])
    @pytest.mark.parametrize("alpha", [-0.4, 0.2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_airy_minus_oracle(self, k, alpha, t):
        # y = (2pi/h_{k-1}) 2^{5k/2-5/4} t^{-alpha-1/2}, sigma = y/(1+y)
        hk = mp.factorial(k - 1) * mp.sqrt(mp.pi) / mp.mpf(2) ** (k - 1)
        y = 2 * mp.pi / hk * mp.mpf(2) ** (mp.mpf(5) * k / 2 - mp.mpf(5) / 4) * mp.mpf(t) ** (-alpha - 0.5)
        ref = float(y / (1 + y))
        assert sigma_pm(Family.AIRY, "-", k, alpha, t) == pytest.approx(ref, rel=1e-13)

    def test_bessel_plus_oracle(self):
        k, alpha, t, a = 2, -0.3, 9.0, 0.5
        d = d_coeff(k, a)
        x = d * t ** (-1.0 + 2.0 * alpha)
        assert sigma_pm(Family.BESSEL, "+", k, alpha, t, a) == pytest.approx(
            -2.0 * x / (1.0 + x), rel=1e-13
        )

    def test_bessel_minus_oracle(self):
        k, alpha, t, a = 1, 0.2, 9.0, 0.0
        y = t ** (-1.0 - 2.0 * alpha)
        assert sigma_pm(Family.BESSEL, "-", k, alpha, t, a) == pytest.approx(
            -2.0 * y / (d_coeff(0, a) + y), rel=1e-13
        )

    @pytest.mark.parametrize("fam,a", [(Family.AIRY, 0.0), (Family.BESSEL, 0.0), (Family.BESSEL, 1.5)])
    @pytest.mark.parametrize("chi", [0.2, 1.3, 1.7, 2.4])
    def test_on_curve_is_the_transition_excess(self, fam, a, chi):
        # on the curve, sigma+ = c E_k/(1+E_k) and sigma- = c/(1+E_{k-1})
        t = 9.0
        s = -(t ** (2.0 / 3.0)) if fam is Family.AIRY else t * t
        k, alpha = chi_decompose(chi)
        v = stokes_v(fam, t, chi, a)
        c = 1.0 if fam is Family.AIRY else -2.0
        exc = transition(fam, s, v, k + 1, a).excesses
        if alpha >= 0.0:
            expect = c * exc[k] / (1.0 + exc[k])
        else:
            expect = c / (1.0 + exc[k - 1])
        assert sigma_pm(fam, "+" if alpha >= 0.0 else "-", k, alpha, t, a) == pytest.approx(
            expect, rel=1e-12
        )

    def test_sign_validation(self):
        with pytest.raises(ArgumentError):
            sigma_pm(Family.AIRY, "x", 0, 0.0, 5.0)
        with pytest.raises(ArgumentError):
            sigma_pm(Family.SINE, "+", 0, 0.0, 5.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_non_finite_alpha_refused(self, sign, alpha):
        # no sigma exists there: refused, not returned as nan or as a limit
        with pytest.raises(ArgumentError, match="sigma_pm requires a finite alpha"):
            sigma_pm(Family.AIRY, sign, 1, alpha, 10.0)


class TestIndexArguments:
    """An index is a Python or numpy integer: a float or a bool is refused,
    never truncated to the integer below it."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: eig_law(Family.SINE, x, 3.0),
            lambda x: d_coeff(x, 0.0),
            lambda x: sigma_pm(Family.AIRY, "+", x, 0.2, 10.0),
            lambda x: transition(Family.AIRY, -6.0, 2.0, x),
        ],
        ids=["eig_law-i", "d_coeff-i", "sigma_pm-k", "transition-p"],
    )
    def test_float_and_bool_refused(self, call):
        for x in (2.5, 1.9, 2.0, True, np.float64(2.0), np.True_, "2"):
            with pytest.raises(ArgumentError, match="takes an integer index, got"):
                call(x)
        for x in (np.int64(2), np.uint8(2), np.int32(2)):
            assert call(x) == call(2)

    def test_negative_messages_kept(self):
        with pytest.raises(ArgumentError, match="index must be >= 0, got -1"):
            eig_law(Family.SINE, -1, 3.0)
        with pytest.raises(ArgumentError, match="airy_transition requires p >= 0, got -1"):
            transition(Family.AIRY, -6.0, 2.0, -1)
        with pytest.raises(ArgumentError, match="sine_transition requires p >= 1, got 0"):
            transition(Family.SINE, 4.0, 2.0, 0)


class TestLogDeriv:
    def test_airy_gamma_one_matches_gap_derivative(self):
        # at v = inf (gamma = 1, chi = 0) the expansion reduces to the
        # derivative of the gap expansion s^3/12 - ln|s|/8
        for s in (-4.0, -8.0):
            got = logderiv(Family.AIRY, s, math.inf, 0.0)
            assert got == pytest.approx(s * s / 4.0 - 1.0 / (8.0 * s), rel=1e-14)

    def test_bessel_gamma_one_matches_gap_derivative(self):
        for s, a in ((36.0, 0.0), (100.0, 1.5)):
            got = logderiv(Family.BESSEL, s, math.inf, 0.0, a)
            ref = -0.25 + a / (2.0 * math.sqrt(s)) - a * a / (4.0 * s)
            assert got == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("chi", [-0.5, -0.3])
    def test_gamma_one_below_alpha_zero(self, chi):
        # k = 0 with alpha < 0 has no sigma- term at any v, v = inf included
        airy, bessel = Family.AIRY, Family.BESSEL
        assert logderiv(airy, -6.0, math.inf, chi) == logderiv(airy, -6.0, math.inf, 0.0)
        assert logderiv(airy, -6.0, math.inf, chi) == logderiv(airy, -6.0, 1e300, chi)
        assert logderiv(bessel, 100.0, math.inf, chi, 0.5) == logderiv(
            bessel, 100.0, math.inf, 0.0, 0.5
        )

    def test_large_v_approaches_gamma_one(self):
        assert logderiv(Family.AIRY, -5.0, 900.0, 0.0) == pytest.approx(
            logderiv(Family.AIRY, -5.0, math.inf, 0.0), rel=1e-12
        )

    def test_domains(self):
        with pytest.raises(ArgumentError):
            logderiv(Family.AIRY, -1.0, 1.0, 0.0)
        with pytest.raises(ArgumentError):
            logderiv(Family.BESSEL, 4.0, 1.0, 0.0, 0.0)

    def test_sine_refused(self):
        # the sine kernel has no log-derivative expansion (sigma_c is nan)
        with pytest.raises(ArgumentError, match="logderiv is defined for the Airy and Bessel"):
            logderiv(Family.SINE, 5.0, 1.0, 0.0)


def _h(k):
    # Hermite norm h_k = k! sqrt(pi) / 2^k
    return mp.factorial(k) * mp.sqrt(mp.pi) / mp.mpf(2) ** k


def _d(k, a):
    return mp.factorial(k) * mp.gamma(1 + mp.mpf(a) + k) / (mp.pi * mp.mpf(2) ** (4 * k + 2 * mp.mpf(a) + 3))


def mp_airy_logderiv(s, v, k, alpha):
    s, v = mp.mpf(s), mp.mpf(v)
    t = (-s) ** mp.mpf(1.5)
    zeta = 2 * mp.sqrt(2) / 3 * t
    root = mp.sqrt(2) * mp.sqrt(-s)
    base = s**2 / 4 - 1 / (8 * s) - root * k - 2 * mp.mpf(k) ** 2 / s
    if alpha >= 0:
        x = _h(k) / (2 * mp.pi) * mp.mpf(2) ** (-mp.mpf(5) * k / 2 - mp.mpf(5) / 4) * t ** (-k - mp.mpf(1) / 2) * mp.exp(zeta - v)
        return base - root * x / (1 + x) + 7 * mp.mpf(k) / (12 * s) * (k + 1)
    sig = 0
    if k > 0:
        y = 2 * mp.pi / _h(k - 1) * mp.mpf(2) ** (mp.mpf(5) * k / 2 - mp.mpf(5) / 4) * t ** (k - mp.mpf(1) / 2) * mp.exp(v - zeta)
        sig = y / (1 + y)
    return base + root * sig + 7 * mp.mpf(k) / (12 * s) * (k - 1)


def mp_bessel_logderiv(s, v, k, alpha, a):
    s, v, a = mp.mpf(s), mp.mpf(v), mp.mpf(a)
    t = mp.sqrt(s)
    base = -mp.mpf(1) / 4 + a / (2 * t) - a**2 / (4 * s) + k / t - k * (k + a) / (2 * s)
    if alpha >= 0:
        x = _d(k, a) * t ** (-2 * k - a - 1) * mp.exp(2 * t - v)
        return base + x / (1 + x) / t
    sig = 0
    if k > 0:
        y = t ** (2 * k + a - 1) * mp.exp(v - 2 * t)
        sig = -2 * y / (_d(k - 1, a) + y)
    return base + sig / (2 * t)


# each of the five curve functions with x in one of its real arguments
_CURVE_CALLS = {
    "p_of_chi-chi": lambda x: p_of_chi(x, Family.AIRY),
    "stokes_v-t": lambda x: stokes_v(Family.BESSEL, x, 0.5, 1.0),
    "stokes_v-chi": lambda x: stokes_v(Family.AIRY, 9.0, x),
    "stokes_chi-t": lambda x: stokes_chi(Family.SINE, x, 20.0),
    "stokes_chi-v": lambda x: stokes_chi(Family.AIRY, 9.0, x),
    "airy_logderiv-v": lambda x: logderiv(Family.AIRY, -6.0, x, 0.0),
    "airy_logderiv-chi": lambda x: logderiv(Family.AIRY, -6.0, 20.0, x),
    "bessel_logderiv-v": lambda x: logderiv(Family.BESSEL, 100.0, x, 0.0, 0.5),
    "bessel_logderiv-chi": lambda x: logderiv(Family.BESSEL, 100.0, 20.0, x, 0.5),
}


class TestNonFiniteCurveArguments:
    @pytest.mark.parametrize("x", [math.nan, -math.inf])
    @pytest.mark.parametrize("name", list(_CURVE_CALLS))
    def test_nan_and_minus_inf_rejected(self, name, x):
        with pytest.raises(ArgumentError):
            _CURVE_CALLS[name](x)

    @pytest.mark.parametrize("name", [n for n in _CURVE_CALLS if not n.endswith("-v")])
    def test_plus_inf_rejected_but_for_v(self, name):
        with pytest.raises(ArgumentError):
            _CURVE_CALLS[name](math.inf)

    def test_v_plus_inf_is_the_gamma_one_curve(self):
        assert stokes_chi(Family.AIRY, 9.0, math.inf) == -math.inf
        assert math.isfinite(_CURVE_CALLS["airy_logderiv-v"](math.inf))
        assert math.isfinite(_CURVE_CALLS["bessel_logderiv-v"](math.inf))

    def test_bessel_order_checked(self):
        with pytest.raises(DomainError):
            stokes_v(Family.BESSEL, 9.0, 0.5, math.nan)
        with pytest.raises(DomainError):
            stokes_chi(Family.BESSEL, 9.0, 20.0, -1.0)


class TestLogDerivFiniteV:
    """Both sides of alpha = 0 at finite v, on the Stokes curve and off it."""

    @pytest.mark.parametrize("dv", [0.0, 1.5])
    @pytest.mark.parametrize("alpha", [-0.3, 0.3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("s", [-4.0, -9.0])
    def test_airy_vs_oracle(self, s, k, alpha, dv):
        t = (-s) ** 1.5
        v = stokes_v(Family.AIRY, t, k + alpha) + dv
        ref = float(mp_airy_logderiv(s, v, k, alpha))
        assert logderiv(Family.AIRY, s, v, k + alpha) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("dv", [0.0, 1.5])
    @pytest.mark.parametrize("alpha", [-0.3, 0.3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("s,a", [(36.0, 0.0), (144.0, 1.5)])
    def test_bessel_vs_oracle(self, s, a, k, alpha, dv):
        v = stokes_v(Family.BESSEL, math.sqrt(s), k + alpha, a) + dv
        ref = float(mp_bessel_logderiv(s, v, k, alpha, a))
        assert logderiv(Family.BESSEL, s, v, k + alpha, a) == pytest.approx(ref, rel=1e-12)


# Values held to the bit across rewrites of this module, recorded as
# float.hex in asymptotics_pins.json; the key is the call.
_BIT_PINNED = (
    [("sine_eig", (i, s)) for i in (0, 1, 4) for s in (2.0, 5.5, 30.0)]
    + [("airy_eig", (i, s)) for i in (0, 1, 4) for s in (-3.0, -6.5, -20.0)]
    + [("d_coeff", (i, a)) for i in (0, 1, 4) for a in (-0.5, 0.0, 1.3)]
    + [
        ("stokes_v", (fam, t, chi, a))
        for fam in ("sine", "airy", "bessel")
        for t in (1.5, 9.0)
        for chi in (-0.5, 2.2)
        for a in (0.0, 1.3)
    ]
    + [("airy_gap", (s,)) for s in (-2.0, -6.5, -20.0)]
    + [("bessel_gap", (s, a)) for s in (4.0, 49.5) for a in (-0.5, 0.0, 1.3)]
    + [("sine_det_crit", (s,)) for s in (2.0, 5.5, 30.0)]
    + [
        ("sine_transition", (s, v, 3, chi))
        for s in (2.0, 5.5)
        for v in (0.5, 9.0)
        for chi in (None, 0.3)
    ]
    + [
        ("airy_transition", (s, v, p, chi))
        for s in (-3.0, -7.0)
        for v in (0.5, 9.0)
        for p, chi in ((0, None), (3, 0.3))
    ]
    + [
        ("bessel_transition", (s, v, a, 3, chi))
        for s in (16.0, 49.5)
        for v in (0.5, 9.0)
        for a in (-0.5, 1.3)
        for chi in (None, 0.3)
    ]
)

# the Bessel eigenvalue law is held to 1e-14 relative rather than to the
# bit: it sums its law in another order than the Bessel transition did when
# the pins were recorded
_CLOSE_PINNED = [
    ("bessel_eig", (i, s, a)) for i in (0, 1, 4) for s in (16.0, 49.5, 400.0) for a in (-0.5, 0.0, 1.3)
]


def _hexed(x):
    if isinstance(x, TransitionExpansion):
        return [
            x.log_prefactor.hex(),
            [f.hex() for f in x.factors],
            x.p,
            x.error_exponent.hex(),
            [e.hex() for e in x.excesses],
        ]
    assert type(x) is float
    return x.hex()


# The pins keep the keys of the per-family functions they were recorded
# with; each such name now stands for its call of eig_law, gap or transition.
_PIN_CALLS = {
    "airy_gap": lambda s: gap(Family.AIRY, s),
    "bessel_gap": lambda s, a: gap(Family.BESSEL, s, a),
    "sine_det_crit": lambda s: gap(Family.SINE, s),
    "sine_eig": lambda i, s: eig_law(Family.SINE, i, s),
    "airy_eig": lambda i, s: eig_law(Family.AIRY, i, s),
    "bessel_eig": lambda i, s, a: eig_law(Family.BESSEL, i, s, a),
    "sine_transition": lambda s, v, p, chi: transition(Family.SINE, s, v, p, chi=chi),
    "airy_transition": lambda s, v, p, chi: transition(Family.AIRY, s, v, p, chi=chi),
    "bessel_transition": lambda s, v, a, p, chi: transition(Family.BESSEL, s, v, p, a, chi),
}


def pinned_values(calls):
    """{call: float.hex of its value} for (function name, args) pairs."""
    return {
        f"{name}{args!r}": _hexed((_PIN_CALLS.get(name) or getattr(asymptotics, name))(*args))
        for name, args in calls
    }


_PINS = json.loads(pathlib.Path(__file__).with_name("asymptotics_pins.json").read_text())


class TestPinnedValues:
    def test_bit_identical(self):
        got = pinned_values(_BIT_PINNED)
        assert len(got) == 95
        for key, value in got.items():
            assert value == _PINS[key], key

    def test_bessel_eig_close(self):
        for key, value in pinned_values(_CLOSE_PINNED).items():
            assert float.fromhex(value) == pytest.approx(float.fromhex(_PINS[key]), rel=1e-14), key


# The former per-family functions and family ladders, kept verbatim as the
# reference: gap, logderiv, p_of_chi, transition and the error order now
# read the _LAWS rows, and every value keeps its bits. Only the names of
# the module helpers they call are qualified.
_check_order, _real, _scale = asymptotics._check_order, asymptotics._real, asymptotics._scale
_log_c0, _log_c0_crit, _log_tau = asymptotics._log_c0, asymptotics._log_c0_crit, asymptotics._log_tau
_LAWS, _logistic, _log_excess = asymptotics._LAWS, asymptotics._logistic, asymptotics._log_excess


def airy_gap_former(s):
    """log D(J_Ai; 1) expansion: s^3/12 - (1/8) ln|s| + ln c0."""
    s = float(s)
    if not -math.inf < s <= -2.0:
        raise ArgumentError(f"airy_gap requires a finite s <= -2, got {s}")
    return s**3 / 12.0 - 0.125 * math.log(-s) + _log_c0()


def bessel_gap_former(s, a):
    """log D(J_Bess; 1) expansion: -s/4 + a sqrt(s) - (a^2/4) ln s + ln tau_a."""
    s = float(s)
    a = _check_order(a)
    if not 4.0 <= s < math.inf:
        raise ArgumentError(f"bessel_gap requires a finite s >= 4, got {s}")
    return -0.25 * s + a * math.sqrt(s) - 0.25 * a * a * math.log(s) + _log_tau(a)


def sine_det_crit_former(s):
    """Critical log D(J_sin; 1): -s^2/2 - (1/4) ln s + ln c0'."""
    s = float(s)
    if not 2.0 <= s < math.inf:
        raise ArgumentError(f"sine_det_crit requires a finite s >= 2, got {s}")
    return -0.5 * s * s - 0.25 * math.log(s) + _log_c0_crit()


def _sigma_on_curve_former(fam, k, alpha, t, v, a):
    """sigma on the curve through (t, v): c E_k/(1+E_k) for alpha >= 0, else
    c/(1+E_{k-1}), which is 0 at k = 0. At v = inf (gamma = 1) every E_i is 0."""
    c = _LAWS[fam].sigma_c
    if alpha >= 0.0:
        return _logistic(c, _log_excess(fam, k, t, v, a))
    if k == 0:
        return 0.0
    return _logistic(c, -_log_excess(fam, k - 1, t, v, a))


def airy_logderiv_asymp_former(s, v, chi):
    """d/ds log D(J_Ai; gamma) along the curve, gamma = 1 - e^{-v}."""
    s = float(s)
    v = _real(v, "airy_logderiv_asymp", "v", inf_ok=True)
    t = _scale(Family.AIRY, s, "airy_logderiv_asymp")
    k, alpha = chi_decompose(chi)
    # -d(kappa t)/ds
    root = 1.5 * _LAWS[Family.AIRY].kappa * math.sqrt(-s)
    base = s * s / 4.0 - 1.0 / (8.0 * s) - root * k - 2.0 * k * k / s
    sig = _sigma_on_curve_former(Family.AIRY, k, alpha, t, v, 0.0)
    if alpha >= 0.0:
        return base - root * sig + (7.0 * k / (12.0 * s)) * (k + 1.0)
    return base + root * sig + (7.0 * k / (12.0 * s)) * (k - 1.0)


def bessel_logderiv_asymp_former(s, v, chi, a):
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
    sig = _sigma_on_curve_former(Family.BESSEL, k, alpha, t, v, a)
    if alpha >= 0.0:
        return base - sig / (2.0 * t)
    return base + sig / (2.0 * t)


def p_of_chi_former(chi, family):
    """Number of transition factors prescribed for curve parameter chi."""
    fam = asymptotics._coerce_family(family)
    chi = _real(chi, "p_of_chi", "chi")
    if fam is Family.SINE:
        if chi < 0.5:
            return 1
    elif chi < -0.5:
        return 0
    # unique integer in (chi + 1/2, chi + 3/2]
    return math.floor(chi + 1.5)


def _error_exponent_former(family, p, chi):
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


def _error_bound_former(family, t, exponent):
    """The order of a transition expansion's error at scale t, from the
    exponent e it reports: t^{-e}, and max(t^{-e}, ln t / t) for Bessel."""
    power = t**-exponent
    if family is Family.BESSEL:
        return max(power, math.log(t) / t)
    return power


_GAP_FORMER = {
    Family.SINE: lambda s, a: sine_det_crit_former(s),
    Family.AIRY: lambda s, a: airy_gap_former(s),
    Family.BESSEL: lambda s, a: bessel_gap_former(s, a),
}


def transition_former(family, s, v, p, a=0.0, chi=None):
    """Transition determinant with p explicit factors: the gap expansion
    times 1 + E_i, E_i = e^{-v} / (1 - lambda_i) from the eigenvalue law."""
    fam = asymptotics._coerce_family(family)
    name = f"{fam.value}_transition"
    a = asymptotics._order(fam, a)
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
        _GAP_FORMER[fam](s, a),
        tuple(1.0 + e for e in exc),
        p,
        _error_exponent_former(fam, p, chi),
        exc,
    )


_FAMILIES = (Family.SINE, Family.AIRY, Family.BESSEL)
_ORDERS = (-0.9, -0.5, 0.0, 0.3, 1.0, 1.3, 2.5, 5.0, 30.0)


def _around(x):
    """x and its two neighbouring floats."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# chi from -1/2 to 2.6 in steps of 0.1, and the floats around each half
# integer, where p_of_chi and chi_decompose change step
_CHIS = sorted({round(-0.5 + 0.1 * j, 10) for j in range(32)}
               | {x for h in (-0.5, 0.5, 1.5, 2.5) for x in _around(h)})


class TestFormerImplementations:
    """gap, logderiv, p_of_chi, transition, _error_exponent and _error_bound
    give the bits of the former per-family functions and ladders above."""

    def test_gap(self):
        cases = (
            [(Family.AIRY, -2.0 - 0.5 * j, 0.0) for j in range(120)]
            + [(Family.SINE, 2.0 + 0.37 * j, 0.0) for j in range(120)]
            + [(Family.BESSEL, 4.0 + 1.7 * j * j, a) for j in range(120) for a in _ORDERS]
            + [(Family.AIRY, -2.0, 0.0), (Family.SINE, 2.0, 0.0), (Family.AIRY, -1e5, 0.0)]
            + [(Family.BESSEL, 1e8, a) for a in _ORDERS]
            + [(Family.SINE, 1e4, 0.0)]
        )
        assert len(cases) == 1333
        for fam, s, a in cases:
            assert gap(fam, s, a).hex() == _GAP_FORMER[fam](s, a).hex(), (fam, s, a)

    @pytest.mark.parametrize(
        "fam, s, a, former",
        [(Family.AIRY, s, 0.0, lambda s, v, chi, a: airy_logderiv_asymp_former(s, v, chi))
         for s in (-3.0, -4.0, -6.5, -9.0, -20.0, -40.0)]
        + [(Family.BESSEL, s, a, bessel_logderiv_asymp_former)
           for s in (16.0, 36.0, 144.0, 1e4) for a in (-0.5, 0.0, 1.5)],
    )
    def test_logderiv(self, fam, s, a, former):
        # v off the curve, up to inf (gamma = 1), and on and beside the curve
        t = IntervalSpec(fam, s).t
        for chi in (chi for chi in _CHIS if chi >= -0.5):
            curve = stokes_v(fam, t, chi, a)
            for v in (0.5, 2.0, 9.0, 50.0, 300.0, math.inf, curve - 1.0, curve, curve + 1.0):
                if v > 0.0:
                    got, ref = logderiv(fam, s, v, chi, a), former(s, v, chi, a)
                    assert got.hex() == ref.hex(), (s, v, chi, a)

    def test_transition(self):
        count = 0
        for fam, s_values, a_values in (
            (Family.SINE, (2.0, 5.5, 30.0), (0.0,)),
            (Family.AIRY, (-3.0, -7.0, -20.0), (0.0,)),
            (Family.BESSEL, (16.0, 49.5, 400.0), (-0.5, 1.3)),
        ):
            for s in s_values:
                for a in a_values:
                    for v in (0.5, 9.0, 40.0):
                        for p in range(_LAWS[fam].p_min, 5):
                            for chi in (None, -0.5, 0.3, 1.7, 2.6):
                                got = transition(fam, s, v, p, a, chi)
                                assert repr(got) == repr(transition_former(fam, s, v, p, a, chi))
                                count += 1
        assert count == 855

    def test_p_and_error_order(self):
        chis = _CHIS + [-1.0, -0.6, 3.2, 7.9, 40.0]
        for fam in _FAMILIES:
            for chi in chis:
                assert p_of_chi(chi, fam) == p_of_chi_former(chi, fam), (fam, chi)
                for p in range(6):
                    got = asymptotics._error_exponent(fam, p, chi)
                    assert got.hex() == _error_exponent_former(fam, p, chi).hex(), (fam, p, chi)
            for t in (1.5, 2.0, 5.0, 10, 100.0, 1e4):
                for e in (math.nan, -0.5, 0.0, 0.25, 0.5, 1.0, 2.2, 3.0, 40.0):
                    got = asymptotics._error_bound(fam, t, e)
                    assert got.hex() == _error_bound_former(fam, t, e).hex(), (fam, t, e)

    @pytest.mark.parametrize(
        "fam, s, message",
        [
            (Family.AIRY, -1.0, "airy gap requires a finite s <= -2, got -1.0"),
            (Family.AIRY, -math.inf, "airy gap requires a finite s <= -2, got -inf"),
            (Family.BESSEL, 1.0, "bessel gap requires a finite s >= 4, got 1.0"),
            (Family.BESSEL, math.inf, "bessel gap requires a finite s >= 4, got inf"),
            (Family.SINE, 1.0, "sine gap requires a finite s >= 2, got 1.0"),
            (Family.SINE, math.nan, "sine gap requires a finite s >= 2, got nan"),
        ],
    )
    def test_gap_domain_messages(self, fam, s, message):
        # the former messages, with the function named by its family
        with pytest.raises(ArgumentError) as exc:
            gap(fam, s, 0.0)
        assert str(exc.value) == message
