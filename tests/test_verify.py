"""Cross-verification harness: scans, Lidskii splits, commuting-operator
residuals, and the shared acceptance helpers."""

import collections
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gapspec import asymptotics, kernels, verify
from gapspec import operator as operator_module
from gapspec.errors import ArgumentError, PoleError, PrecisionWarning
from gapspec.kernels import AIRY, SINE, Family, IntervalSpec, KernelSpec
from gapspec.operator import (
    Spectrum,
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
from gapspec.verify import (
    ScanResult,
    _acc_commuting,
    _acc_counting,
    _acc_eig_law,
    _acc_transition,
    _spectrum,
    _trend_ok,
    commuting_residual,
    convolution_check,
    det_ratio_scan,
    eig_ratio_scan,
    lidskii_split,
    logderiv_check,
    stokes_crossing_scan,
)


def _no_build(*args):
    raise AssertionError("a matrix was built for an invalid index")


class TestScanResult:
    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            ScanResult((1.0,), (1.0, 2.0), (1.0,), (0.0,))

    def test_fields(self):
        r = ScanResult((1.0,), (2.0,), (2.5,), (0.2,), {"n": 3})
        assert r.metadata["n"] == 3


class TestEigRatioScan:
    def test_airy_decreasing_error(self):
        r = eig_ratio_scan(Family.AIRY, 0, [6.0, 10.0, 14.0], n=100)
        assert len(r.grid) == 3
        assert all(e >= 0.0 for e in r.rel_error)
        # the law improves with t
        assert r.rel_error[-1] < r.rel_error[0]
        # invariant recorded in the docs: rel_error = |num - pred| / |pred|
        for num, pred, err in zip(r.numeric, r.predicted, r.rel_error):
            assert err == pytest.approx(abs(num - pred) / abs(pred))

    def test_window_enforced(self):
        with pytest.raises(ArgumentError):
            eig_ratio_scan(Family.AIRY, 0, [3.0], n=100)  # below the Airy window

    def test_n_floor(self):
        with pytest.raises(ArgumentError):
            eig_ratio_scan(Family.SINE, 0, [3.0], n=40)

    @pytest.mark.parametrize("i", [-1, 80, 500])
    def test_index_outside_spectrum(self, i, monkeypatch):
        # rejected before any matrix is built, naming the valid range
        monkeypatch.setattr(verify, "build_discretization", _no_build)
        with pytest.raises(ArgumentError, match="0 <= i < n = 80"):
            eig_ratio_scan(Family.SINE, i, [2.5, 3.0], n=80)

    def test_resolvable_points_all_kept(self):
        # inside the desk-scale window 1 - lambda_0 stays well above the
        # 1e-13 skip threshold, so no point may be silently dropped
        r = eig_ratio_scan(Family.SINE, 0, [2.0, 6.0, 10.0], n=100)
        assert len(r.grid) == 3
        assert min(r.numeric) > 1e-13

    def test_skip_threshold_follows_the_floor(self, monkeypatch):
        # at n = 1000 the floor n eps = 2.2e-13 passes 1e-13: a 1 - lambda_0
        # between the two has no resolved digit and is skipped, not compared
        def between(spec, interval, n):
            return Spectrum(np.array([1.0 - 1.5e-13, 0.5]), 1000, {})

        monkeypatch.setattr(verify, "_spectrum", between)
        # lambda_0 is also below the floor, which warns on its own
        with pytest.warns(PrecisionWarning, match="resolvable floor"):
            with pytest.warns(PrecisionWarning, match="point skipped"):
                r = eig_ratio_scan(Family.SINE, 0, [3.0], n=1000)
        assert r.grid == ()


class TestDetRatioScan:
    def test_metadata_and_fit(self):
        r = det_ratio_scan(Family.AIRY, 0.0, [6.0, 9.0, 12.0], n=100)
        assert r.metadata["p"] == 1
        assert r.metadata["error_exponent"] == pytest.approx(0.5)
        assert math.isfinite(r.metadata["fitted_exponent"])
        assert r.metadata["fitted_constant"] > 0.0
        assert r.rel_error[-1] < 0.05

    def test_huge_v_falls_back_to_gamma_one(self):
        r = det_ratio_scan(Family.BESSEL, -0.4, [8.0], a=0.0, n=100)
        # chi near the bottom of the fan gives v ~ 2t + 0.8 ln t, small; use
        # a synthetic severe case instead through the note channel: v > 700
        # requires t > 350, outside the window. Just assert no notes here.
        assert r.metadata["notes"] == []


class TestLidskii:
    def test_split_reassembles_determinant_ratio(self):
        lam = np.array([0.9, 0.6, 0.3, 0.05])
        sp = Spectrum(lam, 4, {})
        v = 1.7
        gamma = -math.expm1(-v)
        factors, residual = lidskii_split(sp, v, 2)
        full = float(np.prod(1.0 - gamma * lam) / np.prod(1.0 - lam))
        assert np.prod(factors) * residual == pytest.approx(full, rel=1e-13)

    def test_v_infinity(self):
        sp = Spectrum(np.array([0.5, 0.2]), 2, {})
        factors, residual = lidskii_split(sp, math.inf, 1)
        assert factors == (1.0,)
        assert residual == 1.0

    def test_p_zero(self):
        sp = Spectrum(np.array([0.5]), 1, {})
        factors, residual = lidskii_split(sp, 1.0, 0)
        assert factors == ()
        assert residual == pytest.approx(1.0 + math.exp(-1.0) * 1.0)

    @pytest.mark.parametrize("v", [-math.inf, math.nan])
    def test_v_without_a_gamma(self, v):
        # gamma = 1 - e^{-v} is -inf at v = -inf and undefined at v = nan
        sp = Spectrum(np.array([0.5, 0.2]), 2, {})
        message = rf"^lidskii_split requires a finite or \+inf v, got {v}$"
        with pytest.raises(ArgumentError, match=message):
            lidskii_split(sp, v, 1)

    def test_negative_p(self):
        sp = Spectrum(np.array([0.5]), 1, {})
        with pytest.raises(ArgumentError):
            lidskii_split(sp, 1.0, -1)

    def test_pole(self):
        # every factor divides by 1 - lambda_i: an eigenvalue at 1 is a pole
        sp = Spectrum(np.array([1.0, 0.5]), 2, {})
        with pytest.raises(PoleError, match="lidskii_split"):
            lidskii_split(sp, 1.0, 1)


class TestIndexArguments:
    """i, p and q are Python or numpy integers: a float or a bool is refused
    before any matrix is built, never truncated."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: eig_ratio_scan(Family.SINE, x, [2.5, 3.0], n=80),
            lambda x: lidskii_split(Spectrum(np.array([0.5, 0.2, 0.1]), 3, {}), 1.0, x),
            lambda x: stokes_crossing_scan(Family.AIRY, x, [6.0], n=80),
            lambda x: commuting_residual(Family.SINE, x, 3.0),
        ],
        ids=["eig_ratio_scan-i", "lidskii_split-p", "stokes_crossing_scan-q", "commuting_residual-i"],
    )
    def test_float_and_bool_refused(self, call, monkeypatch):
        monkeypatch.setattr(verify, "build_discretization", _no_build)
        for x in (1.5, 1.0, True, np.float64(1.0), np.True_):
            with pytest.raises(ArgumentError, match="takes an integer index, got"):
                call(x)

    def test_numpy_integers_accepted(self):
        sp = Spectrum(np.array([0.5, 0.2, 0.1]), 3, {})
        assert lidskii_split(sp, 1.0, np.int64(2)) == lidskii_split(sp, 1.0, 2)
        assert commuting_residual(Family.SINE, np.uint8(1), 2.0, n=40, m=400) == (
            commuting_residual(Family.SINE, 1, 2.0, n=40, m=400)
        )


class TestStokesCrossing:
    def test_airy_first_factor(self):
        r = stokes_crossing_scan(Family.AIRY, 1, [8.0, 12.0], n=100)
        assert len(r.grid) == 2
        # the detected crossing tracks the predicted curve within O(ln t)
        for det, pred in zip(r.numeric, r.predicted):
            assert abs(det - pred) < 1.5

    def test_sine_rejected(self):
        with pytest.raises(ArgumentError):
            stokes_crossing_scan(Family.SINE, 1, [3.0])

    @pytest.mark.parametrize("q", [0, -2, 81, 90])
    def test_factor_outside_spectrum(self, q, monkeypatch):
        monkeypatch.setattr(verify, "build_discretization", _no_build)
        with pytest.raises(ArgumentError, match="1 <= q <= n = 80"):
            stokes_crossing_scan(Family.AIRY, q, [6.0, 8.0], n=80)

    def test_last_factor_accepted(self):
        r = stokes_crossing_scan(Family.AIRY, 80, [6.0], n=80)
        assert r.metadata["q"] == 80 and math.isnan(r.numeric[0])

    @pytest.mark.parametrize("fam", [Family.AIRY, Family.BESSEL])
    @pytest.mark.parametrize("t", [0.0, -4.0, 0.5])
    def test_t_at_most_one_refused(self, fam, t, monkeypatch):
        # the Stokes curve is refused before t^(-1/2), 1/t or a spectrum
        # is taken at t: t = 0 divided by zero and t = -4 gave a complex s
        monkeypatch.setattr(verify, "build_discretization", _no_build)
        with pytest.raises(ArgumentError, match=f"stokes_v requires t > 1, got {t}"):
            stokes_crossing_scan(fam, 1, [t], n=80)

    def test_never_crossing_noted(self):
        # a deep factor at modest t sits below the threshold for all v > 0
        r = stokes_crossing_scan(Family.BESSEL, 12, [4.5], n=100)
        assert math.isnan(r.numeric[0])
        assert r.metadata["notes"]

    def test_notes_in_grid_order(self):
        grid = [4.5, 4.0, 5.0, 4.2]
        r = stokes_crossing_scan(Family.BESSEL, 12, grid, n=80)
        assert r.grid == tuple(grid)
        assert len(r.metadata["notes"]) >= 2
        assert r.metadata["notes"] == [
            f"t={t}: factor 12 never crosses the threshold"
            for t, num in zip(r.grid, r.numeric)
            if math.isnan(num)
        ]


class TestScanDriver:
    """The three scans share one loop (verify._scan); what each records and
    where its warnings point must not depend on which scan it is."""

    @pytest.mark.parametrize(
        "scan, keys",
        [
            (lambda: eig_ratio_scan(Family.AIRY, 0, [6.0, 9.0], n=80), {"a", "family", "i", "n", "seconds"}),
            (
                lambda: det_ratio_scan(Family.AIRY, 0.5, [6.0, 9.0], n=80),
                {"a", "chi", "error_exponent", "family", "fitted_constant", "fitted_exponent", "n",
                 "notes", "p", "seconds"},
            ),
            (
                lambda: stokes_crossing_scan(Family.BESSEL, 1, [6.0, 9.0], n=80),
                {"a", "family", "n", "notes", "q", "seconds"},
            ),
        ],
        ids=["eig", "det", "stokes"],
    )
    def test_metadata_key_sets(self, scan, keys):
        # gapspec scan --format json prints every key but seconds
        assert set(scan().metadata) == keys

    def test_warnings_point_at_the_caller(self, monkeypatch):
        # every public source of a PrecisionWarning, each warning pointed at
        # the line that called gapspec (errors._warn), however deep the call.
        # 1 - lambda_0 = 1.5e-13 is under the floor n eps at n = 1000: every
        # reader of its factors warns, and eig_ratio_scan skips the point too;
        # det_ratio_scan reads it at gamma = 1 (Airy t = 800, where v > 700)
        deep = Spectrum(np.array([1.0 - 1.5e-13, 0.5]), 1000, {})
        monkeypatch.setattr(verify, "_spectrum", lambda spec, interval, n: deep)
        # 0.1^800 is below the smallest double: the product underflows
        tiny = Spectrum(np.full(800, 0.9), 800, {})
        # at Airy s = -12, n = 160 the computed 1 - lambda_0 is under the floor
        sources = [
            (lambda: fredholm_det(deep, 1.0), ["fredholm_det: 1 - gamma*lambda_0"]),
            (lambda: fredholm_det(tiny, 1.0), ["fredholm_det underflowed"]),
            (lambda: log_fredholm_det(deep, 1.0), ["log_fredholm_det: "]),
            (lambda: counting_prob(deep, 1), ["counting_prob: "]),
            (lambda: counting_prob(tiny, 0), ["fredholm_det underflowed"]),
            (lambda: counting_ratio(deep, 1), ["counting_ratio: "]),
            (lambda: d_ds_log_det(AIRY, -12.0, 1.0, n=160), ["d_ds_log_det: "]),
            (lambda: lidskii_split(deep, 1.0, 1), ["lidskii_split: "]),
            (lambda: eig_ratio_scan(Family.SINE, 0, [3.0], n=1000),
             ["eig_ratio_scan: ", "1 - lambda_0 = 1.500e-13 at t=3.0 is below"]),
            (lambda: det_ratio_scan(Family.AIRY, 0.0, [800.0], n=1000), ["log_fredholm_det: "]),
            (lambda: stokes_crossing_scan(Family.AIRY, 1, [6.0], n=1000),
             ["stokes_crossing_scan: "]),
            (lambda: logderiv_check(Family.AIRY, -12.0, 0.0, n=160), ["d_ds_log_det: "]),
            # lambda_12 of the n = 60 sine matrix at s = 1 is about 1e-17
            (lambda: commuting_residual(Family.SINE, 12, 1.0, n=60, m=400), ["eigenvalue 12 = "]),
        ]
        for call, starts in sources:
            with pytest.warns(PrecisionWarning) as rec:
                call()
            assert [str(w.message)[: len(p)] for w, p in zip(rec, starts)] == starts
            line = call.__code__.co_firstlineno
            assert [(w.filename, w.lineno) for w in rec] == [(__file__, line)] * len(starts)


def test_rule_plan_is_complete(monkeypatch):
    # from cold caches, run_acceptance solves every Gauss-Legendre rule it
    # reads in its one planned batch: a check reading an n outside
    # _RULE_PLAN would solve a second batch, and a planned n that no check
    # reads would be solved for nothing
    batches, reads = [], []
    solve = operator_module._solve_rules
    monkeypatch.setattr(operator_module, "_solve_rules",
                        lambda sizes: batches.append(sizes) or solve(sizes))
    rules = operator_module._gauss_legendre_rules
    monkeypatch.setattr(operator_module, "_gauss_legendre_rules",
                        lambda sizes: reads.extend(sizes) or rules(sizes))
    operator_module._RULES.clear()
    _spectrum.cache_clear()
    verify.run_acceptance()
    assert batches == [sorted(verify._RULE_PLAN, reverse=True)]
    assert len(set(verify._RULE_PLAN)) == len(verify._RULE_PLAN)
    assert set(reads) == set(verify._RULE_PLAN)


class TestCommutingResidual:
    def test_sine_ground_state(self):
        assert commuting_residual(Family.SINE, 0, 3.0, n=100, m=600) < 1e-6

    def test_refinement_improves(self):
        coarse = commuting_residual(Family.SINE, 0, 3.0, n=100, m=400)
        fine = commuting_residual(Family.SINE, 0, 3.0, n=100, m=800)
        assert fine < coarse

    def test_m_floor(self):
        with pytest.raises(ArgumentError):
            commuting_residual(Family.SINE, 0, 3.0, m=100)

    @pytest.mark.parametrize("i", [-1, 100, 250])
    def test_index_outside_spectrum(self, i, monkeypatch):
        # i = -1 once gave the last eigenvector's residual, with a warning
        monkeypatch.setattr(verify, "build_discretization", _no_build)
        with pytest.raises(ArgumentError, match="0 <= i < n = 100"):
            commuting_residual(Family.SINE, i, 3.0)

    def test_untrustworthy_eigenvector_warns(self):
        with pytest.warns(PrecisionWarning):
            commuting_residual(Family.SINE, 40, 2.0, n=80, m=400)

    @staticmethod
    def _residual_one_grid(family, i, s, n=100, m=800, a=0.0):
        # the former one-grid implementation, kept verbatim as the reference
        fam = verify._coerce_family(family)
        i = int(i)
        m = int(m)
        if m < 400:
            raise ArgumentError(f"commuting_residual requires m >= 400, got {m}")
        spec = KernelSpec(fam, a)
        d = build_discretization(spec, IntervalSpec(fam, float(s)), int(n))
        sp, vecs = compute_spectrum_with_vectors(d)
        w = np.asarray(d.weights)
        y = vecs[:, i]
        u_nodes = y / np.sqrt(w)
        u_nodes = u_nodes / math.sqrt(float(np.sum(w * u_nodes * u_nodes)))
        if fam is Family.AIRY:
            lo, hi = d.interval.s, d.truncation
        elif fam is Family.BESSEL:
            lo, hi = 0.0, d.interval.s
        else:
            lo, hi = -d.interval.s, d.interval.s
        h = (hi - lo) / (m + 1)
        grid = lo + h * np.arange(1, m + 1)
        from gapspec.operator import _is_even_integer, gauss_legendre

        q = gauss_legendre(d.n)
        bw = verify._barycentric_weights(np.asarray(q.nodes), np.asarray(q.weights))
        if fam is Family.BESSEL and not _is_even_integer(a):
            interp_nodes = np.sqrt(np.asarray(d.nodes))
            eval_points = np.sqrt(grid)
        else:
            interp_nodes = np.asarray(d.nodes)
            eval_points = grid
        u = verify._barycentric_eval(interp_nodes, bw, u_nodes, eval_points)
        P, Q = verify._sturm_liouville(fam, a, float(s))
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

    @pytest.mark.parametrize(
        "family, i, s, n, a",
        [
            (Family.SINE, 0, 3.0, 100, 0.0),
            (Family.AIRY, 1, -3.0, 80, 0.0),
            (Family.BESSEL, 0, 9.0, 80, 0.5),
            (Family.BESSEL, 0, 9.0, 80, 2.0),
        ],
    )
    def test_grid_sizes_match_one_grid_code_bitwise(self, family, i, s, n, a):
        sizes = (400, 800, 513)
        ref = tuple(self._residual_one_grid(family, i, s, n, m, a) for m in sizes)
        got = commuting_residual(family, i, s, n=n, m=sizes, a=a)
        assert type(got) is tuple and [r.hex() for r in got] == [r.hex() for r in ref]
        one = commuting_residual(family, i, s, n=n, m=sizes[0], a=a)
        assert type(one) is float and one.hex() == ref[0].hex()
        assert commuting_residual(family, i, s, n=n, m=[sizes[1]], a=a) == ref[1:2]

    def test_one_build_serves_every_grid_size(self, monkeypatch):
        builds = []
        real = verify.build_discretization

        def counting_build(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "build_discretization", counting_build)
        ok, detail = _acc_commuting()
        assert ok and len(builds) == 1
        r400 = self._residual_one_grid(Family.SINE, 0, 3.0, n=100, m=400)
        r800 = self._residual_one_grid(Family.SINE, 0, 3.0, n=100, m=800)
        assert detail == f"residual m=400: {r400:.3e}, m=800: {r800:.3e}"

    def test_m_floor_in_a_sequence(self):
        with pytest.raises(ArgumentError):
            commuting_residual(Family.SINE, 0, 3.0, m=(800, 100))


class TestPointChecks:
    def test_convolution(self):
        assert convolution_check(-3.0) < 1e-7

    def test_convolution_deterministic(self):
        assert convolution_check(-3.0) == convolution_check(-3.0)

    @staticmethod
    def _convolution_check_loop(s, sample_count=25, n=60, seed=20260826):
        # the former per-sample loop, kept verbatim as the reference
        s = float(s)
        rng = np.random.default_rng(seed)
        count = int(sample_count)
        worst = 0.0
        for j in range(count):
            lam = s + 5.0 * rng.random()
            if j % 5 == 0:
                mu = lam
            else:
                mu = s + 5.0 * rng.random()
            direct = kernels.kernel_eval(AIRY, lam, mu)
            conv = kernels.airy_convolution(lam, mu, n=n)
            worst = max(worst, abs(direct - conv))
        return worst

    @pytest.mark.parametrize(
        "s, count, n, seed",
        [(-3.0, 25, 60, 20260826), (-8.0, 40, 45, 7), (1.5, 13, 80, 99), (-3.0, 0, 60, 1)],
    )
    def test_convolution_matches_sample_loop_bitwise(self, s, count, n, seed):
        got = convolution_check(s, sample_count=count, n=n, seed=seed)
        ref = self._convolution_check_loop(s, sample_count=count, n=n, seed=seed)
        assert type(got) is float and got.hex() == ref.hex()

    @staticmethod
    def _acc_counting_loop():
        # the former per-degree loop, kept verbatim as the reference
        sp = verify._spectrum(AIRY, IntervalSpec(Family.AIRY, -2.0), 120)
        total = sum(counting_prob(sp, k) for k in range(sp.n + 1))
        e0 = counting_prob(sp, 0)
        worst_ratio = 0.0
        for k in range(1, 8):
            direct = counting_prob(sp, k) / e0
            worst_ratio = max(worst_ratio, abs(direct / counting_ratio(sp, k) - 1.0))
        ok = abs(total - 1.0) <= 1e-10 and worst_ratio <= 1e-12
        return ok, f"sum E(n) - 1 = {total - 1.0:.3e}; worst r(n) mismatch = {worst_ratio:.3e}"

    def test_counting_criterion_matches_degree_loop(self):
        # sum E(n) is within a few ulps of 1, so a one-ulp change in the sum
        # moves the printed sum E(n) - 1
        assert _acc_counting() == self._acc_counting_loop()
        assert _acc_counting()[0]

    def test_logderiv_airy(self):
        assert logderiv_check(Family.AIRY, -6.0, 0.0, n=100) < 0.02

    def test_logderiv_airy_below_alpha_zero(self):
        # chi in [-1/2, 0) is k = 0 with alpha < 0, where sigma- is 0: at
        # gamma = 1 the expansion is the gap derivative, as at chi = 0
        assert logderiv_check(Family.AIRY, -6.0, -0.3, n=100) < 0.02
        assert logderiv_check(Family.BESSEL, 100.0, -0.3, n=100) < 0.02

    def test_logderiv_sine_rejected(self):
        with pytest.raises(ArgumentError):
            logderiv_check(Family.SINE, 3.0, 0.0)

    @pytest.mark.parametrize("chi", [0.5, 0.7, 1.2, -0.6, math.nan])
    def test_logderiv_chi_outside_gamma_one_curve_rejected(self, chi):
        # the numeric side is always gamma = 1; at chi = 0.7 the expansion
        # belongs to k = 1 and the two sides differed by 3.6% at Airy s = -6;
        # a NaN is no chi at all, and errors._real refuses it first
        match = "requires a finite chi, got nan$" if math.isnan(chi) else "chi < 1/2"
        with pytest.raises(ArgumentError, match=match):
            logderiv_check(Family.AIRY, -6.0, chi, n=80)


class TestSpectrumMemo:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        _spectrum.cache_clear()
        yield
        _spectrum.cache_clear()

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = collections.Counter()
        build = verify.build_discretization

        def counted(spec, interval, n):
            counts[(spec, interval, n)] += 1
            return build(spec, interval, n)

        monkeypatch.setattr(verify, "build_discretization", counted)
        return counts

    def test_eig_law_and_transition_build_each_point_once(self, builds):
        # the two eigenvalue indices share one t-grid, and the transition
        # scans revisit it: four Airy spectra in all
        _acc_eig_law(Family.AIRY, [(0.0, 0), (0.0, 1)], (8, 10, 12, 14), 0.25)
        _acc_transition(Family.AIRY, (0.0, 0.5), (0.0,), (8, 10, 12))
        assert len(builds) == 4
        assert set(builds.values()) == {1}
        assert {n for _, _, n in builds} == {160}

    @staticmethod
    def _scans():
        eig = eig_ratio_scan(Family.SINE, 1, [2.5, 3.5, 4.5], n=80)
        det = det_ratio_scan(Family.BESSEL, 0.5, [6.0, 8.0], a=1.0, n=80)
        return [(r.grid, r.numeric, r.predicted, r.rel_error) for r in (eig, det)]

    def test_scans_bit_identical_across_cache_clear(self):
        cold = self._scans()
        # the second pass is served by the memo
        assert self._scans() == cold
        assert _spectrum.cache_info().hits == 5
        _spectrum.cache_clear()
        assert self._scans() == cold

    def test_precision_warning_fires_on_cache_hit(self, builds, monkeypatch):
        # no spectrum inside the desk-scale windows reaches the 1e-13 skip
        # threshold, so the eigensolve is replaced by one that does
        def unresolvable(d):
            return Spectrum(np.array([1.0 - 1e-15, 0.5]), 2, {})

        monkeypatch.setattr(verify, "compute_spectrum", unresolvable)
        for _ in range(2):
            with pytest.warns(PrecisionWarning, match="below resolvable precision"):
                r = eig_ratio_scan(Family.SINE, 0, [3.0], n=80)
            assert r.grid == ()
        assert list(builds.values()) == [1]
        assert _spectrum.cache_info().hits == 1

    def test_unresolved_top_factor_warns_on_cache_hit(self, builds, monkeypatch):
        # 1 - lambda_0 below the floor n eps warns, though lambda_1 is read
        def deep(d):
            return Spectrum(np.array([1.0 - 2e-16, 0.5]), 160, {})

        monkeypatch.setattr(verify, "compute_spectrum", deep)
        for _ in range(2):
            with pytest.warns(PrecisionWarning, match="eig_ratio_scan: .* resolvable floor"):
                r = eig_ratio_scan(Family.SINE, 1, [3.0], n=160)
            assert r.numeric == (0.5,)
        assert list(builds.values()) == [1]


class TestFixedInputs:
    """The acceptance suite's inputs are literal tables, so a verify process
    never imports numpy.random; they are the draws the suite once made."""

    def test_lidskii_table_is_the_seed_1234_draws(self):
        rng = np.random.default_rng(1234)
        drawn = []
        for _ in range(20):
            n = int(rng.integers(50, 120))
            v = float(rng.uniform(0.1, 8.0))
            p = int(rng.integers(0, 6))
            drawn.append((n, v, p))
        assert tuple(drawn) == verify._LIDSKII_CASES

    def test_convolution_table_is_the_default_seed_draws(self):
        rng = np.random.default_rng(20260826)
        drawn = []
        for j in range(25):
            drawn.append(float(rng.random()))
            if j % 5 != 0:
                drawn.append(float(rng.random()))
        assert tuple(drawn) == verify._CONVOLUTION_UNITS

    def test_convolution_row_is_convolution_check(self, monkeypatch):
        seen = []
        deviation = verify._convolution_deviation

        def recorded(*args):
            seen.append(deviation(*args))
            return seen[-1]

        monkeypatch.setattr(verify, "_convolution_deviation", recorded)
        ok, detail = verify._acc_convolution()
        worst = convolution_check(-3.0)
        assert ok and detail == f"max deviation = {worst:.3e}"
        assert seen[0].hex() == worst.hex()


class TestTrendHelper:
    def test_all_good(self):
        assert _trend_ok([0.5, 0.3, 0.1], cap=1.0)

    def test_single_violation_tolerated(self):
        assert _trend_ok([2.0, 0.3, 0.1], cap=1.0)
        assert _trend_ok([0.5, 0.6, 0.1], cap=1.0)

    def test_two_violations_fail(self):
        assert not _trend_ok([2.0, 2.5, 0.1], cap=1.0)


class TestImportFootprint:
    def test_verify_process_leaves_numpy_random_unloaded(self):
        # the acceptance suite reads its fixed inputs from literal tables;
        # numpy.random (19 modules, with hashlib and OpenSSL) used to be
        # imported to draw them
        import gapspec

        src = os.path.dirname(os.path.dirname(gapspec.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import io, sys, contextlib; from gapspec import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(['verify'])\n"
                "print(code, 'numpy.random' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"

    def test_import_leaves_thread_pool_and_fractions_unloaded(self):
        # the exact zeta/Bernoulli tables are set up on first use, so a plain
        # import loads neither concurrent.futures (with logging, queue) nor
        # fractions (with decimal); the records are plain classes, so it
        # loads no dataclasses either (numpy does not load it)
        import gapspec

        src = os.path.dirname(os.path.dirname(gapspec.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, gapspec; "
                "print(sorted({'concurrent.futures', 'fractions', 'dataclasses'} & set(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def _sine_discretization():
    return build_discretization(SINE, IntervalSpec(Family.SINE, 1.0), 20)


# a factory of one instance of each record class
_RECORDS = {
    "KernelSpec": lambda: SINE,
    "IntervalSpec": lambda: IntervalSpec(Family.AIRY, -2.0),
    "Quadrature": lambda: gauss_legendre(5),
    "Discretization": _sine_discretization,
    "Spectrum": lambda: compute_spectrum(_sine_discretization()),
    "_Law": lambda: asymptotics._LAWS[Family.AIRY],
    "TransitionExpansion": lambda: asymptotics.TransitionExpansion(0.0, (1.5,), 1),
    "ScanResult": lambda: ScanResult((1.0,), (2.0,), (2.5,), (0.2,)),
}


class TestRecords:
    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_refuses_assignment(self, name):
        rec = _RECORDS[name]()
        assert type(rec).__name__ == name
        field = rec._fields[0]
        before = getattr(rec, field)
        with pytest.raises(AttributeError):
            setattr(rec, field, 1.0)
        with pytest.raises(AttributeError):
            rec.extra = 1.0
        with pytest.raises(AttributeError):
            delattr(rec, field)
        assert getattr(rec, field) is before and not hasattr(rec, "extra")
