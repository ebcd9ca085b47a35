"""Discretization and spectral machinery: quadrature against an independent
generator, spectra against trace identities, counting statistics against a
direct polynomial expansion."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapspec.operator as operator_module
from gapspec import kernels, verify
from gapspec.errors import (
    ArgumentError,
    DegeneracyError,
    DomainError,
    PoleError,
    PrecisionWarning,
)
from gapspec.kernels import (
    AIRY,
    SINE,
    Family,
    IntervalSpec,
    bessel_spec,
    delta_switch,
    kernel_diag,
    kernel_eval,
)
from gapspec.operator import (
    _CLAMP_TOP,
    Spectrum,
    _esp_all,
    _mu_values,
    _validate_spectrum,
    airy_truncation,
    build_discretization,
    compute_spectrum,
    compute_spectrum_with_vectors,
    counting_prob,
    counting_ratio,
    d_ds_log_det,
    discretization_grid,
    fredholm_det,
    gauss_legendre,
    log_fredholm_det,
    trace_norm,
)

mp.mp.dps = 30


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 64, 121, 400])
    def test_matches_numpy(self, n):
        q = gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(q.nodes - x_ref)) < 5e-15
        assert np.max(np.abs(q.weights - w_ref)) < 1e-12

    @pytest.mark.parametrize("n", [5, 40, 200])
    def test_polynomial_exactness(self, n):
        # exact for degree <= 2n - 1
        q = gauss_legendre(n)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(2 * n)  # degree 2n - 1
        integral = sum(
            c / (k + 1) * (1.0 - (-1.0) ** (k + 1)) for k, c in enumerate(coeffs)
        )
        approx = float(np.polynomial.polynomial.polyval(q.nodes, coeffs) @ q.weights)
        assert abs(approx - integral) < 1e-12 * max(1.0, abs(integral))

    def test_symmetry(self):
        for n in (9, 10):
            q = gauss_legendre(n)
            assert np.array_equal(q.nodes, -q.nodes[::-1])
            assert np.array_equal(q.weights, q.weights[::-1])
        assert gauss_legendre(9).nodes[4] == 0.0

    def test_two_recurrence_sweeps_from_n_40(self, monkeypatch):
        # the asymptotic guesses leave one Newton step, then the sweep that
        # certifies it and gives P_n' for the weights
        calls = []
        top = operator_module._legendre_top
        monkeypatch.setattr(operator_module, "_legendre_top",
                            lambda x, n: calls.append(n) or top(x, n))
        for n in (*range(40, 301), 997, 1000, 1999, 2000):
            operator_module._gauss_legendre_cached.cache_clear()
            calls.clear()
            gauss_legendre(n)
            assert len(calls) <= 2, n

    def test_arguments(self):
        with pytest.raises(ArgumentError):
            gauss_legendre(0)
        with pytest.raises(ArgumentError):
            gauss_legendre(2001)

    def test_read_only(self):
        q = gauss_legendre(12)
        with pytest.raises(ValueError):
            q.nodes[0] = 0.0

    @staticmethod
    def _mp_rule(x, n):
        # The Gauss-Legendre nodes and weights nearest the double nodes x,
        # to about 40 digits: one Newton step on P_n from each x. P_n and
        # P_{n-1} come from the three-term recurrence in 160-bit fixed point
        # (Python integers, all nodes at once); the step and the weight
        # 2 / ((1 - r^2) P_n'(r)^2), with P_n'(r) to first order in the step
        # through Legendre's equation, are taken in mpmath.
        bits = 160
        fx = np.array([(a << bits) // b for a, b in map(float.as_integer_ratio, x)],
                      dtype=object)
        p0 = np.full(len(fx), 1 << bits, dtype=object)
        p1 = fx.copy()
        for m in range(2, n + 1):
            p0, p1 = p1, ((((2 * m - 1) * fx * p1) >> bits) - (m - 1) * p0) // m
        nodes, weights = [], []
        with mp.workdps(40):
            unit = mp.mpf(2) ** -bits
            for xk, q0, q1 in zip(x, p0, p1):
                xk, q0, q1 = mp.mpf(xk), q0 * unit, q1 * unit
                dp = n * (q0 - xk * q1) / (1 - xk * xk)
                d2p = (2 * xk * dp - n * (n + 1) * q1) / (1 - xk * xk)
                step = q1 / dp
                r = xk - step
                nodes.append(r)
                weights.append(2 / ((1 - r * r) * (dp - step * d2p) ** 2))
        return nodes, weights

    # Bounds on node abs error and weight rel error: the worst errors, over
    # the same n and nodes, of the former rule (Newton from Chebyshev guesses
    # over all n nodes, then symmetrized), rounded up in the third digit.
    # 1..130 includes the rules below n = 22 that take a third sweep; above
    # n = 300 the nodes are sampled at both ends and the centre.
    @pytest.mark.parametrize(
        "ns, node_tol, weight_tol",
        [
            (range(1, 131), 1.12e-16, 4.85e-13),
            ((199, 200, 300), 5.96e-17, 1.37e-12),
            ((997, 1000), 5.51e-17, 2.22e-11),
            ((1999,), 4.50e-17, 8.49e-11),
            ((2000,), 4.58e-17, 4.06e-11),
        ],
        ids=["1-130", "199-300", "997-1000", "1999", "2000"],
    )
    def test_rules_match_mpmath_reference(self, ns, node_tol, weight_tol):
        for n in ns:
            q = gauss_legendre(n)
            upper = np.arange(n // 2, n)
            if n > 300:
                upper = upper[[0, 1, 2, -3, -2, -1]]
            ref_x, ref_w = self._mp_rule(q.nodes[upper], n)
            with mp.workdps(40):
                for i, r, rw in zip(upper, ref_x, ref_w):
                    # the roots of P_n come in pairs +-r
                    for j, sign in ((i, 1), (n - 1 - i, -1)):
                        assert abs(sign * mp.mpf(q.nodes[j]) - r) <= node_tol, (n, j)
                        assert abs(mp.mpf(q.weights[j]) / rw - 1) <= weight_tol, (n, j)


class TestGrid:
    def test_family_mismatch(self):
        with pytest.raises(ArgumentError):
            discretization_grid(SINE, IntervalSpec(Family.AIRY, -2.0), 40)

    def test_airy_truncation_floor(self):
        assert airy_truncation(-100.0) == pytest.approx((45.0 * 0.75) ** (2.0 / 3.0))
        assert airy_truncation(5.0) == 15.0

    def test_bessel_substituted_grid(self):
        nodes, weights, hi = discretization_grid(bessel_spec(0.5), IntervalSpec(Family.BESSEL, 9.0), 50)
        assert hi == 9.0
        assert nodes[0] > 0.0 and nodes[-1] < 9.0
        # under x = u^2 the integral of 1 over [0, 9] is still 9
        assert abs(float(np.sum(weights)) - 9.0) < 1e-12

    def test_bessel_even_integer_plain_grid(self):
        nodes, _, _ = discretization_grid(bessel_spec(2.0), IntervalSpec(Family.BESSEL, 4.0), 30)
        base = gauss_legendre(30)
        assert np.allclose(nodes, 2.0 + 2.0 * base.nodes)

    @pytest.mark.parametrize(
        "spec, s, rng",
        [
            (AIRY, -45.0, "-40 <= s <= 190"),
            (AIRY, 190.5, "-40 <= s <= 190"),
            (bessel_spec(0.0), 2e8, "s <= 1e+08"),
            (bessel_spec(0.5), 2e8, "s <= 1e+08"),
        ],
    )
    def test_out_of_range_names_s(self, spec, s, rng):
        # the message names the interval's s, not the node or u = sqrt(x)
        # where the special function would have failed
        with pytest.raises(DomainError) as exc:
            discretization_grid(spec, IntervalSpec(spec.family, s), 40)
        assert rng in str(exc.value) and f"got s={s}" in str(exc.value)

    @pytest.mark.parametrize("spec, s", [(AIRY, -40.0), (AIRY, 190.0), (bessel_spec(0.5), 1e8)])
    def test_range_ends_are_inside(self, spec, s):
        nodes, _, _ = discretization_grid(spec, IntervalSpec(spec.family, s), 40)
        assert np.all(np.isfinite(kernel_diag(spec, nodes)))


class TestAssembly:
    @pytest.mark.parametrize(
        "spec, s",
        [(SINE, 6.0), (AIRY, -5.0), (bessel_spec(0.5), 100.0), (bessel_spec(0.0), 16.0)],
    )
    def test_entries_are_weighted_kernel_values(self, spec, s):
        # every entry is K(x_i, x_j) * (sqrt(w_i) sqrt(w_j)), bit for bit:
        # on the Taylor band (diagonal included) and off it
        n = 300
        d = build_discretization(spec, IntervalSpec(spec.family, s), n)
        x = np.asarray(d.nodes)
        sw = np.sqrt(np.asarray(d.weights))
        if spec.family is Family.BESSEL:
            u = np.sqrt(x)
            band = [(i, j) for i in range(n) for j in range(i, min(n, i + 4))
                    if u[j] - u[i] <= 1e-4 * (u[i] + u[j])]
        else:
            band = [(i, j) for i in range(n) for j in range(i, min(n, i + 4))
                    if x[j] - x[i] <= delta_switch(x[i], x[j])]
        assert any(i != j for i, j in band)
        rng = np.random.default_rng(3)
        off = [tuple(p) for p in rng.integers(0, n, size=(150, 2))]
        for i, j in band + off:
            ref = kernel_eval(spec, x[i], x[j]) * (sw[i] * sw[j])
            assert d.matrix[i, j] == ref and d.matrix[j, i] == ref, (i, j)


def _full_grid_matrix(spec, interval, n):
    """The former assembly, kept verbatim as the reference: the exact form
    on all n^2 pairs, the upper triangle mirrored by np.where, the Taylor
    band written over the upper triangle first; then the weights."""
    x, w, _ = discretization_grid(spec, interval, n)
    t = kernels._variable(spec, x)
    ii, jj = [], []
    for d in range(n):
        i = np.flatnonzero(kernels._near(spec, t[d:], t[: n - d]))
        if not i.size:
            break
        ii.append(i)
        jj.append(i + d)
    ii = np.concatenate(ii)
    jj = np.concatenate(jj)
    values = kernels._edge_values(spec, np.concatenate([t, 0.5 * (t[jj] + t[ii])]))
    vt = [v[:n] for v in values]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = kernels._exact(
            spec, t[None, :], [v[None, :] for v in vt], t[:, None], [v[:, None] for v in vt]
        )
    k[ii, jj] = kernels._taylor(spec, t[jj], t[ii], [v[n:] for v in values])
    k = np.where(np.arange(n)[:, None] <= np.arange(n), k, k.T)
    sw = np.sqrt(w)
    k *= np.outer(sw, sw)
    return k


def _band_count(spec, x):
    """Ordered pairs (i, j) of the grid that take the Taylor branch, counted
    over the whole grid, a block of rows at a time."""
    u = np.sqrt(x) if spec.family is Family.BESSEL else x
    count = 0
    for r in range(0, len(u), 100):
        a, b = u[r : r + 100, None], u[None, :]
        count += int(np.count_nonzero(kernels._near(spec, np.maximum(a, b), np.minimum(a, b))))
    return count


_B = kernels._BLOCK
_ASSEMBLY_CASES = [
    (SINE, 2.0), (AIRY, -5.0), (bessel_spec(-0.5), 16.0),
    (bessel_spec(0.0), 16.0), (bessel_spec(0.5), 100.0), (bessel_spec(2.0), 9.0),
]


class TestBlockedAssembly:
    """build_discretization's matrix against the former full-grid assembly,
    bit for bit, at sizes on both sides of every block edge."""

    @pytest.mark.parametrize("n", [1, 2, 3, _B - 1, _B, _B + 1, 2 * _B + 1, 300])
    @pytest.mark.parametrize("spec, s", _ASSEMBLY_CASES)
    def test_matches_full_grid_assembly_bitwise(self, spec, s, n):
        iv = IntervalSpec(spec.family, s)
        got = np.asarray(build_discretization(spec, iv, n).matrix)
        assert got.tobytes() == _full_grid_matrix(spec, iv, n).tobytes()

    def test_sine_band_across_centre_bitwise(self):
        # at s = 0.01 the nodes near the centre are closer than the switch
        # radius 1e-4, so the Taylor band holds off-diagonal pairs there
        iv = IntervalSpec(Family.SINE, 0.01)
        d = build_discretization(SINE, iv, 2000)
        assert np.asarray(d.matrix).tobytes() == _full_grid_matrix(SINE, iv, 2000).tobytes()
        count = _band_count(SINE, np.asarray(d.nodes))
        assert d.repaired_entries == count > 3 * 2000
        assert compute_spectrum(d).meta["repaired_entries"] == count

    @pytest.mark.parametrize("spec, s", _ASSEMBLY_CASES)
    def test_repaired_entries_counts_the_band(self, spec, s):
        d = build_discretization(spec, IntervalSpec(spec.family, s), 300)
        assert d.repaired_entries == _band_count(spec, np.asarray(d.nodes))
        assert compute_spectrum(d).meta["repaired_entries"] == d.repaired_entries

    # half grids of h = n // 2 nodes on both sides of the block edges B, 2B
    @pytest.mark.parametrize("n", [2 * _B - 1, 2 * _B, 2 * _B + 1, 2 * _B + 2, 4 * _B + 3])
    @pytest.mark.parametrize("s", [0.001, 0.01, 2.0, 25.0])
    def test_sine_two_block_assembly_bitwise(self, s, n):
        # s = 0.001 puts Taylor pairs across the centre at these n, that is
        # in the reflected block (s = 0.01 does so from n ~ 2000 on)
        iv = IntervalSpec(Family.SINE, s)
        d = build_discretization(SINE, iv, n)
        assert np.asarray(d.matrix).tobytes() == _full_grid_matrix(SINE, iv, n).tobytes()
        assert d.repaired_entries == _band_count(SINE, np.asarray(d.nodes))

    def test_sine_evaluates_a_quarter_of_the_pairs(self, monkeypatch):
        # the exact form runs on the two free blocks only: 29 448 pairs at
        # n = 300, where the upper-triangle assembly took 51 984
        count = 0
        real = kernels._exact

        def counted(spec, s, vs, t, vt):
            nonlocal count
            count += np.broadcast(s, t).size
            return real(spec, s, vs, t, vt)

        monkeypatch.setattr(kernels, "_exact", counted)
        build_discretization(SINE, IntervalSpec(Family.SINE, 2.0), 300)
        assert 150 * 151 <= count <= 30_000

    def test_sine_off_a_symmetric_grid(self):
        # a grid not symmetric about 0 takes the one-block assembly
        x = np.array([-0.7, -0.2, 0.1, 0.4, 1.3])
        sw = np.sqrt(np.array([0.3, 0.5, 0.2, 0.6, 0.4]))
        mat, repaired = kernels.kernel_matrix(SINE, x, sw)
        ref = kernel_eval(SINE, x[:, None], x[None, :]) * (sw[:, None] * sw[None, :])
        assert np.array_equal(mat, ref) and repaired == 5


class TestSpectrum:
    def test_matrix_symmetric_bitwise(self):
        for spec, iv in [
            (SINE, IntervalSpec(Family.SINE, 2.0)),
            (AIRY, IntervalSpec(Family.AIRY, -3.0)),
            (bessel_spec(0.5), IntervalSpec(Family.BESSEL, 9.0)),
        ]:
            d = build_discretization(spec, iv, 60)
            m = np.asarray(d.matrix)
            assert np.array_equal(m, m.T)

    def test_trace_identity(self):
        # sum of eigenvalues equals the quadrature trace exactly (both are
        # the trace of the same symmetric matrix)
        d = build_discretization(SINE, IntervalSpec(Family.SINE, 3.0), 80)
        sp = compute_spectrum(d)
        tr = float(np.trace(np.asarray(d.matrix)))
        assert abs(float(np.sum(sp.eigenvalues)) - tr) < 1e-12

    def test_sine_trace_closed_form(self):
        # diag of the sine kernel is 1/pi, so the trace is 2s/pi
        s = 2.5
        assert abs(trace_norm(SINE, IntervalSpec(Family.SINE, s)) - 2.0 * s / math.pi) < 1e-13

    def test_airy_trace_against_quadrature_oracle(self):
        s = -4.0
        hi = airy_truncation(s)
        ref = float(mp.quad(lambda t: mp.airyai(t, 1) ** 2 - t * mp.airyai(t) ** 2, [s, hi]))
        assert abs(trace_norm(AIRY, IntervalSpec(Family.AIRY, s), n=80) - ref) < 1e-10

    def test_bessel_trace_against_quadrature_oracle(self):
        a, s = 0.5, 9.0
        ref = float(
            mp.quad(
                lambda x: (
                    mp.besselj(a, mp.sqrt(x)) ** 2
                    - mp.besselj(a + 1, mp.sqrt(x)) * mp.besselj(a - 1, mp.sqrt(x))
                )
                / 4,
                [0, s],
            )
        )
        assert abs(trace_norm(bessel_spec(a), IntervalSpec(Family.BESSEL, s), n=80) - ref) < 1e-10

    @pytest.mark.parametrize(
        "spec,iv",
        [
            (SINE, IntervalSpec(Family.SINE, 2.0)),
            (AIRY, IntervalSpec(Family.AIRY, -4.0)),
            (bessel_spec(-0.5), IntervalSpec(Family.BESSEL, 16.0)),
            (bessel_spec(2.0), IntervalSpec(Family.BESSEL, 16.0)),
        ],
    )
    def test_spectrum_converged(self, spec, iv):
        # the top of the spectrum must be n-independent at working precision
        a = compute_spectrum(build_discretization(spec, iv, 60)).eigenvalues[:8]
        b = compute_spectrum(build_discretization(spec, iv, 120)).eigenvalues[:8]
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-12

    def test_spectrum_in_unit_interval(self):
        sp = compute_spectrum(build_discretization(SINE, IntervalSpec(Family.SINE, 4.0), 80))
        ev = np.asarray(sp.eigenvalues)
        assert np.all(ev >= 0.0) and np.all(ev < 1.0)
        assert np.all(np.diff(ev) <= 0.0)

    def test_eigenvectors_consistent(self):
        for spec, s, n in [(AIRY, -3.0, 60), (SINE, 3.0, 60), (SINE, 3.0, 61), (SINE, 7.0, 81)]:
            d = build_discretization(spec, IntervalSpec(spec.family, s), n)
            sp, vecs = compute_spectrum_with_vectors(d)
            m = np.asarray(d.matrix)
            for i in range(6):
                v = vecs[:, i]
                assert np.linalg.norm(m @ v - sp.eigenvalues[i] * v) < 1e-12, (s, n, i)
                if spec.family is Family.SINE:
                    # the prolate alternation: the i-th eigenfunction has
                    # parity (-1)^i under x -> -x, which reverses the nodes
                    assert np.array_equal(v[::-1], (-1) ** i * v), (s, n, i)
            assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) < 1e-13, (s, n)

    def test_meta_fields(self):
        d = build_discretization(bessel_spec(1.0), IntervalSpec(Family.BESSEL, 9.0), 50)
        sp = compute_spectrum(d)
        assert sp.meta["family"] == "bessel"
        assert sp.meta["a"] == 1.0
        assert sp.meta["n"] == 50
        assert "clamped_zero" in sp.meta
        assert "clamped_top" in sp.meta

    @pytest.mark.parametrize(
        "spec, s",
        [(SINE, 2.0), (AIRY, -5.0), (bessel_spec(0.5), 16.0)],
    )
    def test_clamped_zero_counts_negative_values(self, spec, s):
        # at n = 300 about half of these spectra is Nystrom noise, much of
        # it negative; every value set to 0 is counted
        sp = compute_spectrum(build_discretization(spec, IntervalSpec(spec.family, s), 300))
        ev = np.asarray(sp.eigenvalues)
        assert sp.meta["clamped_zero"] == np.count_nonzero(ev == 0.0) > 100
        assert sp.meta["clamped_top"] == 0

    def test_clamped_top_counted(self):
        # deep Airy gap: the top eigenvalues round to 1 and are clamped. The
        # count is of raw values above the clamp: a raw value can also land
        # on the clamp value itself, the largest double below 1, unclamped.
        d = build_discretization(AIRY, IntervalSpec(Family.AIRY, -30.0), 200)
        sp = compute_spectrum(d)
        ev = np.asarray(sp.eigenvalues)
        raw = np.linalg.eigvalsh(d.matrix)
        assert sp.meta["clamped_top"] == np.count_nonzero(raw > _CLAMP_TOP) > 0
        assert np.count_nonzero(ev == _CLAMP_TOP) == np.count_nonzero(raw >= _CLAMP_TOP)

    def test_clamp_counts_and_values(self):
        d = build_discretization(SINE, IntervalSpec(Family.SINE, 1.0), 8)
        raw = np.array([-1e-12, -0.0, 0.0, 1e-301, 1e-200, 0.5, 1.0 - 1e-17, 1.0 + 1e-12])
        sp = _validate_spectrum(raw, d)
        # the former clamp, kept verbatim as the reference for the values
        ref = raw.copy()
        ref[np.abs(ref) < 1e-300] = 0.0
        ref[ref < 0.0] = 0.0
        ref[ref > _CLAMP_TOP] = _CLAMP_TOP
        assert [v.hex() for v in sp.eigenvalues.tolist()] == [v.hex() for v in ref.tolist()]
        assert sp.meta["clamped_zero"] == 4
        assert sp.meta["clamped_top"] == 2


class TestBesselBandSpectra:
    """Large-argument Bessel spectra with the Taylor band capped at 1e-3 in
    u: before the cap, band pairs carried relative errors up to 1e-5 there."""

    def test_log_det_agrees_across_n(self):
        # at gamma = 1/2 every factor is resolved; the uncapped band let log D
        # drift by 2e-11 between n = 300 and n = 700
        iv = IntervalSpec(Family.BESSEL, 1e4)
        vals = [log_fredholm_det(compute_spectrum(build_discretization(bessel_spec(0.0), iv, n)),
                                 0.5)
                for n in (300, 500, 700)]
        assert max(vals) - min(vals) <= 1e-12, vals


def _deep(spec, s, n):
    return compute_spectrum(build_discretization(spec, IntervalSpec(spec.family, s), n))


class TestResolutionFloor:
    """A factor 1 - gamma lambda_0 below n eps, the eigensolver's absolute
    error bound, carries no resolved digit; every public reader of such a
    factor warns, and Spectrum.meta records the floor and the count below it."""

    # the deep-gap rows of the ROADMAP table: log D at gamma = 1 is wrong in
    # each, by 0.1 (Airy s = -12, n = 160) to 1232 (Airy s = -30)
    DEEP = [
        (AIRY, -12.0, 80),
        (AIRY, -12.0, 160),
        (AIRY, -20.0, 200),
        (AIRY, -30.0, 200),
        (SINE, 25.0, 80),
        (SINE, 25.0, 160),
        (SINE, 25.0, 240),
        (bessel_spec(0.0), 900.0, 200),
    ]

    @pytest.mark.parametrize("spec, s, n", DEEP)
    def test_deep_gap_rows_warn(self, spec, s, n):
        sp = _deep(spec, s, n)
        assert sp.meta["floor"] == n * np.finfo(float).eps
        assert sp.meta["unresolved_top"] >= 1
        with pytest.warns(PrecisionWarning, match="below the resolvable floor"):
            log_fredholm_det(sp, 1.0)

    def test_unresolved_top_counts_factors_below_floor(self):
        sp = _deep(AIRY, -20.0, 200)
        lam = np.asarray(sp.eigenvalues)
        assert sp.meta["unresolved_top"] == int(np.count_nonzero(1.0 - lam < sp.meta["floor"]))
        # the clamp misses the Airy s = -12, n = 160 factor; the floor does not
        sp = _deep(AIRY, -12.0, 160)
        assert sp.meta["clamped_top"] == 0 and sp.meta["unresolved_top"] == 1

    def test_every_reader_warns_on_every_call(self):
        sp = _deep(AIRY, -12.0, 160)
        for _ in range(2):
            # the second round reads the counting memo
            for call in (
                lambda: log_fredholm_det(sp, 1.0),
                lambda: counting_prob(sp, 3),
                lambda: counting_prob(sp, np.arange(4)),
                lambda: counting_ratio(sp, 2),
                lambda: verify.lidskii_split(sp, 3.0, 2),
            ):
                with pytest.warns(PrecisionWarning, match="below the resolvable floor"):
                    call()
        with pytest.warns(PrecisionWarning, match="d_ds_log_det"):
            d_ds_log_det(AIRY, -12.0, 1.0, n=160)

    def test_silent_when_gamma_keeps_factors_away_from_one(self):
        sp = _deep(AIRY, -30.0, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_fredholm_det(sp, 0.5)
            counting_prob(sp, 4, gamma=1.0 - 1e-9)
            d_ds_log_det(AIRY, -12.0, 0.9, n=160)

    def test_resolved_spectrum_silent(self):
        sp = _deep(AIRY, -6.0, 200)
        assert sp.meta["unresolved_top"] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_fredholm_det(sp, 1.0)
            counting_ratio(sp, 3)


class TestSineParity:
    """The sine spectrum comes from the even and odd blocks of its matrix
    under the index reversal x_i -> -x_i; the blocks read only half the
    entries, so the split is right only while the matrix is persymmetric."""

    @pytest.mark.parametrize("n", [2, 3, 60, 61, 80, 300])
    @pytest.mark.parametrize("s", [0.5, 2.0, 6.0, 10.0])
    def test_matrix_persymmetric_bitwise(self, n, s):
        m = np.asarray(build_discretization(SINE, IntervalSpec(Family.SINE, s), n).matrix)
        assert np.array_equal(m, m[::-1, ::-1])

    @pytest.mark.parametrize("s, n", [(4.0, 61), (6.0, 80)])
    def test_against_mpmath_eigsy(self, s, n):
        d = build_discretization(SINE, IntervalSpec(Family.SINE, s), n)
        ref = mp.eigsy(mp.matrix(np.asarray(d.matrix).tolist()), eigvals_only=True)
        ref = np.clip(sorted((float(v) for v in ref), reverse=True), 0.0, _CLAMP_TOP)
        got = np.asarray(compute_spectrum(d).eigenvalues)
        assert np.max(np.abs(got - ref)) < 1e-14

    @pytest.mark.parametrize(
        "s, n", [(0.5, 1), (1.0, 2), (1.0, 3), (2.0, 79), (6.0, 80), (10.0, 80), (2.0, 300), (9.0, 300)]
    )
    def test_matches_full_eigensolve(self, s, n):
        d = build_discretization(SINE, IntervalSpec(Family.SINE, s), n)
        full = np.clip(np.linalg.eigvalsh(np.asarray(d.matrix))[::-1], 0.0, _CLAMP_TOP)
        got = np.asarray(compute_spectrum(d).eigenvalues)
        assert got.shape == (n,)
        assert np.max(np.abs(got - full)) < 1e-14

    @pytest.mark.parametrize(
        "spec, s, n",
        [
            (SINE, 0.5, 1),
            (SINE, 0.5, 2),
            (SINE, 0.5, 3),
            (SINE, 3.0, 60),
            (SINE, 3.0, 61),
            (SINE, 8.0, 300),
            (AIRY, -4.0, 60),
            (AIRY, -4.0, 61),
            (bessel_spec(0.5), 16.0, 60),
            (bessel_spec(2.0), 9.0, 61),
        ],
    )
    def test_both_spectrum_functions_bit_identical(self, spec, s, n):
        d = build_discretization(spec, IntervalSpec(spec.family, s), n)
        sp = compute_spectrum(d)
        sp2, vecs = compute_spectrum_with_vectors(d)
        assert np.array_equal(sp.eigenvalues, sp2.eigenvalues)
        assert sp.meta == sp2.meta
        assert vecs.shape == (n, n)


def _fake_spectrum(eigs):
    return Spectrum(np.asarray(eigs, dtype=float), len(eigs), {})


class TestDeterminants:
    def test_log_det_matches_product(self):
        sp = _fake_spectrum([0.9, 0.5, 0.1, 1e-8])
        assert math.exp(log_fredholm_det(sp, 0.7)) == pytest.approx(fredholm_det(sp, 0.7), rel=1e-14)

    def test_pole_error(self):
        sp = _fake_spectrum([0.5])
        with pytest.raises(PoleError):
            log_fredholm_det(sp, 2.0)

    def test_gamma_zero(self):
        sp = _fake_spectrum([0.3, 0.2])
        assert fredholm_det(sp, 0.0) == 1.0
        assert log_fredholm_det(sp, 0.0) == 0.0

    def test_underflow_warns(self):
        # 0.1^800 is below the smallest double: the product reads 0.0
        # although every factor is positive and the log-det is finite
        sp = _fake_spectrum([0.9] * 800)
        with pytest.warns(PrecisionWarning, match="log_fredholm_det"):
            assert fredholm_det(sp, 1.0) == 0.0
        with pytest.warns(PrecisionWarning, match="log_fredholm_det"):
            assert counting_prob(sp, 0) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_fredholm_det(sp, 1.0) == pytest.approx(800 * math.log(0.1), rel=1e-12)

    def test_no_warning_without_underflow(self):
        sine = compute_spectrum(build_discretization(SINE, IntervalSpec(Family.SINE, 3.0), 80))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fredholm_det(sine, 1.0) > 0.0
            assert counting_prob(sine, 2) > 0.0
            assert fredholm_det(_fake_spectrum([0.9, 0.5, 0.1]), 0.7) > 0.0
            # a factor that is exactly zero makes D = 0 exactly: no underflow
            assert fredholm_det(_fake_spectrum([0.5, 0.25]), 2.0) == 0.0


class TestCounting:
    @given(st.lists(st.floats(min_value=1e-12, max_value=0.999), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_esp_against_numpy_poly(self, lam):
        # e_n(mu) are (up to sign) the coefficients of prod(x - mu_i),
        # which numpy.poly computes by convolution: an independent oracle
        sp = _fake_spectrum(sorted(lam, reverse=True))
        mu = np.asarray(lam) / (1.0 - np.asarray(lam))
        coeffs = np.poly(-mu)  # prod(x + mu_i): coeffs[k] = e_k(mu)
        det = float(np.prod(1.0 - np.asarray(lam)))
        for n in range(len(lam) + 1):
            ref = det * coeffs[n]
            assert counting_prob(sp, n) == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_normalization(self):
        sp = compute_spectrum(build_discretization(SINE, IntervalSpec(Family.SINE, 3.0), 100))
        total = sum(counting_prob(sp, n) for n in range(len(sp.eigenvalues) + 1))
        assert abs(total - 1.0) < 1e-10

    def test_thinned_normalization(self):
        sp = _fake_spectrum([0.8, 0.4, 0.05])
        total = sum(counting_prob(sp, n, gamma=0.35) for n in range(4))
        assert abs(total - 1.0) < 1e-14

    def test_ratio_consistent(self):
        sp = _fake_spectrum([0.7, 0.2, 0.01])
        for n in (1, 2, 3):
            assert counting_ratio(sp, n) == pytest.approx(
                counting_prob(sp, n) / counting_prob(sp, 0), rel=1e-12
            )

    def test_arguments(self):
        sp = _fake_spectrum([0.5])
        with pytest.raises(ArgumentError):
            counting_prob(sp, -1)
        with pytest.raises(ArgumentError):
            counting_ratio(sp, 0)
        assert counting_prob(sp, 5) == 0.0

    def test_degenerate_gamma(self):
        sp = _fake_spectrum([1.0 - 1e-16])
        with pytest.raises(DegeneracyError):
            counting_prob(sp, 0, gamma=1.0 + 1e-5)

    @staticmethod
    def _esp_loop(mu):
        # the former implementation, kept verbatim as the reference
        e = np.zeros(len(mu) + 1)
        e[0] = 1.0
        top = 0
        for m in mu:
            top += 1
            for k in range(top, 0, -1):
                e[k] += m * e[k - 1]
        return e

    def _assert_esp_bitwise(self, mu):
        ref = self._esp_loop(mu)
        for k in range(len(mu) + 1):
            got = _esp_all(mu, k)
            assert len(got) == k + 1
            assert got[k].tobytes() == ref[k].tobytes(), k

    def test_esp_matches_descending_loop_bitwise(self):
        rng = np.random.default_rng(20)
        for size in (1, 2, 7, 40, 90):
            self._assert_esp_bitwise(10.0 ** rng.uniform(-30.0, 16.0, size))
        # sorted both ways: the running sums meet the large terms first or last
        mu = 10.0 ** rng.uniform(-30.0, 16.0, 60)
        self._assert_esp_bitwise(np.sort(mu))
        self._assert_esp_bitwise(np.sort(mu)[::-1])

    def test_esp_matches_descending_loop_on_sine_spectrum(self):
        sp = compute_spectrum(build_discretization(SINE, IntervalSpec(Family.SINE, 5.0), 300))
        for gamma in (1.0, 1.0 - 1e-9):
            lam = gamma * np.asarray(sp.eigenvalues)
            self._assert_esp_bitwise(lam / (1.0 - lam))

    def test_counting_prob_near_unit_gamma_against_numpy_poly(self):
        gamma = 1.0 - 1e-9
        sp = compute_spectrum(build_discretization(SINE, IntervalSpec(Family.SINE, 5.0), 300))
        lam = gamma * np.asarray(sp.eigenvalues)
        coeffs = np.poly(-(lam / (1.0 - lam)))
        det = float(np.prod(1.0 - lam))
        for n in range(len(lam) + 1):
            ref = det * coeffs[n]
            assert counting_prob(sp, n, gamma) == pytest.approx(ref, rel=1e-9, abs=1e-300)

    @staticmethod
    def _counting_prob_one_degree(sp, n, gamma=1.0):
        # the former one-degree implementation, kept verbatim as the reference
        n = int(n)
        if n < 0:
            raise ArgumentError("counting_prob requires n >= 0")
        if n > len(sp.eigenvalues):
            return 0.0
        mu = _mu_values(sp, gamma)
        return fredholm_det(sp, gamma) * float(_esp_all(mu, n)[n])

    @staticmethod
    def _counting_ratio_one_degree(sp, n):
        # the former one-degree implementation, kept verbatim as the reference
        n = int(n)
        if n < 1:
            raise ArgumentError("counting_ratio requires n >= 1")
        if n > len(sp.eigenvalues):
            return 0.0
        mu = _mu_values(sp, 1.0)
        return float(_esp_all(mu, n)[n])

    @pytest.mark.parametrize("s, n", [(1.0, 40), (5.0, 120)])
    def test_array_of_degrees_matches_one_degree_code_bitwise(self, s, n):
        sp = compute_spectrum(build_discretization(SINE, IntervalSpec(Family.SINE, s), n))
        degrees = np.arange(n + 3)  # 0..N+2
        shuffled = np.random.default_rng(3).permutation(degrees)
        for gamma in (1.0, 0.37, 1.0 - 1e-9):
            ref = [self._counting_prob_one_degree(sp, k, gamma) for k in degrees]
            for k in degrees:
                got = counting_prob(sp, int(k), gamma)
                assert type(got) is float and got.hex() == ref[k].hex(), (gamma, k)
            assert counting_prob(sp, degrees, gamma).tobytes() == np.array(ref).tobytes()
            got = counting_prob(sp, shuffled, gamma)
            assert got.tobytes() == np.array(ref)[shuffled].tobytes()
        ref = [self._counting_ratio_one_degree(sp, k) for k in degrees[1:]]
        for k in degrees[1:]:
            got = counting_ratio(sp, int(k))
            assert type(got) is float and got.hex() == ref[k - 1].hex(), k
        assert counting_ratio(sp, degrees[1:]).tobytes() == np.array(ref).tobytes()
        # a list of degrees, and degrees all above N
        assert counting_ratio(sp, [3, 1]).tolist() == [ref[2], ref[0]]
        assert counting_prob(sp, [n + 1, n + 2]).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize(
        "spec, interval",
        [
            (SINE, IntervalSpec(Family.SINE, 3.0)),
            (AIRY, IntervalSpec(Family.AIRY, -4.0)),
            (bessel_spec(0.5), IntervalSpec(Family.BESSEL, 50.0)),
        ],
    )
    def test_memo_keeps_the_bits_in_any_call_order(self, spec, interval):
        # every call reads and extends the spectrum's memo; each value must
        # still be the one-degree code's, whatever the calls before it were
        sp = compute_spectrum(build_discretization(spec, interval, 40))
        n = len(sp.eigenvalues)
        degrees = list(range(n + 3))  # 0..N+2
        orders = [degrees, degrees[::-1], np.random.default_rng(7).permutation(degrees).tolist()]
        ref = {g: np.array([self._counting_prob_one_degree(sp, k, g) for k in degrees])
               for g in (0.3, 1.0)}
        ratio = np.array([0.0] + [self._counting_ratio_one_degree(sp, k) for k in degrees[1:]])

        def check(got, want):
            assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()

        def prob(k, g):
            check(counting_prob(sp, k, g), ref[g][k] if np.ndim(k) else float(ref[g][k]))

        for g in (0.3, 1.0, 0.3):
            for order in orders:
                for k in order[:5]:
                    prob(k, g)
                prob(np.array(order[5:12]), g)
                check(counting_ratio(sp, order[12] or 1), float(ratio[order[12] or 1]))
                for k in order[12:]:
                    prob(k, g)
            prob(np.array([n + 2, 3, n + 1, 0]), g)
            check(counting_ratio(sp, np.array([n, 2, n + 2])), ratio[[n, 2, n + 2]])

    def test_memo_raises_on_every_degenerate_call(self):
        sp = _fake_spectrum([0.9, 0.5])
        for _ in range(2):
            assert counting_prob(sp, 1, 0.5) > 0.0
            for n in (0, 1, 1, 2, np.arange(3)):
                with pytest.raises(DegeneracyError):
                    counting_prob(sp, n, 1.2)  # 1.2 * 0.9 >= 1
        assert counting_prob(sp, 2, 0.5) == self._counting_prob_one_degree(sp, 2, 0.5)

    def test_memo_warns_on_every_underflowing_call(self):
        sp = _fake_spectrum([0.9] * 800)
        calls = [0, 1, 2, 1, np.arange(4), 0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for n in calls:
                counting_prob(sp, n)
        assert [w.category for w in caught] == [PrecisionWarning] * len(calls)

    def test_memo_is_outside_equality_and_repr(self):
        eigs = np.array([0.7, 0.2, 0.01])
        sp, twin = Spectrum(eigs, 3, {}), Spectrum(eigs, 3, {})
        before = repr(sp)
        counting_prob(sp, np.arange(4), 0.5)
        counting_ratio(sp, 2)
        assert sp == twin and repr(sp) == before == repr(twin)
        assert "memo" not in before

    def test_array_of_degrees_edges(self):
        sp = _fake_spectrum([0.7, 0.2, 0.01])
        for fn in (counting_prob, counting_ratio):
            empty = fn(sp, np.array([], dtype=int))
            assert empty.shape == (0,) and empty.dtype == float
        with pytest.raises(ArgumentError):
            counting_prob(sp, np.array([2, -1, 0]))
        with pytest.raises(ArgumentError):
            counting_ratio(sp, np.array([1, 0]))
        with pytest.raises(ArgumentError):
            counting_prob(sp, np.zeros((2, 2), dtype=int))

    def test_degrees_must_be_integers(self):
        # a float or bool degree is refused, never truncated to an int
        sp = _fake_spectrum([0.7, 0.2, 0.01])
        for fn, n in [
            (counting_prob, 2.5), (counting_prob, True), (counting_prob, np.float64(2.0)),
            (counting_prob, np.array([0.9, 1.5])), (counting_prob, [1, 2.0]),
            (counting_prob, np.array([True, False])), (counting_ratio, 1.7),
        ]:
            with pytest.raises(ArgumentError, match="integer degrees"):
                fn(sp, n)
        ref = [counting_prob(sp, k) for k in range(4)]
        for n in (2, np.int32(2), np.uint8(2), np.int64(2)):
            got = counting_prob(sp, n)
            assert type(got) is float and got == ref[2]
        for n in ([0, 1, 3], np.array([0, 1, 3], dtype=np.uint16), (0, 1, 3)):
            assert counting_prob(sp, n).tolist() == [ref[0], ref[1], ref[3]]
        for fn in (counting_prob, counting_ratio):
            empty = fn(sp, [])
            assert empty.shape == (0,) and empty.dtype == float

    def test_esp_degree_bounds(self):
        mu = np.array([1.0, 2.0, 3.0])
        assert _esp_all(mu, 0).tolist() == [1.0]
        assert _esp_all(np.array([]), 0).tolist() == [1.0]
        assert _esp_all(mu, 3).tolist() == [1.0, 6.0, 11.0, 6.0]
        assert _esp_all(mu[:1], 1).tolist() == [1.0, 1.0]


class TestLogDetDerivative:
    @pytest.mark.parametrize(
        "spec, s, gamma, n",
        [
            (SINE, 3.0, 0.8, 80),
            (SINE, 3.0, 1.0, 80),
            (AIRY, -2.0, 0.5, 80),
            (AIRY, -6.0, 1.0, 160),
            (bessel_spec(0.0), 100.0, 1.0, 160),
            (bessel_spec(0.5), 9.0, 0.7, 80),
        ],
        ids=["sine-0.8", "sine-1", "airy-2-0.5", "airy-6-1", "bessel0-100", "bessel0.5-9"],
    )
    def test_matches_direct_difference(self, spec, s, gamma, n):
        # The resolvent against a 5-point central difference of log D at
        # h = 1e-2. Its error budget: truncation h^4 f^(5) / 30, 1.4e-9
        # relative at Airy s = -2; and rounding 1.5 e / h, where log D itself
        # carries e ~ eps / (1 - lambda_0). At Bessel a = 0, s = 100
        # (1 - lambda_0 = 4.8e-7, e ~ 4.6e-10) that is up to 7e-8, or 2.8e-7
        # relative, inside rel = 1e-6; a 2-point difference at h = 1e-3
        # would carry e / h, 1.8e-6 relative, and no longer fit.
        h = 1e-2
        vals = []
        for ss in (s - 2 * h, s - h, s + h, s + 2 * h):
            sp = compute_spectrum(build_discretization(spec, IntervalSpec(spec.family, ss), n))
            vals.append(log_fredholm_det(sp, gamma))
        ref = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
        assert d_ds_log_det(spec, s, gamma, n=n) == pytest.approx(ref, rel=1e-6)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            d_ds_log_det(SINE, 3.0, 1.5, n=80)

    def test_degenerate_spectrum_raises(self):
        # at Airy s = -30 the n = 80 matrix has eigenvalues above 1
        with pytest.raises(DegeneracyError):
            d_ds_log_det(AIRY, -30.0, 1.0, n=80)

    def test_sine_derivative_value(self):
        # d/ds log D must be negative (the gap shrinks the determinant) and
        # stable under refinement
        a = d_ds_log_det(SINE, 2.0, 1.0, n=80)
        b = d_ds_log_det(SINE, 2.0, 1.0, n=140)
        assert a < 0.0
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))
