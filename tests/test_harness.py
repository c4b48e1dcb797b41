import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from vapormem import core, engine, harness, physics, seqlang
from vapormem.core import (
    DomainError,
    DuplicateRailError,
    FitResult,
    OpKind,
    Operation,
    OutOfBandError,
    RailCalibration,
    Sequence,
    UnknownRailError,
    default_params,
    default_rails,
)
from vapormem.cli import ORACLE_GRID
from vapormem.harness import (
    MAX_ORACLE_ATOMS,
    FitConvergenceError,
    FitError,
    TraceMismatchError,
    check_criteria,
    extrapolate_efficiency,
    fit_exponential,
    monte_carlo_overlap,
    monte_carlo_overlaps,
    random_access_sequence,
    scan_crosstalk,
    scan_grid,
    scan_lifetime,
    weighted_mean,
)

P = default_params()
RAILS = default_rails()


class TestScanGrid:
    def test_standard_grids_are_exact(self):
        assert ([x.hex() for x in harness.CROSSTALK_SEPARATIONS_MHZ]
                == [float(k).hex() for k in range(26)])
        assert ([x.hex() for x in harness.LIFETIME_DELAYS_US]
                == [((k * 400) / 1000).hex() for k in range(1, 29)])

    def test_points_are_exact_decimal_steps(self):
        # lo + k * step in floats ends at 0.30000000000000004
        assert scan_grid(0.1, 0.3, 0.1) == (0.1, 0.2, 0.3)
        assert scan_grid(-5.0, 5.0, 2.5) == (-5.0, -2.5, 0.0, 2.5, 5.0)
        assert scan_grid(3.0, 3.0, 1e300) == (3.0,)

    def test_point_count_capped(self):
        assert len(scan_grid(0.0, harness.MAX_SCAN_POINTS - 1, 1.0)) == harness.MAX_SCAN_POINTS
        with pytest.raises(DomainError, match=f"{harness.MAX_SCAN_POINTS + 1} points"):
            scan_grid(0.0, harness.MAX_SCAN_POINTS, 1.0)
        # 2e600 points: counted exactly, never built
        with pytest.raises(DomainError, match="points"):
            scan_grid(-1e300, 1e300, 1e-300)

    @given(first=st.floats(-1e3, 1e3) | st.integers(-10**6, 10**6).map(lambda k: k / 1000),
           step=(st.floats(1e-3, 1e3) | st.integers(1, 10**4).map(lambda k: k / 1000)
                 | st.floats(1e-300, 1e300)),
           count=st.integers(0, 300), nudge=st.sampled_from([0.0, 1e-9, -1e-9, 0.5]))
    @example(first=0.4, step=0.4, count=27, nudge=0.0)
    @example(first=-5.0, step=2.5, count=4, nudge=0.0)
    @example(first=1e-5, step=3e-7, count=10, nudge=0.0)
    def test_same_floats_as_exact_fractions(self, first, step, count, nudge):
        last = first + step * (count + nudge)
        assume(math.isfinite(last) and last >= first)
        lo, hi, d = (Fraction(repr(v)) for v in (first, last, step))
        n = (hi - lo) // d + 1
        assume(n <= 1000)
        want = [float(lo + k * d).hex() for k in range(n)]
        assert [x.hex() for x in scan_grid(first, last, step)] == want

    @pytest.mark.parametrize("args,message", [
        ((0.0, math.inf, 1.0), "must be finite"),
        ((math.nan, 1.0, 1.0), "must be finite"),
        ((0.0, 1.0, 0.0), "strictly positive"),
        ((0.0, 1.0, -1.0), "strictly positive"),
        ((2.0, 1.0, 1.0), "must not exceed"),
        ((0.0, 10**400, 1.0), "must be finite"),
    ])
    def test_domain(self, args, message):
        with pytest.raises(DomainError, match=message):
            scan_grid(*args)


class TestScanCrosstalk:
    def test_default_grid(self):
        result = scan_crosstalk(P, RAILS)
        assert len(result.axis) == 26
        assert result.axis[0] == 0.0 and result.axis[-1] == 25.0
        assert set(result.series) == {"peak1", "peak2"}

    def test_zero_separation_leaves_nothing_for_second_read(self):
        result = scan_crosstalk(P, RAILS, [0.0])
        assert result.series["peak2"][0] <= 0.01 * result.series["peak1"][0]

    def test_monotone_series(self):
        result = scan_crosstalk(P, RAILS)
        p1, p2 = result.series["peak1"], result.series["peak2"]
        assert all(b <= a for a, b in zip(p1, p1[1:]))
        assert all(b >= a for a, b in zip(p2, p2[1:]))

    def test_20mhz_influence_invisible(self):
        result = scan_crosstalk(P, RAILS)
        p1, p2 = result.series["peak1"], result.series["peak2"]
        assert p1[20] <= 0.02 * p1[0]
        assert p2[20] == pytest.approx(p2[25], rel=0.02)  # at its large-separation asymptote

    def test_out_of_band_separation_rejected(self):
        with pytest.raises(OutOfBandError):
            scan_crosstalk(P, RAILS, [61.0])

    def test_write_rail_must_be_calibrated(self):
        with pytest.raises(UnknownRailError):
            scan_crosstalk(P, [c for c in RAILS if c.f_rail != 190.0])

    def test_rail_calibrated_twice_rejected(self):
        # the scan reads only 190 MHz, but a second 230 MHz calibration is
        # still refused, as Memory refuses it
        cal230 = RAILS[-1]
        with pytest.raises(DuplicateRailError, match=r"^rail 230 MHz declared twice$"):
            scan_crosstalk(P, [*RAILS, core.replace(cal230, tau_us=1.0)], [0.0])


class TestScanLifetime:
    def test_default_grid(self):
        result = scan_lifetime(P, RAILS, 190.0)
        assert len(result.axis) == 28
        assert result.axis[0] == 0.4 and result.axis[-1] == 11.2

    def test_pure_exponential_ratio(self):
        result = scan_lifetime(P, RAILS, 190.0)
        expect = math.exp(-0.4 / 5.4)
        vals = result.series["retrieved"]
        for a, b in zip(vals, vals[1:]):
            assert b / a == pytest.approx(expect, rel=1e-9)

    def test_one_lifetime_is_1_over_e(self):
        result = scan_lifetime(P, RAILS, 190.0, [0.4, 5.4])
        r = result.series["retrieved"]
        extrapolated_zero = r[0] * math.exp(0.4 / 5.4)
        assert r[1] / extrapolated_zero == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_rail_230_late_read(self):
        result = scan_lifetime(P, RAILS, 230.0, [4.4])
        assert result.series["retrieved"][0] == pytest.approx(
            0.36 * math.exp(-4.4 / 2.6), rel=1e-12)
        assert result.series["retrieved"][0] == pytest.approx(0.0662739122351895, rel=1e-12)

    def test_rail_calibrated_twice_rejected(self):
        # the last calibration used to win without a word: 0.1288, not 0.2908
        cal190 = next(c for c in RAILS if c.f_rail == 190.0)
        with pytest.raises(DuplicateRailError, match=r"^rail 190 MHz declared twice$"):
            scan_lifetime(P, [cal190, core.replace(cal190, tau_us=1.0)], 190.0, [1.0])

    def test_delays_must_ascend(self):
        with pytest.raises(DomainError):
            scan_lifetime(P, RAILS, 190.0, [0.8, 0.4])
        with pytest.raises(DomainError):
            scan_lifetime(P, RAILS, 190.0, [0.0, 0.4])

    @pytest.mark.parametrize("delays", [[0.4, math.nan], [math.nan]])
    def test_nan_delay_is_a_domain_error(self, delays):
        with pytest.raises(DomainError, match="ascending"):
            scan_lifetime(P, RAILS, 190.0, delays)

    def test_delay_past_a_float_in_ns_is_a_domain_error(self):
        # 1e306 us is finite, but 1e309 ns is not
        with pytest.raises(DomainError, match="finite in ns"):
            scan_lifetime(P, RAILS, 190.0, [0.4, 1e306])

    def test_fit_recovers_every_rail(self):
        for cal in RAILS:
            scan = scan_lifetime(P, RAILS, cal.f_rail)
            fit = fit_exponential(zip(scan.axis, scan.series["retrieved"]))
            assert fit.tau_us == pytest.approx(cal.tau_us, rel=1e-6)
            assert fit.a0 == pytest.approx(cal.eta_mem, rel=1e-6)


class TestFitExponential:
    DELAYS = harness.LIFETIME_DELAYS_US

    def test_exact_recovery(self):
        pts = [(t, 2.0 * math.exp(-t / 3.3)) for t in self.DELAYS]
        fit = fit_exponential(pts)
        assert fit.tau_us == pytest.approx(3.3, rel=1e-6)
        assert fit.a0 == pytest.approx(2.0, rel=1e-6)
        assert fit.rss <= 1e-20

    def test_noisy_recovery_single_seed(self):
        import numpy as np
        rng = np.random.default_rng(42)
        truth = [0.39 * math.exp(-t / 3.3) for t in self.DELAYS]
        pts = [(t, y * (1.0 + 0.05 * rng.standard_normal())) for t, y in zip(self.DELAYS, truth)]
        fit = fit_exponential(pts)
        assert abs(fit.tau_us - 3.3) / 3.3 < 0.05
        assert fit.tau_err_us > 0.0

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_exponential([(0.4, 1.0), (0.8, 0.9)])

    def test_non_positive_energy(self):
        with pytest.raises(FitError):
            fit_exponential([(0.4, 1.0), (0.8, 0.0), (1.2, 0.5)])

    def test_all_times_equal_is_singular(self):
        with pytest.raises(FitError, match="^singular system: all times are equal$"):
            fit_exponential([(0.4, 1.0), (0.4, 0.9), (0.4, 0.8)])

    def test_non_decaying_data(self):
        with pytest.raises(FitError, match="^data does not decay$"):
            fit_exponential([(0.4, 1.0), (0.8, 2.0), (1.2, 4.0)])

    def test_convergence_error_is_distinct(self, monkeypatch):
        assert issubclass(FitConvergenceError, FitError)
        # on noisy data the log-linear start is not the relative-residual
        # minimum, so one Gauss-Newton step does not reach the tolerance
        monkeypatch.setattr(harness, "_GN_MAX_ITER", 1)
        noisy = [(0.4, 1.0), (0.8, 0.5), (1.2, 0.4), (1.6, 0.15)]
        with pytest.raises(FitConvergenceError,
                           match=r"^no convergence after 1 Gauss-Newton iterations$"):
            fit_exponential(noisy)

    @pytest.mark.parametrize("pts,message", [
        ([(0.4, 1.0), (0.8, math.nan), (1.2, 0.5)], "must be finite"),
        ([(0.4, 1.0), (math.inf, 0.7), (1.2, 0.5)], "must be finite"),
        ([(0.4, 1e-320), (0.8, 1e-321), (1.2, 1e-322)], "1/energy must be finite"),
        # a singular normal matrix JᵀJ (an exactly zero LU pivot)
        ([(0.0, 1e300), (1.0, 1e-300), (2.0, 1e-305)], "failed numerically"),
        # (t - tbar)^2 overflows; it underflows to 0; a0 = exp(...) overflows
        ([(0.0, 1.0), (1e300, 0.5), (2e300, 0.2)], "failed numerically"),
        ([(0.0, 1.0), (1e-320, 0.5), (2e-320, 0.2)], "failed numerically"),
        ([(1000.0, 1.0), (1001.0, 0.01), (1002.0, 1e-4)], "failed numerically"),
        # the inverse of JᵀJ overflows, so the covariance is inf
        ([(0.0, 1.394), (2.18e146, 0.741), (6.59e-174, 0.572), (1.375, 4.04e31)],
         "tau_err_us must be finite"),
        # the first Gauss-Newton step takes tau below zero
        ([(2.0, 2.0), (3.0, 0.2), (5.0, 0.1)], "^fit left the valid parameter domain$"),
    ], ids=["nan", "inf", "subnormal", "singular", "overflow", "underflow", "exp-overflow",
            "inf-covariance", "left-domain"])
    def test_numeric_edges_are_fit_errors(self, pts, message):
        with pytest.raises(FitError, match=message):
            fit_exponential(pts)

    @given(n=st.integers(3, 40), tau=st.floats(0.3, 30.0), a0=st.floats(1e-3, 10.0),
           span=st.floats(0.5, 4.0), data=st.data())
    def test_matches_lstsq_reference(self, n, tau, a0, span, data):
        """Well-conditioned decays: n points over span * tau, noise up to 10 %."""
        noise = data.draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
        pts = [(span * tau * i / (n - 1), a0 * math.exp(-span * i / (n - 1)) * (1.0 + e))
               for i, e in enumerate(noise)]
        ref = lstsq_reference_fit(pts)
        fit = fit_exponential(pts)
        assert fit.tau_us == pytest.approx(ref.tau_us, rel=1e-9)
        assert fit.a0 == pytest.approx(ref.a0, rel=1e-9)
        if ref.tau_err_us > 1e-12 * ref.tau_us:
            assert fit.tau_err_us == pytest.approx(ref.tau_err_us, rel=1e-6)

    @given(n=st.integers(3, 40), k=st.sampled_from([-4.0, -0.5, 0.25, 1.0, 8.0]),
           s_exp=st.one_of(st.none(), st.floats(0.0, 9.0)), data=st.data())
    def test_lstsq_step_matches_numpy(self, n, k, s_exp, data):
        """The QR step is np.linalg.lstsq(rcond=None)'s solution of a consistent
        system with columns c0 and k c0 + 10^-s_exp u, or exactly k c0 (rank one)."""
        vec = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
        c0, u = np.array(data.draw(vec)), np.array(data.draw(vec))
        c1 = k * c0 if s_exp is None else k * c0 + 10.0 ** -s_exp * u
        jac = np.column_stack((c0, c1))
        s_max, s_min = np.linalg.svd(jac, compute_uv=False)
        assume(s_max > 1e-3)
        ratio, cut = s_min / s_max, np.finfo(float).eps * n
        assume(ratio <= cut / 100 or ratio > 100 * cut)  # rank is clear-cut
        x_true = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)))
        b = jac @ x_true
        ref, *_ = np.linalg.lstsq(jac, b, rcond=None)
        x = harness._lstsq_step((c0.tolist(), c1.tolist()), b.tolist())
        # a truncated rank-one solve is well conditioned; a full-rank one
        # loses about n eps / ratio relative to the solution
        tol = 1e-9 if ratio <= cut else 100 * cut / ratio
        assert np.allclose(x, ref, rtol=0.0, atol=tol * (1.0 + np.linalg.norm(x_true)))

    # [[0, 0], [0, 1]] has a zero first pivot; [[1, 1], [1, 1]] a zero second one
    @pytest.mark.parametrize("a,b,d", [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
    def test_inverse_zero_pivot_is_singular(self, a, b, d):
        with pytest.raises(ArithmeticError, match="^Singular matrix$"):
            harness._inverse_11(a, b, d)

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(min_value=0.0, exclude_min=True,
                                        allow_infinity=False)),
                    min_size=3, max_size=12))
    @example([(0.4, 1e-320), (0.8, 1e-321), (1.2, 1e-322)])
    @example([(0.0, 1e300), (1.0, 1e-300), (2.0, 1e-305)])
    @example([(0.0, 1.0), (1e300, 0.5), (2e300, 0.2)])
    @example([(0.0, 1.0), (1e-320, 0.5), (2e-320, 0.2)])
    @example([(1000.0, 1.0), (1001.0, 0.01), (1002.0, 1e-4)])
    @example([(0.0, 1.394), (2.18e146, 0.741), (6.59e-174, 0.572), (1.375, 4.04e31)])
    def test_finite_points_fit_or_raise_fit_error(self, pts):
        """No OverflowError, ZeroDivisionError or math domain ValueError escapes."""
        try:
            fit = fit_exponential(pts)
        except FitError:
            return
        assert isinstance(fit, FitResult)


def lstsq_reference_fit(points) -> FitResult:
    """The fit before it left numpy: np.linalg.lstsq steps, np.linalg.inv covariance."""
    ts = np.array([float(t) for t, _ in points])
    ys = np.array([float(y) for _, y in points])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        ln = np.log(ys)
        tbar, lbar = ts.mean(), ln.mean()
        sxx = float(np.sum((ts - tbar) ** 2))
        slope = float(np.sum((ts - tbar) * (ln - lbar))) / sxx
        a0 = math.exp(lbar - slope * tbar)
        tau = -1.0 / slope
        w = 1.0 / ys
        for _ in range(harness._GN_MAX_ITER):
            model = a0 * np.exp(-ts / tau)
            resid = (model - ys) * w
            jac = np.column_stack(((model / a0) * w, (model * ts / (tau * tau)) * w))
            delta, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
            step = max(abs(delta[0] / a0), abs(delta[1] / tau))
            a0 += float(delta[0])
            tau += float(delta[1])
            if step < harness._GN_TOL:
                break
        else:
            raise AssertionError("the reference fit did not converge")
        model = a0 * np.exp(-ts / tau)
        resid = (model - ys) * w
        jac = np.column_stack(((model / a0) * w, (model * ts / (tau * tau)) * w))
        rss = float(resid @ resid)
        dof = len(ts) - 2
        sigma2 = rss / dof if dof > 0 else 0.0
        cov = sigma2 * np.linalg.inv(jac.T @ jac)
    return FitResult(a0=float(a0), tau_us=float(tau),
                     tau_err_us=float(math.sqrt(max(cov[1, 1], 0.0))), rss=rss)


class TestExtrapolateEfficiency:
    def test_rail_190_round_trip(self):
        e_read = 0.35 * math.exp(-0.4 / 5.4)
        assert extrapolate_efficiency(e_read, 0.4, 5.4) == pytest.approx(0.35, rel=1e-12)

    def test_rail_230_round_trip(self):
        e_read = 0.36 * math.exp(-4.4 / 2.6)
        assert extrapolate_efficiency(e_read, 4.4, 2.6) == pytest.approx(0.36, rel=1e-12)

    def test_zero_delay_is_plain_normalization(self):
        assert extrapolate_efficiency(0.123, 0.0, 3.3) == 0.123

    def test_identity_through_the_model(self):
        for cal in RAILS:
            for t_read in (0.4, 1.0, 4.4, 10.0):
                scan = scan_lifetime(P, RAILS, cal.f_rail, [t_read])
                eta = extrapolate_efficiency(scan.series["retrieved"][0],
                                             t_read, cal.tau_us)
                assert eta == pytest.approx(cal.eta_mem, rel=1e-9)

    @pytest.mark.parametrize("args", [
        (0.0, 0.4, 5.4), (-0.1, 0.4, 5.4),
        (0.3, 0.4, 0.0), (0.3, 0.4, -5.4), (0.3, -0.1, 5.4),
    ])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            extrapolate_efficiency(*args)

    @pytest.mark.parametrize("args", [
        (math.nan, 0.4, 3.2), (0.3, math.nan, 3.2), (0.3, 0.4, math.nan),
    ])
    def test_nan_is_a_domain_error(self, args):
        with pytest.raises(DomainError):
            extrapolate_efficiency(*args)

    # exp(t / tau) overflows; the product with e_read overflows
    @pytest.mark.parametrize("args", [(1.0, 1000.0, 1e-3), (1e300, 1000.0, 1.0)])
    def test_overflow_is_a_domain_error(self, args):
        with pytest.raises(DomainError, match="finite float"):
            extrapolate_efficiency(*args)


class TestWeightedMean:
    def test_calibrated_lifetimes(self):
        mean, sigma = weighted_mean([4.3, 5.4, 3.3, 2.6], [0.5, 0.7, 0.3, 0.3])
        assert mean == pytest.approx(3.317971758664955, rel=1e-12)
        assert sigma == pytest.approx(0.18810077052375487, rel=1e-12)
        # consistent with the quoted 3.2(2) summary value
        assert abs(mean - 3.2) <= 0.2

    def test_equal_sigmas_is_arithmetic_mean(self):
        mean, _ = weighted_mean([1.0, 2.0, 6.0], [0.3, 0.3, 0.3])
        assert mean == pytest.approx(3.0, rel=1e-12)

    def test_single_value_is_identity(self):
        assert weighted_mean([4.2], [0.5]) == (pytest.approx(4.2), pytest.approx(0.5))

    def test_permutation_invariant(self):
        a = weighted_mean([4.3, 5.4, 3.3, 2.6], [0.5, 0.7, 0.3, 0.3])
        b = weighted_mean([2.6, 4.3, 3.3, 5.4], [0.3, 0.5, 0.3, 0.7])
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_errors(self):
        with pytest.raises(DomainError, match="^values and sigmas must have equal length$"):
            weighted_mean([1.0, 2.0], [0.1])
        with pytest.raises(DomainError, match="^sigmas must be strictly positive$"):
            weighted_mean([1.0], [0.0])
        # the weights check would refuse a zero sigma too, but not a negative one
        with pytest.raises(DomainError, match="^sigmas must be strictly positive$"):
            weighted_mean([1.0, 3.0], [-1.0, 1.0])
        with pytest.raises(DomainError, match="^need at least one value$"):
            weighted_mean([], [])

    @pytest.mark.parametrize("values,sigmas", [
        ([math.nan], [1.0]), ([math.inf], [1.0]), ([3.0, math.nan], [0.3, 0.3]),
        ([3.0], [math.nan]),
    ])
    def test_nan_is_a_domain_error(self, values, sigmas):
        with pytest.raises(DomainError):
            weighted_mean(values, sigmas)

    def test_overflowing_mean_is_a_domain_error(self):
        with pytest.raises(DomainError, match="finite float"):
            weighted_mean([1e308, 1e308], [1.0, 1.0])

    # s * s underflows to 0; 1 / (s * s) overflows; every weight underflows to 0
    @pytest.mark.parametrize("sigmas", [[0.3, 1e-308], [0.3, 1e-160], [1e200, 1e200]])
    def test_weights_must_be_finite(self, sigmas):
        with pytest.raises(DomainError, match="weights"):
            weighted_mean([3.0, 4.0], sigmas)


class TestRandomAccessSequence:
    def test_twelve_operations(self):
        assert len(random_access_sequence().ops) == 12

    def test_span_under_5us(self):
        assert random_access_sequence().ops[-1].t_ns == 4400.0 <= 5000.0

    def test_four_foreign_ops_during_190_storage(self):
        seq = random_access_sequence()
        between = [op for op in seq.ops if 1600.0 < op.t_ns < 3600.0]
        assert len(between) == 4
        assert all(op.f_rail != 190.0 for op in between)

    def test_validates_clean(self):
        from vapormem.seqlang import validate
        assert validate(random_access_sequence(), P) == []

    def test_demo_file_is_the_same_program(self):
        path = Path(__file__).resolve().parent.parent / "demos" / "random_access.seq"
        assert seqlang.parse(path.read_text(encoding="utf-8")) == random_access_sequence()

    def test_rails(self):
        assert random_access_sequence().rails == (170.0, 190.0, 210.0, 230.0)


def _run_canonical():
    seq = random_access_sequence()
    trace = engine.run_sequence(engine.Memory(P, RAILS), seq)
    return trace, seq


def _check_text(*ops):
    """check_criteria of ops such as "WRITE 190", 400 ns apart, on rails 190 and 230."""
    lines = [f"AT {400 * i}ns {verb} {rail}MHz" for i, (verb, rail) in
             enumerate(op.split() for op in ops)]
    seq = seqlang.parse("SEQUENCE s\nRAILS 190MHz 230MHz\n" + "\n".join(lines) + "\n")
    return check_criteria(engine.run_sequence(engine.Memory(P, RAILS), seq), seq, P, RAILS)


# each tolerance check_criteria divides a worst ratio by: the re-read one is
# (1 - dep(0)) + REREAD_TOL
CRITERIA_TOLERANCES = {
    "interaction": harness.INTERACTION_TOL,
    "empty": harness.EMPTY_TOL,
    "reread": (1.0 - physics.depletion_fraction(0.0, P)) + harness.REREAD_TOL,
}


class TestCheckCriteria:
    @pytest.mark.parametrize("tol", CRITERIA_TOLERANCES.values(), ids=CRITERIA_TOLERANCES)
    @given(data=st.data())
    def test_passed_by_margin_is_worst_within_tolerance(self, tol, data):
        # check_criteria stores only worst / tol; passed reads margin <= 1
        edges = [0.0, math.inf, tol, math.nextafter(tol, 0.0), math.nextafter(tol, math.inf)]
        worst = data.draw(st.sampled_from(edges) | st.floats(0.0, 2.0 * tol)
                          | st.floats(0.0, allow_infinity=True))
        for w in (worst, *edges):
            assert harness.CriterionCheck(w / tol).passed == (w <= tol)

    def test_passed_is_derived_and_read_only(self):
        check = harness.CriterionCheck(1.0)
        assert check.passed and not harness.CriterionCheck(math.nextafter(1.0, 2.0)).passed
        with pytest.raises(AttributeError):
            check.passed = False
        assert core.fields(check) == ("margin",)

    def test_canonical_program_passes_all(self):
        trace, seq = _run_canonical()
        report = check_criteria(trace, seq, P, RAILS)
        assert report.all_pass
        assert report.interaction_free.passed
        assert report.empty_state.passed
        assert report.full_retrieval.passed
        for check in (report.interaction_free, report.empty_state, report.full_retrieval):
            assert 0.0 <= check.margin <= 1.0

    def test_canonical_report_is_pinned(self):
        # margins recorded with the age-derived variance (the per-op increment
        # gave an empty_state margin one ulp higher, 0.4442484977213343)
        trace, seq = _run_canonical()
        report = check_criteria(trace, seq, P, RAILS)
        assert report.interaction_free.margin == 1.5095870586900872e-05
        assert report.empty_state.margin == 0.44424849772133423
        assert report.full_retrieval.margin == 0.057564809891105184

    def test_faint_component_counts_as_empty(self):
        # a component at or below 1e-12 does not make its rail occupied
        seq = Sequence("faint", (190.0,), (
            Operation(0.0, OpKind.WRITE, 190.0, 1e-13),
            Operation(400.0, OpKind.READ, 190.0),
        ))
        trace = engine.run_sequence(engine.Memory(P, RAILS), seq)
        assert 0.0 < trace.events[0].stored_after <= 1e-12
        report = check_criteria(trace, seq, P, RAILS)
        assert report.empty_state.margin == trace.events[1].out_energy / 0.01

    def test_8mhz_neighbor_breaks_interaction_free(self):
        rails = (RailCalibration(190.0, 5.4, 0.7, 0.35),
                 RailCalibration(198.0, 5.4, 0.7, 0.35))
        seq = Sequence("tight", (190.0, 198.0), (
            Operation(0.0, OpKind.WRITE, 190.0),
            Operation(400.0, OpKind.READ, 198.0),
            Operation(800.0, OpKind.READ, 190.0),
        ))
        trace = engine.run_sequence(engine.Memory(P, rails), seq)
        report = check_criteria(trace, seq, P, rails)
        assert not report.interaction_free.passed
        assert report.interaction_free.margin > 1.0

    def test_read_only_sequence_trivially_empty(self):
        seq = Sequence("reads", (190.0,), (
            Operation(0.0, OpKind.PUMP, 190.0),
            Operation(900.0, OpKind.READ, 190.0),
            Operation(1300.0, OpKind.READ, 190.0),
        ))
        trace = engine.run_sequence(engine.Memory(P, RAILS), seq)
        report = check_criteria(trace, seq, P, RAILS)
        assert report.all_pass
        assert report.empty_state.margin == 0.0
        assert report.full_retrieval.margin == 0.0  # nothing material to re-read

    def test_trace_mismatch_detected(self):
        trace, seq = _run_canonical()
        tampered = core.replace(
            trace, events=trace.events[:-1] + (
                core.replace(trace.events[-1], out_energy=0.123),))
        with pytest.raises(TraceMismatchError):
            check_criteria(tampered, seq, P, RAILS)
        with pytest.raises(TraceMismatchError):
            check_criteria(core.replace(trace, events=trace.events[:-1]), seq, P, RAILS)
        # an event with its operation's energy but another rail or kind
        last = trace.events[-1]
        for changed in ({"f_rail": 210.0}, {"kind": OpKind.PUMP}):
            moved = core.replace(trace, events=trace.events[:-1] + (
                core.replace(last, **changed),))
            with pytest.raises(TraceMismatchError, match="does not match its operation"):
                check_criteria(moved, seq, P, RAILS)

    def test_same_rail_pump_ends_the_pair(self):
        # the pump empties the 190 rail; it is not an interaction, with or
        # without another rail's op before it
        for ops in (("WRITE 190", "READ 230", "PUMP 190", "READ 190"),
                    ("WRITE 190", "PUMP 190", "READ 190")):
            report = _check_text(*ops)
            assert report.interaction_free == harness.CriterionCheck(0.0)
            assert report.all_pass

    def test_write_after_a_pump_opens_a_scored_pair(self):
        # the 8 MHz neighbor's read depletes the second write's pulse
        rails = (RailCalibration(190.0, 5.4, 0.7, 0.35),
                 RailCalibration(198.0, 5.4, 0.7, 0.35))
        seq = Sequence("tight", (190.0, 198.0), tuple(
            Operation(400.0 * i, kind, f) for i, (kind, f) in enumerate([
                (OpKind.WRITE, 190.0), (OpKind.PUMP, 190.0), (OpKind.WRITE, 190.0),
                (OpKind.READ, 198.0), (OpKind.READ, 190.0)])))
        trace = engine.run_sequence(engine.Memory(P, rails), seq)
        assert check_criteria(trace, seq, P, rails).interaction_free.margin > 1.0

    def test_underflowing_prediction_is_not_scored(self):
        # exp(-2000 / 2.6) is 0.0: the read is not compared with it
        seq = seqlang.parse("SEQUENCE s\nRAILS 190MHz 230MHz\nAT 0ns WRITE 230MHz\n"
                            "AT 400ns READ 190MHz\nAT 2000us READ 230MHz\n")
        trace = engine.run_sequence(engine.Memory(P, RAILS), seq)
        report = check_criteria(trace, seq, P, RAILS)
        assert report.interaction_free == harness.CriterionCheck(0.0)
        assert report.all_pass

    def test_tolerances_are_configurable(self, monkeypatch):
        trace, seq = _run_canonical()
        monkeypatch.setattr(harness, "EMPTY_TOL", 1e-9)
        strict = check_criteria(trace, seq, P, RAILS)
        assert not strict.empty_state.passed


def _per_point_overlap(params, n_atoms, d_um, t_us, seed):
    """The overlap estimate drawn point by point, as before the batch call:
    fresh arrays for every draw, sum and weight."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, params.sigma0, n_atoms)
    y = rng.normal(0.0, params.sigma0, n_atoms)
    if t_us > 0.0:
        diff = physics.diffusion_coefficient(params)
        step = math.sqrt(physics.spread_variance_um2(0.0, t_us, diff))
        x = x + rng.normal(0.0, step, n_atoms)
        y = y + rng.normal(0.0, step, n_atoms)
    v = physics.read_sampling_variance_um2(params)
    w_d = np.exp(-(((x - d_um) ** 2) + y * y) / (2.0 * v))
    w_0 = np.exp(-((x * x) + y * y) / (2.0 * v))
    return float(np.mean(w_d) / np.mean(w_0))


class _Allocated(Exception):
    """Raised in place of numpy's allocation, to show a check came first."""


ORACLE_D = st.sampled_from([0.0, -0.0, 270.0, -270.0, 675.0]) | st.floats(-2000.0, 2000.0)
ORACLE_T = st.sampled_from([0.0, -0.0, 0.4, 2.0]) | st.floats(0.0, 12.0)


class TestMonteCarloOverlaps:
    @given(points=st.lists(st.tuples(ORACLE_D, ORACLE_T), max_size=7),
           n=st.integers(1000, 1500), seed=st.integers(0, 2**32))
    @example(points=list(ORACLE_GRID), n=1000, seed=1)
    @example(points=[(675.0, 2.0), (0.0, 0.4), (675.0, 2.0), (-270.0, 0.0), (270.0, 0.4)],
             n=1001, seed=2)
    def test_each_estimate_is_the_single_point_one(self, points, n, seed):
        got = monte_carlo_overlaps(P, n, points, seed)
        assert len(got) == len(points)
        for (d, t), mc in zip(points, got):
            assert mc.hex() == monte_carlo_overlaps(P, n, [(d, t)], seed)[0].hex()
            assert mc.hex() == _per_point_overlap(P, n, d, t, seed).hex()

    def test_oracle_grid_at_full_size(self):
        got = monte_carlo_overlaps(P, 100_000, iter(ORACLE_GRID), 7)
        assert ([mc.hex() for mc in got]
                == [_per_point_overlap(P, 100_000, d, t, 7).hex() for d, t in ORACLE_GRID])

    def test_no_points(self):
        assert monte_carlo_overlaps(P, 1000, [], 1) == ()

    @pytest.mark.parametrize("n,points,message", [
        (999, [(0.0, 0.4)], "at least 1e3 atoms"),
        (MAX_ORACLE_ATOMS + 1, [(0.0, 0.4)], f"more than {MAX_ORACLE_ATOMS}"),
        (10**10, [(0.0, 0.4)], f"more than {MAX_ORACLE_ATOMS}"),
        (1000, [(0.0, 0.4), (270.0, -0.4)], "non-negative"),
        (1000, [(0.0, 0.4), (270.0, math.nan)], "non-negative"),
        (1000, [(0.0, 0.4), (270.0, math.inf)], "finite"),
    ], ids=["few", "cap", "80GB", "negative-t", "nan-t", "inf-t"])
    def test_rejects_before_any_draw(self, monkeypatch, n, points, message):
        def allocate(*args, **kwargs):
            raise _Allocated
        monkeypatch.setattr(np, "empty", allocate)
        monkeypatch.setattr(np.random, "default_rng", allocate)
        with pytest.raises(DomainError, match=message):
            monte_carlo_overlaps(P, n, points, seed=1)
        # the cap itself is allowed: it reaches the allocation
        with pytest.raises(_Allocated):
            monte_carlo_overlaps(P, MAX_ORACLE_ATOMS, [(0.0, 0.4)], seed=1)

    def test_negative_seed_rejected_before_any_draw(self, monkeypatch):
        assert monte_carlo_overlaps(P, 1000, [(0.0, 0.4)], seed=0) == (1.0,)

        def allocate(*args, **kwargs):
            raise _Allocated
        monkeypatch.setattr(np, "empty", allocate)
        monkeypatch.setattr(np.random, "default_rng", allocate)
        with pytest.raises(DomainError, match="^seed -1 is negative"):
            monte_carlo_overlaps(P, 1000, [(0.0, 0.4)], seed=-1)
        with pytest.raises(DomainError, match=f"^seed -1{'0' * 5000} is negative"):
            monte_carlo_overlaps(P, 1000, [(0.0, 0.4)], seed=-10**5000)

    @pytest.mark.parametrize("n,seed,message", [
        (math.nan, 1, "^nan atoms is not a whole number$"),
        (1000.5, 1, "^1000.5 atoms is not a whole number$"),
        (1000, 1.5, "^seed 1.5 is not an integer$"),
        (1000, math.nan, "^seed nan is not an integer$"),
        # named by its digits, which repr would refuse past 4300 of them
        (1000, Fraction(10**5000), f"^seed 1{'0' * 5000} is not an integer$"),
    ], ids=["nan-atoms", "half-atom", "fractional-seed", "nan-seed", "fraction-seed-past-a-float"])
    def test_bad_count_or_seed_rejected_before_any_draw(self, monkeypatch, n, seed, message):
        def allocate(*args, **kwargs):
            raise _Allocated
        monkeypatch.setattr(np, "empty", allocate)
        monkeypatch.setattr(np.random, "default_rng", allocate)
        with pytest.raises(DomainError, match=message):
            monte_carlo_overlaps(P, n, [(0.0, 0.4)], seed)
        # a whole float count and a numpy integer seed are taken
        with pytest.raises(_Allocated):
            monte_carlo_overlaps(P, 1000.0, [(0.0, 0.4)], np.int64(1))


class TestMonteCarloOverlap:
    """The estimate at one point, each a one-point monte_carlo_overlaps call."""

    def test_wrapper_is_the_one_point_estimate(self):
        # the one test of monte_carlo_overlap, which perfbench's tracing wraps by name
        for d, t in ORACLE_GRID:
            assert (monte_carlo_overlap(P, 1000, d, t, 5).hex()
                    == monte_carlo_overlaps(P, 1000, [(d, t)], 5)[0].hex())

    def test_self_normalized_origin(self):
        assert monte_carlo_overlaps(P, 10_000, [(0.0, 0.0)], seed=7)[0] == 1.0
        assert monte_carlo_overlaps(P, 10_000, [(0.0, 2.0)], seed=7)[0] == 1.0

    def test_bit_reproducible(self):
        a = monte_carlo_overlaps(P, 50_000, [(675.0, 0.4)], seed=3)[0]
        b = monte_carlo_overlaps(P, 50_000, [(675.0, 0.4)], seed=3)[0]
        assert a == b

    def test_matches_closed_form(self):
        diff = physics.diffusion_coefficient(P)
        for d, t in ((270.0, 0.4), (675.0, 2.0)):
            mc = monte_carlo_overlaps(P, 100_000, [(d, t)], seed=1)[0]
            s2 = physics.spread_variance_um2(P.sigma0 ** 2, t, diff)
            assert abs(mc - physics.overlap_factor(d, s2, P)) <= 0.02

    def test_estimates_consistent_across_sample_sizes(self):
        small = monte_carlo_overlaps(P, 1_000, [(270.0, 0.4)], seed=5)[0]
        large = monte_carlo_overlaps(P, 100_000, [(270.0, 0.4)], seed=5)[0]
        assert abs(small - large) < 0.05

    def test_minimum_sample_size(self):
        with pytest.raises(DomainError):
            monte_carlo_overlaps(P, 999, [(0.0, 0.0)], seed=1)


# an int past a float: each function bounds it before a float() or an
# arithmetic conversion would raise a bare OverflowError, so its own check
# names the error
BIG = 10**400
PAST_A_FLOAT = [
    ("scan_lifetime-delay", lambda: scan_lifetime(P, RAILS, 190.0, [0.4, BIG]),
     DomainError, "finite in ns"),
    ("scan_crosstalk-separation", lambda: scan_crosstalk(P, RAILS, [0.0, BIG]),
     DomainError, "separations must be finite"),
    ("fit_exponential-time", lambda: fit_exponential([(0.4, 1.0), (BIG, 0.5), (1.2, 0.3)]),
     FitError, "times and energies must be finite"),
    ("weighted_mean-value", lambda: weighted_mean([1.0, BIG], [1.0, 1.0]),
     DomainError, "values and sigmas must be finite"),
    ("weighted_mean-sigma", lambda: weighted_mean([1.0, 2.0], [1.0, BIG]),
     DomainError, "values and sigmas must be finite"),
    ("spread_variance_um2-variance", lambda: physics.spread_variance_um2(BIG, 1.0, 1.0),
     DomainError, "spread variance must be a finite float"),
    ("spread_variance_um2-time", lambda: physics.spread_variance_um2(1.0, BIG, 1.0),
     DomainError, "spread variance must be a finite float"),
    ("spread_variance_um2-diffusion", lambda: physics.spread_variance_um2(1.0, 1.0, BIG),
     DomainError, "spread variance must be a finite float"),
    ("overlap_factor-displacement", lambda: physics.overlap_factor(BIG, 1.0, P),
     DomainError, "displacement finite"),
    ("overlap_factor-variance", lambda: physics.overlap_factor(1.0, BIG, P),
     DomainError, "variance must be finite"),
    ("depletion_fraction-distance", lambda: physics.depletion_fraction(BIG, P),
     DomainError, "distance must be finite"),
    ("monte_carlo_overlaps-displacement",
     lambda: monte_carlo_overlaps(P, 1000, [(0.0, 0.4), (BIG, 0.4)], 1),
     DomainError, "displacements and times must be finite"),
    ("monte_carlo_overlaps-time", lambda: monte_carlo_overlaps(P, 1000, [(0.0, BIG)], 1),
     DomainError, "displacements and times must be finite"),
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in PAST_A_FLOAT],
                         ids=[c[0] for c in PAST_A_FLOAT])
def test_int_past_a_float_is_a_named_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
