import dataclasses
import math

import pytest

from vapormem import engine, harness, physics
from vapormem.core import (
    DomainError,
    OpKind,
    Operation,
    OutOfBandError,
    RailCalibration,
    Sequence,
    UnknownRailError,
    default_params,
    default_rails,
)
from vapormem.harness import (
    FitConvergenceError,
    FitError,
    TraceMismatchError,
    check_criteria,
    extrapolate_efficiency,
    fit_exponential,
    monte_carlo_overlap,
    random_access_sequence,
    scan_crosstalk,
    scan_lifetime,
    weighted_mean,
)

P = default_params()
RAILS = default_rails()


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

    def test_delays_must_ascend(self):
        with pytest.raises(DomainError):
            scan_lifetime(P, RAILS, 190.0, [0.8, 0.4])
        with pytest.raises(DomainError):
            scan_lifetime(P, RAILS, 190.0, [0.0, 0.4])

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
        with pytest.raises(FitError):
            fit_exponential([(0.4, 1.0), (0.4, 0.9), (0.4, 0.8)])

    def test_non_decaying_data(self):
        with pytest.raises(FitError):
            fit_exponential([(0.4, 1.0), (0.8, 2.0), (1.2, 4.0)])

    def test_convergence_error_is_distinct(self):
        assert issubclass(FitConvergenceError, FitError)


class TestExtrapolateEfficiency:
    def test_rail_190_round_trip(self):
        e_read = 0.35 * math.exp(-0.4 / 5.4)
        assert extrapolate_efficiency(e_read, 0.4, 5.4, 1.0) == pytest.approx(0.35, rel=1e-12)

    def test_rail_230_round_trip(self):
        e_read = 0.36 * math.exp(-4.4 / 2.6)
        assert extrapolate_efficiency(e_read, 4.4, 2.6, 1.0) == pytest.approx(0.36, rel=1e-12)

    def test_zero_delay_is_plain_normalization(self):
        assert extrapolate_efficiency(0.123, 0.0, 3.3, 2.0) == 0.123 / 2.0

    def test_identity_through_the_model(self):
        for cal in RAILS:
            for t_read in (0.4, 1.0, 4.4, 10.0):
                scan = scan_lifetime(P, RAILS, cal.f_rail, [t_read])
                eta = extrapolate_efficiency(scan.series["retrieved"][0],
                                             t_read, cal.tau_us, 1.0)
                assert eta == pytest.approx(cal.eta_mem, rel=1e-9)

    @pytest.mark.parametrize("args", [
        (0.0, 0.4, 5.4, 1.0), (-0.1, 0.4, 5.4, 1.0),
        (0.3, 0.4, 0.0, 1.0), (0.3, 0.4, 5.4, 0.0), (0.3, -0.1, 5.4, 1.0),
    ])
    def test_domain(self, args):
        with pytest.raises(DomainError):
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
        with pytest.raises(DomainError):
            weighted_mean([1.0, 2.0], [0.1])
        with pytest.raises(DomainError):
            weighted_mean([1.0], [0.0])
        with pytest.raises(DomainError):
            weighted_mean([], [])


class TestRandomAccessSequence:
    def test_twelve_operations(self):
        assert len(random_access_sequence().ops) == 12

    def test_span_under_5us(self):
        assert random_access_sequence().span_ns == 4400.0 <= 5000.0

    def test_four_foreign_ops_during_190_storage(self):
        seq = random_access_sequence()
        between = [op for op in seq.ops if 1600.0 < op.t_ns < 3600.0]
        assert len(between) == 4
        assert all(op.f_rail != 190.0 for op in between)

    def test_validates_clean(self):
        from vapormem.seqlang import validate
        assert validate(random_access_sequence(), P) == []

    def test_rails(self):
        assert random_access_sequence().rails == (170.0, 190.0, 210.0, 230.0)


def _run_canonical():
    seq = random_access_sequence()
    trace = engine.run_sequence(engine.Memory(P, RAILS), seq)
    return trace, seq


class TestCheckCriteria:
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
        tampered = dataclasses.replace(
            trace, events=trace.events[:-1] + (
                dataclasses.replace(trace.events[-1], out_energy=0.123),))
        with pytest.raises(TraceMismatchError):
            check_criteria(tampered, seq, P, RAILS)
        with pytest.raises(TraceMismatchError):
            check_criteria(dataclasses.replace(trace, events=trace.events[:-1]), seq, P, RAILS)

    def test_tolerances_are_configurable(self):
        trace, seq = _run_canonical()
        strict = check_criteria(trace, seq, P, RAILS, empty_tol=1e-9)
        assert not strict.empty_state.passed


class TestMonteCarloOverlap:
    def test_self_normalized_origin(self):
        assert monte_carlo_overlap(P, 10_000, 0.0, 0.0, seed=7) == 1.0
        assert monte_carlo_overlap(P, 10_000, 0.0, 2.0, seed=7) == 1.0

    def test_bit_reproducible(self):
        a = monte_carlo_overlap(P, 50_000, 675.0, 0.4, seed=3)
        b = monte_carlo_overlap(P, 50_000, 675.0, 0.4, seed=3)
        assert a == b

    def test_matches_closed_form(self):
        diff = physics.diffusion_coefficient(P)
        for d, t in ((270.0, 0.4), (675.0, 2.0)):
            mc = monte_carlo_overlap(P, 100_000, d, t, seed=1)
            s2 = physics.spread_variance_um2(P.sigma0 ** 2, t, diff)
            assert abs(mc - physics.overlap_factor(d, s2, P)) <= 0.02

    def test_estimates_consistent_across_sample_sizes(self):
        small = monte_carlo_overlap(P, 1_000, 270.0, 0.4, seed=5)
        large = monte_carlo_overlap(P, 100_000, 270.0, 0.4, seed=5)
        assert abs(small - large) < 0.05

    def test_minimum_sample_size(self):
        with pytest.raises(DomainError):
            monte_carlo_overlap(P, 999, 0.0, 0.0, seed=1)
