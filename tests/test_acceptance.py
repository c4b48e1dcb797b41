"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n PASS/FAIL` line (run pytest with -s to
see the lines for passing tests too).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from corpus import DOCUMENTS
from vapormem import cli, engine, harness, physics, seqlang
from vapormem.core import default_params, default_rails

P = default_params()
RAILS = default_rails()


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f} s)")


def test_criterion_1_transit_time_consistency():
    with criterion(1, "diffusion model reproduces the 3.7 us transit time"):
        d = physics.diffusion_coefficient(P)
        transit = physics.transit_time_us(270.0, d)
        assert 3.6 <= transit <= 3.8


def test_criterion_2_calibration_round_trip(capsys):
    with criterion(2, "report recovers every rail calibration and both means"):
        start = time.perf_counter()
        taus_fit, etas_fit = [], []
        for cal in RAILS:
            scan = harness.scan_lifetime(P, RAILS, cal.f_rail)
            fit = harness.fit_exponential(zip(scan.axis, scan.series["retrieved"]))
            eta = harness.extrapolate_efficiency(
                scan.series["retrieved"][0], scan.axis[0], fit.tau_us)
            assert abs(fit.tau_us / cal.tau_us - 1.0) <= 1e-4
            assert abs(eta - cal.eta_mem) <= 1e-3  # 0.1 percentage points
            taus_fit.append(fit.tau_us)
            etas_fit.append(eta)
        mean_tau, _ = harness.weighted_mean(taus_fit, [c.tau_err_us for c in RAILS])
        assert abs(mean_tau - 3.2) <= 0.2
        mean_eta_pct = 100.0 * sum(etas_fit) / len(etas_fit)
        assert abs(mean_eta_pct - 36.0) <= 1.0
        assert cli.main(["report"]) == 0
        capsys.readouterr()
        assert time.perf_counter() - start < 5.0


def test_criterion_3_crosstalk_endpoints():
    with criterion(3, "cross-talk scan endpoints and monotonicity"):
        start = time.perf_counter()
        scan = harness.scan_crosstalk(P, RAILS)
        assert scan.axis == tuple(float(k) for k in range(26))
        p1, p2 = scan.series["peak1"], scan.series["peak2"]
        # below one signal radius of separation nothing survives for a re-read
        for df in range(0, 9):
            assert p2[df] <= 0.05 * p2[25]
        # at 20 MHz the influence is no longer visible on the scan's scale
        assert abs(p1[20] - p1[25]) <= 0.02 * max(p1)
        assert abs(p2[20] - p2[25]) <= 0.02 * max(p2)
        assert all(b <= a for a, b in zip(p1, p1[1:]))
        assert all(b >= a for a, b in zip(p2, p2[1:]))
        assert time.perf_counter() - start < 5.0


def test_criterion_4_random_access():
    with criterion(4, "12-op random access passes the three memory criteria"):
        start = time.perf_counter()
        seq = harness.random_access_sequence()
        trace = engine.run_sequence(engine.Memory(P, RAILS), seq)
        report = harness.check_criteria(trace, seq, P, RAILS)
        assert report.all_pass

        out = {(ev.t_ns, ev.f_rail): ev.out_energy for ev in trace}
        # the pulse written first is retrieved last, unharmed by 11
        # operations in between
        expected = 0.36 * math.exp(-4.4 / 2.6)
        assert abs(out[(4400.0, 230.0)] / expected - 1.0) <= 1e-6
        # reads of empty rails stay below 1% of a reference retrieval
        empty_reads = [(800.0, 210.0), (1200.0, 170.0), (2000.0, 170.0), (3200.0, 210.0)]
        for key in empty_reads:
            assert out[key] <= 0.01
        # an immediate re-read yields at most 3% of the read before it
        assert out[(800.0, 210.0)] <= 0.03 * out[(600.0, 210.0)]
        assert time.perf_counter() - start < 1.0


def test_criterion_5_fit_robustness():
    with criterion(5, "fitted lifetime robust to 5% multiplicative noise"):
        start = time.perf_counter()
        delays = np.array(harness.LIFETIME_DELAYS_US)
        truth = 0.39 * np.exp(-delays / 3.3)
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = truth * (1.0 + 0.05 * rng.standard_normal(len(delays)))
            fit = harness.fit_exponential(zip(delays, noisy))
            errors.append(abs(fit.tau_us - 3.3) / 3.3)
        assert float(np.percentile(errors, 95)) < 0.05
        assert time.perf_counter() - start < 10.0


def test_criterion_6_oracle_equivalence():
    with criterion(6, "Monte Carlo walkers agree with the closed-form overlap"):
        start = time.perf_counter()
        diff = physics.diffusion_coefficient(P)
        for d in (0.0, 270.0, 675.0):
            for t in (0.4, 2.0):
                mc = harness.monte_carlo_overlaps(P, 100_000, [(d, t)], seed=1)[0]
                s2 = physics.spread_variance_um2(P.sigma0 ** 2, t, diff)
                analytic = physics.overlap_factor(d, s2, P)
                assert abs(mc - analytic) <= 0.02
        again = harness.monte_carlo_overlaps(P, 100_000, [(675.0, 2.0)], seed=1)[0]
        assert again == harness.monte_carlo_overlaps(P, 100_000, [(675.0, 2.0)], seed=1)[0]
        assert time.perf_counter() - start < 60.0


def test_criterion_7_validator_boundary(tmp_path, capsys):
    with criterion(7, "47 ns spacing blocks execution, 48 ns passes"):
        tight = tmp_path / "tight.seq"
        tight.write_text("SEQUENCE tight\nRAILS 190MHz\n"
                         "AT 0ns WRITE 190MHz\nAT 47ns READ 190MHz\n")
        legal = tmp_path / "legal.seq"
        legal.write_text("SEQUENCE legal\nRAILS 190MHz\n"
                         "AT 0ns WRITE 190MHz\nAT 48ns READ 190MHz\n")

        diags = seqlang.validate(seqlang.parse(tight.read_text()), P)
        assert [d.code for d in diags] == ["E001"]
        assert seqlang.validate(seqlang.parse(legal.read_text()), P) == []

        trace_out = tmp_path / "trace.csv"
        assert cli.main(["run", str(tight), "--trace-out", str(trace_out)]) == 1
        assert not trace_out.exists()
        assert cli.main(["run", str(legal), "--trace-out", str(trace_out)]) == 0
        assert trace_out.exists()
        capsys.readouterr()


def test_criterion_8_parser_laws():
    with criterion(8, "parse-format-parse is a fixpoint on the 20-document corpus"):
        assert len(DOCUMENTS) == 20
        for doc in DOCUMENTS:
            once = seqlang.parse(doc)
            rendered = seqlang.format_sequence(once)
            again = seqlang.parse(rendered)
            assert again == once
            assert seqlang.format_sequence(again) == rendered
