import numpy as np
import pytest

from corpus import CANONICAL
from vapormem.cli import WAVEFORM_CSV_CHUNK, main, waveform_csv

TIGHT = "SEQUENCE tight\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 47ns READ 190MHz\n"
CLOSE_RAILS = ("SEQUENCE close\nRAILS 190MHz 198MHz\n"
               "AT 0ns WRITE 190MHz\nAT 400ns READ 198MHz\n")
# 401 digits, which overflow a float
HUGE = "1" + "0" * 400
# time order, declared rails, distinct rails and numbers a float can hold are
# parse errors, located in the text
LOCATED_PARSE_ERRORS = [
    ("SEQUENCE s\nRAILS 190MHz\nAT 400ns WRITE 190MHz\nAT 400ns READ 190MHz\n", "line 4, col 4"),
    ("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 210MHz\n", "line 3, col 14"),
    ("SEQUENCE s\nRAILS 190MHz 190MHz\n", "line 2, col 14"),
    pytest.param(f"SEQUENCE s\nRAILS 190MHz\nAT {HUGE}ns READ 190MHz\n", "line 3, col 4",
                 id="time-overflow"),
    pytest.param(f"SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz {HUGE}\n", "line 3, col 21",
                 id="energy-overflow"),
]


@pytest.fixture
def seqfile(tmp_path):
    def write(text, name="prog.seq"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestValidate:
    def test_clean_file(self, seqfile, capsys):
        rc = main(["validate", seqfile(CANONICAL)])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_switching_time_error_blocks(self, seqfile, capsys):
        rc = main(["validate", seqfile(TIGHT)])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.count("error E001") == 1
        assert "line 4" in out

    def test_warning_does_not_block(self, seqfile, capsys):
        rc = main(["validate", seqfile(CLOSE_RAILS)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "warning W001" in out

    def test_missing_file(self, capsys):
        rc = main(["validate", "/nonexistent/prog.seq"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reported(self, seqfile, capsys):
        rc = main(["validate", seqfile("SEQUENCE s\nRAILS bogus\n")])
        assert rc == 2
        assert "malformed frequency" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("text,where", LOCATED_PARSE_ERRORS)
    def test_located_parse_error(self, seqfile, tmp_path, capsys, command, text, where):
        trace_path = tmp_path / "trace.csv"
        argv = [command, seqfile(text)]
        if command == "run":
            argv += ["--trace-out", str(trace_path)]
        assert main(argv) == 2
        assert where in capsys.readouterr().err
        assert not trace_path.exists()


class TestRun:
    def test_canonical_trace_csv(self, seqfile, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        rc = main(["run", seqfile(CANONICAL), "--trace-out", str(trace_path)])
        assert rc == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "t_ns,kind,rail_mhz,out_energy,stored_after"
        assert len(lines) == 13  # header + 12 operations

    def test_waveform_sampling(self, seqfile, tmp_path):
        wave_path = tmp_path / "wave.csv"
        rc = main(["run", seqfile(CANONICAL), "--waveform-out", str(wave_path),
                   "--sample-period-ns", "1"])
        assert rc == 0
        lines = wave_path.read_text().splitlines()
        assert len(lines) == 5001  # header + 5000 samples over 5 us

    def test_validation_failure_writes_nothing(self, seqfile, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        rc = main(["run", seqfile(TIGHT), "--trace-out", str(trace_path)])
        assert rc == 1
        assert not trace_path.exists()
        assert "error E001" in capsys.readouterr().out

    def test_missing_file_writes_nothing(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        rc = main(["run", str(tmp_path / "absent.seq"), "--trace-out", str(trace_path)])
        assert rc == 2
        assert not trace_path.exists()

    @pytest.mark.parametrize("bad", [
        ["--sample-period-ns", "nan"],
        ["--sample-period-ns", "inf"],
        ["--sample-period-ns", "0"],
        ["--waveform-span-ns", "-5"],
        ["--waveform-span-ns", "nan"],
        ["--noise-floor", "nan"],
        ["--noise-floor", "inf"],
        ["--noise-floor", "-1"],
    ])
    def test_bad_waveform_args_write_nothing(self, seqfile, tmp_path, capsys, bad):
        trace_path, wave_path = tmp_path / "trace.csv", tmp_path / "wave.csv"
        rc = main(["run", seqfile(CANONICAL), "--trace-out", str(trace_path),
                   "--waveform-out", str(wave_path)] + bad)
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not trace_path.exists() and not wave_path.exists()

    def test_reruns_are_byte_identical(self, seqfile, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        path = seqfile(CANONICAL)
        assert main(["run", path, "--trace-out", str(a)]) == 0
        assert main(["run", path, "--trace-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def per_sample_waveform_csv(t, y) -> str:
    """The waveform formatter before chunking: one numpy scalar at a time."""
    lines = ["t_ns,intensity"]
    for ti, yi in zip(t, y):
        lines.append(f"{float(ti)!r},{float(yi)!r}")
    return "\n".join(lines) + "\n"


class TestWaveformCsv:
    @pytest.mark.parametrize("n", [0, 1, 2 * WAVEFORM_CSV_CHUNK - 1,
                                   2 * WAVEFORM_CSV_CHUNK, 2 * WAVEFORM_CSV_CHUNK + 1])
    def test_same_bytes_as_per_sample_formatter(self, n):
        rng = np.random.default_rng(n)
        t = np.arange(n) * 0.37
        y = rng.exponential(1e-3, n)
        y[::7] = 0.0
        y[1::11] = 5e-324  # the smallest subnormal
        y[2::13] = 1e-5
        assert waveform_csv(t, y) == per_sample_waveform_csv(t, y)


class TestScan:
    def test_crosstalk_default_grid(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "scan", "crosstalk"])
        assert rc == 0
        lines = (tmp_path / "crosstalk.csv").read_text().splitlines()
        assert lines[0] == "separation_mhz,peak1,peak2"
        assert len(lines) == 27  # header + 26 separations

    def test_lifetime_default_grid(self, tmp_path):
        rc = main(["--out", str(tmp_path), "scan", "lifetime", "--rail", "190"])
        assert rc == 0
        lines = (tmp_path / "lifetime_190.csv").read_text().splitlines()
        assert lines[0] == "delay_us,retrieved"
        assert len(lines) == 29  # header + 28 delays

    def test_custom_grid(self, tmp_path):
        rc = main(["--out", str(tmp_path), "scan", "crosstalk",
                   "--min", "0", "--max", "10", "--step", "2"])
        assert rc == 0
        assert len((tmp_path / "crosstalk.csv").read_text().splitlines()) == 7

    def test_zero_step_rejected(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "scan", "crosstalk", "--step", "0"])
        assert rc == 2
        assert not (tmp_path / "crosstalk.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["lifetime", "--step", "nan"],
        ["crosstalk", "--min", "nan"],
        ["crosstalk", "--max", "inf"],
    ])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, argv):
        rc = main(["--out", str(tmp_path), "scan"] + argv)
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_inverted_grid_rejected(self, tmp_path):
        rc = main(["--out", str(tmp_path), "scan", "lifetime",
                   "--min", "5", "--max", "1", "--step", "0.4"])
        assert rc == 2


class TestFit:
    def test_fit_of_lifetime_scan(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "scan", "lifetime", "--rail", "190"]) == 0
        capsys.readouterr()
        rc = main(["fit", str(tmp_path / "lifetime_190.csv")])
        out = capsys.readouterr().out
        assert rc == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert set(fields) == {"A0", "tau_us", "tau_err_us", "rss"}
        assert float(fields["tau_us"]) == pytest.approx(5.4, rel=1e-6)
        assert float(fields["A0"]) == pytest.approx(0.35, rel=1e-6)

    def test_unusable_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y\n1,1\n2,1\n")
        assert main(["fit", str(bad)]) == 2


class TestReport:
    def test_defaults_pass(self, capsys):
        rc = main(["report"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "REPORT PASS" in out
        assert "210 3.300000 3.3 39.00 39 PASS" in out
        assert "displays as 36" in out

    def test_degraded_rail_fails_mean_lifetime(self, tmp_path, capsys):
        cfg = tmp_path / "degraded.cfg"
        cfg.write_text("rail.230.tau_us = 1.0\n")
        rc = main(["--config", str(cfg), "report"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "weighted_mean_lifetime_us" in out
        assert "REPORT FAIL" in out


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_factor = 9\n")
        assert main(["--config", str(cfg), "report"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_decay_mode_is_unknown_key(self, tmp_path, capsys):
        # on-rail decay is the measured exponential; it is not a setting
        cfg = tmp_path / "diffusive.cfg"
        cfg.write_text("decay_mode = diffusive\n")
        assert main(["--config", str(cfg), "report"]) == 2
        assert "unknown key 'decay_mode'" in capsys.readouterr().err

    def test_override_revalidated(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("w_signal = -1\n")
        assert main(["--config", str(cfg), "report"]) == 2

    def test_unknown_rail_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rail.195.tau_us = 1.0\n")
        assert main(["--config", str(cfg), "report"]) == 2

    def test_comments_and_param_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# slower switching\nt_switch = 100\n")
        seq = tmp_path / "prog.seq"
        seq.write_text("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 60ns READ 190MHz\n")
        # 60 ns spacing is fine at default 48 ns but not at 100 ns
        assert main(["validate", str(seq)]) == 0
        assert main(["--config", str(cfg), "validate", str(seq)]) == 1


class TestOracle:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["--seed", "2", "oracle", "--n", "20000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ORACLE PASS" in out
        assert len(out.strip().splitlines()) == 8  # header + 6 grid points + verdict
