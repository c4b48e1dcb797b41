import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from corpus import CANONICAL
from vapormem.cli import WAVEFORM_CSV_CHUNK, ConfigError, configured, main, waveform_csv
from vapormem.core import ParamError, PhysicsParams

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

# one config line each, with a value that is not finite or does not fit a
# float, and the field the error names
NON_FINITE_CONFIGS = [
    ("d0 = inf", "d0"),
    ("w_dep = inf", "w_dep"),
    ("rail.190.tau_us = inf", "tau_us"),
    ("rail.190.tau_err_us = inf", "tau_err_us"),
    ("pos_per_mhz = inf", "pos_per_mhz"),
    ("f_center = inf", "f_center"),
    ("f_center = -inf", "f_center"),
    ("f_center = nan", "f_center"),
    ("t_switch = inf", "t_switch"),
    pytest.param(f"m_dep = {HUGE}", "m_dep", id="m_dep-401-digits"),
]
# finite config values whose derived diffusion coefficient, variance or beam
# position overflows a float, and the quantity the error names
OVERFLOWING_CONFIGS = [
    ("t_cell = 1e308", "diffusion coefficient"),
    ("d0 = 1e308", "diffusion coefficient"),
    ("p0 = 1e308", "diffusion coefficient"),
    ("w_signal = 1e308", "read sampling variance"),
    ("w_control = 1e308", "read sampling variance"),
    # 2 D is finite, the variance after 1.2 us is not
    ("d0 = 4e303", "spread variance"),
    ("pos_per_mhz = 1e307", "beam position"),
]
CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(PhysicsParams)) + [
    f"rail.{f}.{k}" for f in ("190", "230.0", "195") for k in ("tau_us", "tau_err_us", "eta_mem")]
CONFIG_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["inf", "-Infinity", "nan", "1e400", "-1e400", HUGE, "1e-400", "0x10", "1_0"]),
    st.text(max_size=8),
)
CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS), CONFIG_VALUES),
    st.text(max_size=30),
)


def tree(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


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
        text = trace_path.read_text()
        lines = text.splitlines()
        assert lines[0] == "t_ns,kind,rail_mhz,out_energy,stored_after"
        assert len(lines) == 13  # header + 12 operations
        # the event table on stdout is the trace CSV with spaces for commas
        assert capsys.readouterr().out == text.replace(",", " ") + f"wrote {trace_path}\n"

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
        # more samples than engine.MAX_WAVEFORM_SAMPLES, finite and overflowing
        ["--sample-period-ns", "1e-9"],
        ["--waveform-span-ns", "1e300", "--sample-period-ns", "1e-10"],
    ])
    def test_bad_waveform_args_write_nothing(self, seqfile, tmp_path, capsys, bad):
        trace_path, wave_path = tmp_path / "trace.csv", tmp_path / "wave.csv"
        rc = main(["run", seqfile(CANONICAL), "--trace-out", str(trace_path),
                   "--waveform-out", str(wave_path)] + bad)
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not trace_path.exists() and not wave_path.exists()

    @pytest.mark.parametrize("trace,wave", [
        pytest.param("t.csv", "afile/w.csv", id="waveform-parent-is-a-file"),
        pytest.param("t.csv", "adir", id="waveform-is-a-directory"),
        pytest.param("adir", "w.csv", id="trace-is-a-directory"),
        pytest.param("old.csv", "adir", id="existing-trace-kept"),
        pytest.param("adir", "old.csv", id="existing-waveform-kept"),
    ])
    def test_unwritable_waveform_path_prints_and_writes_nothing(self, seqfile, tmp_path,
                                                                 capsys, trace, wave):
        prog = seqfile(CANONICAL)
        (tmp_path / "afile").write_text("a plain file, not a directory\n")
        (tmp_path / "adir").mkdir()
        (tmp_path / "old.csv").write_text("an earlier output\n")
        before = tree(tmp_path)
        rc = main(["run", prog, "--trace-out", str(tmp_path / trace),
                   "--waveform-out", str(tmp_path / wave)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error:" in captured.err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("second", ["x.csv", "./x.csv"])
    def test_path_given_twice_holds_the_last_output(self, seqfile, tmp_path, monkeypatch,
                                                    capsys, second):
        prog = seqfile(CANONICAL)
        monkeypatch.chdir(tmp_path)
        rc = main(["run", prog, "--trace-out", "x.csv", "--waveform-out", second,
                   "--waveform-span-ns", "0"])
        assert rc == 0
        assert (tmp_path / "x.csv").read_bytes() == b"t_ns,intensity\n"
        assert capsys.readouterr().out.endswith(f"wrote x.csv\nwrote {second}\n")

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

    @pytest.mark.parametrize("kind,flags", [
        ("lifetime", ["--step", "0.4"]),
        ("lifetime", ["--min", "0.4", "--max", "11.2"]),
        ("crosstalk", ["--step", "1"]),
    ])
    def test_standard_flags_write_standard_bytes(self, tmp_path, capsys, kind, flags):
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert main(["--out", str(plain), "scan", kind]) == 0
        assert main(["--out", str(flagged), "scan", kind] + flags) == 0
        name = "crosstalk.csv" if kind == "crosstalk" else "lifetime_190.csv"
        assert (flagged / name).read_bytes() == (plain / name).read_bytes()

    def test_axis_is_exact_decimal_steps(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "scan", "lifetime",
                   "--min", "0.1", "--max", "0.3", "--step", "0.1"])
        assert rc == 0
        rows = (tmp_path / "lifetime_190.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.1", "0.2", "0.3"]

    def test_unwritable_output_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "crosstalk.csv").mkdir()
        rc = main(["--out", str(tmp_path), "scan", "crosstalk"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "crosstalk.csv" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["crosstalk.csv"]

    def test_grid_size_capped(self, tmp_path, capsys):
        # 25 / 1e-12 + 1 points are counted, not built
        rc = main(["--out", str(tmp_path), "scan", "crosstalk", "--step", "1e-12"])
        assert rc == 2
        assert "scan grid has 25000000000001 points" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("rows,message", [
        ("0.4,1.0\n0.8,nan\n1.2,0.5\n", "times and energies must be finite"),
        ("0.4,1.0\ninf,0.7\n1.2,0.5\n", "times and energies must be finite"),
        ("0.4,1e-320\n0.8,1e-321\n1.2,1e-322\n", "relative-residual weights 1/energy must be finite"),
        ("0,1e300\n1,1e-300\n2,1e-305\n", "fit failed numerically"),
        # finite points whose covariance comes out inf without a numpy error
        ("0,1.394\n2.18e146,0.741\n6.59e-174,0.572\n1.375,4.04e31\n",
         "fit failed numerically: tau_err_us must be finite"),
    ], ids=["nan", "inf", "subnormal", "singular", "inf-covariance"])
    def test_numeric_edges_named(self, tmp_path, capfd, rows, message):
        path = tmp_path / "edge.csv"
        path.write_text("t,y\n" + rows)
        assert main(["fit", str(path)]) == 2
        out, err = capfd.readouterr()
        assert out == ""  # a failed fit prints no partial result
        assert f"error: {message}" in err


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

    @pytest.mark.parametrize("line,message", [
        ("rail.190.tau_err_us = 1e-308", "weights 1/sigma² must be finite"),
        ("rail.190.eta_mem = 1e-308", "relative-residual weights 1/energy must be finite"),
    ], ids=["tau_err_us", "eta_mem"])
    def test_tiny_rail_value_is_named_error(self, tmp_path, capfd, line, message):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg), "report"]) == 2
        out, err = capfd.readouterr()
        assert "DLASCL" not in out
        assert f"error: {message}" in err


class TestLateError:
    # both errors come after the first table row is known
    @pytest.mark.parametrize("line,command", [
        ("w_signal = 1e308", ["oracle", "--n", "1000"]),
        ("rail.190.tau_err_us = 1e-308", ["report"]),
    ], ids=["oracle", "report"])
    def test_prints_nothing_before_the_error(self, tmp_path, capfd, line, command):
        cfg = tmp_path / "late.cfg"
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg)] + command) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: ")


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

    @pytest.mark.parametrize("line,field", NON_FINITE_CONFIGS)
    def test_non_finite_value_rejected(self, seqfile, tmp_path, capsys, line, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "trace.csv"
        rc = main(["--config", str(cfg), "run", seqfile(CANONICAL), "--trace-out", str(out)])
        assert rc == 2
        assert f"error: {field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line,quantity", OVERFLOWING_CONFIGS)
    def test_overflowing_derived_value_rejected(self, seqfile, tmp_path, capsys,
                                                line, quantity):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "trace.csv"
        rc = main(["--config", str(cfg), "run", seqfile(CANONICAL), "--trace-out", str(out)])
        assert rc == 2
        assert f"error: {quantity}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["t_cell = 1e308", "w_signal = 1e308"])
    @pytest.mark.parametrize("command", [["report"], ["scan", "crosstalk"],
                                         ["scan", "lifetime"], ["oracle", "--n", "1000"]])
    def test_overflowing_derived_value_rejected_everywhere(self, tmp_path, capsys,
                                                          line, command):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)] + command) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_high_depletion_order_runs(self, seqfile, tmp_path, capsys):
        # (675 um / w_dep)^(2 m_dep) overflows a float; the kernel there is 0.0
        cfg = tmp_path / "steep.cfg"
        cfg.write_text("m_dep = 1000000\n")
        out = tmp_path / "trace.csv"
        rc = main(["--config", str(cfg), "run", seqfile(CANONICAL), "--trace-out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 13

    @given(lines=st.lists(CONFIG_LINES, max_size=6))
    @example(lines=["d0 = inf"])
    @example(lines=["pos_per_mhz = inf"])
    @example(lines=["rail.190.tau_us = inf"])
    @example(lines=[f"m_dep = {HUGE}"])
    def test_config_gives_finite_values_or_named_error(self, tmp_path_factory, lines):
        cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            params, rails = configured(str(cfg))
        except (ConfigError, ParamError):
            return
        for obj in (params, *rails):
            for f in dataclasses.fields(obj):
                assert math.isfinite(getattr(obj, f.name)), f.name

    def test_comments_and_param_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# slower switching\nt_switch = 100\n")
        seq = tmp_path / "prog.seq"
        seq.write_text("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 60ns READ 190MHz\n")
        # 60 ns spacing is fine at default 48 ns but not at 100 ns
        assert main(["validate", str(seq)]) == 0
        assert main(["--config", str(cfg), "validate", str(seq)]) == 1


class TestNonUtf8Input:
    @pytest.mark.parametrize("data", [b"\xe9", b"# fine\n\xff\n"], ids=["e9", "ff-line-2"])
    @pytest.mark.parametrize("argv", [
        ["validate", "{in}"],
        ["run", "{in}", "--trace-out", "{out}"],
        ["--config", "{in}", "report"],
        ["fit", "{in}"],
    ], ids=["validate", "run", "config", "fit"])
    def test_named_error(self, tmp_path, capsys, argv, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        argv = [a.format(**{"in": path, "out": tmp_path / "trace.csv"}) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text (byte 0x")
        assert list(tmp_path.iterdir()) == [path]


class TestOracle:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["--seed", "2", "oracle", "--n", "20000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ORACLE PASS" in out
        assert len(out.strip().splitlines()) == 8  # header + 6 grid points + verdict
