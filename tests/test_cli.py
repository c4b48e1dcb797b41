import contextlib
import hashlib
import io
import math
import random
import struct
from array import array
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import reference_engine
from corpus import CANONICAL
from programs import HUGE, programs
from test_engine import PINNED_TRACE_SHA256, random_program
from vapormem import cli, core, engine, seqlang
from vapormem.cli import (
    ORACLE_GRID,
    WAVEFORM_CSV_CHUNK,
    ConfigError,
    configured,
    main,
    waveform_csv,
)
from vapormem.core import OpKind, ParamError, PhysicsParams, default_params, default_rails
from vapormem.engine import Memory, render_waveform, run_sequence
from vapormem.harness import MAX_ORACLE_ATOMS, monte_carlo_overlaps
from vapormem.seqlang import Diagnostic, ValidationFailure, parse

TIGHT = "SEQUENCE tight\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 47ns READ 190MHz\n"
CLOSE_RAILS = ("SEQUENCE close\nRAILS 190MHz 198MHz\n"
               "AT 0ns WRITE 190MHz\nAT 400ns READ 198MHz\n")
UNCALIBRATED_198 = ("rail 198 MHz has no calibration "
                    "(calibrated rails: 170, 190, 210, 230 MHz)")
UNCALIBRATED_195 = UNCALIBRATED_198.replace("198", "195")
# under d0 = 4e303, D and 2 D are finite, but the spread variance of a
# component 2 us old is not
LATE_READ = "SEQUENCE late\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 2us READ 190MHz\n"
# under pos_per_mhz = 1e153 the squared distance between 170 and 230 MHz is
# not a float; at a read 1.526e307 ns later, 2 (s2 + v) is not one either
FAR_READ = ("SEQUENCE far\nRAILS 170MHz 230MHz\nAT 0ns WRITE 170MHz\n"
            f"AT 1526{'0' * 304}ns READ 230MHz\n")
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
# position overflows a float, and the quantity the error names; sigma0 is
# PhysicsParams' own check, so its error is the whole line at the config line
OVERFLOWING_CONFIGS = [
    ("t_cell = 1e308", "diffusion coefficient"),
    ("d0 = 1e308", "diffusion coefficient"),
    ("p_buffer = 1e-304", "diffusion coefficient"),
    pytest.param("w_signal = 1e308", "{cfg}:1: sigma0² = (w_signal / 2)² must be a strictly "
                 "positive finite float\n", id="w_signal = 1e308-sigma0"),
    ("w_control = 1e308", "read sampling variance"),
    ("pos_per_mhz = 1e307", "beam position"),
]
# configs that leave a calibrated rail, or a pair of them, unusable, and the
# error every command exits 2 with, though a 190 MHz program never uses the
# 170 MHz rail
UNUSABLE_RAIL_CONFIGS = [
    # the band's sentence is E002's
    ("f_halfband = 20", "rail 170 MHz outside deflector band [180, 220] MHz"),
    ("pos_per_mhz = 1e307", "beam position of rail 170 MHz must be a finite float"),
    ("pos_per_mhz = 1e153",
     "squared distance between rails 170 and 230 MHz must be a finite float"),
]
CONFIG_KEYS = sorted(core.fields(PhysicsParams)) + [
    f"rail.{f}.{k}" for f in ("190", "230.0", "195") for k in ("tau_us", "tau_err_us", "eta_mem")]
CONFIG_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["inf", "-Infinity", "nan", "1e400", "-1e400", HUGE, "1e-400", "0x10", "1_0"]),
    st.text(max_size=8),
)
# config lines over the accepted keys with finite values; the constructors
# reject some of them
FINITE_CONFIG_LINES = st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS), st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 10**6).map(str),
    st.sampled_from(["4e303", "1e300", "1e-300", "5e-324"]),
))
CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS), CONFIG_VALUES),
    st.text(max_size=30),
)


def repr_table(events) -> str:
    """The trace CSV of events, row by row, each field by ``repr``."""
    return "t_ns,kind,rail_mhz,out_energy,stored_after\n" + "".join(
        f"{ev.t_ns!r},{ev.kind.value},{ev.f_rail!r},{ev.out_energy!r},{ev.stored_after!r}\n"
        for ev in events)


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
        # the calibrated rails are 20 MHz apart, so a program with W001 also
        # declares an uncalibrated rail; E003 blocks it, and W001 still prints
        # (tests/test_engine.py runs the program with a 198 MHz calibration)
        rc = main(["validate", seqfile(CLOSE_RAILS)])
        out = capsys.readouterr().out
        assert rc == 1
        assert out == (
            f"error E003 line 2: {UNCALIBRATED_198}\n"
            "warning W001 line 2: rails 190 and 198 MHz are separated by 8 MHz, "
            "below the cross-talk-free 20 MHz\n")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_out_of_band_rail_line(self, seqfile, capsys, command):
        rc = main([command, seqfile("SEQUENCE s\nRAILS 260MHz\nAT 0ns WRITE 260MHz\n")])
        assert rc == 1
        assert capsys.readouterr().out == (
            "error E002 line 2: rail 260 MHz outside deflector band [150, 250] MHz\n"
            "error E003 line 2: rail 260 MHz has no calibration "
            "(calibrated rails: 170, 190, 210, 230 MHz)\n")

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


class TestValidateAgreesWithRun:
    @given(lines=st.lists(FINITE_CONFIG_LINES, max_size=4), text=programs())
    @example(lines=[], text=CLOSE_RAILS)
    @example(lines=["d0 = 4e303"], text=LATE_READ)
    @example(lines=["pos_per_mhz = 1e153"], text=FAR_READ)
    def test_program_validate_accepts_runs(self, tmp_path_factory, lines, text):
        cfg = tmp_path_factory.getbasetemp() / "prop.cfg"
        cfg.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        try:
            configured(str(cfg))
        except (ConfigError, ParamError):
            reject()
        path = tmp_path_factory.getbasetemp() / "prop.seq"
        path.write_text(text, encoding="utf-8")
        if main(["--config", str(cfg), "validate", str(path)]) == 0:
            assert main(["--config", str(cfg), "run", str(path)]) == 0

    def test_api_rejects_what_validate_rejects_before_the_first_op(self, seqfile, capsys):
        assert main(["validate", seqfile(CLOSE_RAILS)]) == 1
        printed = capsys.readouterr().out.splitlines()
        mem = Memory(default_params(), default_rails())
        with pytest.raises(ValidationFailure) as err:
            run_sequence(mem, parse(CLOSE_RAILS))
        raised = [f"{d.severity} {d.code} line {d.line}: {d.message}"
                  for d in err.value.diagnostics]
        assert raised == printed[:1] == [f"error E003 line 2: {UNCALIBRATED_198}"]
        assert mem.stored_on(190.0) == 0.0
        assert mem.t_now_ns == 0.0

    @pytest.mark.parametrize("code", ["W001", "E001"])
    def test_both_commands_print_what_validate_returns(self, seqfile, tmp_path, capsys,
                                                       monkeypatch, code):
        # validate and run print the list that seqlang.validate returns, looked
        # up on the module when called, so a wrapper of it, such as perfbench's
        # traced mode, sees every diagnostics pass; each pass is given the rails
        table = cli.trace_csv(run_sequence(Memory(default_params(), default_rails()),
                                           parse(CANONICAL)))
        sentinel = Diagnostic(code, 7, "sentinel")
        given_rails = []

        def sentinel_only(program, p, rails=None):
            given_rails.append(rails)
            return [sentinel]

        monkeypatch.setattr(seqlang, "validate", sentinel_only)
        path = seqfile(CANONICAL)
        printed = f"{sentinel.severity} {code} line 7: sentinel\n"
        failed = code == "E001"
        assert main(["validate", path]) == int(failed)
        assert capsys.readouterr().out == printed
        trace_path = tmp_path / "trace.csv"
        assert main(["run", path, "--trace-out", str(trace_path)]) == int(failed)
        if failed:
            assert capsys.readouterr().out == printed
            assert not trace_path.exists()
        else:
            assert capsys.readouterr().out == (printed + table.replace(",", " ")
                                               + f"wrote {trace_path}\n")
            assert trace_path.read_text() == table
        assert len(given_rails) >= 2 and None not in given_rails


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

    def test_run_sequence_is_called_once_through_the_module(self, seqfile, tmp_path, capsys,
                                                           monkeypatch):
        # a wrapper of engine.run_sequence, such as perfbench's traced mode,
        # sees the one call that simulates, and the trace it returns is the
        # one printed and written
        traces = []

        def recording(state, seq):
            traces.append(run_sequence(state, seq))
            return traces[-1]

        monkeypatch.setattr(engine, "run_sequence", recording)
        trace_path = tmp_path / "trace.csv"
        assert main(["run", seqfile(CANONICAL), "--trace-out", str(trace_path)]) == 0
        assert len(traces) == 1 and len(traces[0]) == 12
        table = cli.trace_csv(traces[0])
        assert trace_path.read_text() == table
        assert capsys.readouterr().out == table.replace(",", " ") + f"wrote {trace_path}\n"

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

    def test_uncalibrated_rail_names_the_calibrated_ones(self, seqfile, tmp_path, capsys):
        # 198 MHz is declared, so the error must not say it was not; it is a
        # validation error on the RAILS line, as validate reports it
        prog = seqfile(CLOSE_RAILS)
        assert main(["validate", prog]) == 1
        validated = capsys.readouterr()
        trace_path = tmp_path / "trace.csv"
        rc = main(["run", prog, "--trace-out", str(trace_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"error E003 line 2: {UNCALIBRATED_198}\n" in captured.out
        assert captured.out == validated.out
        assert captured.err == validated.err == ""
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
        pytest.param("new/sub/t.csv", "adir", id="new-trace-directories-removed"),
        pytest.param("new/./sub/../t.csv", "adir", id="new-dot-directories-removed"),
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

    def test_trace_csv_prints_each_field_by_its_repr(self):
        # read from the columns of a Trace built of events: 0.0 and -0.0 in
        # one column, and equal rails of two types, keep their own texts
        events = [core.TraceEvent(t, OpKind.READ, f, out, after) for t, f, out, after in [
            (0.0, 190.0, 0.0, -0.0), (-0.0, Decimal("190"), -0.0, 0.0),
            (1e22, 190, 0.1, 0.1), (math.inf, 190.0, 0.1 + 0.2, 0.3)]]
        rows = [f"{ev.t_ns!r},{ev.kind.value},{ev.f_rail!r},{ev.out_energy!r},{ev.stored_after!r}"
                for ev in events]
        assert cli.trace_csv(core.Trace(events)) == "\n".join(
            ["t_ns,kind,rail_mhz,out_energy,stored_after"] + rows + [""])
        assert cli.trace_csv(core.Trace(())) == "t_ns,kind,rail_mhz,out_energy,stored_after\n"

    def test_long_random_program_trace_file_is_pinned(self, seqfile, tmp_path, capsys):
        # the API path is pinned by test_engine's test of the same name; this
        # pins what `vapormem run` writes, from the text through the file
        path = seqfile(seqlang.format_sequence(random_program(random.Random(0), 2000)))
        out = tmp_path / "trace.csv"
        assert main(["run", path, "--trace-out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_TRACE_SHA256

    def test_trace_csv_chunks_join_to_the_row_by_row_table(self):
        trace = run_sequence(Memory(default_params(), default_rails()), parse(CANONICAL))
        assert len(trace) > 2 * 5
        with mock.patch.object(cli, "TRACE_CSV_CHUNK", 5):
            assert cli.trace_csv(trace) == repr_table(trace)

    def test_reruns_are_byte_identical(self, seqfile, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        path = seqfile(CANONICAL)
        assert main(["run", path, "--trace-out", str(a)]) == 0
        assert main(["run", path, "--trace-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRunAgreesWithReference:
    @given(text=programs())
    @settings(deadline=None)
    def test_run_prints_and_writes_what_the_reference_gives(self, tmp_path_factory, text):
        # exit code, stdout and the trace file of `vapormem run`, against the
        # API's parse and validate and tests/reference_engine's trace, each
        # row formatted field by field with repr
        base = tmp_path_factory.getbasetemp()
        path, out = base / "mixed.seq", base / "mixed.csv"
        path.write_bytes(text.encode())
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", str(path), "--trace-out", str(out)])
        params, rails = default_params(), default_rails()
        try:
            seq = parse(text.replace("\r\n", "\n"))
        except seqlang.ParseError as exc:
            assert (code, stdout.getvalue(), stderr.getvalue()) == (2, "", f"error: {exc}\n")
            assert not out.exists()
            return
        diags = seqlang.validate(seq, params, rails)
        listing = "".join(f"{d.severity} {d.code} line {d.line}: {d.message}\n" for d in diags)
        if any(d.severity == "error" for d in diags):
            assert (code, stdout.getvalue()) == (1, listing)
            assert not out.exists()
            return
        table = repr_table(reference_engine.run(params, rails, seq))
        assert code == 0
        assert stdout.getvalue() == listing + table.replace(",", " ") + f"wrote {out}\n"
        assert out.read_text() == table


def per_sample_waveform_csv(t, y) -> str:
    """The waveform formatter before chunking: one numpy scalar at a time."""
    lines = ["t_ns,intensity"]
    for ti, yi in zip(t, y):
        lines.append(f"{float(ti)!r},{float(yi)!r}")
    return "\n".join(lines) + "\n"


C = WAVEFORM_CSV_CHUNK


def assert_same_csv(got: str, expected: str) -> None:
    """``got == expected``, naming the first row that differs; pytest's diff
    of two texts this long would take minutes."""
    if got != expected:
        g, e = got.split("\n"), expected.split("\n")
        k = next((k for k, (a, b) in enumerate(zip(g, e)) if a != b), min(len(g), len(e)))
        raise AssertionError(f"line {k} differs: {g[k:k + 1]} != {e[k:k + 1]} "
                             f"({len(g)} and {len(e)} lines)")


def assert_same_bytes(t, y):
    """waveform_csv of ``t, y`` as numpy arrays, array('d') buffers and strided views."""
    expected = per_sample_waveform_csv(t, y)
    assert_same_csv(waveform_csv(t, y), expected)
    # render_waveform returns array('d') buffers, which format the same
    assert_same_csv(waveform_csv(array("d", t), array("d", y)), expected)
    # a strided view, whose chunks are not contiguous
    t2, y2 = np.repeat(t, 2), np.repeat(y, 2)
    assert_same_csv(waveform_csv(t2[::2], y2[::2]), expected)


def one_intensity_blocks(y) -> int:
    """How many full 100-row blocks after the first hold one bit pattern."""
    bits = np.asarray(y).view(np.uint64)
    blocks = bits[100:len(bits) // 100 * 100].reshape(-1, 100)
    return int((blocks == blocks[:, :1]).all(axis=1).sum())


def sparse_program(rng: random.Random, last_ns: int) -> str:
    """A validator-clean program whose ops lie sparsely over ``last_ns`` ns."""
    times = [0] + sorted(rng.sample(range(48, last_ns, 48), 20)) + [last_ns]
    kinds = ["WRITE"] + rng.choices(["WRITE", "READ", "PUMP"], weights=(9, 9, 2), k=21)
    rails = (170, 190, 210, 230)
    lines = [f"AT {t}ns {kind} {rng.choice(rails)}MHz" for t, kind in zip(times, kinds)]
    return "\n".join(["SEQUENCE sparse", "RAILS 170MHz 190MHz 210MHz 230MHz"] + lines) + "\n"


class TestWaveformCsv:
    # 32767-32769 were 2 C - 1 ... 2 C + 1 when C was 16384; they stay as
    # lengths whose last block is partial
    @pytest.mark.parametrize("n", [0, 1, 99, 100, 101, C - 1, C, C + 1, 2 * C + 101,
                                   32767, 32768, 32769])
    def test_same_bytes_as_per_sample_formatter(self, n):
        rng = np.random.default_rng(n)
        y = rng.exponential(1e-3, n)
        y[::7] = 0.0
        y[1::7] = -0.0  # equal to 0.0, but printed differently
        y[1::11] = 5e-324  # the smallest subnormal
        y[2::13] = 1e-5
        y[3::29] = math.nan
        y[4::31] = math.inf
        y[5::37] = -math.inf
        y[6::41] = struct.unpack("d", struct.pack("Q", 0x7FF8_0000_0000_1234))[0]  # a NaN payload
        y[7::43] = -math.nan  # the sign bit set; it prints "nan" too
        y[n // 3:n // 2] = 2.5e-7  # a long run of one noise floor, not block-aligned
        y[200:500] = 3e-6  # three blocks of one intensity, aligned with them
        y[500:600] = -0.0  # one block of -0.0, whose text is not 0.0's
        y[600:700] = 0.0
        # one-intensity runs across a chunk boundary: aligned, then not
        y[C - 300:C + 200] = 1e-5
        y[2 * C - 250:2 * C + 150] = 7e-9
        # one far-tail value on both sides of a chunk boundary
        y[C - 5:C + 5] = 1.7e-300
        assert_same_bytes(np.arange(n) * 0.37, y)
        assert_same_bytes(np.arange(n) * 1.0, y)  # the integer grid
        # grids that are not the integer one, which the repr path prints
        off_grid = [np.arange(n) * 2.0, np.arange(n) * 0.5]
        if n:
            t = np.arange(n) * 1.0
            t[0] = -0.0
            off_grid.append(t)
            t = np.arange(n) * 1.0
            k = min(C + 150, n - 1)  # in a later chunk where there is one
            t[k] = math.nextafter(t[k], math.inf)
            off_grid.append(t)
        for t in off_grid:
            assert_same_csv(waveform_csv(t, y), per_sample_waveform_csv(t, y))

    @settings(deadline=None, max_examples=60)
    @given(pool=st.lists(st.floats(width=64) | st.sampled_from([0.0, -0.0, 5e-324, 1e-5]),
                         min_size=1, max_size=4),
           runs=st.lists(st.tuples(st.integers(1, 5) | st.integers(1, 400), st.integers(0, 3)),
                         max_size=40),
           chunk=st.sampled_from([100, 300, C]))
    def test_grid_waveforms_match_per_sample_formatter(self, pool, runs, chunk):
        # runs of a few intensities: blocks of one intensity, mixed blocks and
        # runs that start mid-block; chunks of 100 and 300 rows put chunk
        # boundaries inside waveforms this small
        y = array("d")
        for length, k in runs:
            y.extend(array("d", [pool[k % len(pool)]]) * length)
        t = array("d", range(len(y)))
        with mock.patch.object(cli, "WAVEFORM_CSV_CHUNK", chunk):
            assert_same_csv(waveform_csv(t, y), per_sample_waveform_csv(t, y))

    @pytest.mark.parametrize("floor", [0.0, 1e-5])  # 1e-5 is demo 02's noise floor
    def test_sparse_render_matches_per_sample_formatter(self, floor):
        seq = parse(sparse_program(random.Random(3), 36_000))
        trace = run_sequence(Memory(default_params(), default_rails()), seq)
        t, y = render_waveform(trace, 1.0, noise_floor=floor)
        assert len(t) > 2 * C
        assert one_intensity_blocks(y) > len(t) // 200  # over half the blocks are templated
        assert_same_csv(waveform_csv(t, y), per_sample_waveform_csv(t, y))

    def test_cached_axis_is_compared_not_trusted(self):
        # the render leaves its 1 ns axis cached; each of these times differs
        # from it, or from the grid of its own length, or finds it evicted
        seq = parse(sparse_program(random.Random(5), 2 * C))
        trace = run_sequence(Memory(default_params(), default_rails()), seq)
        t, y = render_waveform(trace, 1.0)
        n = len(t)
        assert n > 2 * C
        moved = array("d", t)
        moved[2 * C + 50] = math.nextafter(moved[2 * C + 50], math.inf)
        signed = array("d", t)
        signed[0] = -0.0
        m = n - 150
        cases = [(moved, y), (signed, y), (array("d", range(n)), y), (t[:m], y[:m])]
        for times, ys in cases:
            assert_same_csv(waveform_csv(times, ys), per_sample_waveform_csv(times, ys))
        render_waveform(trace, 0.5)  # caches the 0.5 ns axis in place of the 1 ns one
        assert_same_csv(waveform_csv(t, y), per_sample_waveform_csv(t, y))

    def test_times_off_the_grid_build_no_grid_axis(self):
        # a 0.37 ns render caches its own axis; printing it builds no 1 ns axis
        # in its place
        seq = parse(sparse_program(random.Random(5), 2 * C))
        trace = run_sequence(Memory(default_params(), default_rails()), seq)
        t, y = render_waveform(trace, 0.37, noise_floor=0.001)
        misses = engine._time_axis.cache_info().misses
        assert_same_csv(waveform_csv(t, y), per_sample_waveform_csv(t, y))
        assert engine._time_axis.cache_info().misses == misses

    @pytest.mark.parametrize("dtype", [np.float32, ">f8"])
    def test_rejects_intensities_that_are_not_native_float64(self, dtype):
        with pytest.raises(TypeError, match="float64"):
            waveform_csv(np.zeros(3), np.zeros(3, dtype=dtype))

    @pytest.mark.parametrize("t", [np.arange(3), array("i", [0, 1, 2]),
                                   np.zeros(3, dtype=np.float32), np.zeros(3, dtype=">f8")],
                             ids=["int64", "array-i", "float32", ">f8"])
    def test_rejects_times_that_are_not_native_float64(self, t):
        # integer times printed as 0, 1, 2 where a float64 grid prints 0.0
        with pytest.raises(TypeError, match="float64 times"):
            waveform_csv(t, np.zeros(3))

    @pytest.mark.parametrize("n_t, n_y", [(4, 3), (3, 4), (0, 1)])
    def test_rejects_unequal_lengths(self, n_t, n_y):
        # zip dropped the extra rows without a word
        with pytest.raises(ValueError, match="one time per intensity"):
            waveform_csv(np.arange(n_t) * 1.0, np.zeros(n_y))


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

    def test_uncalibrated_rail_rejected(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "scan", "lifetime", "--rail", "195"])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {UNCALIBRATED_195}\n")
        assert list(tmp_path.iterdir()) == []

    def test_rail_refused_on_crosstalk(self, tmp_path, capsys):
        # only scan lifetime reads --rail; crosstalk always writes on 190 MHz
        rc = main(["--out", str(tmp_path), "scan", "crosstalk", "--rail", "230"])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: scan crosstalk takes no --rail: it always writes on the 190 MHz rail\n")
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

    # with the named row left out, the other three fit without an error.
    # Line 1 is a header only when its first field is not a number
    @pytest.mark.parametrize("lines,lineno", [
        *[pytest.param(["t,y", "0.4,1.0", row, "1.2,0.8", "", "1.6,0.7"], 3, id=row)
          for row in ["0.8,0.9O", "0.8", "# comment", "0.8;0.9"]],
        pytest.param(["0.4,1.0O", "0.8,0.9", "1.2,0.8", "1.6,0.7"], 1, id="headerless"),
        pytest.param(["t_us,energy", "0.4,1.0", "0.8,0.9O", "1.2,0.8", "1.6,0.7"], 3,
                     id="t_us-header"),
    ])
    def test_unreadable_row_is_named(self, tmp_path, capfd, lines, lineno):
        path = tmp_path / "typo.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(path)]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        row = lines[lineno - 1]
        assert err == f"error: {path}:{lineno}: row {row!r} does not start with two numbers\n"

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
    # the report's error comes after the first table row is known; the
    # oracle's overflowing read variance is caught with the configuration
    @pytest.mark.parametrize("line,command", [
        ("w_control = 1e308", ["oracle", "--n", "1000"]),
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

    @pytest.mark.parametrize("key", ["sigma0", "t0", "p0", "edge_loss"])
    def test_derived_and_reference_values_are_unknown_keys(self, seqfile, tmp_path,
                                                          capsys, key):
        # sigma0 is w_signal / 2, d0 is quoted at fixed reference conditions,
        # and the measured rail efficiencies already hold the edge loss
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(f"{key} = 1\n")
        out = tmp_path / "trace.csv"
        rc = main(["--config", str(cfg), "run", seqfile(CANONICAL), "--trace-out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"unknown key {key!r}" in captured.err
        assert not out.exists()

    def test_wider_signal_beam_still_passes_the_report(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("w_signal = 300\n")
        assert main(["--config", str(cfg), "report"]) == 0
        assert capsys.readouterr().out.endswith("REPORT PASS\n")

    @pytest.mark.parametrize("first,second", [
        ("d0 = 0.1", "d0 = 0.24"),
        ("rail.190.tau_us = 5.4", "rail.190.tau_us = 6.0"),
    ], ids=["parameter", "rail"])
    def test_key_given_twice_rejected(self, seqfile, tmp_path, capsys, first, second):
        # the last value does not win without a word
        key = first.split(" = ")[0]
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(f"{first}\n# the same key again\n{second}\n")
        out = tmp_path / "trace.csv"
        rc = main(["--config", str(cfg), "run", seqfile(CANONICAL), "--trace-out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:3: {key!r} was already set on line 1\n"
        assert not out.exists()

    def test_override_revalidated(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# a comment\nw_signal = -1\n")
        assert main(["--config", str(cfg), "report"]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}:2: w_signal must be strictly positive\n")

    def test_unknown_rail_rejected(self, seqfile, tmp_path, capsys):
        # a number that names no calibrated rail gets the engine's sentence at
        # its line; a rail that is not a number makes the key unknown
        cfg = tmp_path / "bad.cfg"
        out = tmp_path / "trace.csv"
        for rail, message in [("195", UNCALIBRATED_195),
                              ("nan", UNCALIBRATED_195.replace("195", "nan")),
                              ("abc", "unknown key 'rail.abc.tau_us'")]:
            cfg.write_text(f"rail.{rail}.tau_us = 1.0\n")
            assert main(["--config", str(cfg), "report"]) == 2
            assert capsys.readouterr() == ("", f"error: {cfg}:1: {message}\n")
            cfg.write_text(f"# line 1\nrail.{rail}.tau_us = 5.4\n")
            rc = main(["--config", str(cfg), "run", seqfile(CANONICAL), "--trace-out", str(out)])
            assert rc == 2
            assert capsys.readouterr() == ("", f"error: {cfg}:2: {message}\n")
            assert not out.exists()

    @pytest.mark.parametrize("line,field", NON_FINITE_CONFIGS)
    def test_non_finite_value_rejected(self, seqfile, tmp_path, capsys, line, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "trace.csv"
        rc = main(["--config", str(cfg), "run", seqfile(CANONICAL), "--trace-out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: {field} must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("line,quantity", OVERFLOWING_CONFIGS)
    def test_overflowing_derived_value_rejected(self, seqfile, tmp_path, capsys,
                                                line, quantity):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "trace.csv"
        rc = main(["--config", str(cfg), "run", seqfile(CANONICAL), "--trace-out", str(out)])
        assert rc == 2
        assert f"error: {quantity.format(cfg=cfg)}" in capsys.readouterr().err
        assert not out.exists()

    def test_read_past_a_float_spread_variance_runs(self, seqfile, tmp_path, capsys):
        # the 2 us old component's variance is inf, so the read's overlap is 1.0
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text("d0 = 4e303\n")
        prog = seqfile(LATE_READ)
        out = tmp_path / "trace.csv"
        assert main(["--config", str(cfg), "validate", prog]) == 0
        assert main(["--config", str(cfg), "run", prog, "--trace-out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 3

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

    @pytest.mark.parametrize("line,message", UNUSABLE_RAIL_CONFIGS)
    @pytest.mark.parametrize("command", ["validate", "run", "scan lifetime", "fit", "report"])
    def test_unusable_calibrated_rail_rejected_by_every_command(self, tmp_path, capsys,
                                                                line, message, command):
        cfg = tmp_path / "rails.cfg"
        cfg.write_text(line + "\n")
        prog = tmp_path / "p.seq"
        prog.write_text("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 400ns READ 190MHz\n")
        data = tmp_path / "decay.csv"
        data.write_text("t,y\n0.4,0.31\n2.0,0.23\n4.0,0.15\n8.0,0.07\n")
        out = tmp_path / "out"
        argv = {
            "validate": ["validate", str(prog)],
            "run": ["run", str(prog), "--trace-out", str(out / "t.csv")],
            "scan lifetime": ["scan", "lifetime"],
            "fit": ["fit", str(data)],
            "report": ["report"],
        }[command]
        before = tree(tmp_path)
        assert main(["--config", str(cfg), "--out", str(out)] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert tree(tmp_path) == before

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
            for name in core.fields(obj):
                assert math.isfinite(getattr(obj, name)), name

    def test_comments_and_param_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# slower switching\nt_switch = 100\n")
        seq = tmp_path / "prog.seq"
        seq.write_text("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 60ns READ 190MHz\n")
        # 60 ns spacing is fine at default 48 ns but not at 100 ns
        assert main(["validate", str(seq)]) == 0
        assert main(["--config", str(cfg), "validate", str(seq)]) == 1


class TestNonUtf8Input:
    # the first two bytes of a byte-order mark, and no more, are not UTF-8 either
    @pytest.mark.parametrize("data", [b"\xe9", b"# fine\n\xff\n", b"\xef\xbb"],
                             ids=["e9", "ff-line-2", "bom-prefix"])
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


# each input file, read as it is and after a UTF-8 byte-order mark; the fit
# CSV has no header, so a mark that hid its first row would drop that row
BOM_INPUTS = [
    pytest.param(["validate", "{in}"], CANONICAL, id="validate"),
    pytest.param(["--config", "{in}", "report"], "d0 = 0.3\nrail.190.tau_us = 5.0\n",
                 id="config"),
    pytest.param(["fit", "{in}"], "0.4,0.31\n2.0,0.23\n4.0,0.15\n8.0,0.07\n", id="fit"),
]


@pytest.mark.parametrize("argv,text", BOM_INPUTS)
def test_byte_order_mark_changes_nothing(tmp_path, capsys, argv, text):
    path = tmp_path / "input"
    argv = [a.format(**{"in": path}) for a in argv]
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + text.encode())
        code = main(argv)
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1) and results[0][2] == ""


class TestOracle:
    def test_passes_at_default_tolerance(self, capsys):
        # the default --n, 100,000 walkers
        rc = main(["--seed", "2", "oracle"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ORACLE PASS" in out
        assert len(out.strip().splitlines()) == 8  # header + 6 grid points + verdict

    def test_mc_column_is_the_per_point_estimates(self, capsys):
        assert main(["--seed", "3", "oracle", "--n", "2000"]) in (0, 1)
        rows = capsys.readouterr().out.splitlines()[1:-1]
        assert [row.split()[:2] for row in rows] == [[f"{d:g}", f"{t:g}"] for d, t in ORACLE_GRID]
        assert ([row.split()[2] for row in rows]
                == [repr(monte_carlo_overlaps(default_params(), 2000, [(d, t)], 3)[0])
                    for d, t in ORACLE_GRID])

    def test_negative_seed_is_named_error(self, capsys):
        assert main(["--seed", "-1", "oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed -1 is negative; it must be a non-negative integer\n"

    @pytest.mark.parametrize("n", [str(MAX_ORACLE_ATOMS + 1), "10000000000"])
    def test_absurd_atom_count_is_named_error(self, monkeypatch, capsys, n):
        def allocate(*args, **kwargs):
            raise AssertionError("allocated before checking the atom count")
        monkeypatch.setattr(np, "empty", allocate)
        assert main(["oracle", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {n} atoms are more than {MAX_ORACLE_ATOMS}\n"


# every word of the command-line table, with tokens that argparse reads in
# other ways: help, the end of options, an attached value, an abbreviation,
# a negative number, and values that a type does or does not convert
ARGV_WORDS = sorted(
    {*cli.COMMANDS}
    | {flag for flag, *_ in cli.GLOBAL_OPTIONS}
    | {flag for *_, options in cli.COMMANDS.values() for flag, *_ in options}
    | {choice for _, _, positionals, _ in cli.COMMANDS.values()
       for _, choices, _ in positionals for choice in choices or ()}
    | {"-h", "--help", "--", "--seed=3", "--trace", "--se", "-1", "nan", "abc", "", "1"})
PARSER = cli.build_parser()


@st.composite
def command_lines(draw):
    """Some global options, then a command word with one token per positional
    and some of its options in any order; each value a word of ARGV_WORDS,
    one that does not start with "-" half the time."""
    words = st.sampled_from([w for w in ARGV_WORDS if not w.startswith("-")])
    words |= st.sampled_from(ARGV_WORDS)
    word = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[word]
    flags = [flag for flag, *_ in options]
    chosen = draw(st.lists(st.sampled_from(flags), unique=True)) if flags else []
    parts = [[draw(words)] for _ in positionals] + [[flag, draw(words)] for flag in chosen]
    globals_ = draw(st.lists(st.sampled_from([flag for flag, *_ in cli.GLOBAL_OPTIONS]), unique=True))
    return ([token for flag in globals_ for token in (flag, draw(words))] + [word]
            + [token for part in draw(st.permutations(parts)) for token in part])


def argparse_args(argv):
    """build_parser's arguments for argv, or None where argparse exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return PARSER.parse_args(argv)
    except SystemExit:
        return None


@pytest.mark.parametrize("word", [None, *cli.COMMANDS])
def test_help_prints_every_option_with_its_text(word):
    # None is the global options of vapormem --help
    argv = ["--help"] if word is None else [word, "--help"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 0
    options = cli.GLOBAL_OPTIONS if word is None else cli.COMMANDS[word][3]
    positionals = () if word is None else cli.COMMANDS[word][2]
    printed = " ".join(out.getvalue().split())  # argparse wraps long help lines
    for flag, _, _, text in options:
        assert isinstance(text, str) and text.strip(), flag
        assert f"{flag} {cli._dest(flag).upper()} {text}" in printed
    for name, choices, text in positionals:
        assert isinstance(text, str) and text.strip(), name
        shown = name if choices is None else "{" + ",".join(choices) + "}"
        assert f"{shown} {text}" in printed


class TestPlainArgs:
    """cli._plain_args reads a plain command line as argparse does, and no other."""

    # plain: True or False where an example must (not) take the plain path
    @settings(max_examples=500)
    @given(argv=st.lists(st.sampled_from(ARGV_WORDS), max_size=8) | command_lines(),
           plain=st.none())
    # the benchmark workloads' nine command lines
    @example(argv=["run", "w/random_access.seq", "--trace-out", "w/random_access_trace.csv",
                   "--waveform-out", "w/random_access_wave.csv"], plain=True)
    @example(argv=["--out", "w", "scan", "crosstalk"], plain=True)
    @example(argv=["--out", "w", "scan", "lifetime", "--rail", "190"], plain=True)
    @example(argv=["fit", "w/lifetime_190.csv"], plain=True)
    @example(argv=["report"], plain=True)
    @example(argv=["--seed", "2", "oracle"], plain=True)
    @example(argv=["run", "w/long_run.seq", "--trace-out", "w/long_run_trace.csv"], plain=True)
    @example(argv=["validate", "w/bulk.seq"], plain=True)
    @example(argv=["run", "w/sparse.seq", "--waveform-out", "w/sparse_wave.csv"], plain=True)
    # argparse reads -1 as a value; the plain reader leaves it to argparse
    @example(argv=["run", "w/sparse.seq", "--noise-floor", "-1"], plain=False)
    def test_agrees_with_argparse(self, argv, plain):
        got = cli._plain_args(argv)
        if plain is not None:
            assert (got is not None) == plain
        if got is not None:
            expected = argparse_args(argv)
            assert expected is not None
            # by repr, so that a nan equals itself and 1 differs from 1.0
            assert ({k: repr(v) for k, v in vars(got).items()}
                    == {k: repr(v) for k, v in vars(expected).items()})

    def test_main_reads_a_plain_line_without_building_the_parser(self, capsys):
        with mock.patch.object(cli, "build_parser", side_effect=AssertionError):
            assert main(["report"]) == 0
        assert capsys.readouterr().out.endswith("REPORT PASS\n")
