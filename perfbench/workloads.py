"""The benchmark's workloads: the CLI commands of one pass and their output checks.

Each workload is a fixed list of ``vapormem`` commands, run in that order
as one *pass*. Inputs are generated from the workload seed by ``gen``;
every path handed to the CLI is absolute and lies in the run's work
directory, so a pass can run from any working directory and in-process.

Why each workload exists, and which layer it isolates:

* ``repro``: the paper's reproduction flow (random-access run with trace
  and waveform, cross-talk scan, lifetime scan, fit, calibration report,
  Monte Carlo oracle). Six short commands on fresh memories of at most a
  few components, so interpreter and import start-up dominate and the
  engine is nearly idle. Start-up gains show here; engine gains should not.
* ``long-run``: one ``run --trace-out`` on a dense 800-op program. The
  engine's per-op cost grows with the component pool, so
  ``engine.run_sequence`` dominates. Engine gains show here; parser and
  waveform gains should not.
* ``bulk-io``: ``validate`` on a 30k-op program (parse-bound), then
  ``run --waveform-out`` on a sparse 200-op program spanning 400 us at
  1 ns sampling (render- and CSV-bound). Text-in and text-out gains show
  here; an engine gain should move it only slightly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import gen

TRACE_HEADER = "t_ns,kind,rail_mhz,out_energy,stored_after"
WAVE_HEADER = "t_ns,intensity"
WAVE_TAIL_NS = 600  # render_waveform's default span past the last event
FIT_RAIL_MHZ = 190.0  # rail of the repro lifetime scan and fit


@dataclass
class Command:
    """One CLI invocation: arguments after ``python -m vapormem.cli``.

    ``check`` receives the command's stdout and returns a list of problems
    (empty when the output is right). It may read the command's output
    files, which are listed in ``outputs`` for the byte-identity check.
    """

    argv: list[str]
    check: Callable[[str], list[str]]
    outputs: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    commands: list[Command]
    sim_ops: int             # operations simulated by the ``run`` commands of a pass
    run_programs: list[str]  # .seq files simulated by ``run`` commands


def _numbers(path: str, header: str, n_rows: int, numeric_cols) -> list[str]:
    """Check a CSV's header, row count, and that numeric cells are finite and >= 0."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[0] != header:
        return [f"{os.path.basename(path)}: header {lines[0]!r}"]
    if lines[-1] != "":
        return [f"{os.path.basename(path)}: missing final newline"]
    rows = lines[1:-1]
    if len(rows) != n_rows:
        return [f"{os.path.basename(path)}: {len(rows)} rows, expected {n_rows}"]
    for row in rows:
        cells = row.split(",")
        for i in numeric_cols:
            x = float(cells[i])
            if not math.isfinite(x) or x < 0.0:
                return [f"{os.path.basename(path)}: bad value in row {row!r}"]
    return []


def _event_lines(stdout: str, n_ops: int) -> list[str]:
    """``run`` prints a header and one line per event before any ``wrote`` line."""
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("wrote ")]
    if not lines or lines[0] != "t_ns kind rail_mhz out_energy stored_after":
        return ["run: missing event header on stdout"]
    if len(lines) - 1 != n_ops:
        return [f"run: {len(lines) - 1} events printed, expected {n_ops}"]
    return []


def _check_run(n_ops: int, trace_out: str | None, wave_out: str | None,
               wave_rows: int, extra=None) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        problems = _event_lines(stdout, n_ops)
        if trace_out:
            problems += _numbers(trace_out, TRACE_HEADER, n_ops, (0, 2, 3, 4))
        if wave_out:
            problems += _numbers(wave_out, WAVE_HEADER, wave_rows, (0, 1))
        if extra and not problems:
            problems += extra()
        return problems
    return check


def _last_t_ns(text: str) -> int:
    return int(text.rstrip("\n").rsplit("\n", 1)[1].split()[1].removesuffix("ns"))


def _criteria_check(trace_out: str, seq_text: str) -> Callable[[], list[str]]:
    """harness.check_criteria must pass all three memory criteria on the trace."""
    def check() -> list[str]:
        from vapormem import cli, harness, seqlang
        from vapormem.core import OpKind, Trace, TraceEvent

        with open(trace_out, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        events = []
        for row in rows:
            t, kind, f, out, stored = row.split(",")
            events.append(TraceEvent(float(t), OpKind(kind), float(f), float(out), float(stored)))
        params, rails = cli.configured(None)
        report = harness.check_criteria(Trace(tuple(events)), seqlang.parse(seq_text),
                                        params, rails)
        return [] if report.all_pass else [f"check_criteria failed: {report}"]
    return check


def _check_last_line(prefix: str) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        last = stdout.splitlines()[-1] if stdout else ""
        return [] if last.startswith(prefix) else [f"last stdout line {last!r}"]
    return check


def _check_scan(path: str, axis: str, n_rows: int) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        if not header.startswith(axis + ","):
            return [f"{os.path.basename(path)}: header {header!r}"]
        return _numbers(path, header, n_rows, range(header.count(",") + 1))
    return check


def _check_fit(rail_mhz: float) -> Callable[[str], list[str]]:
    """The fit of the lifetime scan recovers the rail's calibrated tau."""
    def check(stdout: str) -> list[str]:
        from vapormem import cli

        _, rails = cli.configured(None)
        tau_cal = next(cal.tau_us for cal in rails if cal.f_rail == rail_mhz)
        fields = dict(ln.split("=", 1) for ln in stdout.splitlines() if "=" in ln)
        if "tau_us" not in fields:
            return ["fit: no tau_us on stdout"]
        rel = abs(float(fields["tau_us"]) / tau_cal - 1.0)
        return [] if rel <= cli.REPORT_TAU_RTOL else [f"fit: tau_us off by {rel:.2e}"]
    return check


def _check_validate_clean(stdout: str) -> list[str]:
    return [] if stdout == "" else [f"validate printed diagnostics: {stdout[:200]!r}"]


def repro(work: str, seed: int) -> Workload:
    seq = os.path.join(work, "random_access.seq")
    n_ops = gen.write_checked(seq, gen.RANDOM_ACCESS)
    trace_out = os.path.join(work, "random_access_trace.csv")
    wave_out = os.path.join(work, "random_access_wave.csv")
    lifetime = os.path.join(work, f"lifetime_{FIT_RAIL_MHZ:g}.csv")
    commands = [
        Command(["run", seq, "--trace-out", trace_out, "--waveform-out", wave_out],
                _check_run(n_ops, trace_out, wave_out,
                           _last_t_ns(gen.RANDOM_ACCESS) + WAVE_TAIL_NS,
                           _criteria_check(trace_out, gen.RANDOM_ACCESS)),
                [trace_out, wave_out]),
        Command(["--out", work, "scan", "crosstalk"],
                _check_scan(os.path.join(work, "crosstalk.csv"), "separation_mhz", 26),
                [os.path.join(work, "crosstalk.csv")]),
        Command(["--out", work, "scan", "lifetime", "--rail", f"{FIT_RAIL_MHZ:g}"],
                _check_scan(lifetime, "delay_us", 28), [lifetime]),
        Command(["fit", lifetime], _check_fit(FIT_RAIL_MHZ)),
        Command(["report"], _check_last_line("REPORT PASS")),
        # the oracle's Monte Carlo seed follows the workload seed
        Command(["--seed", str(seed), "oracle"], _check_last_line("ORACLE PASS")),
    ]
    return Workload("repro", commands, n_ops, [seq])


def long_run(work: str, seed: int) -> Workload:
    seq = os.path.join(work, "long_run.seq")
    n_ops = gen.write_checked(seq, gen.long_run(seed))
    trace_out = os.path.join(work, "long_run_trace.csv")
    commands = [
        Command(["run", seq, "--trace-out", trace_out],
                _check_run(n_ops, trace_out, None, 0), [trace_out]),
    ]
    return Workload("long-run", commands, n_ops, [seq])


def bulk_io(work: str, seed: int) -> Workload:
    bulk = os.path.join(work, "bulk.seq")
    gen.write_checked(bulk, gen.bulk_parse(seed))
    sparse_text = gen.sparse_render(seed)
    sparse = os.path.join(work, "sparse.seq")
    n_ops = gen.write_checked(sparse, sparse_text)
    wave_out = os.path.join(work, "sparse_wave.csv")
    commands = [
        Command(["validate", bulk], _check_validate_clean),
        Command(["run", sparse, "--waveform-out", wave_out],
                _check_run(n_ops, None, wave_out, _last_t_ns(sparse_text) + WAVE_TAIL_NS),
                [wave_out]),
    ]
    return Workload("bulk-io", commands, n_ops, [sparse])


WORKLOADS = {"repro": repro, "long-run": long_run, "bulk-io": bulk_io}
