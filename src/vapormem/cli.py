"""Command-line front end.

Verbs: ``validate`` and ``run`` for sequence files, ``scan crosstalk`` and
``scan lifetime`` for the standard scans, ``fit`` for exponential fits of
two-column CSV data, ``report`` for the four-rail calibration round trip,
and ``oracle`` for the Monte Carlo / closed-form overlap comparison.

The command line is described once, in ``GLOBAL_OPTIONS`` and
``COMMANDS``. ``_plain_args`` reads its plain form from that table:
options spelled in full, once each, with values that do not start with
``-``. That covers every command line the documentation shows, and it
does not import argparse, with the gettext and locale that argparse
loads. Anything else, help and errors included, goes to the argparse
parser that ``build_parser`` makes from the same table, so it is read,
printed and refused exactly as argparse does it.

All commands are deterministic for a given input, configuration and seed;
re-running produces byte-identical CSV output. All CSV is UTF-8 with
``\\n`` line endings and ``.`` as the decimal separator.

Each ``cmd_*`` only computes and returns ``(exit code, stdout text,
[(path, text), ...])``; ``main`` alone prints and writes. Exit status is 0
iff no error-severity condition occurred. Exit status 2 means an ``error:``
line on stderr, nothing on stdout and no output file or directory created
or changed, since ``main`` opens every output before it writes any and
removes what it made for them. That covers an input file that is missing
or not UTF-8 text, an output that cannot be opened, and every named error
of the package.

Configuration files, read by ``configured``, are flat ``key = value``
text, one entry per line, ``#`` comments allowed. Keys are the physics
parameter names (``d0``, ``t_cell``, ...) and per-rail paths such as
``rail.190.tau_us``, whose MHz must name a calibrated rail: another number
is ``<path>:<line>: `` and the memory's no-calibration sentence. An unknown
key, a key set twice (the error names the line that first set it), or a
value the construction invariants refuse is rejected at its line, and the
configuration as a whole must give a memory on which every calibrated rail
is usable. An input file may start with a UTF-8 byte-order mark.
"""

from __future__ import annotations

import gc
import os
import sys
from array import array
from itertools import chain
from operator import attrgetter
from types import SimpleNamespace

from . import engine, harness, physics, seqlang
from .core import (
    DomainError,
    ParamError,
    PhysicsParams,
    RailCalibration,
    Trace,
    UnknownRailError,
    VaporMemError,
    _calibration,
    _rail_table,
    default_params,
    default_rails,
    fields,
    replace,
)

REPORT_TAU_RTOL = 1e-4
REPORT_ETA_TOL = 1e-3  # 0.1 percentage points, as a fraction
REPORT_MEAN_LIFETIME_US = (3.2, 0.2)
REPORT_MEAN_EFFICIENCY_PCT = (36.0, 1.0)
ORACLE_ABS_TOL = 0.02
ORACLE_GRID = tuple((d, t) for d in (0.0, 270.0, 675.0) for t in (0.4, 2.0))
# samples per step of waveform_csv: a multiple of _GRID_BLOCK, so every chunk
# after the first starts a block; its per-chunk lists and bytes stay near
# 1 MiB, while the intensity table lives for the whole call
WAVEFORM_CSV_CHUNK = 16_000
# rows per template of waveform_csv's integer time grid: times 100m ... 100m + 99
_GRID_BLOCK = 100

Outcome = tuple[int, str, list[tuple[str, str]]]  # exit code, stdout, (path, text) per output
_PARAM_KEYS = set(fields(PhysicsParams))
_RAIL_KEYS = set(fields(RailCalibration)) - {"f_rail"}


class ConfigError(VaporMemError):
    """Malformed configuration file or unknown/invalid key."""


class InputError(VaporMemError):
    """An input file is not UTF-8 text, or has a row its command cannot read."""


def _read_text(path: str) -> str:
    """The text of a UTF-8 input file, with its line endings read as ``\\n``.

    A leading byte-order mark is dropped, though not by reading as
    ``utf-8-sig``: that decoder reads a file of only the first one or two
    bytes of a mark as empty text, where they are bytes that are not UTF-8.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text "
                         f"(byte 0x{exc.object[exc.start]:02x} cannot be decoded)") from None


def configured(config_path: str | None) -> tuple[PhysicsParams, tuple[RailCalibration, ...]]:
    """The default parameters and rails, with a config file's overrides applied.

    Each line, less its ``#`` comment, is blank or ``key = value``, where the
    key is a parameter name or ``rail.<MHz>.<field>`` on a calibrated rail.
    A key may be set once: a second line for it is a ConfigError that names
    the line that first set it. Each override goes through its
    constructor's checks as its line is read, so a value they refuse is a
    ConfigError at its line. A memory is then built from the result, so a
    band or beam scale that leaves a calibrated rail unusable (or a
    diffusion coefficient or read variance that overflows) is a ConfigError
    for every command, not only for one that simulates.
    """
    params, rails = default_params(), default_rails()
    if config_path is None:
        return params, rails
    cals = _rail_table(rails)
    set_on: dict[tuple, int] = {}  # (rail MHz or None, field) -> the line that set it
    for lineno, raw in enumerate(_read_text(config_path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{config_path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("rail."):
            parts = key.split(".")
            try:
                f_rail = float(parts[1])
            except ValueError:
                parts = []  # a rail that is not a number is an unknown key
            if len(parts) != 3 or parts[2] not in _RAIL_KEYS:
                raise ConfigError(f"{where}: unknown key {key!r}")
            try:
                _calibration(cals, f_rail)
            except UnknownRailError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            slot = (f_rail, parts[2])
        elif key in _PARAM_KEYS:
            slot = (None, key)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            number = int(value) if key == "m_dep" else float(value)
        except ValueError:
            raise ConfigError(f"{where}: bad value for {key!r}") from None
        if slot in set_on:
            raise ConfigError(f"{where}: {key!r} was already set on line {set_on[slot]}")
        set_on[slot] = lineno
        f_rail, name = slot
        try:
            if f_rail is None:
                params = replace(params, **{name: number})
            else:
                cals[f_rail] = replace(cals[f_rail], **{name: number})
        except ParamError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    rails = tuple(cals.values())
    try:
        engine.Memory(params, rails)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return params, rails


def trace_csv(trace: Trace) -> str:
    """One row per event, each field by ``repr`` and the kind by its value.

    The trace is read column by column, with no TraceEvent built.
    """
    rows = map(",".join, zip(map(repr, trace.t_ns), map(attrgetter("value"), trace.kind),
                             map(repr, trace.f_rail), map(repr, trace.out_energy),
                             map(repr, trace.stored_after)))
    return "\n".join(chain(["t_ns,kind,rail_mhz,out_energy,stored_after"], rows, [""]))


def scan_csv(result: harness.ScanResult) -> str:
    names = list(result.series)
    lines = [",".join([result.axis_name] + names)]
    for i, x in enumerate(result.axis):
        row = [repr(x)] + [repr(result.series[name][i]) for name in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def waveform_csv(t, y) -> str:
    """CSV of two equal-length float64 arrays, built a chunk at a time.

    Every row is ``f"{t!r},{y!r}"`` of its own two floats; everything
    below only avoids calling ``repr`` where its text is known in advance.

    A rendered waveform repeats few intensities: most samples are the
    noise floor, and the pulses' far tails, near 1e-300 where ``repr`` is
    slowest, are symmetric about their centres and recur from pulse to
    pulse. So one table, kept for the whole call, holds the text of each
    distinct intensity, and each is formatted once. On a 400k-sample,
    200-pulse render that is 38k intensities, where per-chunk tables
    formatted 62k. The table costs about 5 MiB.

    The table is keyed by each sample's 64-bit pattern, not its value.
    Floats that compare equal but print differently (0.0 and -0.0) get
    different keys, and so do NaNs with different payloads, which all
    print ``nan``; a key's text is the ``repr`` of the float with its
    bits, so every sample prints as its own ``repr`` with no special case.

    Times on the default 1 ns grid are not formatted at all. A chunk whose
    times are bitwise the floats ``i, i + 1, ...`` of their own row numbers
    (its bytes equal to that slice of the engine's ``_time_axis(n, 1.0)``,
    which a 1 ns render has already built and cached) prints each full
    block of 100 rows ``100m ... 100m + 99`` (m >= 1) from a template:
    ``repr(float(k))`` is ``f"{k}.0"`` for every integer k below 1e16, so
    row ``100m + r`` reads ``f"{m}{r:02d}.0"``, m's digits then r's two. A
    block whose 100 intensities share one bit pattern (the noise floor) is
    the last such block's text with m replaced, rebuilt only when the
    intensity changes. Any other block slice-assigns its 100 time texts (one
    ``replace`` and ``split`` of a template) and its 100 table texts into
    one reused list of 200 and joins it. Block 0, whose times
    have fewer digits, a partial last block, and every chunk off the grid
    (another period, a moved time, a -0.0) take the ``repr`` path: the
    ``repr`` of each time interleaved with each intensity's table text,
    joined in C with no Python bytecode per row. Both paths print the
    same text for a grid time, so which one a row takes changes no byte.

    ``tolist()`` and ``tobytes()`` convert a chunk in one call each, and
    chunks keep those copies small next to the text being built. Each
    chunk's text is appended to the one result string, which CPython
    resizes in place while nothing else refers to it, so the call never
    holds its text twice, as a final join of all chunks would.
    """
    for what, a in (("times", t), ("intensities", y)):
        fmt = memoryview(a).format
        if fmt != "d":  # any other item would be read from bytes that are not its own
            raise TypeError(f"waveform_csv needs native float64 {what}, not format {fmt!r}")
    n = len(y)
    if len(t) != n:
        raise ValueError(f"waveform_csv needs one time per intensity, "
                         f"not {len(t)} times for {n} intensities")
    block = _GRID_BLOCK
    csv = "t_ns,intensity\n"
    text: dict[int, str] = {}
    # "|00.0\0|01.0\0...|99.0": block m's 100 time texts, with m for "|"
    times = "\0".join(f"|{r:02d}.0" for r in range(block))
    row_texts = [""] * (2 * block)  # a mixed block's time and intensity texts, row by row
    same_key, same_rows = None, ""  # the last one-intensity block, "|" for its m
    for i in range(0, n, WAVEFORM_CSV_CHUNK):
        j = min(i + WAVEFORM_CSV_CHUNK, n)
        yb = y[i:j].tobytes()
        keys = array("Q", yb).tolist()
        new = array("Q", set(keys).difference(text))
        text.update({k: f",{v!r}\n" for k, v in zip(new, array("d", new.tobytes()))})
        lo, hi = max(i, block), j - j % block  # the chunk's templated rows
        if not (lo < hi and t[i:j].tobytes() == engine._time_axis(n, 1.0)[8 * i:8 * j]):
            lo = hi = j
        parts = [_repr_rows(t[i:lo], keys[:lo - i], text)]
        for b in range(lo, hi, block):
            o = b - i
            ybits = yb[8 * o:8 * (o + block)]
            if ybits == ybits[:8] * block:
                if keys[o] != same_key:
                    same_key = keys[o]
                    same_rows = "".join(f"|{r:02d}.0{text[same_key]}" for r in range(block))
                parts.append(same_rows.replace("|", str(b // block)))
            else:
                row_texts[::2] = times.replace("|", str(b // block)).split("\0")
                row_texts[1::2] = map(text.__getitem__, keys[o:o + block])
                parts.append("".join(row_texts))
        parts.append(_repr_rows(t[hi:j], keys[hi - i:], text))
        csv += "".join(parts)
    return csv


def _repr_rows(t, keys: list[int], text: dict[int, str]) -> str:
    """Rows of the times ``t``, each by ``repr``, with their intensities' texts."""
    return "".join(chain.from_iterable(zip(map(repr, t.tolist()), map(text.__getitem__, keys))))


def _listing(diags) -> tuple[str, bool]:
    """(one line per diagnostic, whether one is an error)."""
    lines = "".join(f"{d.severity} {d.code} line {d.line}: {d.message}\n" for d in diags)
    return lines, any(d.severity == "error" for d in diags)


def cmd_validate(args, params, rails) -> Outcome:
    # one streamed pass over the rows, building no Operation, Sequence or
    # Memory; run prints the same diagnostics, so it simulates any program
    # validate accepts
    program = seqlang.Reader(_read_text(args.seqfile))
    lines, failed = _listing(seqlang.validate(program, params, rails))
    return int(failed), lines, []


def cmd_run(args, params, rails) -> Outcome:
    seq = seqlang.parse(_read_text(args.seqfile))
    lines, failed = _listing(seqlang.validate(seq, params, rails))
    if failed:
        return 1, lines, []
    trace = engine.run_sequence(engine.Memory(params, rails), seq)
    table = trace_csv(trace)
    files = [(args.trace_out, table)] if args.trace_out else []
    if args.waveform_out:
        t, y = engine.render_waveform(trace, args.sample_period_ns,
                                      noise_floor=args.noise_floor,
                                      span_ns=args.waveform_span_ns)
        files.append((args.waveform_out, waveform_csv(t, y)))
    return 0, lines + table.replace(",", " "), files


def _grid(args, standard: tuple[float, float, float]) -> tuple[float, ...]:
    """The scan axis: the standard (first, last, step) with the set flags in place."""
    flags = (args.min, args.max, args.step)
    return harness.scan_grid(*(s if f is None else f for f, s in zip(flags, standard)))


def cmd_scan(args, params, rails) -> Outcome:
    if args.kind == "crosstalk":
        if args.rail is not None:
            raise VaporMemError(f"scan crosstalk takes no --rail: it always writes on the "
                                f"{harness.CROSSTALK_WRITE_RAIL_MHZ:g} MHz rail")
        grid = _grid(args, harness.CROSSTALK_GRID_MHZ)
        result = harness.scan_crosstalk(params, rails, grid)
        out_path = os.path.join(args.out, "crosstalk.csv")
    else:
        f_rail = 190.0 if args.rail is None else args.rail
        grid = _grid(args, harness.LIFETIME_GRID_US)
        result = harness.scan_lifetime(params, rails, f_rail, grid)
        out_path = os.path.join(args.out, f"lifetime_{f_rail:g}.csv")
    return 0, "", [(out_path, scan_csv(result))]


def cmd_fit(args, params, rails) -> Outcome:
    # the first line is a header when its first field is not a number; every
    # other row that is not blank must start with two numbers, so that no row
    # is left out of the fit unseen
    points = []
    for lineno, raw in enumerate(_read_text(args.csvfile).split("\n"), start=1):
        row = raw.strip()
        if not row:
            continue
        fields = row.split(",")
        try:
            t, y = fields[:2]
            points.append((float(t), float(y)))
        except ValueError:
            try:
                float(fields[0])
            except ValueError:
                if lineno == 1:
                    continue  # a header
            raise InputError(f"{args.csvfile}:{lineno}: row {row!r} does not start "
                             f"with two numbers") from None
    fit = harness.fit_exponential(points)
    return 0, (f"A0={fit.a0!r}\ntau_us={fit.tau_us!r}\n"
               f"tau_err_us={fit.tau_err_us!r}\nrss={fit.rss!r}\n"), []


def cmd_report(args, params, rails) -> Outcome:
    lines = ["rail_mhz tau_fit_us tau_cal_us eta_fit_pct eta_cal_pct status"]
    taus, etas, ok = [], [], True
    for cal in rails:
        scan = harness.scan_lifetime(params, rails, cal.f_rail)
        fit = harness.fit_exponential(zip(scan.axis, scan.series["retrieved"]))
        eta_fit = harness.extrapolate_efficiency(
            scan.series["retrieved"][0], scan.axis[0], fit.tau_us)
        row_ok = (abs(fit.tau_us / cal.tau_us - 1.0) <= REPORT_TAU_RTOL
                  and abs(eta_fit - cal.eta_mem) <= REPORT_ETA_TOL)
        taus.append(fit.tau_us)
        etas.append(eta_fit)
        ok = ok and row_ok
        lines.append(f"{cal.f_rail:g} {fit.tau_us:.6f} {cal.tau_us:g} "
                     f"{100 * eta_fit:.2f} {100 * cal.eta_mem:g} "
                     f"{'PASS' if row_ok else 'FAIL'}")
    mean_tau, mean_tau_err = harness.weighted_mean(taus, [cal.tau_err_us for cal in rails])
    mean_eta_pct = 100.0 * sum(etas) / len(etas)
    tau_target, tau_band = REPORT_MEAN_LIFETIME_US
    tau_mean_ok = abs(mean_tau - tau_target) <= tau_band
    eta_target, eta_band = REPORT_MEAN_EFFICIENCY_PCT
    eta_mean_ok = abs(mean_eta_pct - eta_target) <= eta_band
    ok = ok and tau_mean_ok and eta_mean_ok
    lines += [
        f"weighted_mean_lifetime_us = {mean_tau:.6f} +/- {mean_tau_err:.6f} "
        f"(target {tau_target} +/- {tau_band}) {'PASS' if tau_mean_ok else 'FAIL'}",
        f"mean_efficiency_pct = {mean_eta_pct:.2f} (displays as {round(mean_eta_pct)}) "
        f"(target {eta_target:g} +/- {eta_band:g}) {'PASS' if eta_mean_ok else 'FAIL'}",
        f"REPORT {'PASS' if ok else 'FAIL'}",
    ]
    return 0 if ok else 1, "\n".join(lines) + "\n", []


def cmd_oracle(args, params, rails) -> Outcome:
    diff = physics.diffusion_coefficient(params)
    lines = ["d_um t_us mc analytic abs_diff"]
    ok = True
    estimates = harness.monte_carlo_overlaps(params, args.n, ORACLE_GRID, args.seed)
    for (d, t), mc in zip(ORACLE_GRID, estimates):
        s2 = physics.spread_variance_um2(params.sigma0 ** 2, t, diff)
        analytic = physics.overlap_factor(d, s2, params)
        delta = abs(mc - analytic)
        ok = ok and delta <= ORACLE_ABS_TOL
        lines.append(f"{d:g} {t:g} {mc!r} {analytic!r} {delta:.3e}")
    lines.append(f"ORACLE {'PASS' if ok else 'FAIL'} (tolerance {ORACLE_ABS_TOL} absolute)")
    return 0 if ok else 1, "\n".join(lines) + "\n", []


# The command line, described once: build_parser makes argparse's parser
# from it, and _plain_args reads its plain form without argparse. An option
# is (flag, type, default, help); a positional is (name, choices or None, help).
GLOBAL_OPTIONS = (
    ("--config", str, None, "key = value configuration file"),
    ("--seed", int, 1, "random seed"),
    ("--out", str, ".", "output directory for scan CSV"),
)
# command word -> (function, help, positionals, options)
COMMANDS = {
    "validate": (cmd_validate, "check a sequence file", (("seqfile", None, "sequence file"),), ()),
    "run": (cmd_run, "validate and simulate a sequence file",
            (("seqfile", None, "sequence file"),), (
        ("--trace-out", str, None, "write the trace CSV here"),
        ("--waveform-out", str, None, "write a sampled waveform CSV here"),
        ("--sample-period-ns", float, 1.0, "sample period in ns, finite and > 0 (default 1)"),
        ("--waveform-span-ns", float, None, "span in ns, finite and >= 0 (default: last op + 600)"),
        ("--noise-floor", float, 0.0, "intensity added to each sample, finite, >= 0 (default 0)"),
    )),
    "scan": (cmd_scan, "run a standard scan",
             (("kind", ("crosstalk", "lifetime"), "which scan: separation or storage delay"),), (
        ("--min", float, None, "first point, MHz for crosstalk, us for lifetime (default 0, 0.4)"),
        ("--max", float, None, "last point, in the same unit (default 25, 11.2)"),
        ("--step", float, None, "step, in the same unit (default 1, 0.4)"),
        ("--rail", float, None, "rail to scan lifetime on, MHz (default 190); not for crosstalk"),
    )),
    "fit": (cmd_fit, "fit an exponential decay to CSV data",
            (("csvfile", None, "CSV of t_us,energy rows after an optional header line"),), ()),
    "report": (cmd_report, "calibration round trip for all rails", (), ()),
    "oracle": (cmd_oracle, "Monte Carlo check of the overlap model", (),
               (("--n", int, 100_000, "Brownian walkers, 1000 to 10^7 (default 100000)"),)),
}


def build_parser():
    """argparse's parser for the command line: every help text, usage line and error."""
    import argparse

    def add_options(parser, options):
        for flag, kind, default, text in options:
            parser.add_argument(flag, type=kind, default=default, help=text)

    parser = argparse.ArgumentParser(
        prog="vapormem",
        description="Simulator of a multiplexed random-access vapor memory")
    add_options(parser, GLOBAL_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for word, (func, text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(word, help=text)
        for name, choices, text in positionals:
            p.add_argument(name, choices=choices, help=text)
        add_options(p, options)
        p.set_defaults(func=func)
    return parser


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _plain_args(argv) -> SimpleNamespace | None:
    """The arguments ``build_parser().parse_args(argv)`` gives, for a plain argv, else None.

    Plain means: the global options, then one command word, then exactly
    its positionals mixed with its options. Every option is spelled in
    full, given at most once and followed by a value that does not start
    with ``-`` and that its type converts; a positional does not start with
    ``-`` either, and ``scan``'s kind is one of its choices. Anything else
    (``-h``, ``--``, ``--seed=3``, ``--se``, ``-1``, a repeated or misplaced
    option) is None, and argparse reads it, prints its help or its error.
    """
    values = {_dest(flag): default for flag, _, default, _ in GLOBAL_OPTIONS}
    options = {flag: kind for flag, kind, _, _ in GLOBAL_OPTIONS}
    positionals, given = None, []  # the command's positionals, the tokens for them
    tokens = iter(argv)
    for token in tokens:
        if token in options:
            kind = options.pop(token)  # so a second one is unknown
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            try:
                values[_dest(token)] = kind(value)
            except (TypeError, ValueError):
                return None
        elif token.startswith("-"):
            return None
        elif positionals is None:
            if token not in COMMANDS:
                return None
            func, _, positionals, command_options = COMMANDS[token]
            values.update(command=token, func=func)
            values.update((_dest(flag), default) for flag, _, default, _ in command_options)
            options = {flag: kind for flag, kind, _, _ in command_options}
        else:
            given.append(token)
    if positionals is None or len(given) != len(positionals):
        return None
    for (name, choices, _), token in zip(positionals, given):
        if choices is not None and token not in choices:
            return None
        values[name] = token
    return SimpleNamespace(**values)


def _make_dirs(name: str, made: list[str]) -> None:
    """Make directory ``name`` and its missing parents, appending each one made to ``made``."""
    if not name or os.path.isdir(name):
        return
    _make_dirs(os.path.dirname(name), made)
    if not os.path.isdir(name):  # a name ending in . or .. exists once its parent does
        os.mkdir(name)
        made.append(name)


def main(argv=None) -> int:
    # numpy's OpenBLAS starts one thread per core when it loads, about 60 ms
    # of the oracle's numpy import, and this process never calls BLAS. The
    # setting only acts before numpy loads, and a value already set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv is None:
        argv = sys.argv[1:]
    # argparse reads, and prints the help or error for, what the plain reader does not
    args = _plain_args(argv) or build_parser().parse_args(argv)
    made, created = [], []
    try:
        params, rails = configured(args.config)
        code, text, files = args.func(args, params, rails)
        # every output is opened before any is written, so one that cannot be
        # opened leaves them all as they were, with no directory made for
        # them; a file named twice gets the last text
        for path, _ in files:
            _make_dirs(os.path.dirname(path), made)
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                created.append(path)
            except FileExistsError:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
        for path, body in files:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(body)
    except (VaporMemError, OSError) as exc:
        for path in created:
            os.unlink(path)
        for name in reversed(made):  # deepest first
            os.rmdir(name)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # two writes, not one concatenation, so a long table is not copied again
    sys.stdout.write(text)
    sys.stdout.write("".join(f"wrote {path}\n" for path, _ in files))
    return code


def entry() -> None:
    """Process entry of ``python -m vapormem.cli`` and the ``vapormem`` script."""
    code = main()
    # the interpreter's final collections at exit would walk every object
    # that start-up and the command left (about 11 ms a command on a 2-core
    # host, 30 ms with numpy loaded). Frozen objects are still freed by
    # reference counting, main has closed every output, and atexit handlers
    # and the stdio flush still run. main itself does not freeze: its
    # in-process callers collect between calls and would keep their garbage.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
