"""Command-line front end.

Verbs: ``validate`` and ``run`` for sequence files, ``scan crosstalk`` and
``scan lifetime`` for the standard scans, ``fit`` for exponential fits of
two-column CSV data, ``report`` for the four-rail calibration round trip,
and ``oracle`` for the Monte Carlo / closed-form overlap comparison.

All commands are deterministic for a given input, configuration and seed;
re-running produces byte-identical CSV output. All CSV is UTF-8 with
``\\n`` line endings and ``.`` as the decimal separator. Exit status is 0
iff no error-severity condition occurred; nothing is written on a
validation failure.

Configuration files are flat ``key = value`` text, one entry per line,
``#`` comments allowed. Keys are the physics parameter names (``d0``,
``t_cell``, ``w_dep``, ...) and dotted per-rail paths such as
``rail.190.tau_us``. Unknown keys are rejected and overridden values are
re-checked against the construction invariants.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields as dataclass_fields, replace

from . import engine, harness, physics, seqlang
from .core import (
    PhysicsParams,
    RailCalibration,
    Trace,
    VaporMemError,
    default_params,
    default_rails,
)

REPORT_TAU_RTOL = 1e-4
REPORT_ETA_TOL = 1e-3  # 0.1 percentage points, as a fraction
REPORT_MEAN_LIFETIME_US = (3.2, 0.2)
REPORT_MEAN_EFFICIENCY_PCT = (36.0, 1.0)
ORACLE_ABS_TOL = 0.02
ORACLE_GRID = tuple((d, t) for d in (0.0, 270.0, 675.0) for t in (0.4, 2.0))
WAVEFORM_CSV_CHUNK = 1 << 14  # samples formatted per step of waveform_csv

_PARAM_KEYS = {f.name for f in dataclass_fields(PhysicsParams)}
_RAIL_KEYS = {"tau_us", "tau_err_us", "eta_mem"}


class ConfigError(VaporMemError):
    """Malformed configuration file or unknown/invalid key."""


def load_config(path: str) -> tuple[dict, dict]:
    """Parse a config file into (param overrides, per-rail overrides)."""
    param_over: dict[str, object] = {}
    rail_over: dict[float, dict[str, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key.startswith("rail."):
                parts = key.split(".")
                if len(parts) != 3 or parts[2] not in _RAIL_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    f_rail = float(parts[1])
                    rail_over.setdefault(f_rail, {})[parts[2]] = float(value)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key!r}") from None
            elif key in _PARAM_KEYS:
                try:
                    if key == "m_dep":
                        param_over[key] = int(value)
                    else:
                        param_over[key] = float(value)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key!r}") from None
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return param_over, rail_over


def configured(config_path: str | None) -> tuple[PhysicsParams, tuple[RailCalibration, ...]]:
    """Defaults with config-file overrides applied and re-validated."""
    params = default_params()
    rails = default_rails()
    if config_path is None:
        return params, rails
    param_over, rail_over = load_config(config_path)
    if param_over:
        params = replace(params, **param_over)
    known = {cal.f_rail for cal in rails}
    for f_rail in rail_over:
        if f_rail not in known:
            raise ConfigError(f"config overrides unknown rail {f_rail} MHz")
    return params, tuple(replace(cal, **rail_over.get(cal.f_rail, {})) for cal in rails)


def trace_csv(trace: Trace) -> str:
    lines = ["t_ns,kind,rail_mhz,out_energy,stored_after"]
    for ev in trace:
        lines.append(f"{ev.t_ns!r},{ev.kind.value},{ev.f_rail!r},"
                     f"{ev.out_energy!r},{ev.stored_after!r}")
    return "\n".join(lines) + "\n"


def scan_csv(result: harness.ScanResult) -> str:
    names = list(result.series)
    lines = [",".join([result.axis_name] + names)]
    for i, x in enumerate(result.axis):
        row = [repr(x)] + [repr(result.series[name][i]) for name in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def waveform_csv(t, y) -> str:
    """CSV of two equal-length float arrays, formatted a chunk at a time.

    ``tolist()`` on a chunk converts its samples to Python floats in one
    call; chunks keep that copy small next to the text being built.
    """
    chunks = ["t_ns,intensity\n"]
    for i in range(0, len(t), WAVEFORM_CSV_CHUNK):
        j = i + WAVEFORM_CSV_CHUNK
        pairs = zip(t[i:j].tolist(), y[i:j].tolist())
        chunks.append("".join([f"{a!r},{b!r}\n" for a, b in pairs]))
    return "".join(chunks)


def _print_diagnostics(diags) -> None:
    for d in diags:
        print(f"{d.severity} {d.code} line {d.line}: {d.message}")


def _make_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _write_text(path: str, text: str) -> None:
    _make_parent(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_validate(args, params, rails) -> int:
    with open(args.seqfile, encoding="utf-8") as fh:
        seq = seqlang.parse(fh.read())
    diags = seqlang.validate(seq, params)
    _print_diagnostics(diags)
    return 1 if any(d.severity == "error" for d in diags) else 0


def cmd_run(args, params, rails) -> int:
    with open(args.seqfile, encoding="utf-8") as fh:
        seq = seqlang.parse(fh.read())
    diags = seqlang.validate(seq, params)
    _print_diagnostics(diags)
    if any(d.severity == "error" for d in diags):
        return 1
    mem = engine.Memory(params, rails)
    trace = engine.run_sequence(mem, seq)
    # every output's text is rendered and its directory made before the first
    # line is printed, so a late error there leaves stdout empty and no file
    # behind
    table = trace_csv(trace)
    outputs = []
    if args.trace_out:
        outputs.append((args.trace_out, table))
    if args.waveform_out:
        t, y = engine.render_waveform(trace, args.sample_period_ns,
                                      noise_floor=args.noise_floor,
                                      span_ns=args.waveform_span_ns)
        outputs.append((args.waveform_out, waveform_csv(t, y)))
    for path, _ in outputs:
        _make_parent(path)
    print(table.replace(",", " "), end="")
    for path, text in outputs:
        _write_text(path, text)
        print(f"wrote {path}")
    return 0


def _grid(args, standard: tuple[float, float, float]) -> tuple[float, ...]:
    """The scan axis: the standard (first, last, step) with the set flags in place."""
    flags = (args.min, args.max, args.step)
    return harness.scan_grid(*(s if f is None else f for f, s in zip(flags, standard)))


def cmd_scan(args, params, rails) -> int:
    if args.kind == "crosstalk":
        grid = _grid(args, harness.CROSSTALK_GRID_MHZ)
        result = harness.scan_crosstalk(params, rails, grid)
        out_path = os.path.join(args.out, "crosstalk.csv")
    else:
        grid = _grid(args, harness.LIFETIME_GRID_US)
        result = harness.scan_lifetime(params, rails, args.rail, grid)
        out_path = os.path.join(args.out, f"lifetime_{args.rail:g}.csv")
    _write_text(out_path, scan_csv(result))
    print(f"wrote {out_path}")
    return 0


def cmd_fit(args, params, rails) -> int:
    points = []
    with open(args.csvfile, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.strip().split(",")
            if len(parts) < 2:
                continue
            try:
                points.append((float(parts[0]), float(parts[1])))
            except ValueError:
                continue  # header or comment row
    fit = harness.fit_exponential(points)
    print(f"A0={fit.a0!r}")
    print(f"tau_us={fit.tau_us!r}")
    print(f"tau_err_us={fit.tau_err_us!r}")
    print(f"rss={fit.rss!r}")
    return 0


def cmd_report(args, params, rails) -> int:
    # every number is computed before the first line is printed, so a late
    # error leaves stdout empty
    rows = []
    for cal in rails:
        scan = harness.scan_lifetime(params, rails, cal.f_rail)
        fit = harness.fit_exponential(zip(scan.axis, scan.series["retrieved"]))
        eta_fit = harness.extrapolate_efficiency(
            scan.series["retrieved"][0], scan.axis[0], fit.tau_us)
        row_ok = (abs(fit.tau_us / cal.tau_us - 1.0) <= REPORT_TAU_RTOL
                  and abs(eta_fit - cal.eta_mem) <= REPORT_ETA_TOL)
        rows.append((cal, fit, eta_fit, row_ok))
    mean_tau, mean_tau_err = harness.weighted_mean(
        [fit.tau_us for _, fit, _, _ in rows], [cal.tau_err_us for cal, _, _, _ in rows])
    mean_eta_pct = 100.0 * sum(eta for _, _, eta, _ in rows) / len(rows)
    tau_target, tau_band = REPORT_MEAN_LIFETIME_US
    tau_mean_ok = abs(mean_tau - tau_target) <= tau_band
    eta_target, eta_band = REPORT_MEAN_EFFICIENCY_PCT
    eta_mean_ok = abs(mean_eta_pct - eta_target) <= eta_band
    ok = all(row_ok for *_, row_ok in rows) and tau_mean_ok and eta_mean_ok

    print("rail_mhz tau_fit_us tau_cal_us eta_fit_pct eta_cal_pct status")
    for cal, fit, eta_fit, row_ok in rows:
        print(f"{cal.f_rail:g} {fit.tau_us:.6f} {cal.tau_us:g} "
              f"{100 * eta_fit:.2f} {100 * cal.eta_mem:g} "
              f"{'PASS' if row_ok else 'FAIL'}")
    print(f"weighted_mean_lifetime_us = {mean_tau:.6f} +/- {mean_tau_err:.6f} "
          f"(target {tau_target} +/- {tau_band}) {'PASS' if tau_mean_ok else 'FAIL'}")
    print(f"mean_efficiency_pct = {mean_eta_pct:.2f} (displays as {round(mean_eta_pct)}) "
          f"(target {eta_target:g} +/- {eta_band:g}) {'PASS' if eta_mean_ok else 'FAIL'}")
    print(f"REPORT {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_oracle(args, params, rails) -> int:
    # every row is computed before the first line is printed, so a late
    # error leaves stdout empty
    diff = physics.diffusion_coefficient(params)
    rows = []
    for d, t in ORACLE_GRID:
        mc = harness.monte_carlo_overlap(params, args.n, d, t, args.seed)
        s2 = physics.spread_variance_um2(params.sigma0 ** 2, t, diff)
        analytic = physics.overlap_factor(d, s2, params)
        rows.append((d, t, mc, analytic, abs(mc - analytic)))
    ok = all(delta <= ORACLE_ABS_TOL for *_, delta in rows)

    print("d_um t_us mc analytic abs_diff")
    for d, t, mc, analytic, delta in rows:
        print(f"{d:g} {t:g} {mc!r} {analytic!r} {delta:.3e}")
    print(f"ORACLE {'PASS' if ok else 'FAIL'} (tolerance {ORACLE_ABS_TOL} absolute)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vapormem",
        description="Simulator of a multiplexed random-access vapor memory")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    parser.add_argument("--out", default=".", help="output directory for scan CSV")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a sequence file")
    p.add_argument("seqfile")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="validate and simulate a sequence file")
    p.add_argument("seqfile")
    p.add_argument("--trace-out", help="write the trace CSV here")
    p.add_argument("--waveform-out", help="write a sampled waveform CSV here")
    p.add_argument("--sample-period-ns", type=float, default=1.0)
    p.add_argument("--waveform-span-ns", type=float, default=None)
    p.add_argument("--noise-floor", type=float, default=0.0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("scan", help="run a standard scan")
    p.add_argument("kind", choices=("crosstalk", "lifetime"))
    p.add_argument("--min", type=float, default=None)
    p.add_argument("--max", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--rail", type=float, default=190.0)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", help="fit an exponential decay to CSV data")
    p.add_argument("csvfile")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="calibration round trip for all rails")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("oracle", help="Monte Carlo check of the overlap model")
    p.add_argument("--n", type=int, default=100_000)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, rails = configured(args.config)
        return args.func(args, params, rails)
    except (VaporMemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
