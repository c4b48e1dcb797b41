#!/usr/bin/env python3
"""Benchmark of the ``vapormem`` CLI: pass wall time per workload, and a
traced per-layer breakdown.

    python3 perfbench/run.py --workload repro --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports and runs the package from
that checkout's ``src``. A *pass* is a workload's fixed list of CLI
commands (see ``workloads.py``), each started in a fresh interpreter as
``python -m vapormem.cli``, one at a time: a single-client closed loop.

``--trace 0`` runs one untimed warm-up pass, then timed passes until
``--seconds`` have gone by, and reports the end-to-end metrics. Between
passes it samples the set-up time: a fresh interpreter that imports
``vapormem.cli`` and resolves the default configuration.

``--trace 1`` reports the per-layer metrics instead: start-up split into
interpreter, numpy and vapormem imports (plus ``-X importtime`` self
times), then in-process replays of the same commands through
``cli.main``, alternately untraced and traced, for ``--seconds``, and a
replay that steps ``Memory.write/read/pump`` one op at a time.

Every command's exit code and outputs are checked after the timer stops,
and every output file must be byte-identical across passes, replays and
modes. A failed command is counted and the run goes on. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Work files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "pass_s_p50": "s",
    "setup_s": "s",
    "sim_ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

_VAPORMEM_IMPORT_METRICS = {f"startup.importtime.{m}_s": "s"
                            for m in tracing.VAPORMEM_MODULES}
PER_LAYER = {
    "startup.interp_s": "s",
    "startup.import_numpy_s": "s",
    "startup.import_vapormem_s": "s",
    "startup.total_s": "s",
    "startup.importtime.numpy_total_s": "s",
    "startup.importtime.numpy_top_s": "s",
    "startup.importtime.vapormem_total_s": "s",
    "startup.importtime.other_total_s": "s",
    **_VAPORMEM_IMPORT_METRICS,
    "seqlang.parse_s": "s",
    "seqlang.parse_us_per_op": "us",
    "seqlang.validate_s": "s",
    "seqlang.ops": "count",
    "seqlang.self_s": "s",
    "engine.run_sequence_s": "s",
    "engine.us_per_op": "us",
    "engine.write_us": "us",
    "engine.read_us": "us",
    "engine.pump_us": "us",
    "engine.pool_visits": "count",
    "engine.live_visit_frac": "ratio",
    "engine.pool_final": "count",
    "engine.render_waveform_s": "s",
    "engine.waveform_samples": "count",
    "engine.render_ns_per_sample": "ns",
    "engine.self_s": "s",
    "cli.configured_s": "s",
    "cli.trace_csv_s": "s",
    "cli.waveform_csv_s": "s",
    "cli.scan_csv_s": "s",
    "cli.bytes_written": "B",
    "cli.stdout_bytes": "B",
    "cli.self_s": "s",
    "harness.scan_crosstalk_s": "s",
    "harness.scan_lifetime_s": "s",
    "harness.fit_exponential_s": "s",
    "harness.monte_carlo_overlap_s": "s",
    "harness.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.replays": "count",
    "trace.spans": "count",
    "pass.subprocess_s": "s",
    "pass.inprocess_s": "s",
    "target.share": "ratio",
    "failed_frac": "ratio",
    "sim.ops": "count",
    "sim.retrieved_total": "energy",
    "sim.leaked_total": "energy",
    "sim.retrieved_over_written": "ratio",
    "sim.oracle_max_abs_diff": "ratio",
    "sim.report_tau_rel_err_max": "ratio",
    "sim.outputs_digest48": "sha256-48",
}

SETUP_SAMPLES = 7
SETUP_CODE = "import vapormem.cli as cli; cli.configured(None)"
# The host-speed probe: a fresh interpreter that imports numpy, as every
# command does, then runs a fixed pure-Python loop, as the engine and the
# parser do, and prints the loop's time. It imports nothing of vapormem, so
# no change to the program can move it. Passes are scaled by the whole
# probe; set-up runs, which only start and import, by the probe minus its loop.
PROBE_CODE = """\
import time
import numpy
t0 = time.perf_counter()
acc = 0
for i in range(1_000_000):
    acc += i * i
print(time.perf_counter() - t0)
"""
PROBE_NOMINAL_S = 0.25        # whole probe on a quiet host
PROBE_START_NOMINAL_S = 0.15  # its start and numpy import on a quiet host
STARTUP_SAMPLES = 5
TRACE_PASSES = 3  # subprocess passes of a traced run; their median is pass.subprocess_s
IMPORTTIME_SAMPLES = 3


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return "missing"


class Bench:
    """Runs a workload's passes and checks every command it runs.

    The first time each command is recorded, its output digests become the
    reference every later pass or replay must match byte for byte.
    """

    def __init__(self, workload: workloads.Workload, env: dict, work: str):
        self.workload = workload
        self.env = env
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, list[str]] = {}
        self._checked: dict[tuple, list[str]] = {}

    def subprocess_pass(self, label: str) -> tuple[float, float]:
        """One pass of fresh interpreters; returns (wall s, peak child RSS MiB)."""
        codes, stdouts, peak_kib = [], [], 0
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        t0 = time.perf_counter()
        for cmd in self.workload.commands:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = subprocess.Popen([sys.executable, "-m", "vapormem.cli", *cmd.argv],
                                        stdout=out, stderr=err, env=self.env, cwd=self.work)
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN accumulates
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            codes.append(proc.returncode)
            peak_kib = max(peak_kib, usage.ru_maxrss)
            with open(out_path, encoding="utf-8", errors="replace") as fh:
                stdouts.append(fh.read())
        wall = time.perf_counter() - t0
        self.record(label, codes, stdouts)
        return wall, peak_kib / 1024.0

    def record(self, label: str, codes: list[int], stdouts: list[str]) -> None:
        for i, (cmd, code, stdout) in enumerate(zip(self.workload.commands, codes, stdouts)):
            self.attempted += 1
            digests = [_sha256(p) for p in cmd.outputs]
            problems = [] if code == 0 else [f"exit status {code}"]
            if not problems:
                key = (i, hashlib.sha256(stdout.encode()).hexdigest(), tuple(digests))
                if key not in self._checked:
                    try:
                        self._checked[key] = cmd.check(stdout)
                    except Exception as exc:  # a malformed output is a failed check
                        self._checked[key] = [f"check raised {type(exc).__name__}: {exc}"]
                problems = self._checked[key]
            ref = self.reference.setdefault(i, digests)
            if digests != ref:
                problems = problems + ["output differs from the first pass"]
            if problems:
                self.failed += 1
                self.problems.append(f"{label}: {cmd.argv[0]}: {problems[0]}")

    def digests(self) -> dict[str, str]:
        return {os.path.basename(p): _sha256(p)
                for cmd in self.workload.commands for p in cmd.outputs}


def _probe(env: dict) -> tuple[float, float]:
    """Wall time of the host-speed probe, whole and without its loop."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE_CODE], env=env,
                          check=True, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    return wall, wall - float(proc.stdout)


def timed(bench: Bench, seconds: float) -> dict[str, float]:
    """Untraced subprocess samples for ``seconds``; the end-to-end metrics.

    The speed of this shared host drifts by 20 % and more for minutes at a
    time, with the load of other tenants. So a host-speed probe runs before
    the first and after every sample (a pass, or a set-up run); each sample
    is divided by the mean of its two neighbouring probes and multiplied by
    that probe time on a quiet host. Medians are taken over the scaled
    samples; raw medians are printed on the line before the result.
    """
    env = bench.env
    bench.subprocess_pass("warm-up")
    probes = [_probe(env)]

    def scaled(raw: float, part: int, nominal: float) -> tuple[float, float]:
        probes.append(_probe(env))
        return raw, raw / statistics.fmean(p[part] for p in probes[-2:]) * nominal

    start = time.perf_counter()
    setup = [scaled(tracing.child_wall([sys.executable, "-c", SETUP_CODE], env), 1,
                    PROBE_START_NOMINAL_S)
             for _ in range(SETUP_SAMPLES)]
    passes, rss = [], []
    while not passes or time.perf_counter() - start < seconds:
        wall, peak = bench.subprocess_pass(f"pass {len(passes) + 1}")
        rss.append(peak)
        passes.append(scaled(wall, 0, PROBE_NOMINAL_S))
    p50 = statistics.median(scaled for _, scaled in passes)
    print(f"passes={len(passes)} raw_pass_s_p50={statistics.median(r for r, _ in passes):.4f} "
          f"raw_setup_s={statistics.median(r for r, _ in setup):.4f} "
          f"probe_s={statistics.median(p[0] for p in probes):.4f} "
          f"probe_start_s={statistics.median(p[1] for p in probes):.4f}")
    return {
        "pass_s_p50": p50,
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "sim_ops_per_s": bench.workload.sim_ops / p50,
        "peak_rss_mib": statistics.median(rss),
    }


def _span_metrics(tracer: tracing.Tracer, rep: tracing.Replay, bench: Bench) -> dict[str, float]:
    """Per-layer times and counts of one traced replay."""
    incl: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    ops_parsed = ops_run = samples = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        incl[span.name] += span.dur_s
        layer_self[span.name if span.name == "cli.main" else span.name.split(".")[0]] += own
        if span.result is None:  # not kept, or the call raised
            continue
        if span.name == "seqlang.parse":
            ops_parsed += len(span.result.ops)
        elif span.name == "engine.run_sequence":
            ops_run += len(span.result.events)
        elif span.name == "engine.render_waveform":
            samples += len(span.result[0])
    return {
        "seqlang.parse_s": incl["seqlang.parse"],
        "seqlang.parse_us_per_op": incl["seqlang.parse"] / ops_parsed * 1e6 if ops_parsed else 0.0,
        "seqlang.validate_s": incl["seqlang.validate"],
        "seqlang.ops": ops_parsed,
        "seqlang.self_s": layer_self["seqlang"],
        "engine.run_sequence_s": incl["engine.run_sequence"],
        "engine.us_per_op": incl["engine.run_sequence"] / ops_run * 1e6 if ops_run else 0.0,
        "engine.render_waveform_s": incl["engine.render_waveform"],
        "engine.waveform_samples": samples,
        "engine.render_ns_per_sample":
            incl["engine.render_waveform"] / samples * 1e9 if samples else 0.0,
        "engine.self_s": layer_self["engine"],
        "cli.configured_s": incl["cli.configured"],
        "cli.trace_csv_s": incl["cli.trace_csv"],
        "cli.waveform_csv_s": incl["cli.waveform_csv"],
        "cli.scan_csv_s": incl["cli.scan_csv"],
        "cli.bytes_written": sum(os.path.getsize(p) for cmd in bench.workload.commands
                                 for p in cmd.outputs if os.path.exists(p)),
        "cli.stdout_bytes": sum(len(s.encode()) for s in rep.stdouts),
        "cli.self_s": layer_self["cli.main"],
        "harness.scan_crosstalk_s": incl["harness.scan_crosstalk"],
        "harness.scan_lifetime_s": incl["harness.scan_lifetime"],
        "harness.fit_exponential_s": incl["harness.fit_exponential"],
        "harness.monte_carlo_overlap_s": incl["harness.monte_carlo_overlap"],
        "harness.self_s": layer_self["harness"],
        "trace.spans": len(tracer.spans),
    }


def _run_outs(tracer: tracing.Tracer) -> list[float]:
    return [ev.out_energy for s in tracer.spans
            if s.name == "engine.run_sequence" and s.result is not None
            for ev in s.result.events]


def _stdout_stats(bench: Bench, stdouts: list[str]) -> dict[str, float]:
    """Oracle and fitted-lifetime errors, parsed from the commands' stdout.

    ``report`` prints fitted lifetimes to 6 decimals, ``fit`` prints the
    190 MHz one in full; the lifetime error is the largest of both. Output
    that does not parse is skipped here; the output checks count it as failed.
    """
    from vapormem import cli

    _, rails = cli.configured(None)
    tau_cal = {cal.f_rail: cal.tau_us for cal in rails}
    oracle = tau = 0.0
    for cmd, out in zip(bench.workload.commands, stdouts):
        lines = out.splitlines()
        try:
            if cmd.argv[-1] == "oracle":
                for line in lines[1:-1]:
                    _, _, mc, analytic, _ = line.split()
                    oracle = max(oracle, abs(float(mc) - float(analytic)))
            elif cmd.argv[0] == "report":
                for line in lines[1:1 + len(rails)]:
                    rail, tau_fit = line.split()[:2]
                    tau = max(tau, abs(float(tau_fit) / tau_cal[float(rail)] - 1.0))
            elif cmd.argv[0] == "fit":
                fit = dict(ln.split("=", 1) for ln in lines if "=" in ln)
                tau = max(tau, abs(float(fit["tau_us"]) / tau_cal[workloads.FIT_RAIL_MHZ] - 1.0))
        except (ValueError, KeyError):
            continue
    return {"sim.oracle_max_abs_diff": oracle, "sim.report_tau_rel_err_max": tau}


TARGETS = {
    # time of the layer each workload isolates, in one pass
    "repro": lambda m, n_cmds: n_cmds * m["startup.total_s"],
    "long-run": lambda m, n_cmds: m["engine.run_sequence_s"],
    "bulk-io": lambda m, n_cmds: (m["seqlang.parse_s"] + m["engine.render_waveform_s"]
                                  + m["cli.waveform_csv_s"]),
}


def traced(bench: Bench, seconds: float, spans_path: str) -> dict[str, float]:
    """Start-up probes, then untraced/traced in-process replays; per-layer metrics.

    ``seconds`` bounds the whole traced run, probes included, but at least
    one untraced and one traced replay are made.
    """
    start = time.perf_counter()
    cmds = bench.workload.commands
    bench.subprocess_pass("warm-up")
    m: dict[str, float] = {}
    m.update(tracing.startup(bench.env, STARTUP_SAMPLES))
    imp, top_imports = tracing.importtime(bench.env, IMPORTTIME_SAMPLES)
    m.update(imp)
    m["pass.subprocess_s"] = statistics.median(
        bench.subprocess_pass(f"timed pass {i + 1}")[0] for i in range(TRACE_PASSES))

    untraced, traced_walls, per_replay = [], [], []
    while not per_replay or time.perf_counter() - start < seconds:
        gc.collect()
        rep = tracing.replay(cmds, None)
        bench.record("in-process", rep.returncodes, rep.stdouts)
        untraced.append(rep.wall_s)
        gc.collect()
        tracer = tracing.Tracer()
        with tracer.installed():
            rep = tracing.replay(cmds, tracer)
        bench.record("traced", rep.returncodes, rep.stdouts)
        traced_walls.append(rep.wall_s)
        per_replay.append(_span_metrics(tracer, rep, bench))
    for name in per_replay[0]:
        m[name] = statistics.median(r[name] for r in per_replay)
    m["pass.inprocess_s"] = statistics.median(untraced)
    m["trace.overhead_frac"] = statistics.median(traced_walls) / m["pass.inprocess_s"] - 1.0
    m["trace.replays"] = len(per_replay)

    steps = [tracing.step_replay(p) for p in bench.workload.run_programs]
    by_kind: dict[str, list[int]] = defaultdict(list)
    for step in steps:
        for kind, ns in step["ns"].items():
            by_kind[kind.value].extend(ns)
    for kind in ("WRITE", "READ", "PUMP"):
        ns = by_kind[kind]
        m[f"engine.{kind.lower()}_us"] = statistics.fmean(ns) / 1e3 if ns else 0.0
    visits = sum(s["visits"] for s in steps)
    m["engine.pool_visits"] = visits
    m["engine.live_visit_frac"] = sum(s["live"] for s in steps) / visits if visits else 0.0
    m["engine.pool_final"] = max(s["pool_final"] for s in steps)

    step_outs = [x for s in steps for x in s["outs"]]
    if step_outs != _run_outs(tracer):
        bench.problems.append("stepped Memory replay differs from run_sequence")
    m.update(_sim_stats(bench, step_outs))
    m.update(_stdout_stats(bench, rep.stdouts))
    # share of a pass modelled from medians: in-process work plus one start-up
    # per command. pass.subprocess_s is measured minutes apart from the
    # replays, and the host's drift over that gap would distort the ratio.
    modelled_pass = m["pass.inprocess_s"] + len(cmds) * m["startup.total_s"]
    m["target.share"] = TARGETS[bench.workload.name](m, len(cmds)) / modelled_pass

    digests = bench.digests()
    combined = "".join(f"{k}:{v}\n" for k, v in sorted(digests.items()))
    m["sim.outputs_digest48"] = int(hashlib.sha256(combined.encode()).hexdigest()[:12], 16)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": bench.workload.name, "digests": digests,
                   "top_imports_s": top_imports, "problems": bench.problems,
                   "spans": tracer.dump()}, fh, indent=1)
    return m


def _sim_stats(bench: Bench, outs: list[float]) -> dict[str, float]:
    """Energy totals of the simulated programs; not timings, identical across runs."""
    from vapormem import seqlang
    from vapormem.core import OpKind

    ops = []
    for path in bench.workload.run_programs:
        with open(path, encoding="utf-8") as fh:
            ops.extend(seqlang.parse(fh.read()).ops)
    written = sum(op.energy for op in ops if op.kind is OpKind.WRITE)
    retrieved = sum(x for op, x in zip(ops, outs) if op.kind is OpKind.READ)
    return {
        "sim.ops": len(ops),
        "sim.retrieved_total": retrieved,
        "sim.leaked_total": sum(x for op, x in zip(ops, outs) if op.kind is OpKind.WRITE),
        "sim.retrieved_over_written": retrieved / written if written else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vapormem", "cli.py")):
        print(f"perfbench: no vapormem sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    out_root = os.path.join(root, ".perfbench_out")
    work = os.path.join(out_root, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        bench = Bench(workload, tracing.pythonpath_env(root), work)
        if args.trace:
            spans_path = os.path.join(out_root, f"spans-{args.workload}-s{args.seed}.json")
            values = traced(bench, args.seconds, spans_path)
            values["failed_frac"] = bench.failed / bench.attempted
            units = PER_LAYER
        else:
            values = timed(bench, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
