"""Traced in-process replay of a pass, and the start-up measurements.

Spans are recorded by the benchmark around calls into the public functions
of ``seqlang``, ``engine``, ``harness`` and ``cli``; nothing inside the
package is instrumented. ``physics`` and ``core`` are measured only through
the spans of their callers. Each span has a name, start, end, parent span
and the id of the CLI command it belongs to; spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# (module, function) pairs wrapped in a span while tracing. cli.main is the
# command span; it is entered directly by replay(), not patched.
TRACED = {
    "cli": ("configured", "trace_csv", "waveform_csv", "scan_csv"),
    "seqlang": ("parse", "validate"),
    "engine": ("run_sequence", "render_waveform"),
    "harness": ("scan_crosstalk", "scan_lifetime", "fit_exponential",
                "extrapolate_efficiency", "weighted_mean", "monte_carlo_overlap"),
}
# results kept for the simulated statistics and the per-op rates
KEEP_RESULT = {"seqlang.parse", "engine.run_sequence", "engine.render_waveform"}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    command: int
    result: object = None

    @property
    def dur_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.command = 0

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0, 0, parent, self.command)
        self.spans.append(span)
        self._stack.append(idx)
        span.start_ns = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()
        if name in KEEP_RESULT:
            span.result = result
        return result

    @contextlib.contextmanager
    def installed(self):
        """Replace each traced function by a span-recording wrapper, then restore it."""
        import vapormem

        saved = []
        try:
            for mod_name, names in TRACED.items():
                module = getattr(vapormem, mod_name)
                for fn_name in names:
                    fn = getattr(module, fn_name)
                    saved.append((module, fn_name, fn))
                    setattr(module, fn_name, self._wrapper(f"{mod_name}.{fn_name}", fn))
            yield self
        finally:
            for module, fn_name, fn in saved:
                setattr(module, fn_name, fn)

    def _wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children, s."""
        own = [s.dur_s for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.dur_s
        return own

    def dump(self) -> list[dict]:
        t0 = self.spans[0].start_ns if self.spans else 0
        return [{"id": i, "name": s.name, "start_us": (s.start_ns - t0) / 1e3,
                 "end_us": (s.end_ns - t0) / 1e3, "parent": s.parent,
                 "command": s.command} for i, s in enumerate(self.spans)]


@dataclass
class Replay:
    wall_s: float
    returncodes: list[int]
    stdouts: list[str]


def replay(commands, tracer: Tracer | None) -> Replay:
    """Run a pass's commands in this process through ``cli.main``.

    Stdout and stderr are captured in memory. A command that raises or
    exits through argparse gets a non-zero return code; the replay goes on.
    """
    from vapormem import cli

    codes, outs = [], []
    t0 = time.perf_counter()
    for i, cmd in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(cmd.argv)
                else:
                    tracer.command = i
                    code = tracer.call("cli.main", cli.main, cmd.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the replay must outlive a broken command
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = 1
        codes.append(code)
        outs.append(out.getvalue())
    return Replay(time.perf_counter() - t0, codes, outs)


def step_replay(seq_path: str) -> dict:
    """Apply a program's ops one at a time to a fresh Memory, timing each call.

    Also counts the component visits each op makes (the pool size before
    it) and how many of them are to components with amplitude > 0.
    Returns per-kind call times in ns, the visit counts, the final pool
    size and the returned energies, for comparison with ``run_sequence``.
    """
    from vapormem import cli, engine, seqlang
    from vapormem.core import OpKind

    params, rails = cli.configured(None)
    with open(seq_path, encoding="utf-8") as fh:
        seq = seqlang.parse(fh.read())
    mem = engine.Memory(params, rails)
    ns = {kind: [] for kind in OpKind}
    visits = live = 0
    outs = []
    clock = time.perf_counter_ns
    for op in seq.ops:
        visits += len(mem.components)
        live += sum(1 for c in mem.components if c.amplitude > 0.0)
        if op.kind is OpKind.WRITE:
            t0 = clock()
            out = mem.write(op.f_rail, op.t_ns, op.energy)
        elif op.kind is OpKind.READ:
            t0 = clock()
            out = mem.read(op.f_rail, op.t_ns)
        else:
            t0 = clock()
            mem.pump(op.f_rail, op.t_ns)
            out = 0.0
        ns[op.kind].append(clock() - t0)
        outs.append(out)
    return {"ns": ns, "visits": visits, "live": live,
            "pool_final": len(mem.components), "outs": outs}


def child_wall(argv, env) -> float:
    """Wall time of a child process, from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def startup(env, samples: int) -> dict[str, float]:
    """Fresh-interpreter start-up, split into interpreter, numpy and vapormem.

    The three commands run round-robin so that drift hits them alike; each
    figure is a median over ``samples`` runs.
    """
    py = sys.executable
    commands = {"interp": [py, "-c", "pass"],
                "numpy": [py, "-c", "import numpy"],
                "vapormem": [py, "-c", "import vapormem.cli"]}
    times = {k: [] for k in commands}
    for _ in range(samples):
        for k, argv in commands.items():
            times[k].append(child_wall(argv, env))
    med = {k: statistics.median(v) for k, v in times.items()}
    return {"startup.interp_s": med["interp"],
            "startup.import_numpy_s": med["numpy"] - med["interp"],
            "startup.import_vapormem_s": med["vapormem"] - med["numpy"],
            "startup.total_s": med["vapormem"]}


VAPORMEM_MODULES = ("vapormem", "vapormem.core", "vapormem.physics", "vapormem.engine",
                    "vapormem.seqlang", "vapormem.harness", "vapormem.cli")


def _is_numpy(module: str) -> bool:
    return module == "numpy" or module.startswith("numpy.")


def importtime(env, samples: int) -> tuple[dict[str, float], list]:
    """Self import times, from ``-X importtime``, of ``import vapormem.cli``.

    Reports the summed self time of numpy's modules, of vapormem's and of
    all others, the largest single numpy module, and each vapormem module.
    Returns medians over ``samples`` runs (seconds) and the ten modules
    with the largest self time in the last run.
    """
    runs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vapormem.cli"],
                              env=env, check=True, capture_output=True, text=True)
        selfs = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            selfs[name.strip()] = int(self_us) / 1e6
        runs.append(selfs)

    def med(pick) -> float:
        return statistics.median(sum(v for k, v in r.items() if pick(k)) for r in runs)

    out = {
        "startup.importtime.numpy_total_s": med(_is_numpy),
        "startup.importtime.numpy_top_s":
            statistics.median(max((v for k, v in r.items() if _is_numpy(k)), default=0.0)
                              for r in runs),
        "startup.importtime.vapormem_total_s": med(lambda k: k in VAPORMEM_MODULES),
        "startup.importtime.other_total_s":
            med(lambda k: not _is_numpy(k) and k not in VAPORMEM_MODULES),
    }
    for mod in VAPORMEM_MODULES:
        out[f"startup.importtime.{mod}_s"] = med(lambda k, m=mod: k == m)
    top = sorted(runs[-1].items(), key=lambda kv: -kv[1])[:10]
    return out, top


def pythonpath_env(root: str) -> dict[str, str]:
    """Environment that imports vapormem from the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # users' second runs import from __pycache__, which the warm-up pass writes
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env
