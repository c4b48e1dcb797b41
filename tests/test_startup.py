"""numpy, dataclasses, inspect, typing, decimal, fractions, argparse,
gettext and locale stay off the start-up path.

Only the Monte Carlo oracle computes with numpy, and it imports numpy
itself; every other command, waveform rendering included, runs in plain
Python. The value types are plain classes, so importing vapormem loads
neither dataclasses, with the inspect it imports, nor typing. Scan grids
are built in integer arithmetic, and only a sequence number with an
exponent is formatted through decimal. A plain command line (options
spelled in full, once each, with values that do not start with ``-``) is
read from ``cli``'s table of commands and options without argparse.
Importing argparse, with the gettext and locale it loads, and building the
parser took about 9 ms of every command on a 2-core host (``vapormem
report`` median 76.3 -> 67.6 ms over 21 runs each). argparse is imported
only for help, other forms such as ``--opt=value``, and errors; the
exit-code test below checks that those still exit as before.
Each case runs in a fresh interpreter, since this test session has all of
them loaded already.

``cli.main`` sets ``OPENBLAS_NUM_THREADS=1`` unless it is already set, so
``oracle`` loads numpy without OpenBLAS's pool of one thread per core: no
vapormem command calls BLAS, and on a 2-core host the pool cost about
70 ms of the oracle's wall time (median 297 -> 228 ms over 11 runs each).
The thread count does not change the Monte Carlo's output.

A ``vapormem`` process, whether started as ``python -m vapormem.cli`` or
through the ``vapormem`` script, runs ``cli.entry``: it calls ``main``,
then ``gc.freeze()``, then exits with ``main``'s code. The interpreter's
final collections at exit then skip what start-up and the command left
behind, which cut the time from ``main``'s return to process exit from
about 11 ms to 3-4 ms a command, and from 30 ms to 9 ms for ``oracle``.
The tests below check that the freeze happens in that path, that exit
codes, stdout and ``atexit`` handlers are as before, and that ``main``
itself freezes nothing, since in-process callers collect between calls.
"""

import ast
import gc
import hashlib
import os
import random
import subprocess
import sys

import pytest
from corpus import CANONICAL
from test_engine import PINNED_WAVEFORM_SHA256, random_program
import vapormem
from vapormem import cli, seqlang

# the directory this session imports vapormem from, for the child interpreter
SRC = os.path.dirname(os.path.dirname(vapormem.__file__))

# imports the CLI, runs each argv given as a repr'd list, and prints the
# modules loaded before the import and those loaded at the end
SCRIPT = """\
import sys
before = sorted(sys.modules)
import vapormem.cli as cli
for argv in {commands!r}:
    assert cli.main(argv) == 0, argv
print((before, sorted(sys.modules)))
"""
# modules that importing vapormem and its numpy-free commands must not load
STARTUP_FREE = {"dataclasses", "inspect", "typing", "numpy", "decimal", "fractions", "numbers",
                "argparse", "gettext", "locale"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**extra) -> dict[str, str]:
    """This session's environment without the BLAS thread settings, with
    vapormem importable and the given variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**env, **extra}


def modules_around(commands, cwd, *options) -> tuple[set[str], set[str]]:
    """The modules a fresh interpreter, started with the given options, had
    before importing the CLI, and had after running the commands."""
    proc = subprocess.run([sys.executable, *options, "-c", SCRIPT.format(commands=commands)],
                          cwd=cwd, env=child_env(), capture_output=True, text=True, check=True)
    before, after = ast.literal_eval(proc.stdout.splitlines()[-1])
    return set(before), set(after)


def numpy_loaded_after(commands, cwd) -> bool:
    return "numpy" in modules_around(commands, cwd)[1]


def test_import_and_numpy_free_commands_leave_numpy_unloaded(tmp_path):
    seq = tmp_path / "canonical.seq"
    seq.write_text(CANONICAL)
    out = str(tmp_path / "out")
    commands = [
        ["validate", str(seq)],
        ["run", str(seq), "--trace-out", str(tmp_path / "trace.csv")],
        ["run", str(seq), "--waveform-out", str(tmp_path / "wave.csv")],
        ["--out", out, "scan", "crosstalk"],
        ["--out", out, "scan", "lifetime"],
        ["fit", os.path.join(out, "lifetime_190.csv")],
        ["report"],
    ]
    assert not numpy_loaded_after([], tmp_path)
    assert not numpy_loaded_after(commands, tmp_path)
    assert (tmp_path / "trace.csv").exists() and (tmp_path / "wave.csv").exists()


def test_waveform_out_leaves_numpy_unloaded_and_writes_pinned_bytes(tmp_path):
    seq = tmp_path / "random.seq"
    seq.write_text(seqlang.format_sequence(random_program(random.Random(1), 200)))
    wave = tmp_path / "wave.csv"
    assert not numpy_loaded_after([["run", str(seq), "--waveform-out", str(wave)]], tmp_path)
    assert hashlib.sha256(wave.read_bytes()).hexdigest() == PINNED_WAVEFORM_SHA256


def test_oracle_loads_numpy(tmp_path):
    assert numpy_loaded_after([["oracle"]], tmp_path)


def test_import_validate_and_run_load_no_dataclasses_inspect_or_typing(tmp_path):
    seq = tmp_path / "canonical.seq"
    seq.write_text(CANONICAL)
    out = str(tmp_path / "out")
    commands = [
        ["validate", str(seq)],
        ["run", str(seq), "--trace-out", str(tmp_path / "trace.csv"),
         "--waveform-out", str(tmp_path / "wave.csv")],
        ["--out", out, "scan", "crosstalk"],
        ["--out", out, "scan", "lifetime"],
        ["fit", os.path.join(out, "lifetime_190.csv")],
        ["report"],
    ]
    for run in ([], commands):
        # without site (-S), which in some environments imports typing itself
        before, after = modules_around(run, tmp_path, "-S")
        assert not (after - before) & STARTUP_FREE, run
    assert (tmp_path / "trace.csv").exists() and (tmp_path / "wave.csv").exists()


# runs the oracle through cli.main (1000 walkers miss its tolerance, so it
# exits 1), then prints the number of threads left
THREADS_SCRIPT = """\
import os
import vapormem.cli as cli
cli.main(["oracle", "--n", "1000"])
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and at least 2 cores")
@pytest.mark.parametrize("extra,threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["unset", "user-set-2"])
def test_oracle_starts_one_blas_thread_unless_set(tmp_path, extra, threads):
    proc = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], cwd=tmp_path,
                          env=child_env(**extra), capture_output=True, text=True, check=True)
    assert int(proc.stdout.splitlines()[-1]) == threads


@pytest.mark.parametrize("argv", [["--seed", "1", "oracle"], ["--seed", "2", "oracle", "--n", "1001"]])
def test_oracle_output_does_not_depend_on_blas_threads(tmp_path, argv):
    runs = [subprocess.run([sys.executable, "-m", "vapormem.cli", *argv], cwd=tmp_path,
                           env=child_env(OPENBLAS_NUM_THREADS=n), capture_output=True)
            for n in ("1", "2")]
    assert runs[0].stdout.startswith(b"d_um t_us") and not runs[0].stderr
    assert (runs[0].returncode, runs[0].stdout) == (runs[1].returncode, runs[1].stdout)


# runs the CLI as ``python -m vapormem.cli report`` does, with an atexit
# hook, registered first and so run last, that prints the freeze count
ENTRY_SCRIPT = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count()))
sys.argv = ["vapormem", "report"]
runpy.run_module("vapormem.cli", run_name="__main__", alter_sys=True)
"""


def test_entry_freezes_the_heap_and_keeps_stdout_and_atexit(tmp_path, capsys):
    proc = subprocess.run([sys.executable, "-c", ENTRY_SCRIPT], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True)
    assert cli.main(["report"]) == 0
    expected = capsys.readouterr().out
    assert proc.returncode == 0 and not proc.stderr
    assert proc.stdout.startswith(expected)
    assert int(proc.stdout[len(expected):]) > 0


E003_PROGRAM = "SEQUENCE s\nRAILS 190MHz 198MHz\nAT 0ns WRITE 190MHz\nAT 400ns READ 198MHz\n"


# (argv, exit code, start of stdout or "" for none, start of stderr)
@pytest.mark.parametrize("argv,code,out,err", [
    (["validate", "e003.seq"], 1, "error E003 line ", ""),
    (["validate", "missing.seq"], 2, "", "error: "),
    (["no-such-command"], 2, "", "usage: vapormem"),
    (["--help"], 0, "usage: vapormem", ""),
    (["scan", "bogus"], 2, "", "usage: vapormem scan"),
], ids=["diagnostic", "named-error", "usage-error", "help", "scan-kind-error"])
def test_entry_passes_the_exit_code(tmp_path, argv, code, out, err):
    (tmp_path / "e003.seq").write_text(E003_PROGRAM)
    proc = subprocess.run([sys.executable, "-m", "vapormem.cli", *argv], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout.startswith(out) if out else proc.stdout == ""
    assert proc.stderr.startswith(err) if err else proc.stderr == ""


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["report"]) == 0
    assert gc.get_freeze_count() == before
