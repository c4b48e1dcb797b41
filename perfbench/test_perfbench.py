"""Tests of the benchmark itself: python -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import gen
import run
import tracing
import workloads
from vapormem import cli, seqlang

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

PROGRAMS = [gen.long_run, gen.sparse_render, lambda seed: gen.bulk_parse(seed, 2000)]


@pytest.mark.parametrize("make", PROGRAMS)
def test_generator_is_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("make", PROGRAMS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generator_is_validator_clean(make, seed):
    params, rails = cli.configured(None)
    seq = seqlang.parse(make(seed))
    assert seqlang.validate(seq, params) == []
    assert set(seq.rails) <= {cal.f_rail for cal in rails}
    gaps = [b.t_ns - a.t_ns for a, b in zip(seq.ops, seq.ops[1:])]
    assert min(gaps) >= params.t_switch


def test_generator_mix_and_span_are_fixed():
    for seed in (1, 2):
        seq = seqlang.parse(gen.sparse_render(seed))
        assert len(seq.ops) == 200
        assert seq.ops[0].kind.value == "WRITE" and seq.ops[-1].t_ns == 399_984
        kinds = [op.kind.value for op in seqlang.parse(gen.long_run(seed)).ops]
        assert (kinds.count("WRITE"), kinds.count("READ"), kinds.count("PUMP")) == (384, 400, 16)


def test_random_access_program_is_the_canonical_one():
    from vapormem import harness

    seq = seqlang.parse(gen.RANDOM_ACCESS)
    assert seq.ops == harness.random_access_sequence().ops


def test_write_checked_rejects_an_unclean_program(tmp_path):
    bad = "SEQUENCE bad\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 10ns READ 190MHz\n"
    with pytest.raises(ValueError):
        gen.write_checked(str(tmp_path / "bad.seq"), bad)
    assert not (tmp_path / "bad.seq").exists()


def test_metric_names_units_and_counts():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME_RE.match(name), name
            assert UNIT_RE.match(unit), unit
    assert len(run.END_TO_END) <= 16
    assert len(run.PER_LAYER) <= 128
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _bench(tmp_path, commands) -> run.Bench:
    wl = workloads.Workload("broken", commands, 0, [])
    return run.Bench(wl, tracing.pythonpath_env(ROOT), str(tmp_path))


def test_broken_command_counts_as_failed_not_a_crash(tmp_path):
    missing = str(tmp_path / "missing.seq")
    ok = str(tmp_path / "ok.seq")
    gen.write_checked(ok, gen.RANDOM_ACCESS)
    commands = [
        workloads.Command(["validate", missing], workloads._check_validate_clean),
        workloads.Command(["validate", ok], workloads._check_validate_clean),
    ]
    bench = _bench(tmp_path, commands)
    bench.subprocess_pass("pass")
    assert (bench.attempted, bench.failed) == (2, 1)
    rep = tracing.replay(commands, tracing.Tracer())
    bench.record("in-process", rep.returncodes, rep.stdouts)
    assert (bench.attempted, bench.failed) == (4, 2)
    assert bench.problems and "exit status" in bench.problems[0]


def test_changed_output_counts_as_failed(tmp_path):
    out = tmp_path / "x.csv"
    cmd = workloads.Command(["report"], lambda stdout: [], [str(out)])
    bench = _bench(tmp_path, [cmd])
    out.write_text("a\n")
    bench.record("first", [0], [""])
    out.write_text("b\n")
    bench.record("second", [0], [""])
    assert (bench.attempted, bench.failed) == (2, 1)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    own = tracer.self_times()
    assert own[0] == pytest.approx(outer.dur_s - inner.dur_s)
    assert own[1] == inner.dur_s


def test_tracing_restores_the_package_functions():
    before = seqlang.parse
    with tracing.Tracer().installed():
        assert seqlang.parse is not before
    assert seqlang.parse is before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "repro",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
