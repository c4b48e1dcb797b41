"""Each demo runs from a copy of demos/ and prints and writes the bytes pinned here.

A demo writes into the ``out/`` directory beside itself, so each one runs
from its own copy in ``tmp_path``, with ``PYTHONPATH`` on this checkout's
``src``. Its stdout names that copy in its ``wrote`` lines, so the copy's
path is masked as ``<demos>`` before hashing.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo -> (SHA-256 of its masked stdout, {file it writes in out/: SHA-256})
PINNED = {
    "01_beam_steering": (
        "b619ef5f7704f33d68e56bf01564ce5d43493287d6256566cf84d67662578eec", {}),
    "02_single_rail_storage": (
        "830740ce11afecf9e1016bbd55946347ad1f2e38cfbc212902b8735a5dabb584", {
            "single_rail_trace.csv":
                "118ac98fc4512609cd508748c7182abafe3f69392fd274e80011a8b49f7f1a81",
            "single_rail_wave.csv":
                "f4aa33733df182ddf10fad346d21b87cd2c2b96e97ae057102967dfb51ffb37a",
        }),
    "03_crosstalk_scan": (
        "b4d50fdcc91be0dbd1e265430a56ebff9f419b36cf6e9578fb45346ce7611af4", {
            "crosstalk.csv": "0ebf9b46527a142131e513ff4a912161380bf44dde7efac7cb4b16e01a3c4d69",
        }),
    "04_lifetime_fit": (
        "d146d1fe6108c19d791aae05b13186c9f1d161697bdb9b219bfc8f0c03ca1f22", {
            "lifetime_170.csv": "2502d971e686fb76cfd30831232797dae3e38b92d8095b374f58ff16bccf9893",
            "lifetime_190.csv": "472f8e9d1d0f1425bc0fc532b32ea2831ca4cca1bc719191f01ca2cebb5bf537",
            "lifetime_210.csv": "aafff49fa7d6c57d43695fb66b5a995de1733a9a45049ffd7866c7b2b9ebd6a7",
            "lifetime_230.csv": "fa59e3c5f1681dc89612303320daee05afbbb4a7a96859de6542b898d3453cb1",
        }),
    "05_random_access": (
        "ea671139329ed2df4f527488a4640d7fe267aef304996ce8a95cc6d1716de8b9", {
            "random_access.seq":
                "65199e9e4462e7a0b205146edccd2de36e69aed92850010c33dbfa924d346057",
            "random_access_trace.csv":
                "b3241a6bbed53e1beb5d538fa27e55ed4c10c8b11aa3f356732b0e4d4057ddd0",
        }),
}
# one row per (d_um, t_us) point: d, t, walkers, closed form, |difference|
ORACLE_ROW = re.compile(r"^ *\d+ +\d\.\d +\d\.\d{6} +\d\.\d{6} +\d\.\d{2}e[-+]\d{2}$")


def run_demo(tmp_path: Path, name: str) -> tuple[str, Path]:
    """(stdout with the copy's path masked, the copy's out/ directory) of one demo."""
    copy = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(copy / f"{name}.py")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done.stdout.replace(str(copy), "<demos>"), copy / "out"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_output_is_pinned(tmp_path, name):
    stdout, out = run_demo(tmp_path, name)
    stdout_sha, files = PINNED[name]
    assert sha256(stdout.encode()) == stdout_sha
    written = sorted(out.iterdir()) if out.exists() else []
    assert {p.name: sha256(p.read_bytes()) for p in written} == files


def test_oracle_demo_prints_its_six_rows(tmp_path):
    # its digits go through numpy's exp, whose kernels vary with the CPU, so
    # they are not pinned
    stdout, out = run_demo(tmp_path, "06_diffusion_oracle")
    assert sum(1 for line in stdout.splitlines() if ORACLE_ROW.match(line)) == 6
    assert not out.exists()
