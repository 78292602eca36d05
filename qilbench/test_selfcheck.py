"""Fast self-check of the benchmark harness: tiny inputs, one short run per workload.

Run from the repository root:

    python3 -m pytest -q qilbench

Each run must emit every metric BENCHMARK.json names, with its unit, and pass
its own output checks; a directory without the program must make the
benchmark fail before it prints a result.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]
from workloads import WORKLOADS, MeasurePostulates, Stats  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    script = SPEC["command"][1]
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(run_bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_byte_identical_outputs():
    runs = [run_bench(ROOT, "tomo-sweep", 0) for _ in range(2)]
    digests = [[line for line in r.stdout.splitlines() if "sha256[" in line] for r in runs]
    assert digests[0] and digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("hook", [True, False])
def test_warm_cbs_cache_fails_measure_postulates(monkeypatch, tmp_path, hook):
    qil = {name: importlib.import_module(f"qil.{name}") for name in ("core", "noise", "tolerances")}
    core = qil["core"]
    if not hook:
        # a cache the benchmark cannot empty: every cycle after the first is warm
        cached = core._cbs_measurement_set
        monkeypatch.setattr(core, "_cbs_measurement_set", lambda k: cached(k))
    workload = MeasurePostulates(qil, 3, tiny=True)
    workload.setup(tmp_path)
    stats = Stats()
    for _ in range(2):
        workload.run_cycle(stats)
    assert (stats.failed == 0) is hook
