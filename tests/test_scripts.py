"""The README's scripts run end to end at small sizes and write their output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("make_sample_image.py", []),
        ("measurement_noise_sweep.py", ["--steps", "4"]),
        ("shot_scaling_experiment.py", ["--seeds", "2"]),
    ],
)
def test_script_writes_its_output(script, args, tmp_path):
    out = tmp_path / "out"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0
