"""Byte-identity of every data file the CLI writes for a fixed seed.

Each command below runs on one seeded 8x8 image, and the sha256 of every file
it writes is compared with ``data_digests.json``. Timings are the only
run-to-run variation the library allows, so they are removed first:
a pipeline run's ``report.json`` loses its ``timings`` block (and its
temporary paths are made relative), and ``budget.csv`` loses its ``encode_seconds``
column. Tomography runs through BLAS, so the manifest records the numpy
version it was made with.

Regenerate the manifest (only when a change is meant to alter outputs) with::

    PYTHONPATH=src python tests/test_data_digests.py
"""

import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from qil.cli import main
from qil.images import GrayImage, write_pgm

MANIFEST = Path(__file__).with_name("data_digests.json")

_RUN = ["run", "--image", "{image}", "--seed", "7", "--shots", "2000"]
_SPARSE = ["run", "--image", "{image}", "--seed", "7", "--shots", "40"]
_TOMO = ["tomography", "--image", "{image}", "--seed", "5", "--qubits", "4", "--shots", "500"]

COMMANDS = {
    "run frqi": _RUN + ["--repr", "frqi"],
    "run neqr": _RUN + ["--repr", "neqr"],
    "run qubo": _RUN + ["--repr", "qubo"],
    "run neqr amplitude noise": _RUN + [
        "--repr", "neqr", "--noise-mode", "amplitude", "--noise-mag", "0.01",
        "--tomo-qubits", "2", "--tomo-shots", "200",
    ],
    "run frqi classical noise": _RUN + [
        "--repr", "frqi", "--noise-mode", "classical", "--noise-mag", "0.1",
    ],
    "run frqi sparse": _SPARSE + ["--repr", "frqi"],
    "run neqr sparse noise": _SPARSE + [
        "--repr", "neqr", "--noise-mode", "amplitude", "--noise-mag", "0.05",
    ],
    "compare": ["compare", "--image", "{image}", "--seed", "3", "--shots", "2000"],
    "tomography frqi": _TOMO + ["--repr", "frqi"],
    "tomography neqr": _TOMO + ["--repr", "neqr"],
    "tomography qubo": _TOMO + ["--repr", "qubo"],
    "budget": ["budget", "--n-min", "0", "--n-max", "3", "--q", "8", "--seed", "2"],
}


def _canonical(path: Path, root: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "budget.csv":
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        return json.dumps([{k: v for k, v in r.items() if k != "encode_seconds"} for r in rows],
                          sort_keys=True).encode()
    if path.name == "report.json":
        report = json.loads(data.decode().replace(str(root), "<tmp>"))
        report.pop("timings", None)
        return json.dumps(report, sort_keys=True).encode()
    return data


def run_and_digest(root: Path) -> dict[str, dict[str, str]]:
    """Run every command under ``root``; return command -> {relative file: sha256}."""
    image = root / "image.pgm"
    pixels = np.random.default_rng(8).integers(0, 256, size=(8, 8))
    write_pgm(GrayImage(pixels=pixels, q=8), image)
    digests = {}
    for label, argv in COMMANDS.items():
        out = root / label.replace(" ", "_")
        assert main([a.format(image=image) for a in argv] + ["--out", str(out)]) == 0
        digests[label] = {
            f.relative_to(out).as_posix(): hashlib.sha256(_canonical(f, root)).hexdigest()
            for f in sorted(out.rglob("*"))
            if f.is_file()
        }
    return digests


def test_data_files_match_manifest(tmp_path, monkeypatch):
    monkeypatch.delenv("QIL_MAX_QUBITS", raising=False)
    manifest = json.loads(MANIFEST.read_text())
    got = run_and_digest(tmp_path)
    problems = []
    for label in sorted(set(manifest["commands"]) | set(got)):
        want, have = manifest["commands"].get(label, {}), got.get(label, {})
        for name in sorted(set(want) | set(have)):
            if want.get(name) != have.get(name):
                problems.append(f"{label}: {name} (manifest {want.get(name)}, now {have.get(name)})")
    assert not problems, (
        f"data files differ from {MANIFEST.name} (made with numpy {manifest['numpy']}, "
        f"running numpy {np.__version__}):\n" + "\n".join(problems)
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        commands = run_and_digest(Path(tmp).resolve())
    MANIFEST.write_text(
        json.dumps({"numpy": np.__version__, "commands": commands}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {MANIFEST}", file=sys.stderr)
