"""The benchmark's four workloads, their seeded inputs and their output checks.

Every workload is a closed loop with one client: a cycle is a fixed list of
ops, each started only after the previous one finished and was checked. An op
is one ``qil.cli.main(argv)`` call (pipeline workloads) or one public library
call (``measure-postulates``). Only the op itself is timed; set-up, output
checks and clearing old outputs happen between ops.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

STAGES = ("load", "encode", "state_noise", "algorithm", "decode", "metrics", "tomography")
DATA_SUFFIXES = (".csv", ".pgm", ".txt")  # report.json carries timings, so it is not hashed
MAX_PRINTED_ERRORS = 5


class CheckError(Exception):
    """An op exited normally but its outputs are missing, malformed or wrong."""


class Stats:
    """Per-phase tallies: op latencies, failures and what the output checks read."""

    def __init__(self):
        # 4 bytes per op: the array grows with the op count, and it shares the
        # process with the peak-RSS measurement
        self.latencies = array("f")
        self.attempted = 0
        self.failed = 0
        self.decode_mae: list[float] = []
        self.tomo_err_pct: list[float] = []
        self.stage_s: dict[str, float] = defaultdict(float)
        self.report_bytes = 0
        self.cycle_ops: list[int] = []

    def end_cycle(self, first_op: int) -> None:
        """Close a cycle that started at op index ``first_op``."""
        self.cycle_ops.append(len(self.latencies) - first_op)

    def record(self, seconds: float, ok: bool) -> None:
        self.latencies.append(seconds)
        self.attempted += 1
        if not ok:
            self.failed += 1


def _report_failure(stats: Stats, what: str) -> None:
    if stats.failed < MAX_PRINTED_ERRORS:
        print(f"op failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# file formats, parsed independently of qil


def write_pgm(pixels: np.ndarray, path: Path) -> None:
    side = pixels.shape[0]
    path.write_bytes(f"P5\n{side} {side}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes())


def read_pgm(path: Path) -> tuple[np.ndarray, int]:
    """Pixels and maxval of a binary (P5) PGM without comments."""
    data = path.read_bytes()
    head = data.split(maxsplit=4)
    if len(head) < 5 or head[0] != b"P5":
        raise CheckError(f"{path.name}: not a binary PGM")
    width, height, maxval = int(head[1]), int(head[2]), int(head[3])
    if maxval > 255:
        raise CheckError(f"{path.name}: 16-bit PGM not expected here")
    # the payload starts after the single whitespace byte that ends maxval
    offset = len(data) - width * height
    pixels = np.frombuffer(data[offset:], dtype=np.uint8)
    if offset <= 0 or data[offset - 1 : offset] not in (b"\n", b" ", b"\t", b"\r"):
        raise CheckError(f"{path.name}: payload size does not match {width}x{height}")
    return pixels.reshape(height, width).astype(np.int64), maxval


def read_grid(path: Path) -> np.ndarray:
    """A bare CSV grid of numbers; every row must have the same length."""
    text = path.read_text()
    rows = text.count("\n")
    values = np.array(text.replace(",", " ").split(), dtype=float)
    if rows == 0 or values.size % rows or text.splitlines()[0].count(",") + 1 != values.size // rows:
        raise CheckError(f"{path.name}: ragged or empty grid")
    return values.reshape(rows, -1)


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def data_digest(out: Path) -> str:
    """sha256 over the relative path and bytes of every data file under ``out``."""
    h = hashlib.sha256()
    for f in sorted(out.rglob("*")):
        if f.is_file() and f.suffix in DATA_SUFFIXES:
            h.update(str(f.relative_to(out)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# pipeline workloads (qil.cli.main in-process)


class CliWorkload:
    """Base for workloads whose ops are ``qil`` command lines."""

    name = ""

    def __init__(self, qil, seed: int, tiny: bool):
        self.qil = qil
        self.seed = seed
        self.tiny = tiny
        self.tol = qil["tolerances"].TOL
        self.digests: dict[str, str] = {}
        self.work: Path | None = None
        self.image: np.ndarray | None = None

    def setup(self, work: Path) -> None:
        """Write the seeded input image; the program only ever sees this file."""
        self.work = work
        side = self.side()
        self.image = np.random.default_rng(self.seed).integers(0, 256, size=(side, side))
        write_pgm(self.image, work / "image.pgm")

    def side(self) -> int:
        raise NotImplementedError

    def ops(self) -> list[tuple[str, list[str]]]:
        """(kind, argv without --image/--seed/--out) for one cycle."""
        raise NotImplementedError

    def run_cycle(self, stats: Stats, tracer=None) -> None:
        for kind, argv in self.ops():
            out = self.work / "out" / kind
            shutil.rmtree(out, ignore_errors=True)
            full = argv + ["--image", str(self.work / "image.pgm"), "--seed", str(self.seed),
                           "--out", str(out)]
            if tracer is not None:
                tracer.op_id = stats.attempted
            seconds, ok = self._timed(full, tracer)
            if ok:
                try:
                    self.check(argv, out, stats)
                    self._check_digest(kind, out)
                except (CheckError, OSError, ValueError, KeyError, TypeError, IndexError):
                    _report_failure(stats, " ".join(full))
                    ok = False
            stats.record(seconds, ok)

    def _timed(self, argv: list[str], tracer) -> tuple[float, bool]:
        main = self.qil["cli"].main
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(argv) if tracer is None else tracer.call("cli.main", main, argv)
            return time.perf_counter() - t0, code == 0
        except SystemExit as exc:  # argparse rejected the command line
            print(f"op exited with {exc.code}: {' '.join(argv)}", file=sys.stderr)
            return time.perf_counter() - t0, False
        except Exception:  # one failing op is counted, the run goes on
            seconds = time.perf_counter() - t0
            print(f"op raised: {' '.join(argv)}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return seconds, False

    def _check_digest(self, kind: str, out: Path) -> None:
        digest = data_digest(out)
        first = self.digests.setdefault(kind, digest)
        if digest != first:
            raise CheckError(f"{kind}: data files differ from the first run with this seed")

    # -- output checks -------------------------------------------------------

    def check(self, argv: list[str], out: Path, stats: Stats) -> None:
        command, image = argv[0], self.image
        if command == "run":
            self.check_run(out, image, argv[argv.index("--repr") + 1], stats)
            if "--tomo-qubits" in argv:
                self.check_tomography(out, int(argv[argv.index("--tomo-qubits") + 1]))
        elif command == "compare":
            for name in ("compare.csv", "qubit_sweep.csv"):
                if not read_csv_rows(out / name):
                    raise CheckError(f"{name} has no rows")
            qubits = int(argv[argv.index("--tomo-qubits") + 1])
            for rep in ("frqi", "neqr", "qubo"):
                self.check_run(out / rep, image, rep, stats)
                self.check_tomography(out / rep, qubits)
        elif command == "tomography":
            self.check_tomography(out, int(argv[argv.index("--qubits") + 1]))
            report = json.loads((out / "report.json").read_text())
            self._tomo_err(report["matrix_error"], stats)
        else:
            raise CheckError(f"no check for command {command!r}")

    def check_run(self, out: Path, image: np.ndarray, rep: str, stats: Stats) -> None:
        side = image.shape[0]
        decoded, maxval = read_pgm(out / "decoded.pgm")
        if decoded.shape != image.shape or maxval != 255:
            raise CheckError(f"decoded.pgm is {decoded.shape} maxval {maxval}, input {image.shape} 255")
        preview, _ = read_pgm(out / "noise_map.pgm")
        noise = read_grid(out / "noise_map.csv")
        if preview.shape != image.shape or noise.shape != image.shape:
            raise CheckError("noise map shape differs from the input")
        rows = read_csv_rows(out / "metrics.csv")
        if len(rows) != 1 or rows[0]["representation"] != rep:
            raise CheckError("metrics.csv must hold one row for this representation")
        report_path = out / "report.json"
        stats.report_bytes += report_path.stat().st_size
        report = json.loads(report_path.read_text())
        cov = report["coverage"]
        missing = np.array(cov["missing"], dtype=np.int64).reshape(-1, 2)
        if cov["total_positions"] != side * side or cov["observed_positions"] + len(missing) != side * side:
            raise CheckError("coverage counts do not add up to the image size")
        if len(missing) and decoded[missing[:, 0], missing[:, 1]].any():
            raise CheckError("a position listed as missing was not decoded to 0")
        if rep == "qubo":
            if not np.isin(decoded, (0, 255)).all():
                raise CheckError("qubo decoded.pgm must hold only 0 and 255")
            diff = decoded // 255 - (image >> 7)
        else:
            diff = decoded - image
        mae = float(report["image_error"]["mae"])
        if abs(mae - float(np.abs(diff).mean())) > 1e-9 * max(1.0, mae):
            raise CheckError("report.json MAE disagrees with decoded.pgm")
        if rep != "qubo" and not np.array_equal(noise, diff):
            raise CheckError("noise_map.csv is not decoded minus input")
        stats.decode_mae.append(mae)
        timings = report["timings"]
        for stage in STAGES:
            stats.stage_s[stage] += float(timings.get(stage, 0.0))
        if report["matrix_error"] is not None:
            self._tomo_err(report["matrix_error"], stats)

    def check_tomography(self, out: Path, qubits: int) -> None:
        real = read_grid(out / "tomo_real.csv")
        imag = read_grid(out / "tomo_imag.csv")
        dim = 2**qubits
        if real.shape != (dim, dim) or imag.shape != (dim, dim):
            raise CheckError(f"tomography estimate is not {dim}x{dim}")
        if not (out / "tomography.txt").read_text().startswith("density matrix estimate"):
            raise CheckError("tomography.txt is malformed")
        rho = real + 1j * imag
        if np.abs(rho - rho.conj().T).max() > self.tol.hermitian:
            raise CheckError("tomography estimate is not Hermitian")
        if abs(np.trace(rho) - 1.0) > self.tol.density_trace:
            raise CheckError("tomography estimate does not have unit trace")

    @staticmethod
    def _tomo_err(matrix_error: dict, stats: Stats) -> None:
        pct = matrix_error["max_percentage_error_real"]
        if pct is not None:
            stats.tomo_err_pct.append(float(pct))


class FrqiReadout(CliWorkload):
    name = "frqi-readout"

    def side(self):
        return 16 if self.tiny else 512

    def ops(self):
        shots = (100, 10000) if self.tiny else (10000, 1000000)
        return [(f"frqi-{s}", ["run", "--repr", "frqi", "--shots", str(s)]) for s in shots]


class NeqrNoisy(CliWorkload):
    name = "neqr-noisy"

    def side(self):
        return 8 if self.tiny else 64

    def ops(self):
        shots = "10000" if self.tiny else "1000000"
        argv = ["run", "--repr", "neqr", "--noise-mag", "0.01", "--noise-mode", "amplitude",
                "--shots", shots]
        return [("neqr-noisy", argv)]


class TomoSweep(CliWorkload):
    name = "tomo-sweep"

    def side(self):
        return 4 if self.tiny else 8

    def ops(self):
        shots, tomo_qubits, tomo_shots, probe_qubits, probe_shots = (
            ("2000", "2", "100", "2", "100") if self.tiny else ("20000", "3", "1000", "4", "1000"))
        ops = [("compare", ["compare", "--shots", shots, "--tomo-qubits", tomo_qubits,
                            "--tomo-shots", tomo_shots])]
        for rep in ("frqi", "neqr", "qubo"):
            ops.append((f"tomography-{rep}", ["tomography", "--repr", rep, "--qubits", probe_qubits,
                                              "--shots", probe_shots]))
        return ops


# ---------------------------------------------------------------------------
# library workload


class MeasurePostulates:
    """decompose_and_verify on random qubits, then a cold CBS measurement ladder."""

    name = "measure-postulates"

    def __init__(self, qil, seed: int, tiny: bool):
        self.qil = qil
        self.seed = seed
        self.num_qubits = 100 if tiny else 10**4
        self.ladder = range(1, 4 if tiny else 7)
        self.draws = 10 if tiny else 100
        self.tol = qil["tolerances"].TOL
        self.digest: str | None = None
        self.cbs_seen: dict[int, object] = {}

    def setup(self, work: Path) -> None:
        core = self.qil["core"]
        rng = np.random.default_rng(self.seed)
        z = rng.standard_normal((self.num_qubits, 2)) + 1j * rng.standard_normal((self.num_qubits, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        self.qubits = [core.Qubit(alpha=complex(a), beta=complex(b)) for a, b in z]
        self.states = {}
        for k in self.ladder:
            amps = rng.standard_normal(2**k) + 1j * rng.standard_normal(2**k)
            self.states[k] = core.StateVector(num_qubits=k, amplitudes=amps / np.linalg.norm(amps))
        seeds = np.random.SeedSequence(self.seed).generate_state(len(self.ladder) * self.draws)
        self.draw_seeds = [int(s) for s in seeds]

    def run_cycle(self, stats: Stats, tracer=None) -> None:
        core, noise = self.qil["core"], self.qil["noise"]
        # a user's script starts with an empty CBS cache; a version without this
        # hook must build afresh on every call, which _cold_cbs checks below
        cache_clear = getattr(getattr(core, "_cbs_measurement_set", None), "cache_clear", None)
        if cache_clear is not None:
            cache_clear()
        digest = hashlib.sha256()
        for q in self.qubits:
            for m in (0, 1):
                if tracer is not None:
                    tracer.op_id = stats.attempted
                t0 = time.perf_counter()
                try:
                    d = noise.decompose_and_verify(m, q)
                    seconds = time.perf_counter() - t0
                    ok = d.defect <= self.tol.residue_defect
                    digest.update(d.exact.amplitudes.tobytes())
                except Exception:  # counted as a failed op; the run goes on
                    seconds = time.perf_counter() - t0
                    _report_failure(stats, f"decompose_and_verify({m}, {q})")
                    ok = False
                stats.record(seconds, ok)
        draw = 0
        for k in self.ladder:
            state = self.states[k]
            for i in range(self.draws):
                if tracer is not None:
                    tracer.op_id = stats.attempted
                t0 = time.perf_counter()
                try:
                    # the first draw at each k also pays for building cbs(k)
                    mset = core.MeasurementSet.cbs(k)
                    outcome, post = core.sample_measurement(mset, state, self.draw_seeds[draw])
                    seconds = time.perf_counter() - t0
                    ok = self._collapsed(outcome, post.amplitudes)
                    if i == 0:
                        ok = self._cold_cbs(k, mset) and ok
                    digest.update(post.amplitudes.tobytes())
                except Exception:  # counted as a failed op; the run goes on
                    seconds = time.perf_counter() - t0
                    _report_failure(stats, f"sample_measurement(cbs({k}))")
                    ok = False
                stats.record(seconds, ok)
                draw += 1
        value = digest.hexdigest()
        if self.digest is None:
            self.digest = value
        elif value != self.digest:
            stats.failed += 1
            print("measure-postulates: results differ from the first cycle with this seed",
                  file=sys.stderr)

    def _cold_cbs(self, k: int, mset) -> bool:
        """The cycle's first cbs(k) is a new object, not the previous cycle's.

        A warm cache would drop the build from every cycle after the first and
        read as a false gain, so a reused set fails the op instead.
        """
        previous = self.cbs_seen.get(k)
        self.cbs_seen[k] = mset
        if previous is mset:
            print(f"measure-postulates: cbs({k}) came from a warm cache; the run is not cold",
                  file=sys.stderr)
            return False
        return True

    def _collapsed(self, outcome: int, amps: np.ndarray) -> bool:
        """The post-measurement state is the outcome's basis state up to phase."""
        rest = np.delete(amps, outcome)
        return abs(abs(amps[outcome]) - 1.0) <= self.tol.state_norm and not rest.any()

    @property
    def digests(self) -> dict[str, str]:
        return {} if self.digest is None else {"cycle": self.digest}


WORKLOADS = {cls.name: cls for cls in (FrqiReadout, NeqrNoisy, TomoSweep, MeasurePostulates)}
