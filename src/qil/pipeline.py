"""End-to-end experiment runner: image -> encode -> process -> measure -> metrics.

A run is fully determined by its config, including the seed: stage seeds are
derived from the config seed with a fixed stream layout, so repeated runs
produce byte-identical data files (timings live only in report.json).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .core import StateVector, UnitaryMatrix, apply_unitary, reduced_density_matrix, tensor
from .encodings import (
    REGISTER_CAP,
    CoverageReport,
    frqi_decode_register,
    frqi_encode,
    gray_to_theta,
    neqr_decode_register,
    neqr_encode,
    qubit_budget,
    qubo_decode,
    qubo_encode,
)
from .images import (
    BinaryImage,
    GrayImage,
    add_classical_noise,
    bit_plane,
    read_pgm,
    write_binary_pgm,
    write_pgm,
)
from .metrics import (
    ImageErrorReport,
    MatrixErrorReport,
    image_error,
    image_report_json,
    matrix_error,
    matrix_report_json,
    noise_map,
    save_noise_map,
    write_grid_csv,
)
from .noise import StateNoiseConfig, inject_state_noise
from .tomography import (
    MAX_PROBE_QUBITS,
    DensityMatrix,
    TomographyDesign,
    density_from_pure,
    format_record,
    linear_inversion,
    simulate_frequencies,
)

#: Environment override for the register qubit cap.
CAP_ENV_VAR = "QIL_MAX_QUBITS"


class PipelineConfigError(ValueError):
    pass


class BudgetExceededError(PipelineConfigError):
    """Chosen representation needs more register qubits than the cap allows."""


def register_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return REGISTER_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise PipelineConfigError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise PipelineConfigError(f"{CAP_ENV_VAR} must be positive, got {cap}")
    return cap


def _check_probe_qubits(num_qubits: int, what: str = "tomography qubits") -> None:
    if not 1 <= num_qubits <= MAX_PROBE_QUBITS:
        raise PipelineConfigError(
            f"{what} must be between 1 and {MAX_PROBE_QUBITS}, got {num_qubits}"
        )


@dataclass(frozen=True)
class TomographySettings:
    """Probe size and per-observable shot budget (0 = exact frequencies)."""

    num_qubits: int
    shots_per_observable: int

    def __post_init__(self):
        _check_probe_qubits(self.num_qubits)
        if self.shots_per_observable < 0:
            raise PipelineConfigError("shots per observable must be nonnegative")


@dataclass(frozen=True)
class Representation:
    """One scheme's stages.

    Each stage looks this module's names up when it runs, so that a wrapper set
    on one of them (``frqi_encode``, ``write_pgm``, ...) sees every call.
    ``cbs`` marks registers of computational-basis states: they have no qubit
    cap and admit neither amplitude noise nor a unitary.
    """

    encode: Callable  # (image, plane, cap) -> register
    decode: Callable  # (register, image, shots, seed) -> (image, coverage)
    probe: Callable  # (image, k, cap) -> (ideal k-qubit probe, design)
    reference: Callable = lambda img, plane: img  # what the decode is scored against
    write: Callable = lambda decoded, path: write_pgm(decoded, path)  # decoded.pgm
    cbs: bool = False


def _angle_probe(img: GrayImage, k: int, cap: int):
    parts = []
    for g in np.resize(img.pixels, k).tolist():  # the first k pixels, cyclically
        theta = gray_to_theta(g, img.q)
        parts.append(StateVector(num_qubits=1, amplitudes=[math.cos(theta), math.sin(theta)]))
    return density_from_pure(tensor(*parts)), TomographyDesign.full_pauli(k)


def _traced_probe(img: GrayImage, k: int, cap: int):
    reduced = reduced_density_matrix(neqr_encode(img, max_qubits=cap).state, list(range(k)))
    return DensityMatrix.from_entries(reduced), TomographyDesign.full_pauli(k)


def _msb_probe(img: GrayImage, k: int, cap: int):
    bits = np.resize(img.pixels, k) >> (img.q - 1) & 1
    index = int("".join(map(str, bits.tolist())), 2)
    return density_from_pure(StateVector.basis(k, index)), TomographyDesign.cbs_diagonal(k)


def _read_cbs(register, img: GrayImage, shots: int, seed: int):
    decoded = qubo_decode(register).to_gray()
    return decoded, CoverageReport.of(np.ones(decoded.pixels.shape, dtype=bool))


#: Scheme name -> stages. The order is the compare driver's seed-stream order.
REPRESENTATIONS = {
    # probe: the product of the first k pixels' one-pixel angle encodings
    "frqi": Representation(
        encode=lambda img, plane, cap: frqi_encode(img, max_qubits=cap).state,
        decode=lambda reg, img, shots, seed: frqi_decode_register(
            reg, img.n, img.q, shots=shots, seed=seed
        ),
        probe=_angle_probe,
    ),
    # probe: the top k qubits of the full register, traced out
    "neqr": Representation(
        encode=lambda img, plane, cap: neqr_encode(img, max_qubits=cap).state,
        decode=lambda reg, img, shots, seed: neqr_decode_register(
            reg, img.n, img.q, shots=shots, seed=seed
        ),
        probe=_traced_probe,
    ),
    # one bit plane, scored against that plane and written as 0/255; probe: the
    # first k pixels' most significant bits, measured in the diagonal design only
    "qubo": Representation(
        encode=lambda img, plane, cap: qubo_encode(img, plane),
        decode=_read_cbs,
        probe=_msb_probe,
        reference=lambda img, plane: bit_plane(img, plane).to_gray(),
        write=lambda decoded, path: write_binary_pgm(BinaryImage(bits=decoded.pixels), path),
        cbs=True,
    ),
}


def _representation(name: str) -> Representation:
    try:
        return REPRESENTATIONS[name]
    except KeyError:
        raise PipelineConfigError(
            f"representation must be one of {tuple(REPRESENTATIONS)}, got {name!r}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    representation: str
    image_path: str
    out_dir: str
    shots: int = 0
    seed: int = 0
    q: int | None = None
    plane: int | None = None
    unitary_path: str | None = None
    state_noise: StateNoiseConfig | None = None
    tomography: TomographySettings | None = None
    max_qubits: int = field(default_factory=register_cap)

    def __post_init__(self):
        cbs = _representation(self.representation).cbs
        noise = self.state_noise
        if self.shots < 0:
            raise PipelineConfigError("shots must be nonnegative (0 = exact)")
        if cbs and self.unitary_path is not None:
            raise PipelineConfigError(
                f"{self.representation} registers are per-pixel CBS qubits; "
                "only the identity algorithm applies"
            )
        if not cbs and self.plane is not None:
            raise PipelineConfigError(
                f"{self.representation} encodes every bit plane; plane applies to qubo only"
            )
        if cbs and noise is not None and noise.mode == "amplitude-perturbation":
            raise PipelineConfigError(
                "amplitude noise cannot be represented on CBS qubits; "
                f"use classical-pre-encode noise for {self.representation}"
            )

    def echo(self) -> dict:
        out = asdict(self)
        for key in ("image_path", "out_dir", "unitary_path"):
            if out[key] is not None:
                out[key] = str(out[key])
        if self.state_noise is not None:
            out["state_noise"]["rng_seed"] = _noise_seed(self)
        return out


@dataclass(frozen=True)
class RunReport:
    config: dict
    decoded_path: str
    image_report: ImageErrorReport
    matrix_report: MatrixErrorReport | None
    coverage: CoverageReport
    timings: dict[str, float]

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "decoded_path": self.decoded_path,
            "image_error": image_report_json(self.image_report),
            "matrix_error": None
            if self.matrix_report is None
            else matrix_report_json(self.matrix_report),
            "coverage": {
                "total_positions": self.coverage.total_positions,
                "observed_positions": self.coverage.observed_positions,
                # (y, x) tuples, not lists: the garbage collector stops tracking
                # a tuple of ints at its first pass, but would rescan ~10^5 lists
                "missing": list(zip(*self.coverage.missing.T.tolist())),
            },
            "timings": self.timings,
        }


def load_unitary_csv(path) -> UnitaryMatrix:
    """Read a complex matrix stored row-major with consecutive re,im fields."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        fields = [float(v) for v in line.split(",")]
        if len(fields) % 2:
            raise ValueError(f"row with {len(fields)} fields cannot pair into re,im cells")
        rows.append([complex(fields[i], fields[i + 1]) for i in range(0, len(fields), 2)])
    return UnitaryMatrix(np.array(rows, dtype=complex))


def save_unitary_csv(u: UnitaryMatrix, path) -> None:
    lines = []
    for row in u.entries:
        lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _stage_seeds(seed: int) -> list[int]:
    # a run draws classical or amplitude noise from stream 0 or 1 (see
    # _NOISE_STREAMS), decode sampling from 2 and tomography from 3. The
    # compare driver seeds its three runs from streams 0-2 and its sweep from 3.
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(4)]


_NOISE_STREAMS = {"classical-pre-encode": 0, "amplitude-perturbation": 1}


def _noise_seed(cfg: ExperimentConfig) -> int:
    return _stage_seeds(cfg.seed)[_NOISE_STREAMS[cfg.state_noise.mode]]


def _load_image(image_path, q: int | None) -> GrayImage:
    img = read_pgm(image_path)
    if q is not None:
        if q < img.q and img.pixels.max() > 2**q - 1:
            raise PipelineConfigError(
                f"pixels exceed the range of the requested bit depth q={q}"
            )
        img = GrayImage(pixels=img.pixels, q=q)
    return img


def tomography_register(
    representation: str, img: GrayImage, num_qubits: int, max_qubits: int = REGISTER_CAP
) -> tuple[DensityMatrix, TomographyDesign]:
    """Ideal k-qubit probe state and measurement design for a representation.

    Each probe is described in ``REPRESENTATIONS``. CBS registers are probed in
    the diagonal design only, since they never leave the computational basis.
    ``max_qubits`` caps any register a probe is traced out of.
    """
    rep = _representation(representation)
    _check_probe_qubits(num_qubits)
    return rep.probe(img, num_qubits, max_qubits)


def run_tomography_experiment(
    representation: str,
    img: GrayImage,
    num_qubits: int,
    shots_per_observable: int,
    seed: int,
    max_qubits: int = REGISTER_CAP,
) -> tuple[DensityMatrix, DensityMatrix, MatrixErrorReport]:
    """Simulate frequencies for the representation's probe and invert them.

    Returns (estimate, ideal, error report).
    """
    ideal, design = tomography_register(representation, img, num_qubits, max_qubits)
    freq = simulate_frequencies(ideal, design, shots_per_observable, seed=seed)
    est = linear_inversion(design, freq)
    return est, ideal, matrix_error(ideal, est)


def write_tomography(est: DensityMatrix, ideal: DensityMatrix, out: Path) -> None:
    """Write an estimate's tomo_real.csv, tomo_imag.csv and tomography.txt into ``out``."""
    write_grid_csv(est.entries.real, out / "tomo_real.csv")
    write_grid_csv(est.entries.imag, out / "tomo_imag.csv")
    (out / "tomography.txt").write_text(format_record(est, ideal))


def run_pipeline(cfg: ExperimentConfig) -> RunReport:
    """Execute one configured experiment and write its outputs.

    Files written to cfg.out_dir: decoded.pgm, metrics.csv, noise_map.csv,
    noise_map.pgm, report.json, and tomo_real.csv / tomo_imag.csv /
    tomography.txt when tomography is on.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = _stage_seeds(cfg.seed)
    rep = REPRESENTATIONS[cfg.representation]
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    img = _load_image(cfg.image_path, cfg.q)
    budget = qubit_budget(cfg.representation, img.n, img.q)
    if not rep.cbs and budget > cfg.max_qubits:
        raise BudgetExceededError(
            f"{cfg.representation} needs {budget} qubits for this image, cap is {cfg.max_qubits}"
        )
    working = img
    if cfg.state_noise is not None and cfg.state_noise.mode == "classical-pre-encode":
        working = add_classical_noise(img, cfg.state_noise.magnitude, _noise_seed(cfg))
    timings["load"] = time.perf_counter() - t0

    plane = (img.q - 1) if cfg.plane is None else cfg.plane
    t0 = time.perf_counter()
    register = rep.encode(working, plane, cfg.max_qubits)
    timings["encode"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if cfg.state_noise is not None and cfg.state_noise.mode == "amplitude-perturbation":
        register = inject_state_noise(register, cfg.state_noise, _noise_seed(cfg))
    timings["state_noise"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if cfg.unitary_path is not None:
        u = load_unitary_csv(cfg.unitary_path)
        register = apply_unitary(u, register)
    timings["algorithm"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    decoded, coverage = rep.decode(register, working, cfg.shots, seeds[2])
    timings["decode"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    decoded_path = out / "decoded.pgm"
    rep.write(decoded, decoded_path)
    reference = rep.reference(img, plane)
    report = image_error(reference, decoded)
    diff = noise_map(reference, decoded)
    save_noise_map(diff, reference.q, out / "noise_map.csv", out / "noise_map.pgm")
    timings["metrics"] = time.perf_counter() - t0

    matrix_report = None
    t0 = time.perf_counter()
    if cfg.tomography is not None:
        est, ideal, matrix_report = run_tomography_experiment(
            cfg.representation,
            working,
            cfg.tomography.num_qubits,
            cfg.tomography.shots_per_observable,
            seeds[3],
            cfg.max_qubits,
        )
        write_tomography(est, ideal, out)
    timings["tomography"] = time.perf_counter() - t0

    run = RunReport(
        config=cfg.echo(),
        decoded_path=str(decoded_path),
        image_report=report,
        matrix_report=matrix_report,
        coverage=coverage,
        timings=timings,
    )
    row = _metrics_row(cfg, img, run)
    _write_csv(out / "metrics.csv", list(row), [row])
    (out / "report.json").write_text(json.dumps(run.to_json(), sort_keys=True) + "\n")
    return run


def _metrics_row(cfg: ExperimentConfig, img: GrayImage, run: RunReport) -> dict:
    """One metrics.csv / compare.csv row; its key order is the column order."""
    mr = run.matrix_report
    return {
        "representation": cfg.representation,
        "n": img.n,
        "q": img.q,
        "shots": cfg.shots,
        "seed": cfg.seed,
        "mae": repr(run.image_report.mae),
        "mse": repr(run.image_report.mse),
        "psnr_db": run.image_report.psnr_display,
        "max_pixel_error": run.image_report.max_pixel_error,
        "positions_missing": len(run.coverage.missing),
        "tomo_max_pct_err_real": ""
        if mr is None or mr.max_percentage_error_real is None
        else repr(mr.max_percentage_error_real),
        "tomo_max_pct_err_imag": ""
        if mr is None or mr.max_percentage_error_imag is None
        else repr(mr.max_percentage_error_imag),
    }


def _write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def run_repr_compare(
    image_path,
    shots: int,
    seed: int,
    out_dir,
    q: int | None = None,
    tomo_qubits: int = 2,
    tomo_shots: int = 100,
    sweep_max_qubits: int = 3,
) -> Path:
    """Run all three representations on one image with a shared shot budget.

    Writes one run directory per representation, a compare.csv with one row
    each, and qubit_sweep.csv with tomography max-percentage errors per
    register size for the error-versus-qubits picture.
    """
    _check_probe_qubits(sweep_max_qubits, "sweep_max_qubits")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    derived = _stage_seeds(seed)
    cap = register_cap()
    img = _load_image(image_path, q)
    rows = []
    for rep, rep_seed in zip(REPRESENTATIONS, derived):
        cfg = ExperimentConfig(
            representation=rep,
            image_path=str(image_path),
            out_dir=str(out / rep),
            shots=shots,
            seed=rep_seed,
            q=q,
            tomography=TomographySettings(
                num_qubits=tomo_qubits, shots_per_observable=tomo_shots
            ),
        )
        rows.append(_metrics_row(cfg, img, run_pipeline(cfg)))
    compare_path = out / "compare.csv"
    _write_csv(compare_path, list(rows[0]), rows)

    sweep_rows = []
    sweep_streams = np.random.SeedSequence(derived[3]).generate_state(
        sweep_max_qubits * len(REPRESENTATIONS)
    )
    sizes = itertools.product(range(1, sweep_max_qubits + 1), REPRESENTATIONS)
    for (k, rep), rep_seed in zip(sizes, sweep_streams.tolist()):
        _, _, mreport = run_tomography_experiment(rep, img, k, tomo_shots, rep_seed, cap)
        pct = mreport.max_percentage_error_real
        sweep_rows.append(
            {
                "representation": rep,
                "num_qubits": k,
                "shots_per_observable": tomo_shots,
                "max_pct_err_real": "" if pct is None else repr(pct),
            }
        )
    _write_csv(
        out / "qubit_sweep.csv",
        ["representation", "num_qubits", "shots_per_observable", "max_pct_err_real"],
        sweep_rows,
    )
    return compare_path


def run_budget_report(n_values, q: int, out_dir, seed: int = 0) -> Path:
    """Qubit budgets and measured encode times per (repr, n)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    cap = register_cap()
    for name, rep in REPRESENTATIONS.items():
        for n in n_values:
            budget = qubit_budget(name, n, q)
            side = 2**n
            img = GrayImage(pixels=rng.integers(0, 2**q, size=(side, side)), q=q)
            timer = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                rep.encode(img, q - 1, cap)
                timer = min(timer, time.perf_counter() - t0)
            rows.append(
                {
                    "representation": name,
                    "n": n,
                    "q": q,
                    "qubits": budget,
                    "encode_seconds": repr(timer),
                }
            )
    path = out / "budget.csv"
    _write_csv(path, ["representation", "n", "q", "qubits", "encode_seconds"], rows)
    return path
