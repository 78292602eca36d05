"""End-to-end experiment runner: image -> encode -> process -> measure -> metrics.

A run is fully determined by its config, including the seed: stage seeds are
derived from the config seed with a fixed stream layout, so repeated runs
produce byte-identical data files (timings live only in report.json).
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

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
from .images import GrayImage, bit_plane, add_classical_noise, read_pgm, write_binary_pgm, write_pgm
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

REPRESENTATIONS = ("frqi", "neqr", "qubo")

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
        if self.representation not in REPRESENTATIONS:
            raise PipelineConfigError(
                f"representation must be one of {REPRESENTATIONS}, got {self.representation!r}"
            )
        if self.shots < 0:
            raise PipelineConfigError("shots must be nonnegative (0 = exact)")
        if self.representation == "qubo":
            if self.unitary_path is not None:
                raise PipelineConfigError(
                    "qubo registers are per-pixel CBS qubits; only the identity algorithm applies"
                )
            if self.state_noise is not None and self.state_noise.mode == "amplitude-perturbation":
                raise PipelineConfigError(
                    "amplitude noise cannot be represented on CBS qubits; "
                    "use classical-pre-encode noise for qubo"
                )

    def echo(self) -> dict:
        noise = None
        if self.state_noise is not None:
            noise = {
                "mode": self.state_noise.mode,
                "magnitude": self.state_noise.magnitude,
                "rng_seed": _noise_seed(self),
            }
        tomo = None
        if self.tomography is not None:
            tomo = {
                "num_qubits": self.tomography.num_qubits,
                "shots_per_observable": self.tomography.shots_per_observable,
            }
        return {
            "representation": self.representation,
            "image_path": str(self.image_path),
            "out_dir": str(self.out_dir),
            "shots": self.shots,
            "seed": self.seed,
            "q": self.q,
            "plane": self.plane,
            "unitary_path": None if self.unitary_path is None else str(self.unitary_path),
            "state_noise": noise,
            "tomography": tomo,
            "max_qubits": self.max_qubits,
        }


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

    frqi: tensor product of the color qubits of the first k pixels (each a
    one-pixel angle encoding), measured in the full Pauli design. neqr: the
    top k qubits of the full register (partial trace), full Pauli design.
    qubo: the CBS state of the first k pixels' most significant bits,
    measured in the diagonal design only, since CBS registers never require
    leaving the computational basis. ``max_qubits`` caps the neqr register
    the probe is traced out of.
    """
    if representation not in REPRESENTATIONS:
        raise PipelineConfigError(f"unknown representation {representation!r}")
    _check_probe_qubits(num_qubits)
    flat = img.pixels.reshape(-1)
    if representation == "frqi":
        parts = []
        for i in range(num_qubits):
            theta = gray_to_theta(int(flat[i % flat.size]), img.q)
            parts.append(
                StateVector(num_qubits=1, amplitudes=[math.cos(theta), math.sin(theta)])
            )
        rho = density_from_pure(tensor(*parts))
        return rho, TomographyDesign.full_pauli(num_qubits)
    if representation == "neqr":
        ns = neqr_encode(img, max_qubits=max_qubits)
        reduced = reduced_density_matrix(ns.state, list(range(num_qubits)))
        return DensityMatrix.from_entries(reduced), TomographyDesign.full_pauli(num_qubits)
    bits = [(int(flat[i % flat.size]) >> (img.q - 1)) & 1 for i in range(num_qubits)]
    index = int("".join(str(b) for b in bits), 2)
    rho = density_from_pure(StateVector.basis(num_qubits, index))
    return rho, TomographyDesign.cbs_diagonal(num_qubits)


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
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    img = _load_image(cfg.image_path, cfg.q)
    budget = qubit_budget(cfg.representation, img.n, img.q)
    if cfg.representation in ("frqi", "neqr") and budget > cfg.max_qubits:
        raise BudgetExceededError(
            f"{cfg.representation} needs {budget} qubits for this image, cap is {cfg.max_qubits}"
        )
    working = img
    if cfg.state_noise is not None and cfg.state_noise.mode == "classical-pre-encode":
        working = add_classical_noise(img, cfg.state_noise.magnitude, _noise_seed(cfg))
    timings["load"] = time.perf_counter() - t0

    plane = (img.q - 1) if cfg.plane is None else cfg.plane
    t0 = time.perf_counter()
    if cfg.representation == "frqi":
        register = frqi_encode(working, max_qubits=cfg.max_qubits).state
    elif cfg.representation == "neqr":
        register = neqr_encode(working, max_qubits=cfg.max_qubits).state
    else:
        qubo_state = qubo_encode(working, plane)
        register = None
    timings["encode"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if (
        register is not None
        and cfg.state_noise is not None
        and cfg.state_noise.mode == "amplitude-perturbation"
    ):
        register = inject_state_noise(register, cfg.state_noise, _noise_seed(cfg))
    timings["state_noise"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if cfg.unitary_path is not None:
        u = load_unitary_csv(cfg.unitary_path)
        register = apply_unitary(u, register)
    timings["algorithm"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if cfg.representation == "frqi":
        decoded, coverage = frqi_decode_register(
            register, working.n, working.q, shots=cfg.shots, seed=seeds[2]
        )
    elif cfg.representation == "neqr":
        decoded, coverage = neqr_decode_register(
            register, working.n, working.q, shots=cfg.shots, seed=seeds[2]
        )
    else:
        decoded_bits = qubo_decode(qubo_state)
        decoded = decoded_bits.to_gray()
        coverage = CoverageReport.of(np.ones(decoded.pixels.shape, dtype=bool))
    timings["decode"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    decoded_path = out / "decoded.pgm"
    if cfg.representation == "qubo":
        reference = bit_plane(img, plane).to_gray()
        write_binary_pgm(decoded_bits, decoded_path)
    else:
        reference = img
        write_pgm(decoded, decoded_path)
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
    _write_metrics_csv(out / "metrics.csv", [_metrics_row(cfg, img, run)])
    (out / "report.json").write_text(json.dumps(run.to_json(), sort_keys=True) + "\n")
    return run


_METRICS_FIELDS = [
    "representation",
    "n",
    "q",
    "shots",
    "seed",
    "mae",
    "mse",
    "psnr_db",
    "max_pixel_error",
    "positions_missing",
    "tomo_max_pct_err_real",
    "tomo_max_pct_err_imag",
]


def _metrics_row(cfg: ExperimentConfig, img: GrayImage, run: RunReport) -> dict:
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


def _write_metrics_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_METRICS_FIELDS)
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
    _write_metrics_csv(compare_path, rows)

    sweep_rows = []
    sweep_streams = np.random.SeedSequence(derived[3]).generate_state(
        sweep_max_qubits * len(REPRESENTATIONS)
    )
    stream = 0
    for k in range(1, sweep_max_qubits + 1):
        for rep in REPRESENTATIONS:
            _, _, mreport = run_tomography_experiment(
                rep, img, k, tomo_shots, int(sweep_streams[stream]), cap
            )
            stream += 1
            pct = mreport.max_percentage_error_real
            sweep_rows.append(
                {
                    "representation": rep,
                    "num_qubits": k,
                    "shots_per_observable": tomo_shots,
                    "max_pct_err_real": "" if pct is None else repr(pct),
                }
            )
    with open(out / "qubit_sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["representation", "num_qubits", "shots_per_observable", "max_pct_err_real"],
        )
        writer.writeheader()
        writer.writerows(sweep_rows)
    return compare_path


def run_budget_report(n_values, q: int, out_dir, seed: int = 0) -> Path:
    """Qubit budgets and measured encode times per (repr, n)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    cap = register_cap()
    for rep in REPRESENTATIONS:
        for n in n_values:
            budget = qubit_budget(rep, n, q)
            side = 2**n
            img = GrayImage(pixels=rng.integers(0, 2**q, size=(side, side)), q=q)
            timer = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                if rep == "frqi":
                    frqi_encode(img, max_qubits=cap)
                elif rep == "neqr":
                    neqr_encode(img, max_qubits=cap)
                else:
                    qubo_encode(img)
                timer = min(timer, time.perf_counter() - t0)
            rows.append(
                {
                    "representation": rep,
                    "n": n,
                    "q": q,
                    "qubits": budget,
                    "encode_seconds": repr(timer),
                }
            )
    path = out / "budget.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["representation", "n", "q", "qubits", "encode_seconds"],
        )
        writer.writeheader()
        writer.writerows(rows)
    return path
