"""Error metrics between reference and estimated images / density matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .images import GrayImage, write_pgm
from .tomography import DensityMatrix


class UndefinedPercentageError(ValueError):
    """Relative error against an all-zero reference part is undefined."""


@dataclass(frozen=True)
class ImageErrorReport:
    """MAE, MSE, PSNR and the worst single-pixel deviation.

    ``psnr_db`` is None for a perfect match (infinite PSNR); serializers
    write the string "infinite" instead of a float special value.
    """

    mae: float
    mse: float
    psnr_db: float | None
    max_pixel_error: int

    @property
    def psnr_display(self) -> str:
        return "infinite" if self.psnr_db is None else repr(self.psnr_db)


@dataclass(frozen=True, eq=False)
class MatrixErrorReport:
    """Entrywise estimate-minus-ideal grids split by part, plus max relative errors.

    A percentage is None when its reference part is all zero (the relative
    error is then undefined).
    """

    max_percentage_error_real: float | None
    max_percentage_error_imag: float | None
    error_real: np.ndarray
    error_imag: np.ndarray


def image_error(ref: GrayImage, est: GrayImage) -> ImageErrorReport:
    """Pixelwise error report; PSNR uses the dynamic range (2^q - 1)^2."""
    if ref.pixels.shape != est.pixels.shape or ref.q != est.q:
        raise ValueError("images must share shape and bit depth")
    diff = est.pixels - ref.pixels
    mae = float(np.abs(diff).mean())
    mse = float((diff.astype(float) ** 2).mean())
    psnr = None if mse == 0.0 else 10.0 * math.log10(ref.max_value**2 / mse)
    return ImageErrorReport(
        mae=mae, mse=mse, psnr_db=psnr, max_pixel_error=int(np.abs(diff).max())
    )


def max_percentage_error(ideal_part: np.ndarray, error_part: np.ndarray) -> float:
    """100 * max|error| / max|ideal| for one (real or imaginary) part."""
    scale = float(np.abs(ideal_part).max())
    if scale == 0.0:
        raise UndefinedPercentageError("reference part is identically zero")
    return 100.0 * float(np.abs(error_part).max()) / scale


def matrix_error(ideal: DensityMatrix, est: DensityMatrix) -> MatrixErrorReport:
    if ideal.dim != est.dim:
        raise ValueError("density matrices must share one dimension")
    err = est.entries - ideal.entries
    percentages = []
    for ideal_part, err_part in ((ideal.entries.real, err.real), (ideal.entries.imag, err.imag)):
        try:
            percentages.append(max_percentage_error(ideal_part, err_part))
        except UndefinedPercentageError:
            percentages.append(None)
    return MatrixErrorReport(
        max_percentage_error_real=percentages[0],
        max_percentage_error_imag=percentages[1],
        error_real=err.real.copy(),
        error_imag=err.imag.copy(),
    )


def noise_map(ref: GrayImage, est: GrayImage) -> np.ndarray:
    """Signed per-pixel difference est - ref, for external heatmap rendering."""
    if ref.pixels.shape != est.pixels.shape:
        raise ValueError("images must share one shape")
    return (est.pixels - ref.pixels).astype(np.int64)


# ---------------------------------------------------------------------------
# serialization helpers


def image_report_json(report: ImageErrorReport) -> dict:
    return {
        "mae": report.mae,
        "mse": report.mse,
        "psnr_db": "infinite" if report.psnr_db is None else report.psnr_db,
        "max_pixel_error": report.max_pixel_error,
    }


def matrix_report_json(report: MatrixErrorReport) -> dict:
    return {
        "max_percentage_error_real": report.max_percentage_error_real,
        "max_percentage_error_imag": report.max_percentage_error_imag,
    }


def write_grid_csv(grid: np.ndarray, path) -> None:
    """Write a 2-d numeric grid as bare CSV rows (floats by ``repr``)."""
    grid = np.atleast_2d(grid)
    # integer rows take one %-format each, about twice as fast as a str() per cell
    line = ",".join(["%d"] * grid.shape[1]) + "\n" if grid.dtype.kind in "iu" else None
    with open(path, "w", newline="") as fh:
        fh.writelines(line % tuple(row) if line else ",".join(map(repr, row)) + "\n"
                      for row in map(np.ndarray.tolist, grid))


def save_noise_map(grid: np.ndarray, q: int, csv_path, pgm_path) -> None:
    """Persist a signed noise grid as CSV plus an offset-shifted PGM preview.

    The preview maps zero error to mid-gray by adding 2^(q-1) and clipping.
    """
    write_grid_csv(grid, csv_path)
    offset = 2 ** (q - 1)
    preview = np.clip(grid + offset, 0, 2**q - 1)
    write_pgm(GrayImage(pixels=preview, q=q), pgm_path)
