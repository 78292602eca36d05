"""Classical-image to quantum-register encodings and their decoders.

Three schemes with very different measurement behaviour:

* FRQI stores each gray value in the amplitude angle of one color qubit
  entangled with a position register (2n+1 qubits). Finite measurements can
  only estimate the angle, so retrieval is inherently noisy.
* NEQR stores each gray value as a q-bit basis state entangled with the
  position register (q+2n qubits). Codes are orthogonal, so any observation
  of a position yields its exact value.
* QuBo keeps one computational-basis qubit per pixel of a chosen bit plane.
  Measurement does not disturb basis states, so retrieval is exact at any
  shot budget.

Register basis layout: index = code * 4^n + position, position = Y * 2^n + X
row-major with Y in the high bits. The color/gray register therefore
occupies the top qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, _draw_counts, born_probabilities
from .images import BinaryImage, GrayImage
from .tolerances import TOL

#: Hard ceiling on simulated register width (2^20 amplitudes is desk scale).
REGISTER_CAP = 20

HALF_PI = math.pi / 2.0


class RegisterTooLargeError(ValueError):
    """Encoding would exceed the configured register qubit cap."""


class NotNeqrStateError(ValueError):
    """Register does not carry exactly one gray code per position."""


class CbsViolationError(ValueError):
    """A qubit that must be a computational basis state is not one."""


@dataclass(frozen=True, eq=False)
class FrqiState:
    """Angle-encoded image register over 2n+1 qubits."""

    n: int
    q: int
    state: StateVector

    def __post_init__(self):
        if self.state.num_qubits != 2 * self.n + 1:
            raise ValueError(
                f"FRQI register needs {2 * self.n + 1} qubits, got {self.state.num_qubits}"
            )


@dataclass(frozen=True, eq=False)
class NeqrState:
    """Basis-encoded image register over q+2n qubits.

    Every nonzero amplitude must equal 1/2^n: one gray code per position,
    uniformly weighted.
    """

    n: int
    q: int
    state: StateVector

    def __post_init__(self):
        if self.state.num_qubits != self.q + 2 * self.n:
            raise ValueError(
                f"NEQR register needs {self.q + 2 * self.n} qubits, got {self.state.num_qubits}"
            )
        amps = self.state.amplitudes
        weight = 1.0 / 2**self.n
        nonzero = amps[np.abs(amps) > TOL.encoder_norm]
        if len(nonzero) != 4**self.n or np.abs(nonzero - weight).max() > TOL.neqr_weight:
            raise NotNeqrStateError(
                "register amplitudes do not form one uniformly weighted code per position"
            )


@dataclass(frozen=True, eq=False)
class QuboState:
    """One CBS qubit per pixel; shape (side, side, 2) with exact |0> or |1> entries."""

    n: int
    qubits: np.ndarray

    def __post_init__(self):
        arr = np.array(self.qubits, dtype=complex)
        side = 2**self.n
        if arr.shape != (side, side, 2):
            raise ValueError(f"expected qubit grid of shape {(side, side, 2)}, got {arr.shape}")
        is_zero = (arr[..., 0] == 1.0) & (arr[..., 1] == 0.0)
        is_one = (arr[..., 0] == 0.0) & (arr[..., 1] == 1.0)
        if not (is_zero | is_one).all():
            raise CbsViolationError("every qubit must be exactly |0> or |1>")
        arr.setflags(write=False)
        object.__setattr__(self, "qubits", arr)


@dataclass(frozen=True, eq=False)
class ShotHistogram:
    """Observed basis ``outcomes`` (ascending) and their ``counts``, int64, over ``total`` shots."""

    outcomes: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self):
        object.__setattr__(self, "outcomes", np.asarray(self.outcomes, dtype=np.int64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if (self.counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if self.counts.sum() != self.total:
            raise ValueError("counts must sum to the total shot number")


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Positions never observed in shot decoding (filled with 0): (Y, X) rows of ``missing``."""

    total_positions: int
    observed_positions: int
    missing: np.ndarray

    @classmethod
    def of(cls, observed: np.ndarray) -> CoverageReport:
        """Report for a boolean (side, side) mask of observed positions."""
        return cls(
            total_positions=observed.size,
            observed_positions=int(observed.sum()),
            missing=np.argwhere(~observed),
        )

    @property
    def complete(self) -> bool:
        return self.observed_positions == self.total_positions


def sample_histogram(s: StateVector, shots: int, seed: int) -> ShotHistogram:
    """Histogram of ``shots`` independent full-register measurements.

    Each shot is one preparation followed by one destructive measurement;
    the joint tally is a single multinomial draw over the Born distribution.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    support, drawn = _draw_counts(born_probabilities(s), shots, seed)
    hit = drawn > 0
    return ShotHistogram(outcomes=support[hit], counts=drawn[hit], total=shots)


# ---------------------------------------------------------------------------
# gray <-> angle


def gray_to_theta(g: int, q: int) -> float:
    """Monotone map of a q-bit gray value onto [0, pi/2]; black is 0."""
    if q < 1:
        raise ValueError("bit depth q must be at least 1")
    if not 0 <= g <= 2**q - 1:
        raise ValueError(f"gray value {g} outside [0, {2**q - 1}]")
    return g * HALF_PI / (2**q - 1)


def _check_cap(qubits_needed: int, max_qubits: int) -> None:
    if qubits_needed > max_qubits:
        raise RegisterTooLargeError(
            f"encoding needs {qubits_needed} qubits, cap is {max_qubits}"
        )


# ---------------------------------------------------------------------------
# FRQI


def frqi_encode(img: GrayImage, max_qubits: int = REGISTER_CAP) -> FrqiState:
    """Angle-encode an image: (1/2^n) sum (cos t|0> + sin t|1>) |YX>."""
    n = img.n
    _check_cap(2 * n + 1, max_qubits)
    npos = 4**n
    theta = img.pixels.reshape(-1) * (HALF_PI / (2**img.q - 1))
    amps = np.empty(2 * npos, dtype=complex)
    scale = 1.0 / 2**n
    amps[:npos] = np.cos(theta) * scale
    amps[npos:] = np.sin(theta) * scale
    return FrqiState(n=n, q=img.q, state=StateVector(num_qubits=2 * n + 1, amplitudes=amps))


def frqi_decode_register(
    state: StateVector, n: int, q: int, shots: int = 0, seed: int = 0
) -> tuple[GrayImage, CoverageReport]:
    """Decode any 2n+1 qubit register with FRQI semantics.

    shots = 0 reads amplitudes directly (the infinite-shot limit) and inverts
    the encoding exactly. With shots > 0, S full-register measurements are
    drawn; each position's angle is estimated from its color-0 frequency via
    theta = arccos(clamp(sqrt(p0))), and positions never observed decode to 0
    and are listed in the coverage report.
    """
    if state.num_qubits != 2 * n + 1:
        raise ValueError("register size does not match an FRQI layout")
    side = 2**n
    npos = side * side
    if shots == 0:
        a0, a1 = np.abs(state.amplitudes).reshape(2, npos)
        theta = np.arctan2(a1, a0)
        observed = np.ones(npos, dtype=bool)
    else:
        hist = sample_histogram(state, shots, seed)
        n0, n1 = np.bincount(hist.outcomes, hist.counts, minlength=2 * npos).reshape(2, npos)
        observed = n0 + n1 > 0
        p0 = np.divide(n0, n0 + n1, out=np.zeros(npos), where=observed)
        theta = np.arccos(np.clip(np.sqrt(p0), 0.0, 1.0))
    levels = 2**q - 1
    grays = np.clip(np.rint(theta * levels / HALF_PI), 0, levels).astype(np.int64)
    grays[~observed] = 0
    observed = observed.reshape(side, side)
    return GrayImage(pixels=grays.reshape(side, side), q=q), CoverageReport.of(observed)


def frqi_decode(fs: FrqiState, shots: int = 0, seed: int = 0):
    return frqi_decode_register(fs.state, fs.n, fs.q, shots=shots, seed=seed)


# ---------------------------------------------------------------------------
# NEQR


def neqr_encode(img: GrayImage, max_qubits: int = REGISTER_CAP) -> NeqrState:
    """Basis-encode an image: (1/2^n) sum |f(Y,X)> |YX>."""
    n, q = img.n, img.q
    _check_cap(q + 2 * n, max_qubits)
    npos = 4**n
    amps = np.zeros(2**(q + 2 * n), dtype=complex)
    flat = img.pixels.reshape(-1)
    amps[flat * npos + np.arange(npos)] = 1.0 / 2**n
    return NeqrState(n=n, q=q, state=StateVector(num_qubits=q + 2 * n, amplitudes=amps))


def neqr_decode_register(
    state: StateVector, n: int, q: int, shots: int = 0, seed: int = 0
) -> tuple[GrayImage, CoverageReport]:
    """Decode any q+2n qubit register with NEQR semantics.

    Exact mode requires a single nonzero code per position and raises
    NotNeqrStateError otherwise. Shot mode records, per observed position,
    the most frequent code (ties break toward the smaller value, which never
    triggers on a true NEQR register since codes are deterministic).
    """
    if state.num_qubits != q + 2 * n:
        raise ValueError("register size does not match an NEQR layout")
    side = 2**n
    npos = side * side
    if shots == 0:
        hits = np.abs(state.amplitudes.reshape(2**q, npos)) > TOL.neqr_hit
        if not (hits.sum(axis=0) == 1).all():
            raise NotNeqrStateError("some position has zero or several gray codes")
        grays = np.argmax(hits, axis=0)
        seen = np.ones(npos, dtype=bool)
    else:
        hist = sample_histogram(state, shots, seed)
        code, pos = np.divmod(hist.outcomes, npos)
        # per position: highest count first, ties toward the smaller code
        order = np.lexsort((code, -hist.counts, pos))
        code, pos = code[order], pos[order]
        first = np.diff(pos, prepend=-1) != 0
        grays = np.zeros(npos, dtype=np.int64)
        grays[pos[first]] = code[first]
        seen = np.bincount(pos, minlength=npos) > 0
    seen = seen.reshape(side, side)
    return GrayImage(pixels=grays.reshape(side, side), q=q), CoverageReport.of(seen)


def neqr_decode(ns: NeqrState, shots: int = 0, seed: int = 0):
    return neqr_decode_register(ns.state, ns.n, ns.q, shots=shots, seed=seed)


# ---------------------------------------------------------------------------
# QuBo


def qubo_encode(img: GrayImage, plane: int | None = None) -> QuboState:
    """One CBS qubit per pixel of one bit plane (most significant by default)."""
    if plane is None:
        plane = img.q - 1
    if not 0 <= plane <= img.q - 1:
        raise ValueError(f"plane must lie in [0, {img.q - 1}], got {plane}")
    bits = (img.pixels >> plane) & 1
    grid = np.zeros((*bits.shape, 2), dtype=complex)
    grid[..., 0] = 1 - bits
    grid[..., 1] = bits
    return QuboState(n=img.n, qubits=grid)


def qubo_decode(qs: QuboState) -> BinaryImage:
    """Measure every qubit; deterministic and exact since all are CBS."""
    zero = qs.qubits[..., 0] == 1.0
    one = qs.qubits[..., 1] == 1.0
    if not np.logical_xor(zero, one).all():
        raise CbsViolationError("grid contains a non-CBS qubit")
    return BinaryImage(bits=one.astype(np.int64))


# ---------------------------------------------------------------------------
# budgets


def qubit_budget(representation: str, n: int, q: int) -> int:
    """Qubits required by a representation for a 2^n x 2^n, q-bit image."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q < 1:
        raise ValueError("q must be at least 1")
    if representation == "frqi":
        return 2 * n + 1
    if representation == "neqr":
        return q + 2 * n
    if representation == "qubo":
        return 4**n
    raise ValueError(f"unknown representation {representation!r}")
