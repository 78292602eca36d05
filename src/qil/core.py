"""Qubits, multi-qubit registers, unitary evolution, and projective measurement.

Conventions used throughout the library:

* A k-qubit register is a length-2^k complex amplitude vector. Qubit 0 is the
  most significant bit of the basis index, i.e. ``kron(a, b)`` puts ``a`` on
  qubit 0.
* All value types are immutable after construction and validate their own
  invariants, with thresholds taken from :mod:`qil.tolerances`.
* Randomness enters only through explicit integer seeds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .tolerances import TOL


class UndefinedProjectionError(ValueError):
    """Collapse onto an outcome of probability zero (the 0/0 cross projection)."""


def _frozen_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


def _frozen_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BlochAngles:
    """Point on the Bloch sphere: polar angle theta in [0, pi], azimuth phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))


@dataclass(frozen=True)
class Qubit:
    """Two-level pure state alpha|0> + beta|1>, unit norm."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm_sq - 1.0) > TOL.qubit_norm:
            raise ValueError(f"qubit norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen_vector(self.amplitudes))
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be nonnegative")
        if len(self.amplitudes) != 2**self.num_qubits:
            raise ValueError(
                f"amplitude vector of length {len(self.amplitudes)} does not match "
                f"{self.num_qubits} qubits"
            )
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > TOL.state_norm:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        arr = np.asarray(amplitudes, dtype=complex)
        k = int(round(math.log2(len(arr)))) if len(arr) else -1
        if k < 0 or 2**k != len(arr):
            raise ValueError(f"amplitude count {len(arr)} is not a power of two")
        return cls(num_qubits=k, amplitudes=arr)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "StateVector":
        """Computational basis state |index> on the given register size."""
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(num_qubits=num_qubits, amplitudes=amps)

    @classmethod
    def of_qubit(cls, q: Qubit) -> "StateVector":
        return cls(num_qubits=1, amplitudes=q.as_array())


def tensor(*states: StateVector) -> StateVector:
    """Tensor product of registers; the first argument becomes the top qubits."""
    amps = np.array([1.0], dtype=complex)
    total = 0
    for s in states:
        amps = np.kron(amps, s.amplitudes)
        total += s.num_qubits
    return StateVector(num_qubits=total, amplitudes=amps)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_matrix(self.entries))
        defect = np.abs(self.entries.conj().T @ self.entries - np.eye(self.dim)).max()
        if defect > TOL.unitary:
            raise ValueError(f"matrix is not unitary, U^dag U deviates from I by {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "UnitaryMatrix":
        return cls(np.eye(dim, dtype=complex))


@dataclass(frozen=True, eq=False)
class MeasurementOperator:
    """Projector |m><m| of computational-basis outcome ``index``."""

    index: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_matrix(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MeasurementSet:
    """Computational-basis measurement of ``num_qubits`` qubits, held by its diagonal.

    Outcome m is the projector |m><m|, so p(m) = |psi_m|^2 and the collapse
    keeps amplitude m alone. The measurement functions use that directly;
    the dense projectors in ``operators`` are built only when read.
    """

    num_qubits: int

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be nonnegative")

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def __len__(self) -> int:
        return self.dim

    @cached_property
    def operators(self) -> tuple[MeasurementOperator, ...]:
        ops = []
        for m in range(self.dim):
            mat = np.zeros((self.dim, self.dim), dtype=complex)
            mat[m, m] = 1.0
            ops.append(MeasurementOperator(index=m, matrix=mat))
        return tuple(ops)

    @staticmethod
    def cbs(num_qubits: int) -> "MeasurementSet":
        return _cbs_measurement_set(num_qubits)


@lru_cache(maxsize=None)
def _cbs_measurement_set(num_qubits: int) -> MeasurementSet:
    return MeasurementSet(num_qubits)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.min() < -TOL.probability_sum or p.max() > 1.0 + TOL.probability_sum:
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > TOL.probability_sum:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p = np.clip(p, 0.0, 1.0)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def __len__(self) -> int:
        return len(self.probabilities)


# ---------------------------------------------------------------------------
# operations


def qubit_from_bloch(angles: BlochAngles) -> Qubit:
    """Map sphere angles to the canonical qubit cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    half = angles.theta / 2.0
    return Qubit(
        alpha=complex(math.cos(half)),
        beta=cmath.exp(1j * angles.phi) * math.sin(half),
    )


def apply_unitary(u: UnitaryMatrix, s: StateVector) -> StateVector:
    """Evolve the register: amplitudes' = U amplitudes. Norm is preserved."""
    if u.dim != s.dim:
        raise ValueError(f"unitary dim {u.dim} does not match register dim {s.dim}")
    return StateVector(num_qubits=s.num_qubits, amplitudes=u.entries @ s.amplitudes)


def outcome_probabilities(mset: MeasurementSet, s: StateVector) -> OutcomeDistribution:
    """Born probabilities p(m) = <psi| M_m^dag M_m |psi> = |psi_m|^2 for every outcome."""
    if mset.dim != s.dim:
        raise ValueError(f"measurement dim {mset.dim} does not match register dim {s.dim}")
    return OutcomeDistribution(probabilities=born_probabilities(s))


def collapse(op: MeasurementOperator, s: StateVector) -> StateVector:
    """Post-measurement state M|psi> / sqrt(<psi|M^dag M|psi>).

    Raises
    ------
    UndefinedProjectionError
        If the outcome has probability zero; the projection is then the
        indeterminate 0/0 and no post-measurement state exists.
    """
    if op.dim != s.dim:
        raise ValueError(f"operator dim {op.dim} does not match register dim {s.dim}")
    projected = op.matrix @ s.amplitudes
    prob = np.vdot(s.amplitudes, op.matrix.conj().T @ projected).real
    if prob <= 0.0:
        raise UndefinedProjectionError(
            f"outcome {op.index} has probability {max(prob, 0.0):.3e}; projection undefined"
        )
    return StateVector(num_qubits=s.num_qubits, amplitudes=projected / math.sqrt(prob))


def collapse_to_basis(m: int, s: StateVector) -> StateVector:
    """Post-measurement state of computational-basis outcome m: psi_m/|psi_m| on |m> alone.

    The same state as :func:`collapse` with the projector |m><m|, read off the
    diagonal without building it; a zero amplitude raises
    :class:`UndefinedProjectionError` just as there.
    """
    amp = s.amplitudes[m]
    if amp == 0:
        raise UndefinedProjectionError(f"outcome {m} has probability 0; projection undefined")
    amps = np.zeros(s.dim, dtype=complex)
    amps[m] = amp / abs(amp)
    return StateVector(num_qubits=s.num_qubits, amplitudes=amps)


def _draw_counts(p: np.ndarray, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of nonzero probability and their counts over ``shots`` draws.

    The one sampler behind single measurements and shot histograms: ``p`` is
    normalised, restricted to its support and drawn as one multinomial.
    """
    p = p / p.sum()
    support = np.flatnonzero(p > 0)
    return support, np.random.default_rng(seed).multinomial(shots, p[support])


def sample_measurement(
    mset: MeasurementSet, s: StateVector, rng_seed: int
) -> tuple[int, StateVector]:
    """Draw one outcome from the Born distribution and collapse accordingly.

    The pseudorandom stream is fully determined by ``rng_seed``; parallel
    callers must use distinct seeds to stay reproducible.
    """
    dist = outcome_probabilities(mset, s)
    support, drawn = _draw_counts(dist.probabilities, 1, rng_seed)
    outcome = int(support[drawn.argmax()])
    return outcome, collapse_to_basis(outcome, s)


def born_probabilities(s: StateVector) -> np.ndarray:
    """Computational-basis outcome probabilities |amplitude|^2 of a register."""
    return np.abs(s.amplitudes) ** 2


def reduced_density_matrix(s: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Partial trace of |psi><psi| keeping the listed qubits (0 = top bit).

    Returns a plain 2^m x 2^m complex array; wrap it with the tomography
    module's DensityMatrix for validation.
    """
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise ValueError("keep list contains duplicates")
    if any(qb < 0 or qb >= s.num_qubits for qb in keep):
        raise ValueError("keep list references qubits outside the register")
    rest = [qb for qb in range(s.num_qubits) if qb not in keep]
    tensor_form = s.amplitudes.reshape((2,) * s.num_qubits)
    ordered = np.transpose(tensor_form, axes=keep + rest)
    mat = ordered.reshape(2 ** len(keep), 2 ** len(rest))
    return mat @ mat.conj().T
