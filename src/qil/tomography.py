"""Density matrices and linear-inversion state tomography with finite shots.

Pauli words are Hilbert-Schmidt orthogonal, Tr(PQ) = d delta_PQ with
d = 2^k, so the means mu_P = Tr(P rho) of all 4^k words invert in closed
form: rho = (1/d) sum_P mu_P P. Both directions factor over the qubits and
are computed axis by axis, without forming any k-qubit word. Exact means
invert to the generating state; finite-shot means carry sampling noise and
can produce unphysical estimates, which are flagged rather than hidden.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import StateVector
from .tolerances import TOL

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Largest probe register tomography accepts (4^8 words, a 256 x 256 estimate).
MAX_PROBE_QUBITS = 8

#: Per design alphabet, each letter's 2x2 matrix flattened to a row over (r, c).
_LETTER_ROWS = {
    letters: np.array([PAULI[c].reshape(4) for c in letters]) for letters in ("IXYZ", "IZ")
}


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-1 operator; ``physical`` records the eigenvalue check."""

    entries: np.ndarray
    physical: bool

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if np.abs(arr - arr.conj().T).max() > TOL.hermitian:
            raise ValueError("density matrix is not Hermitian")
        if abs(arr.trace().real - 1.0) > TOL.density_trace or abs(arr.trace().imag) > TOL.density_trace:
            raise ValueError(f"trace is {arr.trace():.6g}, must be 1")
        if self.physical and float(np.linalg.eigvalsh(arr).min()) < -TOL.eigenvalue_floor:
            raise ValueError("negative eigenvalue contradicts the physical flag")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def num_qubits(self) -> int:
        return int(round(math.log2(self.dim)))

    @classmethod
    def from_entries(cls, entries) -> "DensityMatrix":
        """Wrap a Hermitian trace-1 array, deciding the physical flag by eigenvalues."""
        arr = np.asarray(entries, dtype=complex)
        physical = float(np.linalg.eigvalsh(arr).min()) >= -TOL.eigenvalue_floor
        return cls(entries=arr, physical=physical)


@dataclass(frozen=True, eq=False)
class PauliObservable:
    """Tensor product of single-qubit Pauli letters, e.g. ``"ZI"``."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        if not self.label or any(c not in PAULI for c in self.label):
            raise ValueError(f"label must be a nonempty word over I, X, Y, Z: {self.label!r}")
        mat = np.array(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_label(cls, label: str) -> "PauliObservable":
        matrix = reduce(np.kron, (PAULI[c] for c in label))
        return cls(label=label, matrix=matrix)


@dataclass(frozen=True)
class TomographyDesign:
    """Every Pauli word over ``letters`` on ``num_qubits`` qubits, in product order.

    ``"IXYZ"`` determines a general density matrix, ``"IZ"`` its diagonal.
    """

    num_qubits: int
    letters: str

    def __post_init__(self):
        if self.letters not in _LETTER_ROWS:
            raise ValueError(f"letters must be one of {tuple(_LETTER_ROWS)}, got {self.letters!r}")
        if not 1 <= self.num_qubits <= MAX_PROBE_QUBITS:
            raise ValueError(
                f"tomography supports 1 to {MAX_PROBE_QUBITS} qubits, got {self.num_qubits}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple("".join(w) for w in itertools.product(self.letters, repeat=self.num_qubits))

    def __len__(self) -> int:
        return len(self.letters) ** self.num_qubits

    @classmethod
    def full_pauli(cls, num_qubits: int) -> "TomographyDesign":
        """All 4^k Pauli words; determines a general density matrix."""
        return cls(num_qubits, "IXYZ")

    @classmethod
    def cbs_diagonal(cls, num_qubits: int) -> "TomographyDesign":
        """I/Z words only; determines the diagonal (enough for CBS registers).

        Every observable commutes with the computational basis, so measuring
        a CBS register is outcome-deterministic: the key to QuBo's immunity.
        """
        return cls(num_qubits, "IZ")


@dataclass(frozen=True, eq=False)
class FrequencyRecord:
    """Observed mean outcome per observable; shots = 0 marks exact values."""

    mu: np.ndarray
    shots: int

    def __post_init__(self):
        arr = np.array(self.mu, dtype=float)
        if self.shots < 0:
            raise ValueError("shots must be nonnegative")
        if self.shots == 0 and np.abs(arr).max() > 1.0 + TOL.pauli_range:
            raise ValueError("exact Pauli frequencies must lie in [-1, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "mu", arr)


# ---------------------------------------------------------------------------
# construction and scalar reads


def density_from_pure(s: StateVector) -> DensityMatrix:
    """Rank-one density matrix |psi><psi| of a pure register."""
    rho = np.outer(s.amplitudes, s.amplitudes.conj())
    return DensityMatrix(entries=rho, physical=True)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2): 1 for pure states, 1/dim for the maximally mixed state."""
    return float(np.trace(rho.entries @ rho.entries).real)


def purity_from_weights(weights) -> float:
    """Sum of squared mixture weights; equals Tr(rho^2) for spectral weights."""
    return float(sum(w * w for w in weights))


def purity_from_bloch(expectations) -> float:
    """Single-qubit purity (1 + r^2)/2 from the Bloch vector components."""
    x, y, z = expectations
    return 0.5 * (1.0 + x * x + y * y + z * z)


def pauli_expectations(rho: DensityMatrix) -> tuple[float, float, float]:
    """Bloch vector (<X>, <Y>, <Z>) of a single-qubit density matrix."""
    if rho.dim != 2:
        raise ValueError("Pauli expectations are defined here for one qubit only")
    return tuple(
        float(np.trace(PAULI[axis] @ rho.entries).real) for axis in ("X", "Y", "Z")
    )


# ---------------------------------------------------------------------------
# frequency simulation and inversion


def _along_each_axis(mat: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Apply ``mat`` along every axis of ``t``: (mat x ... x mat) times t, flattened."""
    for _ in range(t.ndim):
        # contracting axis 0 and appending the new one cycles the axes back
        t = np.tensordot(t, mat, axes=([0], [1]))
    return t


def _qubit_pairs(rho: np.ndarray, k: int) -> np.ndarray:
    """View a 2^k x 2^k matrix as k axes of 4, one (row bit, column bit) pair per qubit."""
    order = [a for q in range(k) for a in (q, k + q)]
    return rho.reshape((2,) * (2 * k)).transpose(order).reshape((4,) * k)


def _from_qubit_pairs(t: np.ndarray, k: int) -> np.ndarray:
    order = [2 * q for q in range(k)] + [2 * q + 1 for q in range(k)]
    return t.reshape((2,) * (2 * k)).transpose(order).reshape(2**k, 2**k)


def simulate_frequencies(
    rho: DensityMatrix, design: TomographyDesign, shots: int, seed: int = 0
) -> FrequencyRecord:
    """Observed mean outcome mu_P for every design word.

    shots = 0 returns the exact means Tr(P rho). Otherwise each word is
    measured ``shots`` times: its outcomes are +1 or -1, so the number of +1
    outcomes is binomial with probability (1 + mu_P)/2, and the sampling
    error is the measurement noise of the record. Words with a certain
    outcome (the all-I word, Z words on a CBS register) read exactly +-1.
    """
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    if 2**design.num_qubits != rho.dim:
        raise ValueError("design dimension does not match the state")
    # Tr(P rho) = sum_rc conj(P_rc) rho_rc for Hermitian P, one qubit at a time
    pairs = _qubit_pairs(rho.entries, design.num_qubits)
    mu = _along_each_axis(_LETTER_ROWS[design.letters].conj(), pairs).real.reshape(-1)
    if shots == 0:
        return FrequencyRecord(mu=mu, shots=0)
    p_plus = np.clip((1.0 + mu) / 2.0, 0.0, 1.0)
    p_plus[0] = 1.0  # the all-I word: Tr(rho) = 1 up to rounding
    plus = np.random.default_rng(seed).binomial(shots, p_plus)
    return FrequencyRecord(mu=(2 * plus - shots) / shots, shots=shots)


def linear_inversion(design: TomographyDesign, freq: FrequencyRecord) -> DensityMatrix:
    """Closed-form inversion rho = (1/d) sum_P mu_P P of the design's means.

    With exact means this recovers the generating state (its diagonal for
    the I/Z design); with noisy means the estimate stays Hermitian with unit
    trace but may carry negative eigenvalues, reported via physical = False.
    """
    if len(freq.mu) != len(design):
        raise ValueError("frequency count does not match the design")
    k = design.num_qubits
    inverse = _LETTER_ROWS[design.letters].T / 2.0
    pairs = _along_each_axis(inverse, freq.mu.reshape((len(design.letters),) * k))
    return DensityMatrix.from_entries(_from_qubit_pairs(pairs, k))


def format_record(est: DensityMatrix, ideal: DensityMatrix | None = None) -> str:
    """Human-readable record: entry grids, purity, physicality, optional errors."""

    def grid(mat: np.ndarray) -> str:
        row_format = "  " + "  ".join(["%+.6f"] * mat.shape[1])
        return "\n".join(row_format % tuple(row) for row in mat.tolist())

    lines = [
        f"density matrix estimate ({est.num_qubits} qubits, dim {est.dim})",
        "real part:",
        grid(est.entries.real),
        "imaginary part:",
        grid(est.entries.imag),
        f"purity: {purity(est):.6f}",
        f"physical: {str(est.physical).lower()}",
    ]
    if ideal is not None:
        err = est.entries - ideal.entries
        lines += [
            "entry error vs ideal, real part:",
            grid(err.real),
            "entry error vs ideal, imaginary part:",
            grid(err.imag),
        ]
    return "\n".join(lines) + "\n"
