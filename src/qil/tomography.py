"""Density matrices and linear-inversion state tomography with finite shots.

The estimand is parametrized by d real diagonal entries plus d(d-1)/2 real
and d(d-1)/2 imaginary off-diagonal parts (d = 2^k), so observed frequencies
are linear in the parameter vector: mu = M t. Exact frequencies invert to
the generating state; finite-shot frequencies carry sampling noise and can
produce unphysical estimates, which are flagged rather than hidden.
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


class RankDeficientDesignError(ValueError):
    """Design matrix cannot determine every density-matrix parameter."""


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

    @property
    def is_diagonal(self) -> bool:
        return all(c in "IZ" for c in self.label)


def _parameter_basis(dim: int, diagonal_only: bool = False) -> tuple[np.ndarray, ...]:
    """Hermitian basis matrices, one per real parameter.

    Diagonal entries first, then E_ab + E_ba for a < b, then i(E_ab - E_ba).
    """
    basis = []
    for a in range(dim):
        mat = np.zeros((dim, dim), dtype=complex)
        mat[a, a] = 1.0
        basis.append(mat)
    if not diagonal_only:
        for a in range(dim):
            for b in range(a + 1, dim):
                mat = np.zeros((dim, dim), dtype=complex)
                mat[a, b] = mat[b, a] = 1.0
                basis.append(mat)
        for a in range(dim):
            for b in range(a + 1, dim):
                mat = np.zeros((dim, dim), dtype=complex)
                mat[a, b] = 1j
                mat[b, a] = -1j
                basis.append(mat)
    return tuple(basis)


@dataclass(frozen=True, eq=False)
class TomographyDesign:
    """Observables plus the matrix mapping density parameters to frequencies."""

    observables: tuple[PauliObservable, ...]
    basis: tuple[np.ndarray, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if not any(set(obs.label) == {"I"} for obs in self.observables):
            raise ValueError("design must include the identity word (trace normalization)")
        if np.linalg.matrix_rank(self.matrix) < self.matrix.shape[1]:
            raise RankDeficientDesignError("design matrix has deficient column rank")

    @property
    def num_qubits(self) -> int:
        return len(self.observables[0].label)

    @classmethod
    def _build(cls, labels, diagonal_only: bool) -> "TomographyDesign":
        observables = tuple(PauliObservable.from_label(lb) for lb in labels)
        dim = observables[0].matrix.shape[0]
        basis = _parameter_basis(dim, diagonal_only=diagonal_only)
        matrix = np.array(
            [[np.trace(obs.matrix @ b).real for b in basis] for obs in observables]
        )
        return cls(observables=observables, basis=basis, matrix=matrix)

    @classmethod
    def full_pauli(cls, num_qubits: int) -> "TomographyDesign":
        """All 4^k Pauli words; determines a general density matrix."""
        labels = ["".join(w) for w in itertools.product("IXYZ", repeat=num_qubits)]
        return cls._build(labels, diagonal_only=False)

    @classmethod
    def cbs_diagonal(cls, num_qubits: int) -> "TomographyDesign":
        """I/Z words only; determines the diagonal (enough for CBS registers).

        Every observable commutes with the computational basis, so measuring
        a CBS register is outcome-deterministic: the key to QuBo's immunity.
        """
        labels = ["".join(w) for w in itertools.product("IZ", repeat=num_qubits)]
        return cls._build(labels, diagonal_only=True)


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


def density_from_mixture(components) -> DensityMatrix:
    """Statistical mixture sum_i P_i |psi_i><psi_i|; weights must sum to 1."""
    weights = [float(p) for p, _ in components]
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    if abs(sum(weights) - 1.0) > TOL.probability_sum:
        raise ValueError(f"mixture weights sum to {sum(weights)}, not 1")
    dim = components[0][1].dim
    rho = np.zeros((dim, dim), dtype=complex)
    for w, s in components:
        rho += w * np.outer(s.amplitudes, s.amplitudes.conj())
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


def single_qubit_reconstruct(expectations) -> DensityMatrix:
    """Assemble rho = (I + x X + y Y + z Z) / 2 from Bloch components.

    Always returns a trace-1 Hermitian matrix; a Bloch radius above 1 yields
    physical = False rather than an error, mirroring what noisy tomography
    produces.
    """
    x, y, z = (float(v) for v in expectations)
    rho = 0.5 * (np.eye(2, dtype=complex) + x * PAULI["X"] + y * PAULI["Y"] + z * PAULI["Z"])
    return DensityMatrix.from_entries(rho)


# ---------------------------------------------------------------------------
# frequency simulation and inversion


def _born_eigen_sampling(obs: PauliObservable, rho: DensityMatrix):
    """Outcome eigenvalues and their Born probabilities for one observable."""
    if obs.is_diagonal:
        # commutes with the basis: outcomes are the diagonal entries, and a
        # CBS register makes the draw deterministic (exact 0/1 probabilities)
        values = np.diag(obs.matrix).real
        probs = np.diag(rho.entries).real
    else:
        values, vectors = np.linalg.eigh(obs.matrix)
        probs = np.einsum("ij,jk,ki->i", vectors.conj().T, rho.entries, vectors).real
    probs = np.clip(probs, 0.0, None)
    return values, probs / probs.sum()


def simulate_frequencies(
    rho: DensityMatrix, design: TomographyDesign, shots: int, seed: int = 0
) -> FrequencyRecord:
    """Observed frequencies mu_i for every design observable.

    shots = 0 returns the exact expectations Tr(O_i rho). Otherwise each
    observable is measured ``shots`` times by sampling its eigenvalue
    outcomes from the Born distribution; the sampling error is the
    measurement noise of the record.
    """
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    if design.observables[0].matrix.shape[0] != rho.dim:
        raise ValueError("design dimension does not match the state")
    if shots == 0:
        mu = np.array(
            [np.trace(obs.matrix @ rho.entries).real for obs in design.observables]
        )
        return FrequencyRecord(mu=mu, shots=0)
    streams = np.random.SeedSequence(seed).spawn(len(design.observables))
    mu = np.empty(len(design.observables))
    for i, obs in enumerate(design.observables):
        values, probs = _born_eigen_sampling(obs, rho)
        counts = np.random.default_rng(streams[i]).multinomial(shots, probs)
        mu[i] = float(np.dot(values, counts) / shots)
    return FrequencyRecord(mu=mu, shots=shots)


def linear_inversion(design: TomographyDesign, freq: FrequencyRecord) -> DensityMatrix:
    """Least-squares solve of mu = M t and assembly of the estimate rho(t).

    With exact frequencies this recovers the generating state; with noisy
    frequencies the estimate stays Hermitian with unit trace but may carry
    negative eigenvalues, reported via physical = False.
    """
    if len(freq.mu) != len(design.observables):
        raise ValueError("frequency count does not match the design")
    t, _, rank, _ = np.linalg.lstsq(design.matrix, freq.mu, rcond=None)
    if rank < design.matrix.shape[1]:
        raise RankDeficientDesignError("design matrix has deficient column rank")
    dim = design.basis[0].shape[0]
    rho = np.zeros((dim, dim), dtype=complex)
    for coeff, mat in zip(t, design.basis):
        rho += coeff * mat
    return DensityMatrix.from_entries(rho)


def project_to_physical(rho: DensityMatrix) -> DensityMatrix:
    """Clip negative eigenvalues to zero and renormalize the trace to 1.

    Idempotent; already-physical inputs pass through unchanged up to
    rounding. Standing substitute for constrained estimation.
    """
    values, vectors = np.linalg.eigh(rho.entries)
    clipped = np.clip(values, 0.0, None)
    total = clipped.sum()
    if total <= 0:
        raise ValueError("cannot project a matrix with no positive eigenvalue weight")
    fixed = (vectors * (clipped / total)) @ vectors.conj().T
    return DensityMatrix(entries=fixed, physical=True)


def format_record(est: DensityMatrix, ideal: DensityMatrix | None = None) -> str:
    """Human-readable record: entry grids, purity, physicality, optional errors."""

    def grid(mat: np.ndarray) -> str:
        return "\n".join("  " + "  ".join(f"{v:+.6f}" for v in row) for row in mat)

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
