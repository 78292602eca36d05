"""Decomposition of the post-measurement map into a linear term plus a residue.

Projecting a generic qubit onto outcome m and renormalizing is a nonlinear
map. It splits exactly into a linear piece (M_m/2)|psi> and a residue
supported on |m> alone; the residue is the measurement noise, and it
vanishes only for computational basis states. The identity is algebraic:

    alpha/2 + alpha (2 - |alpha|) / (2 |alpha|) = alpha / |alpha|

and likewise for beta on outcome 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Qubit, StateVector, collapse_to_basis


class UndefinedResidueError(ValueError):
    """Residue requested for an outcome whose amplitude is zero (0/0 case)."""


@dataclass(frozen=True, eq=False)
class MeasurementResidue:
    """Noise vector n_m added by measuring outcome m; lives on basis state |m> only."""

    outcome: int
    vector: np.ndarray

    def __post_init__(self):
        if self.outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        vec = np.array(self.vector, dtype=complex)
        if vec.shape != (2,):
            raise ValueError("residue vector must have exactly two components")
        if vec[1 - self.outcome] != 0:
            raise ValueError("residue must vanish off its own basis state")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @property
    def coefficient(self) -> complex:
        return complex(self.vector[self.outcome])


@dataclass(frozen=True)
class StateNoiseConfig:
    """Preparation-noise settings for a pipeline run.

    ``classical-pre-encode`` perturbs the classical image before encoding and
    is a no-op at the state level; ``amplitude-perturbation`` jitters the
    register amplitudes and renormalizes. The pipeline derives each mode's
    seed from the run seed.
    """

    mode: str
    magnitude: float

    MODES = ("classical-pre-encode", "amplitude-perturbation")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {self.mode!r}")
        if self.magnitude < 0:
            raise ValueError("magnitude must be nonnegative")


def _component(m: int, q: Qubit) -> complex:
    return q.alpha if m == 0 else q.beta


def linear_term(m: int, q: Qubit) -> np.ndarray:
    """Linear part (M_m / 2)|psi> of the post-measurement map."""
    if m not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    out = np.zeros(2, dtype=complex)
    out[m] = _component(m, q) / 2.0
    return out


def measurement_residue(m: int, q: Qubit) -> MeasurementResidue:
    """Mean measurement-noise residue for outcome m.

    For m = 0 the coefficient is alpha (2 - |alpha|) / (2 |alpha|); the beta
    analogue holds for m = 1. Unbounded as the amplitude tends to zero, which
    is why generic-qubit readout noise cannot be neglected.
    """
    if m not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    c = _component(m, q)
    mag = abs(c)
    if mag == 0.0:
        raise UndefinedResidueError(f"outcome {m} has zero amplitude; residue is 0/0")
    vec = np.zeros(2, dtype=complex)
    vec[m] = c * (2.0 - mag) / (2.0 * mag)
    return MeasurementResidue(outcome=m, vector=vec)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Linear term, residue, exact collapse, and the reconstruction defect."""

    linear: np.ndarray
    residue: MeasurementResidue
    exact: StateVector
    defect: float


def decompose_and_verify(m: int, q: Qubit) -> Decomposition:
    """Split the collapse of ``q`` on outcome ``m`` and measure the defect.

    The defect is ||linear + residue - exact|| and is zero up to rounding for
    every qubit with nonzero amplitude on m; the decomposition is an identity,
    not an approximation.
    """
    lin = linear_term(m, q)
    res = measurement_residue(m, q)
    exact = collapse_to_basis(m, StateVector.of_qubit(q))
    defect = float(np.linalg.norm(lin + res.vector - exact.amplitudes))
    return Decomposition(linear=lin, residue=res, exact=exact, defect=defect)


def inject_state_noise(s: StateVector, cfg: StateNoiseConfig, seed: int) -> StateVector:
    """Apply preparation noise to a register.

    In amplitude-perturbation mode each amplitude gets an independent
    complex perturbation with standard deviation ``magnitude`` per real
    component, drawn from ``seed``, after which the register is
    renormalized. The classical-pre-encode mode does nothing here by design;
    the pipeline applies it to pixels before encoding.
    """
    if cfg.mode == "classical-pre-encode" or cfg.magnitude == 0.0:
        return s
    rng = np.random.default_rng(seed)
    jitter = cfg.magnitude * (
        rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
    )
    noisy = s.amplitudes + jitter
    return StateVector(num_qubits=s.num_qubits, amplitudes=noisy / np.linalg.norm(noisy))
