"""Shared generators for randomized tests. Everything takes an explicit rng."""

import math

import numpy as np
from hypothesis import strategies as st

from qil.core import Qubit, StateVector
from qil.images import GrayImage
from qil.tomography import DensityMatrix


def random_qubit(rng) -> Qubit:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return Qubit(alpha=complex(v[0]), beta=complex(v[1]))


def random_state(rng, num_qubits: int) -> StateVector:
    v = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    v /= np.linalg.norm(v)
    return StateVector(num_qubits=num_qubits, amplitudes=v)


def random_unitary(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, num_qubits: int) -> DensityMatrix:
    dim = 2**num_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix.from_entries(rho / rho.trace())


def random_gray_image(rng, n: int, q: int = 8) -> GrayImage:
    side = 2**n
    return GrayImage(pixels=rng.integers(0, 2**q, size=(side, side)), q=q)


def qubit_strategy(min_component: float = 0.0):
    """Qubits built from Bloch angles plus a global phase.

    min_component keeps both amplitudes at least that large in modulus, for
    tests that need to stay away from the collapse singularities.
    """
    margin = 2 * math.asin(min_component) if min_component else 0.0

    def build(args):
        theta, phi, gamma = args
        amp = np.exp(1j * gamma) * np.array(
            [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)]
        )
        return Qubit(alpha=complex(amp[0]), beta=complex(amp[1]))

    return st.tuples(
        st.floats(min_value=margin, max_value=math.pi - margin),
        st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
        st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    ).map(build)


def neqr_shot_decode_reference(hist, n: int):
    """Per-outcome NEQR shot decode, kept as the reference for the array decoder.

    Each position takes its most frequent code; ties go to the smaller code.
    Returns the (side, side) pixels and the unobserved (Y, X) positions in
    row-major order.
    """
    side = 2**n
    npos = side * side
    best_count = np.zeros(npos, dtype=np.int64)
    grays = np.zeros(npos, dtype=np.int64)
    seen = np.zeros(npos, dtype=bool)
    for idx, c in sorted(zip(hist.outcomes.tolist(), hist.counts.tolist())):
        code, pos = divmod(idx, npos)
        seen[pos] = True
        if c > best_count[pos]:
            best_count[pos] = c
            grays[pos] = code
    missing = [(int(i // side), int(i % side)) for i in np.flatnonzero(~seen)]
    return grays.reshape(side, side), missing
