"""Single source of truth for every numerical tolerance used by the library.

All validation thresholds live here so tests and library code agree by
construction. Values are absolute unless noted.
"""

from dataclasses import dataclass

_STATE_NORM = 1e-10


@dataclass(frozen=True)
class Tolerances:
    qubit_norm: float = 1e-12          # |alpha|^2 + |beta|^2 = 1
    state_norm: float = _STATE_NORM    # register Euclidean norm = 1
    unitary: float = 1e-10             # U^dag U = I
    hermitian: float = 1e-10           # H = H^dag
    projector: float = 1e-10           # M^2 = M, M >= 0
    completeness: float = 1e-10        # sum M^dag M = I
    orthogonality: float = 1e-10       # M_i^dag M_j = 0
    # outcome probabilities sum to 1: a norm within d of 1 gives a sum within 2d + d^2
    probability_sum: float = 2 * _STATE_NORM + _STATE_NORM**2
    encoder_norm: float = 1e-12        # encoded register norm = 1
    residue_defect: float = 1e-12      # linear + residue vs exact collapse
    density_trace: float = 1e-10       # Tr(rho) = 1
    eigenvalue_floor: float = 1e-10    # physicality: eigenvalues >= -floor
    purity_match: float = 1e-12        # purity formulas pairwise agreement
    recovery: float = 1e-10            # tomography forward-inverse, entrywise
    neqr_weight: float = 1e-9          # NEQR nonzero amplitudes = 1/2^n
    neqr_hit: float = 1e-9             # NEQR exact decode: |amplitude| above this is a code
    pauli_range: float = 1e-12         # exact Pauli frequencies within [-1, 1]


TOL = Tolerances()
