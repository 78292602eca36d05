"""qil: quantum-image encodings, measurement noise, and tomography on a desk.

Classical images go in, quantum registers come out, finite measurements pull
them back, and the error accounting shows which encodings survive the trip.
"""

from .core import (
    BlochAngles,
    MeasurementOperator,
    MeasurementSet,
    OutcomeDistribution,
    Qubit,
    StateVector,
    UndefinedProjectionError,
    UnitaryMatrix,
    apply_unitary,
    collapse,
    outcome_probabilities,
    qubit_from_bloch,
    sample_measurement,
    tensor,
)
from .encodings import (
    FrqiState,
    NeqrState,
    QuboState,
    frqi_decode,
    frqi_encode,
    gray_to_theta,
    neqr_decode,
    neqr_encode,
    qubit_budget,
    qubo_decode,
    qubo_encode,
)
from .images import BinaryImage, GrayImage, bit_plane, read_pgm, write_pgm
from .metrics import image_error, matrix_error, noise_map
from .noise import (
    MeasurementResidue,
    StateNoiseConfig,
    UndefinedResidueError,
    decompose_and_verify,
    inject_state_noise,
    linear_term,
    measurement_residue,
)
from .pipeline import ExperimentConfig, RunReport, run_pipeline, run_repr_compare
from .tolerances import TOL, Tolerances
from .tomography import (
    DensityMatrix,
    FrequencyRecord,
    PauliObservable,
    TomographyDesign,
    density_from_pure,
    linear_inversion,
    pauli_expectations,
    purity,
    simulate_frequencies,
)

__version__ = "0.1.0"
