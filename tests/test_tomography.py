import math
import time

import numpy as np
import pytest

from qil.core import StateVector
from qil.tolerances import TOL
from qil.tomography import (
    DensityMatrix,
    FrequencyRecord,
    MAX_PROBE_QUBITS,
    PauliObservable,
    TomographyDesign,
    density_from_pure,
    format_record,
    linear_inversion,
    pauli_expectations,
    purity,
    purity_from_bloch,
    purity_from_weights,
    simulate_frequencies,
)
from util import random_density, random_state

PLUS = StateVector.from_amplitudes([1 / math.sqrt(2), 1 / math.sqrt(2)])


# ---------------------------------------------------------------------------
# density matrices


def test_density_validation():
    with pytest.raises(ValueError):
        DensityMatrix(entries=np.array([[0.5, 0.5], [0.0, 0.5]]), physical=True)
    with pytest.raises(ValueError):
        DensityMatrix(entries=np.eye(2), physical=True)  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(entries=np.diag([1.5, -0.5]).astype(complex), physical=True)
    # same matrix is representable once flagged unphysical
    dm = DensityMatrix(entries=np.diag([1.5, -0.5]).astype(complex), physical=False)
    assert not dm.physical


def test_density_from_pure_basis_state():
    dm = density_from_pure(StateVector.basis(1, 0))
    np.testing.assert_array_equal(dm.entries, [[1, 0], [0, 0]])
    assert dm.physical


def test_density_from_pure_plus_state():
    dm = density_from_pure(PLUS)
    np.testing.assert_allclose(dm.entries, np.full((2, 2), 0.5), atol=1e-15)


def test_density_from_pure_trace_one(rng):
    for _ in range(100):
        dm = density_from_pure(random_state(rng, 2))
        assert abs(dm.entries.trace() - 1.0) < 1e-12
        assert purity(dm) == pytest.approx(1.0, abs=1e-12)


def test_mixture_maximally_mixed():
    dm = DensityMatrix.from_entries(np.eye(2) / 2)
    assert dm.physical
    assert purity(dm) == pytest.approx(0.5)
    assert purity_from_weights([0.5, 0.5]) == pytest.approx(0.5)


def test_purity_formulas_agree_on_random_single_qubits(rng):
    for _ in range(100):
        dm = random_density(rng, 1)
        via_trace = purity(dm)
        via_bloch = purity_from_bloch(pauli_expectations(dm))
        via_weights = purity_from_weights(np.linalg.eigvalsh(dm.entries))
        assert abs(via_trace - via_bloch) < TOL.purity_match
        assert abs(via_trace - via_weights) < TOL.purity_match
        assert abs(via_bloch - via_weights) < TOL.purity_match


# ---------------------------------------------------------------------------
# Bloch reads and single-qubit reconstruction (linear inversion at k = 1)


def test_pauli_expectations_reference_states():
    assert pauli_expectations(density_from_pure(StateVector.basis(1, 0))) == (0.0, 0.0, 1.0)
    x, y, z = pauli_expectations(density_from_pure(PLUS))
    assert (x, y, z) == pytest.approx((1.0, 0.0, 0.0))
    mixed = DensityMatrix.from_entries(np.eye(2) / 2)
    assert pauli_expectations(mixed) == (0.0, 0.0, 0.0)


def test_pauli_expectations_rejects_larger_registers(rng):
    with pytest.raises(ValueError):
        pauli_expectations(random_density(rng, 2))


def reconstruct(bloch, shots=0):
    """rho = (I + x X + y Y + z Z) / 2 by linear inversion of the I, X, Y, Z means."""
    record = FrequencyRecord(mu=np.array([1.0, *bloch]), shots=shots)
    return linear_inversion(TomographyDesign.full_pauli(1), record)


def test_single_qubit_reconstruct_reference_points():
    np.testing.assert_allclose(reconstruct((0.0, 0.0, 1.0)).entries, [[1, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(reconstruct((0.0, 0.0, 0.0)).entries, np.eye(2) / 2)


def test_single_qubit_reconstruct_flags_unphysical_radius():
    dm = reconstruct((1.2, 0.0, 0.0), shots=10)
    assert abs(dm.entries.trace() - 1.0) < 1e-15
    assert not dm.physical


def test_reconstruct_inverts_expectations(rng):
    for _ in range(20):
        dm = random_density(rng, 1)
        back = reconstruct(pauli_expectations(dm))
        np.testing.assert_allclose(back.entries, dm.entries, atol=1e-12)


# ---------------------------------------------------------------------------
# designs and frequency simulation


def test_full_pauli_design_shape():
    design = TomographyDesign.full_pauli(2)
    assert len(design) == len(design.labels) == 16
    assert design.labels[:5] == ("II", "IX", "IY", "IZ", "XI")


def test_cbs_diagonal_design_shape():
    design = TomographyDesign.cbs_diagonal(2)
    assert design.labels == ("II", "IZ", "ZI", "ZZ")
    assert len(design) == 4


def test_design_requires_identity_word():
    with pytest.raises(ValueError):
        TomographyDesign(num_qubits=1, letters="Z")


def test_rank_deficient_design_rejected():
    # two identity words cannot determine the diagonal
    with pytest.raises(ValueError):
        TomographyDesign(num_qubits=1, letters="II")


@pytest.mark.parametrize("k", [0, MAX_PROBE_QUBITS + 1])
def test_design_rejects_probe_size_out_of_range(k):
    with pytest.raises(ValueError):
        TomographyDesign.full_pauli(k)


def test_exact_frequencies_match_trace_formula(rng):
    dm = random_density(rng, 2)
    design = TomographyDesign.full_pauli(2)
    rec = simulate_frequencies(dm, design, shots=0)
    for mu, label in zip(rec.mu, design.labels):
        obs = PauliObservable.from_label(label)
        assert mu == pytest.approx(np.trace(obs.matrix @ dm.entries).real, abs=1e-12)


@pytest.mark.parametrize("letters", ["IXYZ", "IZ"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_form_matches_dense_pauli_words(rng, k, letters):
    dm = random_density(rng, k)
    design = TomographyDesign(num_qubits=k, letters=letters)
    rec = simulate_frequencies(dm, design, shots=0)
    dense = [
        np.trace(PauliObservable.from_label(label).matrix @ dm.entries).real
        for label in design.labels
    ]
    np.testing.assert_allclose(rec.mu, dense, rtol=0, atol=1e-12)
    expected = dm.entries if letters == "IXYZ" else np.diag(np.diag(dm.entries))
    est = linear_inversion(design, rec)
    np.testing.assert_allclose(est.entries, expected, rtol=0, atol=1e-12)


def test_identity_word_reads_exactly_one_at_one_shot(rng):
    for k in (1, 3):
        dm = random_density(rng, k)
        for seed in range(20):
            assert simulate_frequencies(dm, TomographyDesign.full_pauli(k), 1, seed).mu[0] == 1.0


def test_largest_probe_simulates_and_inverts_within_a_second(rng):
    k = MAX_PROBE_QUBITS
    design = TomographyDesign.full_pauli(k)
    assert len(design) == 4**8
    dm = density_from_pure(random_state(rng, k))
    t0 = time.perf_counter()
    est = linear_inversion(design, simulate_frequencies(dm, design, shots=100, seed=1))
    assert time.perf_counter() - t0 < 1.0
    assert abs(est.entries.trace() - 1.0) < TOL.density_trace


def test_cbs_z_measurement_has_zero_variance():
    dm = density_from_pure(StateVector.basis(1, 0))
    design = TomographyDesign.cbs_diagonal(1)
    values = [simulate_frequencies(dm, design, shots=20, seed=s).mu for s in range(50)]
    stacked = np.stack(values)
    assert np.ptp(stacked, axis=0).max() == 0.0
    np.testing.assert_array_equal(stacked[0], [1.0, 1.0])  # <I> and <Z> both exactly 1


def test_generic_state_z_measurement_fluctuates():
    dm = density_from_pure(PLUS)
    z_index = 3  # labels I, X, Y, Z
    design = TomographyDesign.full_pauli(1)
    values = [simulate_frequencies(dm, design, shots=20, seed=s).mu[z_index] for s in range(50)]
    assert np.std(values) > 0.0


def test_finite_shot_frequency_concentrates(rng):
    dm = density_from_pure(PLUS)
    design = TomographyDesign.full_pauli(1)
    shots = 10**4
    rec = simulate_frequencies(dm, design, shots=shots, seed=3)
    x_index = 1
    assert abs(rec.mu[x_index] - 1.0) < 4 / math.sqrt(shots)


def test_frequency_record_validation():
    with pytest.raises(ValueError):
        FrequencyRecord(mu=np.array([1.5]), shots=0)
    FrequencyRecord(mu=np.array([1.5]), shots=10)  # finite-shot means may exceed the band


# ---------------------------------------------------------------------------
# inversion


def test_linear_inversion_recovers_random_states(rng):
    for k in (1, 2):
        design = TomographyDesign.full_pauli(k)
        for _ in range(20):
            dm = random_density(rng, k)
            rec = simulate_frequencies(dm, design, shots=0)
            est = linear_inversion(design, rec)
            assert np.abs(est.entries - dm.entries).max() < TOL.recovery
            assert est.physical


def test_linear_inversion_cbs_diagonal_entry_is_one():
    dm = density_from_pure(StateVector.basis(2, 0))
    design = TomographyDesign.full_pauli(2)
    est = linear_inversion(design, simulate_frequencies(dm, design, shots=0))
    assert est.entries[0, 0].real == pytest.approx(1.0, abs=1e-10)
    assert np.abs(est.entries - dm.entries).max() < TOL.recovery


def test_noisy_inversion_can_be_unphysical(rng):
    dm = density_from_pure(PLUS)
    design = TomographyDesign.full_pauli(1)
    flags = []
    for seed in range(30):
        est = linear_inversion(design, simulate_frequencies(dm, design, shots=30, seed=seed))
        flags.append(est.physical)
    assert not all(flags)


def test_inversion_frequency_count_mismatch():
    design = TomographyDesign.full_pauli(1)
    with pytest.raises(ValueError):
        linear_inversion(design, FrequencyRecord(mu=np.array([1.0, 0.0]), shots=0))


# ---------------------------------------------------------------------------
# shot scaling and the text record


def test_entry_error_decreases_with_shots(rng):
    dm = random_density(rng, 1)
    design = TomographyDesign.full_pauli(1)
    medians = []
    for shots in (10**2, 10**3, 10**4):
        errs = [
            np.abs(
                linear_inversion(design, simulate_frequencies(dm, design, shots, seed=s)).entries
                - dm.entries
            ).max()
            for s in range(15)
        ]
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_format_record_mentions_key_fields(rng):
    dm = random_density(rng, 1)
    text = format_record(dm, ideal=dm)
    assert "purity:" in text
    assert "physical:" in text
    assert "real part:" in text
    assert "entry error vs ideal" in text
