import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qil import core
from qil.core import (
    BlochAngles,
    MeasurementSet,
    Qubit,
    StateVector,
    UndefinedProjectionError,
    UnitaryMatrix,
    apply_unitary,
    collapse,
    collapse_to_basis,
    outcome_probabilities,
    qubit_from_bloch,
    reduced_density_matrix,
    sample_measurement,
    tensor,
)
from qil.noise import decompose_and_verify
from qil.tolerances import TOL
from util import random_qubit, random_state, random_unitary

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# types


def test_bloch_angles_normalize_phi():
    assert BlochAngles(theta=0.5, phi=3 * math.pi).phi == pytest.approx(math.pi)
    assert BlochAngles(theta=0.5, phi=-math.pi / 2).phi == pytest.approx(3 * math.pi / 2)


def test_bloch_angles_reject_bad_theta():
    with pytest.raises(ValueError):
        BlochAngles(theta=-0.1, phi=0.0)
    with pytest.raises(ValueError):
        BlochAngles(theta=math.pi + 0.1, phi=0.0)


def test_qubit_requires_unit_norm():
    with pytest.raises(ValueError):
        Qubit(alpha=1.0, beta=1.0)


def test_state_vector_validates_length_and_norm():
    with pytest.raises(ValueError):
        StateVector(num_qubits=2, amplitudes=[1.0, 0.0])
    with pytest.raises(ValueError):
        StateVector(num_qubits=1, amplitudes=[1.0, 1.0])


def test_state_accepted_at_the_norm_bound_can_be_measured():
    # |norm - 1| = 0.9e-10 passes StateVector, so sum |psi|^2 = 1 + 1.8e-10 must pass too
    s = StateVector(num_qubits=1, amplitudes=np.array([1, 1]) / math.sqrt(2) * (1 + 0.9e-10))
    dist = outcome_probabilities(MeasurementSet.cbs(1), s)
    assert dist.probabilities.sum() == pytest.approx(1.0)
    outcome, post = sample_measurement(MeasurementSet.cbs(1), s, rng_seed=0)
    assert abs(post.amplitudes[outcome]) == pytest.approx(1.0)


def test_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# Bloch sphere


@pytest.mark.parametrize(
    "theta,phi,expected",
    [
        (0.0, 0.0, (1.0, 0.0)),                      # north pole |0>
        (math.pi, 0.0, (0.0, 1.0)),                  # south pole |1>
        (math.pi / 2, 0.0, (1 / math.sqrt(2), 1 / math.sqrt(2))),
    ],
)
def test_qubit_from_bloch_reference_points(theta, phi, expected):
    q = qubit_from_bloch(BlochAngles(theta=theta, phi=phi))
    assert q.alpha == pytest.approx(expected[0], abs=1e-15)
    assert q.beta == pytest.approx(expected[1], abs=1e-15)


# ---------------------------------------------------------------------------
# unitaries


def test_apply_identity_is_noop(rng):
    s = random_state(rng, 2)
    out = apply_unitary(UnitaryMatrix.identity(4), s)
    np.testing.assert_allclose(out.amplitudes, s.amplitudes)


def test_apply_bit_flip_permutation():
    flip = UnitaryMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
    out = apply_unitary(flip, StateVector.basis(1, 0))
    np.testing.assert_array_equal(out.amplitudes, [0.0, 1.0])


def test_apply_sigma_z_flips_beta_sign(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    s = StateVector(num_qubits=1, amplitudes=v)
    out = apply_unitary(UnitaryMatrix(SIGMA_Z), s)
    np.testing.assert_allclose(out.amplitudes, [v[0], -v[1]], atol=1e-15)


def test_apply_unitary_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_unitary(UnitaryMatrix.identity(2), StateVector.basis(2, 0))


def test_norm_preserved_for_thousand_random_pairs(rng):
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        u = UnitaryMatrix(random_unitary(rng, 2**k))
        s = random_state(rng, k)
        out = apply_unitary(u, s)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < TOL.state_norm


# ---------------------------------------------------------------------------
# measurement postulate


def test_outcome_probabilities_single_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    s = StateVector(num_qubits=1, amplitudes=v)
    dist = outcome_probabilities(MeasurementSet.cbs(1), s)
    np.testing.assert_allclose(dist.probabilities, np.abs(v) ** 2, atol=1e-12)


def test_outcome_probabilities_equal_superposition():
    s = StateVector.from_amplitudes([1 / math.sqrt(2), 1 / math.sqrt(2)])
    dist = outcome_probabilities(MeasurementSet.cbs(1), s)
    np.testing.assert_allclose(dist.probabilities, [0.5, 0.5])


def test_outcome_probabilities_basis_state():
    dist = outcome_probabilities(MeasurementSet.cbs(1), StateVector.basis(1, 0))
    np.testing.assert_array_equal(dist.probabilities, [1.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_probabilities_sum_to_one(k, seed):
    s = random_state(np.random.default_rng(seed), k)
    dist = outcome_probabilities(MeasurementSet.cbs(k), s)
    assert abs(dist.probabilities.sum() - 1.0) < TOL.probability_sum


def test_collapse_generic_qubit_keeps_amplitude_phase(rng):
    q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    q /= np.linalg.norm(q)
    s = StateVector(num_qubits=1, amplitudes=q)
    out = collapse(MeasurementSet.cbs(1).operators[0], s)
    np.testing.assert_allclose(out.amplitudes, [q[0] / abs(q[0]), 0.0], atol=1e-12)


def test_collapse_cbs_fixed_points_are_exact():
    for k in (1, 2, 3):
        mset = MeasurementSet.cbs(k)
        for b in range(2**k):
            s = StateVector.basis(k, b)
            out = collapse(mset.operators[b], s)
            np.testing.assert_array_equal(out.amplitudes, s.amplitudes)


def test_collapse_cross_projection_raises():
    mset = MeasurementSet.cbs(1)
    with pytest.raises(UndefinedProjectionError):
        collapse(mset.operators[0], StateVector.basis(1, 1))
    with pytest.raises(UndefinedProjectionError):
        collapse(mset.operators[1], StateVector.basis(1, 0))
    with pytest.raises(UndefinedProjectionError):
        collapse_to_basis(0, StateVector.basis(1, 1))


def test_measurement_set_axioms_on_cbs():
    for k in (1, 2, 3):
        mset = MeasurementSet.cbs(k)
        dim = 2**k
        eye = np.eye(dim)
        completeness = sum(op.matrix.conj().T @ op.matrix for op in mset.operators)
        assert np.abs(completeness - eye).max() < TOL.completeness
        plain = sum(op.matrix for op in mset.operators)
        assert np.abs(plain - eye).max() < TOL.completeness
        for i, a in enumerate(mset.operators):
            assert np.abs(a.matrix @ a.matrix - a.matrix).max() < TOL.projector
            assert np.linalg.eigvalsh(a.matrix).min() > -TOL.projector
            for b in mset.operators[i + 1 :]:
                assert np.abs(a.matrix.conj().T @ b.matrix).max() < TOL.orthogonality


def test_sample_measurement_degenerate_state_always_zero():
    s = StateVector.basis(1, 0)
    for seed in (0, 1, 17, 987654321):
        outcome, post = sample_measurement(MeasurementSet.cbs(1), s, rng_seed=seed)
        assert outcome == 0
        np.testing.assert_array_equal(post.amplitudes, s.amplitudes)


def test_sample_measurement_frequency_matches_born_rule():
    s = StateVector.from_amplitudes([1 / math.sqrt(2), 1 / math.sqrt(2)])
    mset = MeasurementSet.cbs(1)
    draws = 2000
    ones = sum(sample_measurement(mset, s, rng_seed=seed)[0] for seed in range(draws))
    bound = 4 * math.sqrt(0.25 / draws)
    assert abs(ones / draws - 0.5) < bound


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cbs_set_matches_dense_projectors(k):
    rng = np.random.default_rng(100 + k)
    dense = MeasurementSet(k).operators
    cbs = MeasurementSet.cbs(k)
    for _ in range(5):
        s = random_state(rng, k)
        psi = s.amplitudes
        weights = np.array(
            [np.vdot(psi, op.matrix.conj().T @ (op.matrix @ psi)).real for op in dense]
        )
        np.testing.assert_allclose(
            outcome_probabilities(cbs, s).probabilities, weights, rtol=0, atol=1e-12
        )
        support = np.flatnonzero(weights > 0)
        for seed in range(10):
            outcome, post = sample_measurement(cbs, s, rng_seed=seed)
            drawn = np.random.default_rng(seed).multinomial(1, weights[support] / weights.sum())
            ref_outcome = int(support[drawn.argmax()])
            ref_post = collapse(dense[ref_outcome], s)
            assert outcome == ref_outcome
            np.testing.assert_allclose(post.amplitudes, ref_post.amplitudes, rtol=0, atol=1e-12)


def test_cbs_cache_is_cold_after_clear():
    warm = MeasurementSet.cbs(3)
    assert MeasurementSet.cbs(3) is warm
    core._cbs_measurement_set.cache_clear()
    assert MeasurementSet.cbs(3) is not warm


def test_negative_register_size_rejected():
    with pytest.raises(ValueError):
        MeasurementSet(-1)


def test_cbs_measurement_never_builds_projectors(rng):
    mset = MeasurementSet.cbs(10)
    assert len(mset) == mset.dim == 2**10
    outcome, post = sample_measurement(mset, random_state(rng, 10), rng_seed=5)
    assert abs(post.amplitudes[outcome]) == pytest.approx(1.0)
    assert "operators" not in vars(mset)


def test_decomposition_never_builds_projectors(rng):
    core._cbs_measurement_set.cache_clear()
    decompose_and_verify(0, random_qubit(rng))
    assert "operators" not in vars(MeasurementSet.cbs(1))


def test_sample_measurement_post_state_consistency(rng):
    s = random_state(rng, 2)
    mset = MeasurementSet.cbs(2)
    outcome, post = sample_measurement(mset, s, rng_seed=123)
    expected = collapse(mset.operators[outcome], s)
    np.testing.assert_allclose(post.amplitudes, expected.amplitudes)


# ---------------------------------------------------------------------------
# register helpers


def test_tensor_orders_factors():
    s = tensor(StateVector.basis(1, 0), StateVector.basis(1, 1))
    np.testing.assert_array_equal(s.amplitudes, StateVector.basis(2, 1).amplitudes)


def test_reduced_density_of_bell_state_is_maximally_mixed():
    bell = StateVector.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    for keep in ([0], [1]):
        np.testing.assert_allclose(reduced_density_matrix(bell, keep), np.eye(2) / 2, atol=1e-12)


def test_reduced_density_of_product_state_recovers_factor(rng):
    a, b = random_state(rng, 1), random_state(rng, 1)
    rho = reduced_density_matrix(tensor(a, b), [0])
    np.testing.assert_allclose(rho, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-12)
