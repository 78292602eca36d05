import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qil.core import (
    BlochAngles,
    Hamiltonian,
    MeasurementOperator,
    MeasurementSet,
    Observable,
    Qubit,
    StateVector,
    UndefinedProjectionError,
    UnitaryMatrix,
    apply_unitary,
    bloch_from_qubit,
    collapse,
    evolve_hamiltonian,
    observable_expectation,
    outcome_probabilities,
    qubit_from_bloch,
    reduced_density_matrix,
    sample_measurement,
    tensor,
)
from qil.tolerances import TOL
from util import bloch_angle_strategy, qubit_strategy, random_hermitian, random_state, random_unitary

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


def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        Hamiltonian(entries=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_observable_rejects_negative_outcome_values():
    with pytest.raises(ValueError):
        Observable(eigenvalues=(-1.0, 1.0), set=MeasurementSet.cbs(1))


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


def test_bloch_from_qubit_poles_and_phase_strip():
    a = bloch_from_qubit(Qubit(alpha=1.0, beta=0.0))
    assert (a.theta, a.phi) == (0.0, 0.0)
    # global phase i is discarded before inverting
    s = 1j / math.sqrt(2)
    b = bloch_from_qubit(Qubit(alpha=s, beta=s))
    assert b.theta == pytest.approx(math.pi / 2)
    assert b.phi == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=200)
@given(bloch_angle_strategy())
def test_bloch_round_trip_away_from_poles(angles):
    theta, phi = angles
    if not 1e-6 < theta < math.pi - 1e-6:
        return
    back = bloch_from_qubit(qubit_from_bloch(BlochAngles(theta=theta, phi=phi)))
    assert back.theta == pytest.approx(theta, abs=1e-9)
    assert math.cos(back.phi) == pytest.approx(math.cos(phi), abs=1e-9)
    assert math.sin(back.phi) == pytest.approx(math.sin(phi), abs=1e-9)


@settings(max_examples=100)
@given(qubit_strategy(), st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True))
def test_bloch_ignores_global_phase(q, gamma):
    rotated = Qubit(alpha=q.alpha * np.exp(1j * gamma), beta=q.beta * np.exp(1j * gamma))
    a, b = bloch_from_qubit(q), bloch_from_qubit(rotated)
    assert a.theta == pytest.approx(b.theta, abs=1e-9)
    assert math.cos(a.phi) == pytest.approx(math.cos(b.phi), abs=1e-9)
    assert math.sin(a.phi) == pytest.approx(math.sin(b.phi), abs=1e-9)


# ---------------------------------------------------------------------------
# unitaries and evolution


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


def test_zero_hamiltonian_evolves_to_identity():
    u = evolve_hamiltonian(Hamiltonian(entries=np.zeros((4, 4))), t=3.7)
    np.testing.assert_allclose(u.entries, np.eye(4), atol=1e-15)


def test_sigma_z_half_period_gives_minus_identity():
    # (hbar w / 2) sigma_z for a time 2 pi / w winds the phases to -1
    omega = 2.0
    h = Hamiltonian(entries=(omega / 2) * SIGMA_Z, hbar=1.0)
    u = evolve_hamiltonian(h, t=2 * math.pi / omega)
    expected = np.diag([np.exp(-1j * math.pi), np.exp(1j * math.pi)])
    np.testing.assert_allclose(u.entries, expected, atol=1e-12)
    np.testing.assert_allclose(u.entries, -np.eye(2), atol=1e-12)


def test_evolution_output_is_unitary_for_random_hamiltonians(rng):
    for _ in range(100):
        h = Hamiltonian(entries=random_hermitian(rng, 4))
        u = evolve_hamiltonian(h, t=float(rng.uniform(-5, 5)))
        defect = np.abs(u.entries.conj().T @ u.entries - np.eye(4)).max()
        assert defect < TOL.unitary


def test_evolution_composes_over_time(rng):
    for _ in range(5):
        h = Hamiltonian(entries=random_hermitian(rng, 4))
        t1, t2 = rng.uniform(0.1, 2.0, size=2)
        whole = evolve_hamiltonian(h, t1 + t2).entries
        split = evolve_hamiltonian(h, t1).entries @ evolve_hamiltonian(h, t2).entries
        assert np.abs(whole - split).max() < TOL.evolution_compose


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


def test_incomplete_measurement_set_rejected():
    op = MeasurementOperator(index=0, matrix=np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        MeasurementSet(operators=(op,))


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
    eye = np.eye(2**k)
    dense = MeasurementSet(
        operators=tuple(MeasurementOperator(m, np.diag(eye[m])) for m in range(2**k))
    )
    cbs = MeasurementSet.cbs(k)
    values = tuple(float(v) for v in rng.uniform(0.0, 3.0, size=2**k))
    for _ in range(5):
        s = random_state(rng, k)
        np.testing.assert_allclose(
            outcome_probabilities(cbs, s).probabilities,
            outcome_probabilities(dense, s).probabilities,
            rtol=0, atol=1e-12,
        )
        for seed in range(10):
            outcome, post = sample_measurement(cbs, s, rng_seed=seed)
            ref_outcome, ref_post = sample_measurement(dense, s, rng_seed=seed)
            assert outcome == ref_outcome
            np.testing.assert_allclose(post.amplitudes, ref_post.amplitudes, rtol=0, atol=1e-12)
        for power in (1, 2, 3):
            got = observable_expectation(Observable(values, cbs), s, power)
            ref = observable_expectation(Observable(values, dense), s, power)
            assert got == pytest.approx(ref, rel=0, abs=1e-12)


def test_cbs_measurement_never_builds_projectors(rng):
    mset = MeasurementSet.cbs(10)
    assert len(mset) == mset.dim == 2**10
    outcome, post = sample_measurement(mset, random_state(rng, 10), rng_seed=5)
    assert abs(post.amplitudes[outcome]) == pytest.approx(1.0)
    assert "operators" not in vars(mset)


def test_sample_measurement_post_state_consistency(rng):
    s = random_state(rng, 2)
    mset = MeasurementSet.cbs(2)
    outcome, post = sample_measurement(mset, s, rng_seed=123)
    expected = collapse(mset.operators[outcome], s)
    np.testing.assert_allclose(post.amplitudes, expected.amplitudes)


# ---------------------------------------------------------------------------
# observables


def test_expectation_projector_weight(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    s = StateVector(num_qubits=1, amplitudes=v)
    obs = Observable(eigenvalues=(0.0, 1.0), set=MeasurementSet.cbs(1))
    assert observable_expectation(obs, s) == pytest.approx(abs(v[1]) ** 2)


def test_expectation_power_matches_matrix_square(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    s = StateVector(num_qubits=1, amplitudes=v)
    obs = Observable(eigenvalues=(2.0, 3.0), set=MeasurementSet.cbs(1))
    squared = obs.matrix() @ obs.matrix()
    oracle = np.vdot(v, squared @ v).real
    assert observable_expectation(obs, s, power=2) == pytest.approx(oracle, abs=1e-12)


def test_expectation_of_identity_observable_is_one(rng):
    s = random_state(rng, 1)
    obs = Observable(eigenvalues=(1.0, 1.0), set=MeasurementSet.cbs(1))
    for power in (1, 2, 5):
        assert observable_expectation(obs, s, power=power) == pytest.approx(1.0)


def test_expectation_rejects_bad_power(rng):
    obs = Observable(eigenvalues=(1.0, 1.0), set=MeasurementSet.cbs(1))
    with pytest.raises(ValueError):
        observable_expectation(obs, random_state(rng, 1), power=0)


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
