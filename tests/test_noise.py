import math

import numpy as np
import pytest
from hypothesis import given, settings

from qil.core import MeasurementSet, Qubit, StateVector, collapse
from qil.noise import (
    StateNoiseConfig,
    UndefinedResidueError,
    decompose_and_verify,
    inject_state_noise,
    linear_term,
    measurement_residue,
)
from util import qubit_strategy, random_qubit, random_state

INV_SQRT2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# linear term


def test_linear_term_generic(rng):
    q = random_qubit(rng)
    np.testing.assert_array_equal(linear_term(0, q), [q.alpha / 2, 0.0])
    np.testing.assert_array_equal(linear_term(1, q), [0.0, q.beta / 2])


def test_linear_term_basis_cases():
    np.testing.assert_array_equal(linear_term(0, Qubit(1.0, 0.0)), [0.5, 0.0])
    np.testing.assert_array_equal(linear_term(0, Qubit(0.0, 1.0)), [0.0, 0.0])


# ---------------------------------------------------------------------------
# residue


def test_residue_at_full_amplitude():
    res = measurement_residue(0, Qubit(1.0, 0.0))
    assert res.coefficient == pytest.approx(0.5)
    res1 = measurement_residue(1, Qubit(0.0, 1.0))
    assert res1.coefficient == pytest.approx(0.5)


def test_residue_at_equal_superposition():
    # (1/sqrt2)(2 - 1/sqrt2) / (2/sqrt2) = 1 - 1/(2 sqrt2)
    res = measurement_residue(0, Qubit(INV_SQRT2, INV_SQRT2))
    assert res.coefficient == pytest.approx(0.6464466094067263, abs=1e-15)
    # linear part plus residue reproduces the normalized projection alpha/|alpha|
    assert INV_SQRT2 / 2 + res.coefficient.real == pytest.approx(1.0, abs=1e-15)


def test_residue_zero_amplitude_raises():
    with pytest.raises(UndefinedResidueError):
        measurement_residue(0, Qubit(0.0, 1.0))
    with pytest.raises(UndefinedResidueError):
        measurement_residue(1, Qubit(1.0, 0.0))


def test_residue_supported_on_own_basis_state(rng):
    for _ in range(20):
        q = random_qubit(rng)
        for m in (0, 1):
            assert measurement_residue(m, q).vector[1 - m] == 0.0


def test_residue_dominates_vanishing_amplitudes():
    # the noise term grows as the measured amplitude shrinks, and its ratio
    # to the linear term (2 - |a|) / |a| diverges: the noise floor swamps
    # the signal for weakly weighted outcomes
    mags = [0.5, 0.1, 0.01, 0.001]
    coeffs, ratios = [], []
    for a in mags:
        b = math.sqrt(1 - a * a)
        res = abs(measurement_residue(0, Qubit(a, b)).coefficient)
        coeffs.append(res)
        ratios.append(res / abs(linear_term(0, Qubit(a, b))[0]))
    assert coeffs == sorted(coeffs)
    assert ratios == sorted(ratios)
    assert ratios[-1] > 1000


# ---------------------------------------------------------------------------
# decomposition identity


def test_decomposition_on_cbs_has_no_disturbance():
    d = decompose_and_verify(0, Qubit(1.0, 0.0))
    np.testing.assert_array_equal(d.exact.amplitudes, [1.0, 0.0])
    assert d.defect == 0.0
    # both halves carry weight 1/2 and sum to the undisturbed state
    assert d.linear[0] == pytest.approx(0.5)
    assert d.residue.coefficient == pytest.approx(0.5)


def test_decomposition_known_qubit():
    d = decompose_and_verify(1, Qubit(0.6, 0.8))
    np.testing.assert_allclose(d.linear, [0.0, 0.4], atol=1e-15)
    np.testing.assert_allclose(d.residue.vector, [0.0, 0.6], atol=1e-15)
    np.testing.assert_allclose(d.exact.amplitudes, [0.0, 1.0], atol=1e-15)
    assert d.defect < 1e-15


def test_decomposition_identity_over_random_qubits(rng):
    for _ in range(1000):
        q = random_qubit(rng)
        for m in (0, 1):
            if abs((q.alpha, q.beta)[m]) == 0.0:
                continue
            d = decompose_and_verify(m, q)
            assert d.defect < 1e-12
            dense = collapse(MeasurementSet.cbs(1).operators[m], StateVector.of_qubit(q))
            np.testing.assert_allclose(d.exact.amplitudes, dense.amplitudes, rtol=0, atol=1e-12)


@settings(max_examples=200)
@given(qubit_strategy(min_component=1e-6))
def test_decomposition_identity_property(q):
    for m in (0, 1):
        assert decompose_and_verify(m, q).defect < 1e-12


# ---------------------------------------------------------------------------
# state noise injection


def test_zero_magnitude_noise_is_identity(rng):
    s = random_state(rng, 3)
    cfg = StateNoiseConfig(mode="amplitude-perturbation", magnitude=0.0)
    assert inject_state_noise(s, cfg, seed=1) is s


def test_classical_mode_is_noop_at_state_level(rng):
    s = random_state(rng, 2)
    cfg = StateNoiseConfig(mode="classical-pre-encode", magnitude=0.3)
    assert inject_state_noise(s, cfg, seed=1) is s


def test_noise_renormalizes_and_reduces_fidelity(rng):
    s = random_state(rng, 3)
    cfg = StateNoiseConfig(mode="amplitude-perturbation", magnitude=0.01)
    out = inject_state_noise(s, cfg, seed=7)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
    fidelity = abs(np.vdot(out.amplitudes, s.amplitudes)) ** 2
    assert fidelity < 1.0


def test_noise_is_deterministic_per_seed(rng):
    s = random_state(rng, 2)
    cfg = StateNoiseConfig(mode="amplitude-perturbation", magnitude=0.05)
    a = inject_state_noise(s, cfg, seed=99)
    b = inject_state_noise(s, cfg, seed=99)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        StateNoiseConfig(mode="other", magnitude=0.1)
    with pytest.raises(ValueError):
        StateNoiseConfig(mode="amplitude-perturbation", magnitude=-0.1)
