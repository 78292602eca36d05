import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qil.core import StateVector
from qil.encodings import (
    CbsViolationError,
    NotNeqrStateError,
    QuboState,
    RegisterTooLargeError,
    frqi_decode,
    frqi_encode,
    gray_to_theta,
    neqr_decode,
    neqr_decode_register,
    neqr_encode,
    qubit_budget,
    qubo_decode,
    qubo_encode,
    sample_histogram,
)
from qil.images import GrayImage
from qil.noise import StateNoiseConfig, inject_state_noise
from util import neqr_shot_decode_reference, random_gray_image


# ---------------------------------------------------------------------------
# gray <-> angle


def test_gray_to_theta_endpoints():
    assert gray_to_theta(0, 8) == 0.0
    assert gray_to_theta(255, 8) == pytest.approx(math.pi / 2)
    assert gray_to_theta(1, 1) == pytest.approx(math.pi / 2)


def test_gray_to_theta_monotone():
    thetas = [gray_to_theta(g, 8) for g in range(256)]
    assert thetas == sorted(thetas)


def test_gray_to_theta_range_check():
    with pytest.raises(ValueError):
        gray_to_theta(256, 8)
    with pytest.raises(ValueError):
        gray_to_theta(-1, 8)


@given(st.integers(min_value=0, max_value=255))
def test_gray_round_trip(g):
    # exact frqi decoding rounds the stored angle back to the gray level
    decoded, _ = frqi_decode(frqi_encode(GrayImage(pixels=np.array([[g]]), q=8)))
    assert decoded.pixels[0, 0] == g


# ---------------------------------------------------------------------------
# FRQI


def test_frqi_all_zero_image_structure():
    img = GrayImage(pixels=np.zeros((2, 2), dtype=int), q=8)
    fs = frqi_encode(img)
    np.testing.assert_allclose(fs.state.amplitudes, [0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0], atol=1e-15)


def test_frqi_qubit_count_and_norm(rng):
    img = random_gray_image(rng, 2)
    fs = frqi_encode(img)
    assert fs.state.num_qubits == 5
    assert abs(np.linalg.norm(fs.state.amplitudes) - 1.0) < 1e-12


def test_frqi_exact_round_trip(rng):
    for _ in range(5):
        img = random_gray_image(rng, 3)
        decoded, report = frqi_decode(frqi_encode(img))
        np.testing.assert_array_equal(decoded.pixels, img.pixels)
        assert report.complete


def test_frqi_shot_error_shrinks_with_budget(rng):
    img = random_gray_image(rng, 2)
    fs = frqi_encode(img)
    mse = {}
    for shots in (10**3, 10**5):
        errs = []
        for seed in range(20):
            decoded, _ = frqi_decode(fs, shots=shots, seed=seed)
            errs.append(((decoded.pixels - img.pixels) ** 2).mean())
        mse[shots] = np.mean(errs)
    assert mse[10**5] < mse[10**3]


def test_frqi_uncovered_positions_are_reported_and_zeroed(rng):
    img = random_gray_image(rng, 2)
    img = GrayImage(pixels=np.maximum(img.pixels, 1), q=8)  # keep 0 out of the data
    decoded, report = frqi_decode(frqi_encode(img), shots=3, seed=11)
    assert len(report.missing) == report.total_positions - report.observed_positions > 0
    assert not report.complete
    for y, x in report.missing:
        assert decoded.pixels[y, x] == 0


# ---------------------------------------------------------------------------
# NEQR


def test_neqr_code_placement():
    img = GrayImage(pixels=np.array([[100, 0], [0, 0]]), q=8)
    ns = neqr_encode(img)
    npos = 4
    # gray register in the top qubits: index = code * positions + position
    assert ns.state.amplitudes[100 * npos + 0] == pytest.approx(0.5)
    assert bin(100) == "0b1100100"


def test_neqr_qubit_count_and_weights(rng):
    img = random_gray_image(rng, 1)
    ns = neqr_encode(img)
    assert ns.state.num_qubits == 10
    nonzero = ns.state.amplitudes[np.abs(ns.state.amplitudes) > 0]
    np.testing.assert_array_equal(nonzero, np.full(4, 0.5))


def test_neqr_exact_round_trip(rng):
    for _ in range(5):
        img = random_gray_image(rng, 2)
        decoded, report = neqr_decode(neqr_encode(img))
        np.testing.assert_array_equal(decoded.pixels, img.pixels)
        assert report.complete


def test_neqr_full_coverage_is_exact(rng):
    img = random_gray_image(rng, 2)
    decoded, report = neqr_decode(neqr_encode(img), shots=4000, seed=0)
    assert report.complete
    np.testing.assert_array_equal(decoded.pixels, img.pixels)


def test_neqr_partial_coverage_reports_missing(rng):
    img = random_gray_image(rng, 2)
    img = GrayImage(pixels=np.maximum(img.pixels, 1), q=8)
    decoded, report = neqr_decode(neqr_encode(img), shots=3, seed=2)
    assert len(report.missing) == report.total_positions - report.observed_positions > 0
    for y, x in report.missing:
        assert decoded.pixels[y, x] == 0


def test_neqr_shot_decode_matches_per_outcome_reference(rng):
    # few shots over noisy registers with few codes: gaps and tied top counts
    ties = 0
    for seed in range(200):
        n, q = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        noise = StateNoiseConfig("amplitude-perturbation", float(rng.uniform(0.05, 0.3)))
        state = inject_state_noise(neqr_encode(random_gray_image(rng, n, q)).state, noise, seed)
        shots = int(rng.integers(1, 61))
        decoded, report = neqr_decode_register(state, n, q, shots=shots, seed=seed)
        hist = sample_histogram(state, shots, seed)
        pixels, missing = neqr_shot_decode_reference(hist, n)
        np.testing.assert_array_equal(decoded.pixels, pixels)
        assert [tuple(yx) for yx in report.missing.tolist()] == missing
        pos = hist.outcomes % 4**n
        top = np.zeros(4**n, dtype=np.int64)
        np.maximum.at(top, pos, hist.counts)
        ties += int((np.bincount(pos[hist.counts == top[pos]], minlength=4**n) > 1).sum())
    assert ties > 0


def test_neqr_rejects_superposed_codes():
    # indices (code*4 + pos): position 0 carries codes 0 and 1, position 3 none
    amps = np.zeros(2**10, dtype=complex)
    amps[[0, 4, 9, 14]] = 0.5
    state = StateVector(num_qubits=10, amplitudes=amps)
    with pytest.raises(NotNeqrStateError):
        neqr_decode_register(state, n=1, q=8)


# ---------------------------------------------------------------------------
# QuBo


def test_qubo_msb_mapping():
    img = GrayImage(pixels=np.array([[200, 100], [128, 0]]), q=8)
    qs = qubo_encode(img)
    np.testing.assert_array_equal(qs.qubits[0, 0], [0, 1])  # 200 >= 128
    np.testing.assert_array_equal(qs.qubits[0, 1], [1, 0])  # 100 < 128
    np.testing.assert_array_equal(qs.qubits[1, 0], [0, 1])
    np.testing.assert_array_equal(qs.qubits[1, 1], [1, 0])


def test_qubo_all_zero_image():
    img = GrayImage(pixels=np.zeros((2, 2), dtype=int), q=8)
    qs = qubo_encode(img)
    assert (qs.qubits[..., 0] == 1).all()
    assert (qs.qubits[..., 1] == 0).all()


def test_qubo_round_trip_bit_exact(rng):
    img = random_gray_image(rng, 3)
    decoded = qubo_decode(qubo_encode(img))
    np.testing.assert_array_equal(decoded.bits, (img.pixels >> 7) & 1)


def test_qubo_decode_idempotent(rng):
    qs = qubo_encode(random_gray_image(rng, 2))
    first = qubo_decode(qs)
    second = qubo_decode(qs)
    np.testing.assert_array_equal(first.bits, second.bits)


def test_qubo_rejects_superposition():
    s = 1 / math.sqrt(2)
    grid = np.zeros((1, 1, 2), dtype=complex)
    grid[0, 0] = [s, s]
    with pytest.raises(CbsViolationError):
        QuboState(n=0, qubits=grid)


# ---------------------------------------------------------------------------
# budgets and caps


@pytest.mark.parametrize(
    "rep,n,q,expected",
    [("frqi", 2, 8, 5), ("neqr", 2, 8, 12), ("qubo", 2, 8, 16)],
)
def test_budget_reference_values(rep, n, q, expected):
    assert qubit_budget(rep, n, q) == expected


@pytest.mark.parametrize("rep", ["FRQI", "Neqr", "bogus"])
def test_budget_rejects_unknown_scheme_names(rep):
    with pytest.raises(ValueError, match="unknown representation"):
        qubit_budget(rep, 3, 8)


def test_budget_formulas_over_grid():
    for n in range(7):
        for q in (1, 8):
            assert qubit_budget("frqi", n, q) == 2 * n + 1
            assert qubit_budget("neqr", n, q) == q + 2 * n
            assert qubit_budget("qubo", n, q) == 4**n


def test_register_cap_enforced(rng):
    img = random_gray_image(rng, 3)
    with pytest.raises(RegisterTooLargeError):
        neqr_encode(img, max_qubits=12)
    frqi_encode(img, max_qubits=12)  # 7 qubits, fits


# ---------------------------------------------------------------------------
# shot histograms


def test_histogram_counts_and_determinism(rng):
    s = StateVector.from_amplitudes([1 / math.sqrt(2), 1 / math.sqrt(2)])
    a = sample_histogram(s, shots=10**5, seed=40)
    b = sample_histogram(s, shots=10**5, seed=40)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.counts.sum() == 10**5
    np.testing.assert_array_equal(a.outcomes, [0, 1])
    freq0 = a.counts[0] / 10**5
    assert abs(freq0 - 0.5) < 3 * math.sqrt(0.25 / 10**5)


def test_histogram_never_hits_zero_probability_outcomes():
    s = StateVector.basis(2, 2)
    h = sample_histogram(s, shots=1000, seed=1)
    np.testing.assert_array_equal(h.outcomes, [2])
    np.testing.assert_array_equal(h.counts, [1000])


# ---------------------------------------------------------------------------
# representation ordering


def test_full_coverage_ordering(rng):
    img = random_gray_image(rng, 2)
    shots = 20000
    f_dec, f_cov = frqi_decode(frqi_encode(img), shots=shots, seed=5)
    n_dec, n_cov = neqr_decode(neqr_encode(img), shots=shots, seed=5)
    q_dec = qubo_decode(qubo_encode(img))
    assert f_cov.complete and n_cov.complete
    frqi_mse = ((f_dec.pixels - img.pixels) ** 2).mean()
    neqr_mse = ((n_dec.pixels - img.pixels) ** 2).mean()
    qubo_err = (q_dec.bits != (img.pixels >> 7) & 1).sum()
    assert frqi_mse > 0
    assert neqr_mse == 0
    assert qubo_err == 0
