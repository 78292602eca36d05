import json

import numpy as np
import pytest

import qil.pipeline as pipeline
from qil.core import UnitaryMatrix
from qil.encodings import REGISTER_CAP, QuboState, qubit_budget
from qil.images import GrayImage, read_pgm, write_pgm
from qil.noise import StateNoiseConfig
from qil.pipeline import (
    REPRESENTATIONS,
    BudgetExceededError,
    ExperimentConfig,
    PipelineConfigError,
    TomographySettings,
    load_unitary_csv,
    register_cap,
    run_budget_report,
    run_pipeline,
    run_repr_compare,
    run_tomography_experiment,
    save_unitary_csv,
    tomography_register,
)
from qil.tomography import MAX_PROBE_QUBITS
from util import random_gray_image


@pytest.fixture
def image_path(tmp_path, rng):
    img = random_gray_image(rng, 3)
    path = tmp_path / "input.pgm"
    write_pgm(img, path)
    return path


def make_cfg(image_path, tmp_path, **kw):
    defaults = dict(
        representation="frqi",
        image_path=str(image_path),
        out_dir=str(tmp_path / "out"),
        shots=0,
        seed=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# single runs


def test_qubo_pipeline_is_error_free_at_any_budget(image_path, tmp_path):
    for shots, seed in ((0, 0), (17, 5), (10**4, 99)):
        cfg = make_cfg(
            image_path, tmp_path / f"{shots}_{seed}", representation="qubo",
            shots=shots, seed=seed,
        )
        run = run_pipeline(cfg)
        assert run.image_report.mse == 0.0
        assert run.image_report.psnr_db is None


def test_neqr_exact_pipeline_round_trips(image_path, tmp_path):
    run = run_pipeline(make_cfg(image_path, tmp_path, representation="neqr"))
    assert run.image_report.mse == 0.0


def test_frqi_finite_shots_pipeline_is_noisy(image_path, tmp_path):
    cfg = make_cfg(image_path, tmp_path, shots=10**4, seed=2)
    run = run_pipeline(cfg)
    assert run.image_report.mse > 0.0
    grid = np.loadtxt(tmp_path / "out" / "noise_map.csv", delimiter=",", dtype=int)
    assert (grid != 0).mean() > 0.5


def test_frqi_exact_identity_has_zero_error(image_path, tmp_path):
    run = run_pipeline(make_cfg(image_path, tmp_path))
    assert run.image_report.mse == 0.0
    assert run.coverage.complete


def test_run_outputs_exist_and_report_is_structured(image_path, tmp_path):
    cfg = make_cfg(
        image_path, tmp_path, shots=500, seed=3,
        tomography=TomographySettings(num_qubits=2, shots_per_observable=50),
    )
    run_pipeline(cfg)
    out = tmp_path / "out"
    for name in (
        "decoded.pgm", "metrics.csv", "noise_map.csv", "noise_map.pgm",
        "report.json", "tomo_real.csv", "tomo_imag.csv", "tomography.txt",
    ):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["representation"] == "frqi"
    assert set(report["timings"]) >= {"load", "encode", "decode", "metrics"}
    assert all(t >= 0 for t in report["timings"].values())


def test_repeated_runs_are_byte_identical(image_path, tmp_path):
    cfg_a = make_cfg(image_path, tmp_path / "a", shots=2000, seed=11)
    cfg_b = make_cfg(image_path, tmp_path / "b", shots=2000, seed=11)
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)
    for name in ("decoded.pgm", "metrics.csv", "noise_map.csv"):
        a = (tmp_path / "a" / "out" / name).read_bytes()
        b = (tmp_path / "b" / "out" / name).read_bytes()
        assert a == b, name


def test_amplitude_noise_breaks_exact_frqi(image_path, tmp_path):
    noise = StateNoiseConfig(mode="amplitude-perturbation", magnitude=0.02)
    run = run_pipeline(make_cfg(image_path, tmp_path, state_noise=noise))
    assert run.image_report.mse > 0.0


def test_classical_noise_applies_before_encoding(image_path, tmp_path):
    noise = StateNoiseConfig(mode="classical-pre-encode", magnitude=0.2)
    run = run_pipeline(
        make_cfg(image_path, tmp_path, representation="qubo", state_noise=noise)
    )
    # decode is exact on the noisy plane, so all error is the injected noise
    assert run.image_report.mse > 0.0


def test_noise_seed_is_derived_from_the_run_seed(image_path, tmp_path):
    streams = np.random.SeedSequence(6).generate_state(2)
    for stream, mode in ((0, "classical-pre-encode"), (1, "amplitude-perturbation")):
        noise = StateNoiseConfig(mode=mode, magnitude=0.05)
        run = run_pipeline(make_cfg(image_path, tmp_path / mode, seed=6, state_noise=noise))
        assert run.config["state_noise"]["rng_seed"] == int(streams[stream])


def test_qubo_rejects_amplitude_noise(image_path, tmp_path):
    noise = StateNoiseConfig(mode="amplitude-perturbation", magnitude=0.1)
    with pytest.raises(PipelineConfigError):
        make_cfg(image_path, tmp_path, representation="qubo", state_noise=noise)


def test_qubo_rejects_unitary(image_path, tmp_path):
    with pytest.raises(PipelineConfigError):
        make_cfg(image_path, tmp_path, representation="qubo", unitary_path="u.csv")


# ---------------------------------------------------------------------------
# the representation table


def test_table_order_is_the_compare_and_cli_order():
    assert list(REPRESENTATIONS) == ["frqi", "neqr", "qubo"]


def test_stages_look_encoders_and_decoders_up_at_run_time(image_path, tmp_path, monkeypatch):
    # a wrapper set on the module attribute (as a tracer does) must see every call
    calls = []
    for name in ("frqi_encode", "frqi_decode_register", "qubo_decode"):
        def spy(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            calls.append((_name, args, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, spy)
    run_pipeline(make_cfg(image_path, tmp_path / "frqi", shots=100))
    run_pipeline(make_cfg(image_path, tmp_path / "qubo", representation="qubo"))
    assert [name for name, _, _ in calls] == ["frqi_encode", "frqi_decode_register", "qubo_decode"]
    _, args, kwargs = calls[1]
    assert args[1] == 3 and kwargs["shots"] == 100  # n positional, shots by keyword


def test_unknown_representation_is_a_config_error(image_path, tmp_path):
    img = read_pgm(image_path)
    with pytest.raises(PipelineConfigError, match="bogus"):
        make_cfg(image_path, tmp_path, representation="bogus")
    with pytest.raises(PipelineConfigError, match="bogus"):
        tomography_register("bogus", img, 2)
    with pytest.raises(PipelineConfigError, match="bogus"):
        run_tomography_experiment("bogus", img, 2, 0, 0)


@pytest.mark.parametrize("name", list(REPRESENTATIONS))
def test_budget_is_the_size_of_the_encoded_register(name, rng):
    for n, q in ((0, 1), (1, 3), (3, 8)):
        img = random_gray_image(rng, n, q)
        register = REPRESENTATIONS[name].encode(img, q - 1, REGISTER_CAP)
        if isinstance(register, QuboState):
            size = register.qubits[..., 0].size
        else:
            size = register.num_qubits
        assert qubit_budget(name, n, q) == size


# ---------------------------------------------------------------------------
# unitary algorithm stage


def test_identity_unitary_matches_bare_run(image_path, tmp_path):
    u_path = tmp_path / "identity.csv"
    save_unitary_csv(UnitaryMatrix.identity(2**7), u_path)
    bare = run_pipeline(make_cfg(image_path, tmp_path / "bare", shots=300, seed=7))
    with_u = run_pipeline(
        make_cfg(image_path, tmp_path / "with", shots=300, seed=7, unitary_path=str(u_path))
    )
    np.testing.assert_array_equal(
        read_pgm(tmp_path / "bare" / "out" / "decoded.pgm").pixels,
        read_pgm(tmp_path / "with" / "out" / "decoded.pgm").pixels,
    )
    assert bare.image_report.mse == with_u.image_report.mse


def test_unitary_dimension_mismatch_raises(image_path, tmp_path):
    u_path = tmp_path / "small.csv"
    save_unitary_csv(UnitaryMatrix.identity(2), u_path)
    with pytest.raises(ValueError):
        run_pipeline(make_cfg(image_path, tmp_path, unitary_path=str(u_path)))


def test_unitary_csv_round_trip(tmp_path, rng):
    from util import random_unitary

    u = UnitaryMatrix(random_unitary(rng, 4))
    path = tmp_path / "u.csv"
    save_unitary_csv(u, path)
    back = load_unitary_csv(path)
    np.testing.assert_allclose(back.entries, u.entries, atol=1e-15)


def test_unitary_csv_rejects_odd_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.0,0.0\n")
    with pytest.raises(ValueError):
        load_unitary_csv(path)


# ---------------------------------------------------------------------------
# register cap


def test_register_cap_env_override(monkeypatch, image_path, tmp_path):
    monkeypatch.setenv("QIL_MAX_QUBITS", "5")
    assert register_cap() == 5
    with pytest.raises(BudgetExceededError):
        run_pipeline(make_cfg(image_path, tmp_path))  # 8x8 frqi needs 7 qubits
    monkeypatch.setenv("QIL_MAX_QUBITS", "not-a-number")
    with pytest.raises(PipelineConfigError):
        register_cap()


def test_neqr_tomography_honours_the_register_cap(rng, tmp_path):
    # 64x64 at q=9 needs 21 qubits, one above the default cap
    path = tmp_path / "q9.pgm"
    write_pgm(GrayImage(pixels=rng.integers(0, 2**9, size=(64, 64)), q=9), path)
    cfg = make_cfg(
        path, tmp_path, representation="neqr", max_qubits=21,
        tomography=TomographySettings(1, 0),
    )
    run = run_pipeline(cfg)
    assert run.image_report.mse == 0.0
    assert run.matrix_report is not None


# ---------------------------------------------------------------------------
# tomography probes


def test_tomography_register_shapes(image_path):
    img = read_pgm(image_path)
    for rep, expected_design in (("frqi", 16), ("neqr", 16), ("qubo", 4)):
        rho, design = tomography_register(rep, img, 2)
        assert rho.dim == 4
        assert len(design) == expected_design


def test_qubo_tomography_is_exact_even_with_shots(image_path):
    img = read_pgm(image_path)
    for seed in range(5):
        est, ideal, report = run_tomography_experiment("qubo", img, 2, 64, seed)
        assert np.abs(est.entries - ideal.entries).max() < 1e-12
        assert report.max_percentage_error_real == pytest.approx(0.0, abs=1e-12)


def test_frqi_tomography_fluctuates_with_shots(image_path):
    img = read_pgm(image_path)
    errors = set()
    for seed in range(5):
        est, ideal, _ = run_tomography_experiment("frqi", img, 2, 64, seed)
        errors.add(float(np.abs(est.entries - ideal.entries).max()))
    assert len(errors) > 1
    assert max(errors) > 0


def test_exact_tomography_recovers_every_representation(image_path):
    img = read_pgm(image_path)
    for rep in ("frqi", "neqr", "qubo"):
        est, ideal, report = run_tomography_experiment(rep, img, 2, 0, 0)
        assert np.abs(est.entries - ideal.entries).max() < 1e-10


def test_tomography_settings_validation():
    for k in (0, MAX_PROBE_QUBITS + 1):
        with pytest.raises(PipelineConfigError):
            TomographySettings(num_qubits=k, shots_per_observable=10)
    with pytest.raises(PipelineConfigError):
        TomographySettings(num_qubits=2, shots_per_observable=-1)


# ---------------------------------------------------------------------------
# compare and budget drivers


def test_compare_emits_tables_and_ordering(image_path, tmp_path):
    out = tmp_path / "cmp"
    compare_path = run_repr_compare(image_path, shots=20000, seed=3, out_dir=out)
    lines = compare_path.read_text().splitlines()
    assert len(lines) == 4  # header + one row per representation
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    header = lines[0].split(",")
    mse = {rep: float(rows[rep][header.index("mse")]) for rep in rows}
    missing = {rep: int(rows[rep][header.index("positions_missing")]) for rep in rows}
    assert missing == {"frqi": 0, "neqr": 0, "qubo": 0}
    assert mse["frqi"] > 0.0
    assert mse["neqr"] == 0.0 and mse["qubo"] == 0.0
    sweep = (out / "qubit_sweep.csv").read_text().splitlines()
    assert len(sweep) == 1 + 3 * 3
    for rep in ("frqi", "neqr", "qubo"):
        assert (out / rep / "report.json").exists()


def test_compare_is_deterministic(image_path, tmp_path):
    a = run_repr_compare(image_path, shots=1000, seed=8, out_dir=tmp_path / "a")
    b = run_repr_compare(image_path, shots=1000, seed=8, out_dir=tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a" / "qubit_sweep.csv").read_bytes() == (
        tmp_path / "b" / "qubit_sweep.csv"
    ).read_bytes()


def test_budget_report_values(tmp_path):
    path = run_budget_report(range(0, 4), q=8, out_dir=tmp_path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 12
    for row in rows:
        n = int(row["n"])
        expected = {"frqi": 2 * n + 1, "neqr": 8 + 2 * n, "qubo": 4**n}[row["representation"]]
        assert int(row["qubits"]) == expected
        assert float(row["encode_seconds"]) >= 0.0


def test_budget_timing_grows_with_image_size(tmp_path):
    path = run_budget_report((0, 6), q=8, out_dir=tmp_path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    neqr = {int(r["n"]): float(r["encode_seconds"]) for r in rows if r["representation"] == "neqr"}
    # a 2^20 amplitude register costs measurably more than a 2^8 one
    assert neqr[6] > neqr[0]
