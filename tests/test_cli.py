import json

import numpy as np
import pytest

from qil.cli import main
from qil.images import write_pgm
from util import random_gray_image


@pytest.fixture
def image_path(tmp_path, rng):
    path = tmp_path / "img.pgm"
    write_pgm(random_gray_image(rng, 2), path)
    return str(path)


def test_run_subcommand(image_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "run", "--image", image_path, "--repr", "neqr",
        "--shots", "2000", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "decoded.pgm").exists()
    assert "mse=0.0" in capsys.readouterr().out


def test_run_with_noise_and_tomography(image_path, tmp_path):
    out = tmp_path / "noisy"
    rc = main([
        "run", "--image", image_path, "--repr", "frqi", "--shots", "500",
        "--noise-mag", "0.01", "--noise-mode", "amplitude",
        "--tomo-qubits", "2", "--tomo-shots", "40",
        "--seed", "9", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["state_noise"]["mode"] == "amplitude-perturbation"
    assert (out / "tomo_real.csv").exists()


def test_compare_subcommand(image_path, tmp_path):
    out = tmp_path / "cmp"
    rc = main([
        "compare", "--image", image_path, "--shots", "4000", "--seed", "1",
        "--out", str(out),
    ])
    assert rc == 0
    assert (out / "compare.csv").exists()
    assert (out / "qubit_sweep.csv").exists()


def test_budget_subcommand(tmp_path):
    out = tmp_path / "bud"
    rc = main(["budget", "--n-min", "0", "--n-max", "2", "--q", "8", "--out", str(out)])
    assert rc == 0
    lines = (out / "budget.csv").read_text().splitlines()
    assert len(lines) == 1 + 9


def test_tomography_subcommand(image_path, tmp_path, capsys):
    out = tmp_path / "tomo"
    rc = main([
        "tomography", "--image", image_path, "--repr", "qubo",
        "--qubits", "2", "--shots", "32", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    assert "physical: true" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["matrix_error"]["max_percentage_error_real"] == pytest.approx(0.0, abs=1e-12)
    grid = np.loadtxt(out / "tomo_real.csv", delimiter=",")
    assert grid.shape == (4, 4)


def test_missing_required_argument_exits():
    with pytest.raises(SystemExit):
        main(["run", "--repr", "frqi"])


def test_library_value_error_exits_with_message(image_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "run", "--image", image_path, "--repr", "frqi", "--shots", "-3",
            "--out", str(tmp_path / "neg"),
        ])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("qil: error: shots must be nonnegative")


def test_missing_image_file_exits_with_message(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "run", "--image", str(tmp_path / "absent.pgm"), "--repr", "frqi",
            "--out", str(tmp_path / "out"),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("qil: error: ") and "absent.pgm" in err


@pytest.mark.parametrize("qubits", ["0", "9"])
def test_tomography_probe_size_out_of_range_exits(image_path, tmp_path, capsys, qubits):
    with pytest.raises(SystemExit) as exc:
        main([
            "tomography", "--image", image_path, "--repr", "neqr",
            "--qubits", qubits, "--out", str(tmp_path / "tomo"),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("qil: error: tomography qubits must be between 1 and 8")


def test_compare_rejects_empty_sweep_before_any_run(image_path, tmp_path, capsys):
    out = tmp_path / "cmp"
    with pytest.raises(SystemExit) as exc:
        main([
            "compare", "--image", image_path, "--sweep-max-qubits", "0", "--out", str(out),
        ])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("qil: error: sweep_max_qubits must be between")
    assert not out.exists()


@pytest.mark.parametrize("rep", ["frqi", "neqr"])
def test_plane_rejected_outside_qubo(image_path, tmp_path, capsys, rep):
    out = tmp_path / "plane"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--image", image_path, "--repr", rep, "--plane", "99", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"qil: error: {rep} encodes every bit plane")
    assert not out.exists()


def test_tomo_shots_without_tomo_qubits_exits(image_path, tmp_path, capsys):
    out = tmp_path / "tomo"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--image", image_path, "--repr", "neqr", "--tomo-shots", "50",
              "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("qil: error: --tomo-shots needs --tomo-qubits")
    assert not out.exists()
