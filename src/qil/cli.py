"""Command-line entry points: run, compare, budget, tomography."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .metrics import matrix_report_json
from .noise import StateNoiseConfig
from .pipeline import (
    REPRESENTATIONS,
    ExperimentConfig,
    TomographySettings,
    register_cap,
    run_budget_report,
    run_pipeline,
    run_repr_compare,
    run_tomography_experiment,
    write_tomography,
    _load_image,
)
from .tomography import purity

_NOISE_MODES = {"amplitude": "amplitude-perturbation", "classical": "classical-pre-encode"}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image", required=True, help="input PGM (P2 or P5)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--q", type=int, default=None, help="override bit depth (default: from PGM)")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qil",
        description="Quantum-image encoding, measurement, and tomography experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one encode/measure/decode pipeline")
    _add_common(run_p)
    run_p.add_argument("--repr", required=True, choices=REPRESENTATIONS)
    run_p.add_argument("--shots", type=int, default=0, help="register measurements, 0 = exact")
    run_p.add_argument("--plane", type=int, default=None, help="qubo bit plane (default MSB)")
    run_p.add_argument("--noise-mag", type=float, default=0.0, help="state-noise magnitude")
    run_p.add_argument("--noise-mode", choices=sorted(_NOISE_MODES), default="amplitude")
    run_p.add_argument("--unitary", default=None, help="algorithm matrix CSV (re,im cells)")
    run_p.add_argument("--tomo-qubits", type=int, default=None)
    run_p.add_argument("--tomo-shots", type=int, default=None, help="per observable, 0 = exact")

    cmp_p = sub.add_parser("compare", help="run all three representations side by side")
    _add_common(cmp_p)
    cmp_p.add_argument("--shots", type=int, default=0)
    cmp_p.add_argument("--tomo-qubits", type=int, default=2)
    cmp_p.add_argument("--tomo-shots", type=int, default=100)
    cmp_p.add_argument("--sweep-max-qubits", type=int, default=3)

    bud_p = sub.add_parser("budget", help="qubit budgets and encode timings")
    bud_p.add_argument("--n-min", type=int, default=0)
    bud_p.add_argument("--n-max", type=int, default=6)
    bud_p.add_argument("--q", type=int, default=8)
    bud_p.add_argument("--seed", type=int, default=0)
    bud_p.add_argument("--out", required=True)

    tomo_p = sub.add_parser("tomography", help="tomography of a representation's probe register")
    _add_common(tomo_p)
    tomo_p.add_argument("--repr", required=True, choices=REPRESENTATIONS)
    tomo_p.add_argument("--qubits", type=int, default=2)
    tomo_p.add_argument("--shots", type=int, default=0, help="per observable, 0 = exact")
    return parser


def _cmd_run(args) -> int:
    noise = None
    if args.noise_mag > 0.0:
        noise = StateNoiseConfig(mode=_NOISE_MODES[args.noise_mode], magnitude=args.noise_mag)
    if args.tomo_shots is not None and args.tomo_qubits is None:
        raise ValueError("--tomo-shots needs --tomo-qubits")
    tomo = None
    if args.tomo_qubits is not None:
        tomo = TomographySettings(
            num_qubits=args.tomo_qubits,
            shots_per_observable=0 if args.tomo_shots is None else args.tomo_shots,
        )
    cfg = ExperimentConfig(
        representation=args.repr,
        image_path=args.image,
        out_dir=args.out,
        shots=args.shots,
        seed=args.seed,
        q=args.q,
        plane=args.plane,
        unitary_path=args.unitary,
        state_noise=noise,
        tomography=tomo,
    )
    run = run_pipeline(cfg)
    print(f"decoded image: {run.decoded_path}")
    print(f"mae={run.image_report.mae!r} mse={run.image_report.mse!r} "
          f"psnr={run.image_report.psnr_display}")
    if len(run.coverage.missing):
        print(f"warning: {len(run.coverage.missing)} positions never observed")
    print(f"report: {Path(cfg.out_dir) / 'report.json'}")
    return 0


def _cmd_compare(args) -> int:
    path = run_repr_compare(
        args.image,
        shots=args.shots,
        seed=args.seed,
        out_dir=args.out,
        q=args.q,
        tomo_qubits=args.tomo_qubits,
        tomo_shots=args.tomo_shots,
        sweep_max_qubits=args.sweep_max_qubits,
    )
    print(f"comparison table: {path}")
    print(f"qubit sweep: {Path(args.out) / 'qubit_sweep.csv'}")
    return 0


def _cmd_budget(args) -> int:
    path = run_budget_report(
        range(args.n_min, args.n_max + 1), q=args.q, out_dir=args.out, seed=args.seed
    )
    print(f"budget table: {path}")
    return 0


def _cmd_tomography(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    img = _load_image(args.image, args.q)
    est, ideal, report = run_tomography_experiment(
        args.repr, img, args.qubits, args.shots, args.seed, register_cap()
    )
    write_tomography(est, ideal, out)
    summary = {
        "representation": args.repr,
        "num_qubits": args.qubits,
        "shots_per_observable": args.shots,
        "seed": args.seed,
        "purity": purity(est),
        "physical": est.physical,
        "matrix_error": matrix_report_json(report),
    }
    (out / "report.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print((out / "tomography.txt").read_text(), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "budget": _cmd_budget,
        "tomography": _cmd_tomography,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
