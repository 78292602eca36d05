"""Benchmark of the qil lab: four workloads from shot readout to tomography.

Usage, from the root of a checkout:

    python3 qilbench/run.py --workload frqi-readout --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` wraps qil's functions from outside and reports per-layer
metrics instead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for people, plus the pinned environment. See
qilbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, here and in every
# set-up probe (they inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import STAGES, WORKLOADS, Stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
QIL_MODULES = ("cli", "pipeline", "images", "encodings", "noise", "core", "tomography",
               "metrics", "tolerances")
SETUP_PROBES = {"full": 9, "tiny": 2}
PROBE_TIMEOUT_S = 60
# at least this many ops per measured run, so that the tail percentile
# (ten ops beyond it) lies above the median: p56 or higher
MIN_OPS = 24

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

_SPAN_SECONDS = {  # per-layer metric -> span name whose total time it reports
    "encodings.sample_histogram_s": "encodings.sample_histogram",
    "encodings.encode_s": "encodings.encode",
    "images.read_pgm_s": "images.read_pgm",
    "images.write_pgm_s": "images.write_pgm",
    "metrics.save_noise_map_s": "metrics.save_noise_map",
    "metrics.image_error_s": "metrics.image_error",
    "metrics.matrix_error_s": "metrics.matrix_error",
    "noise.inject_state_noise_s": "noise.inject_state_noise",
    "noise.decompose_and_verify_s": "noise.decompose_and_verify",
    "tomography.design_build_s": "tomography.design_build",
    "tomography.simulate_frequencies_s": "tomography.simulate_frequencies",
    "tomography.linear_inversion_s": "tomography.linear_inversion",
    "core.cbs_build_s": "core.cbs",
    "core.sample_measurement_s": "core.sample_measurement",
    "core.reduced_density_matrix_s": "core.reduced_density_matrix",
}
_PER_OP_COUNTS = {  # per-layer metric -> tracer counter, divided by traced ops
    "images.bytes_written": "images.bytes_written",
    "tomography.design_build.calls": "tomography.design_build.calls",
    "tomography.observables": "tomography.observables",
    "core.sample_measurement.calls": "core.sample_measurement.calls",
    "noise.decompose_and_verify.calls": "noise.decompose_and_verify.calls",
}
_MEANS = {  # per-layer metric -> unit, mean over the calls that produced a sample
    "encodings.hist_support": "count",
    "encodings.coverage_ratio": "ratio",
    "encodings.register_bytes": "B",
    "tomography.physical_ratio": "ratio",
    "encodings.frqi_decode_n9_1e6_s": "s",
    "tomography.full_pauli4_build_s": "s",
    "core.cbs6_build_s": "s",
}
LAYERS = ("cli", "pipeline", "images", "encodings", "noise", "core", "tomography", "metrics")


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s/op" for layer in LAYERS}
    units.update({name: "s/op" for name in _SPAN_SECONDS})
    units["encodings.decode_self_s"] = "s/op"
    units.update({f"pipeline.stage.{stage}_s": "s/op" for stage in STAGES})
    units["pipeline.unstaged_s"] = "s/op"
    units["pipeline.report_bytes"] = "B/op"
    units.update({f"pipeline.stage_peak_mb.{stage}": "MB" for stage in STAGES})
    units.update({name: ("B/op" if "bytes" in name else "count/op") for name in _PER_OP_COUNTS})
    units.update(_MEANS)
    units["metrics.decode_mae"] = "gray"
    units["metrics.tomo_err_pct"] = "%"
    units["trace.overhead_s"] = "s/op"
    return units


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, or 'unknown'."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _filesystem(path: Path) -> str:
    """Type of the mount holding ``path``, from the longest matching mount point."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(work: Path) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "output_fs": _filesystem(work),
    }


# ---------------------------------------------------------------------------
# program loading and set-up


def import_qil() -> dict:
    """Import qil from this checkout's src/ only; never from an installed copy."""
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"qil.{name}") for name in QIL_MODULES}
    where = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"qil was imported from {where}, not from {SRC}")
    return modules


def make_workload(name: str, seed: int, scale: str, qil: dict):
    return WORKLOADS[name](qil, seed, scale == "tiny")


def setup_probe(args) -> int:
    """One cold set-up: interpreter start (paid by the caller), imports, inputs."""
    qil = import_qil()
    work = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK_ROOT))
    try:
        make_workload(args.workload, args.seed, args.scale, qil).setup(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


class SetupProbes:
    """Fresh set-up processes, run one at a time between measured cycles.

    Spreading the probes over the run samples the machine's speed over the
    same stretch of time as the ops instead of a one-second burst before them.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--scale", args.scale]
        self.wanted = SETUP_PROBES[args.scale]
        self.times: list[float] = []

    def run_one(self) -> None:
        """One probe, if any are still due; its wall time is recorded."""
        if len(self.times) >= self.wanted:
            return
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantise the measurement; a timer kills a hung probe instead
        killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        self.times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")

    def finish(self) -> list[float]:
        while len(self.times) < self.wanted:
            self.run_one()
        return self.times


# ---------------------------------------------------------------------------
# measurement


def run_for(workload, seconds: float, tracer=None, min_ops: int = 0, between=None):
    """Whole cycles until ``seconds`` of cycle time and ``min_ops`` ops have passed.

    ``between()`` runs before each cycle; its time does not count. Each cycle
    runs on the next CPU the process may use, in turn: the CPUs of the machine
    the bounds were set on slow down independently of each other, and a
    process the scheduler leaves on a slowed CPU would see no fast cycle.
    """
    stats = Stats()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    start, paused = time.perf_counter(), 0.0
    try:
        while True:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[len(stats.cycle_ops) % len(cpus)]})
            if between is not None:
                t0 = time.perf_counter()
                between()
                paused += time.perf_counter() - t0
            first = len(stats.latencies)
            workload.run_cycle(stats, tracer)
            stats.end_cycle(first)
            if time.perf_counter() - start - paused >= seconds and len(stats.latencies) >= min_ops:
                return stats
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)


def tail(latencies) -> tuple[float, float]:
    """The op with exactly ten ops beyond it (the slowest below 11 ops), and its percentile."""
    lat = np.sort(latencies)
    n = len(lat)
    if n < 11:
        return float(lat[-1]), 100.0
    return float(lat[n - 11]), 100 * (n - 11) / (n - 1)


def best_repeats(stats) -> np.ndarray:
    """Each op's fastest repeat over the run's cycles (the i-th op of every cycle is the same work)."""
    cycles = np.frombuffer(stats.latencies, dtype=np.float32).reshape(len(stats.cycle_ops), -1)
    return cycles.astype(float).min(axis=0)


def end_to_end(stats, setup_times: list[float]) -> tuple[dict[str, float], dict[str, str]]:
    """The end-to-end metrics of a measured phase, and a note on how each was taken.

    The machine these bounds were set on slows each CPU by up to ~1.9x,
    independently and for spans from a fraction of a second to minutes, and a
    plain median follows whichever state held most of a run. Throughput, the
    median op and set-up therefore use best repeats, as timeit reports the best
    repeat; the tail keeps every op, so an op kind that is slow every time shows.
    """
    # read before the statistics below allocate copies of the latencies
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best = best_repeats(stats)
    op_tail_s, pct = tail(np.frombuffer(stats.latencies, dtype=np.float32).astype(float))
    repeats = len(stats.cycle_ops)
    metrics = {
        "setup_s": min(setup_times),
        "ops_per_s": len(best) / best.sum(),
        "op_p50_s": float(np.sort(best)[len(best) // 2]),
        "op_tail_s": op_tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"fastest of {len(setup_times)} fresh processes, "
                   f"median {statistics.median(setup_times):.4g} s",
        "ops_per_s": f"ops per cycle / sum of each op's best of {repeats} repeats",
        "op_p50_s": f"upper median of each op's best of {repeats} repeats",
        "op_tail_s": f"p{pct:.4g} of {len(stats.latencies)} ops",
        "peak_rss_mb": "max RSS of the benchmark process",
    }
    return metrics, notes


def per_layer(tracer, traced, untraced, memory_peaks) -> dict[str, float]:
    """Per-op layer numbers from the traced phase; stage peaks from the memory cycle."""
    ops = max(traced.attempted, 1)
    total, own = tracer.totals()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer) / ops
    for metric, span in _SPAN_SECONDS.items():
        out[metric] = total.get(span, 0.0) / ops
    out["encodings.decode_self_s"] = own.get("encodings.decode", 0.0) / ops
    for stage in STAGES:
        out[f"pipeline.stage.{stage}_s"] = traced.stage_s.get(stage, 0.0) / ops
    staged = math.fsum(traced.stage_s.values())
    out["pipeline.unstaged_s"] = (total.get("pipeline.run_pipeline", 0.0) - staged) / ops
    out["pipeline.report_bytes"] = traced.report_bytes / ops
    for stage, peak in memory_peaks.items():
        out[f"pipeline.stage_peak_mb.{stage}"] = peak
    for metric, counter in _PER_OP_COUNTS.items():
        out[metric] = tracer.counts.get(counter, 0.0) / ops
    for metric in _MEANS:
        samples = tracer.samples.get(metric, [])
        out[metric] = statistics.fmean(samples) if samples else 0.0
    out["metrics.decode_mae"] = statistics.fmean(traced.decode_mae) if traced.decode_mae else 0.0
    out["metrics.tomo_err_pct"] = (
        statistics.fmean(traced.tomo_err_pct) if traced.tomo_err_pct else 0.0
    )
    out["trace.overhead_s"] = best_repeats(traced).mean() - best_repeats(untraced).mean()
    return out


def traced_run(workload, qil, seconds: float):
    """Untraced half, traced half, then one cycle under tracemalloc for stage peaks."""
    untraced = run_for(workload, seconds / 2)
    timing, memory_tracer = Tracer(), Tracer()
    timing.install(qil)
    try:
        traced = run_for(workload, seconds / 2, timing)
    finally:
        timing.uninstall()
    memory_tracer.memory = True
    memory_tracer.install(qil)
    tracemalloc.start()
    try:
        memory = run_for(workload, 0.0, memory_tracer)
    finally:
        tracemalloc.stop()
        memory_tracer.uninstall()
    for name in sorted(timing.missing | memory_tracer.missing):
        print(f"note: {name} does not fit this version of qil; its metrics read 0",
              file=sys.stderr)
    metrics = per_layer(timing, traced, untraced, memory_tracer.stage_peaks_mb())
    return metrics, [untraced, traced, memory]


# ---------------------------------------------------------------------------
# reporting


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_human(args, env, metrics, units, stats_list, digests, notes, extra=()) -> None:
    print(f"qilbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"  {name:<36} {_format(value):>14} {units[name]:<8} {notes.get(name, '')}")
    attempted = sum(s.attempted for s in stats_list)
    failed = sum(s.failed for s in stats_list)
    print(f"  {'error_rate':<36} {_format(failed / max(attempted, 1)):>14} {'ratio':<8} "
          f"{failed} failed of {attempted} ops, warm-up included")
    for line in extra:
        print(f"  {line}")
    for kind, digest in digests.items():
        print(f"  sha256[{kind}] {digest}")


def quality_lines(stats) -> list[str]:
    """Mean decode MAE and tomography error, printed under the end-to-end table."""
    mae = (f"{statistics.fmean(stats.decode_mae):.6g} gray" if stats.decode_mae
           else "n/a (no decode in this workload)")
    tomo = (f"{statistics.fmean(stats.tomo_err_pct):.6g} %" if stats.tomo_err_pct
            else "n/a (no tomography in this workload)")
    return [f"{'decode_mae':<36} {mae}", f"{'tomo_err_pct':<36} {tomo}"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SETUP_PROBES), default="full",
                   help="tiny inputs for the harness self-check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qil" / "__init__.py").is_file():
        print(f"error: no qil sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        t0 = time.perf_counter()
        qil = import_qil()
        workload = make_workload(args.workload, args.seed, args.scale, qil)
        workload.setup(work)
        in_process_setup = time.perf_counter() - t0
        env = environment(work)
        warm = run_for(workload, 0.0)  # first cycle: page faults, lazy imports, digests
        if args.trace == 0:
            probes = SetupProbes(args)
            measured = run_for(workload, args.seconds, min_ops=MIN_OPS, between=probes.run_one)
            setup_times = probes.finish()
            metrics, notes = end_to_end(measured, setup_times)
            units = END_TO_END
            stats_list = [warm, measured]
            notes["setup_s"] += f"; in-process set-up {in_process_setup:.3g} s"
            extra = quality_lines(measured)
        else:
            metrics, stats_list = traced_run(workload, qil, args.seconds)
            stats_list = [warm] + stats_list
            units = per_layer_units()
            notes, extra = {}, []
        correct = all(s.failed == 0 for s in stats_list)
        print_human(args, env, metrics, units, stats_list, workload.digests, notes, extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": sum(s.attempted for s in stats_list),
        "failed": sum(s.failed for s in stats_list),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
