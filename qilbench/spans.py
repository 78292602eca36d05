"""In-memory span recorder that wraps qil's public functions from outside.

Each wrapped function is replaced at the attribute its caller looks up (for
example ``qil.pipeline.frqi_decode_register``), so the program itself is
unchanged. A span records its name, start, end, parent span and op id; spans
stay in memory until the run ends and are then reduced to per-layer numbers.
A layer is a qil module: cli, pipeline, images, encodings, noise, core,
tomography, metrics.

With ``memory=True`` every span also records the peak of tracemalloc's
traced memory while it was open; the harness turns this on for one extra
cycle only, because tracemalloc slows allocation-heavy code.
"""

from __future__ import annotations

import inspect
import os
import time
import tracemalloc
from collections import defaultdict

#: Which pipeline stage a direct child span of run_pipeline belongs to.
STAGE_OF = {
    "images.read_pgm": "load",
    "images.add_classical_noise": "load",
    "encodings.encode": "encode",
    "noise.inject_state_noise": "state_noise",
    "pipeline.load_unitary_csv": "algorithm",
    "core.apply_unitary": "algorithm",
    "encodings.decode": "decode",
    "images.write_pgm": "metrics",
    "metrics.image_error": "metrics",
    "metrics.noise_map": "metrics",
    "metrics.save_noise_map": "metrics",
    "pipeline.run_tomography_experiment": "tomography",
    "metrics.write_grid_csv": "tomography",
    "tomography.format_record": "tomography",
}

_NAME, _START, _END, _PARENT, _OP, _PEAK = range(6)


class Tracer:
    """Records spans around wrapped callables; ``install`` / ``uninstall`` patch qil."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.memory = False
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.last_cbs6 = None

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, *args, on_result=None, **kwargs):
        """Run ``fn`` inside a span; ``on_result(tracer, args, kwargs, result, seconds)``."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.op_id, 0]
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                self.spans[parent][_PEAK] = max(self.spans[parent][_PEAK], peak)
            tracemalloc.reset_peak()
            span[_PEAK] = current
        self.spans.append(span)
        self.stack.append(idx)
        span[_START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter()
            self.stack.pop()
            if self.memory:
                span[_PEAK] = max(span[_PEAK], tracemalloc.get_traced_memory()[1])
                if parent >= 0:
                    self.spans[parent][_PEAK] = max(self.spans[parent][_PEAK], span[_PEAK])
        if on_result is not None:
            try:
                on_result(self, args, kwargs, result, span[_END] - span[_START])
            except (AttributeError, TypeError, IndexError, KeyError, OSError):
                # a later qil may return other types; its counter then reads 0
                self.missing.add(f"counter on {name}")
        return result

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper; skip names a version lacks."""
        if not hasattr(owner, attr):
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, target, *args, on_result=on_result, **kwargs)

        if isinstance(owner, type):
            # class-level lookups (TomographyDesign.full_pauli, MeasurementSet.cbs)
            # must not bind the wrapper to the class or an instance
            setattr(owner, attr, staticmethod(wrapper))
        else:
            setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self, qil_modules) -> None:
        _install_wraps(self, qil_modules)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the part covered by its (sequential) children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, child)]

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds summed by span name."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for s, t_self in zip(self.spans, self.self_times()):
            total[s[_NAME]] += s[_END] - s[_START]
            own[s[_NAME]] += t_self
        return total, own

    def stage_peaks_mb(self) -> dict[str, float]:
        """Peak traced MB per pipeline stage, over spans directly under run_pipeline."""
        peaks = {stage: 0.0 for stage in STAGE_OF.values()}
        for s in self.spans:
            parent = s[_PARENT]
            if parent < 0 or self.spans[parent][_NAME] != "pipeline.run_pipeline":
                continue
            stage = STAGE_OF.get(s[_NAME])
            if stage is not None:
                peaks[stage] = max(peaks[stage], s[_PEAK] / 2**20)
        return peaks


# ---------------------------------------------------------------------------
# counters attached to wrapped calls


def _on_histogram(tr, args, kwargs, result, seconds):
    tr.samples["encodings.hist_support"].append(len(result.counts))


def _on_encode(tr, args, kwargs, result, seconds):
    register = getattr(result, "state", None)
    data = register.amplitudes if register is not None else result.qubits
    tr.samples["encodings.register_bytes"].append(data.nbytes)


def _on_decode(tr, args, kwargs, result, seconds):
    if not isinstance(result, tuple):
        return  # qubo_decode: no coverage, every qubit is read
    coverage = result[1]
    tr.samples["encodings.coverage_ratio"].append(
        coverage.observed_positions / coverage.total_positions
    )
    n = args[1] if len(args) > 1 else kwargs.get("n")
    shots = args[3] if len(args) > 3 else kwargs.get("shots", 0)
    if n == 9 and shots == 10**6:
        tr.samples["encodings.frqi_decode_n9_1e6_s"].append(seconds)


def _on_write_pgm(tr, args, kwargs, result, seconds):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counts["images.bytes_written"] += os.path.getsize(path)


def _on_design(tr, args, kwargs, result, seconds):
    tr.counts["tomography.design_build.calls"] += 1
    if len(result.observables) == 4**4:
        tr.samples["tomography.full_pauli4_build_s"].append(seconds)


def _on_frequencies(tr, args, kwargs, result, seconds):
    tr.counts["tomography.observables"] += len(result.mu)


def _on_inversion(tr, args, kwargs, result, seconds):
    tr.samples["tomography.physical_ratio"].append(1.0 if result.physical else 0.0)


def _on_cbs(tr, args, kwargs, result, seconds):
    k = args[0] if args else kwargs["num_qubits"]
    # a cache hit returns the object of the previous call; holding that object
    # keeps a fresh build from reusing its address
    if k == 6 and result is not tr.last_cbs6:
        tr.samples["core.cbs6_build_s"].append(seconds)
        tr.last_cbs6 = result


def _counter(key):
    def record(tr, args, kwargs, result, seconds):
        tr.counts[key] += 1

    return record


def _install_wraps(tr: Tracer, m) -> None:
    """Wrap every call the benchmark's workloads reach, at its caller's lookup."""
    cli, pipeline, metrics, encodings = m["cli"], m["pipeline"], m["metrics"], m["encodings"]
    for owner in (cli, pipeline):
        tr.wrap(owner, "run_pipeline", "pipeline.run_pipeline")
        tr.wrap(owner, "run_tomography_experiment", "pipeline.run_tomography_experiment")
        tr.wrap(owner, "write_grid_csv", "metrics.write_grid_csv")
        tr.wrap(owner, "format_record", "tomography.format_record")
    tr.wrap(cli, "run_repr_compare", "pipeline.run_repr_compare")
    tr.wrap(pipeline, "read_pgm", "images.read_pgm")
    tr.wrap(pipeline, "add_classical_noise", "images.add_classical_noise")
    tr.wrap(pipeline, "write_pgm", "images.write_pgm", _on_write_pgm)
    tr.wrap(pipeline, "write_binary_pgm", "images.write_pgm", _on_write_pgm)
    tr.wrap(metrics, "write_pgm", "images.write_pgm", _on_write_pgm)
    for name in ("frqi_encode", "neqr_encode", "qubo_encode"):
        tr.wrap(pipeline, name, "encodings.encode", _on_encode)
    for name in ("frqi_decode_register", "neqr_decode_register", "qubo_decode"):
        tr.wrap(pipeline, name, "encodings.decode", _on_decode)
    tr.wrap(encodings, "sample_histogram", "encodings.sample_histogram", _on_histogram)
    tr.wrap(pipeline, "inject_state_noise", "noise.inject_state_noise")
    tr.wrap(pipeline, "load_unitary_csv", "pipeline.load_unitary_csv")
    tr.wrap(pipeline, "apply_unitary", "core.apply_unitary")
    tr.wrap(pipeline, "image_error", "metrics.image_error")
    tr.wrap(pipeline, "noise_map", "metrics.noise_map")
    tr.wrap(pipeline, "save_noise_map", "metrics.save_noise_map")
    tr.wrap(pipeline, "matrix_error", "metrics.matrix_error")
    tr.wrap(pipeline, "tomography_register", "pipeline.tomography_register")
    tr.wrap(pipeline, "reduced_density_matrix", "core.reduced_density_matrix")
    tr.wrap(pipeline, "simulate_frequencies", "tomography.simulate_frequencies", _on_frequencies)
    tr.wrap(pipeline, "linear_inversion", "tomography.linear_inversion", _on_inversion)
    design = m["tomography"].TomographyDesign
    tr.wrap(design, "full_pauli", "tomography.design_build", _on_design)
    tr.wrap(design, "cbs_diagonal", "tomography.design_build", _on_design)
    tr.wrap(m["core"].MeasurementSet, "cbs", "core.cbs", _on_cbs)
    tr.wrap(m["core"], "sample_measurement", "core.sample_measurement",
            _counter("core.sample_measurement.calls"))
    tr.wrap(m["noise"], "decompose_and_verify", "noise.decompose_and_verify",
            _counter("noise.decompose_and_verify.calls"))
