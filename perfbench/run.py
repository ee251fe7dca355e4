"""Serving benchmark for the Pelican detector: one workload, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flood-sync --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``flood-sync`` — closed loop, 16-record submissions to a synchronous
  ``DetectionService`` serving the 10-block Pelican;
* ``flood-procpool`` — closed loop, 8 batches in flight to a one-child
  ``ProcessWorkerPool`` serving a 1-block detector;
* ``events-paced`` — open loop, one 64-flow packet-event batch per tick
  through ``FlowFeatureExtractor`` and a synchronous service.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it alternates untraced and traced quarters of the
time and reports the per-layer metrics plus the tracing overhead; the spans
are written to ``perfbench/out/``.

Every verdict is checked against ``detector.predict(records, fast=True)``
on the same prepared records; the run exits non-zero if any verdict is
missing or differs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import inspect
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: One BLAS thread everywhere.  OpenBLAS otherwise starts one thread per
#: core in the parent and in every pool child, and they oversubscribe the
#: cores the workloads already fill.  The pin must precede the NumPy import,
#: and spawned pool children inherit it.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_ENV:
    os.environ[_variable] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15

#: Untimed serving before the timed phase (verdicts still checked).
WARMUP_S = 1.0

#: Equal time windows the timed phase is cut into for the printed
#: diagnostics; the gated metrics cover the whole timed phase.
WINDOWS = 5

#: The host-speed probe runs before set-up, before the timed phase and
#: after it, each time as several short samples; the host speed is the
#: median of all samples, so one burst of outside load does not set it.
#: A change between the first and the last probe above the flag is reported.
PROBE_SAMPLES = 5
PROBE_SAMPLE_S = 0.1
PROBE_DRIFT_FLAG = 0.10

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("within_slo_fraction", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("detection_rate", "fraction"),
)

#: Printed with the end-to-end metrics but not in ``BENCHMARK.json``:
#: across seeds they spread wider than any bound allows (see README.md).
UNGATED = (
    ("latency_p95_ms", "ms"),
    ("false_alarm_rate", "fraction"),
)

#: Network layer classes on the fast path; anything else is ``other``.
LAYER_CLASSES = (
    "ResidualBlock", "BatchNormalization", "Conv1D", "MaxPooling1D", "GRU",
    "Reshape", "Dropout", "GlobalAveragePooling1D", "Dense",
)

PER_LAYER = (
    ("nn.forward_ms", "ms"),
    *((f"nn.layer.{name}_ms", "ms") for name in LAYER_CLASSES),
    ("nn.layer.other_ms", "ms"),
    ("batching.records_per_batch", "records"),
    ("batching.wait_ms", "ms"),
    ("batching.partial_batch_fraction", "fraction"),
    ("service.preprocess_ms", "ms"),
    ("service.score_ms", "ms"),
    ("service.observe_ms", "ms"),
    ("ingest.extract_ms", "ms"),
    ("ingest.events_per_s", "1/s"),
    ("ingest.share_of_wall", "fraction"),
    ("procpool.start_s", "s"),
    ("procpool.first_verdict_s", "s"),
    ("procpool.submit_ms", "ms"),
    ("procpool.round_trip_ms", "ms"),
    ("procpool.ship_overhead_ms", "ms"),
    ("procpool.in_flight", "batches"),
    ("lifecycle.capture_s", "s"),
    ("lifecycle.restore_s", "s"),
    ("harness.sender_lag_ms", "ms"),
    ("harness.tracing_overhead_pct", "%"),
)


def _mean(values) -> float:
    return float(statistics.fmean(values)) if len(values) else 0.0


def host_block(load_average) -> dict:
    from repro.serving import ProcessWorkerPool

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pool_default = inspect.signature(ProcessWorkerPool).parameters["start_method"].default
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "mp_default_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "pool_start_method": pool_default,
        "load_average": list(load_average),
    }


def host_speed() -> list:
    """Rates (iterations per second) of a fixed pure-NumPy loop, a dense
    layer on a 256-record batch, one per sample.  It shares no code with the
    program, so a change between two probes is the host's, not the
    program's."""
    rng = np.random.default_rng(0)
    inputs, weights = rng.random((256, 121)), rng.random((121, 363))
    rates = []
    for _ in range(PROBE_SAMPLES):
        count = 0
        started = time.perf_counter()
        while time.perf_counter() - started < PROBE_SAMPLE_S:
            np.tanh(inputs @ weights)
            count += 1
        rates.append(count / (time.perf_counter() - started))
    return rates


def reset_peak_rss() -> None:
    """Hand freed heap memory back to the system, then restart this
    process's RSS high-water mark from its current RSS."""
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_kb(pid="self") -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


# ---------------------------------------------------------------------- #
# Verdict checking and end-to-end metrics
# ---------------------------------------------------------------------- #
class Verdicts:
    """A phase's served verdicts lined up against the oracle, per record."""

    def __init__(self, workload, phase) -> None:
        sizes = [len(workload.expected[key]) for key in phase.sent]
        self.attempted = sum(sizes)
        served = self.served = phase.served
        self.correct = np.ones(served, dtype=bool)
        self.correct[phase.wrong] = False
        self.failed = self.attempted - served + len(phase.wrong)
        sent_at = np.repeat(phase.sent_at, sizes)[:served]
        self.done_at = np.repeat(phase.committed_at, phase.sizes)
        self.latency_ms = (self.done_at - sent_at) * 1e3
        self.batches = len(phase.sizes)
        self.start, self.end = phase.start, phase.end


def windowed(verdicts: Verdicts) -> str:
    """Per window of the timed phase: records committed per second and the
    p95 latency (ms) of the records committed in it, as a printable line.
    A diagnostic only: a stall confined to one window shows here."""
    edges = np.linspace(verdicts.start, verdicts.end, WINDOWS + 1)
    which = np.clip(np.searchsorted(edges, verdicts.done_at, side="right") - 1,
                    0, WINDOWS - 1)
    cells = []
    for window in range(WINDOWS):
        latency = verdicts.latency_ms[which == window]
        rate = len(latency) / (edges[window + 1] - edges[window])
        p95 = f"{np.percentile(latency, 95):.3g}" if len(latency) else "-"
        cells.append(f"{rate:.0f}/s p95 {p95} ms")
    return " | ".join(cells)


def rates(workload) -> dict:
    """Detection and false-alarm rate of the oracle over the whole prepared
    pool.  Every served verdict must equal the oracle, so this is the rate
    of the served verdicts, independent of how far the run got."""
    expected = np.concatenate(workload.expected)
    truth = np.concatenate(workload.truth)
    normal = workload.schema_normal
    attack, flagged = truth != normal, expected != normal
    return {
        "detection_rate": float((attack & flagged).sum()) / int(attack.sum()),
        "false_alarm_rate": float((~attack & flagged).sum()) / int((~attack).sum()),
    }


def end_to_end_metrics(workload, verdicts: Verdicts, setups, peak_kb) -> dict:
    latency = verdicts.latency_ms
    within = (latency <= workload.latency_limit_ms) & verdicts.correct
    return {
        "throughput_rps": verdicts.served / (verdicts.end - verdicts.start),
        "latency_p50_ms": float(np.percentile(latency, 50)),
        "latency_p95_ms": float(np.percentile(latency, 95)),
        "within_slo_fraction": float(within.sum()) / verdicts.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
        **rates(workload),
    }


# ---------------------------------------------------------------------- #
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------- #
def per_layer_metrics(workload, tracer, traced, untraced) -> dict:
    from tracing import durations, self_times

    extra = workload.extra_layer_metrics(tracer, traced)
    windows = [(phase.start, phase.end) for phase in traced]
    spans = [
        span for span in tracer.spans
        if any(start <= span.start <= end for start, end in windows)
    ] + tracer.since(max(end for _, end in windows))
    metrics = {name: 0.0 for name, _ in PER_LAYER}

    forwards = durations(spans, "nn.forward")
    if forwards:
        metrics["nn.forward_ms"] = _mean(forwards) * 1e3
        for name, seconds in self_times(spans).items():
            if name.startswith("nn.layer."):
                layer = name[len("nn.layer."):]
                key = f"nn.layer.{layer if layer in LAYER_CLASSES else 'other'}_ms"
                metrics[key] += seconds / len(forwards) * 1e3

    releases = workload.batch_releases
    if releases:
        sizes = [size for _, size in releases]
        arrival = np.repeat([at for at, _ in workload.batch_arrivals],
                            [n for _, n in workload.batch_arrivals])
        release = np.repeat([at for at, _ in releases], sizes)
        matched = min(len(arrival), len(release))
        metrics["batching.records_per_batch"] = _mean(sizes)
        metrics["batching.wait_ms"] = float(
            np.mean(release[:matched] - arrival[:matched])) * 1e3
        limit = workload.service.batcher.max_batch_size
        metrics["batching.partial_batch_fraction"] = (
            sum(size < limit for size in sizes) / len(sizes))

    for key, span in (("service.preprocess_ms", "service.preprocess"),
                      ("service.score_ms", "service.score"),
                      ("service.observe_ms", "service.observe"),
                      ("ingest.extract_ms", "ingest.extract"),
                      ("procpool.submit_ms", "procpool.submit")):
        metrics[key] = _mean(durations(spans, span)) * 1e3

    extracts = durations(spans, "ingest.extract")
    if extracts:
        events = sum(len(workload.inputs[key]) for phase in traced for key in phase.sent)
        metrics["ingest.events_per_s"] = events / sum(extracts)
        metrics["ingest.share_of_wall"] = sum(extracts) / sum(
            phase.end - phase.start for phase in traced)

    everything = tracer.spans
    metrics["procpool.start_s"] = _mean(durations(everything, "procpool.start"))
    metrics["procpool.first_verdict_s"] = _mean(workload.first_verdict_s)
    metrics["lifecycle.capture_s"] = _mean(durations(everything, "lifecycle.capture"))
    metrics["lifecycle.restore_s"] = _mean(durations(everything, "lifecycle.restore"))
    metrics["harness.sender_lag_ms"] = _mean(
        [lag for phase in traced for lag in phase.lags]) * 1e3

    def cost_per_record(phases) -> float:
        records = sum(len(workload.expected[key]) for phase in phases for key in phase.sent)
        return sum(phase.busy for phase in phases) / records

    metrics["harness.tracing_overhead_pct"] = (
        cost_per_record(traced) / cost_per_record(untraced) - 1.0) * 100.0
    metrics.update(extra)
    return metrics


# ---------------------------------------------------------------------- #
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("flood-sync", "flood-procpool", "events-paced"))
    parser.add_argument("--seed", type=int, required=True,
                        help="seed for the records, packet traces and detector fit")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def _print_table(title, rows, metrics) -> None:
    print(title)
    for name, unit in rows:
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Spawned pool children and shared-memory segments start the tracker as
    a process of its own; left alone it ends only some time after this
    process has exited.  Stopping it here makes the run end with every
    process it started."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_resource_tracker()


def run(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    load_average = os.getloadavg()
    # Spawned pool children inherit sys.path.
    sys.path.insert(0, str(ROOT / "src"))

    from repro.serving import DetectorCheckpoint
    from tracing import Tracer
    from workloads import WORKLOADS

    host = host_block(load_average)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("host " + json.dumps(host))

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    try:
        workload.prepare(args.seed)
        # The prepared inputs belong to the harness: freeze them out of the
        # cyclic collector so timed collections scan only the program's
        # own objects, as they would in a deployment.
        gc.collect()
        gc.freeze()
        probes = [host_speed()]
        # Preparation (the fit above all) must not set the peak.
        reset_peak_rss()
        if tracer is not None:
            tracer.patch(DetectorCheckpoint, "capture", "lifecycle.capture")
        setups = [workload.setup(tracer) for _ in range(SETUP_REPEATS)]
        phases = [workload.run(WARMUP_S, None)]
        probes.append(host_speed())
        if tracer is None:
            phases.append(workload.run(args.seconds, None))
        else:
            # Untraced and traced quarters alternate, so a drift in host
            # speed does not read as tracing overhead.  Closing the tracer
            # removes its patches and keeps its spans.
            untraced, traced = [], []
            for _ in range(2):
                tracer.close()
                untraced.append(workload.run(args.seconds / 4, None))
                workload.instrument(tracer)
                traced.append(workload.run(args.seconds / 4, tracer))
            phases += untraced + traced
            layer = per_layer_metrics(workload, tracer, traced, untraced)
        # The serving child (if any) is still alive here.
        peak_kb = peak_rss_kb() + max(
            (peak_rss_kb(child.pid) for child in multiprocessing.active_children()),
            default=0,
        )
    finally:
        workload.close()
        if tracer is not None:
            tracer.close()
    probes.append(host_speed())
    speed = statistics.median(rate for probe in probes for rate in probe)
    points = [statistics.median(probe) for probe in probes]
    drift = points[-1] / points[0] - 1.0
    host["speed_probe_per_s"] = probes
    print("host speed probe " + " -> ".join(f"{rate:.1f}" for rate in points)
          + f" iterations/s ({drift:+.1%}); median {speed:.1f}")
    if abs(drift) > PROBE_DRIFT_FLAG:
        print(f"warning: host speed changed by {drift:+.1%} during the run; "
              "its timings are not comparable with runs at another speed")

    checked = [Verdicts(workload, phase) for phase in phases]
    attempted = sum(v.attempted for v in checked)
    failed = sum(v.failed for v in checked)
    if tracer is None:
        timed = checked[-1]
        metrics = end_to_end_metrics(workload, timed, setups, peak_kb)
        rows = END_TO_END
        _print_table("end-to-end (tracing off)", END_TO_END + UNGATED, metrics)
        print(f"  {'failed_fraction':<36} {failed / attempted:>14.6g} fraction")
        print(f"  latency samples: {timed.batches} batches ({timed.served} records); "
              f"limit {workload.latency_limit_ms:g} ms")
        print(f"  per {args.seconds / WINDOWS:g}-s window: {windowed(timed)}")
    else:
        metrics = layer
        rows = PER_LAYER
        _print_table("per-layer (traced run)", rows, metrics)
        spans_path = SPANS_DIR / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path, host)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in rows},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
