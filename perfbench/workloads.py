"""The three serving workloads: inputs from a seed, set-up, timed loops.

Every workload follows the same life cycle:

1. :meth:`Workload.prepare` draws the records (and, for ``events-paced``,
   lowers them to packet events), fits the detector and captures its
   checkpoint, and computes the offline oracle — all from the seed and all
   before any timing.  The program under test only ever receives these
   prepared inputs.
2. :meth:`Workload.setup` restores the detector from the checkpoint,
   builds (and for the pool, starts) the serving object and waits for the
   first warm-up verdict.  The benchmark repeats it and reports the median.
3. :meth:`Workload.run` drives the last set-up server for a fixed number
   of seconds and returns a :class:`Phase`: which inputs went in when, and
   which verdicts came out when, in commit order.

Knobs the workloads do not need (``transport``, ``start_method``,
``flush_interval``, ``timer_interval``) are never passed, so a change of a
library default is measured rather than worked around.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.core import PelicanDetector
from repro.data import NSLKDD_SCHEMA, TrafficRecords, load_nslkdd, nslkdd_generator
from repro.ingest import FlowFeatureExtractor
from repro.scenarios import flood_scenario, syn_flood_event_scenario
from repro.serving import DetectionService, DetectorCheckpoint, ProcessWorkerPool

from tracing import Tracer, durations, instrument_network

clock = time.perf_counter

#: Training sample and schedule for the fitted detectors.  The paper's
#: Table I batch size (4000) would give one optimizer step per epoch on a
#: sample this size; 128 gives a few dozen steps, enough for a steady
#: detection rate while fitting the 10-block network stays near 6 s.
TRAIN_RECORDS = 1500
TRAIN_EPOCHS = 3
TRAIN_BATCH = 128

#: Longest wait for a pool verdict before the run fails.
COMMIT_TIMEOUT_S = 30.0

#: Flood-scenario segment lengths (batches) for the closed-loop record pools.
FLOOD_SEGMENTS = dict(baseline_batches=24, burst_batches=16, drift_batches=24)


@dataclass
class Phase:
    """One timed run: inputs sent and verdicts committed, both in order.

    Committed verdicts are checked against the oracle as they arrive and
    then dropped, so the harness's memory does not grow with the number of
    verdicts served and does not show in ``peak_rss_mb``.
    """

    expected: List[np.ndarray]                              # oracle per input
    sent: List[int] = field(default_factory=list)           # input index per send
    sent_at: List[float] = field(default_factory=list)      # submission or due time
    sizes: List[int] = field(default_factory=list)          # records per committed batch
    committed_at: List[float] = field(default_factory=list)
    wrong: List[int] = field(default_factory=list)          # served record positions
    served: int = 0
    start: float = 0.0
    end: float = 0.0
    busy: float = 0.0                                       # time spent serving
    lags: List[float] = field(default_factory=list)         # open loop only
    _cursor: int = 0                                        # sent input being matched
    _offset: int = 0                                        # records of it matched

    def commit(self, result, at: float) -> None:
        """Record a committed batch and match its verdicts, in order,
        against the oracle verdicts of the inputs sent."""
        self.sizes.append(result.size)
        self.committed_at.append(at)
        got, done = result.predictions, 0
        while done < len(got):
            want = self.expected[self.sent[self._cursor]]
            take = min(len(want) - self._offset, len(got) - done)
            differs = np.flatnonzero(
                got[done:done + take] != want[self._offset:self._offset + take])
            self.wrong.extend((self.served + done + differs).tolist())
            done += take
            self._offset += take
            if self._offset == len(want):
                self._cursor, self._offset = self._cursor + 1, 0
        self.served += done


def _split(values: np.ndarray, sizes: List[int]) -> List[np.ndarray]:
    return np.split(values, np.cumsum(sizes)[:-1])


def _fit(seed: int, num_blocks: int) -> PelicanDetector:
    detector = PelicanDetector(
        NSLKDD_SCHEMA,
        num_blocks=num_blocks,
        residual=True,
        epochs=TRAIN_EPOCHS,
        batch_size=TRAIN_BATCH,
        seed=seed,
    )
    detector.fit(load_nslkdd(TRAIN_RECORDS, seed=seed))
    return detector


class Workload:
    """Shared preparation, oracle and tracing hooks."""

    name = ""
    num_blocks = 1
    latency_limit_ms = 0.0
    schema_normal = NSLKDD_SCHEMA.normal_class

    def __init__(self) -> None:
        self.inputs: List[object] = []           # what the program receives
        self.expected: List[np.ndarray] = []     # oracle verdicts per input
        self.truth: List[np.ndarray] = []        # ground-truth labels per input
        self.checkpoint: Optional[DetectorCheckpoint] = None
        self.service: Optional[DetectionService] = None
        self.first_verdict_s: List[float] = []
        # Filled by the traced phases: (time, records) per batcher call.
        self.batch_arrivals: List[tuple] = []
        self.batch_releases: List[tuple] = []

    # ------------------------------------------------------------------ #
    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def _fit_and_oracle(self, seed: int, records: List[TrafficRecords]) -> None:
        detector = _fit(2 * seed, self.num_blocks)
        self.checkpoint = DetectorCheckpoint.capture(detector)
        sizes = [len(part) for part in records]
        pool = TrafficRecords.concatenate(records)
        self.expected = _split(detector.predict(pool, fast=True), sizes)
        self.truth = _split(pool.labels, sizes)

    def setup(self, tracer: Optional[Tracer]) -> float:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def instrument(self, tracer: Tracer) -> None:
        """Patch the current server's layer entry points."""
        service = self.service
        instrument_network(tracer, service.detector.network)
        tracer.patch(service.pipeline, "transform_inputs", "service.preprocess")
        tracer.patch(service, "score", "service.score")
        tracer.patch(service, "observe", "service.observe")
        batcher = service.batcher

        def on_submit(span, args, released):
            self.batch_arrivals.append((span.start, len(args[0])))
            for batch in released:
                self.batch_releases.append((span.end, len(batch)))

        def on_drain(span, args, batch):
            if batch is not None:
                self.batch_releases.append((span.end, len(batch)))

        tracer.patch(batcher, "submit", "batching.submit", on_submit)
        tracer.patch(batcher, "poll", "batching.poll", on_drain)
        tracer.patch(batcher, "flush", "batching.flush", on_drain)

    def extra_layer_metrics(self, tracer: Tracer, phases: List[Phase]) -> Dict[str, float]:
        """Layer metrics the traced phases' spans alone do not give."""
        return {}

    def close(self) -> None:
        pass

    def _restore(self, tracer: Optional[Tracer]) -> PelicanDetector:
        restore = self.checkpoint.restore
        if tracer is not None:
            restore = tracer.wrap("lifecycle.restore", restore)
        return restore()


class FloodSync(Workload):
    """Closed loop, one caller: 16-record submissions to a synchronous
    service (max_batch_size 256) serving the paper's 10-block Pelican."""

    name = "flood-sync"
    num_blocks = 10
    latency_limit_ms = 50.0
    submission = 16
    max_batch_size = 256

    def prepare(self, seed: int) -> None:
        stream = flood_scenario(
            nslkdd_generator(), batch_size=self.max_batch_size,
            seed=2 * seed + 1, **FLOOD_SEGMENTS,
        )
        records = []
        for batch in stream.batches():
            for start in range(0, len(batch.records), self.submission):
                records.append(batch.records.subset(range(start, start + self.submission)))
        self.inputs = records
        self._fit_and_oracle(seed, records)

    def setup(self, tracer: Optional[Tracer]) -> float:
        started = clock()
        detector = self._restore(tracer)
        service = DetectionService(detector, max_batch_size=self.max_batch_size)
        index = 0
        while not service.submit(self.inputs[index]):
            index += 1
        self.service = service
        return clock() - started

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        service, inputs = self.service, self.inputs
        group = self.max_batch_size // self.submission
        phase = Phase(self.expected)
        sent, sent_at = phase.sent, phase.sent_at
        index = 0
        phase.start = clock()
        deadline = phase.start + seconds
        while clock() < deadline:
            for _ in range(group):  # whole batches, so the flush below is empty
                key = index % len(inputs)
                sent.append(key)
                sent_at.append(clock())
                results = service.submit(inputs[key])
                if results:
                    done = clock()
                    for result in results:
                        phase.commit(result, done)
                index += 1
        for result in service.flush():
            phase.commit(result, clock())
        phase.end = phase.committed_at[-1]
        phase.busy = phase.end - phase.start
        return phase


class FloodProcpool(Workload):
    """Closed loop with a fixed window of in-flight 64-record batches to a
    one-child ProcessWorkerPool serving the 1-block detector."""

    name = "flood-procpool"
    num_blocks = 1
    latency_limit_ms = 20.0
    submission = 64
    window = 8

    def __init__(self) -> None:
        super().__init__()
        self.pool: Optional[ProcessWorkerPool] = None
        self._cond = threading.Condition()
        self._sink: Deque[tuple] = deque()    # (result, commit time), unchecked
        self._committed = 0
        self.in_flight: List[int] = []

    def prepare(self, seed: int) -> None:
        stream = flood_scenario(
            nslkdd_generator(), batch_size=self.submission,
            seed=2 * seed + 1, **{k: 4 * v for k, v in FLOOD_SEGMENTS.items()},
        )
        self.inputs = [batch.records for batch in stream.batches()]
        self._fit_and_oracle(seed, self.inputs)

    def _on_commit(self, result) -> None:
        # Runs on the pool's collector thread, in submission order.
        now = clock()
        with self._cond:
            self._sink.append((result, now))
            self._committed += 1
            self._cond.notify()

    def _wait(self, predicate) -> None:
        # A batch that fails in the child commits no result, so waiting on
        # the callback alone could hang; give up loudly instead.
        with self._cond:
            if not self._cond.wait_for(predicate, timeout=COMMIT_TIMEOUT_S):
                raise RuntimeError(
                    f"no verdict committed within {COMMIT_TIMEOUT_S} s")

    def setup(self, tracer: Optional[Tracer]) -> float:
        if self.pool is not None:
            self.pool.close()
        self._sink, self._committed = deque(), 0
        started = clock()
        detector = self._restore(tracer)
        self.service = DetectionService(detector, max_batch_size=self.submission)
        self.pool = ProcessWorkerPool(
            self.service, num_workers=1, result_callback=self._on_commit
        )
        start = self.pool.start
        if tracer is not None:
            start = tracer.wrap("procpool.start", start)
        start()
        self.pool.submit(self.inputs[0])
        self._wait(lambda: self._sink)
        elapsed = clock() - started
        self.first_verdict_s.append(elapsed)
        return elapsed

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        pool, inputs, window = self.pool, self.inputs, self.window
        sink = self._sink = deque()
        self._committed = 0
        submit = pool.submit
        if tracer is not None:
            submit = tracer.wrap("procpool.submit", pool.submit)
        phase = Phase(self.expected)
        sent, sent_at = phase.sent, phase.sent_at
        index = 0
        phase.start = clock()
        deadline = phase.start + seconds
        while clock() < deadline:
            self._wait(lambda: index - self._committed < window)
            while sink:
                phase.commit(*sink.popleft())
            key = index % len(inputs)
            sent.append(key)
            sent_at.append(clock())
            submit(inputs[key])
            index += 1
            if tracer is not None and index % 16 == 0:
                self.in_flight.append(self._stats().in_flight)
        pool.join()
        while sink:
            phase.commit(*sink.popleft())
        phase.end = phase.committed_at[-1]
        phase.busy = phase.end - phase.start
        return phase

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        self._stats = tracer.wrap("procpool.stats", self.pool.stats)

    def extra_layer_metrics(self, tracer: Tracer, phases: List[Phase]) -> Dict[str, float]:
        # The forward pass runs in the child, out of the tracer's reach:
        # score a sample of the same batches in the parent (traced, so the
        # nn.* and service.* spans come from here) and take the round trip
        # minus that as the shipping overhead — an estimate that includes
        # the wait behind the other batches in flight.
        keys = sorted({key for phase in phases for key in phase.sent})[:256]
        scored_from = clock()
        for key in keys:
            self.service.score(self.inputs[key])
        score_ms = np.mean(durations(tracer.since(scored_from), "service.score")) * 1e3
        round_trip_ms = np.mean(np.concatenate([
            np.subtract(phase.committed_at, phase.sent_at) for phase in phases
        ])) * 1e3
        return {
            "procpool.round_trip_ms": round_trip_ms,
            "procpool.ship_overhead_ms": round_trip_ms - score_ms,
            "procpool.in_flight": float(np.mean(self.in_flight)) if self.in_flight else 0.0,
        }

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


class EventsPaced(Workload):
    """Open loop at a fixed rate: one pre-lowered 64-flow packet-event batch
    per tick goes through FlowFeatureExtractor.extract and then a
    synchronous service (max_batch_size = flows per tick)."""

    name = "events-paced"
    num_blocks = 1
    latency_limit_ms = 10.0
    flows_per_tick = 64
    flows_per_second = 8_000.0

    def __init__(self) -> None:
        super().__init__()
        self.extractor: Optional[FlowFeatureExtractor] = None

    @property
    def period(self) -> float:
        return self.flows_per_tick / self.flows_per_second

    def prepare(self, seed: int) -> None:
        # One pass of the scenario is 500 ticks; the timed loop replays it
        # in a loop, so every window of the run sees the same traffic mix.
        stream = syn_flood_event_scenario(
            nslkdd_generator(), batch_size=self.flows_per_tick, seed=2 * seed + 1,
            baseline_batches=200, flood_batches=200,
        )
        self.inputs = [batch.events for batch in stream.event_batches()]
        # The oracle scores the records from before lowering, so the check
        # covers flow extraction too.
        records = [batch.records for batch in stream.stream.batches()]
        self._fit_and_oracle(seed, records)

    def setup(self, tracer: Optional[Tracer]) -> float:
        started = clock()
        detector = self._restore(tracer)
        service = DetectionService(detector, max_batch_size=self.flows_per_tick)
        extractor = FlowFeatureExtractor(NSLKDD_SCHEMA)
        results = service.submit(extractor.extract(self.inputs[0]))
        if not results:
            raise RuntimeError("the warm-up tick produced no verdict")
        self.service, self.extractor = service, extractor
        return clock() - started

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        service, extractor, inputs = self.service, self.extractor, self.inputs
        period = self.period
        ticks = int(seconds / period)
        phase = Phase(self.expected)
        phase.start = clock() + period
        busy = 0.0
        for tick in range(ticks):
            due = phase.start + tick * period
            _wait_until(due)
            began = clock()
            key = (1 + tick) % len(inputs)  # tick 0 was the warm-up
            results = service.submit(extractor.extract(inputs[key]))
            done = clock()
            busy += done - began
            phase.lags.append(began - due)
            phase.sent.append(key)
            phase.sent_at.append(due)
            for result in results:
                phase.commit(result, done)
        for result in service.flush():
            phase.commit(result, clock())
        phase.end = phase.committed_at[-1]
        phase.busy = busy
        return phase

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        tracer.patch(self.extractor, "extract", "ingest.extract")


def _wait_until(due: float) -> None:
    """Busy-poll until ``due``, as a poll-mode packet tap does.  Sleeping
    between ticks lets the core go idle, and on a virtualised host every
    tick after an idle gap then runs measurably slower and less steadily."""
    while clock() < due:
        pass


WORKLOADS = {cls.name: cls for cls in (FloodSync, FloodProcpool, EventsPaced)}
