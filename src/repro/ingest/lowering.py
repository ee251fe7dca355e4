"""Deterministic lowering of featurized records to packet-event traces.

The synthetic corpus is generated at the *record* (flow-feature) level;
real ingestion starts from *packets*.  This module bridges them: it lowers
a :class:`~repro.data.dataset.TrafficRecords` batch to a seeded
:class:`~repro.ingest.events.PacketEvents` trace whose aggregation through
:class:`~repro.ingest.extractor.FlowFeatureExtractor` (replay mode)
reproduces the original rows **bit for bit** — same numeric values, same
categorical values, same labels, same order.

How the round trip is exact:

* every record becomes exactly one flow: per-batch-unique source ports
  guarantee distinct 5-tuples, and every flow is FIN-terminated inside its
  batch;
* flows open in record order (first-packet times are strictly increasing
  with the record index, intra-flow offsets are too small to reorder
  them), and the extractor drains in open order — so row *i* of the
  aggregate is record *i*;
* the numeric features ride in two payload fragments on the flow's first
  two packets: ``v * 0.5`` and ``v - v * 0.5``.  For float64, ``v * 0.5``
  is exact for normal values and ``v - v * 0.5`` is exact by Sterbenz's
  lemma in all cases, so the per-flow sum (two exact halves plus zeros)
  restores ``v`` exactly — no multi-part summation ordering to worry
  about;
* categoricals ride where the schema's event bindings expect them:
  protocol/service on every packet (first read back), the flag/state
  value on every packet (last read back).

Everything is derived from an explicit :class:`numpy.random.Generator`
(or, in :class:`EventTrafficStream`, a ``SeedSequence`` of the stream seed
and batch index), so a trace is reproducible across processes.

DoS-labelled records lower to SYN-flood-shaped flows: 2-packet
unidirectional bursts (SYN, then FIN) against a fixed victim host with
small frame sizes; benign and other attack classes get longer
request/response exchanges.  The *shape* is cosmetic for the round trip
(payload carries the features) but gives the flow table realistic
flood-vs-benign structure for the packet-level scenario preset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Union

import numpy as np

from ..data.dataset import TrafficRecords
from ..data.generator import StreamBatch, TrafficStream
from ..data.schema import service_port
from .events import FLAG_ERR, FLAG_FIN, FLAG_SYN, PacketEvents
from .extractor import FlowFeatureExtractor

__all__ = [
    "lower_records",
    "EventBatch",
    "EventTrafficStream",
    "featurize_events",
]

#: Salt mixed into every per-batch SeedSequence so event lowering never
#: collides with other consumers of the stream seed.
_LOWERING_SALT = 0x1A9E57

#: Classes lowered with the SYN-flood shape (short unidirectional bursts
#: against one victim) rather than the request/response shape.
_DOS_CLASSES = frozenset({"dos"})

#: Flag/state values that mark an erroring connection in either corpus
#: (NSL-KDD flags, UNSW-NB15 states).
_ERROR_STATES = frozenset(
    {"S0", "REJ", "RSTR", "RSTO", "RSTOS0", "SH", "RST", "no", "URN"}
)

_VICTIM_HOST = 251
_VICTIM_PORT = 80


def lower_records(
    records: TrafficRecords,
    rng: np.random.Generator,
    base_time: float = 0.0,
) -> PacketEvents:
    """Lower one record batch to a packet-event trace (capture order).

    The trace is deterministic given ``(records, rng state, base_time)``
    and round-trips exactly through a replay-mode extractor (see module
    docstring).  An empty batch lowers to an empty trace.
    """
    n = len(records)
    schema = records.schema
    if n == 0:
        return PacketEvents.empty(payload_width=len(schema.numeric_features))

    names = schema.categorical_names
    if len(names) != 3:
        raise ValueError(
            f"event lowering expects 3 categorical columns "
            f"(protocol/service/state), schema {schema.name!r} has {len(names)}"
        )
    protocols = records.categorical[names[0]]
    services = records.categorical[names[1]]
    states = records.categorical[names[2]]
    is_dos = np.fromiter(
        (label in _DOS_CLASSES for label in records.labels), dtype=bool, count=n
    )

    # Packets per flow: SYN-flood flows are 2-packet bursts, everything
    # else a 3-7 packet exchange (>= 2 so both payload fragments fit).
    k = np.where(is_dos, 2, 3 + rng.integers(0, 5, size=n))
    total = int(k.sum())
    rec = np.repeat(np.arange(n), k)                       # record of each event
    pos = np.arange(total) - np.repeat(np.cumsum(k) - k, k)  # index within flow

    # Endpoints: per-batch-unique source ports make every record its own
    # 5-tuple; DoS flows converge on one victim host/port (flood shape),
    # benign destinations scatter.
    src_host = rng.integers(1, 200, size=n)
    dst_host = np.where(is_dos, _VICTIM_HOST, rng.integers(200, 240, size=n))
    src_port = 1024 + rng.permutation(60_000)[:n]
    dst_port = np.where(
        is_dos,
        _VICTIM_PORT,
        np.fromiter((service_port(s) for s in services), dtype=np.int64, count=n),
    )

    # First packets sit at strictly increasing per-record times, so flows
    # open in record order; intra-flow offsets stay far below the 1 ms
    # record spacing and cannot reorder the openings.
    open_time = base_time + np.arange(n) * 1e-3
    jitter = rng.random(total) * 5e-6
    time = open_time[rec] + pos * 1e-5 + np.where(pos > 0, jitter, 0.0)

    # Sizes: small flood frames vs heavier exchanges.
    size = np.exp(rng.normal(np.where(is_dos[rec], 3.7, 6.0),
                             np.where(is_dos[rec], 0.2, 1.0)))

    # Direction: floods are unidirectional; exchanges alternate.
    direction = np.where(
        is_dos[rec], 1, np.where(pos % 2 == 0, 1, -1)
    ).astype(np.int8)

    flags = np.zeros(total, dtype=np.uint8)
    is_tcp = np.fromiter(
        (str(p) == "tcp" for p in protocols), dtype=bool, count=n
    )
    flags[(pos == 0) & (is_tcp[rec] | is_dos[rec])] |= FLAG_SYN
    flags[pos == k[rec] - 1] |= FLAG_FIN
    erroring = np.fromiter(
        (str(value) in _ERROR_STATES for value in states), dtype=bool, count=n
    )
    flags[(pos == k[rec] - 1) & erroring[rec]] |= FLAG_ERR

    # Exact numeric round trip: v*0.5 on the first packet, v - v*0.5 on
    # the second; their sum restores v bitwise (Sterbenz), and the zero
    # fragments of later packets leave it untouched.
    half = records.numeric * 0.5
    payload = np.zeros((total, records.numeric.shape[1]))
    payload[pos == 0] = half
    payload[pos == 1] = records.numeric - half

    events = PacketEvents(
        time=time,
        src_host=src_host[rec],
        dst_host=dst_host[rec],
        src_port=src_port[rec],
        dst_port=dst_port[rec],
        size=size,
        direction=direction,
        flags=flags,
        protocol=protocols[rec],
        service=services[rec],
        state=states[rec],
        label=records.labels[rec],
        payload=payload,
    )
    # Capture order: sort by timestamp (stable, so the per-record packet
    # order — and with it the fragment order — survives ties).
    return events.subset(np.argsort(events.time, kind="stable"))


@dataclass(frozen=True)
class EventBatch:
    """One stream batch lowered to packet events (the event-plane analogue
    of :class:`~repro.data.generator.StreamBatch`)."""

    events: PacketEvents
    phase: str
    index: int
    phase_index: int
    mix: Dict[str, float]
    n_records: int


class EventTrafficStream:
    """Packet-event view of a :class:`~repro.data.generator.TrafficStream`.

    :meth:`event_batches` lowers each record batch of the wrapped stream
    to a seeded event trace (per-batch ``SeedSequence`` of the stream seed
    and batch index, so any batch can be re-lowered independently and
    re-iteration is bit-identical).  Iterating the stream itself yields
    ordinary :class:`StreamBatch` values — each event batch aggregated
    back through a fresh replay-mode extractor — so *every* serving
    execution model (sync, thread pool, process pool, sharded) consumes it
    unchanged, and by the round-trip guarantee the batches equal the
    wrapped stream's bit for bit.
    """

    def __init__(self, stream: TrafficStream, window: int = 100) -> None:
        self.stream = stream
        self.window = int(window)

    # Delegation: the adapter is stream-shaped for suite/bench plumbing.
    @property
    def schema(self):
        return self.stream.schema

    @property
    def phases(self):
        return self.stream.phases

    @property
    def batch_size(self) -> int:
        return self.stream.batch_size

    @property
    def seed(self) -> int:
        return self.stream.seed

    @property
    def total_batches(self) -> int:
        return self.stream.total_batches

    @property
    def total_records(self) -> int:
        return self.stream.total_records

    def _batch_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(
                (_LOWERING_SALT, self.stream.seed % (2**63), index)
            )
        )

    def event_batches(self) -> Iterator[EventBatch]:
        """Yield the scenario lowered to packet events (deterministic)."""
        for batch in self.stream.batches():
            events = lower_records(
                batch.records,
                self._batch_rng(batch.index),
                # Batches are spaced well apart on the capture clock so
                # cross-batch idle eviction (when enabled) behaves sanely.
                base_time=batch.index * 10.0,
            )
            yield EventBatch(
                events=events,
                phase=batch.phase,
                index=batch.index,
                phase_index=batch.phase_index,
                mix=batch.mix,
                n_records=len(batch.records),
            )

    def __iter__(self) -> Iterator[StreamBatch]:
        return featurize_events(
            self, FlowFeatureExtractor(self.schema, window=self.window)
        )


def featurize_events(
    events: Union[EventTrafficStream, Iterable[EventBatch]],
    extractor: FlowFeatureExtractor,
) -> Iterator[StreamBatch]:
    """Lift a packet-event stream to ordinary stream batches.

    ``events`` is an :class:`EventTrafficStream` or any iterable of
    :class:`EventBatch`; each event batch is aggregated into feature rows
    by ``extractor`` (every open flow drained at the batch boundary) and
    yielded as a :class:`StreamBatch` carrying the event batch's phase
    bookkeeping — the adapter every ``run_event_stream`` serves through.
    """
    batches = (
        events.event_batches()
        if isinstance(events, EventTrafficStream)
        else events
    )
    for event_batch in batches:
        yield StreamBatch(
            records=extractor.extract(event_batch.events, final=True),
            phase=event_batch.phase,
            index=event_batch.index,
            phase_index=event_batch.phase_index,
            mix=event_batch.mix,
        )
