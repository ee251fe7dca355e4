"""Shared-memory data plane of the process worker pool.

:class:`~repro.serving.procpool.ProcessWorkerPool` moves scoring into child
processes; this module is how a micro-batch's arrays travel between the
parent and a child.  The pool opens one :class:`Channel` per child, and
the child rebuilds the other end as a :class:`ChildEndpoint` from the
channel's picklable :meth:`Channel.child_spec`.

Each child gets a ring of preallocated slots in one
:class:`multiprocessing.shared_memory.SharedMemory` segment, sized from the
dataset schema.  The parent writes the numeric matrix in place and stores
categorical values and labels as small integer codes into the schema's
fixed vocabularies; the child scores straight out of the segment and
writes the predicted class indices and its scoring latency into the slot's
result region.  Only tiny control messages — slot tokens going down, acks
coming back — cross the per-child queues.

Exactness: the decoded batch in the child is string-for-string identical
to the parent's.  Labels are always codable
(:class:`~repro.data.dataset.TrafficRecords` validates them against
``schema.classes``); a categorical value *outside* the schema vocabulary
(vocabulary drift, the thing
:class:`~repro.serving.service.CachedPreprocessor` counts) cannot be
coded, so those rare values ride the control message in a per-column
``{row: value}`` exception map and are patched over the decoded column.
Unknown-categorical tallies therefore stay exact.

Fallback: a batch travels inline — pickled whole on the control queue —
in exactly two cases, and never blocks dispatch or reorders the per-child
FIFO either way:

* it holds more records than a slot, whose capacity is the service
  batcher's ``max_batch_size`` capped at :data:`SLOT_RECORDS_CAP` (the
  batcher never releases a batch above ``max_batch_size``, so only
  services configured above the cap reach this);
* every slot of the child's ring is busy (a backlog deeper than
  :data:`SLOTS_PER_CHILD`).

Fallbacks are counted on the channel (``inline_batches`` vs
``slot_batches``).

Cleanup: every live segment is tracked in a module-level registry
(:func:`live_segments`), created segments carry the ``repro-slab-``
prefix, and :meth:`Channel.reclaim` / :meth:`Channel.shutdown` unlink
idempotently — including after a SIGKILL'd child, whose attach-side
mapping dies with it.  The serving test suite asserts the registry is
empty after every test.
"""

from __future__ import annotations

import threading
import uuid
from multiprocessing import shared_memory
from typing import Dict, List, Optional

import numpy as np

from ..data.dataset import TrafficRecords
from ..data.schema import DatasetSchema, get_schema

__all__ = [
    "Channel",
    "ChildEndpoint",
    "SLOT_RECORDS_CAP",
    "SLOTS_PER_CHILD",
    "live_segments",
]

#: Prefix of every shared-memory segment this module creates — greppable in
#: ``/dev/shm`` and matched by the leak checks.
SEGMENT_PREFIX = "repro-slab-"

#: Upper bound on one slot's record capacity.  Services may configure any
#: ``max_batch_size`` (the lifecycle trial services use ``1 << 30`` to score
#: each batch whole); slots are sized to the batcher up to this cap and
#: larger batches take the inline fallback instead of mapping a segment
#: sized for them.
SLOT_RECORDS_CAP = 1024

#: Ring depth — the per-child backlog the zero-copy path can hold before
#: dispatch falls back inline.  A slot costs ``slot_records x (8 x n_numeric
#: + 4 x n_categorical + 10)`` bytes (tens of KB at typical batch sizes), so
#: the ring stays around a megabyte per child while covering the backlog a
#: stream-paced ``run_stream`` builds up in front of a busy child.
SLOTS_PER_CHILD = 32

_registry_lock = threading.Lock()
_live_segments: set = set()


def _register_segment(name: str) -> None:
    with _registry_lock:
        _live_segments.add(name)


def _unregister_segment(name: str) -> None:
    with _registry_lock:
        _live_segments.discard(name)


def live_segments() -> List[str]:
    """Names of the shared-memory segments currently created-and-not-unlinked
    by this process (the serving tests assert this is empty after each test)."""
    with _registry_lock:
        return sorted(_live_segments)


# --------------------------------------------------------------------------- #
# Slot layout
# --------------------------------------------------------------------------- #
def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) // alignment * alignment


class _SlotLayout:
    """Byte layout of one slot, computed identically in parent and child.

    Per slot: the numeric matrix (``slot_records x n_numeric`` float64,
    written in place), one int32 code column per categorical feature, an
    int16 label-code column, then the result region — int64 predicted
    class indices plus one float64 latency cell the child fills in.
    """

    def __init__(self, schema: DatasetSchema, slot_records: int) -> None:
        self.schema = schema
        self.slot_records = int(slot_records)
        self.n_numeric = len(schema.numeric_features)
        offset = 0
        self.numeric_offset = offset
        offset = _align(offset + self.slot_records * self.n_numeric * 8)
        self.categorical_offsets: Dict[str, int] = {}
        for name in schema.categorical_names:
            self.categorical_offsets[name] = offset
            offset = _align(offset + self.slot_records * 4)
        self.label_offset = offset
        offset = _align(offset + self.slot_records * 2)
        self.result_offset = offset
        offset = _align(offset + self.slot_records * 8)
        self.latency_offset = offset
        offset = _align(offset + 8)
        self.slot_bytes = offset

    def views(self, buffer, slot: int) -> "_SlotViews":
        base = slot * self.slot_bytes
        n = self.slot_records
        numeric = np.frombuffer(
            buffer, dtype=np.float64, count=n * self.n_numeric,
            offset=base + self.numeric_offset,
        ).reshape(n, self.n_numeric)
        categorical = {
            name: np.frombuffer(
                buffer, dtype=np.int32, count=n, offset=base + offset
            )
            for name, offset in self.categorical_offsets.items()
        }
        labels = np.frombuffer(
            buffer, dtype=np.int16, count=n, offset=base + self.label_offset
        )
        result = np.frombuffer(
            buffer, dtype=np.int64, count=n, offset=base + self.result_offset
        )
        latency = np.frombuffer(
            buffer, dtype=np.float64, count=1, offset=base + self.latency_offset
        )
        return _SlotViews(numeric, categorical, labels, result, latency)


class _SlotViews:
    __slots__ = ("numeric", "categorical", "labels", "result", "latency")

    def __init__(self, numeric, categorical, labels, result, latency) -> None:
        self.numeric = numeric
        self.categorical = categorical
        self.labels = labels
        self.result = result
        self.latency = latency


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
class Channel:
    """Parent-side endpoint of one child's data plane: a task queue, a
    result queue and the child's slot ring.

    Control flow (init/swap checkpoints, the stop sentinel) always travels
    pickled on the task queue.  Replies come back normalized to::

        ("scored", sequence, class_indices, child_latency, unknown_delta)
        ("error", sequence, traceback_text)
        ("swapped", worker_id, error_text_or_None)
        ("init-error", worker_id, traceback_text)

    whether the batch rode a slot or the inline fallback, so the pool's
    collector never sees the wire format.

    Parameters
    ----------
    context:
        The ``multiprocessing`` context the child is spawned from.
    schema:
        The dataset schema — fixes the numeric width, the categorical
        vocabularies the code columns index into, and the class list the
        label codes index into.
    max_batch_size:
        The service batcher's size trigger — the largest batch it releases.
        One slot holds that many records, capped at
        :data:`SLOT_RECORDS_CAP`.
    """

    def __init__(
        self, context, schema: DatasetSchema, max_batch_size: int
    ) -> None:
        # One task queue AND one result queue per child: no lock is ever
        # shared between two children, so a child killed mid-write can
        # corrupt only its own queues (see ProcessWorkerPool._spawn_child).
        self._task_queue = context.Queue()
        self._result_queue = context.Queue()
        self.slot_batches = 0
        self.inline_batches = 0
        self.schema = schema
        self.slot_records = min(int(max_batch_size), SLOT_RECORDS_CAP)
        # Encoders: value -> schema-vocabulary index per categorical column,
        # label -> class index.  Training vocabularies are irrelevant here —
        # codes address the *schema's* fixed value tuples, so coding is
        # lossless for every in-schema value.
        self._value_codes = {
            feature.name: {
                value: index for index, value in enumerate(feature.values)
            }
            for feature in schema.categorical_features
        }
        self._label_codes = {
            name: index for index, name in enumerate(schema.classes)
        }
        layout = _SlotLayout(schema, self.slot_records)
        self.segment_name = SEGMENT_PREFIX + uuid.uuid4().hex[:12]
        self._segment = shared_memory.SharedMemory(
            name=self.segment_name,
            create=True,
            size=layout.slot_bytes * SLOTS_PER_CHILD,
        )
        _register_segment(self.segment_name)
        self._unlinked = False
        self._views: Optional[List[_SlotViews]] = [
            layout.views(self._segment.buf, slot)
            for slot in range(SLOTS_PER_CHILD)
        ]
        # Slots are acquired under the pool's submit lock but released from
        # the collector thread, so the free list needs its own lock.
        self._slot_lock = threading.Lock()
        self._free_slots = list(range(SLOTS_PER_CHILD))
        self._slot_sizes: Dict[int, int] = {}  # slot -> batch length

    # -- downstream ---------------------------------------------------- #
    def send_init(self, checkpoint) -> None:
        self._task_queue.put(("init", checkpoint))

    def send_swap(self, checkpoint) -> None:
        self._task_queue.put(("swap", checkpoint))

    def send_stop(self) -> None:
        self._task_queue.put(("stop",))

    def send_score(self, sequence: int, records: TrafficRecords) -> None:
        n = len(records)
        if n > self.slot_records:
            # Only a service whose max_batch_size exceeds the slot cap gets
            # here; ship the batch whole rather than splitting it (splitting
            # would change the batch structure and break bit-equality with
            # the synchronous run).
            self._send_inline(sequence, records)
            return
        with self._slot_lock:
            slot = self._free_slots.pop() if self._free_slots else None
        if slot is None:
            # Every slot busy (deep in-flight backlog): never block dispatch
            # — the caller holds the pool's submit lock.
            self._send_inline(sequence, records)
            return
        views = self._views[slot]
        views.numeric[:n] = records.numeric
        exceptions: Dict[str, Dict[int, object]] = {}
        for name, column in records.categorical.items():
            get = self._value_codes[name].get
            codes = np.fromiter(
                (get(value, -1) for value in column), dtype=np.int32, count=n
            )
            views.categorical[name][:n] = codes
            if codes.min(initial=0) < 0:
                # Out-of-schema value (vocabulary drift): uncodable, so the
                # *original* value object rides the control message — rare
                # by construction, so the payload stays tiny and the child
                # decodes exactly the parent's column.
                rows = np.nonzero(codes < 0)[0]
                exceptions[name] = {
                    int(row): column[row] for row in rows
                }
        label_codes = self._label_codes
        views.labels[:n] = np.fromiter(
            # Always codable: TrafficRecords validates labels against
            # schema.classes, so a KeyError here is a real invariant break.
            (label_codes[label] for label in records.labels),
            dtype=np.int16,
            count=n,
        )
        self._slot_sizes[slot] = n
        self.slot_batches += 1
        self._task_queue.put(
            ("score-slot", sequence, slot, n, exceptions or None)
        )

    def _send_inline(self, sequence: int, records: TrafficRecords) -> None:
        self.inline_batches += 1
        self._task_queue.put(
            (
                "score",
                sequence,
                records.numeric,
                dict(records.categorical),
                records.labels,
            )
        )

    # -- upstream ------------------------------------------------------ #
    @property
    def reply_reader(self):
        """The result queue's read pipe, for ``connection.wait`` multiplexing."""
        return self._result_queue._reader

    def receive_nowait(self):
        """One normalized reply, or raise ``queue.Empty`` / ``EOFError``."""
        return self._normalize(self._result_queue.get_nowait())

    def receive(self, timeout: float):
        """Blocking variant used by the collector's final drain."""
        return self._normalize(self._result_queue.get(timeout=timeout))

    def _normalize(self, message):
        kind = message[0]
        if kind == "scored-slot":
            _, sequence, slot, unknown_delta = message
            n = self._slot_sizes.get(slot, 0)
            views = self._views[slot]
            predicted = np.array(views.result[:n], dtype=np.int64)
            latency = float(views.latency[0])
            self._release_slot(slot)
            return ("scored", sequence, predicted, latency, unknown_delta)
        if kind == "error-slot":
            _, sequence, slot, text = message
            self._release_slot(slot)
            return ("error", sequence, text)
        return message

    def _release_slot(self, slot: int) -> None:
        with self._slot_lock:
            self._slot_sizes.pop(slot, None)
            if slot not in self._free_slots:
                self._free_slots.append(slot)

    # -- spawn & cleanup ----------------------------------------------- #
    def child_spec(self):
        """Picklable arguments of the child's :class:`ChildEndpoint`."""
        return (
            self._task_queue,
            self._result_queue,
            self.schema.name,
            self.segment_name,
            self.slot_records,
        )

    def reclaim(self) -> None:
        """Unlink the segment (idempotent).

        Called the moment the child is known gone — cleanly retired by
        ``resize()``, obeying the close() stop sentinel, or diagnosed dead
        after a SIGKILL — before the pool itself closes.  Unlinking removes
        the name system-wide while the parent's own mapping stays valid, so
        replies still in the pipe (whose predictions live in the result
        regions) can be drained afterwards; the memory itself is freed once
        the last mapping closes.  A SIGKILL'd child's mapping died with it,
        so nothing can resurrect the segment.
        """
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._segment.unlink()
        except FileNotFoundError:  # already gone (e.g. another cleanup path)
            pass
        _unregister_segment(self.segment_name)

    def shutdown(self) -> None:
        """Full parent-side teardown at pool close.

        A child that died before draining its task queue leaves the feeder
        thread blocked mid-write; without the cancel, the interpreter's
        atexit handler would join that feeder forever.  On the clean path
        children drain everything up to the stop sentinel first, so nothing
        that matters is ever discarded.
        """
        self._task_queue.cancel_join_thread()
        self._task_queue.close()
        self._result_queue.close()
        self.reclaim()
        self._views = None  # drop the buffer exports so the mmap can close
        try:
            self._segment.close()
        except BufferError:  # a stray export still alive; process exit frees it
            pass


# --------------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------------- #
class ChildEndpoint:
    """Child side of a :class:`Channel`: batches are decoded out of the slot
    ring (or unpickled, for inline fallbacks); replies write the result
    region in place."""

    def __init__(
        self, task_queue, result_queue, schema_name, segment_name, slot_records
    ) -> None:
        self._task_queue = task_queue
        self._result_queue = result_queue
        schema = get_schema(schema_name)
        # Attaching registers the name with the resource tracker the child
        # inherited from the parent; the tracker dedupes, so the parent's
        # single unlink keeps the books clean.
        self._segment = shared_memory.SharedMemory(name=segment_name)
        layout = _SlotLayout(schema, slot_records)
        self._views = [
            layout.views(self._segment.buf, slot)
            for slot in range(SLOTS_PER_CHILD)
        ]
        # Decoders: vocabulary object-arrays the int32 codes index into.
        self._vocab_arrays = {
            feature.name: np.array(feature.values, dtype=object)
            for feature in schema.categorical_features
        }
        self._class_array = np.array(schema.classes, dtype=object)
        self._schema = schema
        self._pending_slots: Dict[int, int] = {}  # sequence -> slot

    def receive(self):
        """Next parent message, with score payloads wrapped in a zero-arg
        loader so decode errors surface inside the caller's try block::

            ("score", sequence, load_records)  |  ("init", checkpoint)
            ("swap", checkpoint)               |  ("stop",)
        """
        message = self._task_queue.get()
        kind = message[0]
        if kind == "score":  # inline fallback: pickled payload, pickled reply
            _, sequence, numeric, categorical, labels = message

            def load_inline():
                return TrafficRecords(
                    schema=self._schema,
                    numeric=numeric,
                    categorical=categorical,
                    labels=labels,
                )

            return ("score", sequence, load_inline)
        if kind != "score-slot":
            return message
        _, sequence, slot, n, exceptions = message
        self._pending_slots[sequence] = slot
        return ("score", sequence, lambda: self._materialize(slot, n, exceptions))

    def _materialize(self, slot: int, n: int, exceptions) -> TrafficRecords:
        views = self._views[slot]
        categorical = {}
        for name, vocab in self._vocab_arrays.items():
            codes = views.categorical[name][:n]
            # Out-of-schema rows carry code -1; clip for the take, then
            # patch the exact strings back in from the exception map.
            column = vocab[np.maximum(codes, 0)]
            column_exceptions = exceptions.get(name) if exceptions else None
            if column_exceptions:
                for row, value in column_exceptions.items():
                    column[row] = value
            categorical[name] = column
        return TrafficRecords(
            schema=self._schema,
            numeric=views.numeric[:n],  # zero-copy: scored straight from shm
            categorical=categorical,
            labels=self._class_array[views.labels[:n]],
        )

    def send_scored(self, sequence, predicted, latency, unknown_delta) -> None:
        slot = self._pending_slots.pop(sequence, None)
        if slot is None:  # inline-fallback batch: reply inline too
            self._result_queue.put(
                ("scored", sequence, predicted, latency, unknown_delta)
            )
            return
        views = self._views[slot]
        n = len(predicted)
        views.result[:n] = predicted
        views.latency[0] = latency
        self._result_queue.put(("scored-slot", sequence, slot, unknown_delta))

    def send_error(self, sequence, text) -> None:
        slot = self._pending_slots.pop(sequence, None)
        if slot is None:
            self._result_queue.put(("error", sequence, text))
            return
        self._result_queue.put(("error-slot", sequence, slot, text))

    def send_swapped(self, worker_id, error) -> None:
        self._result_queue.put(("swapped", worker_id, error))

    def send_init_error(self, worker_id, text) -> None:
        self._result_queue.put(("init-error", worker_id, text))

    def close(self) -> None:
        """Release the segment mapping before the process exits.

        Drop the numpy exports first or mmap.close() raises BufferError
        from SharedMemory.__del__ during interpreter shutdown.
        """
        self._views = None
        try:
            self._segment.close()
        except BufferError:  # a scored batch still references the buffer
            pass
