"""Region-sharded stepping: N independent simulations in lockstep epochs.

The single-simulator design serializes every event through one heap; a
planet-scale deployment (Section 4's multi-region communities) does not
need that — regions only interact through their gateway links, whose
latencies are tens of milliseconds.  This module exploits that slack:
each *shard* owns a full ``Simulator`` (plus whatever world is built on
it) and advances independently for one *epoch*; at each epoch boundary
the coordinator drains every shard's exported messages and injects them
into the destination shards before the next epoch starts.

Correctness boundary: a cross-shard message is delivered no earlier
than the first epoch boundary after it was exported, so ``epoch_s``
must be **at most** the minimum cross-shard latency for timing to be
faithful; intra-shard behaviour is exactly the unsharded simulation.
Determinism: shards are drained and injected in shard-index order and
every shard derives its RNG streams from a fork of the master seed, so
a sharded run is bit-reproducible — but it is *not* event-for-event
identical to the unsharded run of the same topology (the epoch
quantization is the documented divergence).

Two drivers:

* :class:`EpochCoordinator` — in-process, steps shards sequentially.
  Deterministic; the default.  On one core this is also the fastest
  option (no pickling, no process churn).
* :class:`ProcessShardPool` — each shard lives in a worker process
  (``multiprocessing``), built there from a picklable ``builder``
  callable; the parent only moves boundary messages over pipes.  This
  is the scale-out path for multi-core hosts; exports must be
  picklable (see :func:`thaw_payload`).
"""

from __future__ import annotations

import multiprocessing
from types import MappingProxyType
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: One cross-shard message: (destination shard index or None for
#: broadcast-to-all-other-shards, opaque payload tuple).
Export = Tuple[Optional[int], Any]


def thaw_payload(payload: Any) -> Any:
    """Undo :func:`repro.broker.event.freeze_payload` for pickling.

    ``MappingProxyType`` (the frozen form of dict payloads) is not
    picklable; worker-process shards must thaw exports before they
    cross the pipe.  Other frozen forms (tuple, bytes, frozenset) are
    picklable and pass through.
    """
    if type(payload) is MappingProxyType:
        return dict(payload)
    return payload


class ShardWorld:
    """Protocol for one shard's world (duck-typed; subclassing optional).

    ``advance(until)``: run the shard's simulator to virtual time
    ``until``.  ``drain_exports()``: return and clear the messages the
    shard produced for other shards since the last drain.
    ``inject(messages, now)``: accept messages exported by peer shards;
    called at an epoch boundary when the shard's clock reads ``now``.
    """

    __slots__ = ()

    def advance(self, until: float) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def drain_exports(self) -> List[Export]:  # pragma: no cover - protocol
        raise NotImplementedError

    def inject(self, messages: Sequence[Any], now: float) -> None:  # pragma: no cover
        raise NotImplementedError


class EpochCoordinator:
    """Advance N in-process shard worlds in lockstep epochs."""

    __slots__ = ("worlds", "epoch_s", "now", "epochs_run", "messages_exchanged")

    def __init__(self, worlds: Sequence[Any], epoch_s: float):
        if epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if not worlds:
            raise ValueError("need at least one shard world")
        self.worlds = list(worlds)
        self.epoch_s = epoch_s
        self.now = 0.0
        self.epochs_run = 0
        self.messages_exchanged = 0

    def run(self, until: float) -> None:
        """Step every shard to ``until``, exchanging at epoch boundaries."""
        worlds = self.worlds
        while self.now < until:
            boundary = min(self.now + self.epoch_s, until)
            for world in worlds:
                world.advance(boundary)
            self.now = boundary
            self.epochs_run += 1
            self._exchange(boundary)

    def _exchange(self, now: float) -> None:
        inbound: List[List[Any]] = [[] for _ in self.worlds]
        for index, world in enumerate(self.worlds):
            for destination, message in world.drain_exports():
                if destination is None:
                    for peer, queue in enumerate(inbound):
                        if peer != index:
                            queue.append(message)
                            self.messages_exchanged += 1
                else:
                    inbound[destination].append(message)
                    self.messages_exchanged += 1
        for world, messages in zip(self.worlds, inbound):
            if messages:
                world.inject(messages, now)


# --------------------------------------------------------------- processes


def _shard_worker(conn, builder: Callable[[int], Any], index: int) -> None:
    """Worker-process loop: build the world locally, then serve epochs."""
    world = builder(index)
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "epoch":
                _, boundary, incoming = message
                if incoming:
                    world.inject(incoming, world_now(world))
                world.advance(boundary)
                conn.send(world.drain_exports())
            elif kind == "stop":
                conn.send(("stopped", index))
                return
    finally:
        conn.close()


def world_now(world: Any) -> float:
    """Best-effort clock read used when handing injections to a world."""
    sim = getattr(world, "sim", None)
    return sim.now if sim is not None else 0.0


class ProcessShardPool:
    """Epoch-stepped shards, one worker process each.

    ``builders[k]`` is called *inside* worker ``k`` to construct that
    shard's world, so it must be a module-level (picklable) callable —
    typically a function that builds a ``Simulator`` + ``Network`` +
    broker cluster from a shard index.  The parent process never holds
    the worlds; it only relays boundary messages, so per-epoch overhead
    is one pipe round-trip per shard.
    """

    __slots__ = ("epoch_s", "now", "epochs_run", "messages_exchanged",
                 "_processes", "_pipes", "_closed")

    def __init__(self, builders: Sequence[Callable[[int], Any]], epoch_s: float):
        if epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if not builders:
            raise ValueError("need at least one shard builder")
        self.epoch_s = epoch_s
        self.now = 0.0
        self.epochs_run = 0
        self.messages_exchanged = 0
        self._closed = False
        context = multiprocessing.get_context("spawn")
        self._pipes = []
        self._processes = []
        for index, builder in enumerate(builders):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_shard_worker,
                args=(child_end, builder, index),
                daemon=True,
            )
            process.start()
            child_end.close()
            self._pipes.append(parent_end)
            self._processes.append(process)

    def run(self, until: float) -> None:
        pending: List[List[Any]] = [[] for _ in self._pipes]
        while self.now < until:
            boundary = min(self.now + self.epoch_s, until)
            for pipe, incoming in zip(self._pipes, pending):
                pipe.send(("epoch", boundary, incoming))
            exports = [pipe.recv() for pipe in self._pipes]
            self.now = boundary
            self.epochs_run += 1
            pending = [[] for _ in self._pipes]
            for index, shard_exports in enumerate(exports):
                for destination, message in shard_exports:
                    if destination is None:
                        for peer, queue in enumerate(pending):
                            if peer != index:
                                queue.append(message)
                                self.messages_exchanged += 1
                    else:
                        pending[destination].append(message)
                        self.messages_exchanged += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for pipe in self._pipes:
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                continue
        for pipe in self._pipes:
            try:
                pipe.recv()
            except (EOFError, OSError):
                pass
            pipe.close()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
