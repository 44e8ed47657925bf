"""One shard: the worker-process loop and its parent-side handle.

The worker process owns a shard of sessions. Its loop is a tick:

1. Drain the control pipe (attach/detach/stop must order ahead of the
   frames they govern).
2. Drain up to a tick's worth of ring slots, group the frames by
   session, hand the per-session blocks to the tree's one multi-session
   stage-1 launcher (:func:`~repro.core.batched.launch_stage1`, which
   :class:`~repro.core.batched.BatchedPipeline` also calls), then run
   each session's stateful walk over its slice via the inherited
   :meth:`~repro.fleet.session.DetectorSession.process_batch` — the same
   code path the threaded scheduler's workers call, which is what makes
   sharded output bit-identical to threaded output. The sessions are
   chip-free :class:`~repro.gateway.ingest.IngestSession` mirrors.
3. Ship a :class:`~repro.shard.messages.ShardReport` (results, events,
   metric deltas, cumulative consumed counts) — after processing, so the
   parent's ``drained()`` implies results are already applied — and
   heartbeat on a fixed cadence while idle.

Latency is measured worker-side against the parent's ``perf_counter``
enqueue stamps: both clocks are CLOCK_MONOTONIC on Linux, so the stamps
compare across the process boundary.

:class:`ShardWorker` is the parent-side handle bundling the process, its
ring, and its pipe; :meth:`ShardWorker.close` releases all three.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing.connection import Connection
from typing import Any

import numpy as np

from repro.core.batched import launch_stage1
from repro.core.preprocess import Preprocessor
from repro.fleet.events import FleetEvent
from repro.fleet.session import FrameItem
from repro.gateway.ingest import IngestSession
from repro.shard.messages import (
    AttachMsg,
    DetachAck,
    DetachMsg,
    ReadyMsg,
    ShardReport,
    StopMsg,
    StoppedMsg,
)
from repro.shard.metrics import JournalingRegistry
from repro.shard.ring import RingFrame, ShmRing

__all__ = ["ShardWorker", "mp_context", "shard_worker_main"]

#: Ring slots drained per tick (bounds the fused block and the zero-copy
#: window; a deeper backlog simply takes several ticks).
_TICK_MAX = 1024

#: Idle heartbeat cadence — the parent treats reports as liveness.
_HEARTBEAT_S = 0.2

#: Idle poll on the control pipe (doubles as the idle sleep).
_IDLE_POLL_S = 0.002


def mp_context() -> Any:
    """The start-method context shard workers use.

    Forkserver with a warmed preload (scipy, numpy, the detector stack)
    where the platform offers it — forks are then cheap and never
    inherit the parent's threads — falling back to spawn elsewhere.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload(["repro.shard._preload"])
        return ctx
    except ValueError:
        return multiprocessing.get_context("spawn")


class _ShardSession(IngestSession):
    """Worker-side detector session mirroring one parent session.

    An :class:`IngestSession` (same ``process_batch`` path, same metrics
    names, same events) plus the generation bridge: the *parent* owns
    the produce side (faults, restarts, generation bumps), so when
    stamped generations move past this mirror's, it starts the same new
    incarnation the parent did, and older-generation frames flush as
    stale through the inherited run splitting.
    """

    def adopt_generation(self, generation: int) -> None:
        """Mirror a parent-side restart: fresh detector, cold start."""
        if generation > self.generation:
            self._begin_incarnation(generation)


class _WorkerState:
    """Everything the worker loop tracks across ticks."""

    def __init__(self) -> None:
        self.registry = JournalingRegistry()
        self.outbox: list[FleetEvent] = []
        self.by_index: dict[int, _ShardSession] = {}
        self.by_id: dict[str, _ShardSession] = {}
        self.consumed: dict[str, int] = {}
        self.shipped_frames: dict[str, int] = {}
        self.shipped_restarts: dict[str, int] = {}

    def attach(self, msg: AttachMsg) -> None:
        session = _ShardSession(
            msg.session_id,
            n_bins=msg.n_bins,
            frame_rate_hz=msg.frame_rate_hz,
            config=msg.config,
            metrics=self.registry,
        )
        # Bring-up events (INIT → COLD_START) already happened on the
        # parent's own session object; suppress the mirror's duplicates
        # by wiring the sink only after start.
        session.start()
        session._sink = self.outbox.append
        self.by_index[msg.session_index] = session
        self.by_id[msg.session_id] = session
        self.consumed.setdefault(msg.session_id, 0)
        self.shipped_frames.setdefault(msg.session_id, 0)
        self.shipped_restarts.setdefault(msg.session_id, 0)

    def report(self) -> ShardReport:
        frames: dict[str, int] = {}
        restarts: dict[str, int] = {}
        states: dict[str, tuple[int, str]] = {}
        for sid, session in self.by_id.items():
            frame_delta = session.frames_processed - self.shipped_frames[sid]
            if frame_delta:
                frames[sid] = frame_delta
                self.shipped_frames[sid] = session.frames_processed
            restart_delta = session.restarts - self.shipped_restarts[sid]
            if restart_delta:
                restarts[sid] = restart_delta
                self.shipped_restarts[sid] = session.restarts
            states[sid] = (session.generation, session.state.value)
        # Copy-and-clear in place: session sinks hold a bound reference
        # to this exact list, so it must never be rebound.
        events = list(self.outbox)
        self.outbox.clear()
        return ShardReport(
            consumed=dict(self.consumed),
            frames=frames,
            restarts=restarts,
            events=events,
            states=states,
            metrics=self.registry.drain_delta(),
        )


def _drain_tick(ring: ShmRing, state: _WorkerState) -> int:
    """Drain one tick of ring slots through the detectors; slots consumed."""
    ring_frames = ring.peek(_TICK_MAX)
    if not ring_frames:
        return 0
    consumed = len(ring_frames)
    try:
        # Group slot positions, not frames: only ``ring_frames`` holds the
        # slots' shared-memory views, so clearing it releases every one.
        groups: dict[int, list[int]] = {}
        for k in range(consumed):
            groups.setdefault(ring_frames[k].session_index, []).append(k)
        routed: list[tuple[_ShardSession, Preprocessor, list[int]]] = []
        for index, slots in groups.items():
            session = state.by_index.get(index)
            if session is None:
                # A frame for a session this shard no longer (or never)
                # homes: consume it loudly, never wedge the ring.
                state.registry.counter("shard.unrouted_frames").inc(len(slots))
                continue
            session.adopt_generation(max(ring_frames[k].generation for k in slots))
            # Counted now, shipped by the report that follows this tick.
            state.consumed[session.session_id] += len(slots)
            if session.detector is not None:
                routed.append((session, session.detector.preprocessor, slots))
        blocks = [np.stack([ring_frames[k].frame for k in slots]) for _, _, slots in routed]
        for n, denoised in launch_stage1([pre for _, pre, _ in routed], blocks):
            session, _, slots = routed[n]
            try:
                session.process_batch(
                    [_item(ring_frames[k]) for k in slots],
                    enqueued_ats=[ring_frames[k].enqueued_at for k in slots],
                    denoised=denoised,
                )
            except Exception as exc:  # reprolint: disable=except-hygiene
                # Fault containment, as in the threaded worker: the fault
                # costs this session its slice and a detector restart;
                # the shard lives on to serve its other sessions.
                session.recover_from_error(exc, len(slots))
    finally:
        # Release the views before the slots are freed — and, should the
        # tick raise, before the dying worker closes the ring (the
        # traceback keeps this frame, and so this list, alive).
        ring_frames.clear()
    ring.advance(consumed)
    return consumed


def _item(rf: RingFrame) -> FrameItem:
    return (rf.generation, rf.timestamp_s, rf.frame)


def shard_worker_main(conn: Connection, ring_name: str) -> None:
    """Entry point of one shard worker process."""
    import repro.shard._preload  # noqa: F401  (no-op under forkserver preload)

    ring = ShmRing.attach(ring_name)
    state = _WorkerState()
    stopping = False
    try:
        conn.send(ReadyMsg(pid=os.getpid()))
        last_beat = time.monotonic()
        while True:
            while conn.poll(0):
                msg = conn.recv()
                if isinstance(msg, AttachMsg):
                    state.attach(msg)
                elif isinstance(msg, DetachMsg):
                    while _drain_tick(ring, state):
                        pass
                    session = state.by_id.get(msg.session_id)
                    if session is not None:
                        session.flush_detector()
                    # Build the final report *before* deregistering: the
                    # per-session frame/restart deltas walk ``by_id``, and
                    # the detach drain above is exactly what they cover.
                    final = state.report()
                    if session is not None:
                        del state.by_id[msg.session_id]
                        state.by_index = {
                            i: s for i, s in state.by_index.items() if s is not session
                        }
                        # The parent zeroes its side on detach, so a
                        # re-attach of this sid must also restart the
                        # worker's cumulative accounting from zero.
                        state.consumed.pop(msg.session_id, None)
                        state.shipped_frames.pop(msg.session_id, None)
                        state.shipped_restarts.pop(msg.session_id, None)
                    conn.send(DetachAck(msg.session_id, final))
                elif isinstance(msg, StopMsg):
                    stopping = True
            worked = _drain_tick(ring, state)
            now = time.monotonic()
            if worked or now - last_beat >= _HEARTBEAT_S:
                conn.send(state.report())
                last_beat = now
            if stopping and ring.size == 0:
                conn.send(StoppedMsg(state.report()))
                return
            if not worked and not stopping:
                conn.poll(_IDLE_POLL_S)
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        # Parent gone (or tearing down): nothing to report to, exit.
        pass
    finally:
        state.by_index.clear()
        state.by_id.clear()
        ring.close()
        conn.close()


class ShardWorker:
    """Parent-side handle for one shard: process + ring + control pipe.

    Release with :meth:`close` — it joins (or, past the grace window,
    kills) the process, closes the pipe, and closes **and unlinks** the
    shared-memory ring, so no segment outlives the fleet.
    """

    def __init__(
        self,
        shard_index: int,
        ring_slots: int,
        slot_bytes: int,
        ctx: Any | None = None,
    ) -> None:
        self.shard_index = shard_index
        self.ring = ShmRing.create(ring_slots, slot_bytes)
        context = ctx if ctx is not None else mp_context()
        self.conn, child_conn = context.Pipe()
        self._send_lock = threading.Lock()
        self.ready = False
        self.stop_requested = False
        self.stopped = False
        self.last_seen = time.monotonic()
        self.process = context.Process(
            target=shard_worker_main,
            args=(child_conn, self.ring.name),
            name=f"repro-shard-{shard_index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def alive(self) -> bool:
        """True while the worker process runs."""
        return self.process.is_alive()

    def send(self, msg: object) -> bool:
        """Send a control message; False when the worker is unreachable."""
        try:
            with self._send_lock:
                self.conn.send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    def close(self, grace_s: float = 2.0) -> None:
        """Release the process, pipe, and ring (idempotent, never raises)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=grace_s)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=grace_s)
        try:
            self.conn.close()
        except OSError:
            pass
        self.ring.close()
        self.ring.unlink()
