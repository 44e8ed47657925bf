"""`ShardedFleet`: the process-sharded drop-in fleet backend.

Implements the :class:`~repro.fleet.scheduler.FleetScheduler` serve-mode
surface — ``start``/``stop``/``attach``/``detach``/``submit``/
``drained``/``idle`` plus the ``queue_depths``/``dropped`` inspection
pair — over a pool of shard worker *processes* instead of a thread pool,
so the gateway and the fleet CLI switch backends without changing a
line of their own code.

Topology::

    parent process                         worker processes
    ──────────────                         ────────────────
    submit() ──encode──▶ ShmRing[shard] ──▶ drain tick ─▶ fused stage-1
                                           │              + stateful walks
    supervisor thread ◀── pipe ─────────── ShardReport / heartbeat
      │ apply results, metrics deltas,
      │ events onto parent sessions
      └─ crash watch: respawn + re-home

Accounting invariants:

- Every submitted frame is **accepted** (pushed onto its shard's ring)
  or **dropped** (ring full — counted, evented, ``submit`` returns
  False). Every accepted frame is eventually **consumed** (the worker
  processed or stale-flushed it) or — only if its shard dies first —
  counted as a crash loss. ``drained(sid)`` is exactly
  ``consumed >= accepted``, and reports ship *after* processing, so a
  drained session's results are already visible parent-side.
- A SIGKILLed worker costs precisely its own ring's in-flight slots:
  the supervisor counts them (``fleet.dropped_crash``), spawns a
  replacement shard, re-homes the dead shard's sessions onto it, and
  fails any parent call waiting on the dead worker — sessions on other
  shards never stall, and no parent call blocks unboundedly.
"""

from __future__ import annotations

import threading
import time
from multiprocessing.connection import wait as connection_wait
from typing import Any

import numpy as np

from repro.fleet.events import BlinkEvent, FleetEvent, FrameDropEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.session import DetectorSession, FrameItem, SessionState
from repro.shard.messages import (
    AttachMsg,
    DetachAck,
    DetachMsg,
    ReadyMsg,
    ShardReport,
    StopMsg,
    StoppedMsg,
)
from repro.shard.metrics import apply_delta
from repro.shard.ring import encode_slot, slot_bytes_for
from repro.shard.worker import ShardWorker, mp_context

__all__ = ["ShardedFleet"]

#: Supervisor multiplexing cadence over the worker pipes.
_SUPERVISE_POLL_S = 0.05

#: Bound on any parent call waiting for a worker acknowledgement. Crash
#: detection normally resolves the wait far earlier; the timeout is the
#: no-deadlock backstop, not the expected path.
_OP_TIMEOUT_S = 60.0

#: Respawn-storm backstop: past this many shard restarts the fleet stops
#: replacing corpses (an environment that kills every worker would
#: otherwise respawn forever). Sessions homed on the unreplaced shard
#: are unhomed — their accounting is settled so ``drained`` stays true,
#: and further ``submit`` calls raise ``KeyError``.
_MAX_RESPAWNS = 32


class ShardedFleet:
    """Drive many detector sessions across shard worker processes.

    Parameters mirror :class:`~repro.fleet.scheduler.FleetScheduler`:

    sessions:
        Pre-registered fleet (attached to shards on :meth:`start`;
        still-INIT sessions are started there). Empty is legal — the
        gateway attaches sessions at runtime.
    workers:
        Shard *processes* (each also drains its ring on its own core).
    queue_depth:
        Ring slots per shard — the same backpressure threshold role the
        per-session queue bound plays in the threaded scheduler, but
        shared by the shard's sessions and shedding the *newest* frame
        when full (an SPSC producer cannot evict past the consumer).
    metrics:
        Parent-side registry; worker deltas aggregate into it, so
        Prometheus rendering spans every process.
    slot_bins:
        Largest frame (fast-time bins) a ring slot must carry. Sessions
        declaring more bins than this are rejected at attach.
    """

    def __init__(
        self,
        sessions: list[DetectorSession] | None = None,
        workers: int = 4,
        queue_depth: int = 1024,
        metrics: MetricsRegistry | None = None,
        slot_bins: int = 256,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._initial_sessions = list(sessions) if sessions else []
        max_bins = max(
            [slot_bins] + [s.n_bins for s in self._initial_sessions]
        )
        self.slot_bins = max_bins
        self._slot_bytes = slot_bytes_for(max_bins)
        self._cond = threading.Condition()
        self._pool: list[ShardWorker] = []  # reprolint: guarded-by(_cond)
        self._assign: dict[str, ShardWorker] = {}  # reprolint: guarded-by(_cond)
        self._index_of: dict[str, int] = {}  # reprolint: guarded-by(_cond)
        self._sessions: dict[str, DetectorSession] = {}  # reprolint: guarded-by(_cond)
        self._accepted: dict[str, int] = {}  # reprolint: guarded-by(_cond)
        self._consumed: dict[str, int] = {}  # reprolint: guarded-by(_cond)
        #: Consumed frames credited from *previous* shard epochs: a
        #: replacement worker's cumulative counts restart at zero, so
        #: reports merge as base + reported. Bumped on every re-home.
        self._consumed_base: dict[str, int] = {}  # reprolint: guarded-by(_cond)
        self._dropped: dict[str, int] = {}  # reprolint: guarded-by(_cond)
        self._detach_acks: dict[str, DetachAck] = {}  # reprolint: guarded-by(_cond)
        self._pending_detach: dict[str, ShardWorker] = {}  # reprolint: guarded-by(_cond)
        self._next_index = 0
        self._next_shard = 0
        self._respawns = 0  # reprolint: guarded-by(_cond)
        self._started = False
        self._supervisor: threading.Thread | None = None
        self._closing = threading.Event()

    # ----------------------------------------------------------- serve surface
    def start(self, start_timeout_s: float = 120.0) -> None:
        """Spawn the shard workers and wait until every one is warm.

        Blocking: worker start-up pays the interpreter + scipy imports
        (amortised by the forkserver preload where available), and
        waiting here keeps that cost out of the first frames' latency.
        """
        with self._cond:
            if self._started:
                raise RuntimeError("scheduler already running")
            self._started = True
        self._closing.clear()
        ctx = mp_context()
        pool = [self._spawn_worker(ctx) for _ in range(self.workers)]
        with self._cond:
            self._pool = pool
        supervisor = threading.Thread(
            target=self._supervise, name="shard-supervisor", daemon=True
        )
        with self._cond:
            self._supervisor = supervisor
        supervisor.start()
        deadline = time.monotonic() + start_timeout_s
        with self._cond:
            while not all(w.ready for w in self._pool):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(0.1, remaining))
            all_ready = all(w.ready for w in self._pool)
            late = [w.shard_index for w in self._pool if not w.ready]
        if not all_ready:
            self.stop()
            raise RuntimeError(f"shard workers never became ready: {late}")
        for session in self._initial_sessions:
            if session.state is SessionState.INIT:
                session.start()
            self.attach(session)
        self._initial_sessions = []

    def stop(self) -> None:
        """Drain every ring, stop and release every worker (idempotent).

        Attached sessions are *not* closed — they are externally owned,
        exactly as in the threaded scheduler's serve mode. Flush a
        session's pending detection state with :meth:`detach` first.
        """
        with self._cond:
            if not self._started:
                return
            pool = list(self._pool)
        for worker in pool:
            worker.stop_requested = True
            worker.send(StopMsg())
        deadline = time.monotonic() + _OP_TIMEOUT_S
        with self._cond:
            while any(w.stopped is False and w.alive() for w in pool):
                if not self._cond.wait(timeout=0.1) and time.monotonic() > deadline:
                    break
        self._closing.set()
        with self._cond:
            supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(timeout=_OP_TIMEOUT_S)
        for worker in pool:
            worker.close()
        with self._cond:
            self._pool = []
            self._started = False
            self._supervisor = None

    def attach(self, session: DetectorSession) -> None:
        """Home an externally-owned session on the least-loaded shard."""
        if session.n_bins > self.slot_bins:
            raise ValueError(
                f"session {session.session_id!r} declares {session.n_bins} bins; "
                f"ring slots carry at most {self.slot_bins}"
            )
        with self._cond:
            if not self._started:
                raise RuntimeError("fleet is not started")
            sid = session.session_id
            if sid in self._sessions:
                raise ValueError(f"duplicate session id {sid!r}")
            loads = {id(w): 0 for w in self._pool}
            for homed_worker in self._assign.values():
                loads[id(homed_worker)] = loads.get(id(homed_worker), 0) + 1
            worker = min(self._pool, key=lambda w: loads[id(w)])
            index = self._next_index
            self._next_index += 1
            self._sessions[sid] = session
            self._assign[sid] = worker
            self._index_of[sid] = index
            self._accepted.setdefault(sid, 0)
            self._consumed.setdefault(sid, 0)
            self._dropped.setdefault(sid, 0)
        worker.send(self._attach_msg(session, index))

    def detach(self, session_id: str) -> int:
        """Flush and unhome a session; returns frames lost on the way.

        The shard drains its ring, flushes the session's pending
        detection state, and ships a final report before the ack — so
        after ``detach`` returns, every event the session ever produced
        is applied parent-side. Returns 0 on the clean path; non-zero
        only when the shard died mid-detach (its in-flight slots).
        """
        with self._cond:
            worker = self._assign.pop(session_id, None)
            if worker is None:
                raise KeyError(f"unknown session id {session_id!r}")
            self._pending_detach[session_id] = worker
        if not worker.send(DetachMsg(session_id)):
            # Unreachable worker: the supervisor's crash path will (or
            # already did) synthesize the ack; fall through to the wait.
            pass
        deadline = time.monotonic() + _OP_TIMEOUT_S
        with self._cond:
            while session_id not in self._detach_acks:
                if not self._cond.wait(timeout=0.1) and time.monotonic() > deadline:
                    raise TimeoutError(f"shard never acknowledged detach of {session_id!r}")
            self._detach_acks.pop(session_id)
            self._pending_detach.pop(session_id, None)
            self._sessions.pop(session_id, None)
            self._index_of.pop(session_id, None)
            lost = self._accepted.pop(session_id, 0) - self._consumed.pop(session_id, 0)
            self._consumed_base.pop(session_id, None)
            self._dropped.pop(session_id, None)
            return max(0, lost)

    def submit(self, session_id: str, item: FrameItem) -> bool:
        """Non-blocking ingest of one produced frame item.

        Encodes the frame into a checksummed ring slot and publishes it
        to the session's shard. True when accepted; False when the ring
        was full and the frame was shed (counted and evented exactly as
        the threaded scheduler's queue drops are). A frame the session
        cannot take (see
        :meth:`~repro.fleet.session.DetectorSession.check_frame`) raises
        :class:`ValueError` before anything is enqueued.
        """
        generation, timestamp_s, frame = item
        with self._cond:
            worker = self._assign.get(session_id)
            if worker is None:
                raise KeyError(f"unknown session id {session_id!r}")
            session = self._sessions[session_id]
            session.check_frame(frame)
            index = self._index_of[session_id]
            slot = encode_slot(
                index,
                generation,
                time.perf_counter(),
                timestamp_s,
                np.ascontiguousarray(frame),
            )
            accepted = worker.ring.push(slot)
            if accepted:
                self._accepted[session_id] += 1
            else:
                self._dropped[session_id] += 1
            depth = self._accepted[session_id] - self._consumed.get(session_id, 0)
        self.metrics.gauge(f"session.{session_id}.queue_depth").set(depth)
        if not accepted:
            self.metrics.counter(f"session.{session_id}.dropped_queue").inc()
            self.metrics.counter("fleet.dropped_queue").inc()
            session._emit(FrameDropEvent(session_id, timestamp_s, 1, where="queue"))
        return accepted

    def drained(self, session_id: str) -> bool:
        """True when every accepted frame has been consumed by its shard."""
        with self._cond:
            if session_id not in self._sessions:
                raise KeyError(f"unknown session id {session_id!r}")
            return self._consumed.get(session_id, 0) >= self._accepted.get(session_id, 0)

    def idle(self) -> bool:
        """True when every session is drained."""
        with self._cond:
            return all(
                self._consumed.get(sid, 0) >= self._accepted.get(sid, 0)
                for sid in self._sessions
            )

    # -------------------------------------------------------------- inspection
    def queue_depths(self) -> dict[str, int]:
        """In-flight (accepted, not yet consumed) frames per session id."""
        with self._cond:
            return {
                sid: self._accepted.get(sid, 0) - self._consumed.get(sid, 0)
                for sid in self._sessions
            }

    def dropped(self) -> dict[str, int]:
        """Ring-full drops per session id since attach."""
        with self._cond:
            return dict(self._dropped)

    def shards(self) -> dict[int, list[str]]:
        """Session ids homed on each live shard (shard index keyed)."""
        with self._cond:
            out: dict[int, list[str]] = {w.shard_index: [] for w in self._pool}
            for sid, worker in self._assign.items():
                out.setdefault(worker.shard_index, []).append(sid)
            return out

    # -------------------------------------------------------------- supervisor
    def _spawn_worker(self, ctx: Any) -> ShardWorker:
        worker = ShardWorker(self._next_shard, self.queue_depth, self._slot_bytes, ctx)
        self._next_shard += 1
        return worker

    def _attach_msg(self, session: DetectorSession, index: int) -> AttachMsg:
        return AttachMsg(
            session_index=index,
            session_id=session.session_id,
            n_bins=session.n_bins,
            frame_rate_hz=session.frame_rate_hz,
            config=session.config,
        )

    def _supervise(self) -> None:
        """Multiplex worker pipes; apply reports; watch for crashes."""
        while not self._closing.is_set():
            with self._cond:
                live = [w for w in self._pool if w.alive() or w.conn.poll(0)]
            conns = {w.conn: w for w in live}
            if not conns:
                if self._closing.wait(timeout=_SUPERVISE_POLL_S):
                    return
                self._check_crashes()
                continue
            for conn in connection_wait(list(conns), timeout=_SUPERVISE_POLL_S):
                worker = conns[conn]  # type: ignore[index]
                try:
                    msg = conn.recv()  # type: ignore[union-attr]
                except (EOFError, OSError):
                    continue  # liveness check below handles the corpse
                worker.last_seen = time.monotonic()
                self._handle_message(worker, msg)
            self._check_crashes()

    def _handle_message(self, worker: ShardWorker, msg: object) -> None:
        if isinstance(msg, ReadyMsg):
            with self._cond:
                worker.ready = True
                self._cond.notify_all()
        elif isinstance(msg, ShardReport):
            self._apply_report(msg)
        elif isinstance(msg, DetachAck):
            self._apply_report(msg.report)
            with self._cond:
                self._detach_acks[msg.session_id] = msg
                self._cond.notify_all()
        elif isinstance(msg, StoppedMsg):
            self._apply_report(msg.report)
            with self._cond:
                worker.stopped = True
                self._cond.notify_all()

    def _apply_report(self, report: ShardReport) -> None:
        """Fold one worker report into parent sessions and metrics."""
        apply_delta(self.metrics, report.metrics)
        with self._cond:
            sessions = dict(self._sessions)
        for sid, delta in report.frames.items():
            session = sessions.get(sid)
            if session is not None:
                session.frames_processed += delta
        for sid, delta in report.restarts.items():
            session = sessions.get(sid)
            if session is not None:
                session.restarts += delta
        for event in report.events:
            self._apply_event(sessions.get(event.session_id), event)
        for sid, (generation, state_value) in report.states.items():
            session = sessions.get(sid)
            if session is not None:
                self._mirror_state(session, generation, state_value)
        with self._cond:
            for sid, consumed in report.consumed.items():
                rebased = self._consumed_base.get(sid, 0) + consumed
                if rebased > self._consumed.get(sid, 0):
                    self._consumed[sid] = rebased
            self._cond.notify_all()

    def _apply_event(self, session: DetectorSession | None, event: FleetEvent) -> None:
        if session is None:
            return
        if isinstance(event, BlinkEvent):
            session.blink_events.append(event)
        session._emit(event)

    def _mirror_state(
        self, session: DetectorSession, generation: int, state_value: str
    ) -> None:
        # Generation-guarded, and never resurrects a stopped session:
        # the parent owns INIT/STOPPED, the worker owns the running
        # cycle (COLD_START ⇄ RUNNING) in between.
        new_state = SessionState(state_value)
        if new_state in (SessionState.INIT, SessionState.STOPPED):
            return
        with session._lock:
            if session._generation != generation:
                return
            if session._state in (SessionState.INIT, SessionState.STOPPED):
                return
            session._state = new_state

    def _check_crashes(self) -> None:
        with self._cond:
            dead = [
                w
                for w in self._pool
                if not w.alive() and not w.stop_requested and not w.stopped
            ]
        for worker in dead:
            self._restart_shard(worker)

    def _restart_shard(self, worker: ShardWorker) -> None:
        """Crash path: account losses, respawn, re-home (see module doc)."""
        with self._cond:
            if worker not in self._pool:
                return
            homed = [sid for sid, w in self._assign.items() if w is worker]
            for sid in homed:
                lost = self._accepted.get(sid, 0) - self._consumed.get(sid, 0)
                if lost > 0:
                    # The dead shard's in-flight ring slots: the only
                    # frames a crash may cost, per the loss contract.
                    self._consumed[sid] = self._accepted[sid]
                    self.metrics.counter(f"session.{sid}.dropped_crash").inc(lost)
                    self.metrics.counter("fleet.dropped_crash").inc(lost)
                    session = self._sessions.get(sid)
                    if session is not None:
                        session._emit(FrameDropEvent(sid, session.time_s, lost, where="crash"))
                # Replacement workers count consumed frames from zero:
                # credit everything up to the crash as this epoch's base.
                self._consumed_base[sid] = self._accepted.get(sid, 0)
            # Fail any call waiting on the corpse.
            for sid, pending_worker in list(self._pending_detach.items()):
                if pending_worker is worker:
                    self._detach_acks[sid] = DetachAck(sid, ShardReport())
                    self._pending_detach.pop(sid)
            self.metrics.counter("fleet.shard_crashes").inc()
            if self._respawns >= _MAX_RESPAWNS:
                self._pool = [w for w in self._pool if w is not worker]
                for sid in homed:
                    self._assign.pop(sid, None)
                self._cond.notify_all()
                worker.close()
                return
            self._respawns += 1
            replacement = self._spawn_worker(mp_context())
            self._pool = [replacement if w is worker else w for w in self._pool]
            for sid in homed:
                self._assign[sid] = replacement
            attach_msgs = [
                self._attach_msg(self._sessions[sid], self._index_of[sid])
                for sid in homed
                if sid in self._sessions
            ]
            self._cond.notify_all()
        for msg in attach_msgs:
            replacement.send(msg)
        worker.close()
