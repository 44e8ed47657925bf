"""One poison frame costs its session one batch, on both backends.

A NaN frame passes ``check_frame`` (right shape, right dtype) and then
makes the detector's circle fit raise. Both backends contain that the
same way, through ``DetectorSession.recover_from_error``: the failing
batch's unsettled frames are counted as ``dropped_error``, the session
gets a fresh cold-start detector at the same generation (one ``"error"``
restart), and the frames queued behind the poison are still processed.
The session sharing the worker with it (the same thread pool, or the
same shard and the same fused stage-1 launch) is untouched.
"""

from __future__ import annotations

import time

import pytest

from repro.fleet.events import FrameDropEvent, RestartEvent, StateChangeEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.scheduler import FleetScheduler
from repro.gateway.ingest import IngestSession
from repro.shard.fleet import ShardedFleet
from tests.core.test_batched_equivalence import scene

_FPS = 25.0
_N_FRAMES = 400
_N_BINS = 36
_POISON = 61
#: Frames submitted before waiting for the backend to drain: a second
#: of stream, so a shard tick never swallows the whole stream at once.
_CHUNK = 25


def _backend(kind: str):
    if kind == "threaded":
        backend = FleetScheduler([], workers=2, metrics=MetricsRegistry())
    else:
        backend = ShardedFleet([], workers=1, queue_depth=1024, slot_bins=_N_BINS)
    backend.start()
    return backend


def _wait_idle(backend, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not backend.idle():
        assert time.monotonic() < deadline, "backend never drained"
        time.sleep(0.002)


def _serve(kind: str, worlds: dict[str, object]):
    """Stream every world through one backend; returns (sessions, metrics)."""
    backend = _backend(kind)
    try:
        sessions = {}
        for sid in worlds:
            session = IngestSession(sid, n_bins=_N_BINS, frame_rate_hz=_FPS, metrics=backend.metrics)
            session.start()
            backend.attach(session)
            sessions[sid] = session
        for start in range(0, _N_FRAMES, _CHUNK):
            for sid, frames in worlds.items():
                for k in range(start, min(start + _CHUNK, _N_FRAMES)):
                    assert backend.submit(sid, sessions[sid].make_item(k / _FPS, frames[k]))
            _wait_idle(backend)
        for sid, session in sessions.items():
            assert backend.detach(sid) == 0
            session.close()
    finally:
        backend.stop()
    return sessions, backend.metrics


def _outputs(session):
    return (
        [(e.frame_index, e.time_s, e.prominence) for e in session.blink_events],
        session.frames_processed,
        session.restarts,
    )


@pytest.fixture(scope="module")
def worlds():
    return {
        "bad": scene(0, _N_FRAMES, _N_BINS, 21, nan_frames=(_POISON,)),
        "good": scene(1, _N_FRAMES, _N_BINS, 21),
    }


@pytest.mark.parametrize("kind", ["threaded", "sharded"])
def test_poison_frame_costs_one_batch(kind, worlds):
    sessions, metrics = _serve(kind, worlds)
    bad = sessions["bad"]

    drops = [e for e in bad.events if isinstance(e, FrameDropEvent)]
    assert {e.where for e in drops} == {"error"}
    lost = sum(e.n_dropped for e in drops)
    assert 0 < lost <= _CHUNK
    # Conservation: submitted = processed + dropped.
    assert bad.frames_processed + lost == _N_FRAMES
    assert metrics.counter("session.bad.dropped_error").value == lost
    assert metrics.counter("fleet.dropped_error").value == lost

    error_restarts = [
        k for k, e in enumerate(bad.events) if isinstance(e, RestartEvent) and e.reason == "error"
    ]
    assert len(error_restarts) == 1
    # The fresh detector took the frames queued behind the poison: the
    # lost batch contains frame 61, so more than 61 processed frames
    # means some came after it, and the new detector got through its
    # cold start (a later transition to RUNNING).
    assert bad.frames_processed > _POISON
    assert any(
        isinstance(e, StateChangeEvent) and e.new_state == "running"
        for e in bad.events[error_restarts[0] :]
    )

    good = sessions["good"]
    clean, _ = _serve(kind, {"good": worlds["good"]})
    assert _outputs(good) == _outputs(clean["good"])
    assert good.frames_processed == _N_FRAMES
    assert metrics.counter("session.good.dropped_error").value == 0
    if kind == "sharded":
        assert metrics.counter("fleet.shard_crashes").value == 0


def test_a_tick_that_raises_releases_the_ring_views(monkeypatch):
    """An exception that escapes a tick must not pin the shared segment:
    the dying worker still has to close its ring."""
    import repro.shard.worker as worker
    from repro.shard.messages import AttachMsg
    from repro.shard.ring import ShmRing, encode_slot, slot_bytes_for

    state = worker._WorkerState()
    state.attach(AttachMsg(0, "v", _N_BINS, _FPS, None))
    frames = scene(2, 4, _N_BINS, 21)

    def stage1_fault(*args, **kwargs):
        raise RuntimeError("stage-1 fault")

    monkeypatch.setattr(worker, "launch_stage1", stage1_fault)
    ring = ShmRing.create(8, slot_bytes_for(_N_BINS))
    try:
        for k, frame in enumerate(frames):
            assert ring.push(encode_slot(0, 1, 0.0, k / _FPS, frame))
        with pytest.raises(RuntimeError, match="stage-1 fault") as raised:
            worker._drain_tick(ring, state)
        # The traceback, and every frame on it, is still alive here.
        assert raised.value.__traceback__ is not None
    finally:
        ring.close()
        ring.unlink()
