"""ShardedFleet: serve-surface parity, bit-identity, backpressure.

The sharded backend must be a drop-in for the threaded scheduler's
serve mode: same call surface, same error contract, same accounting —
and, the tentpole acceptance bar, *bit-identical* blink events on the
same frames, because the workers run the exact same detector code over
the exact same bytes (the ring's checksummed ``.rst`` chunk framing).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.fleet.events import FrameDropEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.scheduler import FleetScheduler
from repro.gateway.ingest import IngestSession
from repro.shard.fleet import ShardedFleet

_N_BINS = 32
_FPS = 25.0


def _session(session_id: str, metrics=None, n_bins: int = _N_BINS) -> IngestSession:
    session = IngestSession(
        session_id, n_bins=n_bins, frame_rate_hz=_FPS, metrics=metrics
    )
    session.start()
    return session


def _frames(session: IngestSession, count: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    for k in range(count):
        frame = (
            rng.standard_normal(session.n_bins)
            + 1j * rng.standard_normal(session.n_bins)
        ).astype(np.complex64)
        yield session.make_item(k / _FPS, frame)


def _wait_idle(fleet, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not fleet.idle():
        assert time.monotonic() < deadline, "sharded fleet never drained"
        time.sleep(0.005)


@pytest.fixture(scope="module")
def fleet():
    """One warm 2-shard fleet shared by the surface tests (worker
    start-up costs seconds; the tests attach/detach their own sessions)."""
    fleet = ShardedFleet([], workers=2, queue_depth=1024, slot_bins=256)
    fleet.start()
    yield fleet
    fleet.stop()


class TestServeSurfaceParity:
    def test_submit_processes_through_worker_processes(self, fleet):
        session = _session("p0", fleet.metrics)
        fleet.attach(session)
        try:
            for item in _frames(session, 40):
                assert fleet.submit("p0", item)
            _wait_idle(fleet)
            assert session.frames_processed == 40
        finally:
            assert fleet.detach("p0") == 0
            session.close()

    def test_duplicate_attach_raises_value_error(self, fleet):
        session = _session("p1")
        fleet.attach(session)
        try:
            other = _session("p1")
            with pytest.raises(ValueError, match="duplicate"):
                fleet.attach(other)
            other.close()
        finally:
            fleet.detach("p1")
            session.close()

    def test_unknown_session_raises_key_error(self, fleet):
        with pytest.raises(KeyError):
            fleet.submit("ghost", (1, 0.0, np.zeros(_N_BINS, np.complex64)))
        with pytest.raises(KeyError):
            fleet.drained("ghost")
        with pytest.raises(KeyError):
            fleet.detach("ghost")

    def test_oversized_session_rejected_at_attach(self, fleet):
        session = _session("wide", n_bins=512)
        with pytest.raises(ValueError, match="bins"):
            fleet.attach(session)
        session.close()

    def test_sessions_spread_across_shards(self, fleet):
        sessions = [_session(f"spread{i}") for i in range(4)]
        for session in sessions:
            fleet.attach(session)
        try:
            homes = fleet.shards()
            assert sorted(len(v) for v in homes.values()) == [2, 2]
        finally:
            for session in sessions:
                fleet.detach(session.session_id)
                session.close()

    def test_detach_flushes_results_before_returning(self, fleet):
        session = _session("flush0")
        fleet.attach(session)
        for item in _frames(session, 30):
            fleet.submit("flush0", item)
        # No explicit drain wait: detach itself must drain the ring and
        # apply every result before it returns.
        assert fleet.detach("flush0") == 0
        assert session.frames_processed == 30
        session.close()

    def test_queue_depths_and_dropped_inspection(self, fleet):
        session = _session("q0")
        fleet.attach(session)
        try:
            _wait_idle(fleet)
            assert fleet.queue_depths()["q0"] == 0
            assert fleet.dropped()["q0"] == 0
        finally:
            fleet.detach("q0")
            session.close()

    @pytest.mark.parametrize(
        "frame",
        [
            np.zeros(_N_BINS - 1, dtype=np.complex64),
            np.zeros(_N_BINS, dtype=np.float64),
            np.zeros(_N_BINS, dtype=">c8"),
            [0j] * _N_BINS,
        ],
        ids=["length", "dtype", "byteorder", "list"],
    )
    def test_bad_frame_rejected_before_enqueue(self, fleet, frame):
        session = _session("bad0")
        fleet.attach(session)
        try:
            with pytest.raises(ValueError):
                fleet.submit("bad0", session.make_item(0.0, frame))
            for item in _frames(session, 3):
                assert fleet.submit("bad0", item)
            _wait_idle(fleet)
            assert session.frames_processed == 3
            assert fleet.dropped()["bad0"] == 0
        finally:
            assert fleet.detach("bad0") == 0
            session.close()

    def test_double_start_raises(self, fleet):
        with pytest.raises(RuntimeError):
            fleet.start()

    def test_attach_before_start_raises(self):
        cold = ShardedFleet([], workers=1, slot_bins=_N_BINS)
        session = _session("cold0")
        with pytest.raises(RuntimeError):
            cold.attach(session)
        session.close()


class TestBackpressure:
    def test_ring_full_sheds_newest_with_conservation(self, fleet):
        # A 1024-slot ring won't fill against live workers; build a tiny
        # dedicated fleet whose ring holds 2 frames.
        tiny = ShardedFleet([], workers=1, queue_depth=2, slot_bins=_N_BINS)
        tiny.start()
        session = _session("bp0", tiny.metrics)
        tiny.attach(session)
        try:
            submitted, accepted = 0, 0
            for item in _frames(session, 400):
                submitted += 1
                if tiny.submit("bp0", item):
                    accepted += 1
            _wait_idle(tiny)
            dropped = tiny.dropped()["bp0"]
            # Conservation: every submitted frame either processed or
            # counted (and evented) as shed — none vanish.
            assert accepted + dropped == submitted
            assert session.frames_processed == accepted
            assert dropped > 0, "2-slot ring never filled: smoke misconfigured"
            queue_drops = [
                e
                for e in session.events
                if isinstance(e, FrameDropEvent) and e.where == "queue"
            ]
            assert sum(e.n_dropped for e in queue_drops) == dropped
            assert tiny.metrics.counter("session.bp0.dropped_queue").value == dropped
        finally:
            tiny.detach("bp0")
            tiny.stop()
            session.close()


class TestBitIdentity:
    @pytest.mark.parametrize("trace_name", ["lab_trace", "drowsy_trace"])
    def test_blink_events_identical_to_threaded(self, fleet, trace_name, request):
        """The acceptance gate: same frames, same events, bit for bit.

        Golden realisations (seeded simulations, the same traces the
        scalar-path goldens were captured from) stream through both
        backends; every blink's frame index, apex time and prominence
        must match exactly.
        """
        trace = request.getfixturevalue(trace_name)
        frames = trace.frames[:500]

        def run_threaded():
            metrics = MetricsRegistry()
            scheduler = FleetScheduler([], workers=2, metrics=metrics)
            scheduler.start()
            session = _session("golden", metrics, n_bins=trace.n_bins)
            scheduler.attach(session)
            for k in range(len(frames)):
                assert scheduler.submit(
                    "golden", session.make_item(k / trace.frame_rate_hz, frames[k])
                )
            deadline = time.monotonic() + 60
            while not scheduler.drained("golden"):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            scheduler.detach("golden")
            scheduler.stop()
            # Snapshot *after* close: close() flushes the detector's
            # pending blink, which sharded detach performs worker-side.
            session.close()
            return list(session.blink_events)

        def run_sharded():
            session = _session("golden", fleet.metrics, n_bins=trace.n_bins)
            fleet.attach(session)
            for k in range(len(frames)):
                assert fleet.submit(
                    "golden", session.make_item(k / trace.frame_rate_hz, frames[k])
                )
            _wait_idle(fleet)
            fleet.detach("golden")
            events = list(session.blink_events)
            session.close()
            return events

        threaded = run_threaded()
        sharded = run_sharded()
        assert [(e.frame_index, e.time_s, e.prominence) for e in sharded] == [
            (e.frame_index, e.time_s, e.prominence) for e in threaded
        ]
        assert len(threaded) > 0, "trace produced no blinks: gate is vacuous"


def _tick_worker(specs):
    """A shard worker's tick state, in process: ``specs`` are
    ``(session_id, n_bins, SessionConfig | None)`` attached as indices 0.."""
    from repro.shard.messages import AttachMsg
    from repro.shard.worker import _WorkerState

    state = _WorkerState()
    for index, (sid, n_bins, config) in enumerate(specs):
        state.attach(AttachMsg(index, sid, n_bins, _FPS, config))
    return state


def _run_ticks(state, slots, n_bins):
    """Push encoded slots through a ring and drain them tick by tick."""
    from repro.shard.ring import ShmRing, encode_slot, slot_bytes_for
    from repro.shard.worker import _drain_tick

    ring = ShmRing.create(64, slot_bytes_for(n_bins))
    try:
        for start in range(0, len(slots), 64):
            for index, generation, t, frame in slots[start : start + 64]:
                assert ring.push(encode_slot(index, generation, 0.0, t, frame))
            while _drain_tick(ring, state):
                pass
    finally:
        ring.close()
        ring.unlink()


def _solo(sid, frames, config=None):
    """The same frames through one ingest session, one block, then flushed."""
    session = IngestSession(sid, n_bins=frames.shape[1], frame_rate_hz=_FPS, config=config)
    session.start()
    session.process_batch([session.make_item(k / _FPS, f) for k, f in enumerate(frames)])
    session.flush_detector()
    return session


def _blinks(session):
    return [(e.frame_index, e.time_s, e.prominence) for e in session.blink_events]


class TestWorkerTick:
    """The worker's tick: routing, the shared stage-1 launcher, mirrors."""

    def test_mixed_preprocessor_configs_not_fused(self, lab_trace, monkeypatch):
        from repro.core.preprocess import Preprocessor, PreprocessorConfig
        from repro.core.realtime import RealTimeConfig
        from repro.fleet.session import SessionConfig

        narrow = SessionConfig(
            detector=RealTimeConfig(
                preprocessor=PreprocessorConfig(subtract_background=False, smooth_window=8)
            )
        )
        frames = lab_trace.frames[:400]
        n_bins = frames.shape[1]
        configs = {"m0": None, "m1": narrow, "m2": None}
        state = _tick_worker([(sid, n_bins, c) for sid, c in configs.items()])
        launches = []
        original = Preprocessor.denoise_block

        def spy(self, block):
            launches.append((self.config, len(block)))
            return original(self, block)

        monkeypatch.setattr(Preprocessor, "denoise_block", spy)
        slots = [(i, 1, k / _FPS, frames[k]) for k in range(len(frames)) for i in range(3)]
        _run_ticks(state, slots, n_bins)
        monkeypatch.undo()

        default = RealTimeConfig().preprocessor
        narrow_pre = narrow.detector.preprocessor
        assert {c for c, _ in launches} == {default, narrow_pre}
        # Ticks of 64 slots: the two default-config sessions fuse, the
        # narrow one launches alone — never in a mixed row matrix.
        default_rows = [n for c, n in launches if c == default]
        narrow_rows = [n for c, n in launches if c == narrow_pre]
        assert sum(default_rows) == 2 * sum(narrow_rows) == 2 * len(frames)
        assert len(default_rows) == len(narrow_rows)  # one launch per tick each
        for sid, config in configs.items():
            mirror = state.by_id[sid]
            mirror.flush_detector()
            assert _blinks(mirror) == _blinks(_solo(sid, frames, config))
            assert mirror.frames_processed == len(frames)
        assert _blinks(state.by_id["m0"]), "trace produced no blinks: gate is vacuous"

    def test_forced_group_split_bit_identical(self, drowsy_trace, monkeypatch):
        import repro.core.batched as batched

        frames = drowsy_trace.frames[:300]
        n_bins = frames.shape[1]
        sids = [f"g{i}" for i in range(4)]
        state = _tick_worker([(sid, n_bins, None) for sid in sids])
        # Two sessions' tick rows per launch at most: every tick splits.
        monkeypatch.setattr(batched, "_GROUP_ELEMS", 2 * 16 * n_bins)
        slots = [(i, 1, k / _FPS, frames[k]) for k in range(len(frames)) for i in range(4)]
        _run_ticks(state, slots, n_bins)
        want = _blinks(_solo("g", frames))
        assert want, "trace produced no blinks: gate is vacuous"
        for sid in sids:
            state.by_id[sid].flush_detector()
            assert _blinks(state.by_id[sid]) == want

    def test_mirror_flush_stamps_tail_blink_inside_stream(self, tail_blink_trace):
        frames, stamps = tail_blink_trace
        n_bins = frames.shape[1]
        state = _tick_worker([("tail", n_bins, None)])
        mirror = state.by_id["tail"]
        _run_ticks(state, [(0, 1, float(t), f) for t, f in zip(stamps, frames)], n_bins)
        before = len(mirror.blink_events)
        mirror.flush_detector()
        assert len(mirror.blink_events) == before + 1, "no end-of-stream blink"
        assert all(stamps[0] <= t <= stamps[-1] for t in mirror.blink_times_s)

    def test_unrouted_frames_consumed_and_counted(self):
        state = _tick_worker([("r0", _N_BINS, None)])
        rng = np.random.default_rng(3)
        frame = (rng.standard_normal(_N_BINS) + 1j).astype(np.complex64)
        slots = [(0, 1, 0.0, frame), (7, 1, 0.0, frame), (7, 1, 0.04, frame), (0, 1, 0.04, frame)]
        _run_ticks(state, slots, _N_BINS)
        assert state.registry.counter("shard.unrouted_frames").value == 2
        assert state.by_id["r0"].frames_processed == 2
        assert state.consumed == {"r0": 2}

    def test_mirror_restart_flushes_queued_frames_stale(self):
        state = _tick_worker([("s0", _N_BINS, None)])
        mirror = state.by_id["s0"]
        first = mirror.detector
        rng = np.random.default_rng(4)
        frames = (rng.standard_normal((6, _N_BINS)) + 1j).astype(np.complex64)
        # The parent restarted after three frames were queued: one tick
        # carries both generations; the old ones flush as stale.
        slots = [(0, 1, k / _FPS, frames[k]) for k in range(3)]
        slots += [(0, 2, k / _FPS, frames[k]) for k in range(3, 6)]
        _run_ticks(state, slots, _N_BINS)
        assert mirror.generation == 2
        assert mirror.detector is not first
        assert mirror.frames_processed == 3
        assert state.registry.counter("session.s0.dropped_stale").value == 3
        assert state.consumed == {"s0": 6}


class TestChipFree:
    """Network-fed sessions never build the emulated chip."""

    @pytest.fixture()
    def no_chip(self, monkeypatch):
        from repro.hardware.device import UwbRadarDevice
        from repro.hardware.driver import FrameStream, XepDriver
        from repro.hardware.spi import SpiBus

        def refuse(*args, **kwargs):
            raise AssertionError("a chip-free session built emulated hardware")

        for cls in (UwbRadarDevice, SpiBus, XepDriver, FrameStream):
            monkeypatch.setattr(cls, "__init__", refuse)

    def test_ingest_session_lifecycle_builds_no_chip(self, no_chip):
        session = IngestSession("nc0", n_bins=_N_BINS, frame_rate_hz=_FPS)
        session.start()
        session.request_restart()
        assert session.produce() is None
        assert session.generation == 2 and session.restarts == 1
        session.request_stop()
        session.produce()
        session.close()

    def test_shard_mirror_lifecycle_builds_no_chip(self, no_chip):
        state = _tick_worker([("nc1", _N_BINS, None)])
        mirror = state.by_id["nc1"]
        mirror.adopt_generation(3)
        assert mirror.generation == 3
        mirror.flush_detector()
        mirror.close()
