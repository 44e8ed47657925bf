"""Scheduler serve mode: the public external-ingestion surface.

Pump mode owns production; serve mode receives frames from outside
(the network gateway). These tests pin the contract the gateway builds
on: attach/detach at runtime, non-blocking submit with drop-oldest
backpressure, drained/idle visibility, and strict separation of the two
modes.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.fleet.events import FaultEvent, FrameDropEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.session import DetectorSession, SessionState
from repro.gateway.ingest import IngestSession


def _ingest_session(session_id: str, metrics=None, n_bins: int = 16):
    session = IngestSession(
        session_id, n_bins=n_bins, frame_rate_hz=25.0, metrics=metrics
    )
    session.start()
    return session


def _frames(session, count: int, start: int = 0):
    rng = np.random.default_rng(5)
    for k in range(start, start + count):
        frame = (rng.standard_normal(session.n_bins) + 1j).astype(np.complex64)
        yield session.make_item(k / 25.0, frame)


def _wait_drained(scheduler, session_id: str, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not scheduler.drained(session_id):
        assert time.monotonic() < deadline, "scheduler never drained"
        time.sleep(0.002)


class TestServeMode:
    def test_submit_processes_through_worker_pool(self):
        metrics = MetricsRegistry()
        scheduler = FleetScheduler([], workers=2, metrics=metrics)
        scheduler.start()
        try:
            session = _ingest_session("s0", metrics)
            scheduler.attach(session)
            for item in _frames(session, 40):
                assert scheduler.submit("s0", item)
            _wait_drained(scheduler, "s0")
            assert session.frames_processed == 40
            assert scheduler.detach("s0") == 0
            session.close()
        finally:
            scheduler.stop()

    def test_empty_scheduler_is_legal_in_serve_mode(self):
        scheduler = FleetScheduler([], workers=1)
        scheduler.start()
        assert scheduler.idle()
        scheduler.stop()

    def test_submit_drop_oldest_backpressure(self):
        metrics = MetricsRegistry()
        scheduler = FleetScheduler([], workers=1, queue_depth=4, metrics=metrics)
        session = _ingest_session("s1", metrics)
        # Workers not started: the queue can only fill.
        scheduler.attach(session)
        results = [scheduler.submit("s1", item) for item in _frames(session, 10)]
        assert results[:4] == [True] * 4
        assert results[4:] == [False] * 6
        assert metrics.counter("session.s1.dropped_queue").value == 6
        assert metrics.counter("fleet.dropped_queue").value == 6
        assert scheduler.queue_depths()["s1"] == 4
        session.close()

    def test_submit_unknown_session_raises(self):
        scheduler = FleetScheduler([], workers=1)
        with pytest.raises(KeyError):
            scheduler.submit("nope", (1, 0.0, np.zeros(4, dtype=np.complex64)))

    def test_attach_duplicate_id_rejected(self):
        scheduler = FleetScheduler([], workers=1)
        session = _ingest_session("dup")
        scheduler.attach(session)
        with pytest.raises(ValueError):
            scheduler.attach(_ingest_session("dup"))
        session.close()

    def test_detach_reports_discarded_backlog(self):
        scheduler = FleetScheduler([], workers=1, queue_depth=64)
        session = _ingest_session("s2")
        scheduler.attach(session)
        for item in _frames(session, 7):
            scheduler.submit("s2", item)
        assert scheduler.detach("s2") == 7
        with pytest.raises(KeyError):
            scheduler.drained("s2")
        session.close()

    def test_stop_drains_but_does_not_close_sessions(self):
        metrics = MetricsRegistry()
        scheduler = FleetScheduler([], workers=2, metrics=metrics)
        scheduler.start()
        session = _ingest_session("s3", metrics)
        scheduler.attach(session)
        for item in _frames(session, 25):
            scheduler.submit("s3", item)
        scheduler.stop()
        # Everything queued was processed; the session stays the
        # caller's to close.
        assert session.frames_processed == 25
        assert session.state is not SessionState.STOPPED
        session.close()
        assert session.state is SessionState.STOPPED

    def test_stop_is_idempotent(self):
        scheduler = FleetScheduler([], workers=1)
        scheduler.start()
        scheduler.stop()
        scheduler.stop()

    def test_run_refused_while_serving(self, fleet_trace):
        scheduler = FleetScheduler([], workers=1)
        scheduler.start()
        try:
            with pytest.raises(RuntimeError):
                scheduler.run()
        finally:
            scheduler.stop()

    def test_run_still_requires_sessions(self):
        with pytest.raises(ValueError):
            FleetScheduler([], workers=1).run()

    def test_start_twice_rejected(self):
        scheduler = FleetScheduler([], workers=1)
        scheduler.start()
        try:
            with pytest.raises(RuntimeError):
                scheduler.start()
        finally:
            scheduler.stop()

    def test_submit_is_thread_safe_under_concurrent_producers(self):
        metrics = MetricsRegistry()
        scheduler = FleetScheduler([], workers=2, queue_depth=4096, metrics=metrics)
        scheduler.start()
        sessions = [_ingest_session(f"t{i}", metrics) for i in range(3)]
        try:
            for session in sessions:
                scheduler.attach(session)

            def producer(session):
                for item in _frames(session, 100):
                    scheduler.submit(session.session_id, item)

            threads = [threading.Thread(target=producer, args=(s,)) for s in sessions]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for session in sessions:
                _wait_drained(scheduler, session.session_id)
                assert session.frames_processed == 100
        finally:
            scheduler.stop()
            for session in sessions:
                session.close()

    def test_generation_stale_frames_flushed_on_restart(self):
        metrics = MetricsRegistry()
        scheduler = FleetScheduler([], workers=1, queue_depth=64, metrics=metrics)
        session = _ingest_session("g0", metrics)
        scheduler.attach(session)
        stale = list(_frames(session, 5))
        # A restart bumps the generation; frames stamped before it are
        # flushed as stale by the worker, not fed to the new detector.
        session.request_restart()
        session.produce()
        for item in stale:
            scheduler.submit("g0", item)
        scheduler.start()
        _wait_drained(scheduler, "g0")
        scheduler.stop()
        assert session.frames_processed == 0
        assert metrics.counter("session.g0.dropped_stale").value == 5
        session.close()


class TestFrameValidation:
    BAD_FRAMES = [
        np.zeros(15, dtype=np.complex64),  # wrong length
        np.zeros((1, 16), dtype=np.complex64),  # not one row
        np.zeros(16, dtype=np.float64),  # dtype the ring cannot carry
        np.zeros(16, dtype=">c8"),  # byte order the ring would misread
        [0j] * 16,  # not an ndarray
    ]

    @pytest.mark.parametrize(
        "frame", BAD_FRAMES, ids=["length", "rank", "dtype", "byteorder", "list"]
    )
    def test_bad_frame_rejected_before_enqueue(self, frame):
        metrics = MetricsRegistry()
        scheduler = FleetScheduler([], workers=1, metrics=metrics)
        session = _ingest_session("v0", metrics)
        scheduler.attach(session)
        with pytest.raises(ValueError):
            scheduler.submit("v0", session.make_item(0.0, frame))
        assert scheduler.queue_depths()["v0"] == 0
        assert scheduler.dropped()["v0"] == 0
        session.close()

    def test_bad_frame_leaves_the_pool_serving(self):
        """One wrong-length frame among good ones once killed a worker
        thread and stranded the session's queue; now it never enters."""
        metrics = MetricsRegistry()
        scheduler = FleetScheduler([], workers=2, metrics=metrics)
        scheduler.start()
        session = _ingest_session("v1", metrics)
        scheduler.attach(session)
        try:
            items = list(_frames(session, 5))
            items[2] = session.make_item(2 / 25.0, np.zeros(15, dtype=np.complex64))
            rejected = 0
            for item in items:
                try:
                    scheduler.submit("v1", item)
                except ValueError:
                    rejected += 1
            _wait_drained(scheduler, "v1")
            assert rejected == 1
            assert session.frames_processed == 4
            assert all(t.is_alive() for t in scheduler._serve_threads)
        finally:
            scheduler.stop()
            session.close()


class TestFaultContainment:
    def test_detector_exception_costs_the_batch_not_the_worker(self):
        metrics = MetricsRegistry()
        scheduler = FleetScheduler([], workers=2, metrics=metrics)
        faulty = _ingest_session("bad", metrics)
        healthy = _ingest_session("good", metrics)
        original = faulty.detector.process_block
        calls = []

        def explode_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("detector fault")
            return original(*args, **kwargs)

        faulty.detector.process_block = explode_once
        for session in (faulty, healthy):
            scheduler.attach(session)
            for item in _frames(session, 20):
                assert scheduler.submit(session.session_id, item)
        scheduler.start()
        try:
            for session in (faulty, healthy):
                _wait_drained(scheduler, session.session_id)
            assert len(scheduler._serve_threads) == 2
            assert all(t.is_alive() for t in scheduler._serve_threads)
        finally:
            scheduler.stop()
        lost = metrics.counter("session.bad.dropped_error").value
        # The first drained batch (8 frames) is the one that raised.
        assert lost == 8
        assert faulty.frames_processed + lost == 20
        assert metrics.counter("fleet.dropped_error").value == lost
        drops = [e for e in faulty.events if isinstance(e, FrameDropEvent) and e.where == "error"]
        assert sum(e.n_dropped for e in drops) == lost
        assert metrics.counter("session.bad.faults").value == 1
        [fault] = [e for e in faulty.events if isinstance(e, FaultEvent)]
        assert "detector fault" in fault.detail
        assert healthy.frames_processed == 20
        assert metrics.counter("session.good.dropped_error").value == 0
        faulty.close()
        healthy.close()


class TestIngestSession:
    def test_declared_rate_wins_over_register_quantisation(self):
        session = IngestSession("r0", n_bins=8, frame_rate_hz=17.3)
        assert session.frame_rate_hz == 17.3
        session.close()

    def test_produce_is_inert(self):
        session = _ingest_session("r1")
        assert session.produce() is None
        session.close()

    def test_make_item_stamps_current_generation(self):
        session = _ingest_session("r2")
        item = session.make_item(0.0, np.zeros(16, dtype=np.complex64))
        assert item[0] == session.generation
        session.request_restart()
        session.produce()
        item2 = session.make_item(0.04, np.zeros(16, dtype=np.complex64))
        assert item2[0] == session.generation == item[0] + 1
        session.close()

    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            IngestSession("bad", n_bins=0, frame_rate_hz=25.0)
        with pytest.raises(ValueError):
            IngestSession("bad", n_bins=8, frame_rate_hz=0.0)

    def test_end_of_stream_blink_stamped_inside_stream(self, tail_blink_trace):
        """The flushed blink's apex anchors on the last processed frame.

        A session fed by ``submit`` never runs ``produce``; its flush
        once anchored on a clock only ``produce`` set, stamping this
        blink at -0.36 s on a 0-10.92 s stream.
        """
        frames, stamps = tail_blink_trace
        session = _ingest_session("tail", n_bins=frames.shape[1])
        session.process_batch(
            [session.make_item(float(t), f) for t, f in zip(stamps, frames)]
        )
        before = len(session.blink_events)
        session.close()
        assert len(session.blink_events) == before + 1, "no end-of-stream blink"
        assert all(stamps[0] <= t <= stamps[-1] for t in session.blink_times_s)
        assert session.blink_times_s == sorted(session.blink_times_s)

    def test_is_detector_session(self):
        session = IngestSession("sub", n_bins=8, frame_rate_hz=25.0)
        assert isinstance(session, DetectorSession)
        session.close()
