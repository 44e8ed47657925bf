"""One vehicle's detector session: a supervised lifecycle around the stack.

:class:`DetectorSession` owns a streaming blink detector — plus, when
built from a world, that vehicle's emulated chip, (optionally faulty)
SPI wire, host driver and frame stream — and wraps it in the state
machine a service needs:

::

    INIT ──start()──▶ COLD_START ──bin selected──▶ RUNNING
                          ▲                          │
                          │      movement restart    │
                          ├──────────────────────────┤
                          │                          ▼
                    (soft reset ok)             DEGRADED ◀── SpiError
                          └─────── backoff ────────┘
                                                     │ attempts exhausted
      source dry / stop() ──▶ STOPPED ◀──────────────┘

A wire fault (:class:`~repro.hardware.spi.SpiError`) does not crash the
session: it parks in DEGRADED, keeps *device time moving* (the chip keeps
sampling into its FIFO — overflowing it, which is counted), then
soft-resets and reconfigures the chip and re-enters a fresh 2 s cold
start, exactly the recovery a deployed head unit performs.

A network-fed session (:class:`~repro.gateway.ingest.IngestSession`)
has no chip and never degrades, but shares every other code path.

Threading contract (enforced by :mod:`repro.fleet.scheduler`):
:meth:`produce` is only ever called from the scheduler's pump thread and
:meth:`process` from at most one worker at a time; the small amount of
state they share is guarded by an internal lock.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.realtime import RealTimeBlinkDetector, RealTimeConfig
from repro.fleet.events import (
    BlinkEvent,
    DrowsyAlertEvent,
    FaultEvent,
    FleetEvent,
    FrameDropEvent,
    RestartEvent,
    StateChangeEvent,
)
from repro.fleet.metrics import Counter, Histogram, MetricsRegistry
from repro.hardware.device import UwbRadarDevice
from repro.hardware.driver import FrameStream, XepDriver
from repro.hardware.spi import SpiBus, SpiError, SpiSlave
from repro.store.format import CODE_DTYPES

__all__ = ["SessionState", "SessionConfig", "DetectorSession", "FrameItem"]

#: What the pump hands the workers: (generation, world time s, frame).
FrameItem = tuple[int, float, np.ndarray]

#: Frame dtypes a session accepts: the ones the shard ring's slots carry.
_FRAME_DTYPES = tuple(CODE_DTYPES.values())


class SessionState(Enum):
    """Lifecycle states of a detector session."""

    INIT = "init"
    COLD_START = "cold_start"
    RUNNING = "running"
    DEGRADED = "degraded"
    STOPPED = "stopped"


@dataclass(frozen=True)
class SessionConfig:
    """Per-session policy knobs.

    Attributes
    ----------
    frame_rate_div / tx_power:
        Chip configuration programmed at every (re)start (div 4 = the
        paper's 25 FPS).
    fifo_frames:
        Device FIFO capacity in frames; overflows during a DEGRADED
        spell are the realistic loss mode.
    recovery_backoff_frames:
        Frame periods to sit in DEGRADED before attempting a soft reset
        (a real harness fault is rarely a single transaction long).
    max_recovery_attempts:
        Consecutive failed resets before the session gives up and stops.
        Each failed attempt consumes one wire transaction (the reset
        write), so a fault burst longer than this many transactions is
        terminal — size injected bursts accordingly.
    drowsy_rate_threshold_bpm / drowsy_window_s:
        Blink-rate alerting: alert when the rate over the trailing
        window crosses the threshold (paper Sec. IV-F: drowsy drivers
        blink markedly faster; awake baselines sit near 15-20/min).
    detector:
        Streaming detector configuration (paper defaults when None).
    """

    frame_rate_div: int = 4
    tx_power: int = 0xFF
    fifo_frames: int = 8
    recovery_backoff_frames: int = 10
    max_recovery_attempts: int = 8
    drowsy_rate_threshold_bpm: float = 28.0
    drowsy_window_s: float = 30.0
    detector: RealTimeConfig | None = None

    def __post_init__(self) -> None:
        if self.recovery_backoff_frames < 1:
            raise ValueError("recovery_backoff_frames must be >= 1")
        if self.max_recovery_attempts < 1:
            raise ValueError("max_recovery_attempts must be >= 1")
        if self.fifo_frames < 1:
            raise ValueError("fifo_frames must be >= 1")


class DetectorSession:
    """Supervised per-vehicle detection pipeline (see module docstring).

    Parameters
    ----------
    session_id:
        Stable identifier; prefixes every event and metric.
    frames:
        The vehicle's world: a (n_frames, n_bins) complex matrix the
        emulated chip samples from. The chip keeps its own cursor into
        it, so a chip reset never rewinds the world — frames that
        elapse while the session is down are simply gone, as on a road.
    config:
        Policy knobs (:class:`SessionConfig`).
    wire_factory:
        Optional wrapper applied to the device before the bus sees it
        (e.g. :class:`~repro.fleet.faults.SpiFaultInjector`).
    metrics:
        Shared registry; the session records under ``session.<id>.*``
        and aggregates under ``fleet.*``.
    sink:
        Callable receiving every :class:`~repro.fleet.events.FleetEvent`
        (the service's aggregated log). Events are also kept locally in
        :attr:`events`.
    """

    def __init__(
        self,
        session_id: str,
        frames: np.ndarray,
        config: SessionConfig | None = None,
        wire_factory: Callable[[SpiSlave], SpiSlave] | None = None,
        metrics: MetricsRegistry | None = None,
        sink: Callable[[FleetEvent], None] | None = None,
    ) -> None:
        frames = np.asarray(frames)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError(f"frames must be a non-empty (n_frames, n_bins) matrix, got {frames.shape}")
        config = config if config is not None else SessionConfig()
        self._init_session(
            session_id, frames.shape[1], 100.0 / config.frame_rate_div, config, metrics, sink
        )
        self._chip = _EmulatedChip(self, frames, wire_factory)

    def _init_session(
        self,
        session_id: str,
        n_bins: int,
        frame_rate_hz: float,
        config: SessionConfig,
        metrics: MetricsRegistry | None,
        sink: Callable[[FleetEvent], None] | None,
    ) -> None:
        """Everything a session holds besides a chip (shared by subclasses)."""
        self.session_id = session_id
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sink = sink
        # Instruments bound on first use (the registry then sees the same
        # names in the same order it always did) and kept, so the per-frame
        # path never re-resolves a name under the registry's lock. The pump
        # and a worker may both bind one name at once; the registry hands
        # both the same object, so the race is harmless.
        self._counters: dict[str, Counter] = {}
        self._fleet_counters: dict[str, Counter] = {}
        self._latency: tuple[Histogram, Histogram] | None = None
        self.n_bins = n_bins
        self.frame_rate_hz = frame_rate_hz
        self._chip: _EmulatedChip | None = None

        self._lock = threading.Lock()
        self._state = SessionState.INIT  # reprolint: guarded-by(_lock)
        self._restart_requested = False
        self._stop_requested = False
        self._closed = False
        #: True once the world ran dry: the pump must stop producing,
        #: but STOPPED is only stamped after the queue drains (close()),
        #: so worker-side transitions land in order.
        self.draining = False
        self._last_time_s = 0.0
        self._last_det_index = 0
        #: Frames of the current batch processed or flushed stale so far.
        self._batch_settled = 0
        self._generation = 0  # bumped at every bring-up  # reprolint: guarded-by(_lock)
        self.detector: RealTimeBlinkDetector | None = None
        self._blink_times: deque[float] = deque()
        self._last_alert_time_s = float("-inf")

        self.events: list[FleetEvent] = []
        self.blink_events: list[BlinkEvent] = []
        self.frames_processed = 0
        self.restarts = 0

    # ----------------------------------------------------------------- helpers
    @property
    def state(self) -> SessionState:
        """Current lifecycle state."""
        with self._lock:
            return self._state

    @property
    def active(self) -> bool:
        """True until the session reaches STOPPED."""
        return self.state is not SessionState.STOPPED

    @property
    def time_s(self) -> float:
        """Device-time clock (s): the chip's world clock, else the last processed frame's."""
        return self._chip.time_s if self._chip is not None else self._last_time_s

    @property
    def generation(self) -> int:
        """Current detector incarnation (bumped at every bring-up).

        External frame producers (the gateway's ingestion path) stamp
        queued items with this so a restart mid-queue flushes the stale
        backlog exactly as the pump's :meth:`produce` tagging does.
        """
        with self._lock:
            return self._generation

    @property
    def blink_times_s(self) -> list[float]:
        """Device-time stamps of every detected blink."""
        return [e.time_s for e in self.blink_events]

    def _emit(self, event: FleetEvent) -> None:
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)

    def _transition(self, new_state: SessionState, at_s: float | None = None) -> None:
        # at_s: device-time stamp; worker-side transitions pass the time
        # of the frame that caused them (the cursor clock runs ahead of
        # the queue when the pump is unpaced).
        with self._lock:
            old = self._state
            if old is new_state:
                return
            self._state = new_state
        self._emit(
            StateChangeEvent(
                self.session_id, self.time_s if at_s is None else at_s, old.value, new_state.value
            )
        )

    def _metric(self, name: str) -> Counter:
        """Counter ``session.<id>.<name>`` (bound on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self.metrics.counter(f"session.{self.session_id}.{name}")
            self._counters[name] = counter
        return counter

    def _count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to ``session.<id>.<name>`` and to its total ``fleet.<name>``."""
        self._metric(name).inc(n)
        total = self._fleet_counters.get(name)
        if total is None:
            total = self._fleet_counters[name] = self.metrics.counter(f"fleet.{name}")
        total.inc(n)

    def _latency_histograms(self) -> tuple[Histogram, Histogram]:
        """``session.<id>.latency_s`` and ``fleet.latency_s`` (bound on first use)."""
        if self._latency is None:
            self._latency = (
                self.metrics.histogram(f"session.{self.session_id}.latency_s"),
                self.metrics.histogram("fleet.latency_s"),
            )
        return self._latency

    def _apex_time(self, anchor_time_s: float, anchor_index: int, event_index: int) -> float:
        """World time of a blink apex that the detector reported
        ``anchor_index - event_index`` frames after the fact.

        Computed index-first and divided by the frame rate — the same
        arithmetic the detector's own ``time_s`` uses — so apex stamps
        compare bit-for-bit with the single-session pipeline.
        """
        world_index = round(anchor_time_s * self.frame_rate_hz) - (anchor_index - event_index)
        return world_index / self.frame_rate_hz

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Enter the first cold start (probing and starting the chip, if any)."""
        if self.state is not SessionState.INIT:
            raise RuntimeError(f"session {self.session_id} already started")
        if self._chip is not None:
            self._chip.start()
        else:
            self._begin_incarnation()

    def _begin_incarnation(self, generation: int | None = None) -> None:
        """Fresh detector under a new generation, in COLD_START (every bring-up).

        The generation bump and detector swap are atomic so workers never
        feed a frame from a dead incarnation to the new detector. Adopting
        a given ``generation`` (a shard mirror following its parent) is
        silent: the parent announces the state change.
        """
        with self._lock:
            self._generation = self._generation + 1 if generation is None else generation
            self.detector = RealTimeBlinkDetector(self.frame_rate_hz, self.config.detector)
            if generation is not None:
                self._state = SessionState.COLD_START
        self._transition(SessionState.COLD_START)

    def _note_fault(self, detail: str, terminal: bool = False) -> None:
        self._count("faults")
        self._emit(FaultEvent(self.session_id, self.time_s, detail, terminal=terminal))

    def _count_restart(self, reason: str, attempts: int = 1) -> None:
        self.restarts += 1
        self._count("restarts")
        self._emit(RestartEvent(self.session_id, self.time_s, reason, attempts=attempts))

    def _shutdown(self) -> None:
        if self._chip is not None:
            self._chip.stop()
        self._transition(SessionState.STOPPED)

    def check_frame(self, frame: object) -> None:
        """Raise :class:`ValueError` unless ``frame`` fits this session.

        A frame is one ``(n_bins,)`` row in a dtype the shard ring and
        the ``.rst`` store carry — little-endian complex64 or complex128,
        as a byte-swapped row would be misread off the ring — and both
        backends' ``submit`` check before anything is enqueued.
        """
        if not isinstance(frame, np.ndarray):
            raise ValueError(f"session {self.session_id}: frame must be an ndarray")
        if frame.shape != (self.n_bins,) or frame.dtype not in _FRAME_DTYPES:
            raise ValueError(
                f"session {self.session_id}: frame {frame.dtype.str}{list(frame.shape)} is not "
                f"one ({self.n_bins},) row of <c8 or <c16"
            )

    def request_restart(self) -> None:
        """Ask for an operator restart (honoured on the next produce)."""
        self._restart_requested = True

    def request_stop(self) -> None:
        """Ask for an orderly stop (honoured on the next produce)."""
        self._stop_requested = True

    # ------------------------------------------------------------ produce side
    def produce(self) -> FrameItem | None:
        """Advance one frame period; return ``(generation, time_s, frame)``.

        Called once per scheduling round by the pump thread; returns
        None when no frame arrived this period (always, without a chip;
        restart and stop requests are still honoured). All fault handling
        lives here: an :class:`SpiError` parks the session in DEGRADED
        instead of propagating. The generation tag lets :meth:`process`
        flush frames that were queued before a restart instead of
        feeding the reborn detector a stale backlog.
        """
        state = self.state
        if state in (SessionState.INIT, SessionState.STOPPED):
            return None
        if self._stop_requested:
            self._stop_requested = False
            self._shutdown()
            return None
        chip = self._chip
        if chip is not None and state is SessionState.DEGRADED:
            chip.back_off()
            return None
        if self._restart_requested:
            self._restart_requested = False
            if chip is not None:
                chip.recover(reason="manual")
            else:
                self._begin_incarnation()
                self._count_restart("manual")
            return None
        return chip.poll() if chip is not None else None

    # ------------------------------------------------------------ process side
    def process(self, item: FrameItem, enqueued_at: float | None = None) -> None:
        """Run the detector over one produced item (worker side, serialized).

        The single-item degenerate case of :meth:`process_batch` — there
        is exactly one processing implementation.
        """
        self.process_batch([item], enqueued_ats=[enqueued_at])

    def process_batch(
        self,
        items: list[FrameItem],
        enqueued_ats: list[float | None] | None = None,
        denoised: np.ndarray | None = None,
    ) -> None:
        """Run the detector over several queued items (worker side, serialized).

        Contiguous same-generation runs are stacked and fed to
        :meth:`~repro.core.realtime.RealTimeBlinkDetector.process_block`,
        so a drained batch pays for one fused kernel launch instead of
        one per frame. Because the block walk is bit-identical to the
        frame-at-a-time walk, batching changes no detection output —
        the scheduler-vs-serial equivalence test holds frame counts,
        blink times and restarts fixed across batch sizes.

        ``denoised``, when given, is the fast-time cascade output for
        the batch's frames (row k denoises ``items[k]``'s frame),
        computed by a caller that fused the stage-1 kernel across many
        sessions (the shard worker). The cascade is stateless per row,
        so injecting it changes no output — it only moves the launch.

        Frames queued before a restart (older generation) are flushed,
        not processed: a reborn detector must cold-start on live frames,
        not on a backlog from its dead predecessor followed by a time
        jump it would misread as body movement. Staleness is judged
        once per run; a recovery landing mid-run supersedes the
        detector just as it could mid-frame before, and the state
        mirror below stays generation-guarded either way.
        """
        if enqueued_ats is None:
            enqueued_ats = [None] * len(items)
        self._batch_settled = 0
        start = 0
        for k in range(1, len(items) + 1):
            if k == len(items) or items[k][0] != items[start][0]:
                self._process_run(
                    items[start:k],
                    enqueued_ats[start:k],
                    None if denoised is None else denoised[start:k],
                )
                start = k

    def recover_from_error(self, exc: Exception, batch_size: int) -> None:
        """Contain an exception :meth:`process_batch` raised (worker side).

        Both backends call this, so one poison frame costs its session
        the same on each: the batch's unsettled frames are counted as
        ``dropped_error`` and evented, the fault is noted, and the
        detector — whose state the failed walk may have left half
        advanced — is replaced by a fresh cold-start one. The generation
        stays, so frames already queued are processed by the new
        detector rather than flushed; the swap counts as an ``"error"``
        restart.
        """
        lost = batch_size - self._batch_settled
        if lost > 0:
            self._count("dropped_error", lost)
            self._emit(FrameDropEvent(self.session_id, self.time_s, lost, where="error"))
        where = traceback.extract_tb(exc.__traceback__)[-1]
        self._note_fault(f"processing error {exc!r} at {where.filename}:{where.lineno}")
        with self._lock:
            generation = self._generation
            self.detector = RealTimeBlinkDetector(self.frame_rate_hz, self.config.detector)
        self._mirror_state(generation, self.time_s, selected=False)
        self._count_restart("error")

    def _process_run(
        self,
        items: list[FrameItem],
        enqueued_ats: list[float | None],
        denoised: np.ndarray | None = None,
    ) -> None:
        generation = items[0][0]
        with self._lock:
            detector = self.detector
            current = self._generation
        if detector is None:
            return
        if generation != current:
            for _, time_s, _ in items:
                self._count("dropped_stale")
                self._emit(FrameDropEvent(self.session_id, time_s, 1, where="stale"))
            self._batch_settled += len(items)
            return
        statuses = detector.process_block(
            np.stack([frame for _, _, frame in items]), denoised=denoised
        )
        done_at = time.perf_counter()
        self.frames_processed += len(statuses)
        self._batch_settled += len(statuses)
        # The end-of-stream flush anchors on this frame: time and index
        # must describe the same one.
        self._last_det_index = statuses[-1].frame_index
        self._last_time_s = items[-1][1]
        self._count("frames_processed", len(statuses))
        for (_, time_s, _), status, enqueued_at in zip(items, statuses, enqueued_ats):
            if enqueued_at is not None:
                latency = done_at - enqueued_at
                own, fleet = self._latency_histograms()
                own.observe(latency)
                fleet.observe(latency)
            if status.restarted:
                self.restarts += 1
                self._count("restarts")
                self._emit(RestartEvent(self.session_id, time_s, reason="movement"))
            if status.event is not None:
                # Stamp the blink at its apex in world time: LEVD
                # completes a blink a few hundred ms after the apex, and
                # the detector's own clock counts only delivered frames.
                apex = self._apex_time(time_s, status.frame_index, status.event.frame_index)
                self._on_blink(apex, status.event.frame_index, status.event.prominence)
            # Mirror the detector's internal cold-start cycle into the
            # session state (movement restarts re-enter cold start too).
            # status.selected_bin reflects the detector's bin *after*
            # this frame, so mirroring from statuses is frame-exact.
            # Guarded by generation: a recovery may supersede this
            # detector while the block runs, and its bin selection must
            # not leak onto the new incarnation's state.
            self._mirror_state(generation, time_s, selected=status.selected_bin != -1)

    def _mirror_state(self, generation: int, time_s: float, selected: bool) -> None:
        with self._lock:
            old = self._state
            new = SessionState.RUNNING if selected else SessionState.COLD_START
            cycling = old in (SessionState.COLD_START, SessionState.RUNNING)
            if self._generation != generation or not cycling or new is old:
                return
            self._state = new
        self._emit(StateChangeEvent(self.session_id, time_s, old.value, new.value))

    def _on_blink(self, time_s: float, frame_index: int, prominence: float) -> None:
        event = BlinkEvent(self.session_id, time_s, frame_index, prominence)
        self.blink_events.append(event)
        self._emit(event)
        self._count("blinks")
        window = self.config.drowsy_window_s
        times = self._blink_times
        times.append(time_s)
        while times and times[0] < time_s - window:
            times.popleft()
        # Rate alerting only once the window is actually filled, with a
        # one-window refractory so a drowsy spell raises one alert, not
        # one per blink.
        if time_s < window or time_s - self._last_alert_time_s < window:
            return
        rate_bpm = len(times) * 60.0 / window
        if rate_bpm >= self.config.drowsy_rate_threshold_bpm:
            self._last_alert_time_s = time_s
            self._count("drowsy_alerts")
            self._emit(
                DrowsyAlertEvent(
                    self.session_id,
                    time_s,
                    rate_bpm=rate_bpm,
                    threshold_bpm=self.config.drowsy_rate_threshold_bpm,
                    window_s=window,
                )
            )

    def close(self) -> None:
        """Flush the detector and stamp STOPPED (call after the queue drained)."""
        if self._closed:
            return
        self._closed = True
        self.flush_detector()
        if self.state is not SessionState.STOPPED:
            self._shutdown()

    def flush_detector(self) -> None:
        """Emit the detector's pending end-of-stream blink, if any.

        :meth:`close` calls this before stamping STOPPED; a shard
        worker's mirror calls it alone, as its parent owns the lifecycle.
        """
        detector = self.detector
        if detector is None:
            return
        event = detector.finish()
        if event is not None:
            apex = self._apex_time(self._last_time_s, self._last_det_index, event.frame_index)
            self._on_blink(apex, event.frame_index, event.prominence)

    # ------------------------------------------------------------- convenience
    def run_serial(self) -> None:
        """Drive the whole session on the calling thread (no scheduler).

        The reference execution mode: tests compare a scheduled fleet
        session against this to prove the scheduler changes nothing.
        """
        if self.state is SessionState.INIT:
            self.start()
        while self.active and not self.draining:
            item = self.produce()
            if item is not None:
                self.process(item, enqueued_at=time.perf_counter())
        self.close()

    def health(self) -> dict[str, object]:
        """One-line health snapshot (the service aggregates these)."""
        return {
            "state": self.state.value,
            "time_s": round(self.time_s, 3),
            "frames_world": self._chip.cursor if self._chip is not None else 0,
            "frames_processed": self.frames_processed,
            "blinks": len(self.blink_events),
            "restarts": self.restarts,
            "dropped_fifo": self._metric("dropped_fifo").value,
            "dropped_queue": self._metric("dropped_queue").value,
        }


class _EmulatedChip:
    """A world-fed session's emulated chip: device, wire, driver, stream,
    world cursor, FIFO-drop accounting and soft-reset recovery. Events,
    metrics and transitions all go through the owning session.
    """

    def __init__(
        self,
        session: DetectorSession,
        frames: np.ndarray,
        wire_factory: Callable[[SpiSlave], SpiSlave] | None,
    ) -> None:
        self._session = session
        self._frames = frames
        self.n_world = frames.shape[0]
        self._period_s = 1.0 / session.frame_rate_hz
        self.device = UwbRadarDevice(
            frame_source=self._feed,
            fifo_capacity_bytes=session.config.fifo_frames * session.n_bins * 4,
        )
        self.wire: SpiSlave = wire_factory(self.device) if wire_factory else self.device
        self.driver = XepDriver(SpiBus(self.wire), n_bins=session.n_bins)
        self.cursor = 0  # next world frame index the chip will sample
        self._base_cursor = 0  # world index where the current incarnation began
        self._drops_reported = 0  # per-incarnation FIFO drops already evented
        self._backoff = 0
        self._recovery_attempts = 0
        self._stream = FrameStream(self.driver, self.device)

    def _feed(self, _k: int) -> np.ndarray:
        # The chip samples the *world*, not a tape: the cursor only
        # moves forward, so resets lose frames instead of replaying.
        i = self.cursor
        if i >= self.n_world:
            raise IndexError(i)
        self.cursor = i + 1
        return self._frames[i]

    @property
    def time_s(self) -> float:
        """Seconds of world elapsed."""
        return self.cursor * self._period_s

    def start(self) -> None:
        """Probe, configure and start the chip; a wire fault degrades."""
        try:
            self._bring_up()
        except SpiError as exc:
            self._session._note_fault(str(exc))
            self._enter_degraded()

    def _bring_up(self) -> None:
        """(Re)configure the chip, then start a fresh stream + detector."""
        config = self._session.config
        self.driver.probe()
        self.driver.configure(frame_rate_div=config.frame_rate_div, tx_power=config.tx_power)
        self.driver.start()
        self._base_cursor = self.cursor
        self._drops_reported = 0
        self._stream = FrameStream(self.driver, self.device)
        self._recovery_attempts = 0
        self._session._begin_incarnation()

    def _enter_degraded(self) -> None:
        self._backoff = self._session.config.recovery_backoff_frames
        self._session._transition(SessionState.DEGRADED)

    def stop(self) -> None:
        try:
            self.driver.stop()
        except SpiError:
            pass  # a dead wire cannot keep us from declaring the end

    def back_off(self) -> None:
        """One DEGRADED frame period; recover once the backoff elapses."""
        # The chip never stopped sampling: world time advances and the
        # FIFO overflows while the host backs off — those are real,
        # counted losses.
        self.device.tick()
        self._backoff -= 1
        if self._backoff <= 0:
            self.recover(reason="spi_fault")

    def poll(self) -> FrameItem | None:
        """Read one frame off the wire, stamped with world time."""
        session = self._session
        try:
            item = self._stream.poll()
            self._account_fifo_drops()
        except SpiError as exc:
            session._note_fault(str(exc))
            self._enter_degraded()
            return None
        if item is None:
            if self._stream.exhausted:
                session.draining = True
            return None
        timestamp, frame = item
        return session.generation, self._base_cursor * self._period_s + timestamp, frame

    def _account_fifo_drops(self) -> None:
        dropped = self._stream.dropped
        if dropped > self._drops_reported:
            self._count_fifo_drops(dropped - self._drops_reported)
            self._drops_reported = dropped

    def _count_fifo_drops(self, n: int) -> None:
        session = self._session
        session._count("dropped_fifo", n)
        session._emit(FrameDropEvent(session.session_id, session.time_s, n, where="fifo"))

    def recover(self, reason: str) -> None:
        """Soft-reset and reconfigure the chip; re-enter cold start."""
        session = self._session
        # Everything the world produced this incarnation that never made
        # it to the detector is lost at the reset (FIFO flush + overflow
        # drops not yet accounted).
        lost = (self.cursor - self._base_cursor) - self._stream.delivered - self._drops_reported
        attempts = self._recovery_attempts + 1
        try:
            self.driver.soft_reset()
            self._bring_up()
        except SpiError as exc:
            self._recovery_attempts += 1
            if self._recovery_attempts >= session.config.max_recovery_attempts:
                session._note_fault(f"recovery abandoned: {exc}", terminal=True)
                session._shutdown()
            else:
                session._note_fault(f"recovery attempt failed: {exc}")
                self._enter_degraded()
            return
        if lost > 0:
            self._count_fifo_drops(lost)
        session._count_restart(reason, attempts=attempts)
