"""Typed event records flowing out of the fleet service.

Every noteworthy occurrence in a :class:`~repro.fleet.session.DetectorSession`
becomes one immutable record here, stamped with the session id and the
session's *device-time* clock (seconds since that vehicle's stream
started, anchored to the chip's frame counter — see
:class:`~repro.hardware.driver.FrameStream`). The service aggregates
them into one time-ordered log, which is what a dashboard, an alerting
rule, or a test asserts against.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FleetEvent",
    "BlinkEvent",
    "DrowsyAlertEvent",
    "StateChangeEvent",
    "RestartEvent",
    "FrameDropEvent",
    "FaultEvent",
]


@dataclass(frozen=True)
class FleetEvent:
    """Base record: which vehicle, when (session device-time seconds)."""

    session_id: str
    time_s: float


@dataclass(frozen=True)
class BlinkEvent(FleetEvent):
    """One detected eye blink.

    Attributes
    ----------
    frame_index:
        The detector's frame counter at the blink apex.
    prominence:
        LEVD prominence of the detection.
    """

    frame_index: int
    prominence: float


@dataclass(frozen=True)
class DrowsyAlertEvent(FleetEvent):
    """Blink rate crossed the drowsiness threshold.

    Attributes
    ----------
    rate_bpm:
        Blink rate (blinks/minute) over the trailing window.
    threshold_bpm:
        The configured alert threshold it exceeded.
    window_s:
        Length of the trailing window the rate was measured over.
    """

    rate_bpm: float
    threshold_bpm: float
    window_s: float


@dataclass(frozen=True)
class StateChangeEvent(FleetEvent):
    """A session lifecycle transition (values of ``SessionState``)."""

    old_state: str
    new_state: str


@dataclass(frozen=True)
class RestartEvent(FleetEvent):
    """The session re-entered cold start.

    Attributes
    ----------
    reason:
        ``"spi_fault"`` (device soft-reset after a wire fault),
        ``"movement"`` (the detector's own body-movement restart),
        ``"manual"`` (operator-requested via the service), or
        ``"error"`` (a fresh detector after a processing exception).
    attempts:
        Recovery attempts it took (1 for a clean first-try recovery;
        always 1 for ``movement``/``manual``/``error``).
    """

    reason: str
    attempts: int = 1


@dataclass(frozen=True)
class FrameDropEvent(FleetEvent):
    """Frames were lost before reaching the detector.

    Attributes
    ----------
    n_dropped:
        How many frames this record accounts for.
    where:
        ``"fifo"`` (device FIFO overflow / reset flush), ``"queue"``
        (backpressure), ``"stale"`` (queued before a restart, flushed
        instead of fed to the new detector), ``"error"`` (in a batch
        whose processing raised) or ``"crash"`` (in a dead shard's ring).
    """

    n_dropped: int
    where: str


@dataclass(frozen=True)
class FaultEvent(FleetEvent):
    """A fault was observed: on the session's SPI wire, or an exception
    while a worker processed its frames.

    Attributes
    ----------
    detail:
        The error message from the driver, or the exception and where
        it was raised.
    terminal:
        True when the session gave up recovering and stopped.
    """

    detail: str
    terminal: bool = False
