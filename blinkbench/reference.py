"""Serial reference runs and the per-session outputs check.

Every session served under load is compared with a serial run of the
*same session type* over the same frames: ``IngestSession`` fed in one
``process_batch`` block and then closed (network-fed workloads), or
``DetectorSession.run_serial`` (the emulated-chip pump). Block processing
is bit-identical to frame-at-a-time processing, so outputs must match
exactly: blink ``(time_s, frame_index, prominence)`` sequence, frames
processed and restarts, end-of-stream flush included.

The reference also records which frame's processing emitted each blink
(its index among the frames the session processed); latency of a blink
verdict is measured from that frame's due time. The simulator's
ground-truth blinks are never used: the detector is ~94% accurate, and
the check is about serving, not detection quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from common import FRAME_RATE_HZ

Blink = tuple[float, int, float]


@dataclass
class SessionOutput:
    """What one session produced, in comparable form."""

    blinks: list[Blink]
    frames_processed: int
    restarts: int

    @classmethod
    def of(cls, session: Any) -> "SessionOutput":
        return cls(
            [(e.time_s, e.frame_index, e.prominence) for e in session.blink_events],
            session.frames_processed,
            session.restarts,
        )


@dataclass
class Reference:
    """Serial reference outputs of one session."""

    output: SessionOutput
    #: Blinks emitted by frame processing, i.e. before the end-of-stream flush.
    blinks_before_close: int
    #: For each of those blinks, the index of the frame that emitted it.
    emitting: list[int]


def _capture_statuses(session: Any) -> list[Any]:
    """Collect every per-frame status the session's detector returns.

    Shadows the method on the reference session's own detector instance
    only; the sessions under load are never touched.
    """
    statuses: list[Any] = []
    detector = session.detector
    original = detector.process_block

    def capture(*args: Any, **kwargs: Any) -> Any:
        out = original(*args, **kwargs)
        statuses.extend(out)
        return out

    detector.process_block = capture
    return statuses


def _reference(session: Any, statuses: list[Any], blinks_before_close: int) -> Reference:
    emitting = [k for k, status in enumerate(statuses) if status.event is not None]
    if len(emitting) != blinks_before_close:
        raise RuntimeError(
            f"reference {session.session_id}: {len(emitting)} emitting frames, {blinks_before_close} blinks"
        )
    return Reference(SessionOutput.of(session), blinks_before_close, emitting)


def ingest_reference(session_id: str, frames: np.ndarray, timestamps_s: np.ndarray) -> Reference:
    """Reference for a network-fed session: one block, then ``close()``."""
    from repro.gateway.ingest import IngestSession

    session = IngestSession(session_id, n_bins=frames.shape[1], frame_rate_hz=FRAME_RATE_HZ)
    session.start()
    statuses = _capture_statuses(session)
    session.process_batch([session.make_item(float(t), f) for t, f in zip(timestamps_s, frames)])
    before = len(session.blink_events)
    session.close()
    return _reference(session, statuses, before)


def pump_reference(session_id: str, frames: np.ndarray) -> Reference:
    """Reference for an emulated-chip session: ``run_serial()``."""
    from repro.fleet.session import DetectorSession

    session = DetectorSession(session_id, frames)
    session.start()
    statuses = _capture_statuses(session)
    before: list[int] = []
    close = session.close

    def count_then_close() -> None:
        before.append(len(session.blink_events))
        close()

    session.close = count_then_close  # run_serial ends with close()
    session.run_serial()
    return _reference(session, statuses, before[0])


@dataclass
class CheckResult:
    """Outcome of comparing served sessions with their references."""

    sessions: int = 0
    compared: int = 0
    excluded_lossy: int = 0
    mismatches: list[str] = field(default_factory=list)
    misstamped: int = 0
    blinks: int = 0

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def merge(self, other: "CheckResult") -> None:
        self.sessions += other.sessions
        self.compared += other.compared
        self.excluded_lossy += other.excluded_lossy
        self.mismatches.extend(other.mismatches)
        self.misstamped += other.misstamped
        self.blinks += other.blinks


def compare(session_id: str, got: SessionOutput, ref: Reference, lossy: bool, span_s: tuple[float, float]) -> CheckResult:
    """Check one session. Lossy sessions are counted, not compared.

    ``span_s`` is the session's stream span; blinks stamped outside it are
    counted as misstamped (reported, never filtered).
    """
    result = CheckResult(sessions=1, blinks=len(got.blinks))
    lo, hi = span_s
    result.misstamped = sum(1 for t, _, _ in got.blinks if not lo <= t <= hi)
    if lossy:
        result.excluded_lossy = 1
        return result
    result.compared = 1
    want = ref.output
    problems = []
    if got.frames_processed != want.frames_processed:
        problems.append(f"frames_processed {got.frames_processed} != {want.frames_processed}")
    if got.restarts != want.restarts:
        problems.append(f"restarts {got.restarts} != {want.restarts}")
    if got.blinks != want.blinks:
        first = next(
            (i for i, (a, b) in enumerate(zip(got.blinks, want.blinks)) if a != b),
            min(len(got.blinks), len(want.blinks)),
        )
        problems.append(f"blinks differ at #{first} ({len(got.blinks)} vs {len(want.blinks)} in reference)")
    if problems:
        result.mismatches.append(f"{session_id}: " + "; ".join(problems))
    return result
