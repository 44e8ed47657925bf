"""Network-fed detector sessions.

:class:`IngestSession` is a :class:`~repro.fleet.session.DetectorSession`
without a chip: the vehicle's radar and SPI wire live on the *other* end
of a socket, and the gateway feeds the scheduler through
:meth:`~repro.fleet.scheduler.FleetScheduler.submit` with items built by
:meth:`IngestSession.make_item`. Lifecycle, detector, metrics and the
worker-side ``process_batch`` path are the base class's own.

Because the frames reach the detector bit-for-bit (the wire format
carries the driver's complex rows verbatim, CRC-protected), an ingest
session produces byte-identical detection output to a local replay of
the same recording — the property the gateway's end-to-end equality
test pins down.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fleet.events import FleetEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.session import DetectorSession, FrameItem, SessionConfig

__all__ = ["IngestSession"]


class IngestSession(DetectorSession):
    """A supervised detector session whose frames arrive over the network.

    Parameters
    ----------
    session_id:
        Stable identifier, from the connection's HELLO.
    n_bins:
        Fast-time bins per frame, from the HELLO geometry.
    frame_rate_hz:
        The *declared* slow-time frame rate. The detector is built with
        exactly this rate (not the nearest register quantisation), so
        blink apex timestamps match a local replay of the same trace.
    config / metrics / sink:
        As for :class:`~repro.fleet.session.DetectorSession`.
    """

    def __init__(
        self,
        session_id: str,
        n_bins: int,
        frame_rate_hz: float,
        config: SessionConfig | None = None,
        metrics: MetricsRegistry | None = None,
        sink: Callable[[FleetEvent], None] | None = None,
    ) -> None:
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        if not frame_rate_hz > 0:
            raise ValueError(f"frame_rate_hz must be positive, got {frame_rate_hz}")
        # The declared rate is the detector's rate: blink apex arithmetic
        # divides by it, and it must match the far side's recording exactly.
        config = config if config is not None else SessionConfig()
        self._init_session(session_id, n_bins, float(frame_rate_hz), config, metrics, sink)

    def make_item(self, timestamp_s: float, frame: np.ndarray) -> FrameItem:
        """Build a scheduler queue item for one wire frame.

        Stamps the item with the current detector generation — the same
        tagging :meth:`~repro.fleet.session.DetectorSession.produce`
        performs — so frames queued before a restart are flushed as
        stale instead of being fed to the reborn detector.
        """
        return (self.generation, timestamp_s, frame)
