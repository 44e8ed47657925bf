"""``pump-catchup``: the emulated-chip fleet pump, unpaced (closed loop).

64 ``DetectorSession``s, each behind its own emulated IR-UWB chip, SPI
bus and driver, pumped by ``FleetScheduler.run`` with 2 workers and no
pacing: the pump produces as fast as the stack lets it. This is the
``python -m repro fleet`` / ``FleetService`` surface, and the only
workload where the ``hardware`` layer does the work.

A run repeats the whole fleet (fresh sessions over the same worlds) about
once per 3 s of ``--seconds``, at least 5 times, and reports the best
repetition's throughput and CPU cost: the best-of-N rule the repo's kernel
benchmarks use on noisy hosts (``benchmarks/conftest.py::timed_fps``).
Latencies are medians over repetitions. A closed loop has no due times, so latencies start when
the chip hands a frame to the host: a pass-through SPI wire (the public
``wire_factory`` hook) stamps each burst read, which is one frame, and
blink latency runs from that stamp to the ``BlinkEvent`` at the sink.
Frame latency is the session's own enqueue-to-done observation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from common import WORKERS, Observed, cpu_jiffies, cpu_seconds, median, peak_rss_mb, percentile, simulate_vehicles, steal_frac
from live import QUEUE_DEPTH, recording_registry
from reference import CheckResult, SessionOutput, compare, pump_reference

N_VEHICLES = 64
#: World length per vehicle and repetition (seconds of device time).
WORLD_S = 6.0


class StampingWire:
    """SPI pass-through that stamps the host time of every burst read."""

    def __init__(self, device: Any) -> None:
        self._device = device
        self.stamps: list[float] = []

    def spi_transaction(self, mosi: bytes) -> bytes:
        reply = self._device.spi_transaction(mosi)
        if len(reply) > 2:  # only burst reads carry more than ACK + one byte
            self.stamps.append(time.perf_counter())
        return reply


@dataclass
class PumpStack:
    sessions: list[Any]
    wires: list[StampingWire]
    arrivals: list[list[float]]
    metrics: Any


class PumpWorkload:
    name = "pump-catchup"

    def __init__(self) -> None:
        self.traces: list[Any] = []
        self.refs: list[Any] = []

    def prepare(self, seed: int, seconds: float) -> None:
        self.traces = simulate_vehicles(seed, [WORLD_S] * N_VEHICLES)
        self.repetitions = max(5, round(seconds / 3.0))

    def build(self, traced: bool = False) -> PumpStack:
        from repro.fleet.events import BlinkEvent
        from repro.fleet.session import DetectorSession

        metrics = recording_registry()
        sessions, wires, arrivals = [], [], []
        for trace in self.traces:
            stamps: list[float] = []

            def sink(event: Any, stamps: list[float] = stamps) -> None:
                if isinstance(event, BlinkEvent):
                    stamps.append(time.perf_counter())

            def wire_factory(device: Any, wires: list[StampingWire] = wires) -> StampingWire:
                wires.append(StampingWire(device))
                return wires[-1]

            sessions.append(DetectorSession(trace.vehicle_id, trace.frames, wire_factory=wire_factory, metrics=metrics, sink=sink))
            arrivals.append(stamps)
        return PumpStack(sessions, wires, arrivals, metrics)

    def discard(self, stack: PumpStack) -> None:
        pass

    def replay_blocks(self) -> list[np.ndarray]:
        return [t.frames for t in self.traces]

    def reference(self) -> None:
        self.refs = [pump_reference(t.vehicle_id, t.frames) for t in self.traces]

    def drive(self, stack: PumpStack, tracer: Any = None) -> Observed:
        from repro.fleet.scheduler import FleetScheduler

        obs = Observed(check=CheckResult())
        for rep in range(self.repetitions):
            if rep:
                stack = self.build()
            scheduler = FleetScheduler(stack.sessions, workers=WORKERS, queue_depth=QUEUE_DEPTH, metrics=stack.metrics)
            host_start, cpu_start = cpu_jiffies(), cpu_seconds()
            t0 = time.perf_counter()
            scheduler.run()
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu_start
            obs.peak_rss_mb = max(obs.peak_rss_mb, peak_rss_mb())
            one = Observed(check=obs.check, wall_s=wall, cpu_s=cpu, steal_frac=steal_frac(host_start, cpu_jiffies()))
            self._observe(stack, one)
            one.throughput_fps = one.processed / wall
            obs.reps.append(closed_loop_stats(one))
            for name in ("offered", "processed", "failed", "wall_s", "cpu_s"):
                setattr(obs, name, getattr(obs, name) + getattr(one, name))
            obs.blink_latency_s += one.blink_latency_s
            obs.frame_latency_s += one.frame_latency_s
            # Free this fleet before the next is built: peak RSS is one fleet's.
            del scheduler
            stack.sessions.clear()
            stack.wires.clear()
            stack.arrivals.clear()
        obs.throughput_fps = median([r["throughput_fps"] for r in obs.reps])
        obs.steal_frac = median([r["steal_frac"] for r in obs.reps])
        return obs

    def _observe(self, stack: PumpStack, obs: Observed) -> None:
        for v, session in enumerate(stack.sessions):
            sid = session.session_id
            n_world = len(self.traces[v].timestamps_s)
            got = SessionOutput.of(session)
            # Nothing is dropped in an unfaulted pump: every world frame
            # must reach the detector.
            lossy = got.frames_processed != n_world
            obs.offered += n_world
            obs.processed += got.frames_processed
            obs.failed += n_world - got.frames_processed
            ref = self.refs[v]
            span = (0.0, float(self.traces[v].timestamps_s[-1]))
            obs.check.merge(compare(sid, got, ref, lossy, span))
            if lossy:
                continue
            # Enqueue -> detector done, as the session observed it; the
            # pump enqueues a frame microseconds after the chip hands it over.
            obs.frame_latency_s.extend(stack.metrics.session_latencies(sid).tolist())
            handed = stack.wires[v].stamps
            arrivals = stack.arrivals[v]
            for j, k in enumerate(ref.emitting[: len(arrivals)]):
                obs.blink_latency_s.append(arrivals[j] - handed[k])


def closed_loop_stats(rep: Observed) -> dict[str, float]:
    """End-to-end statistics of one repetition."""
    return {
        "throughput_fps": rep.throughput_fps,
        "cpu_ms_per_frame": rep.cpu_s * 1e3 / rep.processed,
        "steal_frac": rep.steal_frac,
        "blink_latency_ms.p50": percentile(rep.blink_latency_s, 50) * 1e3,
        "blink_latency_ms.p99": percentile(rep.blink_latency_s, 99) * 1e3,
        "frame_latency_ms.p50": percentile(rep.frame_latency_s, 50) * 1e3,
        "frame_latency_ms.p99": percentile(rep.frame_latency_s, 99) * 1e3,
    }
