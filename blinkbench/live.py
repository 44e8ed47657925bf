"""``live-threaded`` and ``live-sharded``: open-loop 25 FPS network-fed fleets.

64 vehicles, each one ``IngestSession`` fed at the paper's 25 FPS, so the
fleet offers 1,600 frames/s. One generator thread submits every frame at
its due time — trace timestamp plus the vehicle's join offset — whether or
not the system keeps up (open loop). Joins are staggered evenly across one
bin re-selection interval: with synchronised starts every session
re-selects its bin in the same 40 ms once every 5 s, and the tail latency
then measures that pile-up rather than the serving path.

The two workloads differ only in the backend behind ``submit``: the
threaded ``FleetScheduler`` in serve mode, or ``ShardedFleet`` with shard
processes fed through shared-memory rings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from common import FRAME_RATE_HZ, RESELECT_FRAMES, WORKERS, Observed, cpu_jiffies, cpu_seconds, peak_rss_mb, steal_frac, simulate_vehicles
from reference import CheckResult, SessionOutput, compare, ingest_reference

N_VEHICLES = 64
#: Vehicles join over one re-selection interval (5 s), then cold-start for
#: 2 s; the steady phase measured for latency starts after both.
WARMUP_S = RESELECT_FRAMES / FRAME_RATE_HZ + 2.0
#: Ring slots per shard, and the threaded per-session queue bound: the
#: gateway's default ``--queue-depth``.
QUEUE_DEPTH = 4096
POLL_S = 0.002
DRAIN_TIMEOUT_S = 60.0


def recording_registry() -> Any:
    """A ``MetricsRegistry`` that also keeps each session's latency observations.

    Sessions observe ``session.<id>.latency_s`` once per processed frame,
    in frame order, as the time from enqueue to detector done. Keeping
    the observations (the registry's own histograms retain a window only)
    gives each frame's completion without polling the sessions.
    """
    from repro.fleet.metrics import DEFAULT_HISTOGRAM_WINDOW, MetricsRegistry

    class RecordingRegistry(MetricsRegistry):
        def __init__(self) -> None:
            super().__init__()
            self.latencies: dict[str, list[float]] = {}

        def histogram(self, name: str, window: int = DEFAULT_HISTOGRAM_WINDOW) -> Any:
            histogram = super().histogram(name, window)
            if name.startswith("session.") and name.endswith(".latency_s") and name not in self.latencies:
                kept = self.latencies[name] = []
                observe = histogram.observe

                def observe_and_keep(value: float) -> None:
                    observe(value)
                    kept.append(value)

                histogram.observe = observe_and_keep
            return histogram

        def session_latencies(self, session_id: str) -> np.ndarray:
            return np.asarray(self.latencies.get(f"session.{session_id}.latency_s", []))

    return RecordingRegistry()


@dataclass
class LiveStack:
    backend: Any
    sessions: list[Any]
    arrivals: list[list[float]]
    metrics: Any


class LiveWorkload:
    """Open-loop live fleet over the threaded or the sharded backend."""

    def __init__(self, name: str, sharded: bool) -> None:
        self.name = name
        self.sharded = sharded
        self.traces: list[Any] = []
        self.refs: list[Any] = []

    # ----------------------------------------------------------------- set-up
    def prepare(self, seed: int, seconds: float) -> None:
        # Every vehicle streams from its join until the steady phase's end.
        period = 1.0 / FRAME_RATE_HZ
        join_s = np.arange(N_VEHICLES) * (RESELECT_FRAMES * period / N_VEHICLES)
        self.steady_s = (WARMUP_S, WARMUP_S + seconds)
        lengths = np.ceil((self.steady_s[1] - join_s) * FRAME_RATE_HZ) * period
        traces = simulate_vehicles(seed, lengths.tolist())
        # Network-fed sessions see the wire's complex64 frames.
        self.traces = [(t.vehicle_id, t.frames.astype(np.complex64), t.timestamps_s) for t in traces]
        due, vid, idx = [], [], []
        for v, (_, frames, ts) in enumerate(self.traces):
            due.append(join_s[v] + ts)
            vid.append(np.full(len(ts), v))
            idx.append(np.arange(len(ts)))
        due_all = np.concatenate(due)
        order = np.argsort(due_all, kind="stable")
        self.due_by_vehicle = due
        self.schedule = (due_all[order], np.concatenate(vid)[order], np.concatenate(idx)[order])

    def build(self, traced: bool = False) -> LiveStack:
        from repro.fleet.events import BlinkEvent
        from repro.fleet.scheduler import FleetScheduler
        from repro.gateway.ingest import IngestSession

        metrics = recording_registry()
        if self.sharded:
            from repro.shard.fleet import ShardedFleet

            backend: Any = ShardedFleet([], workers=WORKERS, queue_depth=QUEUE_DEPTH, metrics=metrics)
        else:
            backend = FleetScheduler([], workers=WORKERS, queue_depth=QUEUE_DEPTH, metrics=metrics)
        backend.start()
        arrivals: list[list[float]] = [[] for _ in self.traces]
        sessions = []
        for v, (sid, frames, _) in enumerate(self.traces):

            def sink(event: Any, stamps: list[float] = arrivals[v]) -> None:
                if isinstance(event, BlinkEvent):
                    stamps.append(time.perf_counter())

            session = IngestSession(sid, n_bins=frames.shape[1], frame_rate_hz=FRAME_RATE_HZ, metrics=metrics, sink=sink)
            session.start()
            backend.attach(session)
            sessions.append(session)
        return LiveStack(backend, sessions, arrivals, metrics)

    def discard(self, stack: LiveStack) -> None:
        stack.backend.stop()

    def replay_blocks(self) -> list[np.ndarray]:
        return [frames for _, frames, _ in self.traces]

    def reference(self) -> None:
        self.refs = [ingest_reference(sid, frames, ts) for sid, frames, ts in self.traces]

    # ------------------------------------------------------------------ drive
    def drive(self, stack: LiveStack, tracer: Any = None) -> Observed:
        backend, sessions = stack.backend, stack.sessions
        due, vid, idx = self.schedule
        frames = [f for _, f, _ in self.traces]
        stamps = [ts for _, _, ts in self.traces]
        lag = np.empty(len(due))
        submitted = np.empty(len(due))
        submit = backend.submit
        t0 = time.perf_counter() + 0.2
        due_abs = t0 + due
        host_start, cpu_start = cpu_jiffies(), cpu_seconds()
        for i in range(len(due_abs)):
            now = time.perf_counter()
            if now < due_abs[i]:
                time.sleep(due_abs[i] - now)
                now = time.perf_counter()
            lag[i] = now - due_abs[i]
            v, k = vid[i], idx[i]
            session = sessions[v]
            submit(session.session_id, session.make_item(float(stamps[v][k]), frames[v][k]))
            submitted[i] = time.perf_counter()
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while not backend.idle() and time.perf_counter() < deadline:
            time.sleep(POLL_S)
        dropped = backend.dropped()
        for session in sessions:
            backend.detach(session.session_id)
            session.close()
        rss = peak_rss_mb()
        cpu, host = cpu_seconds() - cpu_start, steal_frac(host_start, cpu_jiffies())
        backend.stop()
        # Submit-return time per (vehicle, frame), for frame completion below.
        returned = [np.empty(len(ts)) for ts in stamps]
        for v in range(len(returned)):
            returned[v][idx[vid == v]] = submitted[vid == v]
        obs = self._observe(stack, t0, lag, returned, dropped, rss)
        obs.cpu_s, obs.steal_frac = cpu, host
        return obs

    def _observe(self, stack: LiveStack, t0: float, lag: np.ndarray, returned: list[np.ndarray], dropped: dict[str, int], rss: float) -> Observed:
        obs = Observed(lag_s=lag.tolist(), peak_rss_mb=rss, check=CheckResult(), steady_s=self.steady_s)
        last_done = t0
        for v, session in enumerate(stack.sessions):
            sid, _, ts = self.traces[v]
            sent = len(ts)
            got = SessionOutput.of(session)
            lossy = dropped.get(sid, 0) > 0 or got.frames_processed != sent
            obs.offered += sent
            obs.processed += got.frames_processed
            obs.failed += sent - got.frames_processed
            ref = self.refs[v]
            obs.check.merge(compare(sid, got, ref, lossy, (float(ts[0]), float(ts[-1]))))
            if lossy:
                continue
            # Frame k is done at (submit returned) + (enqueue -> detector
            # done, as the session observed it). The submit call's own time
            # after the enqueue stamp is counted too: a few microseconds.
            due = self.due_by_vehicle[v]
            done = returned[v] + stack.metrics.session_latencies(sid) - t0
            last_done = max(last_done, t0 + float(done.max()))
            obs.frame_latency_s.extend((done - due).tolist())
            obs.frame_due_s.extend(due.tolist())
            arrivals = stack.arrivals[v]
            for j, k in enumerate(ref.emitting[: len(arrivals)]):
                obs.blink_latency_s.append(arrivals[j] - t0 - due[k])
                obs.blink_due_s.append(float(due[k]))
        obs.wall_s = last_done - t0
        obs.throughput_fps = obs.processed / obs.wall_s
        return obs
