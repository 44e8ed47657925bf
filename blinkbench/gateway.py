"""``gateway-record``: two vehicles replayed over TCP into a recording gateway.

A ``python -m repro gateway serve`` subprocess (threaded backend, 2
workers, ``--record-dir`` tee) serves two TCP connections, each replaying
a *different* trace at 20x real time (500 frames/s each, 1,000 frames/s
total) in open loop. This is the only workload that exercises the
``gateway`` layer (decode, submit, 2 ms completion-watermark ACK pump) and
the ``store`` writer. Its working set is two traces, against 64
elsewhere.

The client is the benchmark's own: it pre-encodes every FRAME message
before timing starts, sends each at its due time, and stamps each frame
done when an ACK watermark covers it. Outputs are checked from outside:
the DRAIN statistics against a serial reference, and each recording's
content hash against its source trace's.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from common import FRAME_RATE_HZ, ROOT, WORKERS, Observed, cpu_jiffies, cpu_seconds, peak_rss_mb, program_env, simulate_vehicles, steal_frac
from reference import CheckResult, ingest_reference

N_CONNECTIONS = 2
SPEEDUP = 20.0
#: Both sessions are past their 2 s (trace time) cold start after 0.1 s;
#: the first wall second is left out of the latency statistics.
WARMUP_S = 1.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: Bound on any wait for a server reply (HELLO ack, DRAIN, BYE).
REPLY_TIMEOUT_S = 60.0


@dataclass
class GatewayStack:
    process: subprocess.Popen
    port: int
    record_dir: Path
    summary_path: Path | None
    log: Any


@dataclass
class _Conn:
    sid: str
    encoded: list[bytes] = field(default_factory=list)
    due: np.ndarray = field(default_factory=lambda: np.empty(0))
    done: np.ndarray = field(default_factory=lambda: np.empty(0))
    lag: np.ndarray = field(default_factory=lambda: np.empty(0))
    acks: int = 0
    stats: dict[str, Any] = field(default_factory=dict)


class GatewayWorkload:
    name = "gateway-record"

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.traces: list[Any] = []
        self.refs: list[Any] = []
        self.source_hashes: list[str] = []
        self._builds = 0

    # ----------------------------------------------------------------- set-up
    def prepare(self, seed: int, seconds: float) -> None:
        from repro.store.writer import TraceWriter

        traces = simulate_vehicles(seed, [seconds * SPEEDUP] * N_CONNECTIONS)
        self.steady_s = (WARMUP_S, seconds)
        self.traces = [(t.vehicle_id, t.frames.astype(np.complex64), t.timestamps_s) for t in traces]
        self.source_hashes = []
        for sid, frames, ts in self.traces:
            path = self.run_dir / "source" / f"{sid}.rst"
            path.parent.mkdir(parents=True, exist_ok=True)
            with TraceWriter(path, n_bins=frames.shape[1], frame_rate_hz=FRAME_RATE_HZ, dtype=np.complex64) as writer:
                writer.append_batch(frames, ts)
            self.source_hashes.append(writer.content_hash())

    def build(self, traced: bool = False) -> GatewayStack:
        self._builds += 1
        record_dir = self.run_dir / f"recordings-{self._builds}"
        serve = [
            "--host", "127.0.0.1", "--port", "0", "--http-port", "0",
            "--workers", str(WORKERS), "--backend", "threaded", "--record-dir", str(record_dir),
        ]
        summary_path = None
        if traced:
            summary_path = self.run_dir / "server-summary.json"
            spans_path = self.run_dir.parent / f"spans-{self.name}-server.jsonl.gz"
            cmd = [sys.executable, str(Path(__file__).with_name("gateway_server.py")),
                   "--summary", str(summary_path), "--spans", str(spans_path), "--", *serve]
        else:
            cmd = [sys.executable, "-m", "repro", "gateway", "serve", *serve]
        env = program_env()
        env["PYTHONUNBUFFERED"] = "1"
        log = open(self.run_dir / f"server-{self._builds}.log", "w")
        process = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
        watchdog = threading.Timer(START_TIMEOUT_S, process.kill)
        watchdog.start()
        try:
            line = process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line.startswith("gateway listening on"):
            process.kill()
            process.wait()
            log.close()
            raise RuntimeError(f"gateway server failed to start: {line!r}")
        port = int(line.split()[3].split(":")[1])
        return GatewayStack(process, port, record_dir, summary_path, log)

    def discard(self, stack: GatewayStack) -> None:
        self._stop(stack)

    def _stop(self, stack: GatewayStack) -> int:
        stack.process.send_signal(signal.SIGTERM)
        try:
            code = stack.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stack.process.kill()
            code = stack.process.wait()
        stack.process.stdout.close()
        stack.log.close()
        return code

    def replay_blocks(self) -> list[np.ndarray]:
        return [frames for _, frames, _ in self.traces]

    def reference(self) -> None:
        self.refs = [ingest_reference(sid, frames, ts) for sid, frames, ts in self.traces]

    # ------------------------------------------------------------------ drive
    def drive(self, stack: GatewayStack, tracer: Any = None) -> Observed:
        host_start, cpu_start = cpu_jiffies(), cpu_seconds()
        conns = asyncio.run(self._clients(stack.port, tracer))
        cpu, host = cpu_seconds() - cpu_start, steal_frac(host_start, cpu_jiffies())
        rss = peak_rss_mb()
        code = self._stop(stack)
        obs = Observed(peak_rss_mb=rss, cpu_s=cpu, steal_frac=host, check=CheckResult(), steady_s=self.steady_s)
        if code != 0:
            obs.check.mismatches.append(f"gateway server exited with code {code}")
        t0 = min(float(c.due[0]) for c in conns)
        last_done = t0
        for c, ref, (sid, _frames, _ts), source_hash in zip(conns, self.refs, self.traces, self.source_hashes):
            sent = len(c.encoded)
            stats = c.stats
            processed, dropped = int(stats.get("processed", 0)), int(stats.get("dropped_queue", 0))
            obs.offered += sent
            obs.processed += processed
            obs.failed += sent - processed
            obs.check.sessions += 1
            obs.check.blinks += int(stats.get("blinks", 0))
            last_done = max(last_done, float(np.nanmax(c.done)))
            if processed + dropped != sent:
                obs.check.mismatches.append(f"{sid}: processed {processed} + dropped {dropped} != sent {sent}")
            recording = stack.record_dir / f"{sid}.rst"
            got_hash = _content_hash(recording)
            if got_hash != source_hash:
                obs.check.mismatches.append(f"{sid}: recording hash {got_hash} != source {source_hash}")
            if dropped:
                obs.check.excluded_lossy += 1
                continue
            obs.check.compared += 1
            if int(stats.get("blinks", -1)) != ref.blinks_before_close:
                obs.check.mismatches.append(f"{sid}: DRAIN blinks {stats.get('blinks')} != reference {ref.blinks_before_close}")
            obs.frame_latency_s.extend((c.done - c.due).tolist())
            obs.frame_due_s.extend((c.due - t0).tolist())
            obs.blink_latency_s.extend((c.done[ref.emitting] - c.due[ref.emitting]).tolist())
            obs.blink_due_s.extend((c.due[ref.emitting] - t0).tolist())
            obs.lag_s.extend(c.lag.tolist())
        obs.wall_s = last_done - t0
        obs.throughput_fps = obs.processed / obs.wall_s
        obs.extra["acks"] = sum(c.acks for c in conns)
        obs.extra["frames_sent"] = sum(len(c.encoded) for c in conns)
        if stack.summary_path is not None:
            obs.extra["server_summary"] = json.loads(stack.summary_path.read_text())
        return obs

    async def _clients(self, port: int, tracer: Any) -> list[_Conn]:
        from repro.gateway.protocol import (
            Ack, Bye, Drain, Frame, Hello, WireDecoder, encode_frame_payload, encode_message,
        )

        loop = asyncio.get_running_loop()
        period = 1.0 / (FRAME_RATE_HZ * SPEEDUP)
        conns = [_Conn(sid) for sid, _, _ in self.traces]
        streams = []
        for c, (sid, frames, ts) in zip(conns, self.traces):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_message(Hello(session_id=sid, n_bins=frames.shape[1], frame_rate_hz=FRAME_RATE_HZ, dtype="c64")))
            await writer.drain()
            decoder = WireDecoder()
            hello_ack = None
            while hello_ack is None:
                data = await asyncio.wait_for(reader.read(1 << 16), REPLY_TIMEOUT_S)
                if not data:
                    raise ConnectionError(f"gateway closed {sid} during HELLO")
                hello_ack = next((m for m in decoder.feed(data) if isinstance(m, Ack)), None)
            c.encoded = [
                encode_message(Frame(session=hello_ack.session, seq=k, timestamp_s=float(t), payload=encode_frame_payload(f, "c64")))
                for k, (t, f) in enumerate(zip(ts, frames))
            ]
            c.done = np.full(len(c.encoded), np.nan)
            c.lag = np.empty(len(c.encoded))
            streams.append((reader, writer, decoder, hello_ack.session))

        t0 = time.perf_counter() + 0.2
        for n, c in enumerate(conns):
            # Interleave the connections by half a frame period.
            c.due = t0 + (np.arange(len(c.encoded)) + n / N_CONNECTIONS) * period

        async def receive(c: _Conn, reader: asyncio.StreamReader, decoder: Any, replies: dict[type, asyncio.Future]) -> None:
            acked = 0
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    for reply in replies.values():
                        if not reply.done():
                            reply.set_exception(ConnectionError(f"gateway closed {c.sid}"))
                    return
                now = time.perf_counter()
                for msg in decoder.feed(data):
                    if isinstance(msg, Ack):
                        c.acks += 1
                        if msg.seq > acked:
                            c.done[acked : msg.seq] = now
                            acked = msg.seq
                    elif type(msg) in replies and not replies[type(msg)].done():
                        if isinstance(msg, Drain):
                            # The DRAIN reply certifies every sent frame has
                            # left the pipeline, watermark ACK or not.
                            c.done[np.isnan(c.done)] = now
                        replies[type(msg)].set_result(msg)

        async def send(c: _Conn, writer: asyncio.StreamWriter, session_index: int, replies: dict[type, asyncio.Future]) -> None:
            for k, message in enumerate(c.encoded):
                wait = c.due[k] - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                c.lag[k] = time.perf_counter() - c.due[k]
                if tracer is None:
                    writer.write(message)
                else:
                    tracer.record("gateway.send", writer.write, (message,), {})
                await writer.drain()
            writer.write(encode_message(Drain(session=session_index)))
            await writer.drain()
            c.stats = dict((await replies[Drain]).stats or {})
            writer.write(encode_message(Bye(session=session_index)))
            await writer.drain()
            await replies[Bye]

        tasks = []
        for c, (reader, writer, decoder, session_index) in zip(conns, streams):
            replies = {Drain: loop.create_future(), Bye: loop.create_future()}
            tasks.append((asyncio.ensure_future(receive(c, reader, decoder, replies)), send(c, writer, session_index, replies)))
        try:
            await asyncio.wait_for(asyncio.gather(*(s for _, s in tasks)), period * max(len(c.encoded) for c in conns) + REPLY_TIMEOUT_S)
        finally:
            for receiver, _ in tasks:
                receiver.cancel()
            await asyncio.gather(*(r for r, _ in tasks), return_exceptions=True)
            for _, writer, _, _ in streams:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        return conns


def _content_hash(path: Path) -> str:
    from repro.store.reader import TraceReader

    if not path.is_file():
        return "<missing>"
    with TraceReader(path) as reader:
        return reader.content_hash()
