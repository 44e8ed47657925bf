"""Turn a traced run into the per-layer ledger and its metrics.

Every per-layer number is normalised by the frames the traced phase
processed, or taken per call where the layer's unit of work is a call
(submit, decode, append, report). A layer that does no work on a workload
reports 0: the workload bypasses it.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from common import FRAME_RATE_HZ, WORKERS, Observed, median, percentile
from tracing import LAYER_OF, LAYERS

#: End-to-end metrics whose untraced-vs-traced difference is the tracing overhead.
#: (Peak RSS is a process high-water mark, and the traced drive runs after
#: the untraced one in the same process, so it has no overhead figure.)
OVERHEAD_OF = ["throughput_fps", "cpu_ms_per_frame"]
LATENCIES = ["blink_latency_ms.p50", "blink_latency_ms.p99", "frame_latency_ms.p50", "frame_latency_ms.p99"]


def end_to_end(obs: Observed, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of one drive (closed loop: the best repetition)."""
    if obs.reps:
        throughput = max(rep["throughput_fps"] for rep in obs.reps)
        cpu_ms = min(rep["cpu_ms_per_frame"] for rep in obs.reps)
    else:
        throughput, cpu_ms = obs.throughput_fps, obs.cpu_s * 1e3 / obs.processed
    return {"setup_s": setup_s, "throughput_fps": throughput, "cpu_ms_per_frame": cpu_ms, "peak_rss_mb": obs.peak_rss_mb}


def latencies(obs: Observed) -> dict[str, float]:
    """Verdict latency percentiles of one drive, in ms.

    Open loop: samples due in the steady phase, pooled. Closed loop:
    medians over repetitions.
    """
    if obs.reps:
        return {name: median([rep[name] for rep in obs.reps]) for name in LATENCIES}
    out = {}
    lo, hi = obs.steady_s
    for family in ("blink", "frame"):
        due = np.asarray(getattr(obs, f"{family}_due_s"))
        values = np.asarray(getattr(obs, f"{family}_latency_s"))[(due >= lo) & (due < hi)]
        for q in (50, 99):
            out[f"{family}_latency_ms.p{q}"] = percentile(values, q) * 1e3
    return out


def batched_fps(blocks_by_session: list[np.ndarray], chunk: int = 25) -> float:
    """Single-threaded ``BatchedPipeline`` replay of the same frames: the floor row."""
    from repro.core.batched import BatchedPipeline

    pipeline = BatchedPipeline(FRAME_RATE_HZ, n_sessions=len(blocks_by_session))
    longest = max(len(b) for b in blocks_by_session)
    start = time.perf_counter()
    for a in range(0, longest, chunk):
        pipeline.process_block([b[a : a + chunk] for b in blocks_by_session])
    elapsed = time.perf_counter() - start
    return sum(len(b) for b in blocks_by_session) / elapsed


def ledger_rows(summary: dict[str, Any], frames: int) -> list[tuple[str, int, float, float]]:
    """(layer, spans, self ms, self ms per frame) per layer, in ledger order."""
    rows = []
    for layer in LAYERS:
        spans = sum(int(e["count"]) for n, e in summary["names"].items() if LAYER_OF.get(n) == layer)
        self_s = sum(e["self_s"] for n, e in summary["names"].items() if LAYER_OF.get(n) == layer)
        rows.append((layer, spans, self_s * 1e3, self_s * 1e3 / frames if frames else 0.0))
    return rows


def per_layer(summary: dict[str, Any], traced: Observed, untraced: Observed, e2e_untraced: dict[str, float], e2e_traced: dict[str, float], floor_fps: float) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where the layer is idle).

    ``untraced`` is the same workload's untraced drive in the same run: the
    generator's latency view and the tracing overhead come from it.
    """
    """Every per-layer metric of one traced run (0 where the layer is idle)."""
    names, samples, counts = summary["names"], summary["samples"], summary["counts"]
    frames = max(traced.processed, 1)

    def total(name: str) -> float:
        return names.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return int(names.get(name, {}).get("count", 0))

    def per_frame_ms(name: str) -> float:
        return total(name) * 1e3 / frames

    def per_call(name: str, scale: float) -> float:
        return total(name) * scale / calls(name) if calls(name) else 0.0

    def pct(key: str, q: float, scale: float) -> float:
        values = samples.get(key, [])
        return percentile(values, q) * scale if values else 0.0

    def mean(key: str) -> float:
        values = samples.get(key, [])
        return float(np.mean(values)) if values else 0.0

    lookups = ("metrics.counter", "metrics.gauge", "metrics.histogram")
    out = {
        "core.ms_per_frame": per_frame_ms("core.process_block"),
        "core.stage1.ms_per_frame": per_frame_ms("core.stage1"),
        "core.arcfit.ms_per_frame": per_frame_ms("core.arcfit"),
        "core.levd.ms_per_frame": per_frame_ms("core.levd"),
        "core.binselect.calls": float(calls("core.binselect")),
        "core.binselect.ms_per_call": per_call("core.binselect", 1e3),
        "core.frames_per_call": frames / calls("core.process_block") if calls("core.process_block") else 0.0,
        "core.batched_fps": floor_fps,
        "fleet.session.ms_per_frame": names.get("session.process_batch", {}).get("self_s", 0.0) * 1e3 / frames,
        "fleet.metrics.lookups_per_frame": sum(calls(n) for n in lookups) / frames,
        "fleet.metrics.ms_per_frame": sum(total(n) for n in lookups) * 1e3 / frames,
        "fleet.scheduler.queue_wait_ms.p50": pct("queue_wait_s", 50, 1e3),
        "fleet.scheduler.queue_wait_ms.p99": pct("queue_wait_s", 99, 1e3),
        "fleet.scheduler.batch_frames.mean": mean("batch_frames"),
        "fleet.scheduler.submit_us": per_call("scheduler.submit", 1e6),
        "fleet.scheduler.worker_busy_frac": total("session.process_batch") / (WORKERS * traced.wall_s) if traced.wall_s else 0.0,
        "fleet.scheduler.produce_ms_per_frame": per_frame_ms("session.produce"),
        "hardware.spi_tx_per_frame": calls("hw.spi") / frames,
        "hardware.spi_ms_per_frame": per_frame_ms("hw.spi"),
        "hardware.burst_ms_per_frame": per_frame_ms("hw.burst"),
        "hardware.tick_ms_per_frame": per_frame_ms("hw.tick"),
        "hardware.poll_ms_per_frame": per_frame_ms("hw.poll"),
        "shard.submit_us": per_call("shard.submit", 1e6),
        "shard.ring_occupancy.max": max(samples.get("ring_size", [0.0])),
        "shard.ring_size_gt_capacity": float(counts.get("ring_size_gt_capacity", 0)),
        "shard.ring_drops": float(counts.get("ring_drops", 0)),
        "shard.reports": float(calls("shard.apply")),
        "shard.observations_per_report": mean("observations_per_report"),
        "shard.report_apply_ms": per_call("shard.apply", 1e3),
        "gateway.send_us": per_call("gateway.send", 1e6),
        "gateway.acks_per_frame": traced.extra.get("acks", 0) / max(traced.extra.get("frames_sent", 0), 1),
        "gateway.decode_us": per_call("gateway.decode", 1e6),
        "gateway.submit_us": per_call("scheduler.submit", 1e6) if "server_summary" in traced.extra else 0.0,
        "store.append_us": per_call("store.append", 1e6),
        "loadgen.lag_ms.p99": percentile(untraced.lag_s, 99) * 1e3 if untraced.lag_s else 0.0,
        "loadgen.lag_ms.max": max(untraced.lag_s) * 1e3 if untraced.lag_s else 0.0,
        "check.blinks_misstamped": float(untraced.check.misstamped),
        "check.failed_frac": untraced.failed / untraced.offered,
        "host.steal_frac": untraced.steal_frac,
    }
    for name, value in latencies(untraced).items():
        out[f"loadgen.{name}"] = value
    for row in ledger_rows(summary, frames):
        out[f"ledger.{row[0]}.self_ms_per_frame"] = row[3]
    traced_latency, untraced_latency = latencies(traced), latencies(untraced)
    for name in OVERHEAD_OF:
        out[f"overhead.{name}"] = e2e_traced[name] / e2e_untraced[name] - 1.0
    for name in LATENCIES:
        out[f"overhead.{name}"] = traced_latency[name] / untraced_latency[name] - 1.0
    return out
