"""In-memory span tracing of the serving stack, installed from outside.

A :class:`Tracer` wraps public functions of each layer (class methods and
module-level functions) with a recorder. Each call becomes one span —
name, start, end, parent span, thread and session id — kept in memory
and written out once the run ends. Spans nest per thread, so a layer's
*self time* is its span duration minus the durations of its child spans.

Wrappers are installed only in traced runs and removed afterwards; the
untraced runs that produce the end-to-end numbers execute the program
unmodified. The gateway server process installs the same wrappers
through ``gateway_server.py`` and ships its :meth:`Tracer.summary` back.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from pathlib import Path
from typing import Any

from common import FRAME_RATE_HZ

#: Span name -> layer, in ledger order. Layers are named by module.
LAYER_OF = {
    "core.process_block": "core",
    "core.stage1": "core",
    "core.arcfit": "core",
    "core.levd": "core",
    "core.binselect": "core",
    "session.process_batch": "fleet.session",
    "session.produce": "fleet.session",
    "metrics.counter": "fleet.metrics",
    "metrics.gauge": "fleet.metrics",
    "metrics.histogram": "fleet.metrics",
    "scheduler.submit": "fleet.scheduler",
    "hw.spi": "hardware",
    "hw.burst": "hardware",
    "hw.tick": "hardware",
    "hw.poll": "hardware",
    "shard.submit": "shard",
    "shard.push": "shard",
    "shard.apply": "shard",
    "gateway.send": "gateway",
    "gateway.decode": "gateway",
    "store.append": "store",
}
LAYERS = ["core", "fleet.session", "fleet.metrics", "fleet.scheduler", "hardware", "shard", "gateway", "store"]

#: (span name, module, attribute path) of every wrapped public function.
#: ``select_eye_bin`` is patched where ``repro.core.realtime`` looks it up;
#: ``apply_delta`` where ``repro.shard.fleet`` does.
TARGETS = [
    ("core.process_block", "repro.core.realtime", "RealTimeBlinkDetector.process_block"),
    ("core.stage1", "repro.core.preprocess", "Preprocessor.denoise_block"),
    ("core.arcfit", "repro.core.viewpos", "ViewingPositionTracker.push"),
    ("core.levd", "repro.core.levd", "LocalExtremeValueDetector.push"),
    ("core.binselect", "repro.core.realtime", "select_eye_bin"),
    ("session.process_batch", "repro.fleet.session", "DetectorSession.process_batch"),
    ("session.produce", "repro.fleet.session", "DetectorSession.produce"),
    ("metrics.counter", "repro.fleet.metrics", "MetricsRegistry.counter"),
    ("metrics.gauge", "repro.fleet.metrics", "MetricsRegistry.gauge"),
    ("metrics.histogram", "repro.fleet.metrics", "MetricsRegistry.histogram"),
    ("scheduler.submit", "repro.fleet.scheduler", "FleetScheduler.submit"),
    ("hw.spi", "repro.hardware.device", "UwbRadarDevice.spi_transaction"),
    ("hw.burst", "repro.hardware.spi", "SpiBus.burst_read"),
    ("hw.tick", "repro.hardware.device", "UwbRadarDevice.tick"),
    ("hw.poll", "repro.hardware.driver", "FrameStream.poll"),
    ("shard.submit", "repro.shard.fleet", "ShardedFleet.submit"),
    ("shard.push", "repro.shard.ring", "ShmRing.push"),
    ("shard.apply", "repro.shard.fleet", "apply_delta"),
    ("gateway.decode", "repro.gateway.protocol", "WireDecoder.feed"),
    ("store.append", "repro.store.record", "Recorder.append"),
]


class Tracer:
    """Records spans and per-call samples from wrapped layer functions."""

    def __init__(self) -> None:
        #: (span id, name, start s, end s, parent id or -1, thread id,
        #: session id or "", frame index or -1)
        self.spans: list[tuple[int, str, float, float, int, int, str, int]] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict, sid: str = "", frame: int = -1) -> Any:
        """Run ``fn`` inside a span named ``name``.

        ``sid`` and ``frame`` identify the session and (first) frame the
        call works on, where the arguments say.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident(), sid, frame))

    def _wrapper(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if hook is None:
                return tracer.record(name, fn, args, kwargs)
            return hook(tracer, name, fn, args, kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------ installing
    def install(self) -> None:
        """Wrap every target; idempotent per tracer."""
        if self._undo:
            return
        for name, module_name, path in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- results
    def summary(self) -> dict[str, Any]:
        """Per-span-name count, total and self time, plus samples and counts."""
        child_time: dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, name, start, end, *_ in self.spans:
            entry = names[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time.get(span_id, 0.0)
        return {
            "names": dict(names),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counts": dict(self.counts),
        }

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (gzip)."""
        keys = ("id", "name", "start", "end", "parent", "thread", "session", "frame")
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --------------------------------------------------------------------- hooks
# Hooks take (tracer, name, fn, args, kwargs) and return fn's result. They
# add per-call samples where a layer's useful counts live in arguments or
# results rather than in the span itself.


def _process_batch(tracer: Tracer, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
    session, items = args[0], args[1]
    enqueued = kwargs.get("enqueued_ats", args[2] if len(args) > 2 else None)
    now = time.perf_counter()
    stamps = [e for e in (enqueued or []) if e is not None]
    if stamps:
        tracer.samples["queue_wait_s"].append(now - min(stamps))
    tracer.samples["batch_frames"].append(float(len(items)))
    frame = _frame_index(session, items[0][1]) if items else -1
    return tracer.record(name, fn, args, kwargs, sid=session.session_id, frame=frame)


def _frame_index(session: Any, time_s: float) -> int:
    return round(time_s * session.frame_rate_hz)


def _submit(tracer: Tracer, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
    # submit(session_id, (generation, time_s, frame))
    return tracer.record(name, fn, args, kwargs, sid=args[1], frame=round(args[2][1] * FRAME_RATE_HZ))


def _ring_push(tracer: Tracer, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
    ring = args[0]
    size = ring.size
    tracer.samples["ring_size"].append(float(size))
    if size > ring.n_slots:
        tracer.counts["ring_size_gt_capacity"] += 1
    accepted = tracer.record(name, fn, args, kwargs)
    if not accepted:
        tracer.counts["ring_drops"] += 1
    return accepted


def _apply_delta(tracer: Tracer, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
    delta = args[1]
    tracer.samples["observations_per_report"].append(
        float(sum(len(v) for v in delta.observations.values()))
    )
    return tracer.record(name, fn, args, kwargs)


_HOOKS: dict[str, Callable[..., Any]] = {
    "session.process_batch": _process_batch,
    "scheduler.submit": _submit,
    "shard.submit": _submit,
    "shard.push": _ring_push,
    "shard.apply": _apply_delta,
}


def merge_summaries(*summaries: dict[str, Any]) -> dict[str, Any]:
    """Combine summaries from several processes (benchmark + gateway server)."""
    names: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    samples: dict[str, list[float]] = defaultdict(list)
    counts: Counter[str] = Counter()
    for summary in summaries:
        if not summary:
            continue
        for name, entry in summary["names"].items():
            for key in ("count", "total_s", "self_s"):
                names[name][key] += entry[key]
        for key, values in summary["samples"].items():
            samples[key].extend(values)
        counts.update(summary["counts"])
    return {"names": dict(names), "samples": dict(samples), "counts": dict(counts)}
