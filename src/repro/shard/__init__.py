"""Process-sharded fleet runtime.

The thread-based :class:`~repro.fleet.scheduler.FleetScheduler` flat-lines
once the stateful per-session walks saturate the GIL: past ~4 sessions,
adding workers adds contention, not throughput. This package moves the
detector side into worker *processes*, each owning a shard of sessions:

- Frames travel parent → worker over a fixed-slot SPSC shared-memory
  ring (:class:`~repro.shard.ring.ShmRing`); each slot carries one frame
  framed exactly like a one-frame ``.rst`` CHUNK block (24-byte header,
  CRC-32 over header and payload), so payloads are checksummed and the
  worker consumes them zero-copy straight out of shared memory.
- A small pickle-over-pipe control plane (:mod:`repro.shard.messages`)
  handles attach/detach/drain/stop, ships per-tick results and metric
  deltas back, and heartbeats each shard.
- Each worker drains a tick of its ring through the shared stage-1
  launcher (:func:`~repro.core.batched.launch_stage1`), then runs the
  stateful walks of its chip-free session mirrors — in its own
  interpreter, on its own core.
- The parent (:class:`~repro.shard.fleet.ShardedFleet`) supervises the
  shards: a SIGKILLed worker is detected, its in-flight ring slots are
  counted as losses, a replacement is spawned and the dead shard's
  sessions are re-homed onto it — other shards never notice, and no
  parent call deadlocks.

:class:`ShardedFleet` implements the scheduler's serve-mode surface
(``start``/``stop``/``attach``/``detach``/``submit``/``drained``/
``idle``), so the network gateway and the fleet CLI select it as a
drop-in backend.
"""

from __future__ import annotations

from repro.shard.fleet import ShardedFleet
from repro.shard.ring import ShmRing
from repro.shard.runner import run_sharded
from repro.shard.worker import ShardWorker

__all__ = ["ShardWorker", "ShardedFleet", "ShmRing", "run_sharded"]
