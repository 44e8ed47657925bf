"""Shared pieces of the fleet serving benchmark: paths, inputs, statistics.

Everything here runs in the benchmark process; nothing is imported by the
program under test. Inputs are simulated from the ``--seed`` argument only,
so one seed always yields the same frames.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Checkout root: the benchmark lives in ``<root>/blinkbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output (recordings, span dumps) — inside the checkout, ignored by git.
OUT = ROOT / ".blinkbench"

#: Concurrency used by every workload: generator threads, connections,
#: scheduler workers and shard processes all stay at or below this.
WORKERS = 2

#: The paper's slow-time frame rate (Sec. IV-E): one verdict per 40 ms.
FRAME_RATE_HZ = 25.0

#: Bin re-selection interval of the streaming detector, in frames. Live
#: vehicles join staggered evenly across one interval so their periodic
#: re-selections do not all land in the same 40 ms.
RESELECT_FRAMES = 125


def require_program() -> None:
    """Exit non-zero (printing no result) when the program sources are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"blinkbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for a subprocess that imports the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class VehicleTrace:
    """One vehicle's simulated radar world, preloaded in memory."""

    vehicle_id: str
    frames: np.ndarray  # (n_frames, n_bins) complex128, as simulated
    timestamps_s: np.ndarray  # (n_frames,) device time, k / frame rate


def simulate_vehicles(seed: int, durations_s: list[float]) -> list[VehicleTrace]:
    """Simulate one distinct driving world per entry of ``durations_s``.

    Participants P01-P12 are cycled, even vehicles are awake and odd ones
    drowsy, posture shifts stay on, and every vehicle drives the smooth
    highway at the paper's 0.4 m radar distance.
    """
    from repro.datasets.participants import study_participants
    from repro.sim import Scenario, simulate

    participants = study_participants()
    seeds = np.random.SeedSequence(seed).generate_state(len(durations_s))
    out = []
    for v, duration_s in enumerate(durations_s):
        scenario = Scenario(
            participant=participants[v % len(participants)],
            state="awake" if v % 2 == 0 else "drowsy",
            road="smooth_highway",
            duration_s=duration_s,
        )
        trace = simulate(scenario, seed=int(seeds[v]))
        out.append(VehicleTrace(f"v{v:03d}", trace.frames, np.asarray(trace.timestamps_s)))
    return out


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) CPU time of the whole machine so far, from ``/proc/stat``.

    On a virtual machine, steal is time this machine's CPUs were runnable
    but the hypervisor ran another tenant: the noisy neighbour made visible.
    """
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_frac(start: tuple[int, int], end: tuple[int, int]) -> float:
    """Share of all CPU time stolen by the hypervisor between two snapshots."""
    return (end[0] - start[0]) / max(end[1] - start[1], 1)


def percentile(values: list[float] | np.ndarray, q: float) -> float:
    """Linear-interpolated percentile; NaN for an empty sample."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan
    return float(np.percentile(arr, q))


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ")".
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_seconds() -> float:
    """CPU time (user + system) used so far by this process and its live descendants."""
    pid = os.getpid()
    ticks = 0
    for p in [pid, *_descendants(pid)]:
        try:
            with open(f"/proc/{p}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Sum of peak resident memory of this process and its live descendants."""
    pid = os.getpid()
    total_kb = sum(_peak_rss_kb(p) for p in [pid, *_descendants(pid)])
    return total_kb / 1024.0


@dataclass
class Observed:
    """What one measured drive of a workload observed."""

    offered: int = 0
    processed: int = 0
    failed: int = 0
    #: Traffic window: first frame due -> last frame done (seconds).
    wall_s: float = 0.0
    throughput_fps: float = 0.0
    blink_latency_s: list[float] = field(default_factory=list)
    frame_latency_s: list[float] = field(default_factory=list)
    #: Due time of each latency sample on the run clock (open loop only).
    blink_due_s: list[float] = field(default_factory=list)
    frame_due_s: list[float] = field(default_factory=list)
    #: Steady phase of an open-loop run on the run clock: all vehicles
    #: joined and past cold start. None for the closed loop.
    steady_s: tuple[float, float] | None = None
    #: Closed loop: end-to-end statistics of each repetition.
    reps: list[dict[str, float]] = field(default_factory=list)
    #: Open-loop generator lateness per frame (empty for the closed loop).
    lag_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: CPU seconds the whole stack spent during the drive.
    cpu_s: float = 0.0
    #: Share of the machine's CPU time stolen by the hypervisor during the drive.
    steal_frac: float = 0.0
    check: Any = None
    #: Per-layer extras a drive measures itself (gateway client, server summary).
    extra: dict[str, Any] = field(default_factory=dict)
