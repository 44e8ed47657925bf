"""Shared fixtures.

Simulation is cheap but not free; session-scoped fixtures cache the traces
that many test modules share.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.physio import ParticipantProfile
from repro.sim import Scenario, simulate


@pytest.fixture(scope="session")
def lab_trace():
    """A 40 s parked, awake lab session (no posture shifts): the cleanest
    conditions, used wherever a test needs a realistic labelled capture."""
    scenario = Scenario(
        participant=ParticipantProfile("LAB"),
        duration_s=40.0,
        road="parked",
        state="awake",
        allow_posture_shifts=False,
    )
    return simulate(scenario, seed=107)


@pytest.fixture(scope="session")
def road_trace():
    """A 40 s smooth-highway, awake session with full disturbances."""
    scenario = Scenario(
        participant=ParticipantProfile("ROAD"),
        duration_s=40.0,
        road="smooth_highway",
        state="awake",
    )
    return simulate(scenario, seed=203)


@pytest.fixture(scope="session")
def drowsy_trace():
    """A 40 s parked, drowsy session (long, frequent blinks)."""
    scenario = Scenario(
        participant=ParticipantProfile("DRZ"),
        duration_s=40.0,
        road="parked",
        state="drowsy",
        allow_posture_shifts=False,
    )
    return simulate(scenario, seed=306)


@pytest.fixture(scope="session")
def tail_blink_trace():
    """An 11 s highway drive whose last blink is only reported by the
    end-of-stream flush; frames as complex64, as the wire carries them."""
    from repro.datasets.participants import study_participants

    scenario = Scenario(
        participant=study_participants()[8],
        state="awake",
        road="smooth_highway",
        duration_s=10.96,
    )
    trace = simulate(scenario, seed=208)
    return trace.frames.astype(np.complex64), np.asarray(trace.timestamps_s)


@pytest.fixture()
def rng():
    """Fresh, seeded generator per test."""
    return np.random.default_rng(0)
