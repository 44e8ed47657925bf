"""Property-based equivalence: batched kernels vs the frame-at-a-time walk.

The batching contract is *exact*: fusing the per-frame hot path over a
block, splitting a stream into arbitrary blocks, or stacking S sessions
through one :class:`BatchedPipeline` must reproduce the frame-at-a-time
results bit for bit — same r(k) down to the last ulp, same bins, same
events. Hypothesis drives randomized scenes through both paths and
compares every field. That includes the failure surface: a NaN frame
(a dropped capture) can poison the circle fit into a ``LinAlgError``,
and the batched path must fail exactly where the scalar path does —
"handled" NaN on one path and a crash on the other would be divergence.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedPipeline
from repro.core.realtime import RealTimeBlinkDetector

FRAME_RATE_HZ = 25.0


def scene(seed, n_frames, n_bins, eye_bin, nan_frames=()):
    """A noisy scene with one blinking reflector; NaN rows = dropped frames."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames)
    frames = 2e-6 * (
        rng.normal(size=(n_frames, n_bins)) + 1j * rng.normal(size=(n_frames, n_bins))
    )
    # Eyelid-like phase modulation plus a static secondary reflector.
    phase = 0.8 + 0.25 * np.sin(2 * np.pi * t / 40.0)
    frames[:, eye_bin] += 1e-3 * np.exp(1j * phase)
    if n_bins > eye_bin + 3:
        frames[:, eye_bin + 3] += 4e-4 * np.exp(1j * 0.3)
    for k in nan_frames:
        frames[k] = np.nan + 1j * np.nan
    return frames


@st.composite
def scenes(draw, min_frames=40, max_frames=140, with_nan=True):
    n_frames = draw(st.integers(min_frames, max_frames))
    n_bins = draw(st.integers(12, 48))
    eye_bin = draw(st.integers(2, n_bins - 3))
    nan_frames = (
        draw(st.lists(st.integers(0, n_frames - 1), max_size=2, unique=True))
        if with_nan
        else []
    )
    seed = draw(st.integers(0, 2**31 - 1))
    return scene(seed, n_frames, n_bins, eye_bin, nan_frames=tuple(nan_frames))


def run_outcome(fn):
    """("ok", result) or ("raised", exception type name) — for asserting
    that two execution orders share their whole behaviour, crashes too."""
    try:
        return ("ok", fn())
    except Exception as exc:  # reprolint: disable=except-hygiene
        return ("raised", type(exc).__name__)


def assert_status_equal(a, b):
    assert a.frame_index == b.frame_index
    assert a.selected_bin == b.selected_bin
    assert a.restarted == b.restarted
    # Bitwise, NaN-aware: cold-start frames carry NaN r(k) on both paths.
    assert np.array_equal(
        np.float64(a.relative_distance), np.float64(b.relative_distance), equal_nan=True
    )
    assert a.event == b.event


def assert_runs_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_status_equal(a, b)


@given(frames=scenes())
@settings(max_examples=25, deadline=None)
def test_block_equals_per_frame(frames):
    """S=1 fused block == the seed scalar walk, one frame at a time."""
    blocked = run_outcome(lambda: RealTimeBlinkDetector(FRAME_RATE_HZ).process_block(frames))
    scalar_det = RealTimeBlinkDetector(FRAME_RATE_HZ)
    scalar = run_outcome(lambda: [scalar_det.process_frame(frame) for frame in frames])
    assert blocked[0] == scalar[0]
    if blocked[0] == "ok":
        assert_runs_equal(blocked[1], scalar[1])
    else:
        assert blocked[1] == scalar[1]


@given(frames=scenes(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_block_split_invariance(frames, data):
    """Any chunking of the stream — empty chunks included — is inert."""
    n = len(frames)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    bounds = [0, *cuts, n]
    chunked_det = RealTimeBlinkDetector(FRAME_RATE_HZ)

    def run_chunked():
        statuses = []
        for lo, hi in zip(bounds, bounds[1:]):
            statuses.extend(chunked_det.process_block(frames[lo:hi]))
        return statuses

    chunked = run_outcome(run_chunked)
    whole_det = RealTimeBlinkDetector(FRAME_RATE_HZ)
    whole = run_outcome(lambda: whole_det.process_block(frames))
    assert chunked[0] == whole[0]
    if chunked[0] == "ok":
        assert_runs_equal(chunked[1], whole[1])
        assert chunked_det.finish() == whole_det.finish()
    else:
        assert chunked[1] == whole[1]


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_stacked_sessions_equal_solo(data):
    """S>1 stacking — ragged lengths, Tᵢ=0, mixed bin counts, NaN frames —
    leaves every session bit-identical to running its detector alone."""
    n_sessions = data.draw(st.integers(2, 4))
    shared_bins = data.draw(st.integers(16, 40))
    blocks = []
    for i in range(n_sessions):
        n_frames = data.draw(st.integers(0, 120))
        # Mostly homogeneous geometry (the fused path); occasionally a
        # session with its own bin count (the per-session fallback).
        n_bins = (
            data.draw(st.integers(16, 40))
            if data.draw(st.booleans()) and i > 0
            else shared_bins
        )
        eye_bin = data.draw(st.integers(2, n_bins - 3))
        nan_frames = (
            (data.draw(st.integers(0, n_frames - 1)),)
            if n_frames and data.draw(st.booleans())
            else ()
        )
        seed = data.draw(st.integers(0, 2**31 - 1))
        blocks.append(scene(seed, n_frames, n_bins, eye_bin, nan_frames=nan_frames))

    solo_dets = [RealTimeBlinkDetector(FRAME_RATE_HZ) for _ in blocks]
    solos = [
        run_outcome(lambda det=det, block=block: det.process_block(block))
        for det, block in zip(solo_dets, blocks)
    ]
    pipeline = BatchedPipeline(FRAME_RATE_HZ, n_sessions=n_sessions)
    stacked = run_outcome(lambda: pipeline.process_block(blocks))

    if all(kind == "ok" for kind, _ in solos):
        assert stacked[0] == "ok"
        tails = pipeline.finish()
        for i, (_, solo) in enumerate(solos):
            assert_runs_equal(stacked[1][i], solo)
            assert tails[i] == solo_dets[i].finish()
            assert pipeline.events[i] == list(solo_dets[i].events)
    else:
        # A session whose solo walk crashes must crash the batch too —
        # the batch must not silently absorb what the scalar path raises.
        assert stacked[0] == "raised"
        assert stacked[1] in {name for kind, name in solos if kind == "raised"}


def _spy_launches(monkeypatch):
    """Record ``(preprocessor config, rows)`` of every stage-1 launch."""
    from repro.core.preprocess import Preprocessor

    launches = []
    original = Preprocessor.denoise_block

    def spy(self, frames):
        launches.append((self.config, len(frames)))
        return original(self, frames)

    monkeypatch.setattr(Preprocessor, "denoise_block", spy)
    return launches


def test_launcher_never_fuses_across_preprocessor_configs(monkeypatch):
    """Sessions fuse only with sessions of the same stage-1 config."""
    from repro.core.batched import launch_stage1
    from repro.core.preprocess import Preprocessor, PreprocessorConfig

    narrow = PreprocessorConfig(subtract_background=False, smooth_window=8)
    wide = PreprocessorConfig(subtract_background=False)
    configs = [narrow, wide, narrow, wide, narrow]
    preprocessors = [Preprocessor(c) for c in configs]
    blocks = [scene(seed, 30 + 5 * seed, 24, 9) for seed in range(len(configs))]
    want = [pre.denoise_block(block) for pre, block in zip(preprocessors, blocks)]

    launches = _spy_launches(monkeypatch)
    got = dict(launch_stage1(preprocessors, blocks))

    assert sorted(got) == list(range(len(blocks)))
    for i, denoised in got.items():
        assert np.array_equal(denoised, want[i])
    rows_of = {c: sum(len(b) for b, cc in zip(blocks, configs) if cc == c) for c in (narrow, wide)}
    assert sorted(launches, key=lambda x: x[1]) == sorted(rows_of.items(), key=lambda x: x[1])


def test_forced_group_split_stays_bit_identical(monkeypatch):
    """A cache-budget split mid-batch changes no output: every group's
    slices equal each session's solo run, walks and end-of-stream too."""
    import repro.core.batched as batched

    n_bins = 24
    blocks = [scene(seed, 60 + 7 * seed, n_bins, 6 + seed) for seed in range(5)]
    solo_dets = [RealTimeBlinkDetector(FRAME_RATE_HZ) for _ in blocks]
    solos = [det.process_block(block) for det, block in zip(solo_dets, blocks)]

    # Room for about two sessions' rows per launch.
    monkeypatch.setattr(batched, "_GROUP_ELEMS", 150 * n_bins)
    launches = _spy_launches(monkeypatch)
    pipeline = BatchedPipeline(FRAME_RATE_HZ, n_sessions=len(blocks))
    stacked = pipeline.process_block(blocks)

    assert 1 < len(launches) < len(blocks), "the budget never split a group"
    assert sum(rows for _, rows in launches) == sum(len(b) for b in blocks)
    tails = pipeline.finish()
    for i, solo in enumerate(solos):
        assert_runs_equal(stacked[i], solo)
        assert tails[i] == solo_dets[i].finish()
