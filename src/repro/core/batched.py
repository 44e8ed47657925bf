"""Vectorized batched pipeline kernels (multi-session execution).

The per-frame hot path of :class:`repro.core.realtime.RealTimeBlinkDetector`
splits into two kinds of work:

- **restart-independent kernels** — the fast-time cascading filter and the
  raw movement deltas. These depend only on the raw frames, never on
  detector state, so they vectorize perfectly: over a whole block, and —
  this module's contribution — over *many sessions at once*.
- **the stateful walk** — restarts, bin selection, arc tracking, LEVD.
  Inherently sequential per session, but cheap once the kernels above are
  hoisted out of it.

:func:`launch_stage1` — the tree's one multi-session stage-1 launcher,
shared by :class:`BatchedPipeline` and the process-sharded worker's tick —
lays the sessions' blocks out as cache-sized ``(ΣTᵢ, n_bins)`` row
matrices, each filtered with two convolution launches (one per cascade
stage), and the per-session walks consume their slices. Because the
fused row kernel (:func:`repro.dsp.filters.fir_filter_rows`) is bit-for-bit
equal to filtering each row alone, batching S sessions — including the
S=1 degenerate case — produces *exactly* the outputs of running each
session's detector by itself; the golden-trace suite asserts that equality.

Ragged blocks (sessions advancing by different frame counts, including
zero) are first-class: pass a list of per-session blocks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.levd import BlinkDetection
from repro.core.preprocess import Preprocessor
from repro.core.realtime import FrameStatus, RealTimeBlinkDetector, RealTimeConfig

__all__ = ["BatchedPipeline", "launch_stage1"]

#: Element budget for one fused row-matrix launch. Fusing *all* sessions
#: into a single (ΣTᵢ, n_bins) concatenation stops paying off once the
#: concatenated input plus the denoised output outgrow the last-level
#: cache: at S=256 the scratch reached hundreds of MB and fps-per-core
#: dropped ~45% versus S=64 (BENCH_pipeline.json), purely from memory
#: traffic — the walks consumed stone-cold slices. Grouping sessions so
#: each launch stays within this budget keeps the kernel→walk handoff
#: cache-warm; results are bit-identical because the row kernel treats
#: every row independently. 2^21 complex128 elements ≈ 32 MB in, 32 MB
#: out — measured best on the reference host (2^20 and 2^22 both lose
#: ~10%; the full concat at S=256 loses ~45%).
_GROUP_ELEMS = 1 << 21


def launch_stage1(
    preprocessors: Sequence[Preprocessor], blocks: Sequence[np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """Denoise many sessions' blocks with fused stage-1 launches.

    Yields ``(i, denoised)`` once for every non-empty ``blocks[i]``, where
    ``denoised`` is exactly ``preprocessors[i].denoise_block(blocks[i])``.
    Sessions fuse into one row matrix only when they share ``(n_bins,
    dtype, preprocessor config)``, in groups of at most
    :data:`_GROUP_ELEMS` elements. Each group launches lazily, when the
    caller asks for its first slice, so running each session's walk
    before advancing keeps the slices cache-warm.
    """
    groups: list[list[int]] = []
    open_groups: dict[tuple[object, ...], tuple[list[int], int]] = {}
    for i, block in enumerate(blocks):
        n_frames, n_bins = block.shape
        if not n_frames:
            continue
        key = (n_bins, block.dtype, preprocessors[i].config)
        group, rows = open_groups.get(key, ([], 0))
        if not group or rows + n_frames > max(1, _GROUP_ELEMS // max(1, n_bins)):
            group, rows = [], 0
            groups.append(group)
        group.append(i)
        open_groups[key] = (group, rows + n_frames)
    for group in groups:
        if len(group) == 1:
            yield group[0], preprocessors[group[0]].denoise_block(blocks[group[0]])
            continue
        denoised_all = preprocessors[group[0]].denoise_block(
            np.concatenate([blocks[i] for i in group], axis=0)
        )
        offset = 0
        for i in group:
            yield i, denoised_all[offset : offset + blocks[i].shape[0]]
            offset += blocks[i].shape[0]


class BatchedPipeline:
    """Run S blink-detection sessions with shared, fused pipeline kernels.

    Parameters
    ----------
    frame_rate_hz:
        Slow-time frame rate, shared by every session (sessions at
        different rates batch their stage-1 kernels just as well, but the
        facade keeps one rate for simplicity — split instances otherwise).
    n_sessions:
        Number of independent sessions (S). 1 is the degenerate case and
        is exactly the single-session detector.
    config:
        Detector configuration applied to every session.
    """

    def __init__(
        self,
        frame_rate_hz: float,
        n_sessions: int = 1,
        config: RealTimeConfig | None = None,
    ) -> None:
        if n_sessions < 1:
            raise ValueError(f"n_sessions must be >= 1, got {n_sessions}")
        self.frame_rate_hz = frame_rate_hz
        self.config = config if config is not None else RealTimeConfig()
        self.detectors = [
            RealTimeBlinkDetector(frame_rate_hz, self.config) for _ in range(n_sessions)
        ]

    @property
    def n_sessions(self) -> int:
        """Number of sessions driven by this pipeline."""
        return len(self.detectors)

    def process_block(
        self, blocks: np.ndarray | list[np.ndarray]
    ) -> list[list[FrameStatus]]:
        """Advance every session by its block of frames.

        ``blocks`` is either an ``(S, T, n_bins)`` array (every session
        advances by the same T frames) or a list of S ``(Tᵢ, n_bins)``
        blocks with independent lengths (``Tᵢ = 0`` allowed). Returns one
        status list per session, exactly what each session's
        ``detector.process_block`` would have returned alone.
        """
        blocks = self._normalize(blocks)
        outputs: list[list[FrameStatus]] = [[] for _ in blocks]
        preprocessors = [det.preprocessor for det in self.detectors]
        for i, denoised in launch_stage1(preprocessors, blocks):
            outputs[i] = self.detectors[i].process_block(blocks[i], denoised=denoised)
        return outputs

    def finish(self) -> list[BlinkDetection | None]:
        """Flush every session's pending LEVD event at end of stream."""
        return [det.finish() for det in self.detectors]

    @property
    def events(self) -> list[list[BlinkDetection]]:
        """Per-session events emitted so far."""
        return [list(det.events) for det in self.detectors]

    def _normalize(self, blocks: np.ndarray | list[np.ndarray]) -> list[np.ndarray]:
        if isinstance(blocks, np.ndarray):
            if blocks.ndim != 3:
                raise ValueError(
                    f"expected (n_sessions, n_frames, n_bins), got shape {blocks.shape}"
                )
            if blocks.shape[0] != len(self.detectors):
                raise ValueError(
                    f"got {blocks.shape[0]} blocks for {len(self.detectors)} sessions"
                )
            return [blocks[i] for i in range(blocks.shape[0])]
        if len(blocks) != len(self.detectors):
            raise ValueError(f"got {len(blocks)} blocks for {len(self.detectors)} sessions")
        out = []
        for block in blocks:
            block = np.asarray(block)
            if block.ndim != 2:
                raise ValueError(f"each block must be (n_frames, n_bins), got {block.shape}")
            out.append(block)
        return out
