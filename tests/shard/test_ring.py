"""ShmRing: slot framing, SPSC counters, backpressure, integrity.

Mostly in-process tests — both ends of the ring are exercised from one
process, which is legal (the SPSC contract is about *roles*, one
producer and one consumer, not about process count). The counter test
at the end reads the ring from a second process while the first one
moves it.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.shard.ring import (
    DTYPE_CODES,
    RingFrame,
    ShmRing,
    encode_slot,
    slot_bytes_for,
)
from repro.store.format import StoreIntegrityError


def _frame(n_bins: int = 8, dtype=np.complex128) -> np.ndarray:
    return (np.arange(n_bins) + 1j * np.arange(n_bins)).astype(dtype)


@pytest.fixture()
def ring():
    ring = ShmRing.create(4, slot_bytes_for(8))
    yield ring
    ring.close()
    ring.unlink()


class TestSlotCodec:
    def test_roundtrip_preserves_route_and_payload(self, ring):
        frame = _frame()
        assert ring.push(encode_slot(7, 3, 0.25, 12.5, frame))
        [rf] = ring.peek(1)
        assert isinstance(rf, RingFrame)
        assert rf.session_index == 7
        assert rf.generation == 3
        assert rf.enqueued_at == 0.25
        assert rf.timestamp_s == 12.5
        np.testing.assert_array_equal(rf.frame, frame)
        assert rf.frame.dtype == np.complex128
        del rf
        ring.advance(1)

    def test_complex64_roundtrip(self, ring):
        frame = _frame(dtype=np.complex64)
        assert ring.push(encode_slot(0, 1, 0.0, 0.0, frame))
        [rf] = ring.peek(1)
        assert rf.frame.dtype == np.complex64
        np.testing.assert_array_equal(rf.frame, frame)
        del rf
        ring.advance(1)

    def test_peek_is_zero_copy_view_into_shared_memory(self, ring):
        assert ring.push(encode_slot(0, 1, 0.0, 0.0, _frame()))
        [rf] = ring.peek(1)
        # A view, not a copy: the frame's buffer is the shm mapping.
        assert not rf.frame.flags["OWNDATA"]
        del rf
        ring.advance(1)

    def test_oversized_frame_rejected(self, ring):
        with pytest.raises(ValueError):
            ring.push(encode_slot(0, 1, 0.0, 0.0, _frame(n_bins=64)))

    def test_dtype_codes_cover_pipeline_dtypes(self):
        assert set(DTYPE_CODES) == {"complex64", "complex128"}


class TestBackpressure:
    def test_full_ring_drops_newest_and_counts(self, ring):
        slot = encode_slot(0, 1, 0.0, 0.0, _frame())
        results = [ring.push(slot) for _ in range(7)]
        assert results == [True] * 4 + [False] * 3
        assert ring.drops == 3
        assert ring.size == 4

    def test_conservation_submitted_equals_published_plus_drops(self, ring):
        slot = encode_slot(0, 1, 0.0, 0.0, _frame())
        submitted = 50
        published = sum(1 for _ in range(submitted) if ring.push(slot))
        assert published + ring.drops == submitted

    def test_advance_frees_slots_for_reuse(self, ring):
        slot = encode_slot(0, 1, 0.0, 0.0, _frame())
        for _ in range(4):
            assert ring.push(slot)
        assert not ring.push(slot)
        frames = ring.peek(2)
        assert len(frames) == 2
        del frames
        ring.advance(2)
        assert ring.push(slot)
        assert ring.push(slot)
        assert not ring.push(slot)

    def test_peek_bounded_by_max_items(self, ring):
        slot = encode_slot(0, 1, 0.0, 0.0, _frame())
        for _ in range(4):
            ring.push(slot)
        frames = ring.peek(3)
        assert len(frames) == 3
        del frames


class TestIntegrity:
    def test_corrupted_payload_raises(self, ring):
        assert ring.push(encode_slot(0, 1, 0.0, 0.0, _frame()))
        # Flip one payload byte behind the ring's back: the slot's CRC
        # (the .rst chunk framing) must catch it on peek.
        from repro.shard import ring as ring_mod

        offset = ring_mod._SLOTS_OFF + ring_mod._PAYLOAD_OFF + 11
        ring._shm.buf[offset] ^= 0xFF
        with pytest.raises(StoreIntegrityError):
            ring.peek(1)

    def test_cross_process_attach_sees_same_slots(self, ring):
        frame = _frame()
        assert ring.push(encode_slot(5, 2, 1.0, 2.0, frame))
        other = ShmRing.attach(ring.name)
        try:
            [rf] = other.peek(1)
            assert rf.session_index == 5
            np.testing.assert_array_equal(rf.frame, frame)
            del rf
        finally:
            other.close()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        from repro.store.format import StoreFormatError

        shm = shared_memory.SharedMemory(create=True, size=1024)
        try:
            with pytest.raises(StoreFormatError):
                ShmRing.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()


class TestGeometry:
    def test_slot_bytes_payload_is_eight_aligned(self):
        for n_bins in (1, 7, 16, 234, 256):
            assert slot_bytes_for(n_bins) % 8 == 0

    def test_context_manager_closes_and_unlinks(self):
        with ShmRing.create(2, slot_bytes_for(4)) as ring:
            name = ring.name
            attached = ShmRing.attach(name)
            attached.close()
        # The owning context exit unlinked the segment: gone for good.
        with pytest.raises(FileNotFoundError):
            ShmRing.attach(name)


def _sample_counters(name, n_slots, ready, stop, results):
    """Second process: sample head/tail/size until told to stop."""
    ring = ShmRing.attach(name)
    samples = violations = 0
    last_head = last_tail = 0
    try:
        ready.set()
        while not stop.is_set():
            head, tail, size = ring.head, ring.tail, ring.size
            if head < last_head or tail < last_tail or not 0 <= size <= n_slots:
                violations += 1
            last_head, last_tail = head, tail
            samples += 1
    finally:
        ring.close()
        results.put((samples, violations))


class TestCrossProcessCounters:
    def test_counters_never_torn_across_processes(self):
        """A reader in another process sees every counter only grow and
        ``0 <= size <= n_slots``, while this process pushes and advances."""
        n_slots = 8
        ctx = multiprocessing.get_context("spawn")
        ready, stop, results = ctx.Event(), ctx.Event(), ctx.Queue()
        with ShmRing.create(n_slots, slot_bytes_for(8)) as ring:
            sampler = ctx.Process(
                target=_sample_counters, args=(ring.name, n_slots, ready, stop, results)
            )
            sampler.start()
            try:
                assert ready.wait(timeout=60), "sampler never attached"
                slot = encode_slot(0, 1, 0.0, 0.0, _frame())
                pushed = accepted = 0
                deadline = time.monotonic() + 1.5
                while time.monotonic() < deadline:
                    for _ in range(n_slots + 2):  # overfill: drops too
                        pushed += 1
                        accepted += ring.push(slot)
                    ring.advance(ring.size)
                stop.set()
                samples, violations = results.get(timeout=60)
            finally:
                stop.set()
                sampler.join(timeout=60)
                if sampler.is_alive():
                    sampler.kill()
            assert sampler.exitcode == 0
            assert samples > 1000, "sampler barely ran: the check is vacuous"
            assert violations == 0
            assert ring.tail == accepted
            assert accepted + ring.drops == pushed
