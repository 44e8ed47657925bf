"""Fixed-slot SPSC frame ring over POSIX shared memory.

One :class:`ShmRing` connects exactly one producer (the parent's submit
path) to exactly one consumer (a shard worker process). The layout is a
classic bounded single-producer/single-consumer ring: two monotonically
increasing 64-bit counters — ``tail`` (slots published) owned by the
producer, ``head`` (slots consumed) owned by the consumer — over a
fixed array of equal-sized slots. Each side writes only its own counter,
so no locks cross the process boundary.

Byte layout of the shared segment (all integers little-endian)::

    0    magic "SRNG" | version u16 | reserved u16
         | n_slots u64 | slot_bytes u64                 (24 B used)
    64   head u64   — consumer cursor (slots consumed)
    128  tail u64   — producer cursor (slots published)
    192  drops u64  — producer count of frames shed ring-full
    256  slot[0] ... slot[n_slots-1]

The counters sit on their own 64-byte lines so the producer's tail
stores and the consumer's head stores never share a cache line. Both
sides load and store them only through a strided ``uint64`` numpy view,
so every access is one aligned 8-byte load or store, which is atomic on
the 64-bit platforms the repo runs on. (``struct.pack_into`` is not: it
zero-fills the field before writing it, and a reader in the other
process could see a head of 0 in between.) Each counter has a single
writer and only grows, so a reader never sees one go backwards; the
slot bytes are stored before the tail that publishes them, and every
slot's CRC turns a slot read ahead of its bytes into a loud error.

Slot content reuses the ``.rst`` chunk framing from
:mod:`repro.store.format` — the wire format the rest of the repo already
trusts for checksummed frame transport::

    route   = session_index u32 | generation u32
            | dtype code u8 | pad 7B | enqueued_at f64   (24 B)
    block   = pack_block_header(KIND_CHUNK, 1, payload)  (24 B)
    payload = timestamp f64 | frame row bytes            (one-frame CHUNK)

``payload`` is byte-for-byte what a one-frame ``.rst`` CHUNK block
carries, and the 24-byte block header CRCs both itself and the payload,
so a corrupted slot fails loudly on the consumer side instead of feeding
the detector garbage. The frame bytes start 8-byte aligned (24+24+8+8),
so the consumer can wrap them in a numpy view *in place* — frames are
never copied out of shared memory before the fused kernel gathers them.
"""

from __future__ import annotations

import secrets
import struct
from multiprocessing import shared_memory

import numpy as np

from repro.store.format import (
    CODE_DTYPES,
    DTYPE_CODES,
    KIND_CHUNK,
    StoreFormatError,
    StoreIntegrityError,
    crc32,
    pack_block_header,
    unpack_block_header,
)

__all__ = ["RingFrame", "ShmRing", "encode_slot"]

_MAGIC = b"SRNG"
_VERSION = 1
_META = struct.Struct("<4sHHQQ")
_ROUTE = struct.Struct("<IIB7xd")

_HEAD_OFF = 64
_COUNTER_STRIDE = 64  # head, tail, drops: one 64-byte line each
_HEAD, _TAIL, _DROPS = 0, 1, 2  # indices into the counter view
_SLOTS_OFF = 256

_ROUTE_SIZE = _ROUTE.size  # 24
_BLOCK_OFF = _ROUTE_SIZE  # block header follows the route prefix
_PAYLOAD_OFF = _BLOCK_OFF + 24  # chunk payload follows the block header


def slot_bytes_for(n_bins: int, itemsize: int = 16) -> int:
    """Slot size needed for one ``n_bins``-bin frame of ``itemsize`` bytes."""
    payload = 8 + n_bins * itemsize
    return _PAYLOAD_OFF + ((payload + 7) & ~7)


def encode_slot(
    session_index: int,
    generation: int,
    enqueued_at: float,
    timestamp_s: float,
    frame: np.ndarray,
) -> bytes:
    """Encode one frame into ring-slot bytes (route + framed chunk)."""
    code = DTYPE_CODES.get(frame.dtype.name)
    if code is None:
        raise StoreFormatError(
            f"unsupported frame dtype {frame.dtype.name!r}; "
            f"expected one of {sorted(DTYPE_CODES)}"
        )
    payload = struct.pack("<d", timestamp_s) + frame.tobytes()
    return (
        _ROUTE.pack(session_index, generation, code, enqueued_at)
        + pack_block_header(KIND_CHUNK, 1, payload)
        + payload
    )


class RingFrame:
    """One decoded ring slot: routing fields plus an in-place frame view.

    ``frame`` is a numpy view *into the shared segment* — valid only
    until the consumer calls :meth:`ShmRing.advance` past this slot.
    The worker stacks views into its per-tick block (which copies) and
    only then advances, so the zero-copy window is exactly one tick.
    """

    __slots__ = ("enqueued_at", "frame", "generation", "session_index", "timestamp_s")

    def __init__(
        self,
        session_index: int,
        generation: int,
        enqueued_at: float,
        timestamp_s: float,
        frame: np.ndarray,
    ) -> None:
        self.session_index = session_index
        self.generation = generation
        self.enqueued_at = enqueued_at
        self.timestamp_s = timestamp_s
        self.frame = frame


class ShmRing:
    """Bounded SPSC shared-memory frame ring (see module docstring).

    Construct with :meth:`create` on the owning (producer) side and
    :meth:`attach` on the consumer side. Both sides must :meth:`close`;
    only the owner :meth:`unlink`\\ s the segment.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._closed = False
        magic, version, _r, n_slots, slot_bytes = _META.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise StoreFormatError(f"bad ring magic {magic!r}")
        if version != _VERSION:
            shm.close()
            raise StoreFormatError(f"unsupported ring version {version}")
        self.n_slots = int(n_slots)
        self.slot_bytes = int(slot_bytes)
        self._counters: np.ndarray = np.ndarray(
            (3,), dtype="<u8", buffer=shm.buf, offset=_HEAD_OFF, strides=(_COUNTER_STRIDE,)
        )

    # ------------------------------------------------------------ construction
    @classmethod
    def create(cls, slots: int, slot_bytes: int, name: str | None = None) -> "ShmRing":
        """Allocate and initialize a ring (producer side, owns the segment)."""
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if slot_bytes < _PAYLOAD_OFF + 8 or slot_bytes % 8:
            raise ValueError(f"slot_bytes must be 8-aligned and >= {_PAYLOAD_OFF + 8}")
        if name is None:
            name = f"repro-ring-{secrets.token_hex(6)}"
        size = _SLOTS_OFF + slots * slot_bytes
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        _META.pack_into(shm.buf, 0, _MAGIC, _VERSION, 0, slots, slot_bytes)
        ring = cls(shm, owner=True)
        ring._counters[:] = 0
        return ring

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring by name (consumer side)."""
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    @property
    def name(self) -> str:
        """Shared-memory segment name (hand to the worker process)."""
        return self._shm.name

    # ---------------------------------------------------------------- counters
    def _read(self, index: int) -> int:
        return int(self._counters[index])

    @property
    def head(self) -> int:
        """Slots consumed (consumer-owned counter)."""
        return self._read(_HEAD)

    @property
    def tail(self) -> int:
        """Slots published (producer-owned counter)."""
        return self._read(_TAIL)

    @property
    def drops(self) -> int:
        """Frames shed because the ring was full (producer-owned)."""
        return self._read(_DROPS)

    @property
    def size(self) -> int:
        """Slots currently in flight (published, not yet consumed).

        Read as one consistent snapshot from either process: the tail is
        taken between two equal reads of the head, so ``0 <= size <=
        n_slots`` holds even while the other side keeps moving.
        """
        while True:
            head = self._read(_HEAD)
            tail = self._read(_TAIL)
            if self._read(_HEAD) == head:
                return tail - head

    # ---------------------------------------------------------------- producer
    def push(self, slot: bytes) -> bool:
        """Publish one encoded slot; False (and a counted drop) when full.

        Drop-*newest*: unlike the threaded scheduler's in-process deques,
        the producer cannot reach past the consumer's cursor to evict the
        oldest slot, so backpressure sheds the arriving frame instead.
        Conservation still holds exactly: every submitted frame is either
        published (and eventually consumed) or counted in :attr:`drops`.
        """
        if len(slot) > self.slot_bytes:
            raise ValueError(f"slot of {len(slot)} bytes exceeds slot_bytes={self.slot_bytes}")
        counters = self._counters
        tail = int(counters[_TAIL])
        if tail - int(counters[_HEAD]) >= self.n_slots:
            counters[_DROPS] += 1
            return False
        off = _SLOTS_OFF + (tail % self.n_slots) * self.slot_bytes
        self._shm.buf[off : off + len(slot)] = slot
        # Publish after the slot bytes are in place (single-writer u64).
        counters[_TAIL] = tail + 1
        return True

    # ---------------------------------------------------------------- consumer
    def peek(self, max_items: int) -> list[RingFrame]:
        """Decode up to ``max_items`` published slots without consuming them.

        Frames are zero-copy views into the segment; call :meth:`advance`
        with the returned count once the tick no longer needs them.
        A checksum mismatch raises :class:`StoreIntegrityError` — a slot
        the producer published is never silently skipped.
        """
        head = self._read(_HEAD)
        avail = min(self._read(_TAIL) - head, max_items)
        out: list[RingFrame] = []
        buf = self._shm.buf
        for k in range(avail):
            off = _SLOTS_OFF + ((head + k) % self.n_slots) * self.slot_bytes
            session_index, generation, code, enqueued_at = _ROUTE.unpack_from(buf, off)
            header = unpack_block_header(
                bytes(buf[off + _BLOCK_OFF : off + _PAYLOAD_OFF])
            )
            payload = buf[off + _PAYLOAD_OFF : off + _PAYLOAD_OFF + header.payload_len]
            if crc32(payload) != header.payload_crc:
                raise StoreIntegrityError(
                    f"ring slot {head + k} payload checksum mismatch"
                )
            dtype = CODE_DTYPES.get(code)
            if dtype is None:
                raise StoreFormatError(f"ring slot {head + k} has dtype code {code}")
            (timestamp_s,) = struct.unpack_from("<d", payload, 0)
            frame = np.frombuffer(payload, dtype=dtype, offset=8)
            out.append(
                RingFrame(session_index, generation, enqueued_at, timestamp_s, frame)
            )
        return out

    def advance(self, n: int) -> None:
        """Consume ``n`` peeked slots (frees them for the producer)."""
        if n < 0:
            raise ValueError(f"cannot advance by {n}")
        if n:
            self._counters[_HEAD] += n

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Unmap this side's view of the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # The counter view exports the segment's buffer; close() refuses
        # to unmap while any export is alive.
        del self._counters
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner side, after close)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass  # already unlinked (e.g. crash cleanup raced us)

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self._owner:
            self.unlink()
