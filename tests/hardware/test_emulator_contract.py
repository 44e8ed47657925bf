"""The emulated chip's wire contract, pinned against a reference model.

``UwbRadarDevice`` keeps its FIFO in a ``bytearray`` popped by slices and
checks CRCs through a lookup table. Neither may change a byte on the
wire: the reference below is the straightforward per-byte design (a
``deque`` of single bytes popped one at a time, a CRC computed bit by
bit), and Hypothesis drives both through the same random transaction
sequences, requiring byte-identical replies and identical register
state after every step.

The transaction sequence of one ``FrameStream.poll`` is pinned too:
``SpiFaultInjector`` schedules faults by transaction count, so a poll
that grew or lost a transaction would move every scheduled fault.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.device import UwbRadarDevice
from repro.hardware.driver import FrameStream, XepDriver
from repro.hardware.registers import REGISTERS
from repro.hardware.spi import ACK, NAK, SpiBus, crc8

_CMD_WRITE = 0x80
_CMD_BURST = 0x40


def crc8_bitwise(data: bytes, poly: int = 0x07, init: int = 0x00) -> int:
    """CRC-8, one bit step at a time (the definition the table must match)."""
    crc = init
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


class ReferenceDevice(UwbRadarDevice):
    """The chip with a byte-at-a-time FIFO: every FIFO-touching method of
    the device, written as a ``deque`` of single bytes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fifo = deque()

    def tick(self) -> bool:
        if not self.running or self._source is None:
            return False
        try:
            frame = self._source(self._frame_counter)
        except (IndexError, StopIteration):
            return False
        self._frame_counter += 1
        self._sync_frame_count()
        if self._n_bins is None:
            self._n_bins = int(len(frame))
        payload = self.encode_frame(frame)
        frame_bytes = len(payload)
        if len(self._fifo) + frame_bytes > self.fifo_capacity_bytes:
            for _ in range(min(frame_bytes, len(self._fifo))):
                self._fifo.popleft()
            self._set_status(overflow=True)
        self._fifo.extend(payload)
        self._set_status(frame_ready=True)
        self._sync_count()
        return True

    def spi_transaction(self, mosi: bytes) -> bytes:
        if len(mosi) < 2 or crc8_bitwise(mosi[:-1]) != mosi[-1]:
            return bytes([NAK])
        body = mosi[:-1]
        command = body[0]
        if command & _CMD_WRITE:
            if len(body) != 2:
                return bytes([NAK])
            address, value = command & 0x3F, body[1]
            try:
                self.registers.write(address, value)
            except (KeyError, PermissionError, ValueError):
                return bytes([NAK])
            if address == REGISTERS["SOFT_RESET"].address and value & 0x01:
                self._soft_reset()
            return bytes([ACK])
        if command & _CMD_BURST:
            if len(body) != 3:
                return bytes([NAK])
            n = body[1] | (body[2] << 8)
            if n > len(self._fifo):
                return bytes([NAK])
            out = bytes(self._fifo.popleft() for _ in range(n))
            self._sync_count()
            return bytes([ACK]) + out
        if len(body) != 1:
            return bytes([NAK])
        try:
            return bytes([ACK, self.registers.read(command & 0x3F)])
        except KeyError:
            return bytes([NAK])

    def fifo_frames(self):
        if self._n_bins is None:
            return
        frame_bytes = self._n_bins * 4
        while len(self._fifo) >= frame_bytes:
            payload = bytes(self._fifo.popleft() for _ in range(frame_bytes))
            self._sync_count()
            yield self.decode_frame(payload)


# ------------------------------------------------------------------ CRC-8
_POLYS = st.sampled_from([0x07, 0x31])


class TestTableCrc8:
    def test_every_single_byte(self):
        for poly in (0x07, 0x31):
            for init in (0x00, 0x01, 0x5A, 0xFF):
                for byte in range(256):
                    data = bytes([byte])
                    assert crc8(data, poly, init) == crc8_bitwise(data, poly, init)

    @given(st.binary(max_size=96), _POLYS, st.integers(0, 0xFF))
    @settings(max_examples=300, deadline=None)
    def test_random_strings(self, data, poly, init):
        assert crc8(data, poly=poly, init=init) == crc8_bitwise(data, poly=poly, init=init)


# ------------------------------------------------------- device vs reference
_N_BINS = 6
_FRAME_BYTES = _N_BINS * 4
_N_WORLD = 48
#: FIFO capacities: whole frames (a push that exactly fills the FIFO must
#: not overflow it) and a partial frame more. Both overflow often.
_CAPACITIES = [2 * _FRAME_BYTES, 3 * _FRAME_BYTES, 3 * _FRAME_BYTES + 10]
_MAX_FIFO = max(_CAPACITIES)


def _world() -> np.ndarray:
    rng = np.random.default_rng(7)
    # Scaled past full scale now and then, so the quantiser also clips.
    return 1.2e-3 * (
        rng.standard_normal((_N_WORLD, _N_BINS)) + 1j * rng.standard_normal((_N_WORLD, _N_BINS))
    )


_WORLD = _world()
_ADDRESSES = sorted(r.address for r in REGISTERS.values()) + [0x05, 0x3F]


def _framed(body: bytes) -> bytes:
    return body + bytes([crc8_bitwise(body)])


_OPS = st.one_of(
    st.just(("tick",)),
    st.just(("tick",)),
    st.tuples(st.just("burst"), st.integers(0, _MAX_FIFO + 8)),
    st.tuples(st.just("read"), st.sampled_from(_ADDRESSES)),
    st.tuples(st.just("write"), st.sampled_from(_ADDRESSES), st.integers(0, 0xFF)),
    st.just(("reset",)),
    st.just(("start",)),
    st.tuples(st.just("corrupt"), st.integers(1, 0xFF), st.integers(0, _MAX_FIFO)),
    st.just(("fifo_frames",)),
    st.tuples(st.just("raw"), st.binary(max_size=6)),
)


def _apply(device: UwbRadarDevice, op: tuple) -> object:
    """One step against one device; returns what the step observed."""
    kind = op[0]
    if kind == "tick":
        return device.tick()
    if kind == "burst":
        n = op[1]
        return device.spi_transaction(_framed(bytes([_CMD_BURST, n & 0xFF, n >> 8])))
    if kind == "read":
        return device.spi_transaction(_framed(bytes([op[1]])))
    if kind == "write":
        return device.spi_transaction(_framed(bytes([_CMD_WRITE | (op[1] & 0x3F), op[2]])))
    if kind == "reset":
        return device.spi_transaction(_framed(bytes([_CMD_WRITE | REGISTERS["SOFT_RESET"].address, 1])))
    if kind == "start":
        return device.spi_transaction(_framed(bytes([_CMD_WRITE | REGISTERS["TRX_CTRL"].address, 1])))
    if kind == "corrupt":
        n = op[2]
        mosi = bytearray(_framed(bytes([_CMD_BURST, n & 0xFF, n >> 8])))
        mosi[-1] ^= op[1]
        return device.spi_transaction(bytes(mosi))
    if kind == "fifo_frames":
        try:
            return [frame.tobytes() for frame in device.fifo_frames()]
        except ValueError as exc:  # TX_POWER written to zero: nothing decodes
            return repr(exc)
    return device.spi_transaction(op[1])


def _registers(device: UwbRadarDevice) -> dict[str, int]:
    return {name: device.registers.read_name(name) for name in REGISTERS}


class TestDeviceMatchesReference:
    @given(st.sampled_from(_CAPACITIES), st.lists(_OPS, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_replies_and_registers_identical(self, capacity, ops):
        device = UwbRadarDevice(_WORLD, fifo_capacity_bytes=capacity)
        reference = ReferenceDevice(_WORLD, fifo_capacity_bytes=capacity)
        for device_under_test in (device, reference):
            assert _apply(device_under_test, ("start",)) == bytes([ACK])
        for op in ops:
            got = _apply(device, op)
            want = _apply(reference, op)
            assert got == want, op
            assert _registers(device) == _registers(reference), op
        # Whatever the sequence left queued drains identically too.
        assert _apply(device, ("fifo_frames",)) == _apply(reference, ("fifo_frames",))


# -------------------------------------------------- transactions per poll
class CountingWire:
    """SPI pass-through counting chip-select transactions."""

    def __init__(self, device: UwbRadarDevice) -> None:
        self._device = device
        self.transactions = 0

    def spi_transaction(self, mosi: bytes) -> bytes:
        self.transactions += 1
        return self._device.spi_transaction(mosi)


class TestTransactionsPerPoll:
    def test_steady_state_poll_is_seven_transactions(self):
        device = UwbRadarDevice(_WORLD)
        wire = CountingWire(device)
        driver = XepDriver(SpiBus(wire), n_bins=_N_BINS)
        driver.probe()
        driver.configure()
        driver.start()
        stream = FrameStream(driver, device)
        per_poll = []
        for _ in range(20):
            before = wire.transactions
            assert stream.poll() is not None
            per_poll.append(wire.transactions - before)
        # FIFO_COUNT (2 reads), the burst, FIFO_COUNT again (2) and
        # FRAME_COUNT (2).
        assert per_poll == [7] * 20
