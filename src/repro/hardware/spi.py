"""Byte-level SPI emulation with command framing.

The wire protocol (one chip-select assertion per transaction):

- register write:  ``0x80|addr, value, crc``           → ``ack(0x5A)``
- register read:   ``0x00|addr, crc``                  → ``ack, value``
- burst FIFO read: ``0x40|n_lo, n_hi, crc``            → ``ack, n bytes``

The final command byte is a CRC-8 (polynomial 0x07) over the preceding
bytes; the slave answers ``0xEE`` to a bad CRC and the master raises
:class:`SpiError`. Successful read replies lead with the ACK byte so a
data byte that happens to equal ``0xEE`` can never be mistaken for a
NAK — without the leading ACK, any register whose *value* is ``0xEE``
(e.g. a free-running frame counter passing 238) would be unreadable.
The framing is deliberately simple but real enough to exercise
driver-side error handling and to carry the full frame stream.
"""

from __future__ import annotations

import functools
from typing import Protocol

__all__ = ["crc8", "SpiSlave", "SpiBus", "SpiError", "ACK", "NAK"]

ACK = 0x5A
NAK = 0xEE

_CMD_WRITE = 0x80
_CMD_BURST = 0x40


class SpiError(RuntimeError):
    """Raised by the master on protocol errors (bad CRC, NAK, short reply)."""


@functools.cache
def _crc8_table(poly: int) -> bytes:
    """The 256 one-byte remainders of ``poly``: entry ``b`` is ``b`` shifted
    through all eight bit steps, so one lookup replaces a byte's loop."""
    table = bytearray(256)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table[byte] = crc
    return bytes(table)


def crc8(data: bytes, poly: int = 0x07, init: int = 0x00) -> int:
    """CRC-8 (ATM HEC polynomial x⁸+x²+x+1 by default), MSB first.

    Table-driven: one lookup per byte in a 256-entry table built once
    per polynomial on first use.
    """
    table = _crc8_table(poly & 0xFF)
    crc = init & 0xFF
    for byte in data:
        crc = table[crc ^ byte]
    return crc


class SpiSlave(Protocol):
    """Anything that can answer one chip-select-framed SPI transaction."""

    def spi_transaction(self, mosi: bytes) -> bytes:
        """Process master-out bytes, return master-in bytes."""


class SpiBus:
    """Master side of the emulated SPI link."""

    def __init__(self, slave: SpiSlave) -> None:
        self._slave = slave

    def _transact(self, payload: bytes) -> bytes:
        framed = payload + bytes([crc8(payload)])
        return self._slave.spi_transaction(framed)

    def write_register(self, address: int, value: int) -> None:
        """Write one register; raises :class:`SpiError` on NAK."""
        if not 0 <= address <= 0x3F:
            raise ValueError(f"address {address:#x} outside the 6-bit command space")
        if not 0 <= value <= 0xFF:
            raise ValueError(f"value {value} outside 8-bit range")
        reply = self._transact(bytes([_CMD_WRITE | address, value]))
        if len(reply) != 1 or reply[0] != ACK:
            raise SpiError(
                f"register write to {address:#04x} rejected "
                f"(reply {reply.hex() if reply else '<empty>'})"
            )

    def read_register(self, address: int) -> int:
        """Read one register."""
        if not 0 <= address <= 0x3F:
            raise ValueError(f"address {address:#x} outside the 6-bit command space")
        reply = self._transact(bytes([address]))
        if len(reply) == 1 and reply[0] == NAK:
            raise SpiError(f"register read from {address:#04x} NAKed")
        if len(reply) != 2 or reply[0] != ACK:
            raise SpiError(
                f"register read from {address:#04x} returned malformed reply "
                f"{reply.hex() if reply else '<empty>'}"
            )
        return reply[1]

    def burst_read(self, n_bytes: int) -> bytes:
        """Read ``n_bytes`` from the device FIFO in one transaction."""
        if not 0 < n_bytes <= 0xFFFF:
            raise ValueError(f"burst length {n_bytes} outside 1..65535")
        reply = self._transact(bytes([_CMD_BURST | 0x00, n_bytes & 0xFF, (n_bytes >> 8) & 0xFF]))
        if len(reply) == 1 and reply[0] == NAK:
            raise SpiError("burst read NAKed")
        if len(reply) != n_bytes + 1 or reply[0] != ACK:
            raise SpiError(f"burst read returned {len(reply)} of {n_bytes}+ack bytes")
        return reply[1:]
