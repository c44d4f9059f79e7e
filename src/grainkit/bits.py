"""Packing between bit sequences and lowercase hex text.

Default convention: bit m lives at bit (m mod 8) of byte floor(m/8),
least-significant bit first within a byte; byte 0 is rendered first and a
trailing partial byte is zero-padded in its high bits.  The "msb" order
flips the in-byte position to (7 - m mod 8) for interop with sources that
publish vectors most-significant-bit first.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["pack_bits", "unpack_hex"]

_ORDERS = ("lsb", "msb")
_DIGITS = b"01" + b"?" * 254  # bytes.translate table: 0 -> "0", 1 -> "1", others -> "?"


def pack_bits(bits: Sequence[int] | Iterable[int], order: str = "lsb") -> str:
    if order not in _ORDERS:
        raise ValueError(f"unknown bit order {order!r}")
    bits = bits if isinstance(bits, (list, tuple)) else list(bits)
    try:
        text = bytes(bits).translate(_DIGITS)
    except (TypeError, ValueError):  # an item that is not an integer in 0..255
        text = b"?"
    if b"?" in text:
        for m, bit in enumerate(bits):
            if bit not in (0, 1) or not isinstance(bit, int):
                raise ValueError(f"bit {m} is {bit!r}, expected 0 or 1")
    size = (len(bits) + 7) // 8
    if order == "lsb":
        return int(b"0" + text[::-1], 2).to_bytes(size, "little").hex()
    return int(b"0" + text.ljust(8 * size, b"0"), 2).to_bytes(size, "big").hex()


def unpack_hex(text: str, nbits: int | None = None, order: str = "lsb") -> tuple[int, ...]:
    """Decode hex text back to bits; inverse of :func:`pack_bits`.

    With ``nbits`` the input length must match exactly and any padding
    bits beyond ``nbits`` must be zero.
    """
    if order not in _ORDERS:
        raise ValueError(f"unknown bit order {order!r}")
    text = text.strip()
    if len(text) % 2 != 0:
        raise ValueError("hex text must have an even number of digits")
    try:
        data = bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"not valid hex text: {text!r}") from None
    value = int.from_bytes(data, "little" if order == "lsb" else "big")
    digits = bin(value | 1 << 8 * len(data))[3:]  # the top sentinel bit keeps leading zeros
    bits = tuple(map(int, digits[::-1] if order == "lsb" else digits))
    if nbits is None:
        return bits
    want_bytes = (nbits + 7) // 8
    if len(data) != want_bytes:
        raise ValueError(
            f"expected {want_bytes} bytes ({nbits} bits), got {len(data)} bytes"
        )
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits beyond the requested length")
    return bits[:nbits]
