"""Packing between bit sequences, ints and lowercase hex text.

Default convention: bit m lives at bit (m mod 8) of byte floor(m/8),
least-significant bit first within a byte; byte 0 is rendered first and a
trailing partial byte is zero-padded in its high bits.  The "msb" order
flips the in-byte position to (7 - m mod 8) for interop with sources that
publish vectors most-significant-bit first.

A bit sequence held as one int has bit m at weight 2**m.  ``pack_int``
is the one packer of the text format and ``unpack_int`` its inverse; the
sequence forms go through them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["int_bits", "pack_bits", "pack_int", "unpack_hex", "unpack_int"]

_ORDERS = ("lsb", "msb")
_DIGITS = b"01" + b"?" * 254  # bytes.translate table: 0 -> "0", 1 -> "1", others -> "?"
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))  # bit order within a byte


def _check_order(order: str) -> None:
    if order not in _ORDERS:
        raise ValueError(f"unknown bit order {order!r}")


def int_bits(value: int, count: int) -> tuple[int, ...]:
    """Bits 0..count-1 of ``value``, bit 0 first; ``value`` is below 2**count."""
    return tuple(bin(value | 1 << count)[:2:-1].encode().translate(_BITS))


def pack_int(value: int, nbits: int, order: str = "lsb") -> str:
    """Hex text of the ``nbits``-bit sequence held in ``value``."""
    _check_order(order)
    if value < 0 or value >> nbits:
        raise ValueError(f"value does not fit in {nbits} bits")
    data = value.to_bytes((nbits + 7) // 8, "little")
    return (data if order == "lsb" else data.translate(_REVERSED)).hex()


def pack_bits(bits: Sequence[int] | Iterable[int], order: str = "lsb") -> str:
    _check_order(order)
    bits = bits if isinstance(bits, (list, tuple)) else list(bits)
    try:
        text = bytes(bits).translate(_DIGITS)
    except (TypeError, ValueError):  # an item that is not an integer in 0..255
        text = b"?"
    if b"?" in text:
        for m, bit in enumerate(bits):
            if bit not in (0, 1) or not isinstance(bit, int):
                raise ValueError(f"bit {m} is {bit!r}, expected 0 or 1")
    return pack_int(int(b"0" + text[::-1], 2), len(bits), order)


def _decode(text: str, order: str) -> tuple[int, int]:
    """Hex text as (the bit sequence as an int, the number of bytes)."""
    _check_order(order)
    text = text.strip()
    if len(text) % 2 != 0:
        raise ValueError("hex text must have an even number of digits")
    try:
        data = bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"not valid hex text: {text!r}") from None
    return int.from_bytes(data if order == "lsb" else data.translate(_REVERSED), "little"), len(data)


def unpack_int(text: str, nbits: int, order: str = "lsb") -> int:
    """Decode hex text of exactly ``nbits`` bits; inverse of :func:`pack_int`.

    The input must hold exactly the bytes of ``nbits`` bits, and any
    padding bits beyond ``nbits`` must be zero.
    """
    value, size = _decode(text, order)
    want_bytes = (nbits + 7) // 8
    if size != want_bytes:
        raise ValueError(f"expected {want_bytes} bytes ({nbits} bits), got {size} bytes")
    if value >> nbits:
        raise ValueError("nonzero padding bits beyond the requested length")
    return value


def unpack_hex(text: str, nbits: int | None = None, order: str = "lsb") -> tuple[int, ...]:
    """Decode hex text back to bits; inverse of :func:`pack_bits`.

    Without ``nbits`` every bit of the text is returned; with it, see
    :func:`unpack_int`.
    """
    if nbits is None:
        value, size = _decode(text, order)
        return int_bits(value, 8 * size)
    return int_bits(unpack_int(text, nbits, order), nbits)
