import pytest
from hypothesis import given
from hypothesis import strategies as st

from grainkit.bits import int_bits, pack_bits, pack_int, unpack_hex, unpack_int


def test_single_set_bit_is_lsb_of_first_byte():
    assert pack_bits([1, 0, 0, 0, 0, 0, 0, 0]) == "01"


def test_ninth_bit_lands_in_second_byte():
    assert pack_bits([0] * 8 + [1]) == "0001"


def test_partial_byte_pads_high_bits_with_zero():
    assert pack_bits([1, 1, 1]) == "07"


def test_msb_order():
    assert pack_bits([1, 0, 0, 0, 0, 0, 0, 0], order="msb") == "80"
    assert unpack_hex("80", order="msb")[0] == 1


def test_unpack_rejects_bad_input():
    with pytest.raises(ValueError):
        unpack_hex("zz")
    with pytest.raises(ValueError):
        unpack_hex("0")
    with pytest.raises(ValueError):
        unpack_hex("0001", nbits=24)  # too short
    with pytest.raises(ValueError):
        unpack_hex("07", nbits=2)  # nonzero padding


def test_pack_rejects_non_bits():
    with pytest.raises(ValueError):
        pack_bits([0, 2])
    with pytest.raises(ValueError):
        pack_bits([0], order="middle")


@given(st.lists(st.integers(0, 1), max_size=1024), st.sampled_from(["lsb", "msb"]))
def test_round_trip(bits, order):
    text = pack_bits(bits, order)
    assert len(text) == 2 * ((len(bits) + 7) // 8)
    assert unpack_hex(text, nbits=len(bits), order=order) == tuple(bits)


def _pack_bits_per_bit(bits, order="lsb"):
    """The per-bit packing loop pack_bits used to run, kept as the reference."""
    if order not in ("lsb", "msb"):
        raise ValueError(f"unknown bit order {order!r}")
    data = bytearray()
    for m, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {m} is {bit!r}, expected 0 or 1")
        if m % 8 == 0:
            data.append(0)
        data[-1] |= bit << (m % 8 if order == "lsb" else 7 - m % 8)
    return data.hex()


def _outcome(pack, bits, order):
    try:
        return pack(bits, order)
    except ValueError as exc:
        return str(exc)


@given(
    st.lists(st.integers(0, 1), max_size=300),
    st.sampled_from(["lsb", "msb", "middle"]),
    st.one_of(st.none(), st.tuples(st.integers(0, 299), st.sampled_from([2, -1, 256, None, "1"]))),
    st.booleans(),
)
def test_pack_bits_matches_per_bit_reference(bits, order, bad, as_iterator):
    if bad is not None and bits:
        bits[bad[0] % len(bits)] = bad[1]
    want = _outcome(_pack_bits_per_bit, bits, order)
    got = _outcome(pack_bits, iter(bits) if as_iterator else tuple(bits), order)
    assert got == want


@given(st.lists(st.integers(0, 1), max_size=300), st.sampled_from(["lsb", "msb"]))
def test_int_forms_match_the_per_bit_reference(bits, order):
    value = sum(bit << m for m, bit in enumerate(bits))
    text = pack_int(value, len(bits), order)
    assert text == _pack_bits_per_bit(bits, order)
    assert unpack_int(text, len(bits), order) == value
    assert int_bits(value, len(bits)) == tuple(bits)


def test_pack_int_rejects_values_that_do_not_fit():
    with pytest.raises(ValueError, match="does not fit in 2 bits"):
        pack_int(0b100, 2)
    with pytest.raises(ValueError, match="does not fit"):
        pack_int(-1, 8)
    with pytest.raises(ValueError, match="unknown bit order"):
        pack_int(1, 8, order="middle")
