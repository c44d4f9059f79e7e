"""The keystream as one int, from the lane kernel to the hex output.

``cli keystream`` packs the int that ``grain.generate_keystream_int``
returns; ``grain.keystream`` and ``grain.generate_keystream`` unpack the
same int into bits.  The digest table was taken from the tuple path this
replaced (bits expanded from the run, then packed again), so CLI output
is pinned byte for byte.
"""

import hashlib
from pathlib import Path

import pytest

import grainkit
from grainkit import KeyIv, initialize, load, variant
from grainkit.bits import int_bits
from grainkit.cli import main
from grainkit.grain import generate_keystream, generate_keystream_int, keystream
from conftest import ALL_VARIANTS, GALOIS_VARIANTS, rand_bits, run_fresh

KEYIV = {
    "grain80": ("0123456789abcdef1234", "fedcba9876543210"),
    "grain128": ("0123456789abcdef1122334455667788", "fedcba987654321000112233"),
}
LENGTHS = (0, 1, 7, 8, 9, 100, 100000)

# (variant, bit order, init mode) -> the first 16 hex digits of the sha1 of
# stdout at each of LENGTHS
DIGESTS = {
    ("grain80-fib", "lsb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 edf2d8d644f8a467 39e4ce1f8ac1ee56"
        " 58040ff6be9cce31 6da6cdc00720729f 213c020f17d7ea73"
    ),
    ("grain80-fib", "msb", "equivalence"): (
        "adc83b19e793491b da9c031e24b440e7 41d05be143102c46 41d05be143102c46"
        " 7ca5a4b5c76cf787 88899f84764b3ce0 9a2568cbe30ba541"
    ),
    ("grain80-galois-1", "lsb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 edf2d8d644f8a467 39e4ce1f8ac1ee56"
        " 58040ff6be9cce31 6da6cdc00720729f 213c020f17d7ea73"
    ),
    ("grain80-galois-1", "msb", "equivalence"): (
        "adc83b19e793491b da9c031e24b440e7 41d05be143102c46 41d05be143102c46"
        " 7ca5a4b5c76cf787 88899f84764b3ce0 9a2568cbe30ba541"
    ),
    ("grain80-galois-1", "lsb", "native"): (
        "adc83b19e793491b 3351d58b1d3bf731 651f2df586cbf642 651f2df586cbf642"
        " 63d46681a608a956 124e878abee9f095 f563b5f5d8289267"
    ),
    ("grain80-galois-4", "lsb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 edf2d8d644f8a467 39e4ce1f8ac1ee56"
        " 58040ff6be9cce31 6da6cdc00720729f 213c020f17d7ea73"
    ),
    ("grain80-galois-4", "msb", "equivalence"): (
        "adc83b19e793491b da9c031e24b440e7 41d05be143102c46 41d05be143102c46"
        " 7ca5a4b5c76cf787 88899f84764b3ce0 9a2568cbe30ba541"
    ),
    ("grain80-galois-4", "lsb", "native"): (
        "adc83b19e793491b 188d51466bf23030 52bd5c5dde0ef99a 52bd5c5dde0ef99a"
        " 0bc45d3f7266e457 754bca6188809a86 12c5646f1bf4a257"
    ),
    ("grain80-galois-8", "lsb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 edf2d8d644f8a467 39e4ce1f8ac1ee56"
        " 58040ff6be9cce31 6da6cdc00720729f 213c020f17d7ea73"
    ),
    ("grain80-galois-8", "msb", "equivalence"): (
        "adc83b19e793491b da9c031e24b440e7 41d05be143102c46 41d05be143102c46"
        " 7ca5a4b5c76cf787 88899f84764b3ce0 9a2568cbe30ba541"
    ),
    ("grain80-galois-8", "lsb", "native"): (
        "adc83b19e793491b 188d51466bf23030 82e934bce2db1e75 82e934bce2db1e75"
        " 48689490aaa161a2 618a5d1c7a8c0ea4 8a135f1aa15a8427"
    ),
    ("grain128-fib", "lsb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 a4d3c742290b20b5 4a078b075f259063"
        " f185dd23143d5a31 10f5dc206e9277f3 f41a7ed4f1d24371"
    ),
    ("grain128-fib", "msb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 6643b1a6b884eb62 e6fdd81a2e7aee78"
        " fc1cca85304d4e7b 3a003b96e73e43ac 51225e9baf20d750"
    ),
    ("grain128-galois-1", "lsb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 a4d3c742290b20b5 4a078b075f259063"
        " f185dd23143d5a31 10f5dc206e9277f3 f41a7ed4f1d24371"
    ),
    ("grain128-galois-1", "msb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 6643b1a6b884eb62 e6fdd81a2e7aee78"
        " fc1cca85304d4e7b 3a003b96e73e43ac 51225e9baf20d750"
    ),
    ("grain128-galois-1", "lsb", "native"): (
        "adc83b19e793491b 3351d58b1d3bf731 587b596f04f7db9c 587b596f04f7db9c"
        " f3ca1e392e82c0b9 44eecfb1f448a002 36b72f137717cc2a"
    ),
    ("grain128-galois-4", "lsb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 a4d3c742290b20b5 4a078b075f259063"
        " f185dd23143d5a31 10f5dc206e9277f3 f41a7ed4f1d24371"
    ),
    ("grain128-galois-4", "msb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 6643b1a6b884eb62 e6fdd81a2e7aee78"
        " fc1cca85304d4e7b 3a003b96e73e43ac 51225e9baf20d750"
    ),
    ("grain128-galois-4", "lsb", "native"): (
        "adc83b19e793491b 3351d58b1d3bf731 8f6fba4cd0c7050b 8f6fba4cd0c7050b"
        " c756581546ea8aac d6afec068c2d92ea 601e0d2d7146479f"
    ),
    ("grain128-galois-8", "lsb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 a4d3c742290b20b5 4a078b075f259063"
        " f185dd23143d5a31 10f5dc206e9277f3 f41a7ed4f1d24371"
    ),
    ("grain128-galois-8", "msb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 6643b1a6b884eb62 e6fdd81a2e7aee78"
        " fc1cca85304d4e7b 3a003b96e73e43ac 51225e9baf20d750"
    ),
    ("grain128-galois-8", "lsb", "native"): (
        "adc83b19e793491b 188d51466bf23030 f334c9f29d8414db ccaebc014635ad1a"
        " 50482c9ba7bbc849 849f95d7cf27f839 e5f74d60553d3e3a"
    ),
    ("grain128-galois-16", "lsb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 a4d3c742290b20b5 4a078b075f259063"
        " f185dd23143d5a31 10f5dc206e9277f3 f41a7ed4f1d24371"
    ),
    ("grain128-galois-16", "msb", "equivalence"): (
        "adc83b19e793491b 188d51466bf23030 6643b1a6b884eb62 e6fdd81a2e7aee78"
        " fc1cca85304d4e7b 3a003b96e73e43ac 51225e9baf20d750"
    ),
    ("grain128-galois-16", "lsb", "native"): (
        "adc83b19e793491b 3351d58b1d3bf731 c6e4ffdb7e1f4c73 c6e4ffdb7e1f4c73"
        " e28d6e83652e348a 05e1bff851b3c735 599181621e97e36c"
    ),
}


def _keystream_cli(capsys, name, order, mode, nbits):
    key, iv = KEYIV[name.split("-")[0]]
    argv = ["keystream", "--variant", name, "--key", key, "--iv", iv,
            "--bits", str(nbits), "--bit-order", order, "--mode", mode]
    assert main(argv) == 0
    return capsys.readouterr().out


def test_the_table_covers_every_variant_and_order():
    want = {(name, order, "equivalence") for name in ALL_VARIANTS for order in ("lsb", "msb")}
    assert set(DIGESTS) == want | {(name, "lsb", "native") for name in GALOIS_VARIANTS}


@pytest.mark.parametrize("name, order, mode", sorted(DIGESTS))
def test_cli_keystream_matches_the_tuple_path(capsys, name, order, mode):
    got = [
        hashlib.sha1(_keystream_cli(capsys, name, order, mode, n).encode()).hexdigest()[:16]
        for n in LENGTHS
    ]
    assert got == DIGESTS[name, order, mode].split()


@pytest.mark.parametrize("name", ALL_VARIANTS)
def test_the_bit_forms_unpack_the_int_path(name, rng):
    v = variant(name)
    kiv = KeyIv(rand_bits(rng, v.key_bits), rand_bits(rng, v.iv_bits))
    for mode in ("equivalence", "native"):
        state = initialize(v, load(v, kiv), mode)
        for nbits in (0, 1, 31, 32, 33, 1000):
            value, after = generate_keystream_int(v, state, nbits)
            assert value >= 0 and not value >> nbits
            assert generate_keystream(v, state, nbits) == (int_bits(value, nbits), after)
            assert keystream(v, kiv, nbits, mode) == int_bits(value, nbits)


def _longest_keystream(tmp_path, name: str) -> tuple[float, str]:
    """Peak MiB and output sha1 of a 2**24-bit keystream, zero key and IV, in a fresh process."""
    src = Path(grainkit.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from grainkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    v = variant(name)
    argv = ["keystream", "--variant", name, "--key", "0" * (v.key_bits // 4),
            "--iv", "0" * (v.iv_bits // 4), "--bits", str(1 << 24)]
    out = tmp_path / "keystream.txt"
    status, peak = run_fresh(code, argv, out)
    assert status == 0
    return peak, hashlib.sha1(out.read_bytes()).hexdigest()


def test_the_longest_keystream_runs_in_bounded_memory(tmp_path):
    # 2**24 bits, the CLI's limit: the tuple path peaked near 200 MiB (8
    # bytes a bit); the int path, joining the lane words chunk by chunk,
    # about 40 MiB
    peak, digest = _longest_keystream(tmp_path, "grain128-fib")
    assert peak < 120, f"peak {peak:.0f} MiB"
    assert digest == "21f8dfab25c6bac50b242d066e1879a433851e07"


def test_the_slowest_variant_keystream_runs_in_bounded_memory(tmp_path):
    # grain80-galois-1 records the most lane words: 120 MiB while they
    # were held as lists until the end of the run, about 37 MiB joined
    # every _CHUNK steps
    peak, digest = _longest_keystream(tmp_path, "grain80-galois-1")
    assert peak < 60, f"peak {peak:.0f} MiB"
    assert digest == "7bcde80014c2a4fe54d61836e7d26eb91015bc5b"
