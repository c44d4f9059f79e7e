"""The bundled variants: Galois forms built from their siblings by shift script."""

import hashlib

import pytest

from grainkit import grain, variants
from grainkit.specfile import format_spec
from grainkit.transform import parse_shift_script

from conftest import ALL_VARIANTS, GALOIS_VARIANTS

# sha256 of format_spec(variant(name, flavour).system, name=name), taken
# when every Galois variant was still a hand-written document: building
# them by shift script must give the same systems.
DIGESTS = {
    ("grain80-fib", "official"): "21f3df6607503159b426958a74a4508e7f729bdab3c4ec54a082222dc1e94707",
    ("grain80-fib", "as-printed"): "b814d0f720969145690d07e92a55b76f835d1cf3792a6af7072270c5e58fe3f3",
    ("grain80-galois-1", "official"): "4a0d19ea12d73aa4efb521e1f9e798e0dabf6cd2ca684169e01eb3c6e65ed569",
    ("grain80-galois-1", "as-printed"): "6430f4883701f023aca09b7e66129f0d7a8477a59ce42b999d46515d5fee576a",
    ("grain80-galois-4", "official"): "b29bb711c633cd66f233016da6701c7d4f51c4f6863d139db33ea602e9d11150",
    ("grain80-galois-4", "as-printed"): "a8d17e466696cc1d2cdc471f5589835b9fa01cedc6a10824b1082b696fc6971c",
    ("grain80-galois-8", "official"): "4cad677310d0fccfaa24e5b63ca3f0b154b66aef2c79f30e50c9b13976c1bdf9",
    ("grain80-galois-8", "as-printed"): "639684eb43a9cde38f27a3cdf49753c3832471d3a7ca17737aee5ab7cff88e33",
    ("grain128-fib", "official"): "7e2e436db98340e640e9ed5b0b810b634b55173712221eac4189d6e709fe2385",
    ("grain128-fib", "as-printed"): "7e2e436db98340e640e9ed5b0b810b634b55173712221eac4189d6e709fe2385",
    ("grain128-galois-1", "official"): "1f2e653be5a2c870c2aca1bc30930865a7a8f459c199659fc85b28e1138b5b90",
    ("grain128-galois-1", "as-printed"): "ed40d76b1bed3e65f1d91c2b43b7e75e0a9ffa4d88e8598e0030e27ebe52c592",
    ("grain128-galois-4", "official"): "3ba430a5bbf3376e562dab2798e5a6690a67e58ae67e7493e952015b88bc4fda",
    ("grain128-galois-4", "as-printed"): "3ba430a5bbf3376e562dab2798e5a6690a67e58ae67e7493e952015b88bc4fda",
    ("grain128-galois-8", "official"): "c94fed9ab529f63c694932ef4cfcef4c4aa437a161ba0bba5633c682784af201",
    ("grain128-galois-8", "as-printed"): "c94fed9ab529f63c694932ef4cfcef4c4aa437a161ba0bba5633c682784af201",
    ("grain128-galois-16", "official"): "ed2262177f77a48f84864d408f6907e8d10d7e727ace7b05bf7b193d39c5d213",
    ("grain128-galois-16", "as-printed"): "ed2262177f77a48f84864d408f6907e8d10d7e727ace7b05bf7b193d39c5d213",
}

# moves per Galois variant: one per explicit NLFSR bit below the top
MOVES = {
    "grain80-galois-1": 16,
    "grain80-galois-4": 3,
    "grain80-galois-8": 1,
    "grain128-galois-1": 11,
    "grain128-galois-4": 7,
    "grain128-galois-8": 3,
    "grain128-galois-16": 1,
}


@pytest.mark.parametrize("flavour", variants.REPAIR_MODES)
@pytest.mark.parametrize("name", ALL_VARIANTS)
def test_variant_systems_match_the_pinned_digests(name, flavour):
    text = format_spec(grain.variant(name, flavour).system, name=name)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name, flavour]


@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_each_galois_script_moves_one_tail_per_explicit_bit(name):
    sibling, text = variants._SCRIPTS[name]
    assert sibling == grain.variant(name).fib_sibling
    script = parse_shift_script(text)
    b = grain.variant(name).system.register("b")
    top = b.length - 1
    assert len(script) == MOVES[name]
    assert [m.dest for m in script] == sorted(set(b.explicit_bits()) - {top}, reverse=True)
    assert {m.source for m in script} == {top}


@pytest.fixture
def fresh_cache():
    grain._cache.clear()
    yield
    grain._cache.clear()


@pytest.mark.parametrize(
    "name, extra, problem",
    [
        # the sibling's top feedback holds no b[2]*b[1]
        ("grain80-galois-8", "shift b 79 -> 75 : b[2]*b[1]\n", "not present"),
        # uniform, but below the terminal the outputs tap
        (
            "grain80-galois-1",
            "shift b 63 -> 58 : b[47]*b[44]*b[36]*b[29]*b[21]\n",
            "required terminal",
        ),
    ],
)
def test_a_refused_bundled_script_fails_the_build(
    monkeypatch, fresh_cache, name, extra, problem
):
    sibling, text = variants._SCRIPTS[name]
    monkeypatch.setitem(variants._SCRIPTS, name, (sibling, text + extra))
    for build in (variants.build_system, grain.variant):
        with pytest.raises(ValueError, match=problem) as exc:
            build(name)
        assert repr(name) in str(exc.value)
