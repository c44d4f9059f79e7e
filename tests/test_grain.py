import pytest

from grainkit import (
    KeyIv,
    SystemState,
    UnknownVariantError,
    VARIANT_NAMES,
    generate_keystream,
    initialize,
    keystream,
    load,
    state_from_hex,
    state_to_hex,
    variant,
)
from grainkit.anf import Var, parse_term
from grainkit.engine import run
from conftest import GALOIS_VARIANTS, rand_bits

from grain_reference import grain80_keystream, grain128_keystream


def zero_keyiv(v):
    return KeyIv((0,) * v.key_bits, (0,) * v.iv_bits)


def test_registry_names_and_metadata():
    assert len(VARIANT_NAMES) == 9
    for name in VARIANT_NAMES:
        v = variant(name)
        assert v.init_cycles == 2 * v.key_bits
        assert v.system.register_ids() == ("b", "s")
        assert v.system.register("b").length == v.key_bits
        assert v.system.register("s").length == v.key_bits
    with pytest.raises(UnknownVariantError):
        variant("grain96-fib")


def test_registry_feedback_shapes():
    assert len(variant("grain80-fib").system.register("b").feedback[79].terms) == 23
    gal4 = variant("grain128-galois-4").system.register("b")
    assert gal4.explicit_bits() == (99, 103, 107, 111, 115, 119, 123, 127)
    from grainkit.transform import terminal_bit

    assert terminal_bit(variant("grain80-galois-1").system.register("b")) == 63


def test_load_zero_key_and_iv():
    v80 = variant("grain80-fib")
    state = load(v80, zero_keyiv(v80))
    assert state.bits("b") == (0,) * 80
    assert state.bits("s") == (0,) * 64 + (1,) * 16
    assert state.cycle == 0
    v128 = variant("grain128-fib")
    state = load(v128, zero_keyiv(v128))
    assert state.bits("s") == (0,) * 96 + (1,) * 32


def test_load_places_key_bits_directly():
    v80 = variant("grain80-fib")
    key = (0,) * 79 + (1,)
    state = load(v80, KeyIv(key, (0,) * 64))
    assert state.bits("b")[79] == 1
    assert sum(state.bits("b")) == 1


def test_load_length_validation():
    v80 = variant("grain80-fib")
    with pytest.raises(ValueError):
        load(v80, KeyIv((0,) * 79, (0,) * 64))
    with pytest.raises(ValueError):
        load(v80, KeyIv((0,) * 80, (0,) * 63))


def test_initialize_consumes_init_cycles():
    v80 = variant("grain80-fib")
    state = initialize(v80, load(v80, zero_keyiv(v80)))
    assert state.cycle == 160
    v128 = variant("grain128-fib")
    state = initialize(v128, load(v128, zero_keyiv(v128)))
    assert state.cycle == 256


def test_initialize_requires_fresh_state():
    v80 = variant("grain80-fib")
    state = initialize(v80, load(v80, zero_keyiv(v80)))
    with pytest.raises(ValueError):
        initialize(v80, state)


def test_initialize_rejects_unknown_mode():
    v80 = variant("grain80-fib")
    with pytest.raises(ValueError):
        initialize(v80, load(v80, zero_keyiv(v80)), mode="hybrid")


def test_generate_zero_bits():
    v80 = variant("grain80-fib")
    state = initialize(v80, load(v80, zero_keyiv(v80)))
    bits, after = generate_keystream(v80, state, 0)
    assert bits == ()
    assert after == state


def test_keystream_matches_reference(rng):
    key, iv = rand_bits(rng, 80), rand_bits(rng, 64)
    assert keystream(variant("grain80-fib"), KeyIv(key, iv), 96) == tuple(
        grain80_keystream(list(key), list(iv), 96)
    )
    key, iv = rand_bits(rng, 128), rand_bits(rng, 96)
    assert keystream(variant("grain128-fib"), KeyIv(key, iv), 96) == tuple(
        grain128_keystream(list(key), list(iv), 96)
    )


@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_equivalence_mode_reproduces_fibonacci(name, rng):
    v = variant(name)
    fib = v.fib_variant()
    key, iv = rand_bits(rng, v.key_bits), rand_bits(rng, v.iv_bits)
    kiv = KeyIv(key, iv)
    assert keystream(v, kiv, 192, mode="equivalence") == keystream(fib, kiv, 192)


@pytest.mark.parametrize("mode", ["equivalence", "native"])
def test_initialize_clocks_only_the_variants_own_system(monkeypatch, mode):
    calls = []

    def spy(system, state, cycles, **kwargs):
        calls.append((system, cycles, kwargs))
        return run(system, state, cycles, **kwargs)

    monkeypatch.setattr("grainkit.grain.run", spy)
    v = variant("grain80-galois-4")
    initialize(v, load(v, zero_keyiv(v)), mode)
    assert calls == [(v.system, v.init_cycles, {"modes": {"init"}})]


def test_native_mode_is_deterministic_but_diverges(rng):
    v = variant("grain80-galois-1")
    fib = v.fib_variant()
    key, iv = rand_bits(rng, 80), rand_bits(rng, 64)
    kiv = KeyIv(key, iv)
    native = keystream(v, kiv, 192, mode="native")
    assert native == keystream(v, kiv, 192, mode="native")
    assert native != keystream(fib, kiv, 192)


def test_state_codec_round_trip(rng):
    v = variant("grain80-fib")
    state = load(v, KeyIv(rand_bits(rng, 80), rand_bits(rng, 64)))
    assert state_from_hex(v, state_to_hex(v, state)) == state
    after = initialize(v, state)
    text = state_to_hex(v, after)
    assert text.endswith("@160")
    assert state_from_hex(v, text) == after


def test_state_codec_zero_state():
    v = variant("grain80-fib")
    assert state_to_hex(v, SystemState.zeros(v.system)) == "00" * 20


def test_state_codec_rejects_bad_text():
    v = variant("grain80-fib")
    with pytest.raises(ValueError):
        state_from_hex(v, "00" * 19)
    with pytest.raises(ValueError):
        state_from_hex(v, "00" * 20 + "ff")
    with pytest.raises(ValueError):
        state_from_hex(v, "00" * 20 + "@x")


def test_keyiv_from_hex():
    kiv = KeyIv.from_hex("01" + "00" * 9, "00" * 8, 80, 64)
    assert kiv.key[0] == 1 and sum(kiv.key) == 1
    with pytest.raises(ValueError):
        KeyIv.from_hex("00" * 9, "00" * 8, 80, 64)


def test_keyiv_rejects_non_bits():
    with pytest.raises(ValueError, match=r"key\[2\]"):
        KeyIv((0, 1, 2), (0,))
    with pytest.raises(ValueError, match=r"iv\[0\]"):
        KeyIv((0,), (-1,))
    assert KeyIv([1, 0], [1]) == KeyIv((1, 0), (1,))


def test_as_printed_flavor_changes_taps():
    official = variant("grain80-fib").system.output("H").expr.support()
    printed = variant("grain80-fib", "as-printed").system.output("H").expr.support()
    assert Var("s", 64) in official and Var("s", 4) not in official
    assert Var("s", 4) in printed and Var("s", 64) not in printed

    official = variant("grain128-fib").system.output("H").expr.support()
    printed = variant("grain128-fib", "as-printed").system.output("H").expr.support()
    assert Var("s", 95) in official and Var("s", 94) not in official
    assert printed == official  # both flavors tap the published s[95]

    top = variant("grain128-galois-1", "as-printed").system.register("b").feedback[127]
    assert parse_term("b[3]*b[67]") in top.terms


def test_as_printed_equivalence_still_holds_for_grain80(rng):
    # the tap flavor changes the keystream, not the transformation theory
    v = variant("grain80-galois-1", "as-printed")
    fib = v.fib_variant()
    assert fib.repair == "as-printed"
    kiv = KeyIv(rand_bits(rng, 80), rand_bits(rng, 64))
    assert keystream(v, kiv, 128) == keystream(fib, kiv, 128)
    assert keystream(fib, kiv, 128) != keystream(variant("grain80-fib"), kiv, 128)


def test_unknown_repair_mode():
    with pytest.raises(ValueError):
        variant("grain80-fib", "patched")
