import random
import sys
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import pytest

import grainkit
from grainkit import variant
from grainkit import engine, transform, variants
from grainkit.anf import (
    Anf,
    ForeignVariableError,
    Term,
    evaluate,
    parse_expr,
    parse_term,
    remap_indices,
    xor_merge,
)
from grainkit.engine import (
    Injection,
    OutputSpec,
    RegisterSpec,
    SystemSpec,
    SystemState,
    run,
    step,
)
from grainkit.transform import (
    DivergencePoint,
    MissingTermError,
    ShiftMove,
    Violation,
    allowed_feedback_positions,
    apply_shift,
    auto_distribute,
    check_equivalence_exhaustive,
    check_equivalence_mapped,
    check_script,
    check_uniform,
    collapse_to_fibonacci,
    format_shift_script,
    map_system_state,
    max_hw_parallel_degree,
    min_terminal_bit,
    parse_shift_script,
    required_terminal_bit,
    terminal_bit,
)
from conftest import ALL_VARIANTS, GALOIS_VARIANTS, rand_bits, run_fresh
from test_acceptance import _mutate_one_term, _random_uniform_transformation

# The bundled 1 bit/cycle Grain-80 configuration's script: one move per
# destination below the top, terms in source coordinates.
GRAIN80_GALOIS1 = variants._SCRIPTS["grain80-galois-1"][1]


def fib4():
    return RegisterSpec("r", 4, {3: parse_expr("r[0] + r[1]*r[2]")})


def gal4():
    return RegisterSpec("r", 4, {2: parse_expr("r[3] + r[0]*r[1]")})


def wrapped():
    """``shift r 5 -> 3 : r[1]`` on r[5] = r[0] + r[1] + r[2]*r[3]: r[1] remaps to r[5], mod 6."""
    return RegisterSpec("r", 6, {5: parse_expr("r[0] + r[2]*r[3]"), 3: parse_expr("r[4] + r[5]")})


# ---------------------------------------------------------------- terminal bits


def test_terminal_bit_of_fibonacci_register():
    assert terminal_bit(fib4()) == 3
    assert terminal_bit(RegisterSpec("r", 9)) == 8


def test_terminal_bits_of_bundled_variants():
    assert terminal_bit(variant("grain80-galois-1").system.register("b")) == 63
    assert terminal_bit(variant("grain128-galois-8").system.register("b")) == 103
    assert terminal_bit(variant("grain128-galois-1").system.register("b")) == 95


def test_min_terminal_bit():
    g80 = variant("grain80-fib").system.register("b").feedback[79]
    g128 = variant("grain128-fib").system.register("b").feedback[127]
    f80 = variant("grain80-fib").system.register("s").feedback[79]
    assert min_terminal_bit(g80, "b") == 54
    assert min_terminal_bit(g128, "b") == 64
    assert min_terminal_bit(f80, "s") == 0


def test_required_terminal_bit():
    sys80 = variant("grain80-fib").system
    sys128 = variant("grain128-fib").system
    assert required_terminal_bit(sys80, "b") == 63
    assert required_terminal_bit(sys128, "b") == 95
    assert required_terminal_bit(sys80, "s") == 64


# ---------------------------------------------------------------- apply_shift


def test_apply_shift_to_bit_70():
    fib = variant("grain80-fib").system.register("b")
    move = ShiftMove("b", 79, 70, frozenset({parse_term("b[33]*b[28]*b[21]*b[15]*b[9]")}))
    out = apply_shift(fib, move)
    assert out.feedback[70] == parse_expr("b[71] + b[24]*b[19]*b[12]*b[6]*b[0]")
    assert parse_term("b[33]*b[28]*b[21]*b[15]*b[9]") not in out.feedback[79].terms


def test_apply_shift_grain128_to_bit_124():
    fib = variant("grain128-fib").system.register("b")
    out = apply_shift(fib, ShiftMove("b", 127, 124, frozenset({parse_term("b[3]*b[67]")})))
    assert out.feedback[124] == parse_expr("b[125] + b[0]*b[64]")


def test_apply_shift_in_place_is_identity():
    fib = fib4()
    move = ShiftMove("r", 3, 3, frozenset({parse_term("r[1]*r[2]")}))
    assert apply_shift(fib, move) == fib


def test_apply_shift_missing_term():
    with pytest.raises(MissingTermError):
        apply_shift(fib4(), ShiftMove("r", 3, 2, frozenset({parse_term("r[1]*r[3]")})))


def test_apply_shift_foreign_term():
    fib = variant("grain80-fib").system.register("b")
    with pytest.raises(ForeignVariableError):
        apply_shift(fib, ShiftMove("b", 79, 70, frozenset({parse_term("s[0]")})))


# ---------------------------------------------------------------- uniformity


def test_all_bundled_variants_are_uniform_at_declared_terminal():
    for name in GALOIS_VARIANTS + ("grain80-fib", "grain128-fib"):
        v = variant(name)
        for reg in v.system.registers:
            report = check_uniform(reg, terminal=v.terminals[reg.id])
            assert report.uniform, (name, reg.id, report.violations)


def test_index_above_terminal_violation():
    gal = variant("grain80-galois-1").system.register("b")
    feedback = dict(gal.feedback)
    feedback[70] = parse_expr("b[71] + b[64] + b[24]*b[19]*b[12]*b[6]*b[0]")
    report = check_uniform(RegisterSpec("b", 80, feedback), terminal=63)
    assert not report.uniform
    assert any(v.bit == 70 and v.reason == "index-above-terminal" for v in report.violations)


def test_non_singular_and_successor_violations():
    missing_shift = RegisterSpec("r", 4, {3: parse_expr("r[1] + r[2]")})
    report = check_uniform(missing_shift)
    assert report.violations[0].reason == "non-singular"
    uses_successor = RegisterSpec("r", 4, {2: parse_expr("r[3] + r[3]*r[0]")})
    report = check_uniform(uses_successor)
    assert report.violations[0].reason == "depends-on-successor"


def test_pure_fibonacci_is_uniform():
    report = check_uniform(variant("grain80-fib").system.register("b"))
    assert report.uniform and report.terminal == 79


def test_declared_terminal_cannot_exceed_structural():
    with pytest.raises(ValueError):
        check_uniform(variant("grain80-galois-4").system.register("b"), terminal=70)
    with pytest.raises(ValueError, match="negative"):
        check_uniform(variant("grain80-galois-4").system.register("b"), terminal=-3)


# ---------------------------------------------------------------- check_script


def test_script_reconstructs_grain80_galois_1():
    script = parse_shift_script(GRAIN80_GALOIS1)
    assert len(script) == 16
    fib = variant("grain80-fib").system.register("b")
    result = check_script(fib, script, system=variant("grain80-fib").system)
    assert result.ok, result.reason
    assert result.spec == variant("grain80-galois-1").system.register("b")
    assert result.warnings == ()
    assert len(result.spec.explicit_bits()) == 17  # 16 destinations plus the top


def test_empty_script_returns_start():
    fib = fib4()
    result = check_script(fib, ())
    assert result.ok and result.spec == fib


def test_script_rejects_upward_move():
    fib = fib4()
    result = check_script(fib, (ShiftMove("r", 3, 3, frozenset({parse_term("r[1]*r[2]")})),))
    assert not result.ok and result.failed_move == 0


def test_script_reports_uniformity_breaking_move():
    fib = variant("grain80-fib").system.register("b")
    # landing at 60 drops the terminal below b[63], which the top still taps
    bad = ShiftMove("b", 79, 60, frozenset({parse_term("b[15]*b[9]")}))
    result = check_script(fib, (bad,))
    assert not result.ok and result.failed_move == 0
    assert "uniformity" in result.reason


def test_script_warning_below_required_terminal():
    system = variant("grain80-fib").system
    fib = system.register("b")
    # rebuild the 1 bit/cycle form, then push the bit-63 logic down to 58:
    # legal by uniformity, but below the terminal the outputs need
    extra = "shift b 63 -> 58 : b[47]*b[44]*b[36]*b[29]*b[21]\n"
    script = parse_shift_script(GRAIN80_GALOIS1 + extra)
    result = check_script(fib, script, system=system)
    assert result.ok
    assert any("required terminal" in w for w in result.warnings)
    assert terminal_bit(result.spec) == 58


def test_script_round_trip_text():
    script = parse_shift_script(GRAIN80_GALOIS1)
    assert parse_shift_script(format_shift_script(script)) == script


def test_script_parse_error():
    for text, message in (
        ("shift b 79 - 70 : b[1]", "line 1: expected 'shift"),
        ("shift b 79 -> 75 : b[45]*", "line 1: bad factor '' at offset 6"),
        ("# moves\nshift b 79 -> 78 : b[45]\nshift b 79 -> 77 : b[52\n", "line 3: "),
    ):
        with pytest.raises(ValueError) as exc:
            parse_shift_script(text)
        assert str(exc.value).startswith(message)


# ------------------------------------------------------- positions and degrees


def test_allowed_feedback_positions_tables():
    assert allowed_feedback_positions(80, 63, 4) == (79, 75, 71, 67)
    assert allowed_feedback_positions(80, 63, 8) == (79, 71)
    assert allowed_feedback_positions(80, 63, 16) == (79,)
    assert allowed_feedback_positions(128, 95, 4) == (127, 123, 119, 115, 111, 107, 103, 99)
    assert allowed_feedback_positions(128, 95, 8) == (127, 119, 111, 103)
    assert allowed_feedback_positions(128, 95, 16) == (127, 111)
    assert allowed_feedback_positions(128, 95, 32) == (127,)


def test_allowed_feedback_positions_properties():
    for n, t, k in ((80, 63, 1), (80, 79, 1), (128, 95, 5), (40, 10, 3)):
        positions = allowed_feedback_positions(n, t, k)
        assert positions[0] == n - 1
        assert all(a - b == k for a, b in zip(positions, positions[1:]))
    with pytest.raises(ValueError):
        allowed_feedback_positions(80, 80, 1)
    with pytest.raises(ValueError):
        allowed_feedback_positions(80, 63, 0)


def test_max_hw_parallel_degree():
    assert max_hw_parallel_degree(variant("grain80-fib").system) == 16
    assert max_hw_parallel_degree(variant("grain128-fib").system) == 32
    assert max_hw_parallel_degree(variant("grain80-galois-1").system) == 1
    assert max_hw_parallel_degree(variant("grain80-galois-4").system) == 4
    assert max_hw_parallel_degree(variant("grain80-galois-8").system) == 8
    top_tap = SystemSpec([RegisterSpec("r", 8, {7: parse_expr("r[0] + r[7]*r[1]")})])
    assert max_hw_parallel_degree(top_tap) == 1


# ---------------------------------------------------------------- distribution


def test_auto_distribute_grain80_nlfsr():
    fib = variant("grain80-fib").system.register("b")
    dist = auto_distribute(fib, terminal=63, k=1)
    assert check_uniform(dist.spec, terminal=63).uniform
    assert collapse_to_fibonacci(dist.spec) == fib
    replay = check_script(fib, dist.script)
    assert replay.ok and replay.spec == dist.spec


def test_auto_distribute_lfsr_spreads_linear_terms():
    fib = variant("grain80-fib").system.register("s")
    dist = auto_distribute(fib, terminal=64, k=1)
    assert check_uniform(dist.spec, terminal=64).uniform
    assert collapse_to_fibonacci(dist.spec) == fib
    # five movable terms over fifteen slots: each lands on its own bit,
    # so no feedback function holds more than two terms
    assert len({m.dest for m in dist.script}) == len(dist.script)
    for bit in dist.spec.explicit_bits():
        expr = dist.spec.feedback[bit]
        assert len(expr.terms) <= 2
        shift = Term.of("s", (bit + 1) % 80)
        assert len(expr.terms - {shift}) == 1


def test_auto_distribute_identity_when_only_top_position():
    fib = variant("grain80-fib").system.register("b")
    dist = auto_distribute(fib, terminal=63, k=16)
    assert dist.script == ()
    assert dist.spec == fib


def test_auto_distribute_reports_stranded_terms():
    # No position fits a stranded term, so the terminal rises to its
    # highest index, where the top bit fits it, and every term is placed
    # again: r[6]*r[3] fits none of 11, 9, 7, 5 at terminal 3.
    spec = RegisterSpec("r", 12, {11: parse_expr("r[0] + r[6]*r[3] + r[5]")})
    dist = auto_distribute(spec, terminal=3, k=2)
    assert dist == auto_distribute(spec, terminal=6, k=2)
    assert dist.script == (ShiftMove("r", 11, 9, frozenset({parse_term("r[5]")})),)
    assert check_uniform(dist.spec).uniform
    assert check_script(spec, dist.script).ok
    # at k = 4 the raised terminal leaves the top bit only
    narrow = RegisterSpec("r", 8, {7: parse_expr("r[0] + r[6]*r[4]")})
    assert auto_distribute(narrow, terminal=3, k=4).spec == narrow


def test_auto_distribute_raises_the_terminal_for_terms_that_stay():
    # r[6]*q[0] never moves, so r[4] may not go below bit 6 (to bit 5 or
    # lower, as terminal 2 alone allows)
    spec = RegisterSpec("r", 8, {7: parse_expr("r[0] + r[6]*q[0] + r[4]")})
    dist = auto_distribute(spec, terminal=2, k=1)
    assert dist == auto_distribute(spec, terminal=6, k=1)
    assert dist.script == ()
    assert check_uniform(dist.spec).uniform


def test_auto_distribute_rejects_too_low_terminal():
    fib = variant("grain80-fib").system.register("b")
    with pytest.raises(ValueError):
        auto_distribute(fib, terminal=40, k=1)


def test_auto_distribute_weighs_foreign_terms_and_breaks_ties_upward():
    # q[0] stays on the top bit and weighs it, so r[2] goes one bit down
    spec = RegisterSpec("r", 8, {7: parse_expr("r[0] + q[0] + r[2]")})
    assert auto_distribute(spec, 3, 1).script == (
        ShiftMove("r", 7, 6, frozenset({parse_term("r[2]")})),
    )
    # r[3] takes the top bit and r[4] bit 6; r[5] finds both loaded alike
    # and goes to the higher one
    spec = RegisterSpec("r", 8, {7: parse_expr("r[0] + r[3] + r[4] + r[5]")})
    assert auto_distribute(spec, 5, 1).script == (
        ShiftMove("r", 7, 6, frozenset({parse_term("r[4]")})),
    )


def test_auto_distribute_memory_does_not_grow_with_register_length():
    n = 10**6
    spec = RegisterSpec("r", n, {n - 1: parse_expr("r[0] + r[5]*r[7] + r[3]")})
    terminal = min_terminal_bit(spec.expr(n - 1), "r")
    tracemalloc.start()
    try:
        dist = auto_distribute(spec, terminal, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert [(m.dest, m.terms) for m in dist.script] == [
        (n - 2, {parse_term("r[3]")}),
        (n - 6, {parse_term("r[5]*r[7]")}),
    ]


# ------------------------------------------------------------------- collapse


@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_collapse_reconstructs_fibonacci(name):
    v = variant(name)
    fib = v.fib_variant()
    for reg in v.system.registers:
        assert collapse_to_fibonacci(reg) == fib.system.register(reg.id)


def test_collapse_of_fibonacci_is_identity():
    fib = variant("grain128-fib").system.register("b")
    assert collapse_to_fibonacci(fib) == fib
    ring = RegisterSpec("r", 5)
    assert collapse_to_fibonacci(ring) == ring


def test_collapse_detects_as_printed_duplicate():
    bad = variant("grain128-galois-1", "as-printed").system.register("b")
    want = variant("grain128-fib").system.register("b")
    got = collapse_to_fibonacci(bad)
    assert got != want
    assert got.feedback[127].terms ^ want.feedback[127].terms == {
        parse_term("b[3]*b[67]")
    }


def _collapse_by_moves(spec):
    """Reference collapse: ``apply_shift`` moves every lower bit's terms to the top.

    The shift term stays behind, and so does the constant, which
    ``apply_shift`` never moves; the constants are XORed into the top apart.
    """
    top = spec.length - 1
    current, const = spec, spec.expr(top).const
    for bit in spec.explicit_bits():
        if bit != top:
            terms = spec.expr(bit).terms - {Term.of(spec.id, bit + 1)}
            current = apply_shift(current, ShiftMove(spec.id, bit, top, terms))
            const ^= spec.expr(bit).const
    for bit in current.explicit_bits():
        assert bit == top or current.expr(bit).terms == {Term.of(spec.id, bit + 1)}
    return RegisterSpec(spec.id, spec.length, {top: Anf(current.expr(top).terms, const)})


def _collapse_cases():
    for name in ALL_VARIANTS:
        for flavour in ("official", "as-printed"):
            yield from variant(name, flavour).system.registers
    yield RegisterSpec("r", 6, {  # constants at three bits, one of them the top
        5: parse_expr("r[0] + r[2] + 1"),
        3: parse_expr("r[4] + r[0]*r[1] + 1"),
        2: parse_expr("r[3] + r[0] + 1"),
    })
    yield wrapped()  # the lift wraps mod n, as apply_shift's remap does
    yield RegisterSpec("r", 6, {  # r[5] of bit 3 wraps to r[0] at bit 4, and cancels there
        5: parse_expr("r[0] + r[2]*r[3]"),
        4: parse_expr("r[5] + r[0]"),
        3: parse_expr("r[4] + r[5]"),
    })
    rng = random.Random(0x5EED)  # the registers of acceptance criterion 5
    for _ in range(100):
        yield _random_uniform_transformation(rng)[1]


def test_collapse_matches_moving_every_tail_to_the_top():
    cases = 0
    for spec in _collapse_cases():
        got = collapse_to_fibonacci(spec)
        assert got == _collapse_by_moves(spec), spec
        # the diagnostics read the same lift: a term that some tail lifts to
        # the top, or that the collapse holds, is in the collapse exactly
        # when an odd number of bits lift it
        top, shift = spec.length - 1, Term.of(spec.id, 0)
        lifted = set(spec.tail(top).terms).union(*(
            remap_indices(spec.tail(bit).terms, spec.id, top - bit, spec.length)
            for bit in spec.explicit_bits() if bit != top
        ))
        for term in (lifted | got.expr(top).terms) - {shift}:
            odd = len(transform.unshift_sources(spec, term)) % 2
            assert odd == (term in got.expr(top).terms), (spec, term)
        cases += 1
    assert cases == 36 + 3 + 100


# ---------------------------------------------------------- state mapping


def _map_register(fib, gal, bits):
    """``map_system_state`` on one-register systems, as a bit tuple."""
    fib_sys, gal_sys = SystemSpec([fib]), SystemSpec([gal])
    state = SystemState.from_bits(fib_sys, {fib.id: bits})
    return map_system_state(fib_sys, gal_sys, state).bits(gal.id)


def test_map_initial_state_identity_without_shifts():
    fib = fib4()
    assert _map_register(fib, fib, (1, 0, 1, 1)) == (1, 0, 1, 1)


def test_map_initial_state_four_bit_formula():
    for a in range(16):
        bits = tuple((a >> i) & 1 for i in range(4))
        mapped = _map_register(fib4(), gal4(), bits)
        assert mapped[:3] == bits[:3]
        assert mapped[3] == bits[3] ^ (bits[0] & bits[1])


def test_map_initial_state_four_bit_outputs_agree_forever():
    fib_sys = SystemSpec([fib4()])
    gal_sys = SystemSpec([gal4()])
    for a in range(16):
        bits = tuple((a >> i) & 1 for i in range(4))
        mapped = _map_register(fib4(), gal4(), bits)
        tf, _ = run(fib_sys, SystemState.from_bits(fib_sys, {"r": bits}), 64, watch=(("r", 0),))
        tg, _ = run(gal_sys, SystemState.from_bits(gal_sys, {"r": mapped}), 64, watch=(("r", 0),))
        assert tf[("r", 0)] == tg[("r", 0)]


def test_map_initial_state_is_identity_below_terminal(rng):
    v = variant("grain80-galois-1")
    fib = v.fib_variant()
    state = SystemState.from_bits(fib.system, {"b": rand_bits(rng, 80), "s": rand_bits(rng, 80)})
    mapped = map_system_state(fib.system, v.system, state)
    assert mapped.bits("b")[:64] == state.bits("b")[:64]
    assert mapped.bits("s") == state.bits("s")


def test_map_initial_state_validations():
    fib_sys = SystemSpec([fib4()])
    zeros = SystemState.zeros(fib_sys)
    with pytest.raises(ValueError, match="different registers"):
        map_system_state(fib_sys, SystemSpec([RegisterSpec("r", 5)]), zeros)
    wider = SystemSpec([fib4(), RegisterSpec("q", 2)])
    with pytest.raises(ValueError, match="conform"):
        map_system_state(fib_sys, SystemSpec([gal4()]), SystemState.zeros(wider))
    other = RegisterSpec("r", 4, {2: parse_expr("r[3] + r[0]")})
    with pytest.raises(ValueError, match="register 'r' does not collapse"):
        map_system_state(fib_sys, SystemSpec([other]), zeros)
    non_uniform = RegisterSpec("r", 4, {2: parse_expr("r[0]*r[1]")})
    with pytest.raises(ValueError, match="uniform"):
        map_system_state(fib_sys, SystemSpec([non_uniform]), zeros)
    # only the top bit may read another register
    foreign = RegisterSpec("r", 4, {2: parse_expr("r[3] + q[0]")})
    with pytest.raises(ForeignVariableError):
        map_system_state(wider, SystemSpec([foreign, RegisterSpec("q", 2)]), SystemState.zeros(wider))


@pytest.mark.parametrize("name", ALL_VARIANTS)
def test_map_system_state_keeps_fibonacci_form_registers(name, rng):
    v = variant(name)
    fib = v.fib_variant()
    for _ in range(5):
        bits = {r.id: rand_bits(rng, r.length) for r in fib.system.registers}
        state = SystemState.from_bits(fib.system, bits, cycle=7)
        mapped = map_system_state(fib.system, v.system, state)
        assert mapped.cycle == 7
        for reg in v.system.registers:
            if reg == fib.system.register(reg.id):
                assert mapped.bits(reg.id) == state.bits(reg.id)


def test_uniformity_bounds_the_terminal_bit_too():
    # the wrapped register collapses back to its source, yet it is not
    # equivalent: the index bound alone refuses it
    source = RegisterSpec("r", 6, {5: parse_expr("r[0] + r[1] + r[2]*r[3]")})
    assert collapse_to_fibonacci(wrapped()) == source
    assert not check_equivalence_exhaustive(source, wrapped()).equal
    report = check_uniform(wrapped())
    assert not report.uniform
    assert report.violations == (Violation(3, "index-above-terminal", "r[5] exceeds terminal 3"),)


def _toy_tapping_pair():
    """Galois ``s`` has terminal bit 7, so its s[8] no longer replays the Fibonacci s[8].

    Fibonacci ``b`` taps s[8], and so does the Galois ``b``.
    """
    b = RegisterSpec("b", 8, {7: parse_expr("b[0] + s[8] + b[2]*b[5]")})
    fib_s = RegisterSpec("s", 10, {9: parse_expr("s[0] + s[3] + s[2]*s[6]")})
    gal_s = RegisterSpec("s", 10, {9: parse_expr("s[0] + s[3]"), 7: parse_expr("s[8] + s[0]*s[4]")})
    z = [OutputSpec("Z", parse_expr("b[0] + s[0]"))]
    return SystemSpec([b, fib_s], z), SystemSpec([b, gal_s], z)


def _refusals(fib_sys, gal_sys):
    """What ``map_system_state`` and ``check_equivalence_mapped`` raise on a pair."""
    refused = []
    for call in (
        lambda: map_system_state(fib_sys, gal_sys, SystemState.zeros(fib_sys)),
        lambda: check_equivalence_mapped(fib_sys, gal_sys, trials=10, cycles=10, seed=1),
    ):
        with pytest.raises(ValueError) as info:
            call()
        refused.append((type(info.value), str(info.value)))
    return refused


def test_state_mapping_and_mapped_check_share_one_pair_rule():
    wider = SystemSpec([fib4(), RegisterSpec("q", 2)])
    cases = [
        (_toy_tapping_pair(), "feedback of 'b' taps s[8] above that register's terminal bit 7; "
                              "sequences there are not preserved"),
        ((SystemSpec([fib4()]), SystemSpec([RegisterSpec("r", 5)])),
         "systems declare different registers"),
        ((SystemSpec([fib4()]), SystemSpec([RegisterSpec("r", 4, {2: parse_expr("r[0]*r[1]")})])),
         "target register is not uniform: bit 2 non-singular"),
        ((wider, SystemSpec([RegisterSpec("r", 4, {2: parse_expr("r[3] + q[0]")}),
                             RegisterSpec("q", 2)])),
         "bit 2 mixes in q[0]; only the top bit may use other registers"),
    ]
    for pair, message in cases:
        refused = _refusals(*pair)
        assert refused[0] == refused[1], refused
        assert refused[0][1] == message


def _with_z(system: SystemSpec, terms=(), injections=None) -> SystemSpec:
    """``system`` with ``terms`` XORed into its ``Z`` output, and other injections if given."""
    outputs = [
        OutputSpec(o.name, xor_merge(o.expr, set(terms)), o.refs) if o.name == "Z" else o
        for o in system.outputs
    ]
    injections = system.injections if injections is None else injections
    return SystemSpec(system.registers, outputs, injections, system.params)


def test_pair_rule_covers_outputs_and_injections(rng):
    v = variant("grain80-galois-1")
    fib, gal = v.fib_variant().system, v.system
    b70 = [Term.of("b", 70)]  # above the Galois b's terminal bit 63
    fib70, gal70 = _with_z(fib, b70), _with_z(gal, b70)
    moved = tuple(
        Injection("init", "b", 78, "Z") if inj.register == "b" else inj for inj in gal.injections
    )
    cases = [
        ((fib, gal70), "output 'Z' differs from the source system's"),
        ((fib, _with_z(gal, [Term.of("b", 56)])), "output 'Z' differs from the source system's"),
        ((fib, _with_z(gal, injections=moved)), "systems declare different injections"),
        ((fib70, gal70),
         "output 'Z' taps b[70] above that register's terminal bit 63; "
         "sequences there are not preserved"),
        ((_with_z(fib, injections=moved), _with_z(gal, injections=moved)),
         "injection of 'Z' into b[78] misses that register's top bit 79"),
    ]
    for pair, message in cases:
        assert _refusals(*pair) == [(ValueError, message)] * 2
    # the tap rule refuses a pair whose keystreams differ although the
    # registers replay each other: b[70] is not a Fibonacci bit on the Galois side
    state = SystemState.from_bits(fib, {r.id: rand_bits(rng, r.length) for r in fib.registers})
    mapped = map_system_state(fib, gal, state)
    assert run(fib, state, 200, watch=["Z"])[0] == run(gal, mapped, 200, watch=["Z"])[0]
    assert run(fib70, state, 200, watch=["Z"])[0] != run(gal70, mapped, 200, watch=["Z"])[0]


@pytest.mark.parametrize("flavour", ["official", "as-printed"])
@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_pair_rule_accepts_every_bundled_variant(name, flavour):
    v = variant(name, flavour)
    fib = v.fib_variant().system
    plans = transform._state_mapper(fib, v.system)
    collapsed = {
        reg.id: transform._collapse(reg, plans[reg.id]) == fib.register(reg.id)
        for reg in v.system.registers
    }
    # as printed, grain128-galois-1 carries b[3]*b[67] twice and does not collapse
    assert all(collapsed.values()) == ((name, flavour) != ("grain128-galois-1", "as-printed"))


def test_map_system_state_plans_each_register_once_per_call(monkeypatch):
    planned = []
    real = transform._tail_plan
    monkeypatch.setattr(transform, "_tail_plan", lambda spec: planned.append(spec.id) or real(spec))
    v = variant("grain128-galois-4")
    fib = v.fib_variant()
    for calls in (1, 2):
        map_system_state(fib.system, v.system, SystemState.zeros(fib.system))
        assert sorted(planned) == ["b"] * calls + ["s"] * calls  # nothing is kept between calls


def test_only_map_system_state_builds_collapses(monkeypatch):
    built = []
    real = transform._collapse
    monkeypatch.setattr(
        transform, "_collapse", lambda spec, plan: built.append(spec.id) or real(spec, plan)
    )
    v = variant("grain80-galois-4")
    fib = v.fib_variant().system
    assert check_equivalence_mapped(fib, v.system, 2, 50, 1).equal
    assert built == []
    map_system_state(fib, v.system, SystemState.zeros(fib))
    assert sorted(built) == ["b", "s"]


def test_map_system_state_refuses_as_printed_collapse():
    v = variant("grain128-galois-1", "as-printed")
    fib = v.fib_variant()
    with pytest.raises(ValueError, match="does not collapse"):
        map_system_state(fib.system, v.system, SystemState.zeros(fib.system))


@pytest.mark.parametrize("flavour", ["official", "as-printed"])
@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_prepared_state_formula_matches_interpreted_tails(name, flavour, rng):
    """The prepared formula equals evaluating each lagged tail with ``evaluate``."""
    v = variant(name, flavour)
    system = v.system
    plans = transform._state_mapper(v.fib_variant().system, system)
    for _ in range(3):
        for galois in system.registers:
            n, t = galois.length, terminal_bit(galois)
            bits = rand_bits(rng, n)
            mapped = list(bits)
            for i in range(t + 1, n):
                for j in galois.explicit_bits():
                    if t <= j < i:
                        g, lag = galois.tail(j), i - 1 - j
                        mapped[i] ^= evaluate(g, {v: bits[v.idx + lag] for v in g.support()})
            word = sum(b << i for i, b in enumerate(bits))
            word = transform._map_word(word, n, plans[galois.id])
            assert [word >> i & 1 for i in range(n)] == mapped


# ---------------------------------------------------------- equivalence checks


def _checked_lengths(n: int, horizon: int) -> list[int]:
    """Prefix lengths that refinement classes, in order: the seeded walk's, then each round's."""
    rest = _refined_digits(n, horizon)
    lengths = [horizon >> len(rest)]
    for bit in rest:
        lengths.append(2 * lengths[-1])
        if bit == "1":
            lengths.append(lengths[-1] + 1)
    return lengths


def _assert_witness(ce, n: int, horizon: int, px: list, py: list) -> None:
    """Check an unequal verdict's witness against brute-force prefixes of both sides.

    ``px`` and ``py`` hold every state's first min(horizon, 2**(n+2)) output
    bits or more.  The witness length is the first checked length at which
    the two sides' multisets of prefixes cut there differ.  Longer prefixes
    refine shorter ones, so that length is at most the one where refinement
    over the 2**(n+1) states of both sides is stable, below 2**(n+1) bits
    (Moore), and the cut prefixes hold it.  The witness state is the first
    state, side a before side b, whose cut prefix occurs a different number
    of times on the two sides, and it lies on side a; the witness prefix is
    that cut prefix.
    """
    longest = min(horizon, 4 << n)
    px, py = [p[:longest] for p in px], [p[:longest] for p in py]
    assert {len(p) for p in px + py} == {longest}
    for length in _checked_lengths(n, horizon):
        cut = [p[:length] for p in px], [p[:length] for p in py]  # p[:m] is p past longest
        cx, cy = Counter(cut[0]), Counter(cut[1])
        if cx != cy:
            break
    else:
        raise AssertionError("the multisets of prefixes agree at every checked length")
    assert length <= longest
    side, state, prefix = next(
        (side, state, p)
        for side, prefixes in zip("ab", cut)
        for state, p in enumerate(prefixes)
        if cx[p] != cy[p]
    )
    assert side == "a"
    assert (ce.state, ce.prefix) == (state, prefix)


def test_exhaustive_four_bit_pair_is_equal():
    verdict = check_equivalence_exhaustive(fib4(), gal4())
    assert verdict.equal and verdict.states == 16 and verdict.horizon == 16


def test_exhaustive_detects_inequivalence():
    ring = RegisterSpec("r", 4, {3: parse_expr("r[0]")})
    verdict = check_equivalence_exhaustive(fib4(), ring)
    assert not verdict.equal and verdict.horizon == 16
    _assert_witness(verdict.counterexample, 4, 16, _walked_prefixes(fib4(), 16),
                    _walked_prefixes(ring, 16))


def test_exhaustive_self_equality():
    verdict = check_equivalence_exhaustive(fib4(), fib4(), horizon=8)
    assert verdict.equal and verdict.horizon == 8


def test_exhaustive_validations():
    with pytest.raises(ValueError, match="lengths"):
        check_equivalence_exhaustive(fib4(), RegisterSpec("r", 5))
    with pytest.raises(ValueError, match="too large"):
        check_equivalence_exhaustive(RegisterSpec("r", 21), RegisterSpec("r", 21))
    with pytest.raises(ForeignVariableError):
        check_equivalence_exhaustive(
            RegisterSpec("r", 4, {3: parse_expr("q[0]")}), fib4()
        )


def test_exhaustive_bit_limit_alone_gates_the_check():
    import time

    wide = RegisterSpec("r", 21, {20: parse_expr("r[0] + r[3]*r[9]")})
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        check_equivalence_exhaustive(wide, wide)
    for horizon in (0, -1):
        with pytest.raises(ValueError, match="horizon must be positive"):
            check_equivalence_exhaustive(fib4(), fib4(), horizon)
    assert time.perf_counter() - start < 0.5
    # the horizon no longer sizes the work or the witness
    ring = RegisterSpec("r", 4, {3: parse_expr("r[0]")})
    walked = _walked_prefixes(fib4(), 64), _walked_prefixes(ring, 64)
    for horizon in ((1 << 28) + 1, 1 << 64):
        start = time.perf_counter()
        assert check_equivalence_exhaustive(fib4(), gal4(), horizon).equal
        verdict = check_equivalence_exhaustive(fib4(), ring, horizon)
        assert time.perf_counter() - start < 0.5
        assert not verdict.equal and verdict.horizon == horizon
        _assert_witness(verdict.counterexample, 4, horizon, *walked)


def test_mapped_equivalence_grain80(rng):
    fib = variant("grain80-fib").system
    gal = variant("grain80-galois-1").system
    verdict = check_equivalence_mapped(fib, gal, trials=10, cycles=300, seed=11)
    assert verdict.equal


def test_mapped_equivalence_detects_corruption():
    fib = variant("grain80-fib").system
    gal = variant("grain80-galois-1").system
    breg = gal.register("b")
    feedback = dict(breg.feedback)
    feedback[69] = parse_expr("b[70] + b[53]*b[49]")  # was b[53]*b[50]
    bad = gal.replace_register(RegisterSpec("b", 80, feedback))
    verdict = check_equivalence_mapped(fib, bad, trials=3, cycles=200, seed=11)
    assert not verdict.equal
    assert verdict.counterexample.register == "b"


def test_mapped_equivalence_zero_trials_vacuous():
    fib = variant("grain80-fib").system
    gal = variant("grain80-galois-1").system
    assert check_equivalence_mapped(fib, gal, trials=0, cycles=100, seed=1).equal


def test_mapped_equivalence_zero_trials_still_prepares_the_pair():
    non_uniform = SystemSpec([RegisterSpec("r", 4, {2: parse_expr("r[0]*r[1]")})])
    with pytest.raises(ValueError, match="target register is not uniform: bit 2 non-singular"):
        check_equivalence_mapped(SystemSpec([fib4()]), non_uniform, trials=0, cycles=100, seed=1)


def test_mapped_equivalence_refuses_negative_counts():
    fib = variant("grain80-fib").system
    gal = variant("grain80-galois-1").system
    with pytest.raises(ValueError, match="trials"):
        check_equivalence_mapped(fib, gal, trials=-1, cycles=500, seed=1)
    with pytest.raises(ValueError, match="cycles"):
        check_equivalence_mapped(fib, gal, trials=20, cycles=-5, seed=1)


def test_mapped_equivalence_prepares_each_register_once(monkeypatch):
    """The uniformity check and the mapping formula are built once per check, not per trial."""
    calls = []
    real = transform.check_uniform
    monkeypatch.setattr(transform, "check_uniform", lambda spec: calls.append(spec.id) or real(spec))
    fib = variant("grain80-fib").system
    gal = variant("grain80-galois-1").system
    assert check_equivalence_mapped(fib, gal, trials=20, cycles=40, seed=3).equal
    assert sorted(calls) == ["b", "s"]


@pytest.mark.parametrize("seed, cycle", [(1, 34), (7, 34)])
def test_mapped_divergence_point_as_printed_grain128(seed, cycle):
    v = variant("grain128-galois-1", "as-printed")
    verdict = check_equivalence_mapped(
        v.fib_variant().system, v.system, trials=100, cycles=1000, seed=seed
    )
    assert not verdict.equal
    assert verdict.counterexample == DivergencePoint(
        trial=0, register="b", cycle=cycle, bit=95
    )


# ----------------------------------------------------- randomized small cases


def _random_uniform_case(rng: random.Random):
    """A random Fibonacci register plus an accepted downward script."""
    while True:
        n = rng.randint(5, 12)
        nterms = rng.randint(1, 4)
        terms = set()
        while len(terms) < nterms:
            degree = rng.choice((1, 1, 2, 2, 3))
            idxs = rng.sample(range(1, n - 1), min(degree, n - 2))
            terms.add(Term.of("r", *idxs))
        top = Anf(frozenset(terms | {Term.of("r", 0)}))
        fib = RegisterSpec("r", n, {n - 1: top})
        lo_terminal = min_terminal_bit(top, "r")
        if lo_terminal > n - 2:
            continue
        terminal = rng.randint(lo_terminal, n - 2)
        positions = allowed_feedback_positions(n, terminal, 1)
        for _ in range(50):
            moves = []
            for term in sorted(terms, key=lambda t: str(t)):
                idxs = [v.idx for v in term.vars]
                lo, hi = min(idxs), max(idxs)
                feasible = [
                    p
                    for p in positions
                    if p != n - 1 and (n - 1 - p) <= lo and hi - (n - 1 - p) <= terminal
                ]
                if hi <= terminal and (not feasible or rng.random() < 0.25):
                    continue
                if not feasible:
                    break
                moves.append(ShiftMove("r", n - 1, rng.choice(feasible), frozenset({term})))
            else:
                moves.sort(key=lambda m: -m.dest)
                result = check_script(fib, tuple(moves))
                if result.ok and moves:
                    return fib, result.spec, tuple(moves)


def test_randomized_scripts_preserve_output_sequences():
    rng = random.Random(2024)
    for _ in range(25):
        fib, gal, script = _random_uniform_case(rng)
        verdict = check_equivalence_exhaustive(fib, gal)
        assert verdict.equal, (fib, gal)
        # collapse round-trips exactly, after every prefix of the script
        assert collapse_to_fibonacci(gal) == fib
        current = fib
        for move in script:
            current = apply_shift(current, move)
            assert collapse_to_fibonacci(current) == fib


def test_step_table_agrees_with_engine(rng):
    # the exhaustive checker's transition table against the generic engine
    fib, gal, _ = _random_uniform_case(random.Random(77))
    for spec in (fib, gal):
        table = transform._walk(spec, 1)[1]
        sys_ = SystemSpec([spec])
        for _ in range(20):
            bits = rand_bits(rng, spec.length)
            word = sum(b << i for i, b in enumerate(bits))
            nxt = step(sys_, SystemState.from_bits(sys_, {"r": bits}))
            assert nxt.word("r") == table[word]


def _unit_step_table(spec: RegisterSpec) -> list[int]:
    """Reference: every state's successor from its own unit-step kernel call."""
    unit_step = SystemSpec([spec])._compiled.kernel(frozenset(), 1)
    return [unit_step((s,), 1, ())[0] for s in range(1 << spec.length)]


def _random_register(rng: random.Random, n: int) -> RegisterSpec:
    """Random tails and constants on random bits, bit 0 included; may have no feedback."""
    feedback = {}
    for bit in rng.sample(range(n), rng.randint(0, min(n, 3))):
        terms = {
            Term.of("r", *rng.sample(range(n), rng.randint(1, min(n, 3))))
            for _ in range(rng.randint(0, 4))
        }
        feedback[bit] = Anf(frozenset(terms), rng.randint(0, 1))
    return RegisterSpec("r", n, feedback)


def test_bitsliced_table_matches_unit_steps_state_by_state():
    rng = random.Random(0x7AB1E)
    specs = [_random_register(rng, n) for n in range(1, 13) for _ in range(12)]
    specs += [
        RegisterSpec("r", 5),
        RegisterSpec("r", 6, {0: parse_expr("r[1] + r[3]*r[5] + 1"), 5: parse_expr("r[0]")}),
        RegisterSpec("r", 16, {15: parse_expr("r[0] + r[2]*r[9] + r[7]"),
                               11: parse_expr("r[12] + r[1]*r[4]*r[10]")}),
    ]
    assert any(not s.feedback for s in specs) and any(0 in s.feedback for s in specs)
    assert any(e.const for s in specs for e in s.feedback.values())
    assert sum(len(s.feedback) > 1 for s in specs) > 20
    for spec in specs:
        assert transform._walk(spec, 1)[1] == _unit_step_table(spec), spec


def test_table_refuses_a_foreign_variable_by_name():
    spec = RegisterSpec("r", 4, {3: parse_expr("r[0] + q[1]*r[2]")})
    for cycles in (1, 7):
        with pytest.raises(ForeignVariableError) as info:
            transform._walk(spec, cycles)
        assert str(info.value) == "register 'r' is not autonomous: feedback uses q[1]"


def _public_step_table(spec: RegisterSpec) -> list[int]:
    """Reference: every state's successor from one public ``engine.step`` each."""
    system = SystemSpec([spec])
    return [
        step(system, SystemState.from_bits(system, {"r": [s >> i & 1 for i in range(spec.length)]}))
        .word("r")
        for s in range(1 << spec.length)
    ]


def test_walk_matches_public_unit_steps_state_by_state():
    rng = random.Random(0x3A1C)
    specs = [_random_register(rng, n) for n in range(1, 13) for _ in range(3)]
    specs.append(
        RegisterSpec("r", 6, {0: parse_expr("r[1] + r[3]*r[5] + 1"), 5: parse_expr("r[0]")})
    )
    assert any(not s.feedback for s in specs) and any(0 in s.feedback for s in specs)
    assert any(e.const for s in specs for e in s.feedback.values())
    assert sum(len(s.feedback) > 1 for s in specs) > 5
    for spec in specs:
        n = spec.length
        table = _public_step_table(spec)
        for cycles in sorted({1, 2, max(n - 1, 1), n, 2 * n - 1}):
            prefixes, successors = transform._walk(spec, cycles)
            for state in range(1 << n):
                prefix, s = 0, state
                for c in range(cycles):
                    prefix |= (s & 1) << c
                    s = table[s]
                assert (prefixes[state], successors[state]) == (prefix, s), (spec, cycles, state)


def test_unslice_matches_a_per_bit_transpose():
    rng = random.Random(0x5B1C)
    for count in (1, 7, 8, 9, 1000):
        for nwords in range(1, 65):
            words = [rng.getrandbits(count) for _ in range(nwords)]
            expected = [
                sum(((w >> t) & 1) << i for i, w in enumerate(words)) for t in range(count)
            ]
            assert transform._unslice(words, count).tolist() == expected, (count, nwords)


def _byte_plane_unslice(words: list[int], count: int) -> list[int]:
    """Oracle: the byte-plane transpose the blocked bit-matrix transpose replaced.

    Each word becomes one byte per instance (its binary digits, in
    reverse order through a big-endian read), eight words OR into one
    byte plane, and the byte planes interleave into fixed-width fields.
    """
    spread = [bytes.maketrans(b"01", bytes((0, 1 << i))) for i in range(8)]
    code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= len(words))
    width = array(code).itemsize
    fields = bytearray(width * count)
    for j in range(0, len(words), 8):
        plane = 0
        for i, word in enumerate(words[j : j + 8]):
            plane |= int.from_bytes(format(word, "b").encode().translate(spread[i]), "big")
        fields[j // 8 :: width] = plane.to_bytes(count, "little")
    table = array(code, fields)
    if sys.byteorder == "big":
        table.byteswap()
    return table.tolist()


def test_unslice_matches_the_byte_plane_transpose():
    # Every count from 2**3 to 2**20 states, the block edges and a partial
    # last block, each against every field width (1-8, 9-16, 17-32 and
    # 33-64 planes).  Up to 2**16 states every width's edges are tried;
    # past that one random plane count per count keeps the test quick,
    # cycling through the widths.
    rng = random.Random(0x7E5A)
    block = transform._BLOCK
    counts = sorted({1 << k for k in range(3, 21)} | {block, 2 * block, block + 8, 3 * block})
    widths = [(1, 8), (9, 16), (17, 32), (33, 64)]
    for i, count in enumerate(counts):
        if count <= 1 << 16:
            nplanes = [n for lo, hi in widths for n in (lo, rng.randint(lo, hi), hi)]
        else:
            nplanes = [rng.randint(*widths[i % 4])]
        for n in nplanes:
            words = [rng.getrandbits(count) for _ in range(n)]
            got = transform._unslice(words, count).tolist()
            assert got == _byte_plane_unslice(words, count), (count, n)


def test_identity_plane_holds_bit_i_of_every_state():
    for n in range(1, 17):
        ones = (1 << (1 << n)) - 1
        digits = [format(s, f"0{n}b") for s in reversed(range(1 << n))]  # bit i at -1 - i
        for i in range(n):
            expected = int("".join(d[-1 - i] for d in digits), 2)
            assert transform._identity_plane(n, i) & ones == expected, (n, i)


def test_walk_at_seventeen_bits_reads_64_bit_prefix_fields():
    # 33 output planes make _unslice use 64-bit fields, which smaller tests never reach
    rng = random.Random(0x1718)
    fixed = RegisterSpec("r", 17, {16: parse_expr("r[0] + r[3]*r[11] + r[7]"),
                                   9: parse_expr("r[10] + r[1]*r[5]*r[14] + 1")})
    for spec in (fixed, _random_register(rng, 17)):
        assert spec.feedback
        prefixes, successors = transform._walk(spec, 33)
        unit_step = SystemSpec([spec])._compiled.kernel(frozenset(), 1)
        for state in rng.sample(range(1 << 17), 100):
            prefix, s = 0, state
            for c in range(33):
                prefix |= (s & 1) << c
                (s,) = unit_step((s,), 1, ())
            assert (prefixes[state], successors[state]) == (prefix, s), (spec, state)


def _walked_prefixes(spec: RegisterSpec, horizon: int) -> list[tuple[int, ...]]:
    """Brute force: the first ``horizon`` output bits of every state, one walk each."""
    table = transform._walk(spec, 1)[1]
    prefixes = []
    for state in range(len(table)):
        prefix, s = [], state
        for _ in range(horizon):
            prefix.append(s & 1)
            s = table[s]
        prefixes.append(tuple(prefix))
    return prefixes


def test_exhaustive_refinement_matches_brute_force_prefix_counts():
    rng = random.Random(0xD1FF)
    pairs = []
    for _ in range(8):
        fib, gal = _random_uniform_transformation(rng, sizes=(4, 8))
        pairs += [(fib, gal), (fib, _mutate_one_term(rng, gal))]
    unequal = 0
    for a, b in pairs:
        n = a.length
        for horizon in (1, 2, 3, n, 2 * n, None):
            walked = {
                id(spec): _walked_prefixes(spec, horizon or 1 << n) for spec in (a, b)
            }
            for x, y in ((a, b), (b, a)):
                px, py = walked[id(x)], walked[id(y)]
                cx, cy = Counter(px), Counter(py)
                verdict = check_equivalence_exhaustive(x, y, horizon)
                assert verdict.equal == (cx == cy), (x, y, horizon)
                if verdict.equal:
                    continue
                unequal += 1
                _assert_witness(verdict.counterexample, n, horizon or 1 << n, px, py)
    assert unequal >= 20


def _refined_digits(n: int, horizon: int) -> str:
    """The horizon digits that refinement still covers after the seeded walk."""
    digits = bin(horizon)[2:]
    lead = next((i for i in range(1, len(digits)) if int(digits[:i], 2) >= n), len(digits))
    return digits[lead:]


def _register_from_table(n: int, table: list[int]) -> RegisterSpec:
    """The register whose successor of state s is ``table[s]``: one ANF per bit."""
    feedback = {}
    for j in range(n):
        coef = [t >> j & 1 for t in table]
        for i in range(n):  # Moebius transform: truth table to ANF coefficients
            for x in range(1 << n):
                if x >> i & 1:
                    coef[x] ^= coef[x ^ 1 << i]
        terms = frozenset(
            Term.of("r", *(i for i in range(n) if m >> i & 1)) for m in range(1, 1 << n) if coef[m]
        )
        feedback[j] = Anf(terms, coef[0])
    return RegisterSpec("r", n, feedback)


def _path_table(n: int, states: int) -> list[int]:
    """Even states 2 -> 4 -> ... (``states`` of them, output 0) lead to the odd
    fixed point 1; every other state is a fixed point."""
    end = 2 * states
    return [s + 2 if s % 2 == 0 and 2 <= s < end else 1 if s == end else s for s in range(1 << n)]


# Registers given by successor tables whose prefix multisets first differ
# at 11 (4 bits), 14 (5 bits), 71 (8 bits) and 201 (9 bits) output bits,
# with the horizons checked: the second table of a pair changes one
# successor of the first to another state with the same output bit.  The
# first two were found by a seeded random search over such table pairs;
# unlike criterion-5 pairs, their classes still split after 2n bits, so
# the lengths after the first decide the verdict and witness.  The last two
# are paths of 70 and 200 states whose start the second table makes a
# fixed point: their classes keep splitting up to the path's length, so
# horizons of 128 and above run numbered rounds past 64 bits, and at 9 bits
# two doubling rounds in a row (128 and 256 bits).
_LATE_TABLES = [
    (4, 11, [7, 11, 14, 4, 0, 15, 13, 5, 10, 2, 9, 9, 12, 7, 13, 3], {7: 1}, range(1, 64)),
    (5, 14, [3, 22, 7, 6, 9, 28, 2, 10, 5, 8, 15, 15, 5, 14, 13, 16,
             9, 16, 21, 12, 3, 0, 14, 4, 20, 17, 27, 24, 3, 6, 4, 28], {29: 22}, range(1, 64)),
    (8, 71, _path_table(8, 70), {2: 2}, {*range(63, 73), 126, 127, 128, 129, 140, 141, 256}),
    (9, 201, _path_table(9, 200), {2: 2}, {128, 200, 201, 255, 256, 257, 401, 512}),
]


def test_seeded_exhaustive_check_matches_brute_force_prefix_multisets():
    rng = random.Random(0xC0DE)
    cases = []
    for _ in range(10):
        fib, gal = _random_uniform_transformation(rng, sizes=(4, 10))
        n = fib.length
        power = 1 << (n - 1).bit_length()  # the first power of two at or above n
        horizons = {1, n - 1, n, 2 * n + 1, 3 * n}
        horizons |= {power + d for d in (-1, 0, 1)} | {2 * power + d for d in (-1, 0, 1)}
        cases += [(fib, gal, horizons, None), (fib, _mutate_one_term(rng, gal), horizons, None)]
    assert {4, 10} <= {a.length for a, _, _, _ in cases}
    for n, first, table, changes, horizons in _LATE_TABLES:
        other = [changes.get(s, t) for s, t in enumerate(table)]
        a, b = _register_from_table(n, table), _register_from_table(n, other)
        cases.append((a, b, horizons, first))
    for _ in range(12):  # arbitrary successor tables: many states share successors
        n = rng.randint(2, 5)
        table = [rng.randrange(1 << n) for _ in range(1 << n)]
        other = list(table)
        for _ in range(rng.randint(1, 2)):
            other[rng.randrange(1 << n)] = rng.randrange(1 << n)
        a, b = _register_from_table(n, table), _register_from_table(n, other)
        cases.append((a, b, range(1, 4 * n + 4), None))
    paths, unequal = Counter(), 0
    for a, b, horizons, first in cases:
        n = a.length
        longest = max(horizons)
        walked = {}
        for spec in (a, b):
            table = _unit_step_table(spec)
            walked[id(spec)] = prefixes = []
            for state in range(1 << n):
                prefix, s = [], state
                for _ in range(longest):
                    prefix.append(s & 1)
                    s = table[s]
                prefixes.append(tuple(prefix))
        for horizon in sorted(horizons):
            rest = _refined_digits(n, horizon)
            if horizon > 64:
                paths["numbered rounds past 64 bits"] += 1
            elif horizon < n:
                paths["seed only, below n"] += 1
            elif not rest:
                paths["seed only"] += 1
            else:
                paths["unit-step rounds" if "1" in rest else "doubling rounds only"] += 1
            for x, y in ((a, b), (b, a)):
                px = [p[:horizon] for p in walked[id(x)]]
                py = [p[:horizon] for p in walked[id(y)]]
                cx, cy = Counter(px), Counter(py)
                assert first is None or (cx == cy) == (horizon < first)
                verdict = check_equivalence_exhaustive(x, y, horizon)
                assert verdict.equal == (cx == cy), (x, y, horizon)
                if verdict.equal:
                    continue
                unequal += 1
                _assert_witness(verdict.counterexample, n, horizon, px, py)
    assert min(paths.values()) >= 10 and len(paths) == 5, paths
    assert unequal >= 50, unequal


def test_exhaustive_check_stops_where_the_sides_first_differ(monkeypatch):
    # A seeded 14-bit benchmark-style pair: a Galois register with one
    # variable of one term swapped.  Its classes keep splitting up to 256
    # bits, but its 16-bit prefix multisets already differ, so the verdict
    # comes from the comparison at 16 bits, the first checked length, and
    # no longer prefix is read.
    a = RegisterSpec("r", 14, {
        13: parse_expr("r[0] + r[4]*r[8]*r[11] + r[6]*r[9]*r[10] + r[8]*r[11]"),
    })
    b = RegisterSpec("r", 14, {
        12: parse_expr("r[13] + r[5]*r[8]*r[9]"),
        11: parse_expr("r[12] + r[2]*r[9]*r[13]"),
        10: parse_expr("r[11] + r[5]*r[8]"),
    })
    read = []
    real_unslice = transform._unslice
    monkeypatch.setattr(
        transform, "_unslice",
        lambda words, count: read.append(len(words)) or real_unslice(words, count),
    )
    verdict = check_equivalence_exhaustive(a, b)
    assert not verdict.equal and verdict.horizon == 1 << 14
    # both sides' 16-bit prefixes; the witness is read off its class, with no walk
    assert read == [16, 16]
    px, py = _walked_prefixes(a, 32), _walked_prefixes(b, 32)
    assert len(set(px + py)) > len({p[:16] for p in px + py})  # still splitting at 32 bits
    # the default horizon checks 16 bits, then 32, as horizon 32 does
    _assert_witness(verdict.counterexample, 14, 32, px, py)
    assert len(verdict.counterexample.prefix) == 16

    # Up to 64 bits the classes are the raw prefixes, unsliced from the
    # walk's output planes only: no successor table (n = 14 planes) is
    # unsliced, which numbered rounds past 64 bits would need first.  The
    # equal sibling, b against its own collapse, stops when 32 bits split
    # no class, and returns the classes of that length.
    fib = collapse_to_fibonacci(b)
    cases = ((a, b, False, 16, [16, 16]), (fib, b, True, 32, [16, 16, 32, 32]))
    for x, y, equal, final, lengths in cases:
        read.clear()
        cls, length, same, discrete = transform._prefix_classes(x, y, 1 << 14)
        assert (same, length, read) == (equal, final, lengths)
        packed = [sum(bit << c for c, bit in enumerate(p)) for p in
                  _walked_prefixes(x, final) + _walked_prefixes(y, final)]
        assert list(cls) == packed
        assert discrete == (len(set(packed[:1 << 14])) == 1 << 14)


def test_raw_classes_and_witnesses_are_the_walked_prefixes():
    # Seeded pairs of 3 to 14 bits, each equal pair and its sibling with
    # one variable swapped, in both orders.  Where the check decides at a
    # raw length (64 bits at most), the classes it returns are both sides'
    # packed prefixes of that length, and an unequal verdict's witness is
    # read off its state's class, whether or not side a's states are all
    # in different classes.  An equal verdict's last length split no class,
    # or was the horizon.
    rng = random.Random(0xA77A)
    seen = Counter()
    for n in range(3, 15):
        fib, gal = _random_uniform_transformation(rng, sizes=(n, n))
        bad = _mutate_one_term(rng, gal)
        checks = []
        for x, y in ((fib, gal), (gal, fib), (fib, bad), (bad, fib)):
            for horizon in sorted({1, n, 33, 65, 100, 1 << n}):
                checks.append((x, y, horizon, transform._prefix_classes(x, y, horizon),
                               check_equivalence_exhaustive(x, y, horizon)))
        longest = max(length for *_, (_, length, _, _), _ in checks)
        assert longest <= 64  # such pairs never reach a numbered round
        walked = {}
        for spec in (fib, gal, bad):
            full = _walked_prefixes(spec, longest)
            walked[id(spec)] = full, [int("".join(map(str, p[::-1])), 2) for p in full]
        cuts = {}

        def prefixes(spec: RegisterSpec, length: int) -> tuple[list, list[int]]:
            """Every state's ``length``-bit prefix, as a tuple and packed (bit c at 2**c)."""
            if (id(spec), length) not in cuts:
                full, packed = walked[id(spec)]
                mask = (1 << length) - 1
                cuts[id(spec), length] = [p[:length] for p in full], [p & mask for p in packed]
            return cuts[id(spec), length]

        for x, y, horizon, (cls, length, equal, discrete), verdict in checks:
            assert verdict.equal == equal, (x, y, horizon)
            (px, packed_x), (py, packed_y) = prefixes(x, length), prefixes(y, length)
            assert list(cls) == packed_x + packed_y, (x, y, horizon)
            assert discrete == (len(set(px)) == 1 << n)
            if not equal:
                seen["unequal, side a discrete" if discrete else "unequal"] += 1
                _assert_witness(verdict.counterexample, n, length, px, py)
                continue
            seen["equal"] += 1
            assert Counter(px) == Counter(py)
            lengths = _checked_lengths(n, horizon)
            if length != horizon:
                before = lengths[lengths.index(length) - 1]
                assert len({p[:before] for p in px + py}) == len(set(px + py))
    assert min(seen.values()) >= 10 and len(seen) == 3, seen


def test_exhaustive_check_compiles_each_registers_kernel_once(monkeypatch):
    # The unequal 14-bit pair of the test above, then the equal sibling.
    # A check compiles one sliced kernel per side it has not walked
    # before, the witness's walk of side a included, so the sibling
    # compiles only its collapse, and a second check on the same spec
    # objects compiles nothing.
    a = RegisterSpec("r", 14, {
        13: parse_expr("r[0] + r[4]*r[8]*r[11] + r[6]*r[9]*r[10] + r[8]*r[11]"),
    })
    b = RegisterSpec("r", 14, {
        12: parse_expr("r[13] + r[5]*r[8]*r[9]"),
        11: parse_expr("r[12] + r[2]*r[9]*r[13]"),
        10: parse_expr("r[11] + r[5]*r[8]"),
    })
    compiled = []
    real = engine._CompiledSystem._compile_sliced
    monkeypatch.setattr(
        engine._CompiledSystem, "_compile_sliced",
        lambda self, modes, k: compiled.append(self.signature) or real(self, modes, k),
    )
    fib = collapse_to_fibonacci(b)
    for x, y, equal, kernels in ((a, b, False, 2), (fib, b, True, 1)):
        compiled.clear()
        first = check_equivalence_exhaustive(x, y)
        assert first.equal is equal and compiled == [(("r", 14),)] * kernels
        assert (first.counterexample is None) is equal
        compiled.clear()
        assert check_equivalence_exhaustive(x, y) == first and compiled == []
    # a register that reads another one is refused before anything compiles
    foreign = RegisterSpec("r", 4, {3: parse_expr("r[0] + q[1]*r[2]")})
    for _ in range(2):
        with pytest.raises(ForeignVariableError):
            check_equivalence_exhaustive(foreign, foreign)
    assert compiled == []


def test_exhaustive_check_memory_grows_with_states_not_horizon():
    reg = RegisterSpec("r", 14, {13: parse_expr("r[0] + r[3]*r[9] + r[5]")})
    tracemalloc.start()
    try:
        assert check_equivalence_exhaustive(reg, reg).equal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_twenty_bit_check_peaks_below_a_bound(tmp_path):
    # An equal 20-bit pair, the widest the check takes, at horizon 4096 in
    # a fresh process: the set of one side's 64-bit prefixes dominates the
    # peak, which read about 170 MiB on CPython 3.11 (310 MiB while the
    # prefixes were lists).  The allocator moves it by up to 10%.
    src = Path(grainkit.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from grainkit.anf import parse_expr\n"
        "from grainkit.engine import RegisterSpec\n"
        "from grainkit.transform import check_equivalence_exhaustive\n"
        "fib = {19: 'r[0] + r[1]*r[15] + r[1]*r[6]*r[15] + r[2] + r[7]'}\n"
        "gal = {18: 'r[0]*r[14] + r[0]*r[5]*r[14] + r[19] + r[6]', 17: 'r[0] + r[18]'}\n"
        "fib, gal = (RegisterSpec('r', 20, {b: parse_expr(e) for b, e in f.items()})\n"
        "            for f in (fib, gal))\n"
        "assert check_equivalence_exhaustive(fib, gal, 4096).equal\n"
    )
    status, peak = run_fresh(code, [], tmp_path / "stdout.txt")
    assert status == 0
    assert peak < 230, f"peak {peak:.0f} MiB"
