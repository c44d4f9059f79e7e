import pytest

from grainkit import KeyIv, generate_keystream, initialize, load, variant
from grainkit.anf import parse_expr
from grainkit.engine import (
    RegisterSpec,
    SystemSpec,
    SystemState,
    output_values,
    run,
    step,
    tap_trace,
)
from conftest import rand_bits

from grain_reference import grain80_feedbacks


def ring(n, rid="r"):
    return SystemSpec([RegisterSpec(rid, n)])


def test_pure_shift_zero_fixed_point():
    spec = ring(6)
    state = SystemState.zeros(spec)
    assert step(spec, state).bits("r") == (0,) * 6


def test_four_bit_fibonacci_hand_trace():
    spec = SystemSpec([RegisterSpec("r", 4, {3: parse_expr("r[0] + r[1]*r[2]")})])
    state = SystemState.from_bits(spec, {"r": (1, 1, 0, 0)})
    nxt = step(spec, state)
    assert nxt.bits("r") == (1, 0, 0, 1)
    assert nxt.cycle == 1


def test_step_is_simultaneous_for_cross_coupled_registers():
    u = RegisterSpec("u", 2, {1: parse_expr("v[0]")})
    v = RegisterSpec("v", 2, {1: parse_expr("u[0]")})
    spec = SystemSpec([u, v])
    state = SystemState.from_bits(spec, {"u": (1, 0), "v": (0, 1)})
    nxt = step(spec, state)
    assert nxt.bits("u") == (0, 0)
    assert nxt.bits("v") == (1, 1)


def test_step_invariant_under_register_declaration_order(rng):
    v80 = variant("grain80-fib")
    b, s = v80.system.register("b"), v80.system.register("s")
    forward = SystemSpec([b, s], v80.system.outputs, v80.system.injections)
    backward = SystemSpec([s, b], v80.system.outputs, v80.system.injections)
    bits = {"b": rand_bits(rng, 80), "s": rand_bits(rng, 80)}
    st_f = SystemState.from_bits(forward, bits)
    st_b = SystemState.from_bits(backward, bits)
    for _ in range(16):
        st_f = step(forward, st_f, {"init"})
        st_b = step(backward, st_b, {"init"})
    assert st_f.bits("b") == st_b.bits("b")
    assert st_f.bits("s") == st_b.bits("s")


def test_grain80_init_injects_z_into_both_top_bits(rng):
    v80 = variant("grain80-fib")
    bits = {"b": rand_bits(rng, 80), "s": rand_bits(rng, 80)}
    state = SystemState.from_bits(v80.system, bits)
    z = output_values(v80.system, state)["Z"]
    plain = step(v80.system, state)
    init = step(v80.system, state, {"init"})
    assert init.bits("b")[79] == plain.bits("b")[79] ^ z
    assert init.bits("s")[79] == plain.bits("s")[79] ^ z
    assert init.bits("b")[:79] == plain.bits("b")[:79]
    assert init.bits("s")[:79] == plain.bits("s")[:79]


def test_grain80_init_step_matches_reference(rng):
    v80 = variant("grain80-fib")
    b, s = list(rand_bits(rng, 80)), list(rand_bits(rng, 80))
    state = SystemState.from_bits(v80.system, {"b": b, "s": s})
    for _ in range(5):
        f, g, z = grain80_feedbacks(b, s)
        b = b[1:] + [g ^ z]
        s = s[1:] + [f ^ z]
        state = step(v80.system, state, {"init"})
        assert state.bits("b") == tuple(b)
        assert state.bits("s") == tuple(s)


def test_run_watch_bit_of_pure_shift():
    spec = ring(3)
    state = SystemState.from_bits(spec, {"r": (1, 0, 1)})
    traces, final = run(spec, state, 3, watch=(("r", 0),))
    assert traces[("r", 0)] == (1, 0, 1)
    assert final.cycle == 3


def test_run_zero_cycles():
    spec = ring(3)
    state = SystemState.from_bits(spec, {"r": (1, 0, 1)})
    traces, final = run(spec, state, 0, watch=(("r", 0),))
    assert traces[("r", 0)] == ()
    assert final == state


def test_run_rejects_unknown_watch_targets():
    spec = ring(3)
    state = SystemState.zeros(spec)
    with pytest.raises(KeyError):
        run(spec, state, 1, watch=("Z",))
    with pytest.raises(KeyError):
        run(spec, state, 1, watch=(("q", 0),))
    with pytest.raises(KeyError):
        run(spec, state, 1, watch=(("r", 3),))


def test_run_watching_z_equals_generate_keystream():
    v80 = variant("grain80-fib")
    state = initialize(v80, load(v80, KeyIv((0,) * 80, (0,) * 64)))
    bits, _ = generate_keystream(v80, state, 8)
    traces, _ = run(v80.system, state, 8, watch=("Z",))
    assert traces["Z"] == bits


@pytest.mark.parametrize("name", ["grain80-galois-1", "grain128-galois-16"])
def test_run_matches_stepwise_reference(rng, name):
    # run's word loop against one public step and output_values per cycle
    system = variant(name).system
    bits = {r.id: rand_bits(rng, r.length) for r in system.registers}
    start = SystemState.from_bits(system, bits)
    watch = ("Z", "H", ("b", 0), ("s", 63))
    for modes in (frozenset(), {"init"}):
        traces, final = run(system, start, 40, modes, watch)
        state = start
        for cycle in range(40):
            vals = output_values(system, state)
            for target in watch:
                want = vals[target] if isinstance(target, str) else (
                    state.bits(target[0])[target[1]]
                )
                assert traces[target][cycle] == want
            state = step(system, state, modes)
        assert final == state


def test_run_and_tap_trace_bypass_public_step(monkeypatch, rng):
    import grainkit.engine as engine

    system = variant("grain80-galois-1").system
    bits = {"b": rand_bits(rng, 80), "s": rand_bits(rng, 80)}
    state = SystemState.from_bits(system, bits)
    want_rows = []
    probe = state
    for _ in range(5):
        want_rows.append(probe.bits("s"))
        probe = step(system, probe, {"init"})

    def refuse(*args, **kwargs):
        raise AssertionError("called per cycle")

    monkeypatch.setattr(engine, "step", refuse)
    monkeypatch.setattr(engine, "output_values", refuse)
    _, final = engine.run(system, state, 5, {"init"}, ("Z",))
    assert final == probe
    assert engine.tap_trace(system, state, 5, "s", {"init"}) == tuple(want_rows)


def test_tap_trace_pure_shift_delayed_copy():
    spec = ring(5)
    state = SystemState.from_bits(spec, {"r": (1, 0, 0, 1, 1)})
    trace = tap_trace(spec, state, 12, "r")
    for i in range(5):
        for c in range(12 - i):
            assert trace[c][i] == trace[c + i][0]


def test_tap_trace_grain80_galois_columns(rng):
    gal = variant("grain80-galois-1")
    bits = {"b": rand_bits(rng, 80), "s": rand_bits(rng, 80)}
    state = SystemState.from_bits(gal.system, bits)
    cycles = 200
    trace = tap_trace(gal.system, state, cycles, "b")
    for i in (1, 17, 40, 63):
        for c in range(cycles - i):
            assert trace[c][i] == trace[c + i][0]
    # bit 64 holds feedback, so the delayed-copy relation generally breaks
    broken = any(trace[c][64] != trace[c + 64][0] for c in range(cycles - 64))
    assert broken


def test_tap_trace_zero_cycles_and_unknown_register():
    spec = ring(4)
    state = SystemState.zeros(spec)
    assert tap_trace(spec, state, 0, "r") == ()
    with pytest.raises(KeyError):
        tap_trace(spec, state, 1, "q")


def test_state_validation():
    spec = ring(4)
    with pytest.raises(ValueError):
        SystemState.from_bits(spec, {"r": (0, 1)})
    with pytest.raises(ValueError):
        SystemState.from_bits(spec, {"r": (0, 1, 0, 2)})
    with pytest.raises(ValueError):
        SystemState.from_bits(spec, {"r": (0,) * 4, "q": (0,)})
    other = SystemState.zeros(ring(5))
    with pytest.raises(ValueError):
        step(spec, other)


def test_explicit_pure_shift_entries_are_dropped():
    spec = RegisterSpec("r", 4, {1: parse_expr("r[2]"), 3: parse_expr("r[0] + r[1]")})
    assert spec.explicit_bits() == (3,)


def test_output_reference_chain():
    reg = RegisterSpec("r", 4)
    from grainkit.engine import OutputSpec

    sys_ = SystemSpec(
        [reg],
        [
            OutputSpec("A", parse_expr("r[0]")),
            OutputSpec("B", parse_expr("r[1]"), refs=("A",)),
        ],
    )
    state = SystemState.from_bits(sys_, {"r": (1, 1, 0, 0)})
    vals = output_values(sys_, state)
    assert vals == {"A": 1, "B": 0}


def test_output_reference_must_be_declared_earlier():
    from grainkit.engine import OutputSpec

    reg = RegisterSpec("r", 4)
    with pytest.raises(ValueError):
        SystemSpec([reg], [OutputSpec("B", parse_expr("r[1]"), refs=("A",))])
