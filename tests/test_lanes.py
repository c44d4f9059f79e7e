"""Differential tests of the k-lane kernel against unit steps.

The reference here is deliberately independent of the engine: every
register bit is its ANF feedback evaluated with ``anf.evaluate``, one
cycle at a time, with injections XORed in from the pre-step outputs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grainkit.engine as engine
import grainkit.transform as transform
from grainkit import KeyIv, initialize, load, variant
from grainkit.anf import Anf, Term, Var, evaluate
from grainkit.engine import (
    Injection,
    OutputSpec,
    RegisterSpec,
    SystemSpec,
    SystemState,
    _join,
    _lanes_match,
    _run_words,
    _words,
    run,
    run_ints,
)
from grainkit.transform import check_equivalence_mapped
from conftest import ALL_VARIANTS, rand_bits

from test_acceptance import _mutate_one_term, _random_uniform_transformation

MODE_SETS = (frozenset(), frozenset({"init"}), frozenset({"init", "aux"}))


def reference(spec, bits, cycles, modes, watch):
    """Traces and every visited state (as bit dicts), one cycle at a time."""
    state = {Var(r.id, i): bits[r.id][i] for r in spec.registers for i in range(r.length)}
    traces = {t: [] for t in watch}
    states = [state]
    for _ in range(cycles):
        outs = {}
        for o in spec.outputs:
            v = evaluate(o.expr, state)
            for ref in o.refs:
                v ^= outs[ref]
            outs[o.name] = v
        for t in watch:
            traces[t].append(outs[t] if isinstance(t, str) else state[Var(*t)])
        new = {
            Var(r.id, i): evaluate(r.expr(i), state)
            for r in spec.registers
            for i in range(r.length)
        }
        for inj in spec.injections:
            if inj.mode in modes:
                new[Var(inj.register, inj.bit)] ^= outs[inj.output]
        state = new
        states.append(state)
    return traces, states


def packed(spec, state):
    return [
        sum(state[Var(r.id, i)] << i for i in range(r.length)) for r in spec.registers
    ]


def as_int(bits):
    """A bit sequence as ``_run_words`` returns it: bit c at weight 2**c."""
    return sum(bit << c for c, bit in enumerate(bits))


@st.composite
def systems(draw):
    nregs = draw(st.integers(1, 3))
    ids = ("a", "b", "c")[:nregs]
    lengths = [draw(st.integers(3, 24)) for _ in ids]

    def var():
        r = draw(st.integers(0, nregs - 1))
        return Var(ids[r], draw(st.integers(0, lengths[r] - 1)))

    def expr(own=None):
        terms = set()
        for _ in range(draw(st.integers(0, 4))):
            size = draw(st.integers(1, 3))
            vs = {var() for _ in range(size)}
            if own is not None and draw(st.booleans()):
                vs = {Var(own, v.idx % lengths[ids.index(own)]) for v in vs}
            terms.add(Term(frozenset(vs)))
        return Anf(frozenset(terms), draw(st.integers(0, 1)))

    registers = []
    for rid, n in zip(ids, lengths):
        explicit = draw(st.sets(st.integers(0, n - 1), max_size=4))
        registers.append(RegisterSpec(rid, n, {bit: expr(rid) for bit in explicit}))
    outputs = []
    for i in range(draw(st.integers(0, 3))):
        earlier = [o.name for o in outputs]
        refs = tuple(r for r in earlier if draw(st.booleans()))
        outputs.append(OutputSpec(f"O{i}", expr(), refs))
    injections = []
    if outputs:
        for _ in range(draw(st.integers(0, 3))):
            r = draw(st.integers(0, nregs - 1))
            injections.append(
                Injection(
                    draw(st.sampled_from(("init", "aux"))),
                    ids[r],
                    draw(st.integers(0, lengths[r] - 1)),
                    draw(st.sampled_from([o.name for o in outputs])),
                )
            )
    spec = SystemSpec(registers, outputs, injections)
    bits = {
        rid: [draw(st.integers(0, 1)) for _ in range(n)] for rid, n in zip(ids, lengths)
    }
    return spec, bits


@settings(max_examples=60, deadline=None)
@given(systems(), st.sampled_from(MODE_SETS))
def test_every_legal_k_matches_the_reference(case, modes):
    spec, bits = case
    comp = spec._compiled
    kmax = comp.degree(modes)
    watch = spec.output_names() + tuple(
        (r.id, i) for r in spec.registers for i in range(r.length)
    )
    cycles = 2 * kmax + 3
    want, states = reference(spec, bits, cycles, modes, watch)
    start = _words(SystemState.from_bits(spec, bits))
    for k in range(1, kmax + 1):
        c = 2 * k + 3
        traces, words = _run_words(comp, start, c, modes, watch, k)
        assert words == packed(spec, states[c]), k
        for t in watch:
            assert traces[t] == as_int(want[t][:c]), (k, t)
    traces, final = run(spec, SystemState.from_bits(spec, bits), cycles, modes, watch)
    assert traces == {t: tuple(want[t]) for t in watch}
    assert _words(final) == packed(spec, states[cycles])


def _side_by_side(words_of_each, widths, T):
    """Instance t's word w of each slot at bits ``i * T + t``, i < that slot's width."""
    return [
        _join([sum((words[r] >> i & 1) << t for t, words in enumerate(words_of_each)) for i in range(n)], T)
        for r, n in enumerate(widths)
    ]


def _assert_side_by_side(comp, modes, k, record, starts, steps):
    """The kernel at lane width len(starts) equals one width-1 run per start.

    Every register word and recorded lane word of the wide run must be
    the runs' words joined side by side, bit for bit.
    """
    T, lengths = len(starts), [n for _, n in comp.signature]
    sinks = [[] for _ in record]
    got = comp.kernel(modes, k, record, T)(_side_by_side(starts, lengths, T), steps, sinks)
    runs = [[[] for _ in record] for _ in starts]
    finals = [comp.kernel(modes, k, record)(start, steps, own) for start, own in zip(starts, runs)]
    assert got == _side_by_side(finals, lengths, T), k
    for step in range(steps):
        lanes = [[own[i][step] for i in range(len(record))] for own in runs]
        assert [sink[step] for sink in sinks] == _side_by_side(lanes, [k] * len(record), T), (k, step)


@settings(max_examples=60, deadline=None)
@given(systems(), st.sampled_from(MODE_SETS), st.integers(1, 40), st.randoms(use_true_random=False))
def test_lane_width_steps_instances_side_by_side(case, modes, T, rnd):
    spec, _ = case
    comp = spec._compiled
    watch = spec.output_names() + tuple((r.id, i) for r in spec.registers for i in range(r.length))
    record = comp.plan(modes, watch)[0]
    starts = [[rnd.getrandbits(n) for _, n in comp.signature] for _ in range(T)]
    for k in range(1, comp.degree(modes) + 1):
        _assert_side_by_side(comp, modes, k, record, starts, 2)


def test_lane_width_on_a_tap_read_across_the_top(rng):
    # the register of test_a_tap_read_across_the_top_meets_a_low_window_twice,
    # whose tap 7 cancels window 0 with a right shift
    reg = RegisterSpec("r", 16, {0: Anf.parse("r[1] + r[3]*r[5]")})
    spec = SystemSpec([reg], [OutputSpec("O", Anf.parse("r[7] + r[2]*r[9]"))])
    comp, modes = spec._compiled, frozenset()
    record = comp.plan(modes, ("O",) + tuple(("r", i) for i in range(16)))[0]
    starts = [[rng.getrandbits(16)] for _ in range(7)]
    for k in range(1, 13):
        _assert_side_by_side(comp, modes, k, record, starts, 1)


def test_lane_width_on_a_tap_read_right_after_grouped_windows(rng):
    # Wider than T = 1, windows 12 and 13 enter the word in one XOR, which
    # must land before tap 12 (from k = 2) and tap 11 (from k = 3) read it.
    reg = RegisterSpec("r", 16, {
        12: Anf.parse("r[13] + r[0]*r[2]"),
        13: Anf.parse("r[14] + r[1] + r[3]*r[5]"),
        15: Anf.parse("r[0] + r[11]*r[12]"),
    })
    comp, modes = SystemSpec([reg])._compiled, frozenset()
    assert comp.degree(modes) == 4
    starts = [[rng.getrandbits(16)] for _ in range(7)]
    for k in range(1, 5):
        _assert_side_by_side(comp, modes, k, (), starts, 3)


def test_lane_width_cuts_plain_taps_below_half_the_register(rng):
    # taps 0, 3, 4 and 9 are cut to k lanes before they shift, each by its
    # own bound mask (tap 0's is m); taps 10, 12 and 15 shift first
    reg = RegisterSpec("r", 20, {19: Anf.parse("r[0] + r[4] + r[12] + r[3]*r[15] + r[9]*r[10]")})
    spec = SystemSpec([reg], [OutputSpec("O", Anf.parse("r[2] + r[17]"))])
    comp, modes = spec._compiled, frozenset()
    record = comp.plan(modes, ("O",) + tuple(("r", i) for i in range(20)))[0]
    starts = [[rng.getrandbits(20)] for _ in range(7)]
    assert comp.degree(modes) == 5
    for k in range(1, 6):
        _assert_side_by_side(comp, modes, k, record, starts, 3)
        masks = {name for name in comp.kernel(modes, k, record, 7).__code__.co_varnames
                 if name[0] == "m" and name[1:].isdigit()}
        assert masks == {"m3", "m4", "m9"}, k


def test_lane_kernel_compiles_at_the_widest_slice(rng):
    # the all-ones word of 17 lanes of 1024 bits has over 4300 decimal digits
    comp = variant("grain80-galois-1").system._compiled
    starts = [[rng.getrandbits(80) for _ in range(2)] for _ in range(1024)]
    _assert_side_by_side(comp, frozenset(), 17, (), starts, 3)


@settings(max_examples=60, deadline=None)
@given(systems(), st.sampled_from(MODE_SETS))
def test_no_lane_kernel_beyond_the_derived_degree(case, modes):
    spec, _ = case
    comp = spec._compiled
    kmax = comp.degree(modes)
    if kmax < min(r.length for r in spec.registers):
        with pytest.raises(ValueError, match="no lane kernel"):
            comp.kernel(modes, kmax + 1)


@pytest.mark.parametrize("repair", ["official", "as-printed"])
@pytest.mark.parametrize("name", ALL_VARIANTS)
def test_bundled_variants_at_their_derived_degree(name, repair, rng):
    system = variant(name, repair).system
    bits = {r.id: rand_bits(rng, r.length) for r in system.registers}
    state = SystemState.from_bits(system, bits)
    watch = system.output_names() + tuple(
        (r.id, i) for r in system.registers for i in range(r.length)
    )
    for modes in (frozenset({"init"}), frozenset()):
        k = system._compiled.degree(modes)
        cycles = 2 * k + 3
        assert _lanes_match(system, state, cycles, modes, k), (name, sorted(modes))
        # the per-bit evaluator is the oracle: two lane steps and a remainder
        want, states = reference(system, bits, cycles, modes, watch)
        traces, final = run(system, state, cycles, modes, watch)
        assert traces == {t: tuple(want[t]) for t in watch}, (name, sorted(modes))
        assert _words(final) == packed(system, states[cycles]), (name, sorted(modes))


def test_a_tap_read_across_the_top_meets_a_low_window_twice():
    # At k = 11, tap 7 of this 16-bit register reads bits 7..17 of the
    # register word.  The window at bit 0 reaches it twice: 6 lanes down
    # through the read at 7, which the tap must not see, and 10 lanes up
    # through the read folded past the top, which it needs.  Output O taps
    # bits above that window, so at every k it is evaluated from the taps'
    # own lane words, not from bit 0.
    reg = RegisterSpec("r", 16, {0: Anf.parse("r[1] + r[3]*r[5]")})
    spec = SystemSpec([reg], [OutputSpec("O", Anf.parse("r[7] + r[2]*r[9]"))])
    comp = spec._compiled
    modes, watch = frozenset(), ("O",) + tuple(("r", i) for i in range(16))
    assert comp.degree(modes) == 12
    assert {(0, 2), (0, 7), (0, 9)} <= set(comp.plan(modes, watch)[0])
    bits = {"r": [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]}
    start = _words(SystemState.from_bits(spec, bits))
    for k in range(1, 13):
        cycles = 2 * k + 3
        want, states = reference(spec, bits, cycles, modes, watch)
        traces, words = _run_words(comp, start, cycles, modes, watch, k)
        assert words == packed(spec, states[cycles]), k
        assert traces == {t: as_int(want[t]) for t in watch}, k


def test_runs_in_chunks_match_unit_steps(monkeypatch):
    # Chunks of 1 to 3 lane steps, each chunk's lane words joined before
    # the next chunk runs, with and without a rest step, against the
    # one-cycle reference; then a Galois keystream, chunked and not.
    reg = RegisterSpec("r", 16, {0: Anf.parse("r[1] + r[3]*r[5]")})
    spec = SystemSpec([reg], [OutputSpec("O", Anf.parse("r[7] + r[2]*r[9]"))])
    comp = spec._compiled
    modes, watch = frozenset(), ("O",) + tuple(("r", i) for i in range(16))
    bits = {"r": [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]}
    start = _words(SystemState.from_bits(spec, bits))
    v = variant("grain80-galois-1")
    native = initialize(v, load(v, KeyIv([1, 0] * 40, [0, 1] * 32)), mode="native")
    whole = run_ints(v.system, native, 1000, watch=("Z",))
    for chunk in (1, 2, 3):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        for k in (1, 5, 12):
            for cycles in sorted({0, k - 1, k, 3 * k, 7 * k + 2}):
                want, states = reference(spec, bits, cycles, modes, watch)
                traces, words = _run_words(comp, start, cycles, modes, watch, k)
                assert words == packed(spec, states[cycles]), (chunk, k, cycles)
                assert traces == {t: as_int(want[t]) for t in watch}, (chunk, k, cycles)
        assert run_ints(v.system, native, 1000, watch=("Z",)) == whole, chunk


def test_random_shift_script_registers_at_every_legal_k():
    rng = random.Random(0x5EED)
    for _ in range(30):
        for reg in _random_uniform_transformation(rng):
            spec = SystemSpec([reg])
            state = SystemState.from_bits(spec, {"r": rand_bits(rng, reg.length)})
            kmax = spec._compiled.degree(frozenset())
            for k in range(2, kmax + 1):
                assert _lanes_match(spec, state, 2 * k + 3, (), k), (reg, k)


@pytest.mark.parametrize(
    "family, repair, init_k, keygen_k",
    [
        ("grain80", "official", 16, 17),
        ("grain80", "as-printed", 17, 17),
        ("grain128", "official", 32, 32),
        ("grain128", "as-printed", 32, 32),
    ],
)
def test_derived_lane_counts(family, repair, init_k, keygen_k):
    for name in ALL_VARIANTS:
        if name.startswith(family):
            comp = variant(name, repair).system._compiled
            assert comp.degree(frozenset({"init"})) == init_k, name
            assert comp.degree(frozenset()) == keygen_k, name


def test_run_takes_the_remainder_as_one_lane_step(monkeypatch, rng):
    system = variant("grain80-galois-1").system
    state = SystemState.from_bits(system, {r.id: rand_bits(rng, 80) for r in system.registers})
    k = system._compiled.degree(frozenset())
    assert k == 17
    calls = []
    kernel = engine._CompiledSystem.kernel

    def spy(comp, modes, lanes, watch=()):
        fn = kernel(comp, modes, lanes, watch)

        def counted(words, steps, sinks):
            calls.append((lanes, steps))
            return fn(words, steps, sinks)

        return counted

    monkeypatch.setattr(engine._CompiledSystem, "kernel", spy)
    for cycles in (0, 1, 16, 17, 34, 100, 1000):
        calls.clear()
        run(system, state, cycles, watch=("Z",))
        blocks, rest = divmod(cycles, k)
        assert calls == [(k, blocks)] * (blocks > 0) + [(rest, 1)] * (rest > 0), cycles


@pytest.mark.parametrize(
    "name", ["grain80-galois-1", "grain80-fib", "grain128-fib", "grain128-galois-16"]
)
def test_every_remainder_width_matches_unit_steps(name, rng):
    system = variant(name).system
    state = SystemState.from_bits(
        system, {r.id: rand_bits(rng, r.length) for r in system.registers}
    )
    for modes in (frozenset({"init"}), frozenset()):
        k = system._compiled.degree(modes)
        for rest in range(1, k):
            assert _lanes_match(system, state, k + rest, modes, k), (sorted(modes), rest)


@pytest.mark.parametrize("cycles", [300, 30, 20, 18])
def test_mapped_check_blocks_report_the_unit_step_divergence(monkeypatch, cycles):
    # Blocks are 17 cycles.  The mutants diverge at cycles 17, 24 and 19
    # (at 20 cycles 17, 17 and 19; at 18 all at 17), so at 30 and 20 cycles
    # a divergence falls in the last, partial block; at 18 one block covers all.
    fib = variant("grain80-fib").system
    gal = variant("grain80-galois-1").system
    cases = []
    for bit, expr in ((69, "b[70] + b[53]*b[49]"), (64, "b[65] + b[18]"), (79, "s[0] + b[0]")):
        feedback = dict(gal.register("b").feedback)
        feedback[bit] = Anf.parse(expr)
        cases.append(gal.replace_register(RegisterSpec("b", 80, feedback)))
    lanes = [check_equivalence_mapped(fib, bad, 5, cycles, 3) for bad in cases]
    assert transform._mapped_degree(fib, gal, {"b": 63, "s": 79}) == 17
    monkeypatch.setattr(transform, "_mapped_degree", lambda *args: 1)
    units = [check_equivalence_mapped(fib, bad, 5, cycles, 3) for bad in cases]
    assert lanes == units
    assert all(not verdict.equal for verdict in units)


def mutated_pairs(count=25):
    """Small (Fibonacci, one-term mutant of a Galois form) system pairs the mapped check accepts."""
    rng = random.Random(0xB10C)
    pairs = []
    while len(pairs) < count:
        fib, gal = _random_uniform_transformation(rng)
        pair = SystemSpec([fib]), SystemSpec([_mutate_one_term(rng, gal)])
        try:
            check_equivalence_mapped(*pair, 1, 1, 0)
        except ValueError:
            continue  # the mutation broke uniformity or the state mapping
        pairs.append(pair)
    return pairs


def test_mapped_check_on_mutated_registers_matches_unit_steps(monkeypatch):
    # small registers put divergences on and next to block boundaries
    pairs = mutated_pairs()
    ks = {transform._mapped_degree(f, g, {"r": transform.terminal_bit(g.registers[0])})
          for f, g in pairs}
    assert max(ks) > 1

    def verdicts():
        return [
            check_equivalence_mapped(f, g, 3, cycles, seed)
            for f, g in pairs
            for cycles in range(12)
            for seed in (1, 2)
        ]

    lanes = verdicts()
    monkeypatch.setattr(transform, "_mapped_degree", lambda *args: 1)
    units = verdicts()
    assert lanes == units
    assert sum(not v.equal for v in units) > 100


def test_mapped_check_falls_back_to_unit_steps_below_the_terminal():
    fib = variant("grain80-fib").system
    gal = variant("grain80-galois-1").system
    assert transform._mapped_degree(fib, gal, {"b": 15, "s": 79}) == 1
    assert transform._mapped_degree(fib, gal, {"b": 16, "s": 79}) == 17


def test_keystream_through_lanes_matches_unit_steps(rng):
    # initialize runs 160 cycles at k = 16 and keygen 100 cycles at k = 17
    v = variant("grain80-galois-4")
    state = load(v, KeyIv(rand_bits(rng, 80), rand_bits(rng, 64)))
    native = initialize(v, state, mode="native")
    _, after = _run_words(
        v.system._compiled, _words(state), v.init_cycles, frozenset({"init"}), (), 1
    )
    assert _words(native) == after
    got, _ = run_ints(v.system, native, 100, watch=("Z",))
    want, _ = _run_words(v.system._compiled, _words(native), 100, frozenset(), ("Z",), 1)
    assert got == want
