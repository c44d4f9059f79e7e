"""The bitsliced mapped check against a per-trial reference.

The reference draws each trial with one ``rng.getrandbits(width)`` and
splits it over the registers, maps with ``map_system_state`` and steps
with the public ``engine.step``, one trial and one cycle at a time, as the
check did before its trials were sliced.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grainkit.transform as transform
from grainkit import variant
from grainkit.anf import parse_expr
from grainkit.engine import RegisterSpec, SystemSpec, SystemState, _words, step
from grainkit.transform import (
    DivergencePoint,
    MappedVerdict,
    check_equivalence_mapped,
    collapse_to_fibonacci,
    map_system_state,
    terminal_bit,
)
from conftest import GALOIS_VARIANTS

from test_lanes import MODE_SETS, mutated_pairs, systems

BENCH_CASES = (  # as in perfbench/worker.py: variant, tap flavour
    ("grain80-galois-1", "official"),
    ("grain128-galois-16", "official"),
    ("grain128-galois-1", "as-printed"),
)


def reference_trials(fib_system, gal_system, trials, seed):
    """(Fibonacci state, mapped Galois state) of every trial, one ``getrandbits`` each.

    The draw holds the registers in system order, each register's bit i
    in bit offset + i.
    """
    rng = random.Random(seed)
    lengths = [(r.id, r.length) for r in fib_system.registers]
    width = sum(n for _, n in lengths)
    # map_system_state demands that the target collapse to the source; the
    # check deliberately does not, so the source is the target's own
    # collapse, which leaves the formula alone.  Its outputs and injections
    # are the target's, as the pair rule demands.
    collapsed = SystemSpec(
        [collapse_to_fibonacci(r) for r in gal_system.registers],
        gal_system.outputs,
        gal_system.injections,
    )
    for _ in range(trials):
        drawn, bits = rng.getrandbits(width), {}
        for rid, n in lengths:
            bits[rid] = [(drawn >> i) & 1 for i in range(n)]
            drawn >>= n
        mapped = map_system_state(collapsed, gal_system, SystemState.from_bits(collapsed, bits))
        yield SystemState.from_bits(fib_system, bits), mapped


def reference_divergence(fib_system, gal_system, fib, gal, cycles):
    """(register, cycle, bit) of the first disagreement of bits 0..terminal, or None."""
    masks = {rid: (1 << (terminal_bit(gal_system.register(rid)) + 1)) - 1
             for rid in fib_system.register_ids()}
    for cycle in range(cycles):
        for rid, mask in masks.items():
            diff = (fib.word(rid) ^ gal.word(rid)) & mask
            if diff:
                return rid, cycle, (diff & -diff).bit_length() - 1
        fib, gal = step(fib_system, fib), step(gal_system, gal)
    return None


def reference_check(fib_system, gal_system, trials, cycles, seed):
    for trial, (fib, gal) in enumerate(reference_trials(fib_system, gal_system, trials, seed)):
        hit = reference_divergence(fib_system, gal_system, fib, gal, cycles)
        if hit is not None:
            return MappedVerdict(False, trials, cycles, DivergencePoint(trial, *hit))
    return MappedVerdict(True, trials, cycles)


def test_mapped_check_matches_the_reference_on_mutated_registers():
    verdicts = []
    for fib, gal in mutated_pairs():
        for cycles in range(12):
            for seed in (1, 2):
                verdict = check_equivalence_mapped(fib, gal, 3, cycles, seed)
                assert verdict == reference_check(fib, gal, 3, cycles, seed), (gal, cycles, seed)
                verdicts.append(verdict)
    assert sum(not v.equal for v in verdicts) > 100


@pytest.mark.parametrize("name, flavour", BENCH_CASES)
def test_mapped_check_matches_the_reference_on_the_benchmark_cases(name, flavour):
    v = variant(name, flavour)
    fib = v.fib_variant().system
    verdict = check_equivalence_mapped(fib, v.system, 100, 1000, 1)
    assert verdict == reference_check(fib, v.system, 100, 1000, 1)


def test_divergence_at_the_last_cycle_is_reported_and_one_past_it_is_not():
    cases = [(f, g, seed) for f, g in mutated_pairs() for seed in (1, 2)]
    v = variant("grain128-galois-1", "as-printed")
    cases.append((v.fib_variant().system, v.system, 1))  # k = 32, diverges at cycle 34
    seen = 0
    for fib, gal, seed in cases:
        (start,) = reference_trials(fib, gal, 1, seed)
        hit = reference_divergence(fib, gal, *start, 60)
        if hit is None:
            continue
        rid, cycle, bit = hit
        assert check_equivalence_mapped(fib, gal, 1, cycle, seed).equal
        point = check_equivalence_mapped(fib, gal, 1, cycle + 1, seed).counterexample
        assert point == DivergencePoint(0, rid, cycle, bit)
        seen += 1
    assert seen > 20


def test_divergence_only_at_the_last_registers_terminal_bit_is_caught():
    # r's constant reaches bit 3, its terminal bit, at cycle 3; bits 0..2
    # still agree then, so slice bounds one short would call it equal.
    a = RegisterSpec("a", 5, {4: parse_expr("a[0] + a[1]*a[3]")})
    fib_r = RegisterSpec("r", 6, {5: parse_expr("r[0] + r[2]*r[3]")})
    bad_r = RegisterSpec("r", 6, {3: parse_expr("r[4] + r[0]*r[1] + 1")})
    fib, gal = SystemSpec([a, fib_r]), SystemSpec([a, bad_r])
    assert terminal_bit(bad_r) == 3
    for seed in range(5):
        (start,) = reference_trials(fib, gal, 1, seed)
        assert reference_divergence(fib, gal, *start, 40) == ("r", 3, 3)
        assert check_equivalence_mapped(fib, gal, 4, 3, seed).equal
        verdict = check_equivalence_mapped(fib, gal, 4, 4, seed)
        assert verdict.counterexample == DivergencePoint(0, "r", 3, 3)


def test_lowest_divergent_trial_wins_over_an_earlier_cycle():
    found = 0
    for fib, gal in mutated_pairs():
        for seed in range(20):
            firsts = [
                reference_divergence(fib, gal, f, g, 12)
                for f, g in reference_trials(fib, gal, 6, seed)
            ]
            hits = [(t, hit[1]) for t, hit in enumerate(firsts) if hit is not None]
            if not hits or not any(cycle < hits[0][1] for _, cycle in hits[1:]):
                continue
            verdict = check_equivalence_mapped(fib, gal, 6, 12, seed)
            assert verdict.counterexample.trial == hits[0][0]
            assert verdict == reference_check(fib, gal, 6, 12, seed)
            found += 1
    assert found >= 5


def _fresh(fib_system, gal_system):
    """Copies of a pair whose kernel caches start empty."""
    return tuple(
        SystemSpec(s.registers, s.outputs, s.injections, s.params) for s in (fib_system, gal_system)
    )


def _kernel_keys(*systems):
    return {key for s in systems for key in s._compiled._kernels}


NO_MODES = frozenset()


def test_one_cycle_check_compiles_no_kernel():
    # neither layout fetches a kernel before its first step: 1 and 100
    # trials step on lanes, 1100 bitsliced and then on lanes
    v = variant("grain80-galois-1")
    for trials in (1, 100, 1100):
        fib, gal = _fresh(v.fib_variant().system, v.system)
        assert check_equivalence_mapped(fib, gal, trials, 1, 0).equal
        assert fib._compiled._kernels == {} == gal._compiled._kernels, trials


def test_divergent_trial_is_replayed_in_blocks_on_the_lane_kernel():
    # 100 trials step on 32-cycle lane kernels 100 bits wide; the lowest
    # divergent trial is replayed alone on 1-bit lanes, in 32-cycle blocks
    # up to the one where it diverges (cycle 34), then in unit steps
    v = variant("grain128-galois-1", "as-printed")
    fib, gal = _fresh(v.fib_variant().system, v.system)
    verdict = check_equivalence_mapped(fib, gal, 100, 1000, 1)
    for system in (fib, gal):
        assert set(system._compiled._kernels) == {
            (NO_MODES, 32, (), 100), (NO_MODES, 32, (), 1), (NO_MODES, 1, (), 1)
        }
    assert verdict.counterexample.cycle == 34
    assert verdict == reference_check(fib, gal, 100, 1000, 1)


@pytest.mark.parametrize("layout, constant", [("sliced", 0), ("lanes", 10**9)])
def test_block_replay_matches_the_reference_on_and_next_to_block_ends(
    layout, constant, monkeypatch
):
    # The replay steps k-cycle blocks up to the divergent one, then unit
    # steps from its start: divergences at cycles 1, k - 1, k and k + 1,
    # each also at the last cycle checked, on pairs with k >= 3.
    monkeypatch.setattr(transform, "_LANE_TRIALS", constant)
    pairs, seen = mutated_pairs(), Counter()
    for fib, gal in pairs:
        k = transform._mapped_degree(fib, gal, {"r": terminal_bit(gal.registers[0])})
        if k < 3:
            continue
        places = {1: "1", k - 1: "k - 1", k: "k", k + 1: "k + 1"}
        for seed in range(30):
            want = reference_check(fib, gal, 3, 40, seed)
            if want.equal or want.counterexample.cycle not in places:
                continue
            seen[places[want.counterexample.cycle]] += 1
            for cycles in (40, want.counterexample.cycle + 1):
                verdict = check_equivalence_mapped(fib, gal, 3, cycles, seed)
                assert verdict == reference_check(fib, gal, 3, cycles, seed), (gal, cycles, seed)
    assert len(seen) == 4 and min(seen.values()) >= 5, seen
    # No pair diverges at cycle 0, where bits 0..terminal map to
    # themselves; a mapping that flips bit 0 of every state does.
    real = transform._map_word
    monkeypatch.setattr(
        transform, "_map_word", lambda word, n, plan, T=1: real(word, n, plan, T) ^ (1 << T) - 1
    )
    for fib, gal in pairs[:5]:
        for cycles in (1, 40):
            verdict = check_equivalence_mapped(fib, gal, 3, cycles, 1)
            assert verdict.counterexample == DivergencePoint(0, "r", 0, 0)
            assert verdict == reference_check(fib, gal, 3, cycles, 1)


@pytest.mark.parametrize("flavour", ["official", "as-printed"])
@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_bundled_pairs_step_small_slices_on_lanes_and_wide_ones_sliced(name, flavour):
    v = variant(name, flavour)
    k = transform._mapped_degree(
        v.fib_variant().system, v.system, {r.id: terminal_bit(r) for r in v.system.registers}
    )
    assert k in (17, 32)
    for trials, want in ((20, (NO_MODES, k, (), 20)), (100, (NO_MODES, k, (), 100)),
                         (1024, ("sliced", NO_MODES, k))):
        fib, gal = _fresh(v.fib_variant().system, v.system)
        check_equivalence_mapped(fib, gal, trials, k + 1, 1)
        assert _kernel_keys(fib, gal) == {want}, trials


def test_unit_cycle_blocks_step_sliced(monkeypatch):
    v = variant("grain80-galois-1")
    monkeypatch.setattr(transform, "_mapped_degree", lambda *args: 1)
    for trials in (1, 20, 100):
        fib, gal = _fresh(v.fib_variant().system, v.system)
        assert check_equivalence_mapped(fib, gal, trials, 3, 1).equal
        assert _kernel_keys(fib, gal) == {("sliced", NO_MODES, 1)}, trials


@pytest.mark.parametrize("layout, constant", [("sliced", 0), ("lanes", 10**9)])
def test_each_layout_matches_the_reference_on_mutated_registers(layout, constant, monkeypatch):
    # the constant forces every slice with blocks of 2 cycles or more onto one layout
    monkeypatch.setattr(transform, "_LANE_TRIALS", constant)
    verdicts, keys = [], set()
    for fib, gal in mutated_pairs():
        for cycles in range(12):
            for seed in (1, 2):
                verdict = check_equivalence_mapped(fib, gal, 3, cycles, seed)
                assert verdict == reference_check(fib, gal, 3, cycles, seed), (gal, cycles, seed)
                verdicts.append(verdict)
        keys |= _kernel_keys(fib, gal)
    assert sum(not v.equal for v in verdicts) > 100
    # the reference steps through engine.step, whose lane kernels are 1 bit wide
    wide = {key[3] for key in keys if len(key) == 4 and key[3] != 1}
    assert wide == ({3} if layout == "lanes" else set()), keys


def _s_mutant():
    """grain80-galois-1 with a degree-14 product added to s[79]: few trials diverge."""
    v = variant("grain80-galois-1")
    s = v.system.register("s")
    feedback = dict(s.feedback)
    product = "*".join(f"s[{i}]" for i in range(1, 42, 3))
    feedback[79] = parse_expr(f"{s.expr(79)} + {product}")
    return v.fib_variant().system, v.system.replace_register(RegisterSpec("s", 80, feedback))


def test_a_wide_sliced_slice_then_a_lane_slice(monkeypatch):
    # 1100 trials: trials 0..1023 step bitsliced, then 1024..1099 on 76-bit lanes
    v = variant("grain80-galois-1")
    fib, gal = _fresh(v.fib_variant().system, v.system)
    assert check_equivalence_mapped(fib, gal, 1100, 40, 1).equal
    assert _kernel_keys(fib, gal) == {
        ("sliced", NO_MODES, 17), ("sliced", NO_MODES, 5), (NO_MODES, 17, (), 76), (NO_MODES, 5, (), 76)
    }
    fib, bad = _s_mutant()
    found = 0
    for seed in range(40):
        verdict = check_equivalence_mapped(fib, bad, 1100, 40, seed)
        if verdict.equal or verdict.counterexample.trial < 1024:
            continue
        found += 1
        with monkeypatch.context() as m:
            m.setattr(transform, "_LANE_TRIALS", 0)
            assert check_equivalence_mapped(fib, bad, 1100, 40, seed) == verdict
        point = verdict.counterexample
        *_, start = reference_trials(fib, bad, point.trial + 1, seed)
        hit = reference_divergence(fib, bad, *start, 40)
        assert DivergencePoint(point.trial, *hit) == point
    assert found >= 2


def _slice(comp, states):
    """One word per register bit, instance t in bit t, from packed per-instance words."""
    return [
        sum(((s[r] >> i) & 1) << t for t, s in enumerate(states))
        for r, (_, n) in enumerate(comp.signature)
        for i in range(n)
    ]


def _unslice(comp, words, t):
    packed, pos = [], 0
    for _, n in comp.signature:
        packed.append(sum(((words[pos + i] >> t) & 1) << i for i in range(n)))
        pos += n
    return packed


@settings(max_examples=60, deadline=None)
@given(systems(), st.sampled_from(MODE_SETS), st.randoms(use_true_random=False))
def test_sliced_layout_matches_unit_steps_at_every_legal_k(case, modes, rnd):
    spec, bits = case
    comp = spec._compiled
    starts = [_words(SystemState.from_bits(spec, bits))] + [
        [rnd.getrandbits(n) for _, n in comp.signature] for _ in range(4)
    ]
    ones = (1 << len(starts)) - 1
    for k in range(1, comp.degree(modes) + 1):
        words = _slice(comp, starts)
        for _ in range(2):
            words = comp.sliced(modes, k)(words, ones)
        words = comp.sliced(modes, 1)(words, ones)
        for t, start in enumerate(starts):
            want = comp.kernel(modes, 1)(start, 2 * k + 1, ())
            assert _unslice(comp, words, t) == want, (k, t)


@pytest.mark.parametrize("flavour", ["official", "as-printed"])
@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_lane_word_mapping_matches_the_bit_mapping(name, flavour, rng):
    _check_lane_mapping(variant(name, flavour).system, rng)


def test_lane_word_mapping_sets_constants_in_every_instance(rng):
    # bit 3 absorbs the tail of bit 2, constant included
    reg = RegisterSpec("r", 4, {2: parse_expr("r[3] + r[0]*r[1] + 1")})
    _check_lane_mapping(SystemSpec([reg]), rng)


def _check_lane_mapping(system, rng):
    """``_map_word`` at stride T equals T one-state mappings joined at stride T."""
    plans = transform._state_mapper(system, system)
    for reg in system.registers:
        n, plan = reg.length, plans[reg.id]
        for T in (1, 2, 7, 100):
            states = [rng.getrandbits(n) for _ in range(T)]
            word = sum((s >> i & 1) << i * T + t for t, s in enumerate(states) for i in range(n))
            want = [transform._map_word(s, n, plan) for s in states]
            joined = sum((s >> i & 1) << i * T + t for t, s in enumerate(want) for i in range(n))
            assert transform._map_word(word, n, plan, T) == joined, (reg.id, T)


def test_trials_run_in_slices_in_order(monkeypatch):
    # three trials per slice puts the lowest divergent trial in any slice
    monkeypatch.setattr(transform, "_SLICE_TRIALS", 3)
    verdicts = []
    for fib, gal in mutated_pairs():
        for seed in range(1, 12):
            verdict = check_equivalence_mapped(fib, gal, 8, 12, seed)
            assert verdict == reference_check(fib, gal, 8, 12, seed), (gal, seed)
            verdicts.append(verdict)
    assert max(v.counterexample.trial for v in verdicts if not v.equal) >= 3
