"""The bitsliced mapped check against a per-trial reference.

The reference draws each trial with one ``rng.getrandbits(width)`` and
splits it over the registers, maps with ``map_system_state`` and steps
with the public ``engine.step``, one trial and one cycle at a time, as the
check did before its trials were sliced.
"""

import random

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


def test_one_cycle_check_compiles_no_kernel():
    v = variant("grain80-galois-1")
    fib, gal = (
        SystemSpec(s.registers, s.outputs, s.injections, s.params)
        for s in (v.fib_variant().system, v.system)
    )
    assert check_equivalence_mapped(fib, gal, 1, 1, 0).equal
    assert fib._compiled._kernels == {} == gal._compiled._kernels


def test_divergent_trial_is_replayed_on_the_sliced_kernel():
    v = variant("grain128-galois-1", "as-printed")
    fib, gal = (
        SystemSpec(s.registers, s.outputs, s.injections, s.params)
        for s in (v.fib_variant().system, v.system)
    )
    verdict = check_equivalence_mapped(fib, gal, 100, 1000, 1)
    kernels = [key for s in (fib, gal) for key in s._compiled._kernels]
    assert kernels and all(key[0] == "sliced" for key in kernels), kernels
    assert not verdict.equal
    assert verdict == reference_check(fib, gal, 100, 1000, 1)


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
    mapper = transform._state_mapper(system, system)[0]
    width = sum(r.length for r in system.registers)
    states = [[rng.randrange(2) for _ in range(width)] for _ in range(37)]
    lanes = [sum(s[i] << t for t, s in enumerate(states)) for i in range(width)]
    got = mapper(lanes, (1 << len(states)) - 1)
    for t, state in enumerate(states):
        assert [(w >> t) & 1 for w in got] == mapper(state), t


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
