"""Acceptance suite: the end-to-end promises of this library.

One test per criterion, each printing a PASS line (run ``pytest -s
tests/test_acceptance.py`` to see them).  Pinned keystream prefixes were
computed once from the straight-line transcriptions in
``grain_reference.py`` and frozen here; the suite re-derives them from
the reference on every run as well, so the constant, the reference and
the engine must all agree.

Synthesis-flow figures (absolute frequencies in GHz, areas in gate
equivalents, power, and any comparison against other ciphers) are not
reproducible at desk scale and are deliberately not asserted anywhere;
criteria 1 through 8 stand in for them at the level of exact arithmetic,
bit-exact simulation and directional depth properties.
"""

import random

import pytest

from grainkit import (
    KeyIv,
    SystemState,
    generate_keystream,
    initialize,
    keystream,
    load,
    pack_bits,
    run,
    step,
    tap_trace,
    variant,
)
from grainkit.anf import Anf, Term, parse_term
from grainkit.engine import RegisterSpec
from grainkit.timing import critical_depths
from grainkit.transform import (
    allowed_feedback_positions,
    check_equivalence_exhaustive,
    check_script,
    check_uniform,
    collapse_to_fibonacci,
    max_hw_parallel_degree,
    min_terminal_bit,
    required_terminal_bit,
    terminal_bit,
    unshift_sources,
)
from conftest import GALOIS_VARIANTS, rand_bits

from grain_reference import grain80_keystream, grain128_keystream

# Frozen all-zero key/IV keystream prefixes (128 bits, LSB-first hex),
# official tap flavor.  Computed once from grain_reference and pinned.
PINNED_GRAIN80_ZERO_KS = "dee931cf1662a72f77d02b6b6188a8f6"
PINNED_GRAIN128_ZERO_KS = "f09b7bf7d7f6b5c2de2ffc73ac21397f"

FAMILIES = {
    "grain80": ("grain80-galois-1", "grain80-galois-4", "grain80-galois-8"),
    "grain128": (
        "grain128-galois-1",
        "grain128-galois-4",
        "grain128-galois-8",
        "grain128-galois-16",
    ),
}


def test_criterion_01_terminal_bit_arithmetic():
    sys80 = variant("grain80-fib").system
    sys128 = variant("grain128-fib").system
    assert min_terminal_bit(sys80.register("b").feedback[79], "b") == 54
    assert min_terminal_bit(sys128.register("b").feedback[127], "b") == 64
    assert required_terminal_bit(sys80, "b") == 63
    assert required_terminal_bit(sys128, "b") == 95
    print("ACCEPTANCE 1 PASS: terminal-bit arithmetic 54/64 and 63/95")


def test_criterion_02_feedback_position_lists():
    expected = {
        (80, 63, 4): (79, 75, 71, 67),
        (80, 63, 8): (79, 71),
        (80, 63, 16): (79,),
        (128, 95, 4): (127, 123, 119, 115, 111, 107, 103, 99),
        (128, 95, 8): (127, 119, 111, 103),
        (128, 95, 16): (127, 111),
        (128, 95, 32): (127,),
    }
    for (n, t, k), want in expected.items():
        assert allowed_feedback_positions(n, t, k) == want, (n, t, k)
    print("ACCEPTANCE 2 PASS: all seven feedback-position lists reproduced")


def test_criterion_03_uniformity_of_bundled_variants():
    for name in GALOIS_VARIANTS:
        v = variant(name)
        expect = 63 if name.startswith("grain80") else 95
        assert v.terminals["b"] == expect
        for reg in v.system.registers:
            report = check_uniform(reg, terminal=v.terminals[reg.id])
            assert report.uniform, (name, reg.id, report.violations)
    for name in ("grain80-fib", "grain128-fib"):
        for reg in variant(name).system.registers:
            assert check_uniform(reg).uniform
    print("ACCEPTANCE 3 PASS: all bundled variants uniform at terminal bits 63/95")


def test_criterion_04_collapse_reconstruction():
    for name in GALOIS_VARIANTS:
        v = variant(name)
        fib = v.fib_variant()
        for reg in v.system.registers:
            assert collapse_to_fibonacci(reg) == fib.system.register(reg.id), (
                name,
                reg.id,
            )
    # the as-printed 1 bit/cycle Grain-128 list must fail, with the
    # duplicated product diagnosed, and pass after the repair
    bad = variant("grain128-galois-1", "as-printed").system.register("b")
    want = variant("grain128-fib").system.register("b")
    got = collapse_to_fibonacci(bad)
    dup = parse_term("b[3]*b[67]")
    assert got != want
    assert got.feedback[127].terms ^ want.feedback[127].terms == {dup}
    assert unshift_sources(bad, dup) == (124, 127)
    print(
        "ACCEPTANCE 4 PASS: collapse reconstructs every printed feedback; "
        "as-printed duplicate b[3]*b[67] detected"
    )


def _random_uniform_transformation(rng, sizes=(5, 12)):
    """Random Fibonacci register with an accepted downward shift script."""
    while True:
        n = rng.randint(*sizes)
        nterms = min(rng.randint(1, 4), 2 ** (n - 2) - 1)  # r[1..n-2] bounds the terms
        terms = set()
        while len(terms) < nterms:
            degree = rng.choice((1, 1, 2, 2, 3))
            idxs = rng.sample(range(1, n - 1), min(degree, n - 2))
            terms.add(Term.of("r", *idxs))
        fib = RegisterSpec("r", n, {n - 1: Anf(frozenset(terms | {Term.of("r", 0)}))})
        floor = min_terminal_bit(fib.feedback[n - 1], "r")
        if floor > n - 2:
            continue
        terminal = rng.randint(floor, n - 2)
        positions = allowed_feedback_positions(n, terminal, 1)
        for _ in range(50):
            moves = []
            for term in sorted(terms, key=str):
                idxs = [v.idx for v in term.vars]
                lo, hi = min(idxs), max(idxs)
                feasible = [
                    p
                    for p in positions
                    if p != n - 1
                    and (n - 1 - p) <= lo
                    and hi - (n - 1 - p) <= terminal
                ]
                if hi <= terminal and (not feasible or rng.random() < 0.25):
                    continue
                if not feasible:
                    break
                from grainkit.transform import ShiftMove

                moves.append(
                    ShiftMove("r", n - 1, rng.choice(feasible), frozenset({term}))
                )
            else:
                moves.sort(key=lambda m: -m.dest)
                result = check_script(fib, tuple(moves))
                if result.ok and moves:
                    return fib, result.spec


def _mutate_one_term(rng, spec):
    """Replace one variable of one product term, keeping indices in range."""
    bit = rng.choice(spec.explicit_bits())
    expr = spec.feedback[bit]
    term = rng.choice(sorted(expr.terms, key=str))
    old = rng.choice(sorted(term.vars))
    candidates = [i for i in range(spec.length) if i != old.idx]
    new_term = Term((term.vars - {old}) | {type(old)(old.reg, rng.choice(candidates))})
    feedback = dict(spec.feedback)
    feedback[bit] = Anf((expr.terms - {term}) | {new_term}, expr.const)
    return RegisterSpec(spec.id, spec.length, feedback)


def test_criterion_05_randomized_transformations_brute_force():
    rng = random.Random(0x5EED)
    cases = [_random_uniform_transformation(rng) for _ in range(100)]
    for fib, gal in cases:
        verdict = check_equivalence_exhaustive(fib, gal)
        assert verdict.equal, (fib, gal)
    mutated_checked = 0
    for fib, gal in cases[:15]:
        bad = _mutate_one_term(rng, gal)
        if bad == gal:
            continue
        verdict = check_equivalence_exhaustive(fib, bad)
        assert not verdict.equal, (fib, gal, bad)
        mutated_checked += 1
    assert mutated_checked >= 10
    print(
        f"ACCEPTANCE 5 PASS: {len(cases)} randomized uniform transformations "
        f"equivalent by enumeration; {mutated_checked} single-term mutations all detected"
    )


def _delayed_copy_holds(trace, upto):
    cycles = len(trace)
    for i in range(1, upto + 1):
        for c in range(cycles - i):
            if trace[c][i] != trace[c + i][0]:
                return False
    return True


def test_criterion_06_full_cipher_equivalence():
    rng = random.Random(0xACCE)
    ks_bits = 1024
    pairs_per_family = 20
    tap_cycles = 160
    for family, galois_names in FAMILIES.items():
        fib = variant(f"{family}-fib")
        for pair_index in range(pairs_per_family):
            kiv = KeyIv(
                rand_bits(rng, fib.key_bits), rand_bits(rng, fib.iv_bits)
            )
            fib_post = initialize(fib, load(fib, kiv))
            fib_ks, _ = generate_keystream(fib, fib_post, ks_bits)
            compare_taps = pair_index < 2
            if compare_taps:
                fib_taps = {
                    reg.id: tap_trace(fib.system, fib_post, tap_cycles, reg.id)
                    for reg in fib.system.registers
                }
            for name in galois_names:
                gal = variant(name)
                gal_post = initialize(gal, load(gal, kiv), mode="equivalence")
                gal_ks, _ = generate_keystream(gal, gal_post, ks_bits)
                assert gal_ks == fib_ks, (name, pair_index)
                if compare_taps:
                    for reg in gal.system.registers:
                        upto = gal.terminals[reg.id]
                        gal_tap = tap_trace(
                            gal.system, gal_post, tap_cycles, reg.id
                        )
                        for c in range(tap_cycles):
                            assert (
                                gal_tap[c][: upto + 1]
                                == fib_taps[reg.id][c][: upto + 1]
                            ), (name, reg.id, c)

    # native runs: bits at or below the terminal stay delayed copies of the
    # output through initialization and key generation alike
    for name in GALOIS_VARIANTS:
        gal = variant(name)
        kiv = KeyIv(rand_bits(rng, gal.key_bits), rand_bits(rng, gal.iv_bits))
        state = load(gal, kiv)
        init_rows = tap_trace(
            gal.system, state, gal.init_cycles, "b", modes={"init"}
        )
        _, after = run(gal.system, state, gal.init_cycles, modes={"init"})
        keygen_rows = tap_trace(gal.system, after, 128, "b")
        assert _delayed_copy_holds(init_rows + keygen_rows, gal.terminals["b"])
    print(
        f"ACCEPTANCE 6 PASS: keystreams bitwise equal for "
        f"{pairs_per_family} key/IV pairs x {ks_bits} bits per variant; "
        f"tap columns 0..terminal aligned in both phases"
    )


def test_criterion_07_parallel_degrees():
    assert max_hw_parallel_degree(variant("grain80-fib").system) == 16
    assert max_hw_parallel_degree(variant("grain128-fib").system) == 32
    rng = random.Random(0x0717)
    for name in GALOIS_VARIANTS:
        v = variant(name)
        k = v.parallel_degree
        # feedback positions compatible with k-fold unrolling; with k = 1
        # there is no unrolling constraint and the terminal bit itself
        # may carry feedback
        for reg in v.system.registers:
            allowed = set(
                allowed_feedback_positions(reg.length, v.terminals[reg.id], k)
            )
            if k == 1:
                allowed.add(v.terminals[reg.id])
            assert set(reg.explicit_bits()) <= allowed, (name, reg.id)
        # producing k bits per cycle is exactly k unit steps
        state = SystemState.from_bits(
            v.system,
            {"b": rand_bits(rng, v.key_bits), "s": rand_bits(rng, v.key_bits)},
        )
        _, via_run = run(v.system, state, k)
        stepped = state
        for _ in range(k):
            stepped = step(v.system, stepped)
        assert via_run == stepped
    print("ACCEPTANCE 7 PASS: parallel degrees 16/32; k cycles equal k unit steps")


def test_criterion_08_timing_direction():
    for family, galois_names in FAMILIES.items():
        fib_report = critical_depths(variant(f"{family}-fib").system)
        fib_worst = max(fib_report.register_depths.values())
        for name in galois_names:
            report = critical_depths(variant(name).system)
            assert max(report.register_depths.values()) < fib_worst, name
            if report.init_depth > report.keygen_depth:
                assert report.divider in (2, 4), name
    print(
        "ACCEPTANCE 8 PASS: every transformed variant shortens the register "
        "path; divider is 2 or 4 whenever the init loop dominates"
    )


def test_criterion_09_out_of_scope_documented():
    # Absolute synthesis figures (GHz, gate equivalents, mW) and
    # comparisons against other ciphers need an ASIC flow; criteria 1-8
    # are the desk-scale substitutes.  Nothing to execute.
    print(
        "ACCEPTANCE 9 PASS (by substitution): synthesis-flow figures are out "
        "of scope; covered by criteria 1-8"
    )


def test_criterion_10_pinned_regression_vectors():
    zero80 = KeyIv((0,) * 80, (0,) * 64)
    zero128 = KeyIv((0,) * 128, (0,) * 96)
    eng80 = pack_bits(keystream(variant("grain80-fib"), zero80, 128))
    eng128 = pack_bits(keystream(variant("grain128-fib"), zero128, 128))
    ref80 = pack_bits(grain80_keystream([0] * 80, [0] * 64, 128))
    ref128 = pack_bits(grain128_keystream([0] * 128, [0] * 96, 128))
    assert eng80 == PINNED_GRAIN80_ZERO_KS
    assert eng128 == PINNED_GRAIN128_ZERO_KS
    assert ref80 == PINNED_GRAIN80_ZERO_KS
    assert ref128 == PINNED_GRAIN128_ZERO_KS
    print("ACCEPTANCE 10 PASS: pinned all-zero keystream prefixes reproduced")
