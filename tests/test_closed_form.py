"""The closed-form tail plan against the bit-by-bit walk it replaced.

``_walk`` is the reference: one walk up each register from its terminal
bit, phi_{t+1} = g_t and phi_{i+1} = phi_i read one cycle on XOR g_i,
re-lifting every accumulated product at every bit.  The collapse, the
packed-word state mapping and the slice mapping must match it bit for
bit, refusals included.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from grainkit import transform, variant
from grainkit.anf import Anf, ForeignVariableError, Term, Var, evaluate
from grainkit.engine import RegisterSpec, SystemSpec, SystemState
from grainkit.transform import (
    auto_distribute,
    check_uniform,
    collapse_to_fibonacci,
    feedback_tail,
    map_system_state,
    min_terminal_bit,
    terminal_bit,
)
from conftest import GALOIS_VARIANTS, rand_bits

SRC = Path(__file__).resolve().parent.parent / "src"


def _walk(spec: RegisterSpec) -> list[tuple[int, set[frozenset[int]]]]:
    """phi_{t+1} .. phi_{n-1}, each as its constant and its products' own-index sets."""
    n = spec.length
    phi: set[frozenset[int]] = set()
    const, phis = 0, []
    for bit in range(terminal_bit(spec), n - 1):
        phi = {frozenset((i + 1) % n for i in p) for p in phi}
        if bit in spec.feedback:
            g = feedback_tail(spec, bit)
            for v in sorted(g.support()):
                if v.reg != spec.id:
                    raise ForeignVariableError(
                        f"bit {bit} mixes in {v}; only the top bit may use other registers"
                    )
            phi ^= {frozenset(v.idx for v in term.vars) for term in g.terms}
            const ^= g.const
        phis.append((const, phi))
    return phis


def _walk_collapse(spec: RegisterSpec) -> RegisterSpec:
    """The top bit's shift term XOR phi_n: the walk's last phi read one cycle on."""
    n = spec.length
    phis = _walk(spec)
    const, phi = phis[-1] if phis else (0, set())
    g = spec.tail(n - 1)
    lifted = {Term(frozenset(Var(spec.id, (i + 1) % n) for i in p)) for p in phi}
    collapse = Anf(frozenset(lifted ^ g.terms ^ {Term.of(spec.id, 0)}), const ^ g.const)
    return RegisterSpec(spec.id, n, {n - 1: collapse})


def _walk_bits(spec: RegisterSpec, bits: list[int]) -> list[int]:
    """One register's state bits, bit i > terminal XOR phi_i evaluated on them."""
    out = list(bits)
    for i, (const, phi) in enumerate(_walk(spec), terminal_bit(spec) + 1):
        out[i] ^= const ^ sum(all(bits[idx] for idx in p) for p in phi) % 2
    return out


def _evaluated_bits(spec: RegisterSpec, bits: list[int]) -> list[int]:
    """The same mapping from ``evaluate`` of every tail at every lag."""
    out, t = list(bits), terminal_bit(spec)
    for i in range(t + 1, spec.length):
        for j in spec.explicit_bits():
            if t <= j < i:
                g, lag = spec.tail(j), i - 1 - j
                out[i] ^= evaluate(g, {v: bits[v.idx + lag] for v in g.support()})
    return out


def _outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except (ValueError, ForeignVariableError) as exc:
        return type(exc), str(exc)


def _random_register(rng: random.Random) -> RegisterSpec:
    """Seeded random register: n 2..40, any own indices, constants and foreign terms.

    Half the registers keep every own index of a tail at or below a random
    terminal, so they are often uniform; the rest wrap mod n when lifted.
    A tail may lose its shift term or read the shift variable
    (non-singular), and a foreign variable may land below the top.
    """
    n = rng.randint(2, 40)
    top = n - 1
    t = rng.randrange(n)
    bounded = rng.random() < 0.5
    feedback = {}
    bits = {top} | {b for b in range(t if bounded else 0, top) if rng.random() < 0.3}
    for bit in bits:
        terms = set()
        if rng.random() < 0.97:
            terms.add(Term.of("r", (bit + 1) % n))
        for _ in range(rng.randint(0, 4)):
            pool = range(t + 1) if bounded else range(n)
            degree = rng.randint(1, min(3, len(pool)))
            terms ^= {Term.of("r", *rng.sample(pool, degree))}
        if rng.random() < (0.5 if bit == top else 0.04):
            own = [Var("r", rng.randrange(n))] if rng.random() < 0.5 else []
            foreign = rng.sample(range(8), rng.randint(1, 3))
            terms ^= {Term(frozenset(own + [Var("q", i) for i in foreign]))}
        feedback[bit] = Anf(frozenset(terms), rng.randrange(2))
    return RegisterSpec("r", n, feedback)


def test_collapse_matches_the_walk_on_random_registers():
    rng = random.Random(0xC105ED)
    seen = {"uniform": 0, "not uniform": 0, "foreign top": 0, "constant": 0, "refused": 0}
    refusals = set()
    for _ in range(2000):
        spec = _random_register(rng)
        got = _outcome(lambda: collapse_to_fibonacci(spec))
        assert got == _outcome(lambda: _walk_collapse(spec)), spec
        if isinstance(got, tuple):
            seen["refused"] += 1
            refusals.add(got[0])
            continue
        seen["uniform" if check_uniform(spec).uniform else "not uniform"] += 1
        top = spec.expr(spec.length - 1)
        seen["foreign top"] += any(v.reg != "r" for v in top.support())
        seen["constant"] += any(spec.expr(b).const for b in spec.explicit_bits())
    assert min(seen.values()) >= 100, seen
    assert refusals == {ValueError, ForeignVariableError}


def test_foreign_refusal_names_the_lowest_bit_and_variable():
    spec = RegisterSpec("r", 8, {
        7: Anf.parse("r[0] + q[7]"),
        5: Anf.parse("r[6] + q[1]*q[4]*q[6]"),
        3: Anf.parse("r[4] + p[2]*q[0]"),
    })
    message = "bit 3 mixes in p[2]; only the top bit may use other registers"
    for call in (collapse_to_fibonacci, _walk_collapse):
        with pytest.raises(ForeignVariableError) as info:
            call(spec)
        assert str(info.value) == message


def _check_pair(fib: SystemSpec, gal: SystemSpec, rng: random.Random, states: int) -> None:
    """``map_system_state`` and the slice mapping against the walk on random states."""
    plans = transform._state_mapper(fib, gal)
    drawn = [{r.id: list(rand_bits(rng, r.length)) for r in fib.registers} for _ in range(states)]
    want = [
        {r.id: _walk_bits(r, s[r.id]) for r in gal.registers} for s in drawn
    ]
    for s, w in zip(drawn, want):
        assert w == {r.id: _evaluated_bits(r, s[r.id]) for r in gal.registers}
    # the slice mapping: one lane word per register, bit i of state m at bit i * states + m
    for r in gal.registers:
        word = sum(s[r.id][i] << i * states + m for m, s in enumerate(drawn) for i in range(r.length))
        mapped = transform._map_word(word, r.length, plans[r.id], states)
        for m, w in enumerate(want):
            assert [mapped >> i * states + m & 1 for i in range(r.length)] == w[r.id]
    # the packed words, through every check map_system_state makes
    collapses = all(collapse_to_fibonacci(r) == fib.register(r.id) for r in gal.registers)
    for s, w in zip(drawn, want):
        cycle = rng.randrange(1000)
        state = SystemState.from_bits(fib, s, cycle)
        got = _outcome(lambda: map_system_state(fib, gal, state))
        if collapses:
            assert got == SystemState.from_bits(gal, w, cycle)
        else:
            assert got[1].endswith("does not collapse to the source register")


@pytest.mark.parametrize("flavour", ["official", "as-printed"])
@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_state_mappings_match_the_walk_on_bundled_pairs(name, flavour, rng):
    v = variant(name, flavour)
    _check_pair(v.fib_variant().system, v.system, rng, 24)


def test_state_mappings_match_the_walk_on_random_uniform_registers():
    """Random registers that pass the pair rule, against their own collapses.

    These carry what the bundled and distributed pairs do not: constants
    in tails below the top, terminal bits down to 0, and foreign terms at
    the top, read from a register ``q`` that both systems declare.
    """
    rng = random.Random(0x0D15C)
    q = RegisterSpec("q", 8)
    pairs, terminals, constants, foreign = 0, set(), 0, 0
    terminal_0 = RegisterSpec("r", 5, {  # every bit above 0 absorbs a lagged tail
        4: Anf.parse("r[0] + q[3] + 1"),
        2: Anf.parse("r[3] + r[0]"),
        0: Anf.parse("r[1] + r[0] + 1"),
    })
    drawn = (_random_register(rng) for _ in itertools.count())
    for gal in itertools.chain([terminal_0], drawn):
        if pairs == 200:
            break
        plan = _outcome(lambda: transform._tail_plan(gal))
        if isinstance(plan, tuple) or not check_uniform(gal).uniform:
            continue
        fib = collapse_to_fibonacci(gal)
        _check_pair(SystemSpec([fib, q]), SystemSpec([gal, q]), rng, 4)
        pairs += 1
        terminals.add(terminal_bit(gal))
        constants += any(const for _, const, _ in plan)
        foreign += any(v.reg == "q" for v in gal.expr(gal.length - 1).support())
    assert 0 in terminals and min(constants, foreign) >= 50, (terminals, constants, foreign)


def _random_fibonacci(rng: random.Random, rid: str) -> RegisterSpec:
    n = rng.randint(3, 24)
    terms = set()
    linear_only = rng.random() < 0.3  # spread 0, so terminal 0 is a legal request
    for _ in range(rng.randint(1, 6)):
        degree = 1 if linear_only else rng.randint(1, 3)
        terms ^= {Term.of(rid, *rng.sample(range(1, n), min(degree, n - 1)))}
    top = Anf(frozenset(terms | {Term.of(rid, 0)}), rng.randrange(2))
    return RegisterSpec(rid, n, {n - 1: top})


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_state_mappings_match_the_walk_on_auto_distributed_pairs(k):
    rng = random.Random(0xD157 + k)
    terminals = set()
    for _ in range(12):
        fibs, gals = [], []
        for rid in ("r", "q"):  # two registers, so the slice mapping's offsets count
            fib = _random_fibonacci(rng, rid)
            floor = min_terminal_bit(fib.expr(fib.length - 1), rid)
            terminal = rng.choice([floor, rng.randint(floor, fib.length - 1)])
            terminals.add(terminal)
            fibs.append(fib)
            gals.append(auto_distribute(fib, terminal, k).spec)
        _check_pair(SystemSpec(fibs), SystemSpec(gals), rng, 8)
    assert 0 in terminals


_SITES = r"""
from grainkit.anf import parse_expr
from grainkit.engine import OutputSpec, RegisterSpec, SystemSpec, SystemState
from grainkit.transform import (ShiftMove, apply_shift, check_equivalence_exhaustive,
                                collapse_to_fibonacci, map_system_state)

def said(call):
    try:
        call()
    except ValueError as exc:
        print(f"{type(exc).__name__}: {exc}")

fib = SystemSpec([RegisterSpec("r", 8, {7: parse_expr("r[0] + r[3]")})],
                 [OutputSpec("Z", parse_expr("r[2]*r[5]*r[6] + r[7]"))])
gal = SystemSpec([RegisterSpec("r", 8, {7: parse_expr("r[0]"), 3: parse_expr("r[4] + r[0]")})],
                 fib.outputs)
said(lambda: collapse_to_fibonacci(
    RegisterSpec("r", 8, {7: parse_expr("r[0]"), 5: parse_expr("r[6] + q[1]*q[4]*q[6]")})))
said(lambda: map_system_state(fib, gal, SystemState.zeros(fib)))
said(lambda: check_equivalence_exhaustive(
    RegisterSpec("r", 4, {3: parse_expr("r[0] + q[1]*q[2]*q[3]")}), RegisterSpec("r", 4)))
said(lambda: RegisterSpec("r", 4, {3: parse_expr("r[0] + r[5]*r[6]*r[9]")}))
said(lambda: SystemSpec([RegisterSpec("r", 4, {3: parse_expr("r[0] + q[1]*p[2]*x[3]")})]))
said(lambda: SystemSpec([RegisterSpec("r", 4, {3: parse_expr("r[0] + q[1]*q[5]*q[7]")}),
                         RegisterSpec("q", 2)]))
said(lambda: apply_shift(RegisterSpec("r", 4, {3: parse_expr("r[0] + q[1]*r[2] + p[3]")}),
                         ShiftMove("r", 3, 2, parse_expr("q[1]*r[2] + p[3]").terms)))
"""

_LOWEST = [
    "ForeignVariableError: bit 5 mixes in q[1]; only the top bit may use other registers",
    "ValueError: output 'Z' taps r[5] above that register's terminal bit 3; "
    "sequences there are not preserved",
    "ForeignVariableError: register 'r' is not autonomous: feedback uses q[1]",
    "ValueError: variable r[5] out of range for register 'r'",
    "ValueError: feedback r[3] references undeclared register 'p'",
    "ValueError: feedback r[3] references q[5] beyond length 2",
    "ForeignVariableError: term p[3] mentions register 'p'; only 'r' variables can be remapped",
]


def test_refusals_name_the_lowest_variable_whatever_the_hash_seed():
    said = []
    for seed in ("1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", _SITES], env=env, capture_output=True, text=True, check=True
        )
        said.append(proc.stdout.splitlines())
    assert said[0] == said[1] == _LOWEST
