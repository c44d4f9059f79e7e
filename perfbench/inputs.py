"""Seeded inputs for the grainkit benchmark.

Everything here runs before timing starts, in the benchmark's parent
process.  The measured process only ever sees what these functions
return: hex keys and IVs, key/IV bit tuples, and register documents
written to disk.

Exhaustive-check pairs are labelled with the verdict they must get:

* an equal pair is a random Fibonacci register and the Galois register
  that an accepted downward shift script (``transform.check_script``)
  turns it into, so it is equal by construction;
* an unequal pair replaces one variable of one term of such a Galois
  register, and is kept only when this module's own simulator shows
  that the two registers' multisets of output prefixes differ at a short
  horizon.  Longer prefixes refine shorter ones, so the multisets then
  differ at every longer horizon too, including the checker's default.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

REGISTER_BITS = 14
EQUAL_PAIRS = 4
UNEQUAL_PAIRS = 2
# Output-prefix length at which an unequal pair must already show a
# difference; 16384 states times 32 steps keeps generation under a second.
WITNESS_HORIZON = 32

FAMILY_SIZES = {"grain80": (80, 64), "grain128": (128, 96)}


def hex_digits(rng: random.Random, nbits: int) -> str:
    return f"{rng.getrandbits(nbits):0{nbits // 4}x}"


def bit_tuple(rng: random.Random, nbits: int) -> tuple[int, ...]:
    word = rng.getrandbits(nbits)
    return tuple((word >> i) & 1 for i in range(nbits))


def family_hex_keyivs(rng: random.Random) -> dict[str, tuple[str, str]]:
    """One (key hex, IV hex) per cipher family."""
    return {
        fam: (hex_digits(rng, kbits), hex_digits(rng, ivbits))
        for fam, (kbits, ivbits) in FAMILY_SIZES.items()
    }


# --- exhaustive-check pairs -------------------------------------------------


def _random_fibonacci(rng: random.Random, n: int):
    from grainkit.anf import Anf, Term
    from grainkit.engine import RegisterSpec

    terms = set()
    count = rng.randint(2, 4)
    while len(terms) < count:
        degree = rng.choice((1, 2, 2, 3))
        terms.add(Term.of("r", *rng.sample(range(1, n - 1), degree)))
    top = Anf(frozenset(terms | {Term.of("r", 0)}))
    return RegisterSpec("r", n, {n - 1: top}), terms


def _shifted(rng: random.Random, n: int):
    """A (Fibonacci, Galois) pair related by an accepted shift script."""
    from grainkit.transform import ShiftMove, check_script, min_terminal_bit

    while True:
        fib, terms = _random_fibonacci(rng, n)
        floor = min_terminal_bit(fib.feedback[n - 1], "r")
        if floor > n - 3:
            continue
        terminal = rng.randint(floor, n - 3)
        moves = []
        for term in sorted(terms, key=str):
            own = [v.idx for v in term.vars]
            dests = [
                p
                for p in range(terminal + 1, n - 1)
                if n - 1 - p <= min(own) and max(own) - (n - 1 - p) <= terminal
            ]
            if dests:
                moves.append(ShiftMove("r", n - 1, rng.choice(dests), frozenset({term})))
        if not moves:
            continue
        moves.sort(key=lambda m: -m.dest)
        result = check_script(fib, tuple(moves))
        if result.ok:
            return fib, result.spec


def _mutated(rng: random.Random, reg):
    from grainkit.anf import Anf, Term, Var
    from grainkit.engine import RegisterSpec

    bit = rng.choice(sorted(reg.feedback))
    expr = reg.feedback[bit]
    term = rng.choice(sorted(expr.terms, key=str))
    old = rng.choice(sorted(term.vars))
    new = Var(old.reg, rng.choice([i for i in range(reg.length) if i != old.idx]))
    swapped = Term((term.vars - {old}) | {new})
    feedback = dict(reg.feedback)
    feedback[bit] = Anf((expr.terms - {term}) | {swapped}, expr.const)
    return RegisterSpec(reg.id, reg.length, feedback)


def _next_state_table(reg) -> list[int]:
    """Successor of every state of an autonomous register, bit 0 is the output."""
    n = reg.length
    rows = []
    for bit, expr in reg.feedback.items():
        masks = [sum(1 << v.idx for v in term.vars) for term in expr.terms]
        rows.append((~(1 << bit), bit, expr.const, masks))
    table = []
    for s in range(1 << n):
        t = (s >> 1) | ((s & 1) << (n - 1))
        for clear, bit, const, masks in rows:
            v = const
            for m in masks:
                if s & m == m:
                    v ^= 1
            t = (t & clear) | (v << bit)
        table.append(t)
    return table


def prefix_multiset(reg, horizon: int) -> Counter:
    table = _next_state_table(reg)
    cur = list(range(len(table)))
    prefix = [0] * len(table)
    for _ in range(horizon):
        prefix = [(p << 1) | (c & 1) for p, c in zip(prefix, cur)]
        cur = [table[c] for c in cur]
    return Counter(prefix)


def _render(reg, name: str) -> str:
    lines = [f"system {name}", f"register {reg.id} {reg.length}"]
    for bit in sorted(reg.feedback, reverse=True):
        expr = reg.feedback[bit]
        parts = sorted("*".join(f"{v.reg}[{v.idx}]" for v in sorted(t.vars)) for t in expr.terms)
        if expr.const:
            parts.append("1")
        lines.append(f"feedback {reg.id}[{bit}] = {' + '.join(parts)}")
    return "\n".join(lines) + "\n"


def exhaustive_pairs(rng: random.Random, out_dir: Path) -> list[dict]:
    """Write seeded register pairs to ``out_dir``; return them with expected verdicts."""
    n = REGISTER_BITS
    pairs = []
    while len(pairs) < EQUAL_PAIRS + UNEQUAL_PAIRS:
        fib, gal = _shifted(rng, n)
        want_equal = len(pairs) < EQUAL_PAIRS
        other = gal if want_equal else _mutated(rng, gal)
        same = prefix_multiset(fib, WITNESS_HORIZON) == prefix_multiset(other, WITNESS_HORIZON)
        if want_equal and not same:
            raise RuntimeError("shift script produced registers with different outputs")
        if not want_equal and same:
            continue
        index = len(pairs)
        paths = []
        for side, reg in (("a", fib), ("b", other)):
            path = out_dir / f"pair{index}_{side}.fsr"
            path.write_text(_render(reg, f"pair{index}{side}"), encoding="utf-8")
            paths.append(str(path))
        pairs.append({"a": paths[0], "b": paths[1], "equal": want_equal})
    return pairs
