"""Fibonacci-to-Galois shift-register transformation and its verification.

A Fibonacci register computes all of its feedback at the top bit; a
Galois register spreads product terms over several bits, shortening the
combinational paths.  Moving a term set from bit i to bit j ("shifting")
remaps every index k to (k - i + j) mod n.  Shifting preserves the set
of output sequences as long as every intermediate register stays
uniform: each feedback is the next bit XOR logic that avoids it, and no
logic from the terminal bit up reads a bit above the terminal bit.

This module implements the shifting machinery, the uniformity and
terminal-bit arithmetic, parallelization constraints, a greedy automatic
distributor, the inverse collapse, the initial-state mapping between
equivalent systems, and two equivalence checkers (exact partition
refinement for small registers, seeded-random mapped simulation at scale).

Every correspondence between the forms starts from one split,
``RegisterSpec.tail``: ``f_j = x[j+1] ^ g_j`` (Dubrova 2009).  Uniformity
reads the shift variable in g_j.  Bit i above a register's terminal bit t
absorbs phi_i, the XOR over t <= j < i of g_j read i - 1 - j cycles on,
and the collapse is the top bit's shift term XOR phi_n, one bit past the
top.  Each is read in closed form from one plan of the tails: the
collapse lifts each tail once, and ``map_system_state``, the one
state-mapping routine, maps a packed word in the engine's lane form,
x = w ^ XOR_j G_j << (j + 1).  It and the mapped check share one
preparation of the pair, plans included, and one word mapping, which
the check runs on lanes one bit per trial.

The exact checker reads every state's output prefix of up to 64 bits
from one bitsliced walk over all states, and uses those raw prefixes as
the classes; numbered refinement by doubling covers only the horizon past
64 bits.  It stops at the first length where the two sides' prefix
multisets differ.
"""

from __future__ import annotations

import functools
import random
import re
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import takewhile, zip_longest
from typing import Iterable, Iterator, Sequence

from .anf import (
    Anf,
    ExprError,
    ForeignVariableError,
    Term,
    parse_term,
    remap_indices,
    term_sort_key,
    xor_merge,
)
from .engine import RegisterSpec, SystemSpec, SystemState
from .timing import product_depth

__all__ = [
    "ShiftMove",
    "ScriptResult",
    "Violation",
    "UniformityReport",
    "Distribution",
    "ExhaustiveVerdict",
    "MappedVerdict",
    "MissingTermError",
    "terminal_bit",
    "min_terminal_bit",
    "required_terminal_bit",
    "apply_shift",
    "check_uniform",
    "check_script",
    "allowed_feedback_positions",
    "max_hw_parallel_degree",
    "auto_distribute",
    "collapse_to_fibonacci",
    "map_system_state",
    "check_equivalence_exhaustive",
    "check_equivalence_mapped",
    "parse_shift_script",
    "format_shift_script",
    "EXHAUSTIVE_LIMIT_BITS",
]

EXHAUSTIVE_LIMIT_BITS = 20
_SLICE_TRIALS = 1024  # trials the mapped check steps at once, one per bit of a word
# A slice of T trials in blocks of k cycles steps on the lane kernel when
# T <= _LANE_TRIALS * (k - 1), and bitsliced otherwise (measured; see README).
_LANE_TRIALS = 10


class MissingTermError(ValueError):
    """A shift move names terms that the source feedback does not hold."""


@dataclass(frozen=True)
class ShiftMove:
    """Move ``terms`` (in source coordinates) from bit ``source`` to ``dest``."""

    register: str
    source: int
    dest: int
    terms: frozenset[Term]

    def __post_init__(self):
        if not isinstance(self.terms, frozenset):
            object.__setattr__(self, "terms", frozenset(self.terms))


@dataclass(frozen=True)
class Violation:
    bit: int
    reason: str  # non-singular | depends-on-successor | index-above-terminal
    detail: str = ""


@dataclass(frozen=True)
class UniformityReport:
    uniform: bool
    terminal: int
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class ScriptResult:
    ok: bool
    spec: RegisterSpec | None
    failed_move: int | None = None
    reason: str = ""
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Distribution:
    spec: RegisterSpec
    script: tuple[ShiftMove, ...]


@dataclass(frozen=True)
class ExhaustiveVerdict:
    equal: bool
    states: int
    horizon: int
    counterexample: "PrefixCounterexample | None" = None


@dataclass(frozen=True)
class PrefixCounterexample:
    state: int  # of the first register
    prefix: tuple[int, ...]


@dataclass(frozen=True)
class MappedVerdict:
    equal: bool
    trials: int
    cycles: int
    counterexample: "DivergencePoint | None" = None


@dataclass(frozen=True)
class DivergencePoint:
    trial: int
    register: str
    cycle: int
    bit: int


def feedback_tail(spec: RegisterSpec, bit: int) -> Anf:
    """``spec.tail(bit)`` of a singular feedback function.

    The feedback is singular when its tail avoids the shift variable
    (which also means it holds the shift term); otherwise this raises
    ValueError.
    """
    g = spec.tail(bit)
    if spec.shift_var(bit) in g.support():
        raise ValueError(f"feedback of bit {bit} of {spec.id!r} is not singular")
    return g


def terminal_bit(spec: RegisterSpec) -> int:
    """Largest t such that every bit below t is a pure shift."""
    explicit = spec.explicit_bits()
    return min(explicit) if explicit else spec.length - 1


def min_terminal_bit(expr: Anf, register: str) -> int:
    """Lower bound on the terminal bit: max index spread of any product term.

    Variables of other registers are ignored; they stay put under
    shifting and do not constrain the terminal position.
    """
    worst = 0
    for term in expr.terms:
        own = [v.idx for v in term.vars if v.reg == register]
        if own:
            worst = max(worst, max(own) - min(own))
    return worst


def required_terminal_bit(system: SystemSpec, reg_id: str) -> int:
    """Lowest terminal bit that keeps both shifting and the outputs intact.

    Combining outputs tap register bits directly; any tapped bit must
    stay a delayed copy of bit 0, which forces the terminal bit up to the
    highest tapped index.
    """
    reg = system.register(reg_id)
    bound = min_terminal_bit(reg.expr(reg.length - 1), reg_id)
    for out in system.outputs:
        for v in out.expr.support():
            if v.reg == reg_id:
                bound = max(bound, v.idx)
    return bound


def check_uniform(spec: RegisterSpec, terminal: int | None = None) -> UniformityReport:
    """Check singularity of every feedback and the terminal-bit index bound.

    ``terminal`` defaults to the structural terminal bit; a caller may
    pass a lower declared terminal to check against instead.  The index
    bound holds from the terminal bit up: no tail, the terminal bit's
    included, reads an own bit above the terminal.  Variables of other
    registers are exempt: they ride along unshifted and have no position
    in this register's coordinates.
    """
    structural = terminal_bit(spec)
    t = structural if terminal is None else terminal
    if t < 0:
        raise ValueError(f"declared terminal {t} is negative")
    if t > structural:
        raise ValueError(
            f"declared terminal {t} exceeds structural terminal {structural}"
        )
    violations: list[Violation] = []
    for bit in spec.explicit_bits():
        g, shift_var = spec.tail(bit), spec.shift_var(bit)
        support = g.support()
        if Term(frozenset({shift_var})) in g.terms:
            # the split XORed the shift term in: the feedback lacked it
            violations.append(
                Violation(bit, "non-singular", f"feedback lacks the shift term {shift_var}")
            )
        elif shift_var in support:
            violations.append(
                Violation(
                    bit, "depends-on-successor", f"logic besides the shift uses {shift_var}"
                )
            )
        else:
            bad = sorted({v.idx for v in support if v.reg == spec.id and v.idx > t})
            if bad:
                violations.append(
                    Violation(
                        bit,
                        "index-above-terminal",
                        f"{spec.id}[{bad[-1]}] exceeds terminal {t}",
                    )
                )
    return UniformityReport(not violations, t, tuple(violations))


def apply_shift(spec: RegisterSpec, move: ShiftMove) -> RegisterSpec:
    """Apply one shift move: remove at source, remap, XOR into destination."""
    if move.register != spec.id:
        raise ValueError(f"move targets register {move.register!r}, spec is {spec.id!r}")
    n = spec.length
    for b in (move.source, move.dest):
        if not 0 <= b < n:
            raise ValueError(f"bit {b} outside register of length {n}")
    src_expr = spec.expr(move.source)
    missing = move.terms - src_expr.terms
    if missing:
        listing = ", ".join(str(t) for t in sorted(missing, key=term_sort_key))
        raise MissingTermError(
            f"terms not present in feedback of bit {move.source}: {listing}"
        )
    delta = (move.dest - move.source) % n
    remapped = remap_indices(move.terms, spec.id, delta, n)
    feedback = dict(spec.feedback)
    if move.source == move.dest:
        new_expr = xor_merge(xor_merge(src_expr, move.terms), remapped)
        feedback[move.source] = new_expr
    else:
        feedback[move.source] = xor_merge(src_expr, move.terms)
        feedback[move.dest] = xor_merge(spec.expr(move.dest), remapped)
    return RegisterSpec(spec.id, n, feedback)


def check_script(
    start: RegisterSpec,
    script: Sequence[ShiftMove],
    system: SystemSpec | None = None,
) -> ScriptResult:
    """Apply moves in order, demanding uniformity after every single move.

    Each move must go strictly downward.  When a system context is given,
    destinations below the register's required terminal bit are legal but
    flagged as warnings, since they would disturb tapped bit sequences.
    """
    report = check_uniform(start)
    if not report.uniform:
        return ScriptResult(
            False, None, None, f"starting spec is not uniform: {report.violations[0]}"
        )
    warnings: list[str] = []
    required = (
        required_terminal_bit(system, start.id) if system is not None else None
    )
    current = start
    for i, move in enumerate(script):
        if move.dest >= move.source:
            return ScriptResult(
                False, None, i, f"move {i} does not go downward ({move.source} -> {move.dest})"
            )
        try:
            current = apply_shift(current, move)
        except (MissingTermError, ForeignVariableError, ValueError) as exc:
            return ScriptResult(False, None, i, f"move {i}: {exc}")
        report = check_uniform(current)
        if not report.uniform:
            v = report.violations[0]
            return ScriptResult(
                False, None, i, f"move {i} breaks uniformity: bit {v.bit} {v.reason}"
            )
        if required is not None and move.dest < required:
            warnings.append(
                f"move {i} lands on bit {move.dest}, below the required terminal "
                f"bit {required}; tapped bit sequences will change"
            )
    return ScriptResult(True, current, warnings=tuple(warnings))


def allowed_feedback_positions(n: int, terminal: int, k: int) -> tuple[int, ...]:
    """Feedback positions compatible with k-bit-per-cycle unrolling.

    Descending from the top bit in steps of k; the top bit itself is
    always available.
    """
    count = _position_count(n, terminal, k)
    return tuple(n - 1 - i * k for i in range(count))


def _position_count(n: int, terminal: int, k: int) -> int:
    if k < 1:
        raise ValueError("parallel degree must be at least 1")
    if not 0 <= terminal <= n - 1:
        raise ValueError(f"terminal bit {terminal} outside register of length {n}")
    return max(1, (n - 1 - terminal) // k)


def max_hw_parallel_degree(system: SystemSpec) -> int:
    """Largest k with v + k - 1 <= n - 1 for every tapped variable v.

    Duplicated feedback/output logic for k bits per cycle reads bits
    v .. v+k-1, so every tap must leave k-1 bits of headroom at the top.
    """
    best = min(r.length for r in system.registers)
    for reg in system.registers:
        for expr in reg.feedback.values():
            for v in expr.support():
                best = min(best, system.register(v.reg).length - v.idx)
    for out in system.outputs:
        for v in out.expr.support():
            best = min(best, system.register(v.reg).length - v.idx)
    return best


def _default_term_cost(term: Term) -> float:
    # Depth a term contributes as a leaf of a feedback tree: its AND tree
    # plus the XOR level that absorbs it.
    return 1.0 + product_depth(term.degree)


def auto_distribute(spec: RegisterSpec, terminal: int, k: int) -> Distribution:
    """Greedy distribution of the top bit's movable terms over allowed positions.

    Terms are placed in descending cost order onto the feasible position
    whose accumulated cost is lowest, ties broken toward the higher bit.
    Terms of other registers never move.  A term that fits no position
    raises the terminal to its highest own index, where the top bit fits
    it, and every term is placed again; at terminal n - 1 the top bit fits
    every term, so this ends.
    """
    n = spec.length
    if terminal < min_terminal_bit(spec.expr(n - 1), spec.id):
        raise ValueError(
            f"terminal {terminal} is below the spread bound "
            f"{min_terminal_bit(spec.expr(n - 1), spec.id)}"
        )
    top = n - 1
    g = feedback_tail(spec, top)

    movable: list[Term] = []
    fixed = 0.0
    for term in sorted(g.terms, key=term_sort_key):
        if term.registers() == {spec.id}:
            movable.append(term)
        else:
            fixed += _default_term_cost(term)  # foreign terms stay and weigh the top bit
            # the own indices a term keeps at the top bit bound the terminal
            terminal = max([terminal] + [v.idx for v in term.vars if v.reg == spec.id])
    movable.sort(key=lambda t: (-_default_term_cost(t), term_sort_key(t)))

    while True:
        count = _position_count(n, terminal, k)
        # Position top - i*k by step i; only steps that hold a cost get an entry.
        load = {0: fixed} if fixed else {}
        dests: dict[Term, int] = {}
        for term in movable:
            own = [v.idx for v in term.vars]
            lo, hi = min(own), max(own)
            first = max(0, -((terminal - hi) // k))  # ceil((hi - terminal) / k)
            last = min(count - 1, lo // k)
            if first > last:
                terminal = hi  # above the old terminal, since the top bit did not fit
                break
            # every term costs at least 1, so an empty step beats a loaded
            # one; the highest empty step is at most len(load) past first
            best = next((i for i in range(first, last + 1) if i not in load), None)
            if best is None:
                best = min(range(first, last + 1), key=lambda i: (load[i], i))
            load[best] = load.get(best, 0.0) + _default_term_cost(term)
            dests[term] = top - best * k
        else:
            break

    script = tuple(
        ShiftMove(spec.id, top, dests[term], frozenset({term}))
        for term in sorted(dests, key=lambda t: (-dests[t], term_sort_key(t)))
        if dests[term] != top
    )
    final = spec
    for move in script:
        final = apply_shift(final, move)
    return Distribution(final, script)


def _tail_plan(spec: RegisterSpec) -> list[tuple[int, int, list[frozenset[int]]]]:
    """Every tail below the top as ``(j, constant, products)``, each product its own index set.

    Bit i above the terminal bit t of the Galois register has mixed in
    phi_i, the XOR over the explicit bits t <= j < i of g_j read i - 1 - j
    cycles on (every own index + i - 1 - j).  Lifting is a bijection on
    index sets, so XOR commutes with it and each tail is read in closed
    form: ``_collapse`` lifts it once, past the top, and the state
    mappings evaluate it at every lag.  Every tail below the top must be
    singular and read only this register; the lowest bit that is not
    raises, and names its lowest foreign variable.
    """
    plan = []
    for bit in sorted(b for b in spec.feedback if b < spec.length - 1):
        g = feedback_tail(spec, bit)
        foreign = [v for v in g.support() if v.reg != spec.id]
        if foreign:
            raise ForeignVariableError(
                f"bit {bit} mixes in {min(foreign)}; only the top bit may use other registers"
            )
        plan.append((bit, g.const, [frozenset(v.idx for v in term.vars) for term in g.terms]))
    return plan


def _collapse(spec: RegisterSpec, plan: list) -> RegisterSpec:
    """The top bit's shift term XOR each tail j of ``plan`` lifted by n - 1 - j, mod n."""
    n = spec.length
    g = spec.tail(n - 1)
    terms, const = set(g.terms) ^ {Term.of(spec.id, 0)}, g.const
    for j, c, products in plan:
        terms ^= {Term.of(spec.id, *((i + n - 1 - j) % n for i in p)) for p in products}
        const ^= c
    return RegisterSpec(spec.id, n, {n - 1: Anf(frozenset(terms), const)})


def collapse_to_fibonacci(spec: RegisterSpec) -> RegisterSpec:
    """Undo all shifting: fold every lower bit's logic back into the top bit.

    The top bit becomes its shift term XOR every lower tail lifted past
    the top (see ``_tail_plan``).  A term lifted from an even number of
    bits cancels, which is exactly what exposes an over-shifted
    configuration.
    """
    return _collapse(spec, _tail_plan(spec))


def unshift_sources(spec: RegisterSpec, term: Term) -> tuple[int, ...]:
    """The bits whose tail, lifted to the top bit, holds ``term`` (diagnostics)."""
    n = spec.length
    top = n - 1
    return tuple(
        bit
        for bit in spec.explicit_bits()
        if term in (
            spec.tail(bit).terms
            if bit == top
            else remap_indices(spec.tail(bit).terms, spec.id, top - bit, n)
        )
    )


def _state_mapper(fib: SystemSpec, galois: SystemSpec) -> dict[str, list]:
    """The one preparation of a (Fibonacci, Galois) pair: its tail plans, by register id.

    Both systems must declare the same registers in the same order, and
    the same outputs and injections; every injection must land on its
    register's top bit; no output, and no Galois feedback of another
    register, may tap a bit above a register's terminal bit, where
    sequences are not preserved; and every Galois register, in system
    order, must be uniform and keep other registers out of every bit below
    the top.  The first rule broken raises, naming its lowest variable.

    The plans, ``_tail_plan`` by register id, are the state mapping in
    closed form: bit i > terminal absorbs each tail g_j, j < i, read
    i - 1 - j cycles on.  ``_map_word`` reads them on packed words, for
    ``map_system_state`` one state per word and for the mapped check a
    whole slice of trials per word, and ``_collapse`` builds the
    collapses from them.
    """
    signature = tuple((r.id, r.length) for r in fib.registers)
    if tuple((r.id, r.length) for r in galois.registers) != signature:
        raise ValueError("systems declare different registers")
    for mine, theirs in zip_longest(galois.outputs, fib.outputs):
        if mine != theirs:
            raise ValueError(f"output {(mine or theirs).name!r} differs from the source system's")
    if galois.injections != fib.injections:
        raise ValueError("systems declare different injections")
    for inj in galois.injections:
        top = galois.register(inj.register).length - 1
        if inj.bit != top:
            raise ValueError(
                f"injection of {inj.output!r} into {inj.register}[{inj.bit}] "
                f"misses that register's top bit {top}"
            )
    terminals = {reg.id: terminal_bit(reg) for reg in galois.registers}
    # (expression, the register it may read above terminals, its name)
    taps = [(out.expr, None, out.name) for out in galois.outputs]
    taps += [(expr, reg.id, reg.id) for reg in galois.registers for expr in reg.feedback.values()]
    for expr, own, name in taps:
        above = [v for v in expr.support() if v.reg != own and v.idx > terminals[v.reg]]
        if above:
            v, where = min(above), "output" if own is None else "feedback of"
            raise ValueError(
                f"{where} {name!r} taps {v} above that register's "
                f"terminal bit {terminals[v.reg]}; sequences there are not preserved"
            )
    plans: dict[str, list] = {}
    for reg in galois.registers:
        report = check_uniform(reg)
        if not report.uniform:
            v = report.violations[0]
            raise ValueError(f"target register is not uniform: bit {v.bit} {v.reason}")
        plans[reg.id] = _tail_plan(reg)
    return plans


def _map_word(word: int, n: int, plan: list, T: int = 1) -> int:
    """One register's packed states, T-bit lanes, mapped by its ``_tail_plan``.

    Bit i of state t is bit i * T + t of ``word``: one state in its bits
    at T = 1, the mapped check's slice of T trials wider.  The engine's
    lane form, x = w ^ XOR_j G_j << (j + 1): a product's lanes are the
    AND of ``word >> idx`` lanes, lane m reading g_j m cycles on, and its
    n - 1 - j lanes land on bits j + 1 .. n - 1.  Every shift is a
    multiple of T and AND and XOR work bit by bit, so states never mix.
    """
    mapped = word
    for j, const, products in plan:
        lanes = (1 << (n - 1 - j) * T) - 1
        acc = lanes if const else 0
        for product in products:
            value = lanes
            for idx in product:
                value &= word >> idx * T
            acc ^= value
        mapped ^= acc << (j + 1) * T
    return mapped


def map_system_state(
    fib_system: SystemSpec, galois_system: SystemSpec, state: SystemState
) -> SystemState:
    """State of the Galois system that replays a Fibonacci run bit for bit.

    In every register, bits up to the terminal bit copy over unchanged;
    each higher bit absorbs the feedback contributions the Galois register
    would have mixed in on the way to producing the same output window.
    The state must conform to the source system, the pair must pass
    ``_state_mapper``'s rules, and every target register must collapse
    back to its source register.  The cycle count is kept.
    """
    if state.signature() != tuple((r.id, r.length) for r in fib_system.registers):
        raise ValueError("state does not conform to the source system")
    plans = _state_mapper(fib_system, galois_system)
    for reg in fib_system.registers:
        if _collapse(galois_system.register(reg.id), plans[reg.id]) != reg:
            raise ValueError(
                f"target register {reg.id!r} does not collapse to the source register"
            )
    words = tuple((rid, n, _map_word(w, n, plans[rid])) for rid, n, w in state.regs)
    return SystemState(words, state.cycle)


def _planes(spec: RegisterSpec, cycles: int) -> tuple[list[int], list[int]]:
    """Every packed state's first ``cycles`` output bits and ``cycles``-step successor, sliced.

    All 2**n states step together as instances of the bitsliced layout:
    input word i is the identity plane (bit s set iff bit i of s is), and
    the unit-step sliced kernel runs ``cycles`` times.  Returns the output
    planes (word 0 before cycle c, output bit c of every state) and the
    final words.  ``_unslice`` of the first l output planes gives each
    state's l-bit prefix as an int (output bit c in bit c), and of the
    final words its successor.  A prefix is the state's whole output
    sequence up to its length, so states with equal prefixes are exactly
    the classes refinement would reach at that length.
    """
    foreign = [v for expr in spec.feedback.values() for v in expr.support() if v.reg != spec.id]
    if foreign:
        raise ForeignVariableError(
            f"register {spec.id!r} is not autonomous: feedback uses {min(foreign)}"
        )
    n = spec.length
    ones = (1 << (1 << n)) - 1
    words = [_identity_plane(n, i) & ones for i in range(n)]
    sliced = spec._alone._compiled.sliced(frozenset(), 1)
    outputs = []
    for _ in range(cycles):
        outputs.append(words[0])
        words = sliced(words, ones)
    return outputs, words


def _walk(spec: RegisterSpec, cycles: int) -> tuple[list[int], list[int]]:
    """``_planes`` transposed: every state's ``cycles``-bit prefix and successor as ints.

    ``_walk(spec, 1)[1]`` is the transition table, which numbered rounds
    past 64 bits and their witness need as lists.  Prefixes of up to 64
    bits fit ``_unslice``'s widest field.
    """
    outputs, words = _planes(spec, cycles)
    size = 1 << spec.length
    return _unslice(outputs, size).tolist(), _unslice(words, size).tolist()


def _identity_plane(n: int, i: int) -> int:
    """Bit i of each of the 2**n states, state s in bit s (whole bytes, 8 bits at least).

    Built from repeated bytes: big-int arithmetic (such as dividing the
    all-ones word) is superlinear in CPython and would cost more than the
    kernel call.
    """
    return int.from_bytes(_bit_pattern(i, max(1, (1 << n) >> 3)), "little")


def _bit_pattern(i: int, size: int) -> bytes:
    """``size`` bytes whose bit t, little-endian, is bit i of t; size holds whole periods."""
    if i < 3:
        pattern = bytes((0xAA, 0xCC, 0xF0)[i : i + 1])
    else:
        run = 1 << (i - 3)
        pattern = bytes(run) + b"\xff" * run
    return pattern * (size // len(pattern))


# States per transposed block.  One piece of 2**20 states would raise the
# check's peak by tens of MiB; blocks keep the working ints and the cached
# masks (one set per field width and block size in use) small.
_BLOCK = 1 << 14


def _unslice(words: list[int], count: int) -> array:
    """Instances 0..count-1 of the sliced layout as packed ints, bit i from ``words[i]``.

    A blocked bit-matrix transpose (Warren, *Hacker's Delight*, 2nd ed.,
    7-3, after Eklundh 1972).  The words, padded to the ``rows`` bits of
    the narrowest ``array`` field that holds them, are the rows of one
    int per block of states; round j exchanges bit j of the row with bit
    j of the column inside every rows-by-rows tile, so after log2(rows)
    rounds each tile is transposed and each field holds one state: field
    ``tiles * r + b`` of a block holds its state ``rows * b + r``, and
    ``rows`` extended-slice assignments put the states in order.  The
    last block is padded with zero states.  Fields are read little-endian
    and swapped on a big-endian host, so nothing depends on the host's
    byte order or C integer sizes.  Returns the fields' ``array``, a few
    bytes per instance, for callers to keep or convert.
    """
    code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= len(words))
    rows = array(code).itemsize * 8
    block = min(_BLOCK, -(-count // rows) * rows)
    end, span, tiles = -(-count // block) * block, block // 8, block // rows
    planes = [memoryview(w.to_bytes(end // 8, "little")) for w in words]
    planes.append(bytes(span * (rows - len(words))))
    masks = _transpose_masks(rows, block)
    table = array(code, bytes(end * rows // 8))
    for lo in range(0, end, block):
        m = int.from_bytes(b"".join([p[lo // 8 : lo // 8 + span] for p in planes]), "little")
        for s, mask in masks:
            t = ((m >> s) ^ m) & mask
            m ^= t ^ (t << s)
        fields = array(code, m.to_bytes(span * rows, "little"))
        for r in range(rows):
            table[lo + r : lo + block : rows] = fields[r * tiles : (r + 1) * tiles]
    del table[count:]
    if sys.byteorder == "big":
        table.byteswap()
    return table


@functools.cache
def _transpose_masks(rows: int, block: int) -> tuple[tuple[int, int], ...]:
    """Each transpose round's shift and mask, over ``rows`` rows of ``block`` bits.

    Round j swaps bit (i, t), row i and column t, where bit j of i is
    clear and bit j of t is set, with bit (i + 2**j, t - 2**j): the mask
    marks the first, and the second lies 2**j * (block - 1) bits above it.
    """
    rounds = []
    for j in range(rows.bit_length() - 1):
        row = _bit_pattern(j, block // 8)
        blank = bytes(len(row))
        mask = b"".join(blank if i >> j & 1 else row for i in range(rows))
        rounds.append(((1 << j) * (block - 1), int.from_bytes(mask, "little")))
    return tuple(rounds)


def _checked_lengths(n: int, horizon: int) -> Iterator[int]:
    """The prefix lengths the exhaustive check compares, shortest first, computed lazily.

    L is the shortest leading run of horizon's binary digits whose value
    is at least n (at most 2n - 1; all digits when horizon < n); each
    remaining digit doubles the length, and a set one then adds 1.  The
    last length is the horizon.
    """
    digits = bin(horizon)[2:]
    lead = next((i for i in range(1, len(digits)) if int(digits[:i], 2) >= n), len(digits))
    length = int(digits[:lead], 2)
    yield length
    for bit in digits[lead:]:
        length *= 2
        yield length
        if bit == "1":
            length += 1
            yield length


def _prefix_classes(
    spec_a: RegisterSpec, spec_b: RegisterSpec, horizon: int
) -> tuple[Sequence[int], int, bool, bool]:
    """Class the states of both registers by their output prefixes, up to ``horizon`` bits.

    Side a's state s is entry s, side b's is entry 2**n + s (whose bit 0 is
    still the output bit).  The classes are compared at each of
    ``_checked_lengths``.  Up to 64 bits, ``_unslice``'s widest field, the
    classes at length l are the raw l-bit prefixes: one ``_planes`` walk
    of each register runs to the longest such length, and each checked
    length l transposes the first l output planes of both into two
    ``array``s.  Side a's feeds one set, which side b's empties when side
    a is discrete, and nothing else of a raw length outlives it but its
    class count.  Past 64 bits, numbered refinement takes over from the
    raw classes at the last raw length l and that walk's l-step successor
    J: (cls[s], cls[J[s]]) classes the 2l-bit prefixes, and
    (s & 1, cls[succ[s]]) the (l + 1)-bit ones, with the unit-step table
    built only then.

    The check stops at the first length where the two sides' class
    multisets differ: the prefixes of every longer length refine those, so
    their multisets differ too.  A length that splits no class ends the
    check with the multisets equal: longer prefixes separate nothing more,
    so its classes are those of the horizon.  Balance is tested first: at
    a raw length, side a's distinct prefixes count the classes of both
    sides only when the sides balance, and an unbalanced length always
    splits a class, so no verdict moves.
    Returns the classes (at a raw length, both sides' prefixes as one
    ``array``), their length (the horizon when every length split a class
    and the multisets stayed equal), whether the multisets are equal, and
    whether side a's states are all in different classes, which only a
    raw length tells (false past 64 bits).
    Each strict refinement adds a class, so the partition of the
    2**(n+1) entries is stable from some length below 2**(n+1): the
    first checked length at or past it is below 2**(n+2), and an unequal
    verdict's length is at most that.
    """
    n = spec_a.length
    size = 1 << n
    lengths = _checked_lengths(n, horizon)
    longest = max(takewhile(lambda length: length <= 64, _checked_lengths(n, horizon)))
    walks = [_planes(spec, longest) for spec in (spec_a, spec_b)]
    count = 0
    for length in lengths:
        pa, pb = (_unslice(outputs[:length], size) for outputs, _ in walks)
        seen = set(pa)
        classes = len(seen)  # of both sides, when they balance
        if classes == size:  # then b's 2**n prefixes balance iff they are these
            seen.difference_update(pb)
            balanced = not seen
        else:
            balanced = sorted(pa) == sorted(pb)
        del seen
        if not balanced or classes == count or length == horizon:
            return pa + pb, length, balanced, classes == size
        count = classes
        if length == longest:
            break
    # hand the raw classes over to numbered refinement
    cls, (wa, wb) = pa + pb, [words for _, words in walks]
    del pa, pb, walks
    jump = _unslice(wa, size).tolist() + [size + t for t in _unslice(wb, size)]
    del wa, wb
    base, out, succ = 1 << length, [], []  # a raw prefix is below 2**length
    for nxt in lengths:
        if nxt == 2 * length:
            head, step = cls, jump
        else:
            if not succ:
                succ = _walk(spec_a, 1)[1] + [size + t for t in _walk(spec_b, 1)[1]]
                out = [0, 1] * size  # bit 0 of every entry
            head, step = out, succ
        ids: dict[int, int] = {}
        refined = [ids.setdefault(h * base + cls[t], len(ids)) for h, t in zip(head, step)]
        classes = base = len(ids)
        # splitting no class, the length balances as the one before did
        balanced = classes == count or _balanced(refined, size)
        if not balanced or classes == count:
            return refined, nxt, balanced, False
        cls, count, length = refined, classes, nxt
        jump = [jump[t] for t in step]
    return cls, length, True, False


def _balanced(cls: list[int], size: int) -> bool:
    """Whether every class holds as many of the first ``size`` entries as of the rest.

    When the first ``size`` entries are all in different classes, that is
    whether the rest are in exactly those classes: a set comparison, which
    is cheaper than sorting.
    """
    a = set(cls[:size])
    if len(a) == size:
        return a == set(cls[size:])
    return sorted(cls[:size]) == sorted(cls[size:])


def check_equivalence_exhaustive(
    spec_a: RegisterSpec, spec_b: RegisterSpec, horizon: int | None = None
) -> ExhaustiveVerdict:
    """Compare output-prefix multisets over every initial state of both registers.

    Exact: ``_prefix_classes`` partitions the states of both registers by
    their first ``horizon`` output bits (default 2**n), and the registers
    are equal when every class holds as many states of each.  Up to 64
    bits, the classes are the raw prefixes themselves, read from one sliced
    walk of each register; past 64 bits, numbered refinement by doubling
    takes over.  The partition is compared at L >= n bits (the whole
    horizon, when it is below n) and at each doubling after that, and only
    until a length splits nothing or the two sides' class multisets
    differ.  Memory is O(2**n) whatever the horizon.

    An unequal verdict names the first state of ``spec_a`` whose class is
    unbalanced at the first checked length where the multisets differ,
    with its output prefix of that length: that prefix occurs a different
    number of times on the two sides.  Up to 64 bits the prefix is the
    state's class itself; past 64 bits it is walked in side a's transition
    table.  It is not necessarily the shortest such prefix; a shorter one
    may lie between the last two checked lengths.
    """
    n = spec_a.length
    if spec_b.length != n:
        raise ValueError("register lengths differ")
    if n > EXHAUSTIVE_LIMIT_BITS:
        raise ValueError(
            f"register too large for exhaustive checking ({n} > {EXHAUSTIVE_LIMIT_BITS} bits)"
        )
    horizon = (1 << n) if horizon is None else horizon
    if horizon < 1:
        raise ValueError("horizon must be positive")
    size = 1 << n
    cls, length, equal, discrete = _prefix_classes(spec_a, spec_b, horizon)
    if equal:
        return ExhaustiveVerdict(True, size, horizon)
    # Both sides hold 2**n states, so some unbalanced class holds more of
    # side a than of side b: the first unbalanced state is always on side a.
    cb = Counter(cls[size:])
    if discrete:  # each of side a's classes holds one of its states
        state = next(s for s, c in enumerate(cls) if cb[c] != 1)
    else:
        ca = Counter(cls[:size])
        state = next(s for s, c in enumerate(cls) if ca[c] != cb[c])
    if length <= 64:  # the class is the raw prefix, output bit c in bit c
        prefix = tuple(cls[state] >> c & 1 for c in range(length))
    else:
        table = _walk(spec_a, 1)[1]
        prefix, s = [], state
        for _ in range(length):
            prefix.append(s & 1)
            s = table[s]
    return ExhaustiveVerdict(False, size, horizon, PrefixCounterexample(state, tuple(prefix)))


def check_equivalence_mapped(
    fib_system: SystemSpec,
    galois_system: SystemSpec,
    trials: int,
    cycles: int,
    seed: int,
) -> MappedVerdict:
    """Seeded-random full-scale equivalence check between two systems.

    Each trial is a random state of the first system, converted into the
    second by the state-mapping formula; both run with no modes active and
    every register's bits 0..terminal must agree cycle for cycle.  The
    verdict is unequal when any trial diverges, and it reports the first
    divergence of the lowest-numbered such trial.

    Trial t's state is the t-th ``getrandbits(width)`` of
    ``random.Random(seed)``, with bit p of the layout (registers in system
    order, then bits) in bit p, so any reported trial can be rebuilt from
    the seed alone.  Trials run in slices of up to ``_SLICE_TRIALS``, in
    order.  A slice of T trials is drawn straight into one lane word per
    register, bit i of trial t at bit i * T + t, and ``_map_word`` maps
    each Galois register's word at stride T, the routine that
    ``map_system_state`` runs at T = 1.

    One loop steps both systems k cycles per call and compares them at
    block ends (see ``_mapped_degree``), the last partial block in one
    shorter call, until trial 0 of the slice diverges or the cycles run
    out; no later slice runs once one has diverged.  Each system's kernel
    of each block size is fetched once per slice.  A slice of T trials
    steps in one of two layouts, lanes when T <= ``_LANE_TRIALS`` * (k - 1)
    and bitsliced otherwise.  On lanes the lane kernel steps the words as
    drawn, with T-bit lanes; bits 0..terminal of every trial are compared
    at once and a difference folds onto its trials.  Bitsliced, plane i of
    a register is bits [i * T, (i + 1) * T) of its lane word, and the
    planes step on the sliced kernel.  The lowest divergent trial is then
    replayed alone from its slice-start words on the 1-bit lane kernel, in
    k-cycle blocks up to the block where it diverges and then one cycle at
    a time from that block's start, to find its first divergent cycle,
    register and bit.

    The pair is prepared by ``_state_mapper``, so this check and
    ``map_system_state`` refuse the same pairs with the same messages.
    Unlike ``map_system_state`` it does not compare the collapses:
    collapse equality is what the simulation tests, so a corrupted
    register surfaces as an unequal verdict with its divergence point,
    not as an error.

    So ``equal`` covers the registers, with no mode active, over the
    trials and cycles run.  Outputs and injections are not simulated.
    The pair rule makes the outputs the same expressions over bits at or
    below the terminals, so they agree wherever the compared bits do, and
    the injections the same ones, each on its register's top bit.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    # Prepared once per check: a pair the preparation refuses raises
    # before anything is drawn, whatever the trial count.
    plans = _state_mapper(fib_system, galois_system)
    terminals = {reg.id: terminal_bit(reg) for reg in galois_system.registers}
    k = _mapped_degree(fib_system, galois_system, terminals)
    if not cycles:
        return MappedVerdict(True, trials, cycles)

    # Both systems declare the same registers in the same order, so they
    # share one layout: each register's bits in turn, in system order.
    spans, width = [], 0  # (id, first bit, length, compared bits) of each register
    for reg in galois_system.registers:
        spans.append((reg.id, width, reg.length, terminals[reg.id] + 1))
        width += reg.length
    fib_comp, gal_comp = fib_system._compiled, galois_system._compiled
    no_modes = frozenset()

    def sliced(count):
        """(fetch, differ) of the bitsliced layout: one word per layout bit."""
        ones = (1 << count) - 1
        compared = [(a, a + t) for _, a, _, t in spans]

        def fetch(comp, s):
            kernel = comp.sliced(no_modes, s)
            return lambda words: kernel(words, ones)

        def differ(fib_words, gal_words) -> int:
            # Equal slices, the usual case, are settled by one list compare.
            bad = 0
            for a, b in compared:
                if fib_words[a:b] != gal_words[a:b]:
                    for p in range(a, b):
                        bad |= fib_words[p] ^ gal_words[p]
            return bad

        return fetch, differ

    def lanes(count):
        """(fetch, differ) of the lane layout: one word per register, count bits per lane."""
        ones = (1 << count) - 1
        lows = [(1 << t * count) - 1 for *_, t in spans]

        def fetch(comp, s):
            kernel = comp.kernel(no_modes, s, (), count)
            return lambda words: kernel(words, 1, ())

        def differ(fib_words, gal_words) -> int:
            bad = 0
            for f, g, low in zip(fib_words, gal_words, lows):
                diff = (f ^ g) & low
                while diff:  # fold every compared bit's trials onto bits 0..count-1
                    bad |= diff & ones
                    diff >>= count
            return bad

        return fetch, differ

    def run(fib_words, gal_words, layout, k, cycle=0):
        """Step both systems from ``cycle`` in blocks of k until trial 0 diverges.

        Returns the trials diverged by the last cycle reached, and the
        cycle and words of both systems at the start and at the end of
        the last block stepped (both the first cycle's, if none was).
        """
        # A trial that agrees at cycle c agrees at c+1..c+s, s <= k, iff it
        # agrees at c+s, so ``bad`` holds exactly the trials diverged by ``cycle``.
        fetch, differ = layout
        kernels = {}  # both systems' kernels of each block size, fetched at its first step
        bad, start = differ(fib_words, gal_words), (cycle, fib_words, gal_words)
        while not bad & 1 and cycle < cycles - 1:
            start = cycle, fib_words, gal_words
            s = min(k, cycles - 1 - cycle)
            if s not in kernels:
                kernels[s] = fetch(fib_comp, s), fetch(gal_comp, s)
            fib_step, gal_step = kernels[s]
            fib_words, gal_words = fib_step(fib_words), gal_step(gal_words)
            bad |= differ(fib_words, gal_words)
            cycle += s
        return bad, start, (cycle, fib_words, gal_words)

    rng = random.Random(seed)
    # Trials run in slices of at most _SLICE_TRIALS, in order, so memory
    # stays bounded; the first slice with a divergence holds the lowest
    # divergent trial.
    for first in range(0, trials, _SLICE_TRIALS):
        count = min(_SLICE_TRIALS, trials - first)
        # Reversed, the trials' binary digits put bit p of the last trial
        # at index p, so every width-th digit from p is bit p of every
        # trial, the last first.  A register's strings, its highest bit
        # first, are its lane word: bit i of trial t at i * count + t.
        drawn = "".join([format(rng.getrandbits(width), f"0{width}b") for _ in range(count)])[::-1]
        fib_start = [
            int("".join([drawn[p::width] for p in range(a + n - 1, a - 1, -1)]), 2)
            for _, a, n, _ in spans
        ]
        gal_start = [
            _map_word(word, n, plans[rid], count) for word, (rid, _, n, _) in zip(fib_start, spans)
        ]
        if count <= _LANE_TRIALS * (k - 1):
            bad = run(fib_start, gal_start, lanes(count), k)[0]
        else:
            # plane i of a register is bits [i * count, (i + 1) * count) of its lane word
            ones = (1 << count) - 1
            fib_planes, gal_planes = (
                [word >> i * count & ones for word, (_, _, n, _) in zip(words, spans) for i in range(n)]
                for words in (fib_start, gal_start)
            )
            bad = run(fib_planes, gal_planes, sliced(count), k)[0]
        if bad:
            break
    else:
        return MappedVerdict(True, trials, cycles)

    # The lowest divergent trial alone, on the 1-bit lane kernel: k-cycle
    # blocks up to the one where it diverges, then unit steps from that
    # block's start.  Bit i of trial t is digit t from the low end of
    # lane i, so every count-th digit from count - 1 - t is its word.
    lowest = (bad & -bad).bit_length() - 1
    alone = (
        [int(format(word, f"0{n * count}b")[count - 1 - lowest :: count], 2)
         for word, (_, _, n, _) in zip(words, spans)]
        for words in (fib_start, gal_start)
    )
    _, (cycle, *start), _ = run(*alone, lanes(1), k)
    _, _, (cycle, fib_words, gal_words) = run(*start, lanes(1), 1, cycle)
    # the first differing bit in layout order: lowest register, then bit
    for (rid, _, _, t), f, g in zip(spans, fib_words, gal_words):
        diff = (f ^ g) & ((1 << t) - 1)
        if diff:
            point = DivergencePoint(first + lowest, rid, cycle, (diff & -diff).bit_length() - 1)
            return MappedVerdict(False, trials, cycles, point)
    raise AssertionError(f"trial {first + lowest} diverges in its slice but not alone")


def _mapped_degree(
    fib_system: SystemSpec, galois_system: SystemSpec, terminals: dict[str, int]
) -> int:
    """Cycles per block of the mapped check, exact at block boundaries.

    Bits below each compared terminal are pure shifts on both sides, so
    bits 0..t at two cycles k apart cover every cycle between them once
    t >= k - 1.  Otherwise the check compares every cycle.
    """
    no_modes = frozenset()
    k = min(fib_system._compiled.degree(no_modes), galois_system._compiled.degree(no_modes))
    for rid, t in terminals.items():
        if terminal_bit(fib_system.register(rid)) < t or t < k - 1:
            return 1
    return k


def parse_shift_script(text: str) -> tuple[ShiftMove, ...]:
    """Parse the one-move-per-line script format.

    ``shift <reg> <src> -> <dst> : <term> [, <term>]*`` with terms in
    source coordinates; ``#`` starts a comment.
    """
    moves: list[ShiftMove] = []
    pattern = re.compile(r"^shift\s+(\w+)\s+(\d+)\s*->\s*(\d+)\s*:\s*(.+)$")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = pattern.match(line)
        if not m:
            raise ValueError(
                f"line {lineno}: expected 'shift <reg> <src> -> <dst> : <terms>'"
            )
        try:
            terms = frozenset(parse_term(chunk) for chunk in m.group(4).split(","))
        except ExprError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        moves.append(ShiftMove(m.group(1), int(m.group(2)), int(m.group(3)), terms))
    return tuple(moves)


def format_shift_script(moves: Iterable[ShiftMove]) -> str:
    lines = []
    for move in moves:
        terms = ", ".join(str(t) for t in sorted(move.terms, key=term_sort_key))
        lines.append(f"shift {move.register} {move.source} -> {move.dest} : {terms}")
    return "\n".join(lines) + ("\n" if lines else "")
