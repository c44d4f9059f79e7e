"""Fibonacci-to-Galois shift-register transformation and its verification.

A Fibonacci register computes all of its feedback at the top bit; a
Galois register spreads product terms over several bits, shortening the
combinational paths.  Moving a term set from bit i to bit j ("shifting")
remaps every index k to (k - i + j) mod n.  Shifting preserves the set
of output sequences as long as every intermediate register stays
uniform: each feedback is the next bit XOR logic that avoids it, and no
logic above the terminal bit reaches past the terminal bit.

This module implements the shifting machinery, the uniformity and
terminal-bit arithmetic, parallelization constraints, a greedy automatic
distributor, the inverse collapse, initial-state mapping between
equivalent configurations, and two equivalence checkers (exact partition
refinement for small registers, seeded-random mapped simulation at scale).

The exact checker takes the first L >= n bits of every state's output
prefix from one bitsliced walk of L cycles over all states.  Equal L-bit
prefixes are the partition that refinement from single bits would reach
at L, so refinement by doubling only covers the rest of the horizon.
"""

from __future__ import annotations

import random
import re
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .anf import (
    Anf,
    ForeignVariableError,
    Term,
    parse_term,
    remap_indices,
    term_sort_key,
    xor_merge,
)
from .engine import RegisterSpec, SystemSpec, SystemState, _advance, _words
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
    "map_initial_state",
    "map_system_state",
    "check_equivalence_exhaustive",
    "check_equivalence_mapped",
    "parse_shift_script",
    "format_shift_script",
    "EXHAUSTIVE_LIMIT_BITS",
]

EXHAUSTIVE_LIMIT_BITS = 20
EXHAUSTIVE_MAX_COST = 1 << 32  # states x horizon: bounds the witness and the refinement
_SLICE_TRIALS = 1024  # trials the mapped check steps at once, one per bit of a word


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
    stranded: tuple[Term, ...] = ()


@dataclass(frozen=True)
class ExhaustiveVerdict:
    equal: bool
    states: int
    horizon: int
    counterexample: "PrefixCounterexample | None" = None


@dataclass(frozen=True)
class PrefixCounterexample:
    side: str  # always "a": some unbalanced class holds more states of side a than of b
    state: int
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


def _split_singular(spec: RegisterSpec, bit: int) -> tuple[Anf | None, Anf]:
    """Split f_bit into (shift part, remainder g) when singular, else (None, f)."""
    expr = spec.expr(bit)
    shift_term = Term(frozenset({spec.shift_var(bit)}))
    if shift_term not in expr.terms:
        return None, expr
    g = Anf(expr.terms - {shift_term}, expr.const)
    if spec.shift_var(bit) in g.support():
        return None, expr
    return Anf(frozenset({shift_term})), g


def feedback_tail(spec: RegisterSpec, bit: int) -> Anf:
    """The non-shift part of a singular feedback function.

    Raises ValueError when the bit's feedback is not singular.
    """
    shift, g = _split_singular(spec, bit)
    if shift is None:
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
    pass a lower declared terminal to check against instead.  Variables
    of other registers are exempt from the index bound: they ride along
    unshifted and have no position in this register's coordinates.
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
        shift, g = _split_singular(spec, bit)
        if shift is None:
            shift_var = spec.shift_var(bit)
            expr = spec.expr(bit)
            if Term(frozenset({shift_var})) not in expr.terms:
                violations.append(
                    Violation(
                        bit,
                        "non-singular",
                        f"feedback lacks the shift term {shift_var}",
                    )
                )
            else:
                violations.append(
                    Violation(
                        bit,
                        "depends-on-successor",
                        f"logic besides the shift uses {shift_var}",
                    )
                )
            continue
        if bit > t:
            bad = sorted(
                {v.idx for v in g.support() if v.reg == spec.id and v.idx > t}
            )
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
    if k < 1:
        raise ValueError("parallel degree must be at least 1")
    if not 0 <= terminal <= n - 1:
        raise ValueError(f"terminal bit {terminal} outside register of length {n}")
    count = max(1, (n - 1 - terminal) // k)
    return tuple(n - 1 - i * k for i in range(count))


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


def auto_distribute(
    spec: RegisterSpec,
    terminal: int,
    k: int,
    cost: Callable[[Term], float] | None = None,
) -> Distribution:
    """Greedy distribution of the top bit's movable terms over allowed positions.

    Terms are placed in descending cost order onto the feasible position
    whose accumulated cost is lowest, ties broken toward the higher bit.
    Terms of other registers never move; own terms with no feasible
    position stay at the top bit and are reported as stranded.
    """
    n = spec.length
    if terminal < min_terminal_bit(spec.expr(n - 1), spec.id):
        raise ValueError(
            f"terminal {terminal} is below the spread bound "
            f"{min_terminal_bit(spec.expr(n - 1), spec.id)}"
        )
    cost = cost or _default_term_cost
    positions = allowed_feedback_positions(n, terminal, k)
    top = n - 1
    g = feedback_tail(spec, top)

    movable: list[Term] = []
    load = {p: 0.0 for p in positions}
    for term in sorted(g.terms, key=term_sort_key):
        if term.registers() == {spec.id}:
            movable.append(term)
        else:
            load[top] += cost(term)  # foreign terms stay and weigh the top bit

    stranded: list[Term] = []
    dests: dict[Term, int] = {}
    for term in sorted(movable, key=lambda t: (-cost(t), term_sort_key(t))):
        own = [v.idx for v in term.vars]
        lo, hi = min(own), max(own)
        feasible = [p for p in positions if (n - 1 - p) <= lo and hi - (n - 1 - p) <= terminal]
        if not feasible:
            stranded.append(term)
            continue
        best = min(feasible, key=lambda p: (load[p], -p))
        load[best] += cost(term)
        dests[term] = best

    script = tuple(
        ShiftMove(spec.id, top, dests[term], frozenset({term}))
        for term in sorted(dests, key=lambda t: (-dests[t], term_sort_key(t)))
        if dests[term] != top
    )
    final = spec
    for move in script:
        final = apply_shift(final, move)
    return Distribution(final, script, tuple(stranded))


def collapse_to_fibonacci(spec: RegisterSpec) -> RegisterSpec:
    """Undo all shifting: fold every lower bit's logic back into the top bit.

    Terms of bit i are remapped by (n-1) - i and XOR-merged into the top
    feedback; duplicated terms cancel, which is exactly what exposes an
    over-shifted configuration.
    """
    n = spec.length
    top = n - 1
    top_expr = spec.expr(top)
    merged = set(top_expr.terms)
    const = top_expr.const
    for bit in spec.explicit_bits():
        if bit == top:
            continue
        g = feedback_tail(spec, bit)
        own = frozenset(t for t in g.terms)
        lifted = remap_indices(own, spec.id, top - bit, n)
        merged ^= lifted
        const ^= g.const
    return RegisterSpec(spec.id, n, {top: Anf(frozenset(merged), const)})


def unshift_sources(spec: RegisterSpec) -> dict[Term, tuple[int, ...]]:
    """Map each collapsed term to the bits it unshifts from (diagnostics)."""
    n = spec.length
    top = n - 1
    sources: dict[Term, list[int]] = {}
    for bit in spec.explicit_bits():
        g = spec.expr(bit) if bit == top else feedback_tail(spec, bit)
        if bit == top:
            shift_term = Term(frozenset({spec.shift_var(bit)}))
            terms = g.terms - {shift_term}
        else:
            terms = g.terms
        for term in terms:
            if term.registers() != {spec.id}:
                lifted = term
            else:
                (lifted,) = remap_indices({term}, spec.id, top - bit, n)
            sources.setdefault(lifted, []).append(bit)
    return {t: tuple(sorted(bits)) for t, bits in sources.items()}


def _state_mapper(galois: RegisterSpec) -> Callable[..., tuple[int, ...]]:
    """The state-conversion formula alone, without the collapse check.

    Prepared once per register, it maps any number of states: bit
    i > terminal absorbs every tail g_j (terminal <= j < i) read
    i - 1 - j cycles on, and each product is a tuple of state indices,
    so mapping a state evaluates no expression.  Given an all-ones mask
    ``ones``, it maps many states at once: one word per bit, one state
    per bit of ``ones``, and a constant sets every state's bit.
    """
    n = galois.length
    report = check_uniform(galois)
    if not report.uniform:
        v = report.violations[0]
        raise ValueError(f"target register is not uniform: bit {v.bit} {v.reason}")
    t = terminal_bit(galois)
    tails: dict[int, Anf] = {}
    for bit in galois.explicit_bits():
        if t <= bit <= n - 2:
            g = feedback_tail(galois, bit)
            for v in g.support():
                if v.reg != galois.id:
                    raise ForeignVariableError(
                        f"bit {bit} mixes in {v}; only the top bit may use other registers"
                    )
            tails[bit] = g

    indexed = {
        j: (
            g.const,
            [tuple(v.idx for v in term.sorted_vars()) for term in g.sorted_terms()],
            max(v.idx for v in g.support()) if g.terms else -1,
        )
        for j, g in tails.items()
    }
    fixups: list[tuple[int, int, tuple[tuple[int, ...], ...]]] = []
    for i in range(t + 1, n):
        const, products = 0, []
        for j, (g_const, g_products, g_top) in indexed.items():
            if j >= i:
                continue
            lag = i - 1 - j
            if g_top + lag >= n:
                raise ValueError(f"bit {j} reaches past the register after {lag} cycles")
            const ^= g_const
            products += [tuple(idx + lag for idx in product) for product in g_products]
        fixups.append((i, const, tuple(products)))

    def mapped(state: Sequence[int], ones: int = 1) -> tuple[int, ...]:
        bits = [int(b) & ones for b in state]
        out = list(bits)
        for i, const, products in fixups:
            acc = ones if const else 0
            for product in products:
                value = ones
                for idx in product:
                    value &= bits[idx]
                acc ^= value
            out[i] ^= acc
        return tuple(out)

    return mapped


def map_initial_state(
    fib: RegisterSpec, galois: RegisterSpec, state: Sequence[int]
) -> tuple[int, ...]:
    """State of the Galois register that replays a Fibonacci run bit for bit.

    Bits up to the terminal bit copy over unchanged; each higher bit
    absorbs the feedback contributions the Galois register would have
    mixed in on the way to producing the same output window.  The target
    must be uniform, collapse back to the given source, and keep foreign
    variables out of every bit below the top.
    """
    if galois.length != fib.length:
        raise ValueError("register lengths differ")
    if len(state) != galois.length:
        raise ValueError(f"state must have {galois.length} bits, got {len(state)}")
    out = _state_mapper(galois)(state)
    if collapse_to_fibonacci(galois) != fib:
        raise ValueError("target register does not collapse to the source register")
    return out


def map_system_state(
    fib_system: SystemSpec, galois_system: SystemSpec, state: SystemState
) -> SystemState:
    """Map every register with ``map_initial_state``, keeping the cycle count.

    Registers map in system order, so the first one that fails raises.
    """
    mapped = {
        r.id: map_initial_state(fib_system.register(r.id), r, state.bits(r.id))
        for r in galois_system.registers
    }
    return SystemState.from_bits(galois_system, mapped, cycle=state.cycle)


def _walk(spec: RegisterSpec, cycles: int) -> tuple[list[int], list[int]]:
    """Every packed state's first ``cycles`` output bits and ``cycles``-step successor.

    All 2**n states step together as instances of the bitsliced layout:
    input word i is the identity plane (bit s set iff bit i of s is), and
    the unit-step sliced kernel runs ``cycles`` times.  Before cycle c,
    word 0 holds output bit c of every state, so ``_unslice`` of those
    planes gives each state's prefix as an int (output bit c in bit c), and
    of the final words its successor.  A prefix is the state's whole output
    sequence up to ``cycles``, so states with equal prefixes are exactly the
    classes refinement would reach at that length.  ``_walk(spec, 1)[1]``
    is the transition table.  Prefixes of up to 64 bits fit ``_unslice``.
    """
    for bit in spec.explicit_bits():
        for term in spec.feedback[bit].sorted_terms():
            for v in term.vars:
                if v.reg != spec.id:
                    raise ForeignVariableError(
                        f"register {spec.id!r} is not autonomous: feedback uses {v}"
                    )
    n = spec.length
    ones = (1 << (1 << n)) - 1
    words = [_identity_plane(n, i) & ones for i in range(n)]
    sliced = SystemSpec([spec])._compiled.sliced(frozenset(), 1)
    outputs = []
    for _ in range(cycles):
        outputs.append(words[0])
        words = sliced(words, ones)
    return _unslice(outputs, 1 << n), _unslice(words, 1 << n)


def _identity_plane(n: int, i: int) -> int:
    """Bit i of each of the 2**n states, state s in bit s (whole bytes, 8 bits at least).

    Built from repeated bytes: big-int arithmetic (such as dividing the
    all-ones word) is superlinear in CPython and would cost more than the
    kernel call.
    """
    if i < 3:
        pattern = bytes((0xAA, 0xCC, 0xF0)[i : i + 1])
    else:
        run = 1 << (i - 3)
        pattern = bytes(run) + b"\xff" * run
    size = max(1, (1 << n) >> 3)
    return int.from_bytes(pattern * (size // len(pattern)), "little")


def _unslice(words: list[int], count: int) -> list[int]:
    """Instances 0..count-1 of the sliced layout as packed ints, bit i from ``words[i]``.

    Each word becomes one byte per instance (its binary digits, in
    reverse order through a big-endian read), eight words OR into one
    byte plane, and the byte planes interleave into fixed-width fields
    that ``array`` reads.  Fields are written little-endian and swapped
    on a big-endian host, so nothing depends on the host's byte order
    or C integer sizes.
    """
    code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= len(words))
    width = array(code).itemsize
    fields = bytearray(width * count)
    for j in range(0, len(words), 8):
        plane = 0
        for i, word in enumerate(words[j : j + 8]):
            plane |= int.from_bytes(format(word, "b").encode().translate(_SPREAD[i]), "big")
        fields[j // 8 :: width] = plane.to_bytes(count, "little")
    table = array(code, fields)
    if sys.byteorder == "big":
        table.byteswap()
    return table.tolist()


def _prefix_classes(spec_a: RegisterSpec, spec_b: RegisterSpec, horizon: int) -> list[int]:
    """Number the states of both registers by their first ``horizon`` output bits.

    Side a's state s is entry s, side b's is entry 2**n + s (whose bit 0 is
    still the output bit).  The classes start at L = the shortest leading
    run of horizon's binary digits whose value is at least n (at most
    2n - 1; all digits when horizon < n): equal L-bit prefixes from
    ``_walk`` are numbered alike.  Refinement then doubles over the
    remaining digits: given the classes of L-bit prefixes and the L-step
    successor J, (cls[s], cls[J[s]]) classes the 2L-bit prefixes, and for a
    set digit (s & 1, cls[succ[s]]) the (L + 1)-bit ones.  A round that
    splits no class ends refinement: longer prefixes separate nothing more.
    Returning drops the seed and round tables before the caller builds a
    witness.
    """
    n = spec_a.length
    size = 1 << n
    digits = bin(horizon)[2:]
    lead = next((i for i in range(1, len(digits)) if int(digits[:i], 2) >= n), len(digits))
    (pa, jump), (pb, jb) = (_walk(spec, int(digits[:lead], 2)) for spec in (spec_a, spec_b))
    ids: dict[int, int] = {}
    cls = [ids.setdefault(p, len(ids)) for part in (pa, pb) for p in part]
    count = len(ids)
    del pa, pb, ids  # the seed prefixes are numbered; drop them before the rounds
    jump += [size + t for t in jb]
    del jb
    rest = digits[lead:]
    out = succ = []  # the unit-step rounds' tables, built only when a digit needs them
    if "1" in rest:
        succ = _walk(spec_a, 1)[1] + [size + t for t in _walk(spec_b, 1)[1]]
        out = [0, 1] * size  # bit 0 of every entry
    for bit in rest:
        for head, step in [(cls, jump)] + [(out, succ)] * (bit == "1"):
            ids = {}
            cls = [ids.setdefault(h * count + cls[t], len(ids)) for h, t in zip(head, step)]
            if len(ids) == count:
                return cls
            count = len(ids)
            jump = [jump[t] for t in step]
    return cls


def check_equivalence_exhaustive(
    spec_a: RegisterSpec, spec_b: RegisterSpec, horizon: int | None = None
) -> ExhaustiveVerdict:
    """Compare output-prefix multisets over every initial state of both registers.

    Exact: ``_prefix_classes`` partitions the states of both registers by
    their first ``horizon`` output bits (default 2**n), and the registers
    are equal when every class holds as many states of each.  The first
    L >= n of those bits (all of them, for a horizon below n) come from one
    sliced ``_walk`` of L cycles: states with equal L-bit prefixes are the
    very classes that refinement from single bits reaches at L, so only the
    rest of the horizon is refined by doubling.  Memory is O(2**n).  Inputs
    with 2**n * horizon above ``EXHAUSTIVE_MAX_COST`` are refused before
    any table is built.
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
    if horizon << n > EXHAUSTIVE_MAX_COST:
        raise ValueError(
            f"exhaustive check too large: 2^{n} states x horizon {horizon} "
            f"exceeds 2^32 prefix bits"
        )
    size = 1 << n
    cls = _prefix_classes(spec_a, spec_b, horizon)
    if sorted(cls[:size]) == sorted(cls[size:]):
        return ExhaustiveVerdict(True, size, horizon)
    # Both sides hold 2**n states, so some unbalanced class holds more of
    # side a than of side b: the first unbalanced state is always on side a.
    ca, cb = Counter(cls[:size]), Counter(cls[size:])
    state = next(s for s, c in enumerate(cls) if ca[c] != cb[c])
    table = _walk(spec_a, 1)[1]
    prefix, s = [], state
    for _ in range(horizon):
        prefix.append(s & 1)
        s = table[s]
    witness = PrefixCounterexample("a", state, tuple(prefix))
    return ExhaustiveVerdict(False, size, horizon, witness)


def check_equivalence_mapped(
    fib_system: SystemSpec,
    galois_system: SystemSpec,
    trials: int,
    cycles: int,
    seed: int,
) -> MappedVerdict:
    """Seeded-random full-scale equivalence check between two systems.

    Each trial is a random state of the first system, converted register
    by register into the second; both run with no modes active and every
    register's bits 0..terminal must agree cycle for cycle.  The verdict
    is unequal when any trial diverges, and it reports the first
    divergence of the lowest-numbered such trial.

    Trials run bitsliced, up to ``_SLICE_TRIALS`` at once and in order:
    one word per register bit, trial t in bit t of every word.  The draw
    is ``_random_bits``, equal bit for bit to ``rng.randrange(2)`` per bit
    in trial, register, bit order, and one call of each register's
    mapping formula maps a whole slice.  Both systems advance k cycles
    per call and are compared at block ends (see ``_mapped_degree``), the
    last partial block one cycle at a time; a slice stops early once its
    first trial diverges, and no later slice runs once one has diverged.
    Only the lowest divergent trial is then replayed, alone and one cycle
    at a time, to find its first divergent cycle, register and bit.

    The conversion is deliberately the bare per-register formula, not
    ``map_system_state``: collapse equality is what the simulation tests,
    so it is not demanded up front, and a corrupted register surfaces as
    an unequal verdict with its divergence point, not as an error.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    ids = fib_system.register_ids()
    if ids != galois_system.register_ids():
        raise ValueError("systems declare different registers")
    terminals: dict[str, int] = {}
    for rid in ids:
        f, g = fib_system.register(rid), galois_system.register(rid)
        if f.length != g.length:
            raise ValueError(f"register {rid!r} lengths differ")
        terminals[rid] = terminal_bit(g)
    for reg in galois_system.registers:
        for expr in reg.feedback.values():
            for v in expr.support():
                if v.reg != reg.id and v.idx > terminals[v.reg]:
                    raise ValueError(
                        f"feedback of {reg.id!r} taps {v} above that register's "
                        f"terminal bit {terminals[v.reg]}; sequences there are not preserved"
                    )
    k = _mapped_degree(fib_system, galois_system, terminals)
    # Prepared once per check; a register the formula refuses raises
    # before anything is drawn, as it always has.
    mappers = {rid: _state_mapper(galois_system.register(rid)) for rid in ids} if trials else {}
    if not cycles:
        return MappedVerdict(True, trials, cycles)

    # Both systems declare the same registers in the same order, so they
    # share one layout: the bits of ids[0], then of ids[1], and so on.
    lengths = [fib_system.register(rid).length for rid in ids]
    offsets = [sum(lengths[:r]) for r in range(len(ids))]
    compared = [(off, off + terminals[rid] + 1) for off, rid in zip(offsets, ids)]
    width = sum(lengths)

    def diverged(fib_words, gal_words) -> int:
        # Equal slices, the usual case, are settled by one list compare.
        bad = 0
        for a, b in compared:
            if fib_words[a:b] != gal_words[a:b]:
                for p in range(a, b):
                    bad |= fib_words[p] ^ gal_words[p]
        return bad

    fib_comp, gal_comp = fib_system._compiled, galois_system._compiled
    no_modes = frozenset()
    rng = random.Random(seed)
    # Trials run in slices of at most _SLICE_TRIALS, in order, so memory
    # stays bounded; the first slice with a divergence holds the lowest
    # divergent trial.
    for first in range(0, trials, _SLICE_TRIALS):
        count = min(_SLICE_TRIALS, trials - first)
        ones = (1 << count) - 1
        drawn = _random_bits(rng, count * width)
        fib_words = [int(drawn[p::width][::-1].translate(_ASCII), 2) for p in range(width)]
        gal_words: list[int] = []
        for rid, off, n in zip(ids, offsets, lengths):
            gal_words += mappers[rid](fib_words[off:off + n], ones)
        # A trial that agrees at cycle c agrees at c+1..c+k iff it agrees
        # at c+k, so ``bad`` holds exactly the trials diverged so far.
        bad, cycle = diverged(fib_words, gal_words), 0
        while not bad & 1 and cycle < cycles - 1:
            step = k if cycle + k <= cycles - 1 else 1
            fib_words = fib_comp.sliced(no_modes, step)(fib_words, ones)
            gal_words = gal_comp.sliced(no_modes, step)(gal_words, ones)
            bad |= diverged(fib_words, gal_words)
            cycle += step
        if bad:
            break
    else:
        return MappedVerdict(True, trials, cycles)

    lowest = (bad & -bad).bit_length() - 1
    bits = {
        rid: drawn[lowest * width + off:lowest * width + off + n]
        for rid, off, n in zip(ids, offsets, lengths)
    }
    fib_words = _words(SystemState.from_bits(fib_system, bits))
    mapped = {rid: mappers[rid](bits[rid]) for rid in ids}
    gal_words = _words(SystemState.from_bits(galois_system, mapped))
    masks = [(1 << (terminals[rid] + 1)) - 1 for rid in ids]
    for cycle in range(cycles):
        for r, mask in enumerate(masks):
            diff = (fib_words[r] ^ gal_words[r]) & mask
            if diff:
                bit = (diff & -diff).bit_length() - 1
                point = DivergencePoint(first + lowest, ids[r], cycle, bit)
                return MappedVerdict(False, trials, cycles, point)
        fib_words = _advance(fib_comp, fib_words, no_modes)
        gal_words = _advance(gal_comp, gal_words, no_modes)
    raise AssertionError(f"trial {first + lowest} diverges bitsliced but not in unit steps")


def _random_bits(rng: random.Random, count: int) -> bytes:
    """``bytes(rng.randrange(2) for _ in range(count))``, drawn in bulk.

    This relies on how CPython's ``randrange(2)`` draws: each attempt
    reads one 32-bit Mersenne Twister output, rejects it when its top bit
    is set and otherwise returns its bit 30.  ``getrandbits(32 * m)``
    holds m consecutive outputs, the first in its lowest 32 bits, so the
    top byte of each decides one attempt.  A batch asks for no more
    outputs than bits are still missing, so the generator ends where
    ``count`` calls of ``randrange(2)`` leave it.  A test compares the
    two bit for bit; it is what guards this dependence.
    """
    out = b""
    while len(out) < count:
        m = count - len(out)
        tops = rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
        out += tops.translate(_BIT30, _TOP_SET)
    return out


_BIT30 = bytes((b >> 6) & 1 for b in range(256))
_TOP_SET = bytes(range(128, 256))
_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_SPREAD = [bytes.maketrans(b"01", bytes((0, 1 << i))) for i in range(8)]


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
        terms = frozenset(parse_term(chunk) for chunk in m.group(4).split(","))
        moves.append(ShiftMove(m.group(1), int(m.group(2)), int(m.group(3)), terms))
    return tuple(moves)


def format_shift_script(moves: Iterable[ShiftMove]) -> str:
    lines = []
    for move in moves:
        terms = ", ".join(str(t) for t in sorted(move.terms, key=term_sort_key))
        lines.append(f"shift {move.register} {move.source} -> {move.dest} : {terms}")
    return "\n".join(lines) + ("\n" if lines else "")
