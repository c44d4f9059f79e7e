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
"""

from __future__ import annotations

import random
import re
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
    side: str  # "a" or "b"
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


def _state_mapper(galois: RegisterSpec) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The state-conversion formula alone, without the collapse check.

    Prepared once per register, it maps any number of states: bit
    i > terminal absorbs every tail g_j (terminal <= j < i) read
    i - 1 - j cycles on, and each product is a tuple of state indices,
    so mapping a state evaluates no expression.
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

    def mapped(state: Sequence[int]) -> tuple[int, ...]:
        bits = [int(b) & 1 for b in state]
        out = list(bits)
        for i, acc, products in fixups:
            for product in products:
                value = 1
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


def _transition_table(spec: RegisterSpec) -> list[int]:
    """Successor of every packed state, from the engine's compiled kernel."""
    for bit in spec.explicit_bits():
        for term in spec.feedback[bit].sorted_terms():
            for v in term.vars:
                if v.reg != spec.id:
                    raise ForeignVariableError(
                        f"register {spec.id!r} is not autonomous: feedback uses {v}"
                    )
    unit_step = SystemSpec([spec])._compiled.kernel(frozenset(), 1)
    return [unit_step((s,), 1, ())[0] for s in range(1 << spec.length)]


def _prefix_classes(succ: list[int], horizon: int) -> list[int]:
    """Number every state by its first ``horizon`` output bits (bit 0 of each state).

    Refinement by doubling: given the classes of L-bit prefixes and the
    L-step successor J, (cls[s], cls[J[s]]) classes the 2L-bit prefixes and
    (s & 1, cls[succ[s]]) the (L + 1)-bit ones.  Every bit of horizon after
    the leading one doubles L, and a set bit then adds one.  A round that
    splits no class ends refinement: longer prefixes separate nothing more.
    """
    out = [s & 1 for s in range(len(succ))]
    cls, jump, count = out, succ, 2
    for bit in bin(horizon)[3:]:
        for head, step in [(cls, jump)] + [(out, succ)] * (bit == "1"):
            ids: dict[int, int] = {}
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
    are equal when every class holds as many states of each.  Memory is
    O(2**n).  Inputs with 2**n * horizon above ``EXHAUSTIVE_MAX_COST`` are
    refused before any table is built.
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
    # side b's states are numbered size + s; bit 0 is still the output bit
    succ = _transition_table(spec_a) + [size + t for t in _transition_table(spec_b)]
    cls = _prefix_classes(succ, horizon)
    ca, cb = Counter(cls[:size]), Counter(cls[size:])
    if ca == cb:
        return ExhaustiveVerdict(True, size, horizon)
    first = next(s for s, c in enumerate(cls) if ca[c] != cb[c])
    prefix, s = [], first
    for _ in range(horizon):
        prefix.append(s & 1)
        s = succ[s]
    side, state = divmod(first, size)
    witness = PrefixCounterexample("ab"[side], state, tuple(prefix))
    return ExhaustiveVerdict(False, size, horizon, witness)


def check_equivalence_mapped(
    fib_system: SystemSpec,
    galois_system: SystemSpec,
    trials: int,
    cycles: int,
    seed: int,
) -> MappedVerdict:
    """Seeded-random full-scale equivalence check between two systems.

    For each trial, a random state of the first system is converted
    register by register into the second; both run with no modes active
    and every register's bits 0..terminal must agree cycle for cycle.
    Both advance k cycles per lane step and are compared at block
    boundaries (see ``_mapped_degree``); a block that ends in a divergence
    is replayed one cycle at a time, so the reported point is the first
    divergent cycle, as with unit steps.

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

    # Both systems declare the same registers in the same order, so index r
    # of either word list is register ids[r].
    masks = [(1 << (terminals[rid] + 1)) - 1 for rid in ids]
    fib_comp, gal_comp = fib_system._compiled, galois_system._compiled
    no_modes = frozenset()
    k = _mapped_degree(fib_system, galois_system, terminals)

    def divergence(fib_words, gal_words) -> tuple[int, int] | None:
        for r, mask in enumerate(masks):
            diff = (fib_words[r] ^ gal_words[r]) & mask
            if diff:
                return r, (diff & -diff).bit_length() - 1
        return None

    def replay(trial, fib_words, gal_words, first, last) -> DivergencePoint | None:
        """First divergence in cycles first..last, one unit step at a time."""
        for cycle in range(first, last + 1):
            if cycle > first:
                fib_words = _advance(fib_comp, fib_words, no_modes)
                gal_words = _advance(gal_comp, gal_words, no_modes)
            hit = divergence(fib_words, gal_words)
            if hit is not None:
                return DivergencePoint(trial, ids[hit[0]], cycle, hit[1])
        return None

    # Prepared once per check, not per trial; a register the formula
    # refuses raises before the first trial steps, as it always has.
    mappers = {rid: _state_mapper(galois_system.register(rid)) for rid in ids} if trials else {}
    rng = random.Random(seed)
    for trial in range(trials):
        bits = {
            rid: [rng.randrange(2) for _ in range(fib_system.register(rid).length)]
            for rid in ids
        }
        fib_words = _words(SystemState.from_bits(fib_system, bits))
        mapped = {rid: mappers[rid](bits[rid]) for rid in ids}
        gal_words = _words(SystemState.from_bits(galois_system, mapped))
        point = replay(trial, fib_words, gal_words, 0, 0) if cycles else None
        # Cycle ``start`` agrees, so cycles start+1..start+k all agree iff
        # cycle start+k does; only a block that ends in a divergence is replayed.
        start = 0
        while point is None and start < cycles - 1:
            fib_next = fib_comp.kernel(no_modes, k)(fib_words, 1, ())
            gal_next = gal_comp.kernel(no_modes, k)(gal_words, 1, ())
            if divergence(fib_next, gal_next) is not None:
                point = replay(trial, fib_words, gal_words, start, min(start + k, cycles - 1))
            fib_words, gal_words, start = fib_next, gal_next, start + k
        if point is not None:
            return MappedVerdict(False, trials, cycles, point)
    return MappedVerdict(True, trials, cycles)


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
