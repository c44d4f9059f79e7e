"""Bit-exact simulation of systems of coupled feedback shift registers.

Every bit of every register updates simultaneously: feedback functions
and injected outputs are all evaluated on the pre-step state.  Specs and
states are immutable; stepping returns a fresh state, so independent
simulations can share them freely.

Each system compiles once into a single kernel that ``step``, ``run``,
``tap_trace`` and ``output_values`` share.  A state is validated once per
call, so ``run`` is the way to simulate many cycles: it loops on packed
words and builds one state at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .anf import Anf, Term, Var

__all__ = [
    "RegisterSpec",
    "OutputSpec",
    "Injection",
    "SystemSpec",
    "SystemState",
    "shift_expr",
    "step",
    "run",
    "tap_trace",
    "output_values",
]

def shift_expr(reg: str, bit: int, length: int) -> Anf:
    """Implicit feedback of an unlisted bit: the next-higher bit, wrapping at the top."""
    return Anf(frozenset({Term(frozenset({Var(reg, (bit + 1) % length)}))}), 0)


@dataclass(frozen=True)
class RegisterSpec:
    """One shift register: id, length, and explicit per-bit feedback.

    Bits absent from ``feedback`` shift implicitly.  Explicit entries that
    equal the implicit shift are dropped on construction so that "has
    explicit feedback" always means "does something besides shifting".
    """

    id: str
    length: int
    feedback: Mapping[int, Anf] = field(default_factory=dict)

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"register {self.id!r} must have positive length")
        norm: dict[int, Anf] = {}
        for bit, expr in self.feedback.items():
            if not 0 <= bit < self.length:
                raise ValueError(
                    f"feedback index {bit} outside register {self.id!r} "
                    f"of length {self.length}"
                )
            for v in expr.support():
                if v.reg == self.id and not 0 <= v.idx < self.length:
                    raise ValueError(
                        f"variable {v} out of range for register {self.id!r}"
                    )
            if expr != shift_expr(self.id, bit, self.length):
                norm[bit] = expr
        object.__setattr__(self, "feedback", norm)

    def expr(self, bit: int) -> Anf:
        """Effective feedback of a bit, explicit or implicit."""
        if bit in self.feedback:
            return self.feedback[bit]
        return shift_expr(self.id, bit, self.length)

    def explicit_bits(self) -> tuple[int, ...]:
        return tuple(sorted(self.feedback))

    def shift_var(self, bit: int) -> Var:
        return Var(self.id, (bit + 1) % self.length)


@dataclass(frozen=True)
class OutputSpec:
    """A named combining output; ``refs`` XOR in earlier outputs by name."""

    name: str
    expr: Anf
    refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Injection:
    """While ``mode`` is active, XOR output ``output`` into bit ``bit`` of ``register``."""

    mode: str
    register: str
    bit: int
    output: str


class SystemSpec:
    """A set of registers with named outputs and mode-gated injections."""

    def __init__(
        self,
        registers: Iterable[RegisterSpec],
        outputs: Iterable[OutputSpec] = (),
        injections: Iterable[Injection] = (),
        params: Mapping[str, int] | None = None,
    ):
        self.registers: tuple[RegisterSpec, ...] = tuple(registers)
        self.outputs: tuple[OutputSpec, ...] = tuple(outputs)
        self.injections: tuple[Injection, ...] = tuple(injections)
        self.params: dict[str, int] = dict(params or {})
        self._by_id = {r.id: r for r in self.registers}
        if len(self._by_id) != len(self.registers):
            raise ValueError("duplicate register ids")
        self._validate()

    def _validate(self) -> None:
        out_names: list[str] = []
        for out in self.outputs:
            if out.name in self._by_id:
                raise ValueError(f"output {out.name!r} clashes with a register id")
            if out.name in out_names:
                raise ValueError(f"duplicate output {out.name!r}")
            for ref in out.refs:
                if ref not in out_names:
                    raise ValueError(
                        f"output {out.name!r} references {ref!r}, which is not "
                        f"an earlier output"
                    )
            self._check_vars(out.expr, f"output {out.name!r}")
            out_names.append(out.name)
        for reg in self.registers:
            for bit, expr in reg.feedback.items():
                self._check_vars(expr, f"feedback {reg.id}[{bit}]")
        for inj in self.injections:
            if inj.register not in self._by_id:
                raise ValueError(f"injection targets unknown register {inj.register!r}")
            if not 0 <= inj.bit < self._by_id[inj.register].length:
                raise ValueError(
                    f"injection bit {inj.bit} outside register {inj.register!r}"
                )
            if inj.output not in out_names:
                raise ValueError(f"injection uses unknown output {inj.output!r}")
            if not inj.mode:
                raise ValueError("injection mode tag must be non-empty")

    def _check_vars(self, expr: Anf, where: str) -> None:
        for v in expr.support():
            reg = self._by_id.get(v.reg)
            if reg is None:
                raise ValueError(f"{where} references undeclared register {v.reg!r}")
            if not 0 <= v.idx < reg.length:
                raise ValueError(f"{where} references {v} beyond length {reg.length}")

    def register(self, reg_id: str) -> RegisterSpec:
        try:
            return self._by_id[reg_id]
        except KeyError:
            raise KeyError(f"unknown register {reg_id!r}") from None

    def register_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.registers)

    def output(self, name: str) -> OutputSpec:
        for out in self.outputs:
            if out.name == name:
                return out
        raise KeyError(f"unknown output {name!r}")

    def output_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.outputs)

    def replace_register(self, new_reg: RegisterSpec) -> "SystemSpec":
        regs = tuple(new_reg if r.id == new_reg.id else r for r in self.registers)
        if new_reg.id not in self._by_id:
            raise KeyError(f"unknown register {new_reg.id!r}")
        return SystemSpec(regs, self.outputs, self.injections, self.params)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SystemSpec):
            return NotImplemented
        return (
            self.registers == other.registers
            and self.outputs == other.outputs
            and self.injections == other.injections
            and self.params == other.params
        )

    def __repr__(self) -> str:
        regs = ", ".join(f"{r.id}[{r.length}]" for r in self.registers)
        outs = ", ".join(o.name for o in self.outputs)
        return f"SystemSpec({regs}; outputs: {outs or 'none'})"

    @cached_property
    def _compiled(self) -> "_CompiledSystem":
        return _CompiledSystem(self)


@dataclass(frozen=True)
class SystemState:
    """Current register contents plus a cycle counter.

    Register bits are packed into an int per register, bit i at weight
    2**i, which keeps stepping cheap without changing the observable
    bit-vector semantics.
    """

    regs: tuple[tuple[str, int, int], ...]  # (register id, length, packed bits)
    cycle: int = 0

    @classmethod
    def from_bits(
        cls,
        spec: SystemSpec,
        values: Mapping[str, Sequence[int]],
        cycle: int = 0,
    ) -> "SystemState":
        regs = []
        for reg in spec.registers:
            bits = values.get(reg.id)
            if bits is None:
                raise ValueError(f"no bits supplied for register {reg.id!r}")
            if len(bits) != reg.length:
                raise ValueError(
                    f"register {reg.id!r} expects {reg.length} bits, got {len(bits)}"
                )
            word = 0
            for i, bit in enumerate(bits):
                if bit not in (0, 1):
                    raise ValueError(f"bit {reg.id}[{i}] is {bit!r}")
                word |= bit << i
            regs.append((reg.id, reg.length, word))
        extra = set(values) - {r.id for r in spec.registers}
        if extra:
            raise ValueError(f"bits supplied for unknown registers {sorted(extra)}")
        return cls(tuple(regs), cycle)

    @classmethod
    def zeros(cls, spec: SystemSpec, cycle: int = 0) -> "SystemState":
        return cls(tuple((r.id, r.length, 0) for r in spec.registers), cycle)

    def word(self, reg_id: str) -> int:
        for rid, _, word in self.regs:
            if rid == reg_id:
                return word
        raise KeyError(f"unknown register {reg_id!r}")

    def bits(self, reg_id: str) -> tuple[int, ...]:
        for rid, length, word in self.regs:
            if rid == reg_id:
                return tuple((word >> i) & 1 for i in range(length))
        raise KeyError(f"unknown register {reg_id!r}")

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((rid, length) for rid, length, _ in self.regs)


# Compiled form: per-term masks over packed register words.  A product is
# true when, for each register it touches, word & mask == mask.
_CompiledExpr = tuple[int, tuple[tuple[tuple[int, int], ...], ...]]


def _eval_terms(const: int, terms, words) -> int:
    """Value of a compiled expression on the packed register words."""
    v = const
    for term in terms:
        for r, m in term:
            if words[r] & m != m:
                break
        else:
            v ^= 1
    return v


def _next_word_fn(i: int, length: int, rows, wrap: bool):
    """Next packed word of register ``i``, read off the pre-step words."""
    top = length - 1

    def next_word(words) -> int:
        w = words[i]
        t = w >> 1
        if wrap:
            t |= (w & 1) << top
        for bit, const, terms, clear in rows:
            t = (t & clear) | (_eval_terms(const, terms, words) << bit)
        return t

    return next_word


class _CompiledSystem:
    __slots__ = (
        "index",
        "next_word",
        "out_order",
        "outputs",
        "inj_by_mode",
        "_needed_cache",
        "_out_closures",
        "signature",
    )

    def __init__(self, spec: SystemSpec):
        self.index = {r.id: i for i, r in enumerate(spec.registers)}
        self.signature = tuple((r.id, r.length) for r in spec.registers)

        def compile_expr(expr: Anf) -> _CompiledExpr:
            terms = []
            for term in expr.sorted_terms():
                masks: dict[int, int] = {}
                for v in term.vars:
                    masks[self.index[v.reg]] = masks.get(self.index[v.reg], 0) | (
                        1 << v.idx
                    )
                terms.append(tuple(sorted(masks.items())))
            return (expr.const, tuple(terms))

        next_word = []
        for i, r in enumerate(spec.registers):
            rows = []
            for bit in sorted(r.feedback):
                const, terms = compile_expr(r.feedback[bit])
                rows.append((bit, const, terms, ~(1 << bit)))
            wrap = r.length - 1 not in r.feedback
            next_word.append(_next_word_fn(i, r.length, tuple(rows), wrap))
        self.next_word = tuple(next_word)

        self.out_order = tuple(o.name for o in spec.outputs)
        self.outputs = {
            o.name: compile_expr(o.expr) + (o.refs,) for o in spec.outputs
        }

        closures: dict[str, set[str]] = {}
        for o in spec.outputs:
            need = {o.name}
            for ref in o.refs:
                need |= closures[ref]
            closures[o.name] = need
        self._out_closures = closures
        inj: dict[str, list[tuple[int, int, str]]] = {}
        for j in spec.injections:
            inj.setdefault(j.mode, []).append((self.index[j.register], j.bit, j.output))
        self.inj_by_mode = {m: tuple(v) for m, v in inj.items()}
        self._needed_cache: dict[frozenset, tuple[str, ...]] = {frozenset(): ()}

    def needed_outputs(self, modes: frozenset) -> tuple[str, ...]:
        got = self._needed_cache.get(modes)
        if got is None:
            got = self._needed_cache[modes] = self.closure_of(
                name for mode in modes for _, _, name in self.inj_by_mode.get(mode, ())
            )
        return got

    def closure_of(self, names: Iterable[str]) -> tuple[str, ...]:
        need: set[str] = set()
        for n in names:
            need |= self._out_closures[n]
        return tuple(n for n in self.out_order if n in need)

    def evaluate(self, words, order: Sequence[str]) -> dict[str, int]:
        """Outputs named in ``order`` (a reference closure, earliest first)."""
        vals: dict[str, int] = {}
        for name in order:
            const, terms, refs = self.outputs[name]
            v = _eval_terms(const, terms, words)
            for ref in refs:
                v ^= vals[ref]
            vals[name] = v
        return vals


def _advance(comp: _CompiledSystem, words, modes: frozenset) -> list[int]:
    """One simultaneous cycle on packed words, in system register order.

    Injected outputs are evaluated on the same pre-step words as the
    feedback functions.
    """
    new = [next_word(words) for next_word in comp.next_word]
    if modes:
        vals = comp.evaluate(words, comp.needed_outputs(modes))
        for mode in modes:
            for r, bit, name in comp.inj_by_mode.get(mode, ()):
                new[r] ^= vals[name] << bit
    return new


def _words(state: SystemState) -> list[int]:
    return [w for _, _, w in state.regs]


def _state(comp: _CompiledSystem, words, cycle: int) -> SystemState:
    regs = tuple((rid, n, w) for (rid, n), w in zip(comp.signature, words))
    return SystemState(regs, cycle)


def _check_state(spec: SystemSpec, state: SystemState) -> None:
    if state.signature() != spec._compiled.signature:
        raise ValueError("state does not conform to the system spec")


def output_values(
    spec: SystemSpec, state: SystemState, names: Iterable[str] | None = None
) -> dict[str, int]:
    """Evaluate named outputs (all of them by default) on the given state."""
    _check_state(spec, state)
    comp = spec._compiled
    wanted = comp.out_order if names is None else tuple(names)
    for n in wanted:
        if n not in comp.outputs:
            raise KeyError(f"unknown output {n!r}")
    vals = comp.evaluate(_words(state), comp.closure_of(wanted))
    return {n: vals[n] for n in wanted}


def step(
    spec: SystemSpec, state: SystemState, modes: Iterable[str] = frozenset()
) -> SystemState:
    """Advance every register one cycle, simultaneously.

    Active ``modes`` enable the matching injections, whose output values
    are computed from the same pre-step state as the feedback functions.
    """
    _check_state(spec, state)
    comp = spec._compiled
    words = _advance(comp, _words(state), frozenset(modes))
    return _state(comp, words, state.cycle + 1)


def run(
    spec: SystemSpec,
    state: SystemState,
    cycles: int,
    modes: Iterable[str] = frozenset(),
    watch: Iterable = (),
) -> tuple[dict, SystemState]:
    """Run ``cycles`` steps, recording watched signals at each visited state.

    Watch targets are output names or ``(register_id, bit)`` pairs; values
    are taken before stepping, so each sequence has exactly ``cycles``
    entries.  Returns the traces and the final state.
    """
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    _check_state(spec, state)
    comp = spec._compiled
    watch = tuple(watch)
    for target in watch:
        if isinstance(target, str):
            if target not in comp.outputs:
                raise KeyError(f"unknown watch target {target!r}")
        else:
            reg, bit = target
            if reg not in comp.index:
                raise KeyError(f"unknown watch target {target!r}")
            if not 0 <= bit < comp.signature[comp.index[reg]][1]:
                raise KeyError(f"watch bit {bit} outside register {reg!r}")
    modes = frozenset(modes)
    traces: dict = {t: [] for t in watch}
    outs = [(traces[t], t) for t in watch if isinstance(t, str)]
    taps = [
        (traces[t], comp.index[t[0]], t[1]) for t in watch if not isinstance(t, str)
    ]
    order = comp.closure_of(name for _, name in outs)
    words = _words(state)
    for _ in range(cycles):
        if order:
            vals = comp.evaluate(words, order)
            for seq, name in outs:
                seq.append(vals[name])
        for seq, r, bit in taps:
            seq.append((words[r] >> bit) & 1)
        words = _advance(comp, words, modes)
    return {t: tuple(seq) for t, seq in traces.items()}, _state(
        comp, words, state.cycle + cycles
    )


def tap_trace(
    spec: SystemSpec,
    state: SystemState,
    cycles: int,
    reg_id: str,
    modes: Iterable[str] = frozenset(),
) -> tuple[tuple[int, ...], ...]:
    """Full per-bit history of one register: rows are cycles, columns bits."""
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    _check_state(spec, state)
    watch = [(reg_id, i) for i in range(spec.register(reg_id).length)]
    traces, _ = run(spec, state, cycles, modes, watch)
    return tuple(zip(*(traces[t] for t in watch)))
