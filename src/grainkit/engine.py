"""Bit-exact simulation of systems of coupled feedback shift registers.

Every bit of every register updates simultaneously: feedback functions
and injected outputs are all evaluated on the pre-step state.  Specs and
states are immutable; stepping returns a fresh state, so independent
simulations can share them freely.

Each system compiles once.  ``run`` is the one path that steps a single
instance: ``step``, ``tap_trace`` and ``output_values`` only call it, and
it runs generated lane kernels.  A state is validated once per
call, so one ``run`` is the way to simulate many cycles: it loops on
packed words and builds one state at the end.

Lane form.  Every feedback is written ``f_j = x[(j+1) mod n] ^ g_j``, a
rotation plus a tail.  Let ``G_j`` be the k-lane word whose lane m holds
``g_j`` at cycle m (plus any injected output at cycle m).  Each register
keeps one word per step, ``x = w ^ XOR_j (G_j << (j + 1))``: each window
is XORed in once, right after it is computed, and the step ends with
``w' = rotr(x, k)``.  Tap v reads ``x >> v``, plus ``x << (n - v)`` when
the read crosses the top.  A window already in x reaches the tap
``j + 1 - v`` lanes up (and ``n`` more through the fold), while the tap
needs it ``(j - v) mod n + 1`` lanes up; every shift in one set and not
the other, below k in size, XORs the window in once more.  The kernels
that keystream generation runs on the bundled Grain configurations need
no such term.  A lane word is cut to k bits once, where it must be: a tap
read linearly or recorded as it is read (XOR is as wide as its widest
operand), and a product of taps none of which is cut (AND is as narrow as
its narrowest operand), so every window is k bits wide when it enters the
register word.  Taps, windows and outputs are evaluated in
dependency order, so a k is legal when those dependencies have no cycle;
one test, a topological sort of the dependency graph at k, decides that
both for the kernel and for the largest legal k.  ``run`` takes
``cycles // k`` lane steps at the largest legal k for its modes (at most
the shortest register's length), then one step of the ``cycles % k`` left.

Watched signals are evaluated over the whole run, not per step.  A tap v
with no window of its register below v is bit 0 read v cycles later, so
the steps record bit 0 for it, and their own lane word for any other
watched tap.  Each recorded sequence joins into one int (bit c at cycle
c), which the final state's word extends, and one generated function
evaluates every watched output over those ints, which ``run_ints``
returns and ``run`` expands into bits.  Only injected outputs, which the
windows read, are computed inside the steps.

Two layouts run many instances of one system at once.  The lane kernel
takes a lane width T: each lane is T bits, one per instance, every shift
is scaled by T and every mask covers k T bits, so one operator steps k
cycles of T instances.  A register word is then (n + k) T bits wide, so
wider than T = 1 the kernel touches less of it: a plain read of a tap
v < n / 2 (no fold, no correction term) is cut to its k lanes before it
shifts, ``(w & M_v) >> v T``, which touches (v + k) T bits rather than
(n + k - v) T, and windows computed back to back enter the word in one
XOR, before the next read of that register and before the rotation.  At
T = 1 its source is the single-instance one.
The sliced layout (``_CompiledSystem.sliced``) is bitsliced: one word per
register bit, one instance per bit of each word.  It is generated from
the same shift-plus-tail form and expression emitter, k unrolled cycles
per call.  The mapped equivalence check steps a slice of few trials on
lanes and a wide one sliced; the exhaustive check's prefix walk steps
every state of a register at once, sliced.

That k is a property of the software, not of the hardware.
``transform.max_hw_parallel_degree`` asks for k - 1 bits of headroom above
every tap, because duplicated hardware logic reads bits v..v+k-1 of the
current state; a lane kernel instead computes the windows a tap needs
before reading it.  So grain80-galois-1, of hardware degree 1, runs 17
cycles per lane step in key generation (16 during initialization, where Z
is injected), and every bundled Grain-128 configuration runs 32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping, Sequence

from .anf import Anf, Term, Var, xor_merge
from .bits import int_bits

__all__ = [
    "RegisterSpec",
    "OutputSpec",
    "Injection",
    "SystemSpec",
    "SystemState",
    "shift_expr",
    "step",
    "run",
    "run_ints",
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
            bad = [v for v in expr.support() if v.reg == self.id and not 0 <= v.idx < self.length]
            if bad:
                raise ValueError(f"variable {min(bad)} out of range for register {self.id!r}")
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

    def tail(self, bit: int) -> Anf:
        """``g`` in the shift-plus-tail form ``f_bit = x[(bit + 1) mod n] ^ g``."""
        return xor_merge(self.expr(bit), {Term(frozenset({self.shift_var(bit)}))})

    @cached_property
    def _alone(self) -> "SystemSpec":
        """This register as a system of its own, built once so its kernels compile once.

        The register must read no other register's bits.
        """
        return SystemSpec([self])


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
        for v in sorted(expr.support()):
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
                return int_bits(word, length)
        raise KeyError(f"unknown register {reg_id!r}")

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((rid, length) for rid, length, _ in self.regs)


# Lane-kernel nodes: ("t", r, v) is the lane word of tap v of register r,
# ("g", r, j) the window of bit j of register r (its tail plus injections),
# ("o", i, 0) the lane word of output i.
def _var(node) -> str:
    return "_".join(map(str, node))


class _CompiledSystem:
    """A system compiled once; lane kernels are generated per (modes, k, record, T),
    watch plans per (modes, watch) and sliced kernels per (modes, k)."""

    __slots__ = (
        "index",
        "signature",
        "tails",
        "outputs",
        "out_index",
        "inj_by_mode",
        "_degrees",
        "_kernels",
    )

    def __init__(self, spec: SystemSpec):
        self.index = {r.id: i for i, r in enumerate(spec.registers)}
        self.signature = tuple((r.id, r.length) for r in spec.registers)
        self.tails = {
            (i, bit): r.tail(bit)
            for i, r in enumerate(spec.registers)
            for bit in sorted(r.feedback)
        }
        self.outputs = spec.outputs
        self.out_index = {o.name: i for i, o in enumerate(spec.outputs)}
        inj: dict[str, list[tuple[int, int, int]]] = {}
        for j in spec.injections:
            inj.setdefault(j.mode, []).append(
                (self.index[j.register], j.bit, self.out_index[j.output])
            )
        self.inj_by_mode = {m: tuple(v) for m, v in inj.items()}
        self._degrees: dict[frozenset, int] = {}
        self._kernels: dict[tuple, object] = {}

    def _windows(self, modes: frozenset) -> dict[tuple[int, int], list[int]]:
        """(register, bit) of every nonzero tail or active injection -> injected outputs."""
        wins: dict[tuple[int, int], list[int]] = {key: [] for key in self.tails}
        for mode in sorted(modes):
            for r, bit, out in self.inj_by_mode.get(mode, ()):
                wins.setdefault((r, bit), []).append(out)
        return wins

    def _taps(self, expr: Anf | None) -> list:
        if expr is None:
            return []
        return [("t", self.index[v.reg], v.idx) for v in sorted(expr.support())]

    def _deps(self, node, wins, k: int) -> list:
        """Nodes whose lane words ``node`` reads at k lanes."""
        kind, r, j = node
        if kind == "t":
            n = self.signature[r][1]
            return [("g", q, b) for q, b in wins if q == r and (b - j) % n <= k - 2]
        if kind == "g":
            return self._taps(self.tails.get((r, j))) + [("o", i, 0) for i in wins[r, j]]
        out = self.outputs[r]
        return self._taps(out.expr) + [("o", self.out_index[ref], 0) for ref in out.refs]

    def _graph(self, roots, wins, k: int) -> dict:
        """Dependencies at k lanes of everything ``roots`` reads."""
        graph: dict = {}
        todo = list(roots)
        while todo:
            node = todo.pop()
            if node not in graph:
                graph[node] = self._deps(node, wins, k)
                todo += graph[node]
        return graph

    def degree(self, modes: frozenset) -> int:
        """Largest k at which ``modes`` has a lane kernel (1 always does).

        Tap v reads window j once k >= (j - v) mod n + 2, so dependencies
        only grow with k and a cycle, once closed, stays closed: k is
        bisected over 1..min(length) with the kernel's own acyclicity test.
        """
        got = self._degrees.get(modes)
        if got is not None:
            return got
        wins = self._windows(modes)
        roots = [("g", r, j) for r, j in wins]
        lo, hi = 1, min(n for _, n in self.signature)
        while lo < hi:
            k = (lo + hi + 1) // 2
            try:
                TopologicalSorter(self._graph(roots, wins, k)).prepare()
                lo = k
            except CycleError:
                hi = k - 1
        self._degrees[modes] = lo
        return lo

    def kernel(self, modes: frozenset, k: int, record: tuple = (), T: int = 1):
        """``lanes(words, steps, sinks) -> words``: ``steps`` k-cycle steps.

        Each step appends the k-lane word of every tap in ``record``
        (``(register index, bit)`` pairs) to the matching list in ``sinks``.
        Each lane is ``T`` bits wide, one per instance: register bit i of
        instance t sits at bit ``i * T + t`` of its register's word, and
        lane m of a recorded word at bits ``m * T`` up.  Every shift is a
        multiple of T and AND and XOR work bit by bit, so instances never
        mix, and a k is legal at every T when it is legal at 1.  Wider
        than T = 1, low taps are cut before they shift and windows enter
        the word in groups (see the module docstring).
        """
        key = (modes, k, record, T)
        fn = self._kernels.get(key)
        if fn is None:
            fn = self._kernels[key] = self._compile(modes, k, record, T)
        return fn

    def _compile(self, modes: frozenset, k: int, record: tuple, T: int = 1):
        if not 1 <= k <= min(n for _, n in self.signature):
            raise ValueError(f"no lane kernel at k={k}")
        wins = self._windows(modes)
        targets = [("t", r, v) for r, v in record]
        graph = self._graph([("g", r, j) for r, j in wins] + targets, wins, k)
        try:
            order = tuple(TopologicalSorter(graph).static_order())
        except CycleError:
            raise ValueError(f"no lane kernel at k={k}: lanes depend on each other") from None
        # the all-ones word of k lanes; wider than T = 1 it is bound once,
        # as CPython refuses to write an int of over 4300 digits in decimal
        lanes = str((1 << k) - 1) if T == 1 else "m"
        # cut to k lanes: taps read linearly or recorded, and products of
        # uncut taps (see the module docstring)
        linear = [
            t
            for node in order
            if node[0] != "t"
            for t in (self._expr(node, wins)[0] or Anf()).terms
            if t.degree == 1
        ]
        masked = set(targets) | set(self._taps(Anf(linear)))
        narrow = set(masked)  # taps whose lane word is k lanes wide
        cuts = set()  # taps v read cut before their shift, by the mask bound as m{v}

        def term(vs) -> str:
            nodes = [("t", self.index[v.reg], v.idx) for v in vs]
            names = [_var(t) for t in nodes]
            if len(nodes) > 1 and narrow.isdisjoint(nodes):
                names.append(lanes)
            return " & ".join(names)

        def out(i: int) -> str:
            return _var(("o", i, 0))

        body, added, pending = [], set(), {}

        def insert(r: int) -> None:
            # register r's pending windows enter its word in one XOR, each
            # shifted by j + 1 lanes
            group = sorted(pending.pop(r, ()))
            if group:
                a = group[0]
                parts = [_var(("g", r, a))]
                parts += [f"{_var(('g', r, b))} << {(b - a) * T}" for b in group[1:]]
                grouped = parts[0] if len(group) == 1 else f"({_xor(parts)})"
                body.append(f"w{r} ^= {grouped} << {(a + 1) * T}")
                added.update((r, j) for j in group)

        for node in order:
            kind, r, j = node
            if kind == "t":
                insert(r)
                parts = self._tap(r, j, k, added, T)
                if T > 1 and len(parts) == 1 and 2 * j < self.signature[r][1]:
                    # a plain read of a low tap: cutting first touches
                    # (j + k) lanes, not the n + k - j lanes of the shift
                    cuts.add(j)
                    parts = [f"(w{r} & m{j}) >> {j * T}" if j else f"w{r} & m"]
                    narrow.add(node)
                elif node in masked:
                    parts = [f"({_xor(parts)}) & {lanes}"]
            else:
                parts = self._parts(node, wins, term, out, lanes)
            body.append(f"{_var(node)} = {_xor(parts)}")
            if kind == "g":
                # wider than T = 1, windows computed back to back enter the
                # word together, before the next read of it
                pending.setdefault(r, []).append(j)
                if T == 1:
                    insert(r)
        for r, (_, n) in enumerate(self.signature):
            insert(r)
            body.append(f"w{r} = w{r} >> {k * T} ^ (w{r} & {lanes}) << {(n - k) * T}")
        body += [f"a{i}({_var(t)})" for i, t in enumerate(targets)]
        words = "".join(f"w{r}, " for r in range(len(self.signature)))
        src = "\n".join(
            ["def lanes(words, steps, sinks):", f"    {words}= words"]
            + [f"    m = {(1 << k * T) - 1:#x}"] * (T > 1)
            + [f"    m{v} = {((1 << k * T) - 1) << v * T:#x}" for v in sorted(cuts) if v]
            + [f"    a{i} = sinks[{i}].append" for i in range(len(targets))]
            + ["    for _ in range(steps):"]
            + [f"        {line}" for line in body]
            + [f"    return [{words}]"]
        )
        return _exec(src, "lanes", f"<lanes k={k}>" if T == 1 else f"<lanes k={k} T={T}>")

    def _tap(self, r: int, v: int, k: int, added: set, T: int) -> list[str]:
        """XOR operands of the lane word of tap v of register r, read from the register word.

        The word holds the windows in ``added``, window j shifted by j + 1.
        Read at v (and folded back past the top, when the read crosses
        it), window j lands ``j + 1 - v`` lanes up (and ``n`` more through
        the fold), but the tap needs it ``(j - v) mod n + 1`` lanes up.
        Every shift in one set and not in the other, below k in size,
        XORs the window in once more.  Each such shift is zero or down: the
        read at v puts a window j >= v where the tap needs it, and a
        window j < v is needed n + j + 1 - v lanes up, which only the fold
        reaches below k.  Lanes k and up hold other bits.  A lane is T
        bits wide, so every shift is scaled by T.
        """
        n, w = self.signature[r][1], f"w{r}"
        fold = n - v < k
        parts = [f"{w} >> {v * T}" if v else w] + [f"{w} << {(n - v) * T}"] * fold
        for q, j in sorted(added):
            if q != r:
                continue
            g, got = _var(("g", r, j)), {j + 1 - v, j + 1 - v + n} if fold else {j + 1 - v}
            for s in sorted(got ^ {(j - v) % n + 1}):
                if -k < s < k:
                    parts.append(f"{g} >> {-s * T}" if s else g)
        return parts

    def plan(self, modes: frozenset, watch: tuple):
        """``(record, watched)``: how ``run`` observes ``watch`` under ``modes``.

        ``record`` lists the taps whose lane words the kernels record.  A
        tap v with no window of its register below v is bit 0 read v
        cycles later, so it is read from the register's bit-0 sequence;
        any other watched tap records its own lane word.
        ``watched(seqs, mask)`` takes one whole-run int per recorded tap
        and returns the value of every watch target over the run, outputs
        evaluated by the one expression emitter.
        """
        key = ("plan", modes, watch)
        got = self._kernels.get(key)
        if got is None:
            got = self._kernels[key] = self._plan(modes, watch)
        return got

    def _plan(self, modes: frozenset, watch: tuple):
        low = {}  # lowest window bit of each register
        for r, j in self._windows(modes):
            low[r] = min(low.get(r, j), j)
        record: dict[tuple[int, int], int] = {}

        def read(r: int, v: int) -> str:
            b = 0 if v <= low.get(r, v) else v
            s = f"s{record.setdefault((r, b), len(record))}"
            return f"{s} >> {v - b}" if v > b else s

        def term(vs) -> str:
            return " & ".join(read(self.index[v.reg], v.idx) for v in vs)

        def out(i: int) -> str:
            return f"o{i}"

        # watched outputs and the outputs they XOR in; refs name earlier
        # outputs, so index order evaluates them in time
        roots = [("o", self.out_index[t], 0) for t in watch if isinstance(t, str)]
        outs = sorted(i for kind, i, _ in self._graph(roots, {}, 1) if kind == "o")
        body = [f"o{i} = {_xor(self._parts(('o', i, 0), {}, term, out, 'mask'))}" for i in outs]
        values = [
            f"o{self.out_index[t]}" if isinstance(t, str) else read(self.index[t[0]], t[1])
            for t in watch
        ]
        seqs = "".join(f"s{i}, " for i in range(len(record)))
        src = "\n".join(
            ["def watched(seqs, mask):", f"    {seqs or '_ '}= seqs"]
            + [f"    {line}" for line in body]
            + [f"    return ({''.join(f'{v} & mask, ' for v in values)})"]
        )
        return tuple(record), _exec(src, "watched", "<watched>")

    def _expr(self, node, wins) -> tuple[Anf | None, list[int]]:
        """ANF and XORed-in output indices of a window ("g") or output ("o") node."""
        kind, r, j = node
        if kind == "g":
            return self.tails.get((r, j)), wins[r, j]
        out = self.outputs[r]
        return out.expr, [self.out_index[ref] for ref in out.refs]

    def _parts(self, node, wins, term, out, one: str) -> list[str]:
        """XOR operands of a window ("g") or output ("o") node, the one expression emitter.

        Each product of the node's ANF is ``term(its sorted vars)``, its
        constant is ``one`` (the all-ones word of the layout), and each
        output it XORs in is ``out(index)``.
        """
        expr, refs = self._expr(node, wins)
        parts = []
        if expr is not None:
            parts = [term(t.sorted_vars()) for t in expr.sorted_terms()]
            parts += [one] * expr.const
        return parts + [out(i) for i in refs]

    def sliced(self, modes: frozenset, k: int):
        """``sliced(words, ones) -> words``: k cycles of many instances at once.

        The bitsliced layout (Biham 1997): one word per register bit, in
        system register order, and one instance per bit of every word;
        ``ones`` sets the bit of every instance.  Generated from the same
        shift-plus-tail form as the lane kernel: in each cycle, bit j of a
        window becomes bit j + 1 XOR ``g_j`` (plus injected outputs), and
        every other bit is only renamed, so nothing is copied.
        """
        key = ("sliced", modes, k)
        fn = self._kernels.get(key)
        if fn is None:
            fn = self._kernels[key] = self._compile_sliced(modes, k)
        return fn

    def _compile_sliced(self, modes: frozenset, k: int):
        wins = self._windows(modes)
        # outputs the active injections read, directly or through refs;
        # refs name earlier outputs, so index order evaluates them in time
        graph = self._graph([("g", r, j) for r, j in wins], wins, 1)
        outs = sorted(i for kind, i, _ in graph if kind == "o")
        cur = {
            (r, j): f"v{r}_{j}_0" for r, (_, n) in enumerate(self.signature) for j in range(n)
        }
        body = [f"{''.join(f'{name}, ' for name in cur.values())}= words"]
        for c in range(k):

            def term(vs) -> str:
                return " & ".join(cur[self.index[v.reg], v.idx] for v in vs)

            def out(i: int) -> str:
                return f"o{i}_{c}"

            for i in outs:
                body.append(f"{out(i)} = {_xor(self._parts(('o', i, 0), wins, term, out, 'ones'))}")
            nxt = {}
            for r, j in cur:
                above = cur[r, (j + 1) % self.signature[r][1]]
                if (r, j) in wins:
                    nxt[r, j] = f"v{r}_{j}_{c + 1}"
                    parts = [above] + self._parts(("g", r, j), wins, term, out, "ones")
                    body.append(f"{nxt[r, j]} = {_xor(parts)}")
                else:
                    nxt[r, j] = above
            cur = nxt
        body.append(f"return [{', '.join(cur.values())}]")
        src = "\n".join(["def sliced(words, ones):"] + [f"    {line}" for line in body])
        return _exec(src, "sliced", f"<sliced k={k}>")


def _xor(parts) -> str:
    return " ^ ".join(parts) or "0"


def _exec(src: str, name: str, filename: str):
    # The source holds only integers and generated identifiers, never a
    # register or output name taken from a spec.
    scope: dict = {}
    exec(compile(src, filename, "exec"), scope)
    return scope[name]


def _words(state: SystemState) -> list[int]:
    return [w for _, _, w in state.regs]


def _state(comp: _CompiledSystem, words, cycle: int) -> SystemState:
    regs = tuple((rid, n, w) for (rid, n), w in zip(comp.signature, words))
    return SystemState(regs, cycle)


def output_values(
    spec: SystemSpec, state: SystemState, names: Iterable[str] | None = None
) -> dict[str, int]:
    """Evaluate named outputs (all of them by default) on the given state."""
    wanted = spec.output_names() if names is None else tuple(names)
    traces, _ = run(spec, state, 1, watch=wanted)
    return {n: traces[n][0] for n in wanted}


def step(
    spec: SystemSpec, state: SystemState, modes: Iterable[str] = frozenset()
) -> SystemState:
    """Advance every register one cycle, simultaneously.

    Active ``modes`` enable the matching injections, whose output values
    are computed from the same pre-step state as the feedback functions.
    """
    return run(spec, state, 1, modes)[1]


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
    values, out = run_ints(spec, state, cycles, modes, watch)
    return {t: int_bits(v, cycles) for t, v in values.items()}, out


def run_ints(
    spec: SystemSpec,
    state: SystemState,
    cycles: int,
    modes: Iterable[str] = frozenset(),
    watch: Iterable = (),
) -> tuple[dict, SystemState]:
    """``run`` with each watched sequence as one int, its value at cycle c in bit c."""
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    comp = spec._compiled
    if state.signature() != comp.signature:
        raise ValueError("state does not conform to the system spec")
    watch = tuple(dict.fromkeys(watch))
    for target in watch:
        if isinstance(target, str):
            if target not in comp.out_index:
                raise KeyError(f"unknown watch target {target!r}")
        else:
            reg, bit = target
            if reg not in comp.index:
                raise KeyError(f"unknown watch target {target!r}")
            if not 0 <= bit < comp.signature[comp.index[reg]][1]:
                raise KeyError(f"watch bit {bit} outside register {reg!r}")
    modes = frozenset(modes)
    values, words = _run_words(comp, _words(state), cycles, modes, watch, comp.degree(modes))
    return values, _state(comp, words, state.cycle + cycles)


# Lane steps per chunk of a run.  Each chunk's recorded lane words (a
# Python int each) are joined into one int per tap before the next chunk
# runs, so a long keystream holds packed bits rather than lists of words.
_CHUNK = 1 << 14


def _run_words(comp: _CompiledSystem, words, cycles: int, modes, watch, k: int):
    """``run_ints`` on packed words: ``cycles // k`` lane steps, then one of ``cycles % k``.

    The steps, in chunks of at most ``_CHUNK``, record the lane words of
    the watch plan's taps.  Each chunk's words join into one int per tap,
    the rest step's word joining the last chunk, and the chunks into one
    whole-run int, bit c at cycle c, which the final state's word extends
    past ``cycles``; the watched signals are then evaluated once over
    those ints.
    """
    record, watched = comp.plan(modes, watch)
    blocks, rest = divmod(cycles, k)
    lanes = [[] for _ in record]
    chunks = [[] for _ in record]
    for done in range(0, blocks, _CHUNK):
        if done:  # join the chunk before
            for chunk, lane in zip(chunks, lanes):
                chunk.append(_join(lane, k))
                lane.clear()
        words = comp.kernel(modes, k, record)(words, min(_CHUNK, blocks - done), lanes)
    if rest:
        # legal below k too (see ``degree``); _join puts its narrower word last
        words = comp.kernel(modes, rest, record)(words, 1, lanes)
    seqs = []
    for r, _ in record:
        # popped, so each tap's words are freed once joined; a tap v read
        # from bit 0 needs bits 0..v-1 of the final word past the run
        chunk = chunks.pop(0)
        chunk.append(_join(lanes.pop(0), k))
        seqs.append(_join(chunk, _CHUNK * k) | words[r] << cycles)
    return dict(zip(watch, watched(seqs, (1 << cycles) - 1))), words


def _join(words: list, width: int) -> int:
    """One int holding ``words[i]`` at bit ``i * width``, joined pairwise."""
    while len(words) > 1:
        pairs = [a | b << width for a, b in zip(words[::2], words[1::2])]
        if len(words) % 2:
            pairs.append(words[-1])
        words, width = pairs, 2 * width
    return words[0] if words else 0


def _lanes_match(spec: SystemSpec, state: SystemState, cycles: int, modes, k: int) -> bool:
    """Whether k lanes per step give the traces and final words of unit steps.

    Every output and every register bit is watched.
    """
    comp = spec._compiled
    watch = tuple(comp.out_index) + tuple(
        (rid, i) for rid, n in comp.signature for i in range(n)
    )
    words, modes = _words(state), frozenset(modes)
    lanes = _run_words(comp, words, cycles, modes, watch, k)
    return lanes == _run_words(comp, words, cycles, modes, watch, 1)


def tap_trace(
    spec: SystemSpec,
    state: SystemState,
    cycles: int,
    reg_id: str,
    modes: Iterable[str] = frozenset(),
) -> tuple[tuple[int, ...], ...]:
    """Full per-bit history of one register: rows are cycles, columns bits."""
    watch = [(reg_id, i) for i in range(spec.register(reg_id).length)]
    traces, _ = run(spec, state, cycles, modes, watch)
    return tuple(zip(*(traces[t] for t in watch)))
