"""Gate-depth proxy model over a 2-input AND/XOR basis.

Depths are tree heights, one unit per gate level: a product of degree d
costs ceil(log2(d)) levels, and an XOR of L leaves costs ceil(log2(L))
levels on top of its deepest leaf.  This is a relative model for
comparing configurations, not a synthesis result; absolute frequencies
and areas depend on a technology library and are out of scope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

from .anf import Anf
from .engine import SystemSpec

__all__ = [
    "CostModel",
    "TimingReport",
    "product_depth",
    "expr_depth",
    "critical_depths",
    "divider_factor",
    "area_proxy",
    "parse_cost_model",
    "DIVIDER_AREA_OVERHEAD_GE",
]

# Area cost of a divide-by-four clock block, in NAND2 gate equivalents.
# Recorded on reports as metadata; the divider is not modeled structurally.
DIVIDER_AREA_OVERHEAD_GE = 25.67


@dataclass(frozen=True)
class CostModel:
    """Per-gate area weights; defaults are arbitrary and configurable."""

    xor2: float = 1.0
    and2: float = 1.0

    def __post_init__(self):
        for gate in ("xor2", "and2"):
            weight = getattr(self, gate)
            # NaN fails every comparison, so test for the good case
            if not (math.isfinite(weight) and weight > 0):
                raise ValueError(f"{gate} weight must be finite and positive, not {weight}")


def parse_cost_model(text: str) -> CostModel:
    """Read ``weight xor2 = <float>`` / ``weight and2 = <float>`` lines, each gate once."""
    weights: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "weight" or parts[2] != "=":
            raise ValueError(f"line {lineno}: expected 'weight <gate> = <float>'")
        if parts[1] not in ("xor2", "and2"):
            raise ValueError(f"line {lineno}: unknown gate {parts[1]!r}")
        if parts[1] in weights:
            raise ValueError(f"line {lineno}: duplicate weight for {parts[1]!r}")
        try:
            weights[parts[1]] = float(parts[3])
        except ValueError:
            raise ValueError(f"line {lineno}: {parts[3]!r} is not a number") from None
    return CostModel(**weights)


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x >= 1 else 0


def product_depth(degree: int) -> int:
    """AND-tree height of a product of the given degree."""
    return _ceil_log2(max(1, degree))


def expr_depth(
    expr: Anf,
    refs: Iterable[str] = (),
    env: Mapping[str, int] | None = None,
) -> int:
    """Tree height of an expression, with referenced outputs as leaves.

    Each product term is a leaf of its AND-tree height; each name in
    ``refs`` is a leaf whose height comes from ``env``.  A constant-only
    expression has depth 0.
    """
    refs = tuple(refs)
    env = env or {}
    leaves = len(expr.terms) + len(refs)
    if leaves == 0:
        return 0
    deepest = 0
    for term in expr.terms:
        deepest = max(deepest, product_depth(term.degree))
    for name in refs:
        if name not in env:
            raise ValueError(f"no depth known for referenced output {name!r}")
        deepest = max(deepest, env[name])
    return _ceil_log2(leaves) + deepest


@dataclass(frozen=True)
class TimingReport:
    """Depth figures for one system plus the chosen clock-divider factor."""

    expr_depths: Mapping[str, int]
    register_depths: Mapping[str, int]
    keygen_depth: int
    init_depth: int
    divider: int
    divider_area_overhead_ge: float | None = None


def critical_depths(system: SystemSpec) -> TimingReport:
    """Key-generation and initialization-loop critical depths of a system.

    The key-generation path is the deepest of all register feedback trees
    and all output trees.  The initialization path adds one XOR level on
    top of the deepest injected output or injected bit's feedback, since
    injection mixes into the register input.
    """
    expr_depths: dict[str, int] = {}
    register_depths: dict[str, int] = {}
    for reg in system.registers:
        worst = 0
        for bit in reg.explicit_bits():
            d = expr_depth(reg.feedback[bit])
            expr_depths[f"{reg.id}[{bit}]"] = d
            worst = max(worst, d)
        register_depths[reg.id] = worst

    env: dict[str, int] = {}
    for out in system.outputs:
        env[out.name] = expr_depth(out.expr, out.refs, env)
        expr_depths[out.name] = env[out.name]

    keygen = max(
        [*register_depths.values(), *env.values()],
        default=0,
    )

    if system.injections:
        paths = []
        for inj in system.injections:
            paths.append(env[inj.output])
            reg = system.register(inj.register)
            paths.append(
                expr_depths.get(f"{inj.register}[{inj.bit}]", 0)
                if inj.bit in reg.feedback
                else 0
            )
        init = max(paths) + 1
    else:
        init = 0

    divider = divider_factor(init, keygen)
    return TimingReport(
        expr_depths=expr_depths,
        register_depths=register_depths,
        keygen_depth=keygen,
        init_depth=init,
        divider=divider,
        divider_area_overhead_ge=DIVIDER_AREA_OVERHEAD_GE if divider > 1 else None,
    )


def divider_factor(init_depth: int, keygen_depth: int) -> int:
    """Clock-divider factor for the initialization phase: 1, 2 or 4.

    1 when the init path is no deeper than the key-generation path, else
    the smallest power of two covering the depth ratio.  Ratios above 4
    clamp to 4 with a warning; odd factors are not worth the extra clock
    hardware.
    """
    if init_depth < 0 or keygen_depth < 0:
        raise ValueError("depths must be non-negative")
    if init_depth <= keygen_depth:
        return 1
    if keygen_depth == 0 or init_depth > 4 * keygen_depth:
        warnings.warn(
            f"init/keygen depth ratio exceeds 4 "
            f"({init_depth}/{keygen_depth}); clamping divider to 4",
            stacklevel=2,
        )
        return 4
    return 2 if init_depth <= 2 * keygen_depth else 4


def area_proxy(system: SystemSpec, cost_model: CostModel | None = None) -> float:
    """Weighted 2-input gate count over all feedback and output logic.

    An expression of L leaves costs L-1 XOR gates; a product of degree d
    costs d-1 AND gates.  Implicit shifts are wires and cost nothing.
    """
    cm = cost_model or CostModel()
    xors = 0
    ands = 0

    def add(expr: Anf, nrefs: int = 0) -> None:
        nonlocal xors, ands
        leaves = len(expr.terms) + nrefs
        xors += max(0, leaves - 1)
        for term in expr.terms:
            ands += term.degree - 1

    for reg in system.registers:
        for expr in reg.feedback.values():
            add(expr)
    for out in system.outputs:
        add(out.expr, len(out.refs))
    return cm.xor2 * xors + cm.and2 * ands
