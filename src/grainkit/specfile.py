"""Line-oriented text format for register-system documents.

Grammar (``#`` starts a comment anywhere on a line)::

    system <name>
    register <id> <length>
    feedback <id>[<i>] = <expr>
    output <NAME> = <expr>
    inject <mode> <id>[<i>] = <NAME>
    param <key> = <int>

``<expr>`` is the one expression grammar of ``anf.parse_expr``:
``+``-separated terms, each a ``*``-separated product of
``<id>[<index>]`` factors or a literal ``0``/``1``; ``+`` is XOR and
``*`` is AND.  Output references are allowed only in ``output`` lines:
there a bare name that matches an earlier output XORs that output in,
and it must stand alone in its term, not inside a product.  Errors give
the line and the column of the failing token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .anf import Anf, ExprError, Var, parse_expr_with_refs
from .engine import Injection, OutputSpec, RegisterSpec, SystemSpec

__all__ = ["SpecDocument", "SpecError", "parse_spec", "format_spec"]


class SpecError(ValueError):
    """Parse or semantic error with its source position."""

    def __init__(self, line: int, message: str, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class SpecDocument:
    """A parsed system and the name its document declares."""

    name: str
    system: SystemSpec


_REGISTER_RE = re.compile(r"^register\s+([A-Za-z_][A-Za-z0-9_]*)\s+(\d+)\s*$")
_FEEDBACK_RE = re.compile(
    r"^feedback\s+([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]\s*=\s*(.+)$"
)
_OUTPUT_RE = re.compile(r"^output\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
_INJECT_RE = re.compile(
    r"^inject\s+([A-Za-z_][A-Za-z0-9_]*)\s+([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]"
    r"\s*=\s*([A-Za-z_][A-Za-z0-9_]*)\s*$"
)
_PARAM_RE = re.compile(r"^param\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(-?\d+)\s*$")
_SYSTEM_RE = re.compile(r"^system\s+(\S+)\s*$")


def _parse_line_expr(
    text: str,
    column: int,
    lineno: int,
    registers: Mapping[str, int],
    output_names: list[str],
    allow_refs: bool,
) -> tuple[Anf, tuple[str, ...]]:
    """Parse the expression of one line; ``column`` is where ``text`` starts."""

    def check(factor: Var | str, offset: int) -> None:
        if isinstance(factor, str):
            if not allow_refs:
                raise ExprError(
                    f"output references like {factor!r} are only allowed in "
                    f"output expressions",
                    offset,
                )
            if factor not in output_names:
                raise ExprError(f"{factor!r} is not an earlier output", offset)
        elif factor.reg not in registers:
            raise ExprError(f"undeclared register {factor.reg!r}", offset)
        elif factor.idx >= registers[factor.reg]:
            raise ExprError(
                f"index {factor.idx} out of range for register {factor.reg!r} "
                f"of length {registers[factor.reg]}",
                offset,
            )

    try:
        expr, refs = parse_expr_with_refs(text, check)
    except ExprError as exc:
        raise SpecError(lineno, exc.message, column + exc.offset) from None
    return expr, tuple(n for n in output_names if n in refs)


def parse_spec(text: str) -> SpecDocument:
    """Parse a system document, rejecting unknown directives with positions."""
    name: str | None = None
    reg_order: list[str] = []
    reg_len: dict[str, int] = {}
    feedback: dict[str, dict[int, Anf]] = {}
    outputs: list[OutputSpec] = []
    out_names: list[str] = []
    injections: list[Injection] = []
    params: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip())
        keyword = line.split(None, 1)[0]

        if keyword == "system":
            m = _SYSTEM_RE.match(line)
            if not m:
                raise SpecError(lineno, "expected 'system <name>'")
            if name is not None:
                raise SpecError(lineno, "duplicate system directive")
            name = m.group(1)
            continue
        if name is None:
            raise SpecError(lineno, "the document must start with 'system <name>'")

        if keyword == "register":
            m = _REGISTER_RE.match(line)
            if not m:
                raise SpecError(lineno, "expected 'register <id> <length>'")
            rid, length = m.group(1), int(m.group(2))
            if rid in reg_len:
                raise SpecError(lineno, f"duplicate register {rid!r}")
            if length < 1:
                raise SpecError(lineno, f"register {rid!r} needs positive length")
            reg_order.append(rid)
            reg_len[rid] = length
            feedback[rid] = {}
        elif keyword == "feedback":
            m = _FEEDBACK_RE.match(line)
            if not m:
                raise SpecError(lineno, "expected 'feedback <id>[<i>] = <expr>'")
            rid, bit = m.group(1), int(m.group(2))
            if rid not in reg_len:
                raise SpecError(lineno, f"undeclared register {rid!r}")
            if bit >= reg_len[rid]:
                raise SpecError(
                    lineno,
                    f"index {bit} out of range for register {rid!r} "
                    f"of length {reg_len[rid]}",
                )
            if bit in feedback[rid]:
                raise SpecError(lineno, f"duplicate feedback for {rid}[{bit}]")
            expr, _ = _parse_line_expr(
                m.group(3), indent + m.start(3) + 1, lineno, reg_len, out_names, False
            )
            feedback[rid][bit] = expr
        elif keyword == "output":
            m = _OUTPUT_RE.match(line)
            if not m:
                raise SpecError(lineno, "expected 'output <NAME> = <expr>'")
            oname = m.group(1)
            if oname in out_names or oname in reg_len:
                raise SpecError(lineno, f"name {oname!r} already in use")
            expr, refs = _parse_line_expr(
                m.group(2), indent + m.start(2) + 1, lineno, reg_len, out_names, True
            )
            outputs.append(OutputSpec(oname, expr, refs))
            out_names.append(oname)
        elif keyword == "inject":
            m = _INJECT_RE.match(line)
            if not m:
                raise SpecError(lineno, "expected 'inject <mode> <id>[<i>] = <NAME>'")
            mode, rid, bit, oname = (
                m.group(1),
                m.group(2),
                int(m.group(3)),
                m.group(4),
            )
            if rid not in reg_len:
                raise SpecError(lineno, f"undeclared register {rid!r}")
            if bit >= reg_len[rid]:
                raise SpecError(lineno, f"index {bit} out of range for {rid!r}")
            if oname not in out_names:
                raise SpecError(lineno, f"{oname!r} is not a declared output")
            injections.append(Injection(mode, rid, bit, oname))
        elif keyword == "param":
            m = _PARAM_RE.match(line)
            if not m:
                raise SpecError(lineno, "expected 'param <key> = <int>'")
            key = m.group(1)
            if key in params:
                raise SpecError(lineno, f"duplicate param {key!r}")
            params[key] = int(m.group(2))
        else:
            raise SpecError(lineno, f"unknown directive {keyword!r}")

    if name is None:
        raise SpecError(1, "no system declared")
    if not reg_order:
        raise SpecError(1, "the system declares no registers")

    registers = tuple(
        RegisterSpec(rid, reg_len[rid], feedback[rid]) for rid in reg_order
    )
    system = SystemSpec(registers, tuple(outputs), tuple(injections), params)
    return SpecDocument(name, system)


def _format_output_expr(out: OutputSpec) -> str:
    base = str(out.expr)
    if not out.refs:
        return base
    refs = " + ".join(out.refs)
    if out.expr.is_zero():
        return refs
    return f"{base} + {refs}"


def format_spec(doc: SpecDocument | SystemSpec, name: str | None = None) -> str:
    """Render a document in canonical form.

    Pure-shift bits are omitted, feedback lines go top bit first, and
    expressions use the canonical term ordering; parsing the result gives
    back an equal system.
    """
    if isinstance(doc, SpecDocument):
        system = doc.system
        name = name or doc.name
    else:
        system = doc
        name = name or "system"
    lines = [f"system {name}"]
    for reg in system.registers:
        lines.append(f"register {reg.id} {reg.length}")
    for reg in system.registers:
        for bit in sorted(reg.feedback, reverse=True):
            lines.append(f"feedback {reg.id}[{bit}] = {reg.feedback[bit]}")
    for out in system.outputs:
        lines.append(f"output {out.name} = {_format_output_expr(out)}")
    for inj in system.injections:
        lines.append(f"inject {inj.mode} {inj.register}[{inj.bit}] = {inj.output}")
    for key in sorted(system.params):
        lines.append(f"param {key} = {system.params[key]}")
    return "\n".join(lines) + "\n"
