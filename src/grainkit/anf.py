"""Algebraic normal form for feedback and combining functions.

A Boolean function is kept as an XOR-set of AND product terms over
register-qualified bit variables, plus a constant bit.  Sets make the
representation canonical: a variable cannot repeat inside a term, and a
term XORed into an expression that already contains it cancels out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

__all__ = [
    "Var",
    "Term",
    "Anf",
    "MissingVariableError",
    "ForeignVariableError",
    "evaluate",
    "xor_merge",
    "remap_indices",
    "substitute_var",
    "ExprError",
    "parse_term",
    "parse_expr",
    "parse_expr_with_refs",
    "term_sort_key",
]


class MissingVariableError(LookupError):
    """Evaluation reached a variable that the assignment does not cover."""

    def __init__(self, var: "Var"):
        super().__init__(f"no value assigned for {var}")
        self.var = var


class ForeignVariableError(ValueError):
    """An index remap or shift touched a variable of another register."""


class Var(NamedTuple):
    """One bit of a named register."""

    reg: str
    idx: int

    def __str__(self) -> str:
        return f"{self.reg}[{self.idx}]"


def _var_key(v: Var) -> tuple[str, int]:
    # Canonical variable order: by register name, then descending bit index.
    return (v.reg, -v.idx)


@dataclass(frozen=True)
class Term:
    """Product (AND) of one or more distinct variables.

    Terms compare by set equality, independent of how they were listed.
    """

    vars: frozenset[Var]

    def __post_init__(self):
        if not isinstance(self.vars, frozenset):
            object.__setattr__(self, "vars", frozenset(self.vars))
        if not self.vars:
            raise ValueError("a product term needs at least one variable")

    @classmethod
    def of(cls, reg: str, *indices: int) -> "Term":
        """Build a single-register product, e.g. ``Term.of("b", 63, 60)``."""
        return cls(frozenset(Var(reg, i) for i in indices))

    @property
    def degree(self) -> int:
        return len(self.vars)

    def sorted_vars(self) -> tuple[Var, ...]:
        return tuple(sorted(self.vars, key=_var_key))

    def registers(self) -> frozenset[str]:
        return frozenset(v.reg for v in self.vars)

    def __str__(self) -> str:
        return "*".join(str(v) for v in self.sorted_vars())


def term_sort_key(t: Term) -> tuple:
    """Canonical term order: by degree, then lexicographic variable keys."""
    return (t.degree, tuple(_var_key(v) for v in t.sorted_vars()))


@dataclass(frozen=True)
class Anf:
    """XOR of product terms plus a constant bit."""

    terms: frozenset[Term] = frozenset()
    const: int = 0

    def __post_init__(self):
        if not isinstance(self.terms, frozenset):
            object.__setattr__(self, "terms", frozenset(self.terms))
        if self.const not in (0, 1):
            raise ValueError("constant must be 0 or 1")

    @classmethod
    def zero(cls) -> "Anf":
        return cls(frozenset(), 0)

    @classmethod
    def parse(cls, text: str) -> "Anf":
        return parse_expr(text)

    def sorted_terms(self) -> tuple[Term, ...]:
        return tuple(sorted(self.terms, key=term_sort_key))

    def support(self) -> frozenset[Var]:
        return frozenset(v for t in self.terms for v in t.vars)

    def is_zero(self) -> bool:
        return not self.terms and self.const == 0

    def __str__(self) -> str:
        parts = [str(t) for t in self.sorted_terms()]
        if self.const:
            parts.append("1")
        return " + ".join(parts) if parts else "0"


def evaluate(expr: Anf, assignment: Mapping[Var, int]) -> int:
    """Evaluate ``expr`` under a full variable assignment.

    Every variable of the expression must be assigned, even when another
    factor of its term is already zero; a partial assignment raises
    MissingVariableError naming the first missing variable.
    """
    for term in expr.sorted_terms():
        for v in term.sorted_vars():
            if v not in assignment:
                raise MissingVariableError(v)
    value = expr.const
    for term in expr.terms:
        prod = 1
        for v in term.vars:
            prod &= assignment[v] & 1
        value ^= prod
    return value


def xor_merge(expr: Anf, terms: Iterable[Term]) -> Anf:
    """XOR a set of terms into an expression (symmetric difference)."""
    return Anf(expr.terms ^ frozenset(terms), expr.const)


def remap_indices(
    terms: Iterable[Term], register: str, delta: int, modulus: int
) -> frozenset[Term]:
    """Shift every index of every term by ``delta`` modulo ``modulus``.

    All variables must belong to ``register``; terms naming any other
    register raise ForeignVariableError.  The remap is a bijection on
    indices, so term-set cardinality is preserved.
    """
    out = []
    for term in terms:
        moved = []
        for v in term.vars:
            if v.reg != register:
                raise ForeignVariableError(
                    f"term {term} mentions register {v.reg!r}; "
                    f"only {register!r} variables can be remapped"
                )
            moved.append(Var(register, (v.idx + delta) % modulus))
        out.append(Term(frozenset(moved)))
    return frozenset(out)


def substitute_var(expr: Anf, old: Var, new: Var) -> Anf:
    """Replace one variable with another everywhere in the expression."""
    terms = []
    for term in expr.terms:
        if old in term.vars:
            terms.append(Term((term.vars - {old}) | {new}))
        else:
            terms.append(term)
    # Duplicate terms created by the substitution cancel pairwise.
    merged: set[Term] = set()
    for t in terms:
        if t in merged:
            merged.remove(t)
        else:
            merged.add(t)
    return Anf(frozenset(merged), expr.const)


_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?")


class ExprError(ValueError):
    """A rejected expression token; ``offset`` is its 0-based position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


def parse_expr_with_refs(
    text: str, check: Callable[[Var | str, int], None] | None = None
) -> tuple[Anf, tuple[str, ...]]:
    """Parse the ``parse_expr`` grammar, plus terms that are a bare name.

    A bare name must stand alone in its term; system documents use it to
    reference an earlier output.  Names come back separately, in order of
    first appearance, and a name given twice cancels like a repeated term.
    ``check`` sees every ``reg[idx]`` factor (as a Var) and every name with
    its offset in ``text``, in source order, and rejects one by raising
    ExprError.  Every error is an ExprError at the failing token's offset.
    """
    terms: set[Term] = set()
    const = 0
    refs: dict[str, int] = {}
    start = 0
    for chunk in text.split("+"):
        term_start, start = start, start + len(chunk) + 1
        if not chunk.strip():
            raise ExprError("empty term in expression", term_start)
        pieces = chunk.split("*")
        factors: list[Var | str] = []
        zero = False
        pos = term_start
        for piece in pieces:
            offset = pos + len(piece) - len(piece.lstrip())
            pos += len(piece) + 1
            f = piece.strip()
            if f in ("0", "1"):
                zero |= f == "0"
                continue
            m = _FACTOR_RE.fullmatch(f)
            if not m:
                raise ExprError(f"bad factor {f!r}", offset)
            factor = f if m[2] is None else Var(m[1], int(m[2]))
            if isinstance(factor, str) and len(pieces) > 1:
                raise ExprError(
                    "an output reference must stand alone in its term", offset
                )
            if check is not None:
                check(factor, offset)
            factors.append(factor)
        if zero:
            continue
        if not factors:
            const ^= 1
        elif isinstance(factors[0], str):
            refs[factors[0]] = refs.get(factors[0], 0) ^ 1
        else:
            terms ^= {Term(frozenset(factors))}
    return Anf(frozenset(terms), const), tuple(n for n, odd in refs.items() if odd)


def _no_names(factor: Var | str, offset: int) -> None:
    if isinstance(factor, str):
        raise ExprError(f"bad factor {factor!r}", offset)


def parse_expr(text: str) -> Anf:
    """Parse ``+``-separated products, e.g. ``s[0] + b[0] + b[15]*b[9]``.

    ``+`` is XOR and ``*`` is AND; a factor is ``reg[idx]`` or a literal
    ``0``/``1``, and a repeated term cancels.  Bare names (output
    references) are rejected: only ``output`` lines of a system document
    accept them, through ``parse_expr_with_refs``.  Errors are ExprError,
    carrying the offset of the failing token.
    """
    return parse_expr_with_refs(text, _no_names)[0]


def parse_term(text: str) -> Term:
    """Parse a single product like ``b[33]*b[28]*b[21]``."""
    expr = parse_expr(text)
    if expr.const or len(expr.terms) != 1:
        raise ValueError(f"expected one product term, got {text!r}")
    (term,) = expr.terms
    return term
