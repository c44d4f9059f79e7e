"""The bundled Grain-80 and Grain-128 configurations.

The two Fibonacci configurations ship as system documents: both shift
registers, the combining outputs H and Z, and the initialization
injections that close the Z loops into the top bit of each register.
Each Galois configuration ships as its Fibonacci sibling plus a shift
script that redistributes the NLFSR feedback over several bits, and is
built by sending the script through ``transform.check_script``, the gate
of ``transform --script``.  The LFSR keeps its one-feedback form, where
the transformation is routine and brings nothing new.

Two flavors are available per configuration.  The default "official" flavor
uses the published output-function taps (s[64] in the Grain-80 H, s[95]
in the Grain-128 H), with which the Fibonacci forms reproduce the
designers' test vectors, and keeps one copy of b[3]*b[67] in the 1
bit/cycle Grain-128 configuration.  The "as-printed" flavor preserves the
transcription these configurations originally circulated with: its
Grain-80 H taps s[4], and its 1 bit/cycle Grain-128 list carries
b[3]*b[67] at bit 127 and, shifted, at bit 124, cancelling it in collapse.
"""

from __future__ import annotations

import functools

from .anf import Term, Var, substitute_var, xor_merge
from .engine import OutputSpec, SystemSpec
from .specfile import format_spec, parse_spec
from .transform import check_script, parse_shift_script

__all__ = ["VARIANT_NAMES", "REPAIR_MODES", "document", "build_system", "metadata"]

REPAIR_MODES = ("official", "as-printed")

_DOCS = {
    "grain80-fib": """\
system grain80-fib
register b 80
register s 80
feedback b[79] = s[0] + b[0] + b[62] + b[60] + b[52] + b[45] + b[37] + b[33] \
+ b[28] + b[21] + b[14] + b[9] + b[63]*b[60] + b[37]*b[33] + b[15]*b[9] \
+ b[60]*b[52]*b[45] + b[33]*b[28]*b[21] + b[63]*b[45]*b[28]*b[9] \
+ b[60]*b[52]*b[37]*b[33] + b[63]*b[60]*b[21]*b[15] \
+ b[63]*b[60]*b[52]*b[45]*b[37] + b[33]*b[28]*b[21]*b[15]*b[9] \
+ b[52]*b[45]*b[37]*b[33]*b[28]*b[21]
feedback s[79] = s[62] + s[51] + s[38] + s[23] + s[13] + s[0]
output H = s[25] + b[63] + s[3]*s[64] + s[46]*s[64] + s[64]*b[63] \
+ s[3]*s[25]*s[46] + s[3]*s[46]*s[64] + s[3]*s[46]*b[63] + s[25]*s[46]*b[63] \
+ s[46]*s[64]*b[63]
output Z = b[1] + b[2] + b[4] + b[10] + b[31] + b[43] + b[56] + H
inject init b[79] = Z
inject init s[79] = Z
param init_cycles = 160
""",
    "grain128-fib": """\
system grain128-fib
register b 128
register s 128
feedback b[127] = s[0] + b[0] + b[26] + b[56] + b[91] + b[96] + b[3]*b[67] \
+ b[11]*b[13] + b[17]*b[18] + b[27]*b[59] + b[40]*b[48] + b[61]*b[65] \
+ b[68]*b[84]
feedback s[127] = s[0] + s[7] + s[38] + s[70] + s[81] + s[96]
output H = b[12]*s[8] + s[13]*s[20] + b[95]*s[42] + s[60]*s[79] + b[12]*b[95]*s[95]
output Z = b[2] + b[15] + b[36] + b[45] + b[64] + b[73] + b[89] + s[93] + H
inject init b[127] = Z
inject init s[127] = Z
param init_cycles = 256
""",
}

# Galois variant -> (Fibonacci sibling, shift script).  A script has one move
# per explicit NLFSR bit j below the top, carrying the tail of j, lifted to
# the top, down to j: the paper's placements, written as moves.
_SCRIPTS = {
    "grain80-galois-1": ("grain80-fib", """
shift b 79 -> 78 : b[45]
shift b 79 -> 77 : b[52]
shift b 79 -> 76 : b[60]
shift b 79 -> 75 : b[62]
shift b 79 -> 74 : b[37]*b[33]
shift b 79 -> 73 : b[9]
shift b 79 -> 72 : b[15]*b[9]
shift b 79 -> 71 : b[63]*b[45]*b[28]*b[9]
shift b 79 -> 70 : b[33]*b[28]*b[21]*b[15]*b[9]
shift b 79 -> 69 : b[63]*b[60]
shift b 79 -> 68 : b[60]*b[52]*b[37]*b[33]
shift b 79 -> 67 : b[21], b[33]*b[28]*b[21]
shift b 79 -> 66 : b[28], b[60]*b[52]*b[45]
shift b 79 -> 65 : b[14], b[52]*b[45]*b[37]*b[33]*b[28]*b[21]
shift b 79 -> 64 : b[33], b[63]*b[60]*b[21]*b[15]
shift b 79 -> 63 : b[63]*b[60]*b[52]*b[45]*b[37]
"""),
    "grain80-galois-4": ("grain80-fib", """
shift b 79 -> 75 : b[45], b[37], b[9], b[63]*b[60], b[37]*b[33], b[63]*b[45]*b[28]*b[9]
shift b 79 -> 71 : b[52], b[33]*b[28]*b[21], b[63]*b[60]*b[21]*b[15], \
b[33]*b[28]*b[21]*b[15]*b[9]
shift b 79 -> 67 : b[60], b[14], b[60]*b[52]*b[45], b[60]*b[52]*b[37]*b[33], \
b[63]*b[60]*b[52]*b[45]*b[37]
"""),
    "grain80-galois-8": ("grain80-fib", """
shift b 79 -> 71 : b[62], b[52], b[45], b[37], b[33], b[28], b[21], b[63]*b[60], \
b[37]*b[33], b[63]*b[45]*b[28]*b[9], b[63]*b[60]*b[52]*b[45]*b[37], \
b[52]*b[45]*b[37]*b[33]*b[28]*b[21]
"""),
    "grain128-galois-1": ("grain128-fib", """
shift b 127 -> 124 : b[67]*b[3]
shift b 127 -> 116 : b[13]*b[11]
shift b 127 -> 110 : b[18]*b[17]
shift b 127 -> 102 : b[96]
shift b 127 -> 101 : b[26]
shift b 127 -> 100 : b[59]*b[27]
shift b 127 -> 99 : b[91]
shift b 127 -> 98 : b[56]
shift b 127 -> 97 : b[84]*b[68]
shift b 127 -> 96 : b[65]*b[61]
shift b 127 -> 95 : b[48]*b[40]
"""),
    "grain128-galois-4": ("grain128-fib", """
shift b 127 -> 123 : b[84]*b[68]
shift b 127 -> 119 : b[13]*b[11]
shift b 127 -> 115 : b[65]*b[61]
shift b 127 -> 111 : b[18]*b[17]
shift b 127 -> 107 : b[96], b[26]
shift b 127 -> 103 : b[91], b[59]*b[27]
shift b 127 -> 99 : b[56], b[48]*b[40]
"""),
    "grain128-galois-8": ("grain128-fib", """
shift b 127 -> 119 : b[96], b[26], b[13]*b[11]
shift b 127 -> 111 : b[91], b[84]*b[68], b[18]*b[17]
shift b 127 -> 103 : b[65]*b[61], b[59]*b[27], b[48]*b[40]
"""),
    "grain128-galois-16": ("grain128-fib", """
shift b 127 -> 111 : b[96], b[91], b[26], b[84]*b[68], b[65]*b[61], b[59]*b[27], \
b[18]*b[17]
"""),
}

# name -> (key_bits, iv_bits, parallel degree, declared NLFSR terminal bit);
# init_cycles is a parameter of each system
_META = {
    "grain80-fib": (80, 64, 1, 79),
    "grain80-galois-1": (80, 64, 1, 63),
    "grain80-galois-4": (80, 64, 4, 63),
    "grain80-galois-8": (80, 64, 8, 63),
    "grain128-fib": (128, 96, 1, 127),
    "grain128-galois-1": (128, 96, 1, 95),
    "grain128-galois-4": (128, 96, 4, 95),
    "grain128-galois-8": (128, 96, 8, 95),
    "grain128-galois-16": (128, 96, 16, 95),
}

VARIANT_NAMES = tuple(_META)


def document(name: str) -> str:
    """The document text (official flavor) for one configuration.

    A Fibonacci variant's is its shipped text; a Galois variant's is the
    canonical ``format_spec`` rendering of its built system.
    """
    if name in _SCRIPTS:
        return format_spec(build_system(name), name=name)
    if name not in _DOCS:
        raise KeyError(f"unknown variant {name!r}")
    return _DOCS[name]


def metadata(name: str) -> tuple[int, int, int, str, int]:
    """(key_bits, iv_bits, parallel degree, Fibonacci sibling, NLFSR terminal)."""
    if name not in _META:
        raise KeyError(f"unknown variant {name!r}")
    key_bits, iv_bits, degree, terminal = _META[name]
    sibling = _SCRIPTS[name][0] if name in _SCRIPTS else name
    return key_bits, iv_bits, degree, sibling, terminal


def _as_printed(name: str, system: SystemSpec) -> SystemSpec:
    """Rewrite an official system into the as-printed transcription."""
    outputs = []
    for out in system.outputs:
        expr = out.expr
        if out.name == "H" and name.startswith("grain80"):
            expr = substitute_var(expr, Var("s", 64), Var("s", 4))
        outputs.append(OutputSpec(out.name, expr, out.refs))
    system = SystemSpec(system.registers, outputs, system.injections, system.params)
    if name == "grain128-galois-1":
        b = system.register("b")
        top = b.length - 1
        patched = dict(b.feedback)
        patched[top] = xor_merge(b.feedback[top], {Term.of("b", 3, 67)})
        system = system.replace_register(type(b)(b.id, b.length, patched))
    return system


@functools.cache
def _parsed(name: str) -> SystemSpec:
    # parsed once per process: every Galois build starts from its sibling
    return parse_spec(_DOCS[name]).system


def build_system(name: str, repair: str = "official") -> SystemSpec:
    """Build one bundled configuration and apply the requested flavor.

    A Fibonacci variant is parsed from its document.  A Galois variant is
    its official sibling with the NLFSR rewritten by its shift script,
    through ``transform.check_script``, the gate ``transform --script``
    uses; a refused script, or one the gate warns about, fails the build.
    """
    if repair not in REPAIR_MODES:
        raise ValueError(f"unknown repair mode {repair!r}; expected one of {REPAIR_MODES}")
    if name in _SCRIPTS:
        sibling_name, text = _SCRIPTS[name]
        sibling = _parsed(sibling_name)
        result = check_script(sibling.register("b"), parse_shift_script(text), system=sibling)
        if not result.ok or result.warnings:
            problem = result.reason if not result.ok else "; ".join(result.warnings)
            raise ValueError(f"bundled variant {name!r}: shift script refused: {problem}")
        system = sibling.replace_register(result.spec)
    elif name in _DOCS:
        system = _parsed(name)
    else:
        raise KeyError(f"unknown variant {name!r}")
    if repair == "as-printed":
        system = _as_printed(name, system)
    return system
