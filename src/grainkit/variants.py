"""Bundled system documents for the Grain-80 and Grain-128 configurations.

Each document describes both shift registers, the combining outputs H
and Z, and the initialization injections that close the Z loops into the
top bit of each register.  The Galois configurations redistribute the
NLFSR feedback over several bits; the LFSR is kept in its one-feedback
form, where the transformation is routine and brings nothing new.

Two flavors are available per document.  The default "official" flavor
uses the published output-function taps (s[64] in the Grain-80 H, s[95]
in the Grain-128 H), with which the Fibonacci forms reproduce the
designers' test vectors, and keeps one copy of b[3]*b[67] in the 1
bit/cycle Grain-128 configuration.  The "as-printed" flavor preserves the
transcription these configurations originally circulated with: its
Grain-80 H taps s[4], and its 1 bit/cycle Grain-128 list carries
b[3]*b[67] at bit 127 and, shifted, at bit 124, cancelling it in collapse.
"""

from __future__ import annotations

from .anf import Term, Var, substitute_var, xor_merge
from .engine import OutputSpec, SystemSpec
from .specfile import parse_spec

__all__ = ["VARIANT_NAMES", "REPAIR_MODES", "document", "build_system", "metadata"]

REPAIR_MODES = ("official", "as-printed")

_GRAIN80_TAIL = """\
output H = s[25] + b[63] + s[3]*s[64] + s[46]*s[64] + s[64]*b[63] \
+ s[3]*s[25]*s[46] + s[3]*s[46]*s[64] + s[3]*s[46]*b[63] + s[25]*s[46]*b[63] \
+ s[46]*s[64]*b[63]
output Z = b[1] + b[2] + b[4] + b[10] + b[31] + b[43] + b[56] + H
inject init b[79] = Z
inject init s[79] = Z
param init_cycles = 160
"""

_GRAIN80_LFSR = "feedback s[79] = s[62] + s[51] + s[38] + s[23] + s[13] + s[0]\n"

_GRAIN80_FIB_G = """\
feedback b[79] = s[0] + b[0] + b[62] + b[60] + b[52] + b[45] + b[37] + b[33] \
+ b[28] + b[21] + b[14] + b[9] + b[63]*b[60] + b[37]*b[33] + b[15]*b[9] \
+ b[60]*b[52]*b[45] + b[33]*b[28]*b[21] + b[63]*b[45]*b[28]*b[9] \
+ b[60]*b[52]*b[37]*b[33] + b[63]*b[60]*b[21]*b[15] \
+ b[63]*b[60]*b[52]*b[45]*b[37] + b[33]*b[28]*b[21]*b[15]*b[9] \
+ b[52]*b[45]*b[37]*b[33]*b[28]*b[21]
"""

_GRAIN128_TAIL = """\
output H = b[12]*s[8] + s[13]*s[20] + b[95]*s[42] + s[60]*s[79] + b[12]*b[95]*s[95]
output Z = b[2] + b[15] + b[36] + b[45] + b[64] + b[73] + b[89] + s[93] + H
inject init b[127] = Z
inject init s[127] = Z
param init_cycles = 256
"""

_GRAIN128_LFSR = "feedback s[127] = s[0] + s[7] + s[38] + s[70] + s[81] + s[96]\n"

_GRAIN128_FIB_G = """\
feedback b[127] = s[0] + b[0] + b[26] + b[56] + b[91] + b[96] + b[3]*b[67] \
+ b[11]*b[13] + b[17]*b[18] + b[27]*b[59] + b[40]*b[48] + b[61]*b[65] \
+ b[68]*b[84]
"""

_DOCS = {
    "grain80-fib": (
        "system grain80-fib\n"
        "register b 80\n"
        "register s 80\n" + _GRAIN80_FIB_G + _GRAIN80_LFSR + _GRAIN80_TAIL
    ),
    "grain80-galois-1": (
        "system grain80-galois-1\n"
        "register b 80\n"
        "register s 80\n"
        "feedback b[79] = s[0] + b[0] + b[37]\n"
        "feedback b[78] = b[79] + b[44]\n"
        "feedback b[77] = b[78] + b[50]\n"
        "feedback b[76] = b[77] + b[57]\n"
        "feedback b[75] = b[76] + b[58]\n"
        "feedback b[74] = b[75] + b[32]*b[28]\n"
        "feedback b[73] = b[74] + b[3]\n"
        "feedback b[72] = b[73] + b[8]*b[2]\n"
        "feedback b[71] = b[72] + b[55]*b[37]*b[20]*b[1]\n"
        "feedback b[70] = b[71] + b[24]*b[19]*b[12]*b[6]*b[0]\n"
        "feedback b[69] = b[70] + b[53]*b[50]\n"
        "feedback b[68] = b[69] + b[49]*b[41]*b[26]*b[22]\n"
        "feedback b[67] = b[68] + b[9] + b[21]*b[16]*b[9]\n"
        "feedback b[66] = b[67] + b[15] + b[47]*b[39]*b[32]\n"
        "feedback b[65] = b[66] + b[0] + b[38]*b[31]*b[23]*b[19]*b[14]*b[7]\n"
        "feedback b[64] = b[65] + b[18] + b[48]*b[45]*b[6]*b[0]\n"
        "feedback b[63] = b[64] + b[47]*b[44]*b[36]*b[29]*b[21]\n"
        + _GRAIN80_LFSR
        + _GRAIN80_TAIL
    ),
    "grain80-galois-4": (
        "system grain80-galois-4\n"
        "register b 80\n"
        "register s 80\n"
        "feedback b[79] = s[0] + b[0] + b[62] + b[33] + b[28] + b[21] "
        "+ b[15]*b[9] + b[52]*b[45]*b[37]*b[33]*b[28]*b[21]\n"
        "feedback b[75] = b[76] + b[41] + b[33] + b[5] + b[59]*b[56] "
        "+ b[33]*b[29] + b[59]*b[41]*b[24]*b[5]\n"
        "feedback b[71] = b[72] + b[44] + b[25]*b[20]*b[13] "
        "+ b[55]*b[52]*b[13]*b[7] + b[25]*b[20]*b[13]*b[7]*b[1]\n"
        "feedback b[67] = b[68] + b[48] + b[2] + b[48]*b[40]*b[33] "
        "+ b[48]*b[40]*b[25]*b[21] + b[51]*b[48]*b[40]*b[33]*b[25]\n"
        + _GRAIN80_LFSR
        + _GRAIN80_TAIL
    ),
    "grain80-galois-8": (
        "system grain80-galois-8\n"
        "register b 80\n"
        "register s 80\n"
        "feedback b[79] = s[0] + b[0] + b[14] + b[9] + b[15]*b[9] "
        "+ b[60]*b[52]*b[45] + b[33]*b[28]*b[21] + b[60] "
        "+ b[60]*b[52]*b[37]*b[33] + b[63]*b[60]*b[21]*b[15] "
        "+ b[33]*b[28]*b[21]*b[15]*b[9]\n"
        "feedback b[71] = b[72] + b[44] + b[37] + b[29] + b[25] + b[20] "
        "+ b[13] + b[55]*b[52] + b[54] + b[29]*b[25] + b[55]*b[37]*b[20]*b[1] "
        "+ b[55]*b[52]*b[44]*b[37]*b[29] + b[44]*b[37]*b[29]*b[25]*b[20]*b[13]\n"
        + _GRAIN80_LFSR
        + _GRAIN80_TAIL
    ),
    "grain128-fib": (
        "system grain128-fib\n"
        "register b 128\n"
        "register s 128\n" + _GRAIN128_FIB_G + _GRAIN128_LFSR + _GRAIN128_TAIL
    ),
    "grain128-galois-1": (
        "system grain128-galois-1\n"
        "register b 128\n"
        "register s 128\n"
        "feedback b[127] = s[0] + b[0]\n"
        "feedback b[124] = b[125] + b[0]*b[64]\n"
        "feedback b[116] = b[117] + b[0]*b[2]\n"
        "feedback b[110] = b[111] + b[0]*b[1]\n"
        "feedback b[102] = b[103] + b[71]\n"
        "feedback b[101] = b[102] + b[0]\n"
        "feedback b[100] = b[101] + b[0]*b[32]\n"
        "feedback b[99] = b[100] + b[63]\n"
        "feedback b[98] = b[99] + b[27]\n"
        "feedback b[97] = b[98] + b[38]*b[54]\n"
        "feedback b[96] = b[97] + b[30]*b[34]\n"
        "feedback b[95] = b[96] + b[8]*b[16]\n"
        + _GRAIN128_LFSR
        + _GRAIN128_TAIL
    ),
    "grain128-galois-4": (
        "system grain128-galois-4\n"
        "register b 128\n"
        "register s 128\n"
        "feedback b[127] = s[0] + b[0] + b[3]*b[67]\n"
        "feedback b[123] = b[124] + b[64]*b[80]\n"
        "feedback b[119] = b[120] + b[3]*b[5]\n"
        "feedback b[115] = b[116] + b[49]*b[53]\n"
        "feedback b[111] = b[112] + b[1]*b[2]\n"
        "feedback b[107] = b[108] + b[6] + b[76]\n"
        "feedback b[103] = b[104] + b[67] + b[3]*b[35]\n"
        "feedback b[99] = b[100] + b[28] + b[12]*b[20]\n"
        + _GRAIN128_LFSR
        + _GRAIN128_TAIL
    ),
    "grain128-galois-8": (
        "system grain128-galois-8\n"
        "register b 128\n"
        "register s 128\n"
        "feedback b[127] = s[0] + b[0] + b[56] + b[3]*b[67]\n"
        "feedback b[119] = b[120] + b[18] + b[88] + b[3]*b[5]\n"
        "feedback b[111] = b[112] + b[75] + b[1]*b[2] + b[52]*b[68]\n"
        "feedback b[103] = b[104] + b[3]*b[35] + b[16]*b[24] + b[37]*b[41]\n"
        + _GRAIN128_LFSR
        + _GRAIN128_TAIL
    ),
    "grain128-galois-16": (
        "system grain128-galois-16\n"
        "register b 128\n"
        "register s 128\n"
        "feedback b[127] = s[0] + b[0] + b[56] + b[3]*b[67] + b[11]*b[13] "
        "+ b[40]*b[48]\n"
        "feedback b[111] = b[112] + b[10] + b[75] + b[80] + b[1]*b[2] "
        "+ b[11]*b[43] + b[45]*b[49] + b[52]*b[68]\n"
        + _GRAIN128_LFSR
        + _GRAIN128_TAIL
    ),
}

VARIANT_NAMES = tuple(_DOCS)

# name -> (key_bits, iv_bits, parallel degree, fib sibling, declared NLFSR
#          terminal bit); init_cycles is a parameter of each document
_META = {
    "grain80-fib": (80, 64, 1, "grain80-fib", 79),
    "grain80-galois-1": (80, 64, 1, "grain80-fib", 63),
    "grain80-galois-4": (80, 64, 4, "grain80-fib", 63),
    "grain80-galois-8": (80, 64, 8, "grain80-fib", 63),
    "grain128-fib": (128, 96, 1, "grain128-fib", 127),
    "grain128-galois-1": (128, 96, 1, "grain128-fib", 95),
    "grain128-galois-4": (128, 96, 4, "grain128-fib", 95),
    "grain128-galois-8": (128, 96, 8, "grain128-fib", 95),
    "grain128-galois-16": (128, 96, 16, "grain128-fib", 95),
}


def document(name: str) -> str:
    """The shipped document text (official flavor) for one configuration."""
    try:
        return _DOCS[name]
    except KeyError:
        raise KeyError(f"unknown variant {name!r}") from None


def metadata(name: str) -> tuple[int, int, int, str, int]:
    try:
        return _META[name]
    except KeyError:
        raise KeyError(f"unknown variant {name!r}") from None


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


def build_system(name: str, repair: str = "official") -> SystemSpec:
    """Parse one bundled document and apply the requested flavor."""
    if repair not in REPAIR_MODES:
        raise ValueError(f"unknown repair mode {repair!r}; expected one of {REPAIR_MODES}")
    system = parse_spec(document(name)).system
    if repair == "as-printed":
        system = _as_printed(name, system)
    return system
