"""The Grain-80 and Grain-128 ciphers over the register-system engine.

Key and IV load straight into the registers (key into the NLFSR "b", IV
into the low LFSR "s" bits, remaining LFSR bits set to one).  During
initialization the Z output is XORed into the top bit of both registers
and nothing is emitted; afterwards the loops open and Z is the
keystream.

Galois configurations support two initialization modes.  ``native``
clocks the variant's own system through the init phase.  ``equivalence``
instead initializes the Fibonacci sibling and converts the resulting
state with ``transform.map_system_state``, the one state-mapping
routine, meant to reproduce the sibling's keystream bit for bit.  That is
checked, not proved: each register must collapse back to its Fibonacci
sibling (``transform.collapse_to_fibonacci``), and the seeded mapped
simulation (``transform.check_equivalence_mapped``) finds the two
systems equal on its trials.  The two modes disagree on Galois variants;
native mode is a deterministic behavior of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .bits import int_bits, pack_int, unpack_hex, unpack_int
from .engine import SystemSpec, SystemState, run, run_ints
from .transform import map_system_state
from . import variants as _variants

__all__ = [
    "INIT_MODE",
    "KeyIv",
    "GrainVariant",
    "UnknownVariantError",
    "VARIANT_NAMES",
    "variant",
    "load",
    "initialize",
    "generate_keystream",
    "generate_keystream_int",
    "keystream",
    "state_to_hex",
    "state_from_hex",
]

INIT_MODE = "init"
VARIANT_NAMES = _variants.VARIANT_NAMES


class UnknownVariantError(KeyError):
    def __init__(self, name: str):
        super().__init__(
            f"unknown variant {name!r}; known variants: {', '.join(VARIANT_NAMES)}"
        )


@dataclass(frozen=True)
class KeyIv:
    key: tuple[int, ...]
    iv: tuple[int, ...]

    def __post_init__(self):
        for name in ("key", "iv"):
            bits = tuple(getattr(self, name))
            for i, bit in enumerate(bits):
                if bit not in (0, 1):
                    raise ValueError(f"bit {name}[{i}] is {bit!r}")
            object.__setattr__(self, name, bits)

    @classmethod
    def from_hex(
        cls,
        key_hex: str,
        iv_hex: str,
        key_bits: int,
        iv_bits: int,
        order: str = "lsb",
    ) -> "KeyIv":
        return cls(
            unpack_hex(key_hex, key_bits, order), unpack_hex(iv_hex, iv_bits, order)
        )


@dataclass(frozen=True)
class GrainVariant:
    """One registry entry: a system plus its cipher-level metadata."""

    name: str
    system: SystemSpec
    key_bits: int
    iv_bits: int
    init_cycles: int
    parallel_degree: int
    repair: str
    fib_sibling: str
    terminals: Mapping[str, int]

    def fib_variant(self) -> "GrainVariant":
        return variant(self.fib_sibling, self.repair)


_cache: dict[tuple[str, str], GrainVariant] = {}


def variant(name: str, repair: str = "official") -> GrainVariant:
    """Look up one of the bundled cipher configurations.

    ``init_cycles`` is the document's ``param init_cycles``.
    """
    key = (name, repair)
    if key not in _cache:
        if name not in VARIANT_NAMES:
            raise UnknownVariantError(name)
        key_bits, iv_bits, degree, sibling, b_terminal = _variants.metadata(name)
        system = _variants.build_system(name, repair)
        _cache[key] = GrainVariant(
            name=name,
            system=system,
            key_bits=key_bits,
            iv_bits=iv_bits,
            init_cycles=system.params["init_cycles"],
            parallel_degree=degree,
            repair=repair,
            fib_sibling=sibling,
            terminals={"b": b_terminal, "s": key_bits - 1},
        )
    return _cache[key]


def load(v: GrainVariant, keyiv: KeyIv) -> SystemState:
    """Fresh pre-init state: key in the NLFSR, IV plus ones in the LFSR."""
    if len(keyiv.key) != v.key_bits:
        raise ValueError(f"key must be {v.key_bits} bits, got {len(keyiv.key)}")
    if len(keyiv.iv) != v.iv_bits:
        raise ValueError(f"iv must be {v.iv_bits} bits, got {len(keyiv.iv)}")
    lfsr = keyiv.iv + (1,) * (v.key_bits - v.iv_bits)
    return SystemState.from_bits(v.system, {"b": keyiv.key, "s": lfsr})


def initialize(v: GrainVariant, state: SystemState, mode: str = "native") -> SystemState:
    """Clock through the init phase; no keystream is produced.

    ``native`` runs the variant's own system.  ``equivalence`` runs the
    Fibonacci sibling and maps the resulting register contents into this
    variant's configuration.
    """
    if state.cycle != 0:
        raise ValueError("initialize expects a freshly loaded state")
    if mode == "native":
        _, out = run(v.system, state, v.init_cycles, modes={INIT_MODE})
        return out
    if mode != "equivalence":
        raise ValueError(f"unknown initialization mode {mode!r}")
    fib = v.fib_variant()
    _, fib_done = run(fib.system, state, v.init_cycles, modes={INIT_MODE})
    return map_system_state(fib.system, v.system, fib_done)


def generate_keystream_int(
    v: GrainVariant, state: SystemState, nbits: int
) -> tuple[int, SystemState]:
    """Emit Z then step, nbits times, with the init loops open.

    The keystream is one int, its bit c emitted at cycle c.
    """
    values, out = run_ints(v.system, state, nbits, watch=("Z",))
    return values["Z"], out


def generate_keystream(
    v: GrainVariant, state: SystemState, nbits: int
) -> tuple[tuple[int, ...], SystemState]:
    """``generate_keystream_int`` with the keystream as a sequence of bits."""
    value, out = generate_keystream_int(v, state, nbits)
    return int_bits(value, nbits), out


def keystream(
    v: GrainVariant, keyiv: KeyIv, nbits: int, mode: str = "equivalence"
) -> tuple[int, ...]:
    """Load, initialize and generate in one call."""
    bits, _ = generate_keystream(v, initialize(v, load(v, keyiv), mode), nbits)
    return bits


def state_to_hex(v: GrainVariant, state: SystemState) -> str:
    """Serialize register contents as hex, registers in system order.

    Each register is packed separately (LSB-first bytes).  A nonzero
    cycle counter is appended as ``@<cycle>`` so the round trip is
    lossless mid-run.
    """
    text = "".join(pack_int(state.word(reg.id), reg.length) for reg in v.system.registers)
    if state.cycle:
        text += f"@{state.cycle}"
    return text


def state_from_hex(v: GrainVariant, text: str) -> SystemState:
    text = text.strip()
    cycle = 0
    if "@" in text:
        text, _, suffix = text.partition("@")
        if not suffix.isdigit():
            raise ValueError(f"bad cycle suffix {suffix!r}")
        cycle = int(suffix)
    regs = []
    pos = 0
    for reg in v.system.registers:
        digits = 2 * ((reg.length + 7) // 8)
        chunk = text[pos : pos + digits]
        if len(chunk) != digits:
            raise ValueError(
                f"state text too short: register {reg.id!r} needs {digits} hex digits"
            )
        regs.append((reg.id, reg.length, unpack_int(chunk, reg.length)))
        pos += digits
    if pos != len(text):
        raise ValueError(f"trailing characters after state: {text[pos:]!r}")
    return SystemState(tuple(regs), cycle)
