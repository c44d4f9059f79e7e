"""Command-line surface: keystreams, transformations, verification, timing.

Exit status: 0 for success and equal/clean verdicts, 1 for unequal or
violation verdicts, 2 for usage and input errors.  Every subcommand is
deterministic given its flags; randomized verification takes an explicit
--seed.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import warnings
from typing import Sequence

from . import grain, timing, transform
from .anf import ForeignVariableError, term_sort_key
from .bits import pack_int
from .engine import RegisterSpec, SystemSpec, SystemState, _lanes_match
from .specfile import SpecError, format_spec, parse_spec

OK, FAIL, USAGE = 0, 1, 2


class _CliError(Exception):
    """Input problem that should exit with status 2."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _load_variant(args) -> grain.GrainVariant:
    try:
        return grain.variant(args.variant, getattr(args, "tap_repair", "official"))
    except grain.UnknownVariantError as exc:
        raise _CliError(str(exc.args[0])) from exc


def _load_system(args) -> tuple[str, SystemSpec]:
    if getattr(args, "variant", None):
        v = _load_variant(args)
        return v.name, v.system
    doc = parse_spec(_read(args.spec))
    return doc.name, doc.system


def _pick_register(system: SystemSpec, reg_id: str | None) -> RegisterSpec:
    if reg_id is not None:
        try:
            return system.register(reg_id)
        except KeyError as exc:
            raise _CliError(str(exc.args[0])) from exc
    if len(system.registers) == 1:
        return system.registers[0]
    # Default to the register with the heaviest top-bit feedback.
    def weight(reg: RegisterSpec) -> int:
        return len(reg.expr(reg.length - 1).terms)

    return max(system.registers, key=weight)


def _emit(pairs, kv: bool) -> None:
    if kv:
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        width = max((len(k) for k, _ in pairs), default=0)
        for key, value in pairs:
            print(f"{key.ljust(width)}  {value}")


KEYSTREAM_MAX_BITS = 1 << 24
MAPPED_TRIALS, MAPPED_CYCLES = 20, 500  # verify equivalence --variant defaults


def _cmd_keystream(args) -> int:
    if not 0 <= args.bits <= KEYSTREAM_MAX_BITS:
        raise _CliError(f"bits must be between 0 and {KEYSTREAM_MAX_BITS}")
    v = _load_variant(args)
    keyiv = grain.KeyIv.from_hex(
        args.key, args.iv, v.key_bits, v.iv_bits, args.bit_order
    )
    state = grain.initialize(v, grain.load(v, keyiv), args.mode)
    value, _ = grain.generate_keystream_int(v, state, args.bits)
    print(pack_int(value, args.bits, args.bit_order))
    return OK


def _cmd_list_variants(args) -> int:
    rows = []
    for name in grain.VARIANT_NAMES:
        v = grain.variant(name)
        fields = (
            ("key", v.key_bits),
            ("iv", v.iv_bits),
            ("init_cycles", v.init_cycles),
            ("k", v.parallel_degree),
            ("terminal_b", v.terminals["b"]),
        )
        if args.kv:
            rows += [(f"{name}.{key}", value) for key, value in fields]
        else:
            rows.append((name, " ".join(f"{key}={value}" for key, value in fields)))
    _emit(rows, args.kv)
    return OK


def _cmd_transform(args) -> int:
    _, system = _load_system(args)
    reg = _pick_register(system, args.register)
    if args.script:
        script = transform.parse_shift_script(_read(args.script))
    else:
        terminal = args.terminal
        if terminal is None:
            terminal = transform.required_terminal_bit(system, reg.id)
        script = transform.auto_distribute(reg, terminal, args.k).script
    # one gate for both: every move must keep the register uniform
    result = transform.check_script(reg, script, system=system)
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    if not result.ok:
        print(f"script rejected: {result.reason}", file=sys.stderr)
        return FAIL
    out_system = system.replace_register(result.spec)
    text = format_spec(out_system, name=args.name or "transformed")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(text, end="")
    return OK


def _cmd_verify_uniform(args) -> int:
    name, system = _load_system(args)
    status = OK
    regs = system.registers if args.register is None else [_pick_register(system, args.register)]
    for reg in regs:
        report = transform.check_uniform(reg, args.terminal)
        label = f"{name}/{reg.id}"
        if report.uniform:
            print(f"{label}: uniform, terminal bit {report.terminal}")
        else:
            status = FAIL
            for v in report.violations:
                print(f"{label}: bit {v.bit}: {v.reason} ({v.detail})")
    return status


def _cmd_verify_collapse(args) -> int:
    v = _load_variant(args)
    fib = v.fib_variant()
    status = OK
    for reg in v.system.registers:
        want = fib.system.register(reg.id)
        try:
            got = transform.collapse_to_fibonacci(reg)
        except (ValueError, ForeignVariableError) as exc:
            print(f"{v.name}/{reg.id}: collapse failed: {exc}")
            status = FAIL
            continue
        if got == want:
            print(f"{v.name}/{reg.id}: collapse matches {fib.name}")
            continue
        status = FAIL
        top = reg.length - 1
        diff = got.expr(top).terms ^ want.expr(top).terms
        for term in sorted(diff, key=term_sort_key):
            origins = transform.unshift_sources(reg, term)
            if len(origins) > 1:
                where = " and ".join(f"bit {b}" for b in origins)
                print(
                    f"{v.name}/{reg.id}: term {term} unshifts from {where}; "
                    f"the duplicate cancels out of the collapse"
                )
            elif term in want.expr(top).terms:
                print(f"{v.name}/{reg.id}: term {term} missing from the collapse")
            else:
                print(f"{v.name}/{reg.id}: extra term {term} in the collapse")
    return status


# Flags of each mode of ``verify equivalence``, refused in the other mode.
_EXHAUSTIVE_FLAGS = ("horizon", "a", "b")
_MAPPED_FLAGS = ("variant", "trials", "cycles", "seed")


def _cmd_verify_equivalence(args) -> int:
    foreign = _MAPPED_FLAGS if args.exhaustive else _EXHAUSTIVE_FLAGS
    for flag in foreign:
        if getattr(args, flag) is not None:
            without = "with" if args.exhaustive else "without"
            raise _CliError(f"--{flag} does not apply {without} --exhaustive")
    if args.exhaustive:
        if not (args.a and args.b):
            raise _CliError("--exhaustive needs --a and --b spec files")
        sys_a = parse_spec(_read(args.a)).system
        sys_b = parse_spec(_read(args.b)).system
        if len(sys_a.registers) != 1 or len(sys_b.registers) != 1:
            raise _CliError("exhaustive checking expects single-register documents")
        verdict = transform.check_equivalence_exhaustive(
            sys_a.registers[0], sys_b.registers[0], args.horizon
        )
        if verdict.equal:
            print(
                f"equal: {verdict.states} states, prefixes of length {verdict.horizon}"
            )
            return OK
        ce = verdict.counterexample
        prefix = "".join(map(str, ce.prefix))
        print(f"unequal: initial state {ce.state}, prefix {prefix}")
        return FAIL
    if not args.variant:
        raise _CliError("either --exhaustive with --a/--b, or --variant is required")
    if args.seed is None:
        raise _CliError("mapped equivalence checking requires --seed")
    v = _load_variant(args)
    fib = v.fib_variant()
    trials = MAPPED_TRIALS if args.trials is None else args.trials
    cycles = MAPPED_CYCLES if args.cycles is None else args.cycles
    verdict = transform.check_equivalence_mapped(fib.system, v.system, trials, cycles, args.seed)
    if verdict.equal:
        print(
            f"equal: {verdict.trials} trials x {verdict.cycles} cycles "
            f"against {fib.name}"
        )
        return OK
    ce = verdict.counterexample
    print(
        f"unequal: trial {ce.trial}, register {ce.register}, "
        f"cycle {ce.cycle}, bit {ce.bit}"
    )
    return FAIL


def _cmd_verify_parallel(args) -> int:
    v = _load_variant(args)
    k = transform.max_hw_parallel_degree(v.system)
    print(f"{v.name}: max parallel degree {k}, declared {v.parallel_degree}")
    status = OK
    for reg in v.system.registers:
        terminal = v.terminals[reg.id]
        allowed = set(
            transform.allowed_feedback_positions(
                reg.length, terminal, v.parallel_degree
            )
        )
        if v.parallel_degree == 1:
            # With one bit per cycle there is no unrolling constraint and
            # the terminal bit itself may carry feedback.
            allowed.add(terminal)
        extra = [b for b in reg.explicit_bits() if b not in allowed]
        if extra:
            status = FAIL
            print(f"{v.name}/{reg.id}: feedback at unsupported bits {extra}")
    if k < v.parallel_degree:
        status = FAIL
        print(f"{v.name}: declared degree {v.parallel_degree} exceeds supported {k}")
    # Differential check: the lane kernel at the declared degree against
    # unit steps, from a fixed-seed state, over three blocks of k cycles and
    # a last lane step of k - 1.
    k = v.parallel_degree
    cycles = 4 * k - 1
    rng = random.Random(0)
    state = SystemState.from_bits(
        v.system,
        {r.id: [rng.randrange(2) for _ in range(r.length)] for r in v.system.registers},
    )
    for label, modes in (("init", {grain.INIT_MODE}), ("keygen", ())):
        if not _lanes_match(v.system, state, cycles, modes, k):
            print(f"{v.name}: lane kernel at k={k} differs from unit steps in {label} mode")
            return FAIL
    print(
        f"{v.name}: lane kernel at k={k} matches unit steps over {cycles} cycles "
        f"in init and keygen modes"
    )
    return status


def _cmd_analyze_timing(args) -> int:
    name, system = _load_system(args)
    cm = timing.parse_cost_model(_read(args.cost_model)) if args.cost_model else None
    # the divider clamp warns; report it on every call, not once per process
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = timing.critical_depths(system)
    for note in caught:
        print(f"warning: {note.message}", file=sys.stderr)
    pairs = [("system", name)]
    pairs += [(f"expr.{k}", d) for k, d in sorted(report.expr_depths.items())]
    pairs += [
        (f"register.{rid}", d) for rid, d in sorted(report.register_depths.items())
    ]
    pairs += [
        ("keygen_depth", report.keygen_depth),
        ("init_depth", report.init_depth),
        ("divider", report.divider),
        ("area_proxy", timing.area_proxy(system, cm)),
    ]
    if report.divider_area_overhead_ge is not None:
        pairs.append(("divider_area_overhead_ge", report.divider_area_overhead_ge))
    _emit(pairs, args.kv)
    return OK


def _cmd_map_state(args) -> int:
    v = _load_variant(args)
    fib = v.fib_variant()
    state = grain.state_from_hex(fib, args.state)
    out = transform.map_system_state(fib.system, v.system, state)
    print(grain.state_to_hex(v, out))
    return OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing keeps no state in the parser.
    parser = argparse.ArgumentParser(
        prog="grainkit",
        description="Grain stream ciphers and shift-register transformation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_repair(p):
        p.add_argument(
            "--tap-repair",
            choices=("official", "as-printed"),
            default="official",
            help="output-function tap flavor (default: official)",
        )

    p = sub.add_parser("keystream", help="generate keystream bits as hex")
    p.add_argument("--variant", required=True)
    p.add_argument("--key", required=True, help="key as hex")
    p.add_argument("--iv", required=True, help="IV as hex")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument(
        "--mode", choices=("equivalence", "native"), default="equivalence",
        help="init from the key and IV mapped as the sibling's state (default) or unmapped",
    )
    p.add_argument("--bit-order", choices=("lsb", "msb"), default="lsb")
    add_repair(p)
    p.set_defaults(func=_cmd_keystream)

    p = sub.add_parser("list-variants", help="list bundled configurations")
    p.add_argument("--kv", action="store_true", help="flat key=value output")
    p.set_defaults(func=_cmd_list_variants)

    p = sub.add_parser("transform", help="apply a shift script or auto-distribute")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--variant")
    src.add_argument("--spec", help="system document file")
    p.add_argument("--register", help="register to transform")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--script", help="shift script file")
    how.add_argument("--auto", action="store_true")
    p.add_argument("--k", type=int, default=1, help="parallel degree for --auto")
    p.add_argument("--terminal", type=int, help="terminal bit for --auto")
    p.add_argument("--name", help="name for the output document")
    p.add_argument("--out", help="write the document here instead of stdout")
    add_repair(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", help="verification subcommands")
    vsub = p.add_subparsers(dest="check", required=True)

    q = vsub.add_parser("uniform", help="check feedback uniformity")
    src = q.add_mutually_exclusive_group(required=True)
    src.add_argument("--variant")
    src.add_argument("--spec")
    q.add_argument("--register")
    q.add_argument("--terminal", type=int)
    add_repair(q)
    q.set_defaults(func=_cmd_verify_uniform)

    q = vsub.add_parser("collapse", help="collapse back and compare to the Fibonacci form")
    q.add_argument("--variant", required=True)
    add_repair(q)
    q.set_defaults(func=_cmd_verify_collapse)

    q = vsub.add_parser("equivalence", help="output-sequence equivalence")
    q.add_argument("--a", help="first register document (exhaustive mode)")
    q.add_argument("--b", help="second register document (exhaustive mode)")
    q.add_argument("--exhaustive", action="store_true")
    q.add_argument("--horizon", type=int)
    q.add_argument("--variant", help="check a bundled variant against its sibling")
    q.add_argument("--trials", type=int, help=f"random trials (default: {MAPPED_TRIALS})")
    q.add_argument("--cycles", type=int, help=f"cycles per trial (default: {MAPPED_CYCLES})")
    q.add_argument("--seed", type=int)
    add_repair(q)
    q.set_defaults(func=_cmd_verify_equivalence)

    q = vsub.add_parser("parallel", help="parallelization degree and positions")
    q.add_argument("--variant", required=True)
    add_repair(q)
    q.set_defaults(func=_cmd_verify_parallel)

    p = sub.add_parser("analyze", help="analysis subcommands")
    asub = p.add_subparsers(dest="analysis", required=True)
    q = asub.add_parser("timing", help="gate-depth report")
    src = q.add_mutually_exclusive_group(required=True)
    src.add_argument("--variant")
    src.add_argument("--spec")
    q.add_argument("--cost-model")
    q.add_argument("--kv", action="store_true", help="flat key=value output")
    add_repair(q)
    q.set_defaults(func=_cmd_analyze_timing)

    p = sub.add_parser(
        "map-state", help="map a Fibonacci-sibling state into a variant's registers"
    )
    p.add_argument("--variant", required=True)
    p.add_argument("--state", required=True, help="state hex (sibling layout)")
    add_repair(p)
    p.set_defaults(func=_cmd_map_state)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        return args.func(args)
    except (_CliError, SpecError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return USAGE


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
