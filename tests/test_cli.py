import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import grainkit

from grainkit import (
    KeyIv,
    initialize,
    load,
    state_to_hex,
    variant,
    variants,
)
from grainkit.cli import main
from grainkit.specfile import parse_spec
from grainkit.transform import check_equivalence_mapped, check_uniform
from conftest import GALOIS_VARIANTS

GRAIN80_ZERO_KS = "dee931cf1662a72f77d02b6b6188a8f6"

FIB4_DOC = "system demo-fib\nregister r 4\nfeedback r[3] = r[0] + r[1]*r[2]\n"
GAL4_DOC = "system demo-gal\nregister r 4\nfeedback r[2] = r[3] + r[0]*r[1]\n"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_keystream_pinned_vector(capsys):
    rc, out, _ = run_cli(
        capsys,
        "keystream", "--variant", "grain80-fib",
        "--key", "0" * 20, "--iv", "0" * 16, "--bits", "128",
    )
    assert rc == 0
    assert out.strip() == GRAIN80_ZERO_KS
    assert len(out.strip()) == 32


# The designers' published test vectors, each in the bit order it is
# published in: Grain v1 (Hell, Johansson, Meier 2007) least-significant
# bit first, Grain-128 (Hell, Johansson, Maximov, Meier 2006) most-
# significant bit first.
PUBLISHED_VECTORS = [
    ("grain80-fib", "0123456789abcdef1234", "0123456789abcdef", "lsb", "7f362bd3f7abae203664"),
    ("grain80-fib", "0" * 20, "0" * 16, "lsb", "dee931cf1662a72f77d0"),
    ("grain128-fib", "0" * 32, "0" * 24, "msb", "0fd9deefeb6fad437bf43fce35849cfe"),
    (
        "grain128-fib", "0123456789abcdef123456789abcdef0", "0123456789abcdef12345678",
        "msb", "db032aff3788498b57cb894fffb6bb96",
    ),
]


# Each vector also runs through every Galois variant of its family, whose
# own init phase clocks the mapped load in the default mode.
FAMILY_VECTORS = [
    (name, *vector)
    for fib, *vector in PUBLISHED_VECTORS
    for name in (fib, *(g for g in GALOIS_VARIANTS if g.split("-")[0] == fib.split("-")[0]))
]


@pytest.mark.parametrize("name, key, iv, order, want", FAMILY_VECTORS)
def test_keystream_published_vectors(capsys, name, key, iv, order, want):
    rc, out, err = run_cli(
        capsys,
        "keystream", "--variant", name, "--key", key, "--iv", iv,
        "--bits", str(4 * len(want)), "--bit-order", order,
    )
    assert (rc, out.strip(), err) == (0, want, "")


def test_keystream_galois_equivalence_mode_matches(capsys):
    args = ["--key", "0" * 20, "--iv", "0" * 16, "--bits", "128"]
    rc, fib_out, _ = run_cli(capsys, "keystream", "--variant", "grain80-fib", *args)
    rc2, gal_out, _ = run_cli(
        capsys, "keystream", "--variant", "grain80-galois-8", *args
    )
    assert rc == rc2 == 0
    assert fib_out == gal_out


def test_keystream_input_errors(capsys):
    rc, _, err = run_cli(
        capsys,
        "keystream", "--variant", "grain80-fib",
        "--key", "zz", "--iv", "0" * 16, "--bits", "8",
    )
    assert rc == 2 and "error" in err
    rc, _, err = run_cli(
        capsys,
        "keystream", "--variant", "grain81-fib",
        "--key", "0" * 20, "--iv", "0" * 16, "--bits", "8",
    )
    assert rc == 2 and "unknown variant" in err


@pytest.mark.parametrize("bits", ["-1", "16777217", "1000000000"])
def test_keystream_refuses_bits_out_of_range_before_loading(capsys, bits):
    for name in ("grain80-fib", "no-such-variant"):
        rc, out, err = run_cli(
            capsys,
            "keystream", "--variant", name,
            "--key", "0" * 20, "--iv", "0" * 16, "--bits", bits,
        )
        assert (rc, out) == (2, "")
        assert err == "error: bits must be between 0 and 16777216\n"


def test_keystream_accepts_zero_bits(capsys):
    rc, out, _ = run_cli(
        capsys,
        "keystream", "--variant", "grain80-fib",
        "--key", "0" * 20, "--iv", "0" * 16, "--bits", "0",
    )
    assert (rc, out) == (0, "\n")


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "keystream", "--variant", "grain80-fib")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_list_variants(capsys):
    rc, out, _ = run_cli(capsys, "list-variants")
    assert rc == 0
    assert len(out.strip().splitlines()) == 9
    assert "grain128-galois-16" in out


@pytest.mark.parametrize(
    "argv", [("list-variants", "--kv"), ("analyze", "timing", "--variant", "grain128-galois-4", "--kv")]
)
def test_kv_output_is_flat_key_value(argv, capsys):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and out
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        assert sep and key and " " not in key and "=" not in value, line


def test_list_variants_kv_has_one_line_per_field(capsys):
    _, out, _ = run_cli(capsys, "list-variants", "--kv")
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert len(lines) == 9 * 5
    assert lines["grain80-galois-1.terminal_b"] == "63"
    assert lines["grain128-galois-16.k"] == "16"


def test_python_dash_m_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(Path(grainkit.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "grainkit", "verify", "equivalence", "--variant",
         "grain80-galois-1", "--seed", "1", "--trials", "2", "--cycles", "5"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (done.returncode, done.stdout) == (0, "equal: 2 trials x 5 cycles against grain80-fib\n")
    usage = subprocess.run(
        [sys.executable, "-m", "grainkit", "no-such-command"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert usage.returncode == 2 and "invalid choice" in usage.stderr


def test_verify_collapse_official(capsys):
    rc, out, _ = run_cli(capsys, "verify", "collapse", "--variant", "grain128-galois-8")
    assert rc == 0
    assert "matches" in out


def test_verify_collapse_as_printed_diagnoses_duplicate(capsys):
    rc, out, _ = run_cli(
        capsys,
        "verify", "collapse", "--variant", "grain128-galois-1",
        "--tap-repair", "as-printed",
    )
    assert rc == 1
    assert out.splitlines() == [
        "grain128-galois-1/b: term b[67]*b[3] unshifts from bit 124 and bit 127; "
        "the duplicate cancels out of the collapse",
        "grain128-galois-1/s: collapse matches grain128-fib",
    ]


def test_keystream_refusal_names_the_register_that_does_not_collapse(capsys):
    rc, out, err = run_cli(
        capsys,
        "keystream", "--variant", "grain128-galois-1", "--tap-repair", "as-printed",
        "--key", "0" * 32, "--iv", "0" * 24, "--bits", "8",
    )
    assert (rc, out) == (2, "")
    assert err == "error: target register 'b' does not collapse to the source register\n"


def test_verify_uniform(capsys):
    rc, out, _ = run_cli(capsys, "verify", "uniform", "--variant", "grain80-galois-1")
    assert rc == 0
    assert "terminal bit 63" in out


def test_verify_uniform_one_register_and_an_unknown_one(capsys):
    base = ("verify", "uniform", "--variant", "grain80-galois-1", "--register")
    rc, out, _ = run_cli(capsys, *base, "s")
    assert (rc, out) == (0, "grain80-galois-1/s: uniform, terminal bit 79\n")
    rc, out, err = run_cli(capsys, *base, "q")
    assert (rc, out, err) == (2, "", "error: unknown register 'q'\n")


def test_verify_uniform_spec_file(tmp_path, capsys):
    path = tmp_path / "bad.fsr"
    path.write_text("system bad\nregister r 4\nfeedback r[2] = r[0]*r[1]\n")
    rc, out, _ = run_cli(capsys, "verify", "uniform", "--spec", str(path))
    assert rc == 1
    assert "non-singular" in out


def test_verify_equivalence_exhaustive(tmp_path, capsys):
    a = tmp_path / "small_fib.fsr"
    b = tmp_path / "small_gal.fsr"
    a.write_text(FIB4_DOC)
    b.write_text(GAL4_DOC)
    rc, out, _ = run_cli(
        capsys,
        "verify", "equivalence", "--a", str(a), "--b", str(b), "--exhaustive",
    )
    assert rc == 0 and "equal" in out

    c = tmp_path / "ring.fsr"
    c.write_text("system ring\nregister r 4\nfeedback r[3] = r[0]\n")
    rc, out, _ = run_cli(
        capsys,
        "verify", "equivalence", "--a", str(a), "--b", str(c), "--exhaustive",
    )
    assert rc == 1 and "unequal" in out


@pytest.mark.parametrize("flag, value", [("--horizon", "5"), ("--a", "a.fsr"), ("--b", "b.fsr")])
def test_verify_equivalence_refuses_exhaustive_flags_without_exhaustive(flag, value, capsys):
    rc, out, err = run_cli(
        capsys, "verify", "equivalence", "--variant", "grain80-galois-1", "--seed", "1",
        "--trials", "3", "--cycles", "3", flag, value,
    )
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} does not apply without --exhaustive\n"


@pytest.mark.parametrize(
    "flag, value",
    [("--variant", "grain80-galois-1"), ("--trials", "20"), ("--cycles", "500"), ("--seed", "1")],
)
def test_verify_equivalence_refuses_mapped_flags_with_exhaustive(flag, value, tmp_path, capsys):
    a = tmp_path / "small_fib.fsr"
    a.write_text(FIB4_DOC)
    rc, out, err = run_cli(
        capsys, "verify", "equivalence", "--exhaustive", "--a", str(a), "--b", str(a), flag, value,
    )
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} does not apply with --exhaustive\n"


def test_verify_equivalence_mapped_defaults(capsys):
    rc, out, _ = run_cli(capsys, "verify", "equivalence", "--variant", "grain80-galois-1", "--seed", "1")
    assert (rc, out) == (0, "equal: 20 trials x 500 cycles against grain80-fib\n")


def test_verify_equivalence_exhaustive_refuses_costly_inputs(tmp_path, capsys):
    wide = tmp_path / "wide.fsr"
    wide.write_text("system wide\nregister r 21\nfeedback r[20] = r[0] + r[3]*r[9]\n")
    rc, out, err = run_cli(
        capsys, "verify", "equivalence", "--a", str(wide), "--b", str(wide), "--exhaustive",
    )
    assert (rc, out) == (2, "")
    assert err.startswith("error: register too large for exhaustive checking (21 > 20 bits)")
    a = tmp_path / "small_fib.fsr"
    a.write_text(FIB4_DOC)
    rc, out, err = run_cli(
        capsys, "verify", "equivalence", "--a", str(a), "--b", str(a), "--exhaustive",
        "--horizon", "0",
    )
    assert (rc, out) == (2, "") and "horizon must be positive" in err


def test_verify_equivalence_exhaustive_huge_horizon_gives_a_short_witness(tmp_path, capsys):
    import time

    a, c = tmp_path / "small_fib.fsr", tmp_path / "ring.fsr"
    a.write_text(FIB4_DOC)
    c.write_text("system ring\nregister r 4\nfeedback r[3] = r[0]\n")
    start = time.perf_counter()
    rc, out, _ = run_cli(
        capsys, "verify", "equivalence", "--a", str(a), "--b", str(c), "--exhaustive",
        "--horizon", str(1 << 64),
    )
    assert time.perf_counter() - start < 0.5
    # the prefix multisets first differ at 8 bits, so the default horizon's witness is the same
    assert (rc, out) == (1, "unequal: initial state 3, prefix 11001101\n")
    assert run_cli(
        capsys, "verify", "equivalence", "--a", str(a), "--b", str(c), "--exhaustive",
    )[:2] == (rc, out)


def test_verify_equivalence_exhaustive_runs_a_17_bit_pair(tmp_path, capsys):
    reg = tmp_path / "r17.fsr"
    reg.write_text("system r17\nregister r 17\nfeedback r[16] = r[0] + r[3]*r[9] + r[5]\n")
    rc, out, err = run_cli(
        capsys, "verify", "equivalence", "--a", str(reg), "--b", str(reg), "--exhaustive",
    )
    assert (rc, out, err) == (0, "equal: 131072 states, prefixes of length 131072\n", "")


def test_verify_equivalence_mapped_requires_seed(capsys):
    rc, _, err = run_cli(
        capsys, "verify", "equivalence", "--variant", "grain80-galois-1"
    )
    assert rc == 2 and "--seed" in err


def test_verify_equivalence_mapped(capsys):
    rc, out, _ = run_cli(
        capsys,
        "verify", "equivalence", "--variant", "grain80-galois-1",
        "--trials", "3", "--cycles", "200", "--seed", "9",
    )
    assert rc == 0 and "equal" in out


def test_verify_equivalence_mapped_refuses_negative_counts(capsys):
    for flag, value in (("--trials", "-1"), ("--cycles", "-5")):
        rc, out, err = run_cli(
            capsys,
            "verify", "equivalence", "--variant", "grain80-galois-1",
            "--seed", "1", flag, value,
        )
        assert rc == 2 and out == ""
        assert err == f"error: {flag[2:]} must be non-negative\n"


def test_verify_parallel(capsys):
    for name in ("grain80-fib", "grain80-galois-4", "grain128-galois-16",
                 "grain80-galois-1"):
        rc, out, _ = run_cli(capsys, "verify", "parallel", "--variant", name)
        assert rc == 0, out


def test_verify_parallel_runs_the_lane_kernel_at_the_declared_degree(capsys, monkeypatch):
    rc, out, _ = run_cli(capsys, "verify", "parallel", "--variant", "grain128-galois-16")
    assert rc == 0
    assert out.splitlines()[-1] == (
        "grain128-galois-16: lane kernel at k=16 matches unit steps over 63 cycles "
        "in init and keygen modes"
    )
    import grainkit.cli as cli

    seen = []

    def mismatch(system, state, cycles, modes, k):
        seen.append((cycles, sorted(modes), k))
        return not modes  # the init-mode run differs
    monkeypatch.setattr(cli, "_lanes_match", mismatch)
    rc, out, _ = run_cli(capsys, "verify", "parallel", "--variant", "grain80-galois-8")
    assert rc == 1
    assert out.splitlines()[-1] == (
        "grain80-galois-8: lane kernel at k=8 differs from unit steps in init mode"
    )
    assert seen == [(31, ["init"], 8)]


def test_analyze_timing_kv(capsys):
    rc, out, _ = run_cli(
        capsys, "analyze", "timing", "--variant", "grain80-fib", "--kv"
    )
    assert rc == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["expr.b[79]"] == "8"
    assert lines["keygen_depth"] == "9"
    assert lines["divider"] == "2"


def test_analyze_timing_cost_model(tmp_path, capsys):
    path = tmp_path / "weights.txt"
    path.write_text("weight xor2 = 2.0\nweight and2 = 1.0\n")
    rc, out, _ = run_cli(
        capsys,
        "analyze", "timing", "--variant", "grain80-fib",
        "--cost-model", str(path), "--kv",
    )
    assert rc == 0 and "area_proxy=" in out


def test_analyze_timing_refuses_a_non_finite_weight(tmp_path, capsys):
    path = tmp_path / "weights.txt"
    path.write_text("weight xor2 = nan\n")
    rc, out, err = run_cli(
        capsys, "analyze", "timing", "--variant", "grain80-fib", "--cost-model", str(path)
    )
    assert (rc, out) == (2, "")
    assert err == "error: xor2 weight must be finite and positive, not nan\n"


def test_analyze_timing_prints_the_divider_clamp_on_every_call(tmp_path, capsys):
    path = tmp_path / "clamp.fsr"
    path.write_text(
        "system clamp\nregister r 4\noutput OUT = r[0]\ninject init r[3] = OUT\n"
    )
    # whatever the process's warning filter, and not only on the first call
    for action in ("default", "default", "ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            rc, out, err = run_cli(capsys, "analyze", "timing", "--spec", str(path), "--kv")
        assert rc == 0 and "divider=4\n" in out
        assert err == (
            "warning: init/keygen depth ratio exceeds 4 (1/0); clamping divider to 4\n"
        )


def test_transform_auto_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "auto.fsr"
    rc, _, err = run_cli(
        capsys,
        "transform", "--variant", "grain80-fib", "--register", "b",
        "--auto", "--k", "1", "--out", str(out_path),
    )
    assert rc == 0, err
    rc, out, _ = run_cli(capsys, "verify", "uniform", "--spec", str(out_path))
    assert rc == 0


def test_transform_reports_an_unwritable_out_path(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.fsr"
    rc, out, err = run_cli(
        capsys,
        "transform", "--variant", "grain80-fib", "--register", "b",
        "--auto", "--out", str(out_path),
    )
    assert (rc, out) == (2, "") and not out_path.exists()
    assert err.startswith(f"error: cannot write {out_path}: ")


TOY_DOC = """\
system toy-fib
register b 10
register s 6
feedback b[9] = s[0] + b[0] + {b9}
feedback s[5] = s[0] + s[1]
output H = b[1]*s[3] + s[4]*s[5] + b[2]*s[1]*s[5]
output Z = b[0] + b[2] + s[2] + H
inject init b[9] = Z
inject init s[5] = Z
"""
STRANDING_TOY = TOY_DOC.format(b9="b[7] + b[3]*b[8] + b[5]*b[7] + b[6]*b[7]*b[8]")
UNIFORM_TOY = TOY_DOC.format(b9="b[5] + b[2]*b[5] + b[1]*b[4] + b[3]*b[4]*b[5]")


def _auto(tmp_path, capsys, doc, *extra):
    src, out_path = tmp_path / "toy.fsr", tmp_path / "auto.fsr"
    src.write_text(doc)
    rc, out, err = run_cli(
        capsys, "transform", "--spec", str(src), "--auto", "--out", str(out_path), *extra
    )
    return rc, err, out_path


def test_transform_auto_raises_the_terminal_over_stranded_terms(tmp_path, capsys):
    # b[8]*b[3] and b[8]*b[7]*b[6] fit no position at terminal 5 and k 2;
    # they once stayed at the top bit above a new terminal 7
    rc, err, out_path = _auto(tmp_path, capsys, STRANDING_TOY, "--k", "2")
    assert (rc, err) == (0, "")
    rc, out, _ = run_cli(capsys, "verify", "uniform", "--spec", str(out_path))
    assert rc == 0, out
    source = parse_spec(STRANDING_TOY).system
    emitted = parse_spec(out_path.read_text()).system
    assert check_equivalence_mapped(source, emitted, 200, 200, 1).equal


def test_transform_auto_moves_terms_of_a_uniform_toy(tmp_path, capsys):
    rc, err, out_path = _auto(tmp_path, capsys, UNIFORM_TOY, "--k", "2", "--terminal", "5")
    assert (rc, err) == (0, "")
    source = parse_spec(UNIFORM_TOY).system
    emitted = parse_spec(out_path.read_text()).system
    assert emitted.register("b").explicit_bits() == (7, 9)
    assert check_uniform(emitted.register("b")).uniform
    assert check_equivalence_mapped(source, emitted, 200, 200, 1).equal


def test_transform_auto_is_refused_by_the_script_gate(tmp_path, capsys):
    # at k 1 each single move leaves b[8] above the new terminal at the top bit
    rc, err, out_path = _auto(tmp_path, capsys, STRANDING_TOY, "--k", "1")
    assert rc == 1 and not out_path.exists()
    assert err == "script rejected: move 0 breaks uniformity: bit 9 index-above-terminal\n"


def test_transform_has_no_cost_model_flag(capsys):
    rc, _, err = run_cli(
        capsys,
        "transform", "--variant", "grain80-fib", "--register", "b",
        "--auto", "--k", "4", "--cost-model", "x",
    )
    assert rc == 2 and "--cost-model" in err


def test_transform_script(tmp_path, capsys):
    script = tmp_path / "moves.txt"
    script.write_text("shift b 79 -> 70 : b[33]*b[28]*b[21]*b[15]*b[9]\n")
    rc, out, _ = run_cli(
        capsys,
        "transform", "--variant", "grain80-fib", "--register", "b",
        "--script", str(script),
    )
    assert rc == 0
    assert "feedback b[70] = b[71] + b[24]*b[19]*b[12]*b[6]*b[0]" in out


@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_transform_rebuilds_each_bundled_galois_variant(tmp_path, capsys, name):
    # the bundled build and a user's --script pass through the same gate
    sibling, text = variants._SCRIPTS[name]
    script = tmp_path / "moves.txt"
    script.write_text(text)
    rc, out, err = run_cli(
        capsys,
        "transform", "--variant", sibling, "--register", "b",
        "--script", str(script), "--name", name,
    )
    assert (rc, err) == (0, "")
    assert out == variants.document(name)


def test_transform_rejects_bad_script(tmp_path, capsys):
    script = tmp_path / "moves.txt"
    script.write_text("shift b 79 -> 60 : b[15]*b[9]\n")
    rc, _, err = run_cli(
        capsys,
        "transform", "--variant", "grain80-fib", "--register", "b",
        "--script", str(script),
    )
    assert rc == 1 and "rejected" in err


def test_transform_refuses_a_script_whose_remap_wraps(tmp_path, capsys):
    # r[1] moved two bits down remaps to r[5], mod 6, above the new terminal 3
    spec, script = tmp_path / "wrap.fsr", tmp_path / "moves.txt"
    spec.write_text("system wrap\nregister r 6\nfeedback r[5] = r[0] + r[1] + r[2]*r[3]\n")
    script.write_text("shift r 5 -> 3 : r[1]\n")
    rc, out, err = run_cli(
        capsys, "transform", "--spec", str(spec), "--register", "r", "--script", str(script)
    )
    assert (rc, out) == (1, "")
    assert err == "script rejected: move 0 breaks uniformity: bit 3 index-above-terminal\n"


@pytest.mark.parametrize("repair", ["official", "as-printed"])
@pytest.mark.parametrize("name", GALOIS_VARIANTS)
def test_map_state_matches_equivalence_initialization(capsys, name, repair):
    gal = variant(name, repair)
    fib = gal.fib_variant()
    kiv = KeyIv((1, 0, 1) + (0,) * (fib.key_bits - 3), (1,) * fib.iv_bits)
    fib_done = initialize(fib, load(fib, kiv))
    rc, out, err = run_cli(
        capsys,
        "map-state", "--variant", name, "--tap-repair", repair,
        "--state", state_to_hex(fib, fib_done),
    )
    if (name, repair) == ("grain128-galois-1", "as-printed"):
        assert (rc, out) == (2, "")
        assert err == "error: target register 'b' does not collapse to the source register\n"
        with pytest.raises(ValueError, match="does not collapse"):
            initialize(gal, load(gal, kiv), mode="equivalence")
        return
    assert rc == 0
    expected = initialize(gal, load(gal, kiv), mode="equivalence")
    assert out.strip() == state_to_hex(gal, expected)


def test_map_state_identity_for_fibonacci(capsys):
    text = "00" * 20
    rc, out, _ = run_cli(
        capsys, "map-state", "--variant", "grain80-fib", "--state", text
    )
    assert rc == 0 and out.strip() == text


PARSER_SEQUENCE = [
    ["list-variants", "--kv"],
    ["keystream"],
    ["keystream", "--variant", "grain80-fib", "--key", "0" * 20, "--iv", "0" * 16, "--bits", "64"],
    ["nonsense"],
    ["verify"],
    ["verify", "equivalence", "--trials", "many"],
    ["verify", "equivalence", "--variant", "grain80-galois-1", "--seed", "1",
     "--trials", "2", "--cycles", "5"],
    ["transform", "--variant", "grain80-galois-1", "--spec", "x.fsr", "--auto"],
    ["verify", "equivalence", "--variant", "grain80-galois-1"],
    ["analyze", "timing", "--variant", "grain128-galois-4", "--kv"],
    ["keystream", "--variant", "grain80-fib", "--key", "0" * 20, "--iv", "0" * 16,
     "--bits", "8", "--bit-order", "middle"],
    ["verify", "collapse", "--variant", "grain128-galois-1", "--tap-repair", "as-printed"],
    ["--help"],
    [],
]


def test_parser_is_built_once_and_parses_like_a_fresh_one(capsys, monkeypatch):
    import grainkit.cli as cli

    cached = [run_cli(capsys, *argv) for argv in PARSER_SEQUENCE * 2]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in PARSER_SEQUENCE * 2]
    assert cached == fresh
    statuses = [rc for rc, _, _ in fresh]
    assert statuses.count(2) >= 7 and 0 in statuses and 1 in statuses
    assert all(err for rc, _, err in fresh if rc == 2)


def test_runtime_imports_only_the_standard_library():
    src = Path(grainkit.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import grainkit, grainkit.cli\n"
        "print(*{m.partition('.')[0] for m in set(sys.modules) - before})\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "grainkit" in loaded
    assert loaded - {"grainkit"} <= set(sys.stdlib_module_names)
