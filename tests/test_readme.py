"""The README's examples, run as written.

The Python library block runs with ``exec``.  Every ``grainkit ...``
command in a shell block whose next line is a ``# <output>`` comment runs
through ``cli.main``, and its first stdout line must equal that comment,
or start with it when the comment ends in ``...``.  The lane-count table
must equal the engine's derived degrees, and the quoted operator counts
those of the generated keystream kernels.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from grainkit import INIT_MODE, VARIANT_NAMES, engine, variant, variants
from grainkit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def _commands_with_output() -> list[tuple[str, str]]:
    """(command, expected first line) for each command followed by a ``#`` line."""
    examples = []
    for block in _blocks("sh"):
        lines = block.replace("\\\n", " ").splitlines()
        for line, after in zip(lines, lines[1:]):
            if line.startswith("grainkit ") and after.startswith("# "):
                examples.append((" ".join(line.split()), after[2:]))
    return examples


EXAMPLES = _commands_with_output()


def test_readme_has_the_examples_it_is_checked_by():
    assert len(_blocks("python")) == 1
    assert len(EXAMPLES) >= 6


def test_library_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_command_prints_its_documented_output(command, expected, capsys):
    main(shlex.split(command)[1:])
    first = capsys.readouterr().out.splitlines()[0]
    if expected.endswith("..."):
        assert first.startswith(expected[:-3].rstrip())
    else:
        assert first == expected


def _lane_count_rows() -> list[tuple[str, tuple[str, ...], int, int]]:
    """(family, flavours, init k, keygen k) for each row of the lane-count table."""
    table = README.split("| configurations | init | key generation |\n|---|---|---|\n")[1]
    rows = []
    for line in table.splitlines():
        if not line.startswith("| "):
            break
        label, init_k, keygen_k = (cell.strip() for cell in line.strip("|").split("|"))
        family = re.match(r"Grain-(\d+),", label).group(1)
        flavours = tuple(re.findall(r"`([a-z-]+)`", label)) or ("official", "as-printed")
        rows.append((f"grain{family}", flavours, int(init_k), int(keygen_k)))
    return rows


def test_lane_count_table_matches_the_engine():
    rows = _lane_count_rows()
    assert {(family, f) for family, flavours, _, _ in rows for f in flavours} == {
        (family, f) for family in ("grain80", "grain128") for f in ("official", "as-printed")
    }
    for family, flavours, init_k, keygen_k in rows:
        for name in VARIANT_NAMES:
            if not name.startswith(family + "-"):
                continue
            for flavour in flavours:
                comp = variant(name, flavour).system._compiled
                got = (comp.degree(frozenset({INIT_MODE})), comp.degree(frozenset()))
                assert got == (init_k, keygen_k), (name, flavour)


def test_the_shown_galois_script_is_the_bundled_one():
    _, text = variants._SCRIPTS["grain80-galois-8"]
    assert f"```\n{text.strip()}\n```" in README


def _keystream_kernel_operators(name: str, monkeypatch) -> tuple[int, int]:
    """(operators in one key-generation lane step, cycles per step) of the
    kernel ``keystream`` runs: every binary operator and augmented
    assignment in the loop body of its generated source."""
    sources = []
    real = engine._exec
    monkeypatch.setattr(
        engine, "_exec", lambda src, *args: sources.append(src) or real(src, *args)
    )
    comp = variant(name).system._compiled
    keygen = frozenset()
    k = comp.degree(keygen)
    record, _ = comp.plan(keygen, ("Z",))
    comp._compile(keygen, k, record)
    loop = next(n for n in ast.walk(ast.parse(sources[-1])) if isinstance(n, ast.For))
    ops = sum(isinstance(n, (ast.BinOp, ast.AugAssign)) for line in loop.body for n in ast.walk(line))
    return ops, k


def test_quoted_operator_counts_match_the_generated_kernels(monkeypatch):
    text = " ".join(README.split())
    galois, cycles, fib = re.search(
        r"`grain80-galois-1` takes (\d+) operators per (\d+)-cycle key-generation step, "
        r"against (\d+) for `grain80-fib`",
        text,
    ).groups()
    assert _keystream_kernel_operators("grain80-galois-1", monkeypatch) == (int(galois), int(cycles))
    assert _keystream_kernel_operators("grain80-fib", monkeypatch) == (int(fib), int(cycles))
