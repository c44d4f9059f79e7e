"""grainkit benchmark: one workload per call, or all four with no --workload.

    python3 perfbench/run.py --workload rekey --seed 3 --seconds 20 --trace 0

Run from the root of a grainkit checkout; the package is imported from
``src/`` as it stands, with nothing installed.  Inputs are made from
``--seed`` before any timing.  Each workload's measured calls run in a
fresh single-threaded worker process (``worker.py``), so its peak RSS is
the workload's own.  ``setup_s`` is the median, over several fresh
processes, of the time from spawning the process to its first timed
call.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with
no tracing; with ``--trace 1`` they are the per-layer ones from a traced
run, whose spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("keystream-bulk", "rekey", "verify-mapped", "verify-exhaustive")
SETUP_SAMPLES = 7  # the worker itself plus six probes; one more probe warms the bytecode cache
WORKER_TIMEOUT_S = 150

# Published vectors: (variant, key, iv, bit order, keystream).
# Grain v1: Hell, Johansson, Meier 2007.  Grain-128: Hell, Johansson,
# Maximov, Meier, ISIT 2006.
VECTORS = (
    ("grain80-fib", "0123456789abcdef1234", "0123456789abcdef", "lsb", "7f362bd3f7abae203664"),
    ("grain80-fib", "00000000000000000000", "0000000000000000", "lsb", "dee931cf1662a72f77d0"),
    (
        "grain128-fib", "0" * 32, "0" * 24, "msb", "0fd9deefeb6fad437bf43fce35849cfe",
    ),
    (
        "grain128-fib", "0123456789abcdef123456789abcdef0", "0123456789abcdef12345678",
        "msb", "db032aff3788498b57cb894fffb6bb96",
    ),
)

# Names and units of the figures each workload's summary prints, besides
# the metrics in BENCHMARK.json.  The first is the workload's work_per_s.
THROUGHPUT = {
    "keystream-bulk": ("ks_bits_per_s", "bits/s"),
    "rekey": ("rekey_per_s", "keys/s"),
    "verify-mapped": ("mapped_cycles_per_s", "trial-cycles/s"),
    "verify-exhaustive": ("exhaustive_states_per_s", "states/s"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def vectors_mismatched() -> int:
    """How many published vectors the default flavour misses, checked through the CLI."""
    from grainkit import cli

    missed = 0
    for name, key, iv, order, want in VECTORS:
        argv = ["keystream", "--variant", name, "--key", key, "--iv", iv,
                "--bits", str(4 * len(want)), "--bit-order", order]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        missed += status != 0 or out.getvalue().strip() != want
    return missed


def make_plan(workload: str, seed: int, seconds: int, trace: int, scratch: Path) -> dict:
    import inputs

    rng = random.Random(seed)
    plan = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_only": False,
        "keyivs": inputs.family_hex_keyivs(rng),
        "rekey_seed": rng.getrandbits(64),
        "mapped_seed": rng.randrange(1, 2**31),
        "pairs": [],
        "trace_file": str(OUT / f"trace-{workload}-seed{seed}.json"),
    }
    if workload == "verify-exhaustive":
        scratch.mkdir(parents=True)
        plan["pairs"] = inputs.exhaustive_pairs(rng, scratch)
    return plan


def run_worker(plan: dict) -> tuple[dict, float]:
    """Run the worker; return its result and the time it was spawned."""
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(plan),
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def setup_seconds(plan: dict) -> list[float]:
    probe = dict(plan, setup_only=True)
    run_worker(probe)  # writes any missing bytecode cache; not counted
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        result, spawned = run_worker(probe)
        samples.append(result["ready"] - spawned)
    return samples


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of each metric BENCHMARK.json lists under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"inputs-{args.workload}-seed{args.seed}-{time.time_ns()}"
    try:
        plan = make_plan(args.workload, args.seed, args.seconds, args.trace, scratch)
        missed = vectors_mismatched()
        setup = [] if args.trace else setup_seconds(plan)
        result, spawned = run_worker(plan)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setup.append(result["ready"] - spawned)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"ops_attempted {result['attempted']} count")
    print(f"ops_failed {result['failed']} count")
    print(f"vectors_mismatched {missed} count (of {len(VECTORS)} published vectors, default flavour)")
    if args.trace:
        metrics = {name: tuple(pair) for name, pair in result["per_layer"].items()}
        metrics["oracle.vectors_mismatched"] = (missed, "count")
        print("waiting time: 0 by construction (single thread, no queues or locks)")
    else:
        metrics = {
            "work_per_s": (result["work_per_s"], "1/s"),
            "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        name, unit = THROUGHPUT[args.workload]
        print(f"{name} {result['work_per_s']:.6g} {unit}")
        if args.workload == "rekey":
            print(f"rekey_p50_ms {result['p50_ms']:.6g} ms ({result['samples']} samples)")
            print(f"rekey_p99_ms {result['p99_ms']:.6g} ms ({result['samples']} samples)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if sorted(declared) != sorted((n, u) for n, (_, u) in metrics.items()):
        raise BenchError("metrics differ from those declared in BENCHMARK.json")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status |= subprocess.run(argv, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grainkit" / "__init__.py").is_file():
        print(f"error: no grainkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload is None:
        return run_all(args)
    try:
        return run_one(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
