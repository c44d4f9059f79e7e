"""Run one benchmark workload in a fresh, single-threaded process.

Reads a plan (JSON) on stdin, prints one JSON object on stdout.  The
process imports grainkit, builds and compiles the variants the workload
uses by calling them once, and reports the moment it is ready for the
first timed call; with ``setup_only`` it stops there.  Otherwise it runs
a closed loop of whole rounds (one call of each kind per round; a call
is issued only after the previous one returned) until the time is
spent, and checks every output against its expected value after the
call's clock has stopped.

The program is driven only through ``grainkit.cli.main`` (stdout
captured) and ``grainkit.grain.keystream``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from inputs import FAMILY_SIZES, REGISTER_BITS, bit_tuple  # noqa: E402

KS_BITS = 100_000
KS_VARIANTS = ("grain80-fib", "grain80-galois-1", "grain128-fib", "grain128-galois-16")
REKEY_BITS = 128
REKEY_MIN_CALLS = 1000  # p99 needs ten samples beyond it
MAPPED_TRIALS, MAPPED_CYCLES = 100, 1000
MAPPED_CASES = (  # variant, tap flavour, verdict expected
    ("grain80-galois-1", "official", True),
    ("grain128-galois-16", "official", True),
    ("grain128-galois-1", "as-printed", False),
)
INIT_CYCLES = {"grain80": 160, "grain128": 256}
_DIVERGENCE = re.compile(r"^unequal: trial (\d+), register \w+, cycle (\d+), bit \d+$")

# Per-layer functions reported by the traced run, as "<module>.<function>".
TRACED_FUNCTIONS = (
    "cli.main",
    "bits.pack_bits",
    "bits.unpack_hex",
    "specfile.parse_spec",
    "grain.load",
    "grain.initialize",
    "grain.generate_keystream",
    "engine.run",
    "engine.step",
    "engine.output_values",
    "transform.map_initial_state",
    "transform.collapse_to_fibonacci",
    "transform.check_uniform",
    "transform.check_equivalence_mapped",
    "transform.check_equivalence_exhaustive",
    "anf.evaluate",
)
WORK_COUNTERS = ("keys", "bits_emitted", "cycles_stepped", "trials", "states_enumerated")


def _family(name: str) -> str:
    return name.split("-", 1)[0]


def _cli(argv: list[str]):
    from grainkit import cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
        return status, out.getvalue().strip()

    return call


def _work(main: float, **counters) -> dict:
    return {"main": main, **counters}


class Workload:
    """Calls of one round, each ``(kind, call, check)``; ``check`` maps a result to (ok, work).

    The constructor imports what the calls use and builds nothing, so
    that a tracer installed after it sees every build in ``warm``.
    """

    uses_cli = True

    def __init__(self, plan: dict):
        self.plan = plan
        if self.uses_cli:
            import grainkit.cli  # noqa: F401

    def warm(self) -> None:
        raise NotImplementedError

    def round(self) -> list:
        raise NotImplementedError


class KeystreamBulk(Workload):
    def __init__(self, plan):
        super().__init__(plan)
        self.reference: dict[str, str] = {}

    def _argv(self, name: str, nbits: int) -> list[str]:
        key, iv = self.plan["keyivs"][_family(name)]
        return ["keystream", "--variant", name, "--key", key, "--iv", iv, "--bits", str(nbits)]

    def warm(self):
        for name in KS_VARIANTS:
            _cli(self._argv(name, 8))()

    def round(self):
        ops = []
        for name in KS_VARIANTS:
            fam = _family(name)

            def check(result, fam=fam):
                status, text = result
                # The Fibonacci variant runs first and sets its family's reference.
                ok = status == 0 and len(text) == KS_BITS // 4
                ok = ok and self.reference.setdefault(fam, text) == text
                work = _work(
                    KS_BITS, keys=1, bits_emitted=KS_BITS,
                    cycles_stepped=KS_BITS + INIT_CYCLES[fam],
                )
                return ok, work

            ops.append((name, _cli(self._argv(name, KS_BITS)), check))
        return ops


class Rekey(Workload):
    uses_cli = False

    def __init__(self, plan):
        super().__init__(plan)
        from grainkit import grain

        self.grain = grain
        self.rng = random.Random(plan["rekey_seed"])

    def warm(self):
        self.variants = [self.grain.variant(name) for name in self.grain.VARIANT_NAMES]
        for v in self.variants:
            keyiv = self.grain.KeyIv((0,) * v.key_bits, (0,) * v.iv_bits)
            self.grain.keystream(v, keyiv, 1)

    def round(self):
        keyivs = {
            fam: self.grain.KeyIv(bit_tuple(self.rng, k), bit_tuple(self.rng, i))
            for fam, (k, i) in FAMILY_SIZES.items()
        }
        reference: dict[str, tuple] = {}
        ops = []
        for v in self.variants:
            fam = _family(v.name)

            def call(v=v, keyiv=keyivs[fam]):
                return self.grain.keystream(v, keyiv, REKEY_BITS)

            def check(bits, fam=fam):
                ok = len(bits) == REKEY_BITS and reference.setdefault(fam, bits) == bits
                work = _work(
                    1, keys=1, bits_emitted=REKEY_BITS,
                    cycles_stepped=REKEY_BITS + INIT_CYCLES[fam],
                )
                return ok, work

            ops.append((v.name, call, check))
        return ops


class VerifyMapped(Workload):
    def _argv(self, name, flavour, trials, cycles):
        return [
            "verify", "equivalence", "--variant", name, "--tap-repair", flavour,
            "--trials", str(trials), "--cycles", str(cycles),
            "--seed", str(self.plan["mapped_seed"]),
        ]

    def warm(self):
        for name, flavour, _ in MAPPED_CASES:
            _cli(self._argv(name, flavour, 1, 1))()

    def round(self):
        ops = []
        for name, flavour, expect_equal in MAPPED_CASES:

            def check(result, expect_equal=expect_equal):
                status, text = result
                trials, cycles = MAPPED_TRIALS, MAPPED_TRIALS * MAPPED_CYCLES
                if expect_equal:
                    ok = status == 0 and text.startswith("equal:")
                else:
                    m = _DIVERGENCE.match(text)
                    ok = status == 1 and m is not None
                    if ok:
                        trials = int(m.group(1)) + 1
                        cycles = int(m.group(1)) * MAPPED_CYCLES + int(m.group(2))
                work = _work(
                    cycles, trials=trials, cycles_stepped=2 * cycles,
                    requested=MAPPED_TRIALS * MAPPED_CYCLES,
                )
                return ok, work

            argv = self._argv(name, flavour, MAPPED_TRIALS, MAPPED_CYCLES)
            ops.append((f"{name}/{flavour}", _cli(argv), check))
        return ops


class VerifyExhaustive(Workload):
    def warm(self):
        pass  # nothing is cached between exhaustive checks

    def round(self):
        ops = []
        states = 2 << REGISTER_BITS  # both sides of the pair
        equal_text = f"equal: {1 << REGISTER_BITS} states, prefixes of length {1 << REGISTER_BITS}"
        for index, pair in enumerate(self.plan["pairs"]):
            argv = ["verify", "equivalence", "--exhaustive", "--a", pair["a"], "--b", pair["b"]]

            def check(result, equal=pair["equal"]):
                status, text = result
                if equal:
                    ok = status == 0 and text == equal_text
                else:
                    ok = status == 1 and text.startswith("unequal: ")
                return ok, _work(states, states_enumerated=states)

            ops.append((f"pair{index}", _cli(argv), check))
        return ops


WORKLOADS = {
    "keystream-bulk": KeystreamBulk,
    "rekey": Rekey,
    "verify-mapped": VerifyMapped,
    "verify-exhaustive": VerifyExhaustive,
}


class Phase:
    """Results of one closed-loop measurement."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.main: dict[str, list[float]] = {}
        self.work: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0

    def add(self, kind: str, took: float, ok: bool, work: dict) -> None:
        self.times.setdefault(kind, []).append(took)
        self.main.setdefault(kind, []).append(work["main"])
        for key, value in work.items():
            self.work[key] = self.work.get(key, 0) + value
        self.attempted += 1
        self.failed += not ok
        self.busy += took

    def work_per_s(self) -> float:
        """Work of one round over the round time, each kind at its median."""
        kinds = self.times
        work = sum(statistics.median(self.main[k]) for k in kinds)
        return work / sum(statistics.median(self.times[k]) for k in kinds)


def measure(workload: Workload, seconds: float, min_calls: int, tracer=None) -> list[Phase]:
    """Closed loop of whole rounds until about ``seconds`` have passed.

    With a tracer, rounds alternate between untraced and traced, so both
    phases see the same machine; the first phase returned is untraced.
    """
    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    start = time.perf_counter()
    rounds = 0
    while True:
        phase = phases[rounds % len(phases)]
        traced = phase is not phases[0]
        if traced:
            tracer.install()
        try:
            for kind, call, check in workload.round():
                if traced:
                    call = (lambda c=call, k=kind: tracer.call(f"bench.{k}", c))
                began = time.perf_counter()
                result = call()
                took = time.perf_counter() - began
                ok, work = check(result)
                phase.add(kind, took, ok, work)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        # Stop at the round boundary nearest to the deadline.
        if (
            elapsed + elapsed / rounds / 2 >= seconds
            and rounds % len(phases) == 0
            and phases[0].attempted >= min_calls
        ):
            return phases


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_metrics(tracer, phase: Phase, plain: Phase, setup: dict, peak_mib: float) -> dict:
    """Per-layer metrics as name -> (value, unit), from the traced rounds."""
    ops = phase.attempted
    metrics = {}
    for name in TRACED_FUNCTIONS:
        calls, _, own = tracer.stat(name)
        metrics[f"{name}.calls_per_op"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_pct"] = (100.0 * own / phase.busy, "%")
    requested = phase.work.get("requested", 0)
    ratio = phase.work["main"] / requested if requested else 0.0
    metrics["transform.check_equivalence_mapped.cycles_run_ratio"] = (ratio, "ratio")
    metrics["transform.check_equivalence_exhaustive.peak_mib"] = (peak_mib, "MiB")
    metrics["grain.variant.builds"] = (setup["builds"], "count")
    metrics["grain.variant.build_pct"] = (100.0 * setup["build_s"] / setup["elapsed_s"], "%")
    for key in WORK_COUNTERS:
        metrics[f"work.{key}"] = (phase.work.get(key, 0), "count")
    overhead = 100.0 * (plain.work_per_s() / phase.work_per_s() - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def exhaustive_peak_mib(workload: Workload) -> float:
    """tracemalloc peak of one exhaustive check; too slow to leave on while timing."""
    import tracemalloc

    _, call, _ = workload.round()[0]
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    plan = json.load(sys.stdin)
    import grainkit  # noqa: F401  (setup time includes the package import)

    workload = WORKLOADS[plan["workload"]](plan)
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload.warm()
    ready = time.perf_counter()
    if plan["setup_only"]:
        print(json.dumps({"ready": ready}))
        return 0

    min_calls = REKEY_MIN_CALLS if plan["workload"] == "rekey" else 1
    result = {"ready": ready}
    if tracer is None:
        (phase,) = measure(workload, plan["seconds"], min_calls)
        latencies = [t for times in phase.times.values() for t in times]
        result.update(
            work_per_s=phase.work_per_s(),
            p50_ms=1e3 * statistics.median(latencies),
            p99_ms=1e3 * statistics.quantiles(latencies, n=100)[98] if len(latencies) > 1 else None,
            samples=len(latencies),
            peak_rss_mib=peak_rss_mib(),
        )
    else:
        build = tracer.stat("variants.build_system")
        setup = {"builds": build[0], "build_s": build[1], "elapsed_s": ready - STARTED}
        tracer.reset()
        tracer.uninstall()
        plain, phase = measure(workload, plan["seconds"], 1, tracer)
        peak = exhaustive_peak_mib(workload) if plan["workload"] == "verify-exhaustive" else 0.0
        result["per_layer"] = traced_metrics(tracer, phase, plain, setup, peak)
        Path(plan["trace_file"]).write_text(
            json.dumps(
                {
                    "workload": plan["workload"],
                    "seed": plan["seed"],
                    "setup": setup,
                    "layers": tracer.layer_table(),
                    "span_fields": ["request", "id", "parent", "name", "start", "end", "self_s"],
                    "spans": tracer.spans,
                }
            ),
            encoding="utf-8",
        )
        phase.attempted += plain.attempted
        phase.failed += plain.failed
    result.update(attempted=phase.attempted, failed=phase.failed, work=phase.work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
