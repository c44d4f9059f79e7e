import random
import subprocess
import sys
from pathlib import Path

import pytest

GALOIS_VARIANTS = (
    "grain80-galois-1",
    "grain80-galois-4",
    "grain80-galois-8",
    "grain128-galois-1",
    "grain128-galois-4",
    "grain128-galois-8",
    "grain128-galois-16",
)

ALL_VARIANTS = ("grain80-fib", "grain128-fib") + GALOIS_VARIANTS


def rand_bits(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(2) for _ in range(n))


@pytest.fixture
def rng():
    return random.Random(0xFEED)


# Runs argv[2:] as a grandchild, its stdout to the file argv[1], and prints
# its exit code and ru_maxrss.  A process's ru_maxrss starts from its
# parent's resident size at the fork and is kept across exec, so a direct
# child of the test process would report at least the test process's peak.
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "with open(sys.argv[1], 'wb') as sink:\n"
    "    child = subprocess.Popen(sys.argv[2:], stdout=sink)\n"
    "    _, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def run_fresh(code: str, argv: list[str], out: Path) -> tuple[int, float]:
    """Run ``python -I -c code *argv`` in a fresh process, stdout to ``out``.

    Returns its exit code and its own peak resident size in MiB
    (``ru_maxrss``, which Linux reports in KiB).
    """
    cmd = [sys.executable, "-I", "-c", _LAUNCHER, str(out), sys.executable, "-I", "-c", code]
    status, peak = subprocess.run(
        [*cmd, *argv], stdout=subprocess.PIPE, check=True, text=True
    ).stdout.split()
    return int(status), int(peak) / 1024
