"""The experiment benchmarks' shared harness (``benchmarks/_harness.py``)."""

import os
import subprocess
import sys
from pathlib import Path

HARNESS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _seed_in_subprocess(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from _harness import seed_for; "
        "print(seed_for('E10g', 64), seed_for('E16r', 0.5, 3))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HARNESS_DIR)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_seed_for_is_stable_across_processes():
    # String hashing is randomized per process; the seeds must not be.
    first = _seed_in_subprocess(1)
    assert first == _seed_in_subprocess(2) == _seed_in_subprocess(12345)
    seeds = [int(x) for x in first.split()]
    assert seeds[0] != seeds[1]
    assert all(0 <= seed < 2**31 - 1 for seed in seeds)
