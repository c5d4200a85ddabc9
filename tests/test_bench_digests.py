"""The bench's seed-1 outcome digests, checked on every test run.

Each seed-1 pool of ``bench/workloads.py`` is solved once, in the rounds
``bench/run.py`` uses (the share cache cleared before each), and the
digest of its outcomes must match the one recorded here.  A change that
means to move an outcome updates the digest with it.
"""

import sys
from pathlib import Path

import pytest

import mmsalloc

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

DIGESTS = {
    "small-uniform": "a89bc3d367b602509ddfed27de533a99de9cd5a4b697f2c35920fe35cd829c9c",
    "correlated": "b41c2fd6b8329c4bbc75cb282744b58eea9cd5dbf50f5bf0742eb31b3c457cbf",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_1_outcomes_match_the_bench_digest(workload):
    generate, round_size = workloads.WORKLOADS[workload]
    pool = generate(mmsalloc, 1)
    result = run.Pass(len(pool))
    for indices in run.rounds(len(pool), round_size):
        run.run_round(mmsalloc, pool, indices, result, verify=False)
    assert result.failed == 0
    assert run.outcome_digest(mmsalloc, result.outcomes) == DIGESTS[workload]
