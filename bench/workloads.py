"""Seeded instance generators for the benchmark workloads.

Each generator takes the imported ``mmsalloc`` package and the run seed and
returns the run's pool of instances; the same seed always gives the same
pool.  The bench clears the share cache before it solves a round of the
pool and again before it verifies that round.
"""

from __future__ import annotations

import random

# The first 30 instances of the 8 x 15 acceptance generator (criterion 3),
# also the corpus of the tracer cross-check.
CORPUS_SEED = 103
CORPUS_SIZE = 30


def criterion3_rows():
    """Valuation rows of the 8 x 15 instances, drawn as the acceptance test draws them."""
    rng = random.Random(CORPUS_SEED)
    return [
        [[rng.randint(0, 20) for _ in range(15)] for _ in range(8)]
        for _ in range(CORPUS_SIZE)
    ]


def goods_8x15(pkg, seed):
    """The criterion-3 corpus, each instance relabeled by the seed.

    Solve time per 8 x 15 instance is heavy-tailed (a median near 0.3 s and
    single instances above 4 s), so a fresh draw of the few instances that
    fit in a run would swing the run's totals by tens of percent from seed
    to seed.  A seeded permutation of agents and of items changes every
    input and output but keeps each agent's multiset of values, and so the
    instance's maximin shares.
    """
    rng = random.Random(seed)
    pool = []
    for rows in criterion3_rows():
        agents = list(range(len(rows)))
        items = list(range(len(rows[0])))
        rng.shuffle(agents)
        rng.shuffle(items)
        pool.append(
            pkg.make_instance(pkg.GOODS, [[rows[a][j] for j in items] for a in agents])
        )
    return pool


def _kind(pkg, index):
    return pkg.GOODS if index % 2 == 0 else pkg.CHORES


def small_uniform(pkg, seed, count=8000):
    """3-4 agents, n..n+5 items, values 0..20, goods and chores alternating."""
    rng = random.Random(seed)
    pool = []
    for k in range(count):
        kind = _kind(pkg, k)
        sign = 1 if kind == pkg.GOODS else -1
        n = rng.choice([3, 4])
        m = rng.randint(n, n + 5)
        rows = [[sign * rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
        pool.append(pkg.make_instance(kind, rows))
    return pool


def correlated(pkg, seed, count=5000):
    """3-5 agents, n+1..n+6 items; rows are one base row plus noise in [-1, 1].

    Near-identical rows defeat the cheap reduction rules and reach the
    structured witnesses, domination and the threshold-search fallback.
    Five agents at most keep that exhaustive fallback within the solver's
    cap (5^11 < 10^8).  Six agents with 11 or 12 chores can exceed it, and
    the solver then returns unresolved by design: seed 1 drew such an
    instance once in 4000.
    """
    rng = random.Random(seed)
    pool = []
    for k in range(count):
        kind = _kind(pkg, k)
        sign = 1 if kind == pkg.GOODS else -1
        n = rng.randint(3, 5)
        m = rng.randint(n + 1, n + 6)
        base = [rng.randint(0, 20) for _ in range(m)]
        rows = [[sign * max(0, b + rng.randint(-1, 1)) for b in base] for _ in range(n)]
        pool.append(pkg.make_instance(kind, rows))
    return pool


# name -> (generator, instances per round).  An 8 x 15 round is a single
# instance, so its solves and verifications alternate through the whole run
# and both see the same machine conditions.  goods-8x15 is not listed in
# BENCHMARK.json: with 30 instances a run, its median and tail jump between
# neighbouring instances 30% apart, beyond any bound the benchmark may set.
WORKLOADS = {
    "goods-8x15": (goods_8x15, 1),
    "small-uniform": (small_uniform, 250),
    "correlated": (correlated, 250),
}
