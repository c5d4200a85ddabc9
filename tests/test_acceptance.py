"""Acceptance harness: ten top-level criteria, one pass/fail line each.

Verdict lines are collected by conftest and printed in the terminal
summary after the run.  Criteria 1-4 stash every emitted trace; criterion
10 replays all of them through the step verifier.
"""

import itertools
import random
import sys
import time

from mmsalloc.bounds import (
    n_c_chores,
    n_c_goods,
    required_agents_chores,
    required_agents_goods,
)
from mmsalloc.core import CHORES, GOODS, bundle_value, make_instance, to_ordered
from mmsalloc.domination import dominates
from mmsalloc.matching import BipartiteGraph, envy_free_matching, is_envy_free
from mmsalloc.mms import exhaustive_partition, mms_value
from mmsalloc.reductions import verify_trace
from mmsalloc.solver_chores import solve_chores
from mmsalloc.solver_goods import solve

TRACES = []  # (ordered companion instance, trace) from criteria 1-4


def report(n, ok, extra=""):
    from conftest import REPORT_LINES

    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def certified(inst, out):
    if out.status != "solved":
        return False
    for i in range(1, inst.n + 1):
        if bundle_value(inst, i, out.allocation[i - 1]) < mms_value(inst, i).mu:
            return False
    TRACES.append((out.ordered.instance, out.trace))
    return True


def random_goods(rng, n, m, hi=20):
    return make_instance(
        GOODS, [[rng.randint(0, hi) for _ in range(m)] for _ in range(n)]
    )


def random_chores(rng, n, m, hi=20):
    return make_instance(
        CHORES, [[-rng.randint(0, hi) for _ in range(m)] for _ in range(n)]
    )


def test_criterion_1_small_goods_pipeline():
    rng = random.Random(101)
    start = time.monotonic()
    ok = True
    for _ in range(1000):
        n = rng.choice([3, 4])
        m = rng.randint(n, n + 5)
        inst = random_goods(rng, n, m)
        if not certified(inst, solve(inst)):
            ok = False
            break
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 120, f"1000 instances in {elapsed:.1f}s")


def test_criterion_2_four_agents_ten_goods():
    rng = random.Random(102)
    start = time.monotonic()
    ok = True
    for _ in range(500):
        inst = random_goods(rng, 4, 10)
        if not certified(inst, solve(inst)):
            ok = False
            break
    for _ in range(200):
        n = rng.choice([4, 5, 6])
        inst = random_goods(rng, n, n + 6)
        if ok and not certified(inst, solve(inst)):
            ok = False
            break
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 300, f"700 instances in {elapsed:.1f}s")


def test_criterion_3_eight_agents_fifteen_goods():
    rng = random.Random(103)
    start = time.monotonic()
    ok = True
    for _ in range(100):
        inst = random_goods(rng, 8, 15)
        if not certified(inst, solve(inst)):
            ok = False
            break
    elapsed = time.monotonic() - start
    report(3, ok and elapsed < 900, f"100 instances in {elapsed:.1f}s")


def test_criterion_4_chores_pipeline_and_branches():
    rng = random.Random(104)
    start = time.monotonic()
    ok = True
    for _ in range(500):
        n = rng.choice([3, 4])
        m = rng.randint(n, n + 5)
        inst = random_chores(rng, n, m)
        if not certified(inst, solve_chores(inst)):
            ok = False
            break
    elapsed = time.monotonic() - start

    # engineered instances must go through their intended branch
    singles = make_instance(
        CHORES,
        [
            [-5, -6, -1, -10, -5, -9, -5, -10],
            [-1, -11, -4, -8, -4, -10, -6, -5],
            [-6, -11, -4, -8, -2, -3, -6, -10],
            [-6, -10, -11, -2, -9, -9, -4, -6],
            [-8, 0, -4, -4, -3, -6, -12, -9],
        ],
    )
    out = solve_chores(singles)
    branch_ok = certified(singles, out) and "chores_base:singletons" in out.diagnostic

    pair_other = make_instance(
        CHORES,
        [
            [-9, -8, -9, -11, -9, -4, -8, -8],
            [-5, -6, -6, -9, -4, -8, -9, -9],
            [-3, 0, 0, -5, -1, -9, -10, -11],
        ],
    )
    out = solve_chores(pair_other)
    branch_ok = branch_ok and certified(pair_other, out)
    branch_ok = branch_ok and "chores_base:pair_to_other" in out.diagnostic

    unblockable = make_instance(
        CHORES,
        [
            [-1, -8, -16, -15, -12, -9, -15, -11, -18],
            [-6, -16, -4, -9, -4, -3, -19, -8, -17],
            [-19, -4, -9, -3, -2, -10, -15, -17, -3],
            [-11, -13, -10, -19, -20, -6, -17, -15, -14],
        ],
    )
    out = solve_chores(unblockable)
    branch_ok = branch_ok and certified(unblockable, out)
    branch_ok = branch_ok and any(
        s.rule == "pair_blockable" for s in out.trace.steps
    )

    report(
        4,
        ok and branch_ok and elapsed < 300,
        f"500 instances in {elapsed:.1f}s; engineered branches "
        f"{'hit' if branch_ok else 'missed'}",
    )


def test_criterion_5_oracle_agreement():
    rng = random.Random(105)
    ok = True
    for _ in range(2000):
        kind = rng.choice([GOODS, CHORES])
        n = rng.randint(1, 3)
        m = rng.randint(1, 9)
        sign = -1 if kind == CHORES else 1
        inst = make_instance(
            kind, [[sign * rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
        )
        i = rng.randint(1, n)
        if mms_value(inst, i).mu != exhaustive_partition(inst, i)[0]:
            ok = False
            break
    report(5, ok, "2000 agreements")


def brute_force_injection(b, bp):
    if len(bp) > len(b):
        return False
    for perm in itertools.permutations(sorted(b), len(bp)):
        if all(f <= j for j, f in zip(sorted(bp), perm)):
            return True
    return False


def test_criterion_6_domination():
    rng = random.Random(106)
    ok = True
    checked = 0
    bundles = []
    for _ in range(10000):
        b = frozenset(rng.sample(range(1, 13), rng.randint(0, 5)))
        bp = frozenset(rng.sample(range(1, 13), rng.randint(0, 5)))
        bundles.append(b)
        got = dominates(b, bp) is not None
        # sorted-prefix oracle
        bs, ps = sorted(b), sorted(bp)
        want = len(bs) >= len(ps) and all(x <= y for x, y in zip(bs, ps))
        if got != want:
            ok = False
            break
        if checked < 300:  # full injection search on a subsample
            checked += 1
            if got != brute_force_injection(b, bp):
                ok = False
                break
    # partial-order axioms on samples
    for b in bundles[:200]:
        if dominates(b, b) is None:
            ok = False
    for b, bp in zip(bundles[:400:2], bundles[1:400:2]):
        if dominates(b, bp) is not None and dominates(bp, b) is not None and b != bp:
            ok = False
    for b, bp, bpp in zip(bundles[:600:3], bundles[1:600:3], bundles[2:600:3]):
        if (
            dominates(b, bp) is not None
            and dominates(bp, bpp) is not None
            and dominates(b, bpp) is None
        ):
            ok = False
    hand = dominates(frozenset({3, 7, 8, 11, 14}), frozenset({6, 7, 11, 13}))
    ok = ok and hand == ((6, 3), (7, 7), (11, 8), (13, 11))
    report(6, ok, "10000 pairs + hand-checked witness")


def test_criterion_7_envy_free_matching():
    ok = True
    for x in range(1, 5):
        for y in range(1, 5):
            cells = [(i, j) for i in range(1, x + 1) for j in range(1, y + 1)]
            for mask in range(2 ** len(cells)):
                edges = [c for k, c in enumerate(cells) if mask >> k & 1]
                g = BipartiteGraph.from_edges(x, y, edges)
                efm = envy_free_matching(g)
                if not is_envy_free(g, efm):
                    ok = False
                neighborhood = set().union(*map(set, g.adjacency))
                if len(neighborhood) >= x >= 1 and not efm:
                    ok = False
    rng = random.Random(107)
    for _ in range(10000):
        xs, ys = rng.randint(1, 8), rng.randint(1, 8)
        edges = [
            (i, j)
            for i in range(1, xs + 1)
            for j in range(1, ys + 1)
            if rng.random() < 0.35
        ]
        g = BipartiteGraph.from_edges(xs, ys, edges)
        efm = envy_free_matching(g)
        if not is_envy_free(g, efm):
            ok = False
        neighborhood = set().union(*map(set, g.adjacency))
        if len(neighborhood) >= xs and not efm:
            ok = False
    report(7, ok, "exhaustive to 4x4 plus 10000 random graphs")


def test_criterion_8_ordered_instance_contract():
    rng = random.Random(108)
    ok = True
    for _ in range(500):
        kind = rng.choice([GOODS, CHORES])
        n = rng.randint(1, 3)
        m = rng.randint(1, 8)
        sign = -1 if kind == CHORES else 1
        inst = make_instance(
            kind, [[sign * rng.randint(0, 15) for _ in range(m)] for _ in range(n)]
        )
        ordered = to_ordered(inst)
        for i in range(1, n + 1):
            if (
                exhaustive_partition(inst, i)[0]
                != exhaustive_partition(ordered.instance, i)[0]
            ):
                ok = False
        # lift a random allocation of the companion
        from mmsalloc.core import lift_allocation

        owners = [rng.randrange(n) for _ in range(m)]
        ordered_alloc = tuple(
            frozenset(j + 1 for j, o in enumerate(owners) if o == i)
            for i in range(n)
        )
        lifted = lift_allocation(ordered, ordered_alloc, inst)
        for i in range(1, n + 1):
            if bundle_value(inst, i, lifted[i - 1]) < bundle_value(
                ordered.instance, i, ordered_alloc[i - 1]
            ):
                ok = False
    report(8, ok, "500 order/lift contracts")


def test_criterion_9_bound_consistency():
    ok = True
    for c in range(8, 15):
        if required_agents_goods(c) > n_c_goods(c):
            ok = False
    for c in range(6, 15):
        if required_agents_chores(c) > n_c_chores(c):
            ok = False
    report(9, ok, "exact arithmetic; thresholds are reconstructed formulas")


def test_criterion_10_every_trace_step_verifies():
    ok = True
    steps = 0
    for base, trace in TRACES:
        for _, valid in verify_trace(base, trace):
            steps += 1
            if not valid:
                ok = False
    report(10, ok and bool(TRACES), f"{steps} steps across {len(TRACES)} traces")
