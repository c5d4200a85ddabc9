"""Maximin-share oracles: exact values, witnesses, and helper searches."""

import copy
import functools
import gc
import heapq
import itertools
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmsalloc import (
    CHORES,
    GOODS,
    Instance,
    bundle_value,
    exhaustive_partition,
    find_allocation_meeting,
    make_instance,
    maximin_partition,
    mms_value,
    mu_vector,
    solve,
    solve_chores,
    to_ordered,
    validate_allocation,
)
from mmsalloc import mms, pipeline, solver_chores, solver_goods
from mmsalloc.errors import DanglingReference, TooLarge
from mmsalloc.mms import (
    clear_caches,
    structured_partition_chores,
    structured_partition_goods,
)
from mmsalloc.reductions import trace_to_json, verify_trace


def brute_force_mu(inst, agent):
    """Min-bundle value of the best n-partition, by trying every assignment."""
    best = None
    for owners in itertools.product(range(inst.n), repeat=inst.m):
        bundles = [Fraction(0)] * inst.n
        for j, o in enumerate(owners, start=1):
            bundles[o - 0] += inst.value(agent, j)
        worst = min(bundles)
        if best is None or worst > best:
            best = worst
    return best


def test_known_values_by_hand():
    inst = make_instance(GOODS, [[7, 5, 4, 2], [1, 1, 1, 1]])
    # agent 1: {7,2} vs {5,4} -> mu 9; agent 2: two items each -> 2
    assert mms_value(inst, 1).mu == 9
    assert mms_value(inst, 2).mu == 2
    chores = make_instance(CHORES, [[-7, -5, -4, -2], [-1, -1, -1, -1]])
    assert mms_value(chores, 1).mu == -9
    assert mms_value(chores, 2).mu == -2


def test_single_agent_takes_everything():
    inst = make_instance(GOODS, [[3, 1, 4]])
    assert mms_value(inst, 1).mu == 8
    assert maximin_partition(inst, 1)[1] == (frozenset({1, 2, 3}),)


def test_more_agents_than_items_gives_zero_or_worst_chore():
    goods = make_instance(GOODS, [[5, 2], [5, 2], [5, 2]])
    assert mu_vector(goods) == (0, 0, 0)
    chores = make_instance(CHORES, [[-5, -2], [-5, -2], [-5, -2]])
    # with spare bundles every chore sits alone; the worst one sets the share
    assert mu_vector(chores) == (-5, -5, -5)


def test_witness_actually_achieves_mu():
    rng = random.Random(7)
    for kind in (GOODS, CHORES):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 8)
            sign = -1 if kind == CHORES else 1
            inst = make_instance(
                kind,
                [[sign * rng.randint(0, 12) for _ in range(m)] for _ in range(n)],
            )
            for i in range(1, n + 1):
                rec = mms_value(inst, i)
                witness = maximin_partition(inst, i)[1]
                assert len(witness) == n
                covered = set()
                for b in witness:
                    assert bundle_value(inst, i, b) >= rec.mu
                    covered |= b
                assert covered == set(range(1, m + 1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bnb_matches_exhaustive(data):
    kind = data.draw(st.sampled_from([GOODS, CHORES]))
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 7))
    sign = -1 if kind == CHORES else 1
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 15).map(lambda v: sign * v), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    inst = make_instance(kind, rows)
    for i in range(1, n + 1):
        assert mms_value(inst, i).mu == exhaustive_partition(inst, i)[0]


def test_bnb_matches_brute_force_small():
    rng = random.Random(11)
    for _ in range(15):
        kind = rng.choice([GOODS, CHORES])
        n = rng.randint(2, 3)
        m = rng.randint(2, 6)
        sign = -1 if kind == CHORES else 1
        inst = make_instance(
            kind, [[sign * rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        )
        assert mms_value(inst, 1).mu == brute_force_mu(inst, 1)


def test_oracle_entry_points_reject_bad_arguments():
    """Agent and item ids outside the instance, repeated items and fewer
    than one bundle are refused, not read from the wrong row or item."""
    inst = make_instance(GOODS, [[5, 4, 3], [3, 3, 3]])
    for agent in (0, -1, 3):
        for oracle in (mms_value, exhaustive_partition, maximin_partition):
            with pytest.raises(DanglingReference):
                oracle(inst, agent)
    for items in ([0], [4], [1, 2, 4], [-1, 2]):
        with pytest.raises(DanglingReference):
            maximin_partition(inst, 1, items=items)
    with pytest.raises(ValueError):
        maximin_partition(inst, 1, items=[1, 1, 2])
    for bundles in (0, -1):
        with pytest.raises(ValueError):
            maximin_partition(inst, 1, bundles=bundles)
        with pytest.raises(ValueError):
            mms.row_share((3, 2, 1), bundles, True)
        with pytest.raises(ValueError):
            mms.row_share((-3, -2, -1), bundles, False)
    assert maximin_partition(inst, 2, items=[], bundles=1) == (0, (frozenset(),))
    assert maximin_partition(inst, 1, items=[3, 1], bundles=1) == (8, ({1, 3},))


def test_maximin_partition_subset_and_bundle_count():
    inst = make_instance(GOODS, [[9, 7, 5, 3, 1]])
    value, part = maximin_partition(inst, 1, items=[2, 3, 4, 5], bundles=2)
    assert value == 8
    assert len(part) == 2
    assert frozenset().union(*part) == {2, 3, 4, 5}


def test_find_allocation_meeting_agrees_with_brute_force():
    rng = random.Random(3)
    for _ in range(60):
        kind = rng.choice([GOODS, CHORES])
        n = rng.randint(2, 3)
        m = rng.randint(2, 6)
        sign = -1 if kind == CHORES else 1
        inst = make_instance(
            kind, [[sign * rng.randint(0, 8) for _ in range(m)] for _ in range(n)]
        )
        thresholds = mu_vector(inst)
        found = find_allocation_meeting(inst, thresholds)
        exists = False
        for owners in itertools.product(range(1, n + 1), repeat=m):
            if all(
                sum(
                    (inst.value(i, j) for j in range(1, m + 1) if owners[j - 1] == i),
                    Fraction(0),
                )
                >= thresholds[i - 1]
                for i in range(1, n + 1)
            ):
                exists = True
                break
        assert (found is not None) == exists
        if found is not None:
            for i in range(1, n + 1):
                assert bundle_value(inst, i, found[i - 1]) >= thresholds[i - 1]


def test_threshold_search_stops_at_its_node_budget(monkeypatch):
    """Each call of the search is one node of ``SEARCH_NODES``.  Five unit
    goods meet thresholds (2, 2, 1) at the 10th node, and three rows
    [5, 5, 5, 1] refute (6, 6, 4) after 16: a search that needs more nodes
    than the budget raises TooLarge, and one that refutes within it still
    returns None, a proof."""
    units = make_instance(GOODS, [[1] * 5] * 3)
    fives = make_instance(GOODS, [[5, 5, 5, 1]] * 3)
    monkeypatch.setattr(mms, "SEARCH_NODES", 16)
    assert find_allocation_meeting(units, [2, 2, 1]) is not None
    assert find_allocation_meeting(fives, [6, 6, 4]) is None
    monkeypatch.setattr(mms, "SEARCH_NODES", 15)
    with pytest.raises(TooLarge, match="^threshold search past 15 nodes$"):
        find_allocation_meeting(fives, [6, 6, 4])
    monkeypatch.setattr(mms, "SEARCH_NODES", 9)
    with pytest.raises(TooLarge):
        find_allocation_meeting(units, [2, 2, 1])


def test_threshold_search_deeper_than_the_stack_is_too_large():
    """The search takes one frame per item, so a residual of more items
    than the recursion limit allows raises TooLarge, as a spent budget
    does, not RecursionError: agent 1 takes the first half of these unit
    goods before the others' shares stop her."""
    m = 2 * sys.getrecursionlimit()
    inst = make_instance(GOODS, [[1] * m] * 3)
    with pytest.raises(TooLarge, match="past the stack$"):
        find_allocation_meeting(inst, [m // 4] * 3)


# Capacity 21 is odd, so two bundles holding only 2s never fill it: the
# share decisions' room test misses that, and without a node budget
# ``row_share`` on this row did not return within 150 s (18 twos: 0.4 s).
ODD_CAPACITY_CHORES = [-3] + [-2] * 30
# Rows deeper than the recursion limit: a share decision takes one frame
# per item.
LONG_ROWS = [([3] + [2] * 1500, GOODS), ([-5, -3, -3] + [-2] * 1200, CHORES)]


def test_a_chores_share_decision_stops_at_its_node_budget(monkeypatch):
    """Each chores share decision gets its own budget of ``SEARCH_NODES``
    nodes and raises TooLarge past it, as the threshold search does."""
    monkeypatch.setattr(mms, "SEARCH_NODES", 10**4)
    with pytest.raises(TooLarge, match="^share search past 10000 nodes$"):
        mms.row_share(ODD_CAPACITY_CHORES, 3, False)


def test_a_goods_share_decision_stops_at_its_node_budget(monkeypatch):
    """A goods decision is charged one node per bundle extension
    (``_extend``), so it stops at its budget as a chores one does: this
    row's share, 35, takes more than 100 nodes and fewer than 1000."""
    row = [12] * 5 + [11] * 4 + [10] * 5
    clear_caches()
    monkeypatch.setattr(mms, "SEARCH_NODES", 100)
    with pytest.raises(TooLarge, match="^share search past 100 nodes$"):
        mms.row_share(row, 4, True)
    monkeypatch.setattr(mms, "SEARCH_NODES", 1000)
    assert mms.row_share(row, 4, True) == 35


@pytest.mark.parametrize("row, kind", LONG_ROWS, ids=["goods", "chores"])
def test_a_share_search_deeper_than_the_stack_is_too_large(row, kind):
    reason = f"^share search over {len(row)} items past the stack$"
    with pytest.raises(TooLarge, match=reason):
        mms.row_share(row, 3, kind == GOODS)


@pytest.mark.parametrize(
    "row, kind, reason",
    [
        (ODD_CAPACITY_CHORES, CHORES, "share search past 10000 nodes"),
        (LONG_ROWS[0][0], GOODS, "share search over 1501 items past the stack"),
        (LONG_ROWS[1][0], CHORES, "share search over 1203 items past the stack"),
    ],
    ids=["odd-capacity", "long-goods", "long-chores"],
)
def test_a_share_search_past_its_limit_leaves_the_solve_unresolved(
    monkeypatch, row, kind, reason
):
    """Three copies of each row: the shares of the first residual cannot be
    computed, so the solve is unresolved and says why, and at once."""
    monkeypatch.setattr(mms, "SEARCH_NODES", 10**4)
    inst = make_instance(kind, [row] * 3)
    start = time.monotonic()
    out = (solve if kind == GOODS else solve_chores)(inst)
    assert time.monotonic() - start < 1
    assert out.status == "unresolved"
    assert out.diagnostic == f"{reason}; search budget exceeded"


def test_structured_partition_goods_layout():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = rng.randint(n + 1, n + 5)
        inst = make_instance(
            GOODS, [[rng.randint(0, 12) for _ in range(m)] for _ in range(n)]
        )
        ordered = to_ordered(inst)
        for i in range(1, n + 1):
            mu = mms_value(ordered.instance, i).mu
            part = structured_partition_goods(ordered.instance, i, mu)
            assert len(part) == n
            for b in part:
                assert bundle_value(ordered.instance, i, b) >= mu
            singles = [b for b in part if len(b) == 1]
            # singleton bundles sit on the leading goods
            for b in singles:
                assert min(b) <= len(singles)
    _check_no_more_items_than_agents(GOODS, structured_partition_goods, rng)


def test_structured_partition_chores_layout():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = rng.randint(n + 1, n + 5)
        inst = make_instance(
            CHORES, [[-rng.randint(0, 12) for _ in range(m)] for _ in range(n)]
        )
        ordered = to_ordered(inst)
        for i in range(1, n + 1):
            mu = mms_value(ordered.instance, i).mu
            part = structured_partition_chores(ordered.instance, i, mu)
            assert len(part) == n
            for b in part:
                assert bundle_value(ordered.instance, i, b) >= mu
            singles = sorted(min(b) for b in part if len(b) == 1)
            # singletons are carried by the worst chores, in order
            assert singles == list(range(1, len(singles) + 1))
    _check_no_more_items_than_agents(CHORES, structured_partition_chores, rng)


def _check_no_more_items_than_agents(kind, structured, rng):
    # With m <= n every item is a singleton and the n - m bundles left over
    # are empty; at m = n no bundle is left for the items after the
    # singletons, the one shape that asks for a partition into zero bundles.
    sign = -1 if kind == CHORES else 1
    for m in (3, 2):
        rows = [[sign * rng.randint(1, 12) for _ in range(m)] for _ in range(3)]
        inst = to_ordered(make_instance(kind, rows)).instance
        for i in range(1, 4):
            part = structured(inst, i, mms_value(inst, i).mu)
            singles = tuple(frozenset({j}) for j in range(1, m + 1))
            assert part == singles + (frozenset(),) * (3 - m)


def _best_singletons(row, mu, items, k):
    """The most size-1 bundles in a split of the positions `items` (a
    bitmask) of `row` into k bundles, empty ones allowed, each worth mu or
    more; None when there is no such split.  Exhaustive: every bundle that
    can hold the first remaining item is tried."""

    @functools.lru_cache(maxsize=None)
    def best(mask, k):
        if k == 0:
            return 0 if mask == 0 else None
        if mask == 0:
            return 0 if mu <= 0 else None
        low = mask & -mask
        found = None
        rest = mask ^ low
        sub = rest
        while True:
            bundle = sub | low
            worth = sum(row[t] for t in range(len(row)) if bundle >> t & 1)
            if worth >= mu:
                more = best(mask ^ bundle, k - 1)
                if more is not None:
                    more += bundle == low
                    found = more if found is None else max(found, more)
            if sub == 0:
                return found
            sub = (sub - 1) & rest

    return best(items, k)


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_structured_witness_keeps_the_most_singletons(kind):
    """On every small shape, the structured witness's leading singletons
    {1}..{t} form the longest prefix after which the other items split into
    n - t bundles each worth mu, and no split that meets mu has more
    singletons (both by exhaustive search)."""
    structured = structured_partition_goods if kind == GOODS else structured_partition_chores
    rng = random.Random(29)
    checked = 0
    for n in range(1, 5):
        for m in range(0, 9):
            for _ in range(12):
                hi = rng.choice([3, 12])
                inst = to_ordered(make_instance(kind, _random_rows(rng, kind, n, m, hi))).instance
                for i in range(1, n + 1):
                    row = inst.row(i)
                    mu = mms_value(inst, i).mu
                    part = structured(inst, i, mu)
                    assert len(part) == n
                    assert sorted(j for b in part for j in b) == list(range(1, m + 1))
                    assert all(bundle_value(inst, i, b) >= mu for b in part)
                    t = 0
                    while t < n and part[t] == frozenset({t + 1}):
                        t += 1
                    for longer in range(t + 1, min(n, m) + 1):
                        rest = ((1 << m) - 1) >> longer << longer
                        assert not (
                            all(row[j] >= mu for j in range(longer))
                            and _best_singletons(row, mu, rest, n - longer) is not None
                        ), (row, n, mu, part, longer)
                    singles = sum(1 for b in part if len(b) == 1)
                    assert singles == _best_singletons(row, mu, (1 << m) - 1, n)
                    checked += 1
    assert checked > 1000


def _random_rows(rng, kind, n, m, hi=20):
    sign = -1 if kind == CHORES else 1
    return [[sign * rng.randint(0, hi) for _ in range(m)] for _ in range(n)]


def _solve(inst):
    return (solve if inst.kind == GOODS else solve_chores)(inst)


def _outcome(out):
    trace = None if out.trace is None else trace_to_json(out.trace)
    return out.status, out.allocation, trace, out.diagnostic


def test_integer_instances_get_integer_shares():
    inst = make_instance(GOODS, [[7, 5, 4, 2], [1, 1, 1, 1]])
    assert [type(mms_value(inst, i).mu) for i in (1, 2)] == [int, int]
    chores = make_instance(CHORES, [[-7, -5, -4, -2]] * 2)
    assert type(mms_value(chores, 1).mu) is int
    halves = make_instance(GOODS, [[Fraction(1, 2), Fraction(3, 2), 1]])
    assert type(mms_value(halves, 1).mu) is int
    thirds = make_instance(GOODS, [[Fraction(1, 3), 1], [1, 1]])
    assert mms_value(thirds, 1).mu == Fraction(1, 3)


def test_thresholds_of_any_exact_type_are_accepted():
    inst = make_instance(GOODS, [[3, 2, 1], [3, 2, 1]])
    for thresholds in ([3, 3], ["3", "5/2"], [3.0, 2.5], [Decimal("3"), Decimal("2.5")]):
        assert find_allocation_meeting(inst, thresholds) is not None
    assert find_allocation_meeting(inst, [Fraction(7, 2), 3]) is None


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_rational_twin_solves_alike(kind):
    """Dividing each agent's row by a constant of her own changes no
    comparison the solver makes, only the scale of her share."""
    rng = random.Random(29 if kind == GOODS else 31)
    for _ in range(150):
        n = rng.randint(3, 4)
        rows = _random_rows(rng, kind, n, rng.randint(n, n + 5))
        divisors = [rng.choice([1, 2, 3, 6, 7]) for _ in range(n)]
        inst = make_instance(kind, rows)
        twin = make_instance(
            kind, [[Fraction(v, d) for v in row] for row, d in zip(rows, divisors)]
        )
        assert _outcome(_solve(twin)) == _outcome(_solve(inst))
        for i, d in enumerate(divisors, start=1):
            assert mms_value(twin, i).mu == Fraction(mms_value(inst, i).mu, d)


def test_shares_are_cached_by_sorted_row():
    rng = random.Random(17)
    for kind in (GOODS, CHORES):
        for _ in range(20):
            inst = make_instance(kind, _random_rows(rng, kind, 4, rng.randint(5, 9)))
            clear_caches()
            _solve(inst)
            size = len(mms._bnb_cache)
            for i in range(1, inst.n + 1):
                mms_value(inst, i)
            # the same rows with their items relabeled
            perm = list(range(inst.m))
            rng.shuffle(perm)
            relabeled = make_instance(
                kind, [[row[j] for j in perm] for row in inst.valuations]
            )
            for i in range(1, inst.n + 1):
                mms_value(relabeled, i)
            assert len(mms._bnb_cache) == size


def test_share_cache_is_bounded(monkeypatch):
    rng = random.Random(23)
    instances = [
        make_instance(kind, _random_rows(rng, kind, 4, rng.randint(6, 9)))
        for kind in (GOODS, CHORES) * 4
    ]
    cold = []
    for inst in instances:
        clear_caches()
        cold.append(_outcome(_solve(inst)))
    cache = mms._bnb_cache
    monkeypatch.setattr(mms, "_BNB_CACHE_LIMIT", 5)
    clear_caches()
    for inst, expected in zip(instances, cold):
        assert _outcome(_solve(inst)) == expected
        assert len(mms._bnb_cache) <= 5
    assert mms._bnb_cache is cache


def _seconds(calls) -> float:
    """Time of `calls()`, with no cycle collection to add its own cost."""
    gc.disable()
    try:
        start = time.perf_counter()
        calls()
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_a_full_share_cache_misses_as_fast_as_one_below_its_limit(monkeypatch):
    """Past its limit the cache drops its oldest quarter in one pass.
    Evicting one entry per miss walked every slot freed before it, so a
    miss cost several times as much once the cache was full."""
    monkeypatch.setattr(mms, "_share", lambda vals, n, goods: 0)
    limit = mms._BNB_CACHE_LIMIT
    calls = 20_000

    def misses(start, count=calls):
        for k in range(start, start + count):
            mms._entry(((k,), 2, True), None)

    below, past = [], []
    for _ in range(3):
        monkeypatch.setattr(mms, "_BNB_CACHE_LIMIT", calls)
        clear_caches()
        below.append(_seconds(lambda: misses(0)))
        monkeypatch.setattr(mms, "_BNB_CACHE_LIMIT", limit)
        clear_caches()
        misses(-limit, limit)
        assert len(mms._bnb_cache) == limit
        past.append(_seconds(lambda: misses(0)))
        assert len(mms._bnb_cache) <= limit
    clear_caches()
    assert min(past) < 3 * min(below)


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_witness_of_an_unsorted_row_takes_equal_values_in_id_order(kind):
    sign = 1 if kind == GOODS else -1
    inst = make_instance(kind, [[sign * v for v in (3, 5, 2, 5, 3, 2, 5)]])
    value, parts = maximin_partition(inst, 1, bundles=3)
    assert value == (8 if kind == GOODS else -9)
    assert parts == (frozenset({1, 2}), frozenset({4, 5}), frozenset({3, 6, 7}))


def _regime(n, m):
    if m < n:
        return "m < n"
    if m == n:
        return "m = n"
    return "n < m < 2n" if m < 2 * n else "m >= 2n"


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_bnb_share_is_exact_within_its_bound_with_a_witness(kind):
    """Every shape up to 5 agents and 10 items.  The exhaustive oracle
    checks agent 1 wherever it enumerates at most 10^5 assignments."""
    rng = random.Random(37 if kind == GOODS else 41)
    goods = kind == GOODS
    checked = set()
    for n in range(1, 6):
        for m in range(11):
            for _ in range(2):
                inst = make_instance(
                    kind, _random_rows(rng, kind, n, m, rng.choice([3, 20]))
                )
                for i in range(1, n + 1):
                    rec = mms_value(inst, i)
                    vals = sorted((abs(v) for v in inst.row(i)), reverse=True)
                    bound = mms._share_bound(vals, n, goods)
                    assert (rec.mu <= bound) if goods else (-rec.mu >= bound)
                    witness = maximin_partition(inst, i)[1]
                    assert len(witness) == n
                    assert sorted(j for b in witness for j in b) == list(
                        range(1, m + 1)
                    )
                    for b in witness:
                        assert bundle_value(inst, i, b) >= rec.mu
                if n**m <= 10**5:
                    assert mms_value(inst, 1).mu == exhaustive_partition(inst, 1)[0]
                    checked.add(_regime(n, m))
    assert checked == {"m < n", "m = n", "n < m < 2n", "m >= 2n"}


def test_witness_is_built_on_first_use(monkeypatch):
    rng = random.Random(43)
    instances = [
        make_instance(kind, _random_rows(rng, kind, 4, 9)) for kind in (GOODS, CHORES)
    ]
    outcomes = [_solve(inst) for inst in instances]

    def refuse(*args, **kwargs):
        raise AssertionError("a share query built a witness")

    monkeypatch.setattr(mms, "maximin_partition", refuse)
    clear_caches()
    for inst, out in zip(instances, outcomes):
        mu = mu_vector(inst)
        assert tuple(mms_value(inst, i).mu for i in range(1, inst.n + 1)) == mu
        assert out.trace.steps
        assert all(ok for _, ok in verify_trace(out.ordered.instance, out.trace))


def test_oracle_work_solving_the_criterion_3_head(monkeypatch):
    """Share queries and share searches (cache misses) while the
    first four criterion-3 instances (8 x 15, seed 103) are solved from a
    cold cache.  A change that adds oracle work fails here.  Every share
    query (``mms_value``, ``mu_vector`` and the structured searches) goes
    through ``mms.row_share``, so that is where queries are counted."""
    calls = 0
    original = mms.row_share

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(mms, "row_share", counting)
    rng = random.Random(103)
    clear_caches()
    for _ in range(4):
        inst = make_instance(
            GOODS, [[rng.randint(0, 20) for _ in range(15)] for _ in range(8)]
        )
        assert _solve(inst).status == "solved"
    assert calls <= 168
    # Nothing was evicted, so every cache entry is one miss.
    assert len(mms._bnb_cache) <= 136


def _mixed_pool(kind, seed):
    """200 instances of 3 to 5 agents and n to n + 5 items valued
    0..20, uniform rows alternating with near-identical ones (one base row
    plus noise in [-1, 1])."""
    rng = random.Random(seed)
    sign = 1 if kind == GOODS else -1
    pool = []
    for k in range(200):
        n = rng.randint(3, 5)
        m = rng.randint(n, n + 5)
        base = [rng.randint(0, 20) for _ in range(m)]
        rows = [
            [max(0, v + rng.randint(-1, 1)) for v in base]
            if k % 2
            else [rng.randint(0, 20) for _ in range(m)]
            for _ in range(n)
        ]
        pool.append(make_instance(kind, [[sign * v for v in row] for row in rows]))
    return pool


def test_the_share_cache_holds_each_row_share_and_nothing_else(monkeypatch):
    """Seeded goods and chores pools, solved from a cold cache, reach every
    solve-time witness read: the two-agent base, the chores structured
    witnesses and the 2n + 2 pivot scan.  They leave each row's share in
    the cache and nothing else.  A witness is computed on each request:
    asking for one after the share of the same row adds no entry and
    changes none."""
    reached = {}
    for module, name in (
        (pipeline, "base_identical_partitions"),
        (solver_chores, "structured_partition_chores"),
        (solver_goods, "reduce_2n2"),
    ):
        reached[name] = 0

        def spy(*args, _original=getattr(module, name), _name=name):
            reached[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, spy)
    pools = _mixed_pool(GOODS, 31) + _mixed_pool(CHORES, 31)
    clear_caches()
    for inst in pools:
        assert _solve(inst).status == "solved"
    assert all(reached.values()), reached
    cache = mms._bnb_cache
    assert cache and [v for v in cache.values() if type(v) is not int] == []
    assert all(share == mms._share(*key) for key, share in cache.items())
    for inst in pools:
        goods = inst.kind == GOODS
        for i, row in enumerate(inst.valuations, start=1):
            mms.row_share(row, inst.n, goods)
            key = (tuple(sorted((abs(v) for v in row), reverse=True)), inst.n, goods)
            size, entry = len(cache), copy.deepcopy(cache[key])
            maximin_partition(inst, i)
            assert len(cache) == size and cache[key] == entry


def _greedy(vals, n, goods):
    """The value of the greedy (longest processing time) partition."""
    loads = [0] * n
    for v in vals:
        heapq.heapreplace(loads, loads[0] + v)
    return loads[0] if goods else max(loads)


def _split_meets(split, vals, n, target, goods):
    """Is `split` a split of the values `vals` into n bundles, each worth
    `target` or more (goods) or at most `target` (chores)?"""
    return (
        len(split) == n
        and sorted(v for bundle in split for v in bundle) == sorted(vals)
        and all((sum(b) >= target) if goods else (sum(b) <= target) for b in split)
    )


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_witness_search_leaves_no_reference_cycle(kind):
    """A witness search that branches leaves nothing for the cycle
    collector: its recursions are module-level functions, not closures.
    The greedy partition misses these shares, so the witness comes from a
    decision at the share (`_complete`/`_extend` for goods, `_pack` for
    chores)."""
    sign = 1 if kind == GOODS else -1
    row = (9, 9, 8, 8, 6, 6, 6, 5, 2) if kind == GOODS else (8, 8, 7, 5, 5, 5, 3, 3, 1)
    assert _greedy(row, 3, kind == GOODS) != mms._share(row, 3, kind == GOODS)
    inst = make_instance(kind, [[sign * v for v in row]] * 3)
    clear_caches()
    gc.collect()
    gc.disable()
    try:
        maximin_partition(inst, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "kind, expected",
    [
        (GOODS, (10, (frozenset({1, 7}), frozenset({2, 4}), frozenset({3, 5, 6})))),
        (CHORES, (-11, (frozenset({1, 6}), frozenset({2, 4}), frozenset({3, 5, 7})))),
    ],
)
def test_reference_enumeration_leaves_no_reference_cycle(kind, expected):
    """The reference enumeration leaves nothing for the cycle collector: its
    recursion is a module-level function, not a closure.  Of equally good
    assignments it keeps the first it meets."""
    sign = 1 if kind == GOODS else -1
    inst = make_instance(kind, [[sign * v for v in (9, 7, 5, 4, 3, 2, 1)]] * 3)
    gc.collect()
    gc.disable()
    try:
        assert exhaustive_partition(inst, 1) == expected
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_threshold_search_leaves_no_reference_cycle(kind):
    """The threshold search, met and refuted, leaves nothing for the cycle
    collector: its recursion is a module-level function, not a closure."""
    sign = 1 if kind == GOODS else -1
    inst = make_instance(kind, [[sign * v for v in (9, 7, 7, 5, 4, 4, 3, 2, 1)]] * 3)
    shares = mu_vector(inst)
    gc.collect()
    gc.disable()
    try:
        assert find_allocation_meeting(inst, shares) is not None
        assert find_allocation_meeting(inst, [s + 1 for s in shares]) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_decision_search_at_tight_targets(monkeypatch):
    """Targets met with nothing to spare: peeled goods with a tight rest,
    two bundles splitting the total exactly, two goods a bundle, bin
    completion with no slack, and chores filling their bundles exactly.  A
    met target returns a split that meets it, a refuted one None."""

    def reaches(vals, n, target):
        split = mms._reaches(vals, n, target, [10**4])
        assert split is None or _split_meets(split, vals, n, target, True)
        return split is not None

    def packs(vals, n, capacity):
        split = mms._pack(vals, mms._suffix_sums(vals), [0] * n, capacity, 0, [10**4])
        if split is not None:
            bundles = [[v for v, b in zip(vals, split) if b == j] for j in range(n)]
            assert _split_meets(bundles, vals, n, capacity, False)
        return split is not None

    assert reaches((9, 8, 3, 2, 2), 3, 7)
    assert not reaches((9, 8, 3, 2, 2), 3, 8)
    assert packs((5, 4, 3, 2), 2, 7)
    assert not packs((5, 4, 3, 2), 2, 6)
    assert packs((6, 5, 4, 3, 3, 3), 2, 12)
    assert not packs((6, 5, 4, 3, 3, 3), 2, 11)
    # Two bundles left, some after a peel, also at total = 2T.
    assert reaches((5, 4, 3, 2), 2, 7)
    assert not reaches((5, 4, 3, 2), 2, 8)
    assert reaches((10, 6, 5, 4, 3), 3, 9)
    assert not reaches((10, 6, 5, 4, 3), 3, 10)
    assert reaches((6, 5, 4, 3, 3, 3), 2, 12)
    assert not reaches((6, 5, 4, 3, 3, 3), 2, 13)
    assert reaches((7, 5, 4, 3, 1), 2, 10)
    assert not reaches((7, 7, 7, 2, 1), 2, 12)
    # The two-bundle share needs no decision at all, for either kind.
    monkeypatch.setattr(mms, "_reaches", None)
    monkeypatch.setattr(mms, "_pack", None)
    assert mms._share((7, 7, 7, 2, 1), 2, True) == 10
    assert mms._share((7, 7, 7, 2, 1), 2, False) == 14
    monkeypatch.undo()
    # Three or more bundles: exactly two goods a bundle, equal goods, zero
    # goods and slack 0.  Each decision enters `_complete` first with (open
    # bundles, target, slack), then its node budget.
    calls = []
    complete = mms._complete
    monkeypatch.setattr(
        mms, "_complete", lambda *args: calls.append(args[1:4]) or complete(*args)
    )
    for vals, n, target, met, entry in [
        ((9, 8, 8, 3, 2, 1), 3, 10, True, (3, 10, 1)),
        ((9, 8, 8, 3, 1, 1, 0), 3, 10, False, (3, 10, 0)),
        ((6, 6, 6, 6, 1, 1, 1, 0, 0), 3, 7, True, (3, 7, 6)),
        ((6, 6, 6, 6, 1, 1, 1, 0, 0), 3, 8, False, (3, 8, 3)),
        ((5, 5, 4, 4, 3, 2, 1, 0), 3, 8, True, (3, 8, 0)),
        ((6, 6, 6, 6, 1, 1, 1), 3, 9, False, (3, 9, 0)),
        ((9, 6, 6, 6, 6, 1, 1, 1, 0), 4, 9, False, (3, 9, 0)),
    ]:
        calls.clear()
        assert reaches(vals, n, target) is met
        assert calls[0] == entry


def _reference_share(vals, n, goods):
    """The share search before subset-sum targets and bin completion:
    targets from `_share_bound` toward the greedy value, one at a time,
    goods decided item by item (`_reference_fill`), chores by `_pack`."""
    m = len(vals)
    if n == 1:
        return sum(vals)
    if goods:
        if m <= n:
            return vals[-1] if m == n else 0
    elif m <= n:
        return vals[0] if m else 0
    loads = [0] * n
    for v in vals:
        heapq.heapreplace(loads, loads[0] + v)
    greedy = loads[0] if goods else max(loads)
    target = mms._share_bound(vals, n, goods)
    suffix = mms._suffix_sums(vals)
    if goods:
        while target > greedy and not _reference_reaches(vals, suffix, n, target):
            target -= 1
    else:
        while target < greedy and not _reference_pack(vals, suffix, [0] * n, target, 0):
            target += 1
    return target


def _reference_reaches(vals, suffix, n, target):
    m = len(vals)
    k = 0
    while k < m and vals[k] >= target:
        k += 1
    n -= k
    if n <= 0:
        return True
    if m - k < 2 * n:
        return False
    if m - k == 2 * n:
        return all(vals[k + t] + vals[m - 1 - t] >= target for t in range(n))
    return _reference_fill(vals, suffix, [0] * n, target, k, n * target)


def _reference_fill(vals, suffix, loads, target, t, deficit):
    if deficit == 0:
        return True
    if suffix[t] < deficit:
        return False
    v = vals[t]
    seen = set()
    for j, load in enumerate(loads):
        if load >= target or load in seen:
            continue
        seen.add(load)
        loads[j] = load + v
        lack = deficit - min(v, target - load)
        found = _reference_fill(vals, suffix, loads, target, t + 1, lack)
        loads[j] = load
        if found:
            return True
    return False


def _reference_pack(vals, suffix, loads, capacity, t):
    if t == len(vals):
        return True
    smallest = vals[-1]
    room = 0
    for load in loads:
        if capacity - load >= smallest:
            room += capacity - load
    if suffix[t] > room:
        return False
    v = vals[t]
    seen = set()
    for j, load in enumerate(loads):
        if load + v > capacity or load in seen:
            continue
        seen.add(load)
        loads[j] = load + v
        found = _reference_pack(vals, suffix, loads, capacity, t + 1)
        loads[j] = load
        if found:
            return True
    return False


_ROWS = st.one_of(
    st.lists(st.integers(0, 30), max_size=12),
    # few distinct values: duplicates and zeros throughout
    st.lists(st.sampled_from([0, 1, 2, 5, 30]), max_size=12),
)


@settings(max_examples=500, deadline=None)
@given(st.booleans(), st.integers(1, 7), _ROWS)
def test_share_matches_the_previous_search(goods, bundles, row):
    """Subset-sum targets, the two-bundle closed form and bin completion
    give the share the item-by-item search gave, and the exhaustive oracle
    agrees wherever it enumerates at most 10^5 assignments."""
    vals = tuple(sorted(row, reverse=True))
    share = mms._share(vals, bundles, goods)
    assert share == _reference_share(vals, bundles, goods)
    if bundles ** len(vals) <= 10**5:
        sign = 1 if goods else -1
        inst = make_instance(
            GOODS if goods else CHORES, [[sign * v for v in row]] * bundles
        )
        assert exhaustive_partition(inst, 1, 10**5)[0] == sign * share


@settings(max_examples=400, deadline=None)
@given(
    st.booleans(),
    st.integers(1, 7),
    _ROWS,
    st.lists(st.integers(0, 30), max_size=3),
    st.booleans(),
    st.randoms(use_true_random=False),
)
# The greedy partition misses both shares, so each witness comes from a
# decision at the share; the goods one peels the three goods worth 8.
@example(True, 6, [1, 2, 2, 3, 4, 5, 7, 8, 8, 8], [], False, random.Random(0))
@example(False, 3, [8, 8, 7, 5, 5, 5, 3, 3, 1], [4], True, random.Random(1))
def test_witness_is_a_partition_whose_worst_bundle_is_the_share(
    goods, bundles, row, others, bitset, rng
):
    """`maximin_partition` over the items of `row`, placed among other items
    at random ids, returns a partition of exactly those items into
    `bundles` bundles whose worst bundle is the share; with or without the
    subset-sum bitset, and equal to the exhaustive oracle's share wherever
    it enumerates at most 10^5 assignments."""
    sign = 1 if goods else -1
    kind = GOODS if goods else CHORES
    full = row + others
    ids = list(range(1, len(full) + 1))
    rng.shuffle(ids)
    values = [0] * len(full)
    for j, v in zip(ids, full):
        values[j - 1] = sign * v
    items = ids[: len(row)]
    inst = make_instance(kind, [values])
    limit = mms._SUBSET_SUM_LIMIT if bitset else -1
    clear_caches()
    with patch.object(mms, "_SUBSET_SUM_LIMIT", limit):
        value, parts = maximin_partition(inst, 1, items=items, bundles=bundles)
    clear_caches()
    assert len(parts) == bundles
    assert sorted(j for b in parts for j in b) == sorted(items)
    assert min(bundle_value(inst, 1, b) for b in parts) == value
    assert value == sign * mms._share(tuple(sorted(row, reverse=True)), bundles, goods)
    if bundles ** len(row) <= 10**5:
        alone = make_instance(kind, [[sign * v for v in row]] * bundles)
        assert exhaustive_partition(alone, 1, 10**5)[0] == value


def test_share_without_the_subset_sum_bitset(monkeypatch):
    """Rows past the bitset's limit bisect their targets and search two
    bundles; the shares are the same."""
    rng = random.Random(61)
    rows = []
    for goods in (True, False):
        for _ in range(150):
            row = [rng.randint(0, 30) for _ in range(rng.randint(3, 11))]
            rows.append((goods, rng.randint(2, 6), row))
    expected = [mms._share(tuple(sorted(r, reverse=True)), n, g) for g, n, r in rows]
    monkeypatch.setattr(mms, "_SUBSET_SUM_LIMIT", -1)
    for (goods, n, row), share in zip(rows, expected):
        vals = tuple(sorted(row, reverse=True))
        assert mms._share(vals, n, goods) == share == _reference_share(vals, n, goods)


def _seeded_goods(seed, n, m):
    rng = random.Random(seed)
    return make_instance(
        GOODS, [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
    )


def test_many_agents_few_spare_goods_solve_quickly():
    """30 agents and 33 goods: refuting `_share_bound` over 30 bundles kept
    the maximin search running for minutes."""
    inst = _seeded_goods(1, 30, 33)
    clear_caches()
    start = time.monotonic()
    out = solve(inst)
    assert time.monotonic() - start < 10
    assert out.status == "solved"
    validate_allocation(inst, out.allocation)
    for i in range(1, inst.n + 1):
        assert bundle_value(inst, i, out.allocation[i - 1]) >= mms_value(inst, i).mu


def _assert_solved_and_certified(inst, out):
    assert out.status == "solved", out.diagnostic
    validate_allocation(inst, out.allocation)
    shares = mu_vector(inst)
    for i in range(1, inst.n + 1):
        assert bundle_value(inst, i, out.allocation[i - 1]) >= shares[i - 1]
    assert all(ok for _, ok in verify_trace(to_ordered(inst).instance, out.trace))


def _goods_3x300():
    rng = random.Random(1)
    return make_instance(
        GOODS, [[rng.randint(1, 3) for _ in range(300)] for _ in range(3)]
    )


@pytest.mark.parametrize(
    "build",
    [_goods_3x300, lambda: make_instance(GOODS, [[1] * 900] * 3)],
    ids=["3x300-values-1-to-3", "3x900-unit-goods"],
)
def test_a_goods_residual_no_step_shrinks_is_searched_quickly(build):
    """No step shrinks these, so the fallback search settles them.  Its
    goods pruning tested each agent alone and never the agents' total need
    against what the goods left can add: both searches came back
    unresolved past their node budget, after about 9 s each."""
    inst = build()
    clear_caches()
    start = time.monotonic()
    out = solve(inst)
    assert time.monotonic() - start < 1
    assert out.diagnostic.endswith("fallback:threshold-search")
    _assert_solved_and_certified(inst, out)


PEELED_ROWS = [
    ((20, 19, 16, 15, 15, 14, 12, 11, 11, 8, 8, 4, 0), True),
    ((20, 15, 15, 14, 13, 13, 11, 9, 8, 7, 7, 7, 0), False),
]


def test_the_peel_leaves_the_share_search_only_the_tail(monkeypatch):
    """200 agents and 207 goods: the peel leaves each share search 14
    goods in 7 bundles, and the solve takes about 0.7 s (1.2 s searching
    whole rows).  Ten bundles of thirteen items hold seven singletons: the
    share's bound and decision search see only the six smallest items."""
    inst = _seeded_goods(1, 200, 207)
    clear_caches()
    start = time.monotonic()
    out = solve(inst)
    assert time.monotonic() - start < 2
    _assert_solved_and_certified(inst, out)
    expected = [_reference_share(vals, 10, goods) for vals, goods in PEELED_ROWS]
    seen = []
    for name in ("_share_bound", "_meets"):
        def recorded(row, *args, _original=getattr(mms, name)):
            seen.append(len(row))
            return _original(row, *args)

        monkeypatch.setattr(mms, name, recorded)
    for (vals, goods), share in zip(PEELED_ROWS, expected):
        seen.clear()
        assert mms._share(vals, 10, goods) == share
        assert len(seen) >= 2 and set(seen) == {6}


def test_shares_of_twenty_agents_thirty_goods():
    """Agents 2 and 20 have a share one below `_share_bound`; refuting the
    bound took the maximin search seconds each."""
    inst = _seeded_goods(1, 20, 30)
    clear_caches()
    start = time.monotonic()
    assert mu_vector(inst) == (
        8, 13, 15, 15, 16, 9, 13, 10, 12, 12, 12, 9, 11, 12, 8, 13, 11, 16, 14, 12,
    )
    assert time.monotonic() - start < 10


def test_shares_of_ten_agents_twenty_goods():
    """Ten bundles of twenty goods leave up to ten open bundles after the
    peel.  The item-by-item decision search took about 0.45 s over these
    five instances, bin completion about 0.002 s."""
    clear_caches()
    start = time.monotonic()
    assert [mu_vector(_seeded_goods(seed, 10, 20)) for seed in range(1, 6)] == [
        (18, 16, 20, 19, 19, 19, 19, 14, 16, 16),
        (20, 15, 23, 24, 20, 14, 8, 19, 20, 12),
        (20, 19, 20, 20, 16, 18, 21, 20, 20, 18),
        (15, 18, 18, 21, 19, 15, 18, 15, 20, 18),
        (20, 11, 17, 15, 19, 18, 20, 16, 20, 19),
    ]
    assert time.monotonic() - start < 0.1


@pytest.mark.parametrize("goods", [True, False], ids=["goods", "chores"])
def test_shares_of_rows_past_the_bitset_limit(monkeypatch, goods):
    """Rows whose values sum past `_SUBSET_SUM_LIMIT` get no subset-sum
    bitset, and their targets are bisected between the greedy value and the
    bound.  Stepping one integer at a time took about 10^7 decisions on the
    first row (from the greedy value) and 45 s on the second (from the
    bound)."""
    decisions = 0
    meets = mms._meets

    def counting(*args):
        nonlocal decisions
        decisions += 1
        return meets(*args)

    monkeypatch.setattr(mms, "_meets", counting)
    rows = [
        (tuple(v * 10**7 for v in (5, 5, 4, 3, 3)), 2, 10**8, 10**8),
        (
            (85774273, 85209555, 63935045, 53302500, 31128044, 20350410, 20215394),
            3,
            116902317,
            125775359,
        ),
    ]
    start = time.monotonic()
    for vals, n, goods_share, chores_share in rows:
        assert sum(vals) > mms._SUBSET_SUM_LIMIT
        decisions = 0
        assert mms._share(vals, n, goods) == (goods_share if goods else chores_share)
        assert decisions <= 27  # 2^27 > 10^8 > any gap between greedy and bound
    assert time.monotonic() - start < 1


def test_shares_agree_with_a_mixed_integer_program():
    """The first criterion-3 instances (8 x 15, seed 103): the witness meets
    the share exactly, and the MILP optimum of max z s.t. every bundle is
    worth z or more, rounded down, equals the share."""
    optimize = pytest.importorskip("scipy.optimize")
    np = pytest.importorskip("numpy")
    rng = random.Random(103)
    n, m = 8, 15
    for _ in range(2):
        inst = make_instance(
            GOODS, [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
        )
        for i in range(1, n + 1):
            rec = mms_value(inst, i)
            witness = maximin_partition(inst, i)[1]
            assert sorted(j for b in witness for j in b) == list(range(1, m + 1))
            assert min(bundle_value(inst, i, b) for b in witness) == rec.mu
            # variables: x[j, b] (item j in bundle b) in item-major order, then z
            row = inst.row(i)
            size = m * n + 1
            cost = np.zeros(size)
            cost[-1] = -1
            cover = np.zeros((m, size))
            reach = np.zeros((n, size))
            for j in range(m):
                cover[j, j * n : (j + 1) * n] = 1
                for b in range(n):
                    reach[b, j * n + b] = float(row[j])
            reach[:, -1] = -1
            integrality = np.ones(size)
            integrality[-1] = 0
            upper = np.ones(size)
            upper[-1] = np.inf
            result = optimize.milp(
                cost,
                constraints=[
                    optimize.LinearConstraint(cover, 1, 1),
                    optimize.LinearConstraint(reach, 0, np.inf),
                ],
                integrality=integrality,
                bounds=optimize.Bounds(np.zeros(size), upper),
            )
            assert result.success
            assert int(-result.fun + 1e-6) == rec.mu


def test_share_vector_equals_the_records():
    rng = random.Random(59)
    half = Fraction(1, 2)
    halves = make_instance(GOODS, [[half, 1, 2], [half, half, 1]])
    instances = [halves]
    for kind in (GOODS, CHORES):
        for denominator in (1, 2, 3):
            for _ in range(15):
                n, m = rng.randint(1, 4), rng.randint(0, 8)
                rows = [
                    [Fraction(v, denominator) for v in row]
                    for row in _random_rows(rng, kind, n, m, hi=9)
                ]
                instances.append(make_instance(kind, rows))
    for inst in instances:
        clear_caches()
        mu = mu_vector(inst)
        clear_caches()
        records = tuple(mms_value(inst, i).mu for i in range(1, inst.n + 1))
        assert mu == records
        # exact types: an int when integral, otherwise a Fraction
        assert [type(v) for v in mu] == [
            int if v.denominator == 1 else Fraction for v in records
        ]
    assert [type(v) for v in mu_vector(halves)] == [Fraction, int]


@pytest.mark.parametrize("kind", [GOODS, CHORES])
@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_share_table_is_probed_before_the_number_type(kind, order):
    """``row_share`` probes the table with the sorted row as it stands.  A
    row of integral Fractions equals the int row's key and gets its int
    share; a row holding a non-integral Fraction equals no key, so it is
    scaled to ints first and gets the scaled share back.  Both hold
    whichever row fills the table first.  The rows sit in an Instance built
    directly, since ``make_instance`` turns integral Fractions into ints."""
    sign = 1 if kind == GOODS else -1
    ints = [sign * v for v in (9, 5, 4, 3, 3, 2, 1)]  # odd shares: 9 and -9
    rows = (
        tuple(ints),
        tuple(Fraction(v) for v in ints),
        tuple(Fraction(v, 2) for v in ints),
    )
    inst = Instance(kind=kind, valuations=rows)
    share = exhaustive_partition(make_instance(kind, [ints] * 3), 1)[0]
    expected = (share, share, Fraction(share, 2))
    clear_caches()
    got = {i: mms.row_share(rows[i], 3, kind == GOODS) for i in order}
    assert tuple(got[i] for i in range(3)) == expected
    assert [type(got[i]) for i in range(3)] == [int, int, Fraction]
    assert mu_vector(inst) == expected
    assert len(mms._bnb_cache) == 1


def _peeled_share(row, n, goods, share):
    """The share of the sorted row of n + c items (1 <= c < n) over n
    bundles by the peel identity, with `share(tail, bundles)` for the 2c
    items at the end of the row: goods min(v[n-c-1], share of the tail over
    c bundles), chores (worst chore first) min(v[0], the same)."""
    c = len(row) - n
    head = row[n - c - 1] if goods else row[0]
    return min(head, share(row[n - c:], c))


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_peel_identity_holds_for_n_plus_c_rows(kind):
    """A sorted row of m = n + c items with 1 <= c < n: its share over n
    bundles comes from the 2c items at the end of the row over c bundles.
    Checked against ``row_share`` on seeded random rows, and against
    ``exhaustive_partition`` on both sides where n^m <= 10^5."""
    goods = kind == GOODS
    rng = random.Random(67 if goods else 71)
    for _ in range(300):
        n = rng.randint(2, 9)
        c = rng.randint(1, n - 1)
        row = sorted(_random_rows(rng, kind, 1, n + c, hi=30)[0], reverse=goods)
        assert mms.row_share(row, n, goods) == _peeled_share(
            row, n, goods, lambda tail, k: mms.row_share(tail, k, goods)
        )

    def exhaustive(values, bundles):
        return exhaustive_partition(make_instance(kind, [values] * bundles), 1)[0]

    for n, m in [(2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)]:
        assert n**m <= 10**5
        row = sorted(_random_rows(rng, kind, 1, m, hi=30)[0], reverse=goods)
        assert exhaustive(row, n) == _peeled_share(row, n, goods, exhaustive)
