"""The shared solve pipeline: fallback reasons, the search's node budget, the
certification gate, and what an outcome keeps: shared bundles only."""

import gc
import json
import random
import time
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from mmsalloc import core, mms, pipeline
from mmsalloc.bounds import known_solvable
from mmsalloc.core import (
    CHORES,
    GOODS,
    allocation_from_json,
    allocation_to_json,
    bundle_value,
    make_instance,
    shared_bundle,
    to_ordered,
)
from mmsalloc.pipeline import Pipeline, run
from mmsalloc.reductions import (
    make_step,
    trace_from_json,
    trace_to_json,
    verify_trace,
)
from mmsalloc.solver_chores import solve_chores
from mmsalloc.solver_goods import solve
from test_golden import solve_case

ROWS = [[5, 5, 5, 5]] * 3  # three agents, four goods: every share is 5
GOLDEN = Path(__file__).with_name("golden_outcomes.json")

# Bytes an outcome keeps alive, traced by tracemalloc: about 600 B each on
# the corpus below.  A private frozenset per kept bundle takes about
# 2,330 B; storing the sorted companion and its allocation in the outcome
# as well, with unslotted records, about 3,650 B.
RETAINED_BYTES_PER_OUTCOME = 1000


def assert_derived_views(out, inst):
    """The companion and its allocation are what the instance and trace give."""
    assert out.ordered == to_ordered(inst)
    expected = None if out.trace is None else out.trace.allocation(inst.n)
    assert out.ordered_allocation == expected


def kept_bundles(out):
    """Every bundle an outcome keeps: its allocation, each step's awards and
    the trace's final bundles."""
    bundles = list(out.allocation or ())
    if out.trace is not None:
        bundles += [b for step in out.trace.steps for _, b in step.assignments]
        bundles += out.trace.final
    return bundles


def _solve_golden():
    for case in json.loads(GOLDEN.read_text()):
        yield solve_case(case["kind"], case["valuations"], case["nodes"])


def test_uncertified_allocation_is_reported_unresolved():
    def all_to_agent_one(pipe, mu):
        pipe.note("test:all-to-one")
        return (frozenset({1, 2, 3, 4}), frozenset(), frozenset())

    inst = make_instance(GOODS, ROWS)
    out = run(inst, GOODS, all_to_agent_one)
    assert out.status == "unresolved" and out.allocation is None
    assert out.diagnostic == "certification failed for agent 2; test:all-to-one"
    assert out.ordered_allocation == (frozenset({1, 2, 3, 4}), frozenset(), frozenset())
    assert_derived_views(out, inst)


def test_a_step_that_pushes_and_returns_none_goes_round_again():
    """A step that pushes returns None and leaves the next round to the
    pipeline, here the two-agent base case, never the fallback search
    against the old shares."""
    def award_good_one(pipe, mu):
        pipe.note("test:push")
        pipe.push(make_step("single_item", {1: {1}}))
        return None

    inst = make_instance(GOODS, ROWS)
    out = run(inst, GOODS, award_good_one)
    assert out.status == "solved"
    assert out.diagnostic == "test:push; base:two-agent"
    assert [step.rule for step in out.trace.steps] == ["single_item"]
    assert all(ok for _, ok in verify_trace(to_ordered(inst).instance, out.trace))


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_step_reason_ends_with_the_kinds_over_cap_text(monkeypatch, kind):
    """Both kinds end the reason of a search past its node budget, here 0
    nodes, with one text."""
    def give_up(pipe, mu):
        pipe.note("test:no-route")
        return None

    monkeypatch.setattr(mms, "SEARCH_NODES", 0)
    sign = 1 if kind == GOODS else -1
    inst = make_instance(kind, [[sign * v for v in row] for row in ROWS])
    out = run(inst, kind, give_up)
    assert out.status == "unresolved" and out.trace is None
    assert out.diagnostic == (
        "test:no-route; no constructive route at 3x4; search budget exceeded"
    )
    assert out.ordered_allocation is None
    assert_derived_views(out, inst)


FIVE_HIGH = [10] * 5 + [1] * 10
FILLER = [10] * 3 + [1] * 12


@pytest.mark.parametrize(
    "rows, awards",
    [
        ([[20] + [3] * 9] * 2 + [[10, 5] + [2] * 8] * 2, {1: {1}}),
        ([FIVE_HIGH] * 5 + [FILLER] * 3, {6: {1}, 7: {2}, 8: {3}, 1: {4}, 2: {5}}),
    ],
    ids=["4x10-single-good", "8x15-five-awards"],
)
def test_a_search_with_a_step_searches_its_residual(rows, awards):
    """Settling with a step is the threshold search on the rows of the
    agents it keeps, without the items it awards, against their shares; on
    success the step is pushed, onto that residual, and its tag noted."""
    pipe = Pipeline(to_ordered(make_instance(GOODS, rows)).instance)
    cur = pipe.current
    mu = mms.mu_vector(cur)
    step = make_step("single_item", awards)
    kept = [i for i in range(1, cur.n + 1) if i not in awards]
    items = [j for j in range(1, cur.m + 1) if j not in step.items()]
    residual = make_instance(GOODS, [[cur.value(i, j) for j in items] for i in kept])
    expected = mms.find_allocation_meeting(residual, [mu[i - 1] for i in kept])
    assert expected is not None
    assert pipe.settle(mu, "test", "test:settled", step) == expected
    assert pipe.current == residual
    assert pipe.steps == [step] and pipe.notes == ["test:settled"]


@pytest.mark.parametrize(
    "mu, step",
    [
        ((5, 5, 5), make_step("single_item", {1: {1, 2, 3}})),
        ((6, 6, 6), None),
    ],
    ids=["with-step", "stepless"],
)
def test_a_settle_that_finds_nothing_leaves_the_pipeline_untouched(mu, step):
    """None proves that no allocation of the searched residual meets the
    shares: nothing is pushed and no tag is noted."""
    pipe = Pipeline(to_ordered(make_instance(GOODS, ROWS)).instance)
    cur = pipe.current
    assert pipe.settle(mu, "test", "test:settled", step) is None
    assert pipe.current is cur and pipe.steps == [] and pipe.notes == []


def test_a_settled_step_is_applied_once(monkeypatch):
    """Paying good 1 off at 4 x 10 searches the residual of its step and
    pushes that same residual: one ``apply_with_maps`` for the one step of
    the trace, where searching and then pushing applied it twice."""
    applied = []

    def counted(instance, step):
        applied.append(step)
        return original(instance, step)

    original = pipeline.apply_with_maps
    monkeypatch.setattr(pipeline, "apply_with_maps", counted)
    out = solve(make_instance(GOODS, [[20] + [3] * 9] * 2 + [[10, 5] + [2] * 8] * 2))
    assert out.status == "solved" and out.diagnostic == "c6:payoff-good1:agent1"
    assert len(out.trace.steps) == 1 and len(applied) == 1


def test_a_share_search_past_its_budget_in_the_two_agent_base_is_unresolved(
    monkeypatch,
):
    """The greedy split of these chores (3 + 2 + 2 | 3 + 2) misses the share
    6, so agent 1's witness comes from a share decision, which a budget of
    0 nodes stops: the base case is unresolved and says why."""
    monkeypatch.setattr(mms, "SEARCH_NODES", 0)
    out = solve_chores(make_instance(CHORES, [[-3, -3, -2, -2, -2]] * 2))
    assert out.status == "unresolved"
    assert out.diagnostic == (
        "base:two-agent; share search past 0 nodes; search budget exceeded"
    )


# Two agents whose second row, summing past the subset-sum bitset limit,
# takes more than 10^4 nodes to share out: the two-agent base asks only
# agent 1's share, so the certification's shares meet this row first.
HARD_SECOND_ROW = [[-1] * 32, [-300001] + [-200000] * 30 + [-1]]


def test_a_certification_share_past_its_budget_is_unresolved(monkeypatch):
    monkeypatch.setattr(mms, "SEARCH_NODES", 10**4)
    out = solve_chores(make_instance(CHORES, HARD_SECOND_ROW))
    assert out.status == "unresolved" and out.allocation is None
    assert out.diagnostic.endswith(
        "share search past 10000 nodes; search budget exceeded"
    )


def test_a_solve_asks_for_the_shares_once_per_round(monkeypatch):
    """A step that finishes three agents in the first round: the one share
    vector of that round also certifies the allocation."""
    asked = []

    def counted(instance):
        asked.append(instance)
        return share_vector(instance)

    def finish(pipe, mu):
        return (frozenset({1, 2}), frozenset({3}), frozenset({4}))

    share_vector = pipeline.mu_vector
    monkeypatch.setattr(pipeline, "mu_vector", counted)
    out = run(make_instance(GOODS, ROWS), GOODS, finish)
    assert out.status == "solved"
    assert len(asked) == 1


def test_a_scripted_search_past_the_cap_is_unresolved(monkeypatch):
    """The pipeline runs the scripted branches' searches under the node
    budget: paying good 1 off at 4 x 10 searches the rest, past a budget
    of 5 nodes, and the solve comes back unresolved with a reason that
    names the branch.  The default budget solves the same instance."""
    inst = make_instance(GOODS, [[20] + [3] * 9] * 2 + [[10, 5] + [2] * 8] * 2)
    assert solve(inst).diagnostic == "c6:payoff-good1:agent1"
    monkeypatch.setattr(mms, "SEARCH_NODES", 5)
    out = solve(inst)
    assert out.status == "unresolved" and out.trace is None
    assert out.diagnostic == "c6:payoff-good1 at 4x10; search budget exceeded"


# Residuals of more than 10^8 assignments that no constructive step
# settles.  The first two are base rows plus noise in [-1, 1], as the
# ``correlated`` bench pool draws them; the 6 x 12 is index 2423 of that
# pool at seed 1 with 3 to 6 agents.  The last two are uniform on 0..20.
# A fallback search settles each chores one in at most 50 nodes, the
# goods one in about 31,000.
PAST_ASSIGNMENT_CAP = {
    "chores-6x11": [
        [-7, -3, -6, -21, -5, -11, -4, -3, -11, -6, -6],
        [-9, -3, -7, -19, -5, -11, -3, -1, -11, -4, -7],
        [-8, -3, -7, -20, -7, -13, -5, -3, -9, -6, -7],
        [-7, -3, -6, -19, -5, -11, -3, -1, -11, -6, -6],
        [-8, -3, -6, -21, -6, -11, -3, -1, -11, -5, -5],
        [-9, -3, -8, -20, -5, -11, -5, -2, -10, -6, -6],
    ],
    "chores-6x12": [
        [-10, -15, -3, -3, -11, -18, -4, -12, -2, -14, -3, -6],
        [-10, -15, -3, -3, -10, -19, -4, -12, -2, -12, -3, -6],
        [-12, -15, -4, -4, -10, -18, -3, -13, -2, -12, -3, -4],
        [-11, -14, -2, -2, -11, -19, -4, -12, -2, -14, -4, -4],
        [-11, -14, -3, -2, -10, -18, -2, -12, -2, -12, -4, -5],
        [-12, -14, -2, -3, -10, -19, -4, -13, -1, -12, -4, -4],
    ],
    "chores-7x14": [
        [-4, -18, -2, -8, -3, -15, -14, -15, -20, -12, -6, -3, -15, 0],
        [-12, -13, -19, 0, -14, -8, -7, -18, -3, -10, 0, 0, 0, -20],
        [-17, 0, -12, -6, -13, 0, -16, -7, -14, -15, -17, -7, -11, -7],
        [-7, -14, -9, 0, -13, -17, -20, -3, -5, -20, -9, -3, -10, -16],
        [-13, -16, -6, -9, -9, -18, -15, -16, -12, -18, -1, -15, -7, -12],
        [-13, -5, -11, -17, -11, -2, -14, -16, -3, -5, -16, -12, -11, -15],
        [0, -15, -1, -9, -19, -18, -18, -12, -20, -5, -5, -16, -7, 0],
    ],
    "goods-5x15": [
        [18, 17, 3, 10, 1, 13, 2, 12, 4, 4, 10, 3, 19, 18, 12],
        [2, 18, 17, 7, 18, 2, 8, 11, 9, 18, 17, 3, 14, 8, 3],
        [1, 9, 0, 19, 0, 2, 13, 3, 1, 6, 7, 18, 13, 5, 3],
        [14, 5, 7, 5, 3, 13, 12, 17, 9, 17, 8, 15, 10, 3, 6],
        [20, 10, 1, 0, 0, 9, 19, 10, 14, 12, 10, 12, 2, 2, 10],
    ],
}


@pytest.mark.parametrize("name", PAST_ASSIGNMENT_CAP)
def test_a_residual_past_n_to_the_m_is_searched_and_solved(name):
    """The search is bounded by its node budget, not by the residual's
    shape: each of these is solved by the fallback search and certified."""
    kind = name.split("-")[0]
    inst = make_instance(kind, PAST_ASSIGNMENT_CAP[name])
    out = (solve if kind == GOODS else solve_chores)(inst)
    assert out.status == "solved", out.diagnostic
    assert out.diagnostic.endswith("fallback:threshold-search")
    shares = mms.mu_vector(inst)
    for i in range(1, inst.n + 1):
        assert bundle_value(inst, i, out.allocation[i - 1]) >= shares[i - 1]
    assert all(ok for _, ok in verify_trace(to_ordered(inst).instance, out.trace))


FALLBACKS = [
    case
    for case in json.loads(GOLDEN.read_text())
    if case["outcome"]["diagnostic"].endswith("fallback:threshold-search")
]


@pytest.mark.parametrize(
    "case", FALLBACKS, ids=[f"{c['kind']}-{i}" for i, c in enumerate(FALLBACKS)]
)
def test_a_fallback_search_that_finds_nothing_is_unresolved(monkeypatch, case):
    """A fallback search that returns None proves no allocation meets the
    shares of the residual it searched: the solve is unresolved and says
    so with that residual's shape."""
    shapes = []

    def refuted(instance, thresholds):
        shapes.append(f"{instance.n}x{instance.m}")
        return None

    monkeypatch.setattr(pipeline, "find_allocation_meeting", refuted)
    inst = make_instance(case["kind"], case["valuations"])
    out = (solve if inst.kind == GOODS else solve_chores)(inst)
    assert out.status == "unresolved" and out.allocation is None and out.trace is None
    [shape] = shapes
    assert out.diagnostic.endswith(f"no allocation meets all shares at {shape}")


# Threshold searches per chores shape (n, m) on the coverage pools when the
# gate below landed; a shape left out had none.  A count may only fall.
CHORES_FALLBACKS = {(3, 7): 3, (3, 8): 6, (4, 8): 1, (4, 9): 3}
COVERAGE_POOL = 150


def coverage_pool(kind, n, m):
    """Seeded instances of one shape: rows of uniform values 0..20
    alternating with rows that are one base row plus noise in [-1, 1]."""
    rng = random.Random(f"{kind} {n}x{m} 11")
    sign = 1 if kind == GOODS else -1
    values, noise = range(21), (-1, 0, 1)
    for k in range(COVERAGE_POOL):
        if k % 2 == 0:
            rows = [rng.choices(values, k=m) for _ in range(n)]
        else:
            base = rng.choices(values, k=m)
            rows = [
                [max(0, b + d) for b, d in zip(base, rng.choices(noise, k=m))]
                for _ in range(n)
            ]
        yield make_instance(kind, [[sign * v for v in row] for row in rows])


def test_constructive_routes_cover_small_surplus_shapes():
    """3-6 agents with n + 1..n + 5 items, every shape in scope: no goods
    instance reaches the threshold search, chores instances reach it no
    more often than when this gate landed, and none ends unresolved."""
    fallbacks = {}
    for kind in (GOODS, CHORES):
        for n in range(3, 7):
            for m in range(n + 1, n + 6):
                assert known_solvable(kind, n, m)
                for inst in coverage_pool(kind, n, m):
                    out = (solve if kind == GOODS else solve_chores)(inst)
                    assert out.status == "solved", (inst.valuations, out.diagnostic)
                    if "fallback:threshold-search" in out.diagnostic:
                        fallbacks[kind, n, m] = fallbacks.get((kind, n, m), 0) + 1
    assert [shape for shape in fallbacks if shape[0] == GOODS] == []
    for (_, n, m), count in fallbacks.items():
        assert count <= CHORES_FALLBACKS.get((n, m), 0), (n, m)


def _seeded_pool(kind, seed, count=100):
    """``count`` instances of 3 to 5 agents and n to n + 5 items valued
    0..20, half of them uniform and half near-identical rows."""
    rng = random.Random(seed)
    sign = 1 if kind == GOODS else -1
    pool = []
    for k in range(count):
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


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_solves_are_invariant_under_row_scaling_and_agent_order(kind):
    """Scaling agent i's row by 100003 + 7i moves every share decision onto
    the bisection path past the subset-sum bitset, and keeps the status and
    the allocation.  Reversing the agents keeps each status and reverses
    the share vector (ties go to the lowest agent id, so the allocation
    itself may move)."""
    solver = solve if kind == GOODS else solve_chores
    for inst in _seeded_pool(kind, 31 if kind == GOODS else 32):
        out = solver(inst)
        scaled = make_instance(
            kind,
            [
                [(100003 + 7 * i) * v for v in row]
                for i, row in enumerate(inst.valuations, start=1)
            ],
        )
        twin = solver(scaled)
        assert (twin.status, twin.allocation) == (out.status, out.allocation)
        flipped = make_instance(kind, inst.valuations[::-1])
        assert solver(flipped).status == out.status
        assert mms.mu_vector(flipped) == mms.mu_vector(inst)[::-1]


def test_outcome_views_match_the_instance_and_trace_on_the_golden_corpus():
    statuses = set()
    for inst, out in _solve_golden():
        assert out.instance is inst
        assert_derived_views(out, inst)
        statuses.add(out.status)
    assert statuses == {"solved", "unresolved"}


def test_every_kept_bundle_is_the_shared_one_on_the_golden_corpus():
    """A bundle built past ``shared_bundle`` is a second copy: the table
    then hands out its own object for the same items, not the kept one."""
    kept = 0
    for _, out in _solve_golden():
        for bundle in kept_bundles(out):
            assert shared_bundle(set(bundle)) is bundle
            kept += 1
    assert kept > 6000


def test_the_shared_bundle_table_is_bounded():
    """Past its limit the table drops its oldest bundles; outcomes that hold
    them are unchanged, still verify and still round-trip through JSON."""
    solved = ((inst, out) for inst, out in _solve_golden() if out.status == "solved")
    kept = list(islice(solved, 50))
    documents = [
        (trace_to_json(out.trace), allocation_to_json(out.allocation))
        for _, out in kept
    ]
    limit = core._SHARED_BUNDLE_LIMIT
    for k in range(limit + 100):
        shared_bundle({1000 + k, 1001 + k})
        assert len(core._shared_bundles) <= limit
    evicted = [b for _, out in kept for b in kept_bundles(out)]
    assert not any(bundle in core._shared_bundles for bundle in evicted)
    for (inst, out), (trace_doc, allocation_doc) in zip(kept, documents):
        assert trace_to_json(out.trace) == trace_doc
        assert allocation_to_json(out.allocation) == allocation_doc
        assert all(ok for _, ok in verify_trace(to_ordered(inst).instance, out.trace))
        shares = mms.mu_vector(inst)
        for i in range(1, inst.n + 1):
            assert bundle_value(inst, i, out.allocation[i - 1]) >= shares[i - 1]
        assert trace_from_json(trace_doc) == out.trace
        assert allocation_from_json(allocation_doc) == out.allocation


def test_a_full_shared_bundle_table_adds_as_fast_as_one_below_its_limit(
    monkeypatch,
):
    """Past its limit the table drops its oldest quarter in one pass.
    Evicting one bundle per addition walked every slot freed before it, so
    an addition cost several times as much once the table was full."""
    limit = core._SHARED_BUNDLE_LIMIT
    calls = 20_000
    saved = dict(core._shared_bundles)

    def add(start, count=calls):
        gc.disable()  # no cycle collection to add its own cost
        try:
            start_time = time.perf_counter()
            for k in range(start, start + count):
                shared_bundle({10**6 + k})
            return time.perf_counter() - start_time
        finally:
            gc.enable()

    below, past = [], []
    try:
        for _ in range(3):
            monkeypatch.setattr(core, "_SHARED_BUNDLE_LIMIT", calls)
            core._shared_bundles.clear()
            below.append(add(0))
            monkeypatch.setattr(core, "_SHARED_BUNDLE_LIMIT", limit)
            core._shared_bundles.clear()
            add(-limit, limit)
            assert len(core._shared_bundles) == limit
            past.append(add(0))
            assert len(core._shared_bundles) <= limit
    finally:
        core._shared_bundles.clear()
        core._shared_bundles.update(saved)
    assert min(past) < 3 * min(below)


def _retained_corpus():
    rng = random.Random(9)
    instances = []
    for kind in (GOODS, CHORES):
        sign = 1 if kind == GOODS else -1
        for _ in range(100):
            m = rng.randint(5, 9)
            rows = [[sign * rng.randint(0, 20) for _ in range(m)] for _ in range(4)]
            instances.append(make_instance(kind, rows))
    return instances


def test_retained_bytes_per_outcome_stay_bounded():
    """Outcomes kept by a caller hold no copies of what they can derive."""
    instances = _retained_corpus()

    def solve_all():
        return [(solve if i.kind == GOODS else solve_chores)(i) for i in instances]

    solve_all()  # lazy set-up and interned strings are not what is measured
    mms.clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcomes = solve_all()
        mms.clear_caches()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(out.status == "solved" for out in outcomes)
    assert retained / len(outcomes) < RETAINED_BYTES_PER_OUTCOME
