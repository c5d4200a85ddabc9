"""The shared solve pipeline: fallback reasons, the search cap, the
certification gate, and what an outcome keeps: shared bundles only."""

import gc
import json
import random
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from mmsalloc import core, mms
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
        inst = make_instance(case["kind"], case["valuations"])
        kwargs = {} if case["cap"] is None else {"cap": case["cap"]}
        yield inst, (solve if inst.kind == GOODS else solve_chores)(inst, **kwargs)


def test_uncertified_allocation_is_reported_unresolved():
    def all_to_agent_one(pipe, mu):
        pipe.note("test:all-to-one")
        return ("solved", (frozenset({1, 2, 3, 4}), frozenset(), frozenset()))

    inst = make_instance(GOODS, ROWS)
    out = run(inst, GOODS, all_to_agent_one, 10**8)
    assert out.status == "unresolved" and out.allocation is None
    assert out.diagnostic == "certification failed for agent 2; test:all-to-one"
    assert out.ordered_allocation == (frozenset({1, 2, 3, 4}), frozenset(), frozenset())
    assert_derived_views(out, inst)


@pytest.mark.parametrize(
    "kind, over_cap",
    [(GOODS, "; search cap exceeded"), (CHORES, " and beyond the search cap")],
    ids=[GOODS, CHORES],
)
def test_step_reason_ends_with_the_kinds_over_cap_text(kind, over_cap):
    def give_up(pipe, mu):
        pipe.note("test:no-route")
        return ("unresolved", "scripted reason")

    sign = 1 if kind == GOODS else -1
    inst = make_instance(kind, [[sign * v for v in row] for row in ROWS])
    out = run(inst, kind, give_up, 1)
    assert out.status == "unresolved" and out.trace is None
    assert out.diagnostic == "test:no-route; scripted reason" + over_cap
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
    """Searching with a step is the threshold search on the rows of the
    agents it keeps, without the items it awards, against their shares."""
    pipe = Pipeline(to_ordered(make_instance(GOODS, rows)).instance)
    cur = pipe.current
    mu = mms.mu_vector(cur)
    step = make_step("single_item", awards)
    kept = [i for i in range(1, cur.n + 1) if i not in awards]
    items = [j for j in range(1, cur.m + 1) if j not in step.items()]
    residual = make_instance(GOODS, [[cur.value(i, j) for j in items] for i in kept])
    expected = mms.find_allocation_meeting(
        residual, [mu[i - 1] for i in kept], pipe.cap
    )
    assert expected is not None
    assert pipe.search(mu, "test", step) == expected
    assert pipe.current is cur and not pipe.steps


def test_a_scripted_search_past_the_cap_is_unresolved():
    """The pipeline holds the cap and runs the scripted branches' searches
    under it: paying good 1 off at 4 x 10 searches 3^9 assignments for the
    rest, past a cap of 1,000, and the solve comes back unresolved with a
    reason that names the branch.  The default cap solves the same
    instance."""
    inst = make_instance(GOODS, [[20] + [3] * 9] * 2 + [[10, 5] + [2] * 8] * 2)
    out = solve(inst, cap=1000)
    assert out.status == "unresolved" and out.trace is None
    assert out.diagnostic == "c6:payoff-good1 at 4x10; search cap exceeded"
    assert solve(inst).diagnostic == "c6:payoff-good1:agent1"


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
