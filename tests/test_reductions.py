"""Reduction rules: preconditions, validity, application, trace round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsalloc import mms, reductions
from mmsalloc.core import (
    CHORES,
    GOODS,
    bundle_value,
    make_instance,
    to_ordered,
    validate_allocation,
)
from mmsalloc.errors import DanglingReference, PreconditionUnmet
from mmsalloc.mms import maximin_partition, mms_value, mu_vector
from mmsalloc.reductions import (
    apply_with_maps,
    base_identical_partitions,
    make_step,
    reduce_by_domination,
    reduce_by_tail_group,
    reduce_pair_blockable,
    reduce_pair_from_high,
    reduce_pigeonhole_pair,
    reduce_single_item,
    trace_from_json,
    trace_to_json,
    verify_step,
    verify_trace,
    ReductionStep,
    ReductionTrace,
)
from mmsalloc.solver_chores import solve_chores
from mmsalloc.solver_goods import solve


def ordered_goods(rows):
    return to_ordered(make_instance(GOODS, rows))


def test_make_step_rejects_overlap_and_unknown_rule():
    with pytest.raises(PreconditionUnmet):
        make_step("single_item", {1: {1}, 2: {1}})
    with pytest.raises(ValueError):
        make_step("no_such_rule", {1: {1}})
    with pytest.raises(PreconditionUnmet):
        make_step("single_item", {})
    # only the first and third awards overlap
    with pytest.raises(PreconditionUnmet, match="overlap"):
        make_step("single_item", {1: {1, 2}, 2: {3}, 3: {2, 4}})


def test_single_item_picks_largest_qualifying_item():
    inst = make_instance(GOODS, [[10, 9, 1, 1], [10, 9, 1, 1]])
    mu = mu_vector(inst)  # 10 each: {10} vs {9,1,1}
    step = reduce_single_item(inst, mu)
    assert step is not None
    [(agent, bundle)] = step.assignments
    # item 2 is worth 9 < mu, so item 1 is the largest qualifier
    assert bundle == frozenset({1}) and agent == 1
    assert verify_step(inst, step)


def test_single_item_returns_none_when_nothing_qualifies():
    inst = make_instance(GOODS, [[5, 5, 5, 5], [5, 5, 5, 5]])
    assert reduce_single_item(inst, mu_vector(inst)) is None


def test_pigeonhole_pair_uses_positions_n_and_n_plus_1():
    ordered = ordered_goods([[6, 5, 4, 3], [6, 5, 4, 3]])
    mu = mu_vector(ordered.instance)  # {6,3} vs {5,4} -> 9
    step = reduce_pigeonhole_pair(ordered.instance, mu)
    assert step is not None
    [(agent, bundle)] = step.assignments
    assert bundle == frozenset({2, 3})
    assert verify_step(ordered.instance, step)


def test_pair_from_high_requires_unique_qualifier():
    # only agent 2 values item 1 at her share
    ordered = ordered_goods([[4, 4, 4, 4, 4, 4], [20, 1, 1, 1, 1, 1]])
    mu = mu_vector(ordered.instance)
    step = reduce_pair_from_high(ordered.instance, mu)
    assert step is not None
    [(agent, bundle)] = step.assignments
    assert agent == 2 and bundle == frozenset({1, 6})
    assert verify_step(ordered.instance, step)


def test_pair_blockable_respects_blocks():
    inst = make_instance(GOODS, [[5, 5, 0, 0], [3, 3, 2, 2]])
    mu = mu_vector(inst)
    step = reduce_pair_blockable(inst, mu)
    assert step is not None
    assert verify_step(inst, step)


def test_apply_compacts_ids_in_order():
    inst = make_instance(GOODS, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    step = make_step("single_item", {2: {2}})
    residual, kept_agents, kept_items = apply_with_maps(inst, step)
    assert residual.n == 2 and residual.m == 2
    assert kept_agents == [1, 3]
    assert kept_items == [1, 3]
    assert residual.row(2) == (7, 9)


def test_apply_rejects_dangling_references():
    inst = make_instance(GOODS, [[1, 2]])
    with pytest.raises(DanglingReference):
        apply_with_maps(inst, make_step("single_item", {5: {1}}))
    with pytest.raises(DanglingReference):
        apply_with_maps(inst, make_step("single_item", {1: {9}}))
    # a bad agent is reported before a bad item of an earlier award
    with pytest.raises(DanglingReference, match="agent 5"):
        apply_with_maps(inst, make_step("single_item", {1: {9}, 5: {1}}))


def test_verify_step_rejects_underpaid_award():
    inst = make_instance(GOODS, [[10, 1, 1], [10, 1, 1]])
    bad = make_step("single_item", {1: {2}})  # worth 1 < mu
    assert not verify_step(inst, bad)


@pytest.mark.parametrize(
    "rows, awards",
    [
        ([[5, 4, 3], [3, 3, 3]], {3: {1}}),
        ([[5, 4, 3], [3, 3, 3]], {1: {4}}),
        ([[5, 4, 3], [3, 3, 3]], {1: {0}}),
        ([[3, 4, 5], [3, 3, 3]], {1: {0}}),
        ([[5, 4, 3], [3, 3, 3]], {True: {1}}),
        ([[5, 4, 3], [3, 3, 3]], {1: {1.0}}),
    ],
    ids=["agent-3", "item-4", "item-0", "item-0-unsorted", "agent-bool", "item-float"],
)
def test_verify_step_rejects_ids_outside_the_instance(rows, awards):
    """A step naming an agent or item the instance lacks is invalid, as in a
    trace replay; item 0 is not read as the row's last item, and a bool or
    float id is not read as the int id it equals."""
    inst = make_instance(GOODS, rows)
    step = make_step("single_item", awards)
    assert verify_step(inst, step) is False
    assert verify_trace(inst, ReductionTrace(steps=(step,), final=())) == [
        ("single_item", False)
    ]


def test_verify_step_rejects_an_agent_named_twice():
    """Each award of a step is checked: a second award to one agent is not
    folded into the first (``make_step`` would fold it, so the step is
    built directly)."""
    inst = make_instance(GOODS, [[9, 8, 7, 1, 1]] * 3)
    step = ReductionStep("single_item", ((1, frozenset({4})), (1, frozenset({1}))))
    assert verify_step(inst, step) is False
    assert verify_trace(inst, ReductionTrace(steps=(step,), final=())) == [
        ("single_item", False)
    ]


@pytest.mark.parametrize(
    "rule, assignments, raised, match",
    [
        ("no_such_rule", ((1, {9}),), None, None),
        ("no_such_rule", ((1, {1}), (2, {1})), ValueError, "unknown rule"),
        ("no_such_rule", (), ValueError, "unknown rule"),
        ("single_item", (), PreconditionUnmet, "at least one agent"),
        ("single_item", ((1, {1, 2}), (2, {2})), PreconditionUnmet, "overlap"),
    ],
    ids=["dangling-before-rule", "rule-before-overlap", "rule-before-empty",
         "empty", "overlap"],
)
def test_replay_checks_ids_then_rule_then_awards(rule, assignments, raised, match):
    """A step's ids are checked first (an invalid one ends the replay with a
    False verdict), then its rule (ValueError), then its awards: an empty
    step or overlapping awards raise PreconditionUnmet."""
    inst = make_instance(GOODS, [[9, 8, 7, 1, 1]] * 3)
    step = ReductionStep(rule, tuple((a, frozenset(b)) for a, b in assignments))
    trace = ReductionTrace(steps=(step,), final=())
    if raised is None:
        assert verify_trace(inst, trace) == [(rule, False)]
    else:
        with pytest.raises(raised, match=match):
            verify_trace(inst, trace)


def test_verify_step_rejects_mu_decrease_for_remaining_agent():
    # the top pair glues everyone's partitions together: awarding it pays
    # agent 1 in full but drops the remaining agents' shares from 4 to 2
    row = [10, 10, 1, 1, 1, 1]
    inst = make_instance(GOODS, [row, row, row])
    step = make_step("pigeonhole_pair", {1: {1, 2}})
    assert bundle_value(inst, 1, frozenset({1, 2})) >= mms_value(inst, 1).mu
    assert not verify_step(inst, step)


# Six agents, ten goods (c = 4): a group of two tail triples sharing {6, 7}
# leaves four agents outside it, d = 2 more than the n - c = 2 leading goods.
SURPLUS_R = [12, 12, 12, 12, 6, 4, 4, 4, 4, 4]
SURPLUS_GROUP = {1: frozenset({6, 7, 9}), 2: frozenset({6, 7, 10})}


def test_goods_domination_awards_past_the_shared_singleton_zone():
    """Two surplus agents take goods n - c + 1 and n - c + 2 (3 and 4), the
    other outsiders goods 1 and 2, and the bundle with the worst extra good
    goes to its owner; the step is valid."""
    inst = ordered_goods([SURPLUS_R] * 6).instance
    step = reduce_by_domination(inst, SURPLUS_GROUP, mu_vector(inst))
    assert {a: set(b) for a, b in step.assignments} == {
        2: {6, 7, 10},
        3: {3},
        4: {4},
        5: {1},
        6: {2},
    }
    assert verify_step(inst, step)


def test_goods_domination_needs_d_agents_for_the_post_zone_goods():
    """Agents 3-5 value good 4 (= n - c + d) below their share, so only
    agent 6 could take it: one taker for d = 2 goods."""
    low = [30, 30, 30, 2, 2, 2, 2, 2, 2, 2]
    inst = ordered_goods([SURPLUS_R] * 2 + [low] * 3 + [SURPLUS_R]).instance
    with pytest.raises(PreconditionUnmet, match="post-zone singletons"):
        reduce_by_domination(inst, SURPLUS_GROUP, mu_vector(inst))


# Three agents, five goods (c = 2): the one agent outside a two-agent group
# takes good 1, so a chosen bundle holding good 1 collides with her award.
COLLIDE_R = [10, 1, 1, 1, 1]
COLLIDE_TAILS = {
    1: frozenset({1, 2, 4}),
    2: frozenset({1, 2, 5}),
    3: frozenset({2, 4, 5}),
}


@pytest.mark.parametrize(
    "kind, row, group",
    [
        (GOODS, COLLIDE_R, {a: COLLIDE_TAILS[a] for a in (1, 2)}),
        # chores go out worst first: agent 3 takes chore 1, held by agent 1
        (
            CHORES,
            [-1] * 6,
            {1: frozenset({1, 5}), 2: frozenset({1, 6})},
        ),
    ],
    ids=["goods", "chores"],
)
def test_domination_rejects_a_singleton_inside_the_chosen_bundle(kind, row, group):
    inst = make_instance(kind, [row] * 3)
    with pytest.raises(PreconditionUnmet):
        reduce_by_domination(inst, group, mu_vector(inst))


def test_tail_group_skips_a_group_whose_award_fails():
    """Groups are tried in sorted-key order: {1, 2} reaches the agent count
    first but its award collides, so {2, 4} gives the step."""
    inst = make_instance(GOODS, [COLLIDE_R] * 3)
    mu = mu_vector(inst)
    step = reduce_by_tail_group(inst, COLLIDE_TAILS, mu, ((3, 2),))
    assert {a: set(b) for a, b in step.assignments} == {2: {1}, 3: {2, 4, 5}}


def test_base_identical_partitions_two_agents():
    rng = random.Random(13)
    for kind in (GOODS, CHORES):
        sign = -1 if kind == CHORES else 1
        shapes = [(1, 0), (2, 0)]
        shapes += [(rng.randint(1, 2), rng.randint(1, 7)) for _ in range(60)]
        for n, m in shapes:
            inst = make_instance(
                kind,
                [[sign * rng.randint(0, 10) for _ in range(m)] for _ in range(n)],
            )
            mu = mu_vector(inst)
            alloc = base_identical_partitions(inst)
            validate_allocation(inst, alloc)
            for i in range(1, n + 1):
                assert bundle_value(inst, i, alloc[i - 1]) >= mu[i - 1]


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_two_agent_base_breaks_a_tie_by_sorted_item_ids(kind):
    """Agent 2 values both witness bundles at 0; she takes the one whose
    sorted item ids come first, here the second bundle of the witness."""
    sign = 1 if kind == GOODS else -1
    inst = make_instance(kind, [[sign * v for v in (1, 5, 4, 3, 3)], [0] * 5])
    witness = maximin_partition(inst, 1)[1]
    assert witness == (frozenset({2, 5}), frozenset({1, 3, 4}))
    assert base_identical_partitions(inst) == witness


@pytest.mark.parametrize("kind", [GOODS, CHORES])
def test_two_agent_base_asks_for_no_share_of_its_own(kind, monkeypatch):
    """The base reads agent 1's witness from ``maximin_partition`` alone:
    no share query sorts and probes the row first."""
    calls = []
    share = mms.row_share

    def spy(*args):
        calls.append(args)
        return share(*args)

    for module in (mms, reductions):
        monkeypatch.setattr(module, "row_share", spy)
    sign = 1 if kind == GOODS else -1
    rows = [[sign * v for v in (9, 7, 6, 4, 3)], [sign * v for v in (8, 8, 5, 2, 1)]]
    inst = to_ordered(make_instance(kind, rows)).instance
    validate_allocation(inst, base_identical_partitions(inst))
    assert calls == []


def test_trace_json_round_trip():
    trace = ReductionTrace(
        steps=(
            make_step("single_item", {1: {3}}),
            make_step("pigeonhole_pair", {2: {1, 4}}),
        ),
        final=(frozenset({2}), frozenset({5, 6})),
    )
    assert trace_from_json(trace_to_json(trace)) == trace


def test_trace_allocation_leaves_agents_past_the_final_bundles_empty():
    trace = ReductionTrace(
        steps=(make_step("single_item", {2: {1}}),),
        final=(frozenset({2, 3}),),
    )
    assert trace.allocation(4) == (
        frozenset({2, 3}),
        frozenset({1}),
        frozenset(),
        frozenset(),
    )


def test_verify_trace_translates_base_ids():
    # step ids refer to the base instance even after earlier removals
    inst = make_instance(GOODS, [[10, 9, 1], [10, 9, 1], [1, 1, 1]])
    trace = ReductionTrace(
        steps=(
            make_step("single_item", {1: {1}}),
            make_step("single_item", {2: {2}}),
        ),
        final=(frozenset({3}),),
    )
    verdicts = verify_trace(inst, trace)
    assert [ok for _, ok in verdicts] == [True, True]
    # dangling base ids are reported as an invalid step, not an exception
    broken = ReductionTrace(
        steps=(
            make_step("single_item", {1: {1}}),
            make_step("single_item", {1: {2}}),
        ),
        final=(frozenset({3}),),
    )
    assert [ok for _, ok in verify_trace(inst, broken)][-1] is False


def _reference_verify_step(instance, step):
    """Step verification as it ran when each step was checked on its own:
    one share record per agent, before and after."""
    before = {i: mms_value(instance, i).mu for i in range(1, instance.n + 1)}
    for agent, bundle in step.assignments:
        if bundle_value(instance, agent, bundle) < before[agent]:
            return False
    residual, kept_agents, _ = apply_with_maps(instance, step)
    for pos, agent in enumerate(kept_agents, start=1):
        if mms_value(residual, pos).mu < before[agent]:
            return False
    return True


def _reference_verify_trace(instance, trace):
    """Trace replay that verifies each step on its own and then applies it
    again to advance, recomputing every share vector."""
    cur = instance
    agent_ids = list(range(1, instance.n + 1))
    item_ids = list(range(1, instance.m + 1))
    verdicts = []
    for step in trace.steps:
        agent_pos = {a: p for p, a in enumerate(agent_ids, start=1)}
        item_pos = {j: p for p, j in enumerate(item_ids, start=1)}
        try:
            local = make_step(
                step.rule,
                {
                    agent_pos[a]: frozenset(item_pos[j] for j in b)
                    for a, b in step.assignments
                },
            )
        except KeyError:
            verdicts.append((step.rule, False))
            return verdicts
        verdicts.append((step.rule, _reference_verify_step(cur, local)))
        cur, kept_agents, kept_items = apply_with_maps(cur, local)
        agent_ids = [agent_ids[a - 1] for a in kept_agents]
        item_ids = [item_ids[j - 1] for j in kept_items]
    return verdicts


def _tampered(trace, n, m, mode, k, rng):
    """`trace` with step k replaced (or, past the last step, a step
    appended) by a step of the given mode, in base ids:

    - "subset": a remaining agent takes a random set of remaining items,
      which often falls below her share or lowers another agent's share;
    - "all": a remaining agent takes every remaining item;
    - "dangling": a step names an item that earlier steps removed, or
      item m + 1 when none did.
    """
    steps = list(trace.steps)
    gone_agents = {a for s in steps[:k] for a in s.agents()}
    gone_items = set().union(*(s.items() for s in steps[:k]))
    agents = [a for a in range(1, n + 1) if a not in gone_agents]
    items = [j for j in range(1, m + 1) if j not in gone_items]
    if not agents:
        return None
    agent = rng.choice(agents)
    if mode == "subset":
        bundle = {j for j in items if rng.random() < 0.4} or set(items[:1])
    elif mode == "all":
        bundle = set(items)
    else:
        bundle = {rng.choice(sorted(gone_items)) if gone_items else m + 1}
    steps[k:k + 1] = [make_step("single_item", {agent: bundle})]
    return ReductionTrace(steps=tuple(steps), final=trace.final)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from([GOODS, CHORES]),
    n=st.integers(2, 4),
    extra=st.integers(0, 5),
    denominator=st.sampled_from([1, 1, 2, 3]),
    mode=st.sampled_from([None, "subset", "all", "dangling"]),
    seed=st.integers(0, 10**6),
)
def test_one_pass_replay_matches_per_step_verification(
    kind, n, extra, denominator, mode, seed
):
    rng = random.Random(seed)
    m = n + extra
    sign = -1 if kind == CHORES else 1
    rows = [
        [Fraction(sign * rng.randint(0, 8), denominator) for _ in range(m)]
        for _ in range(n)
    ]
    inst = make_instance(kind, rows)
    out = (solve if kind == GOODS else solve_chores)(inst)
    if out.trace is None:
        return
    replay = to_ordered(inst).instance
    trace = out.trace
    if mode is not None:
        k = rng.randint(0, len(trace.steps))
        trace = _tampered(trace, n, m, mode, k, rng)
        if trace is None:
            return
    verdicts = verify_trace(replay, trace)
    assert verdicts == _reference_verify_trace(replay, trace)
    if mode is None:
        assert all(ok for _, ok in verdicts)
    if mode == "dangling":
        # replay stops at the step that names a missing item
        assert len(verdicts) == k + 1 and verdicts[-1][1] is False


def test_replay_after_a_failed_award_recomputes_shares():
    # step 1 gives agent 1 a good below her share of 9; step 2 gives agent 2
    # a good worth her residual share of 1, far below agent 1's old share
    inst = make_instance(GOODS, [[9, 9, 9, 0], [1, 1, 1, 1], [4, 4, 4, 4]])
    trace = ReductionTrace(
        steps=(
            make_step("single_item", {1: {4}}),
            make_step("single_item", {2: {1}}),
        ),
        final=(frozenset({2, 3}),),
    )
    verdicts = verify_trace(inst, trace)
    assert verdicts == _reference_verify_trace(inst, trace)
    assert [ok for _, ok in verdicts] == [False, True]
