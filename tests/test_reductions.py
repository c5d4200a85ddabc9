"""Reduction rules: preconditions, validity, application, trace round trips."""

import random

import pytest

from mmsalloc.core import (
    CHORES,
    GOODS,
    bundle_value,
    make_instance,
    to_ordered,
    validate_allocation,
)
from mmsalloc.errors import DanglingReference, PreconditionUnmet
from mmsalloc.mms import mms_value, mu_vector
from mmsalloc.reductions import (
    apply,
    apply_with_maps,
    base_identical_partitions,
    make_step,
    reduce_pair_blockable,
    reduce_pair_from_high,
    reduce_pigeonhole_pair,
    reduce_single_item,
    trace_from_json,
    trace_to_json,
    verify_step,
    verify_trace,
    ReductionTrace,
)


def ordered_goods(rows):
    return to_ordered(make_instance(GOODS, rows))


def test_make_step_rejects_overlap_and_unknown_rule():
    with pytest.raises(PreconditionUnmet):
        make_step("single_item", {1: {1}, 2: {1}})
    with pytest.raises(ValueError):
        make_step("no_such_rule", {1: {1}})
    with pytest.raises(PreconditionUnmet):
        make_step("single_item", {})


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
    step = reduce_pigeonhole_pair(ordered, mu)
    assert step is not None
    [(agent, bundle)] = step.assignments
    assert bundle == frozenset({2, 3})
    assert verify_step(ordered.instance, step)


def test_pair_from_high_requires_unique_qualifier():
    # only agent 2 values item 1 at her share
    ordered = ordered_goods([[4, 4, 4, 4, 4, 4], [20, 1, 1, 1, 1, 1]])
    mu = mu_vector(ordered.instance)
    step = reduce_pair_from_high(ordered, mu)
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
    residual, agent_map, item_map = apply_with_maps(inst, step)
    assert residual.n == 2 and residual.m == 2
    assert agent_map == {1: 1, 2: 3}
    assert item_map == {1: 1, 2: 3}
    assert residual.row(2) == (7, 9)
    assert apply(inst, step) == residual


def test_apply_rejects_dangling_references():
    inst = make_instance(GOODS, [[1, 2]])
    with pytest.raises(DanglingReference):
        apply(inst, make_step("single_item", {5: {1}}))
    with pytest.raises(DanglingReference):
        apply(inst, make_step("single_item", {1: {9}}))


def test_verify_step_rejects_underpaid_award():
    inst = make_instance(GOODS, [[10, 1, 1], [10, 1, 1]])
    bad = make_step("single_item", {1: {2}})  # worth 1 < mu
    assert not verify_step(inst, bad)


def test_verify_step_rejects_mu_decrease_for_remaining_agent():
    # the top pair glues everyone's partitions together: awarding it pays
    # agent 1 in full but drops the remaining agents' shares from 4 to 2
    row = [10, 10, 1, 1, 1, 1]
    inst = make_instance(GOODS, [row, row, row])
    step = make_step("pigeonhole_pair", {1: {1, 2}})
    assert bundle_value(inst, 1, frozenset({1, 2})) >= mms_value(inst, 1).mu
    assert not verify_step(inst, step)


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


def test_trace_json_round_trip():
    trace = ReductionTrace(
        steps=(
            make_step("single_item", {1: {3}}),
            make_step("pigeonhole_pair", {2: {1, 4}}),
        ),
        final=(frozenset({2}), frozenset({5, 6})),
    )
    assert trace_from_json(trace_to_json(trace)) == trace


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
