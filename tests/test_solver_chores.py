"""Chores solver: certified end-to-end runs plus witness-base branch coverage."""

import random

import pytest

from mmsalloc import solver_chores
from mmsalloc.core import CHORES, GOODS, bundle_value, make_instance, to_ordered
from mmsalloc.mms import mms_value, mu_vector
from mmsalloc.pipeline import Pipeline
from mmsalloc.reductions import trace_to_json, verify_step, verify_trace
from mmsalloc.bounds import known_solvable
from mmsalloc.solver_chores import (
    _step,
    solve_chores,
)


def check_solved(inst, out):
    assert out.status == "solved", out.diagnostic
    for i in range(1, inst.n + 1):
        assert bundle_value(inst, i, out.allocation[i - 1]) >= mms_value(inst, i).mu
    for _, ok in verify_trace(out.ordered.instance, out.trace):
        assert ok


def test_random_small_instances_all_solved():
    rng = random.Random(0)
    for _ in range(150):
        n = rng.choice([3, 4])
        m = rng.randint(n, n + 5)
        inst = make_instance(
            CHORES, [[-rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
        )
        check_solved(inst, solve_chores(inst))


def test_one_chore_each_when_items_scarce():
    inst = make_instance(CHORES, [[-3, -1], [-2, -5], [-4, -4]])
    out = solve_chores(inst)
    check_solved(inst, out)
    assert "chores_base:one-each" in out.diagnostic


def test_witness_with_singletons_finishes_directly():
    rows = [
        [-5, -6, -1, -10, -5, -9, -5, -10],
        [-1, -11, -4, -8, -4, -10, -6, -5],
        [-6, -11, -4, -8, -2, -3, -6, -10],
        [-6, -10, -11, -2, -9, -9, -4, -6],
        [-8, 0, -4, -4, -3, -6, -12, -9],
    ]
    inst = make_instance(CHORES, rows)
    out = solve_chores(inst)
    check_solved(inst, out)
    assert "chores_base:singletons" in out.diagnostic


def test_witness_pair_goes_to_an_accepting_other_agent():
    rows = [
        [-9, -8, -9, -11, -9, -4, -8, -8],
        [-5, -6, -6, -9, -4, -8, -9, -9],
        [-3, 0, 0, -5, -1, -9, -10, -11],
    ]
    inst = make_instance(CHORES, rows)
    out = solve_chores(inst)
    check_solved(inst, out)
    assert "chores_base:pair_to_other" in out.diagnostic


def test_unblockable_pair_reduction_appears_in_trace():
    rows = [
        [-1, -8, -16, -15, -12, -9, -15, -11, -18],
        [-6, -16, -4, -9, -4, -3, -19, -8, -17],
        [-19, -4, -9, -3, -2, -10, -15, -17, -3],
        [-11, -13, -10, -19, -20, -6, -17, -15, -14],
    ]
    inst = make_instance(CHORES, rows)
    out = solve_chores(inst)
    check_solved(inst, out)
    assert any(s.rule == "pair_blockable" for s in out.trace.steps)


def test_witness_pair_nobody_else_takes_is_reduced():
    # draw 1,450 of random.Random(11) over 4 x 11 rows of -randint(0, 20).
    # The guard rejects the blockable pair (4 agents, c = 7, and
    # n - 1 < n_c_chores(6)), so the witness base keeps its own pair.
    rows = [
        [0, -18, -3, -8, 0, -13, -1, -1, -16, -13, 0],
        [-20, -8, -4, -1, -12, -19, 0, -9, -20, 0, -10],
        [-9, 0, -16, -7, -16, -15, -7, -2, -18, -18, -19],
        [-17, -1, -1, -4, -13, -2, -8, -2, -10, -15, -18],
    ]
    inst = make_instance(CHORES, rows)
    out = solve_chores(inst)
    check_solved(inst, out)
    assert out.diagnostic == "chores_base:pair_to_self; base:two-agent"


def test_shared_pair_tail_fires_domination(monkeypatch):
    # every witness is one singleton plus three pairs; the cheap-end pair
    # normalizes to {4, 5} for everyone and the group reduction applies
    monkeypatch.setattr(solver_chores, "reduce_pair_blockable", lambda cur, mu: None)
    rows = [[-9, -8, -8, -8, -1, -1, -1]] * 4
    ordered = to_ordered(make_instance(CHORES, rows))
    pipe = Pipeline(ordered.instance)
    mu = mu_vector(pipe.current)
    assert _step(pipe, mu) is None
    [step] = pipe.steps
    assert step is not None and step.rule == "domination"
    assert frozenset({4, 5}) in [b for _, b in step.assignments]
    assert verify_step(ordered.instance, step)


# Two instances of the bench's seed-1 ``correlated`` pool (indices 1471 and
# 1075) whose first step is the tail-group domination award; the second
# also removes an agent outside the group with a singleton chore.
TAIL_AWARD_CASES = {
    "1471": (
        [
            [-20, -12, -3, -12, -8, -11, -12],
            [-18, -13, -4, -12, -7, -12, -13],
            [-20, -14, -4, -11, -7, -13, -13],
        ],
        '{"steps": [{"rule": "domination", "awards": [{"agent": 1, "bundle": '
        '[3, 5, 7]}]}], "final": {"bundles": [[2, 4], [1, 6]]}}',
        [[2, 3, 6], [4, 7], [1, 5]],
    ),
    "1075": (
        [
            [-9, -9, -7, -7, -21, -2, -8, -3],
            [-10, -9, -6, -8, -19, -4, -8, -2],
            [-8, -9, -7, -7, -20, -2, -7, -2],
            [-8, -9, -8, -6, -19, -4, -9, -1],
        ],
        '{"steps": [{"rule": "domination", "awards": [{"agent": 1, "bundle": '
        '[4, 5, 7]}, {"agent": 4, "bundle": [1]}]}], "final": {"bundles": '
        '[[3, 6], [2, 8]]}}',
        [[4, 7, 8], [2, 3], [1, 6], [5]],
    ),
}


@pytest.mark.parametrize("name", sorted(TAIL_AWARD_CASES))
def test_tail_award_through_solve_chores(name):
    rows, trace, allocation = TAIL_AWARD_CASES[name]
    inst = make_instance(CHORES, rows)
    out = solve_chores(inst)
    check_solved(inst, out)
    assert out.diagnostic == "base:two-agent"
    assert trace_to_json(out.trace) == trace
    assert [sorted(b) for b in out.allocation] == allocation


@pytest.mark.parametrize("name, calls", [("1471", 3), ("1075", 4)])
def test_one_witness_per_agent_per_step(monkeypatch, name, calls):
    """The step reads each agent's structured witness both as a witness
    base and for its tail bundle, but builds it once."""
    built = []
    original = solver_chores.structured_partition_chores

    def counted(*args):
        built.append(args[1])
        return original(*args)

    monkeypatch.setattr(solver_chores, "structured_partition_chores", counted)
    rows = TAIL_AWARD_CASES[name][0]
    assert solve_chores(make_instance(CHORES, rows)).status == "solved"
    assert len(built) == calls


def test_known_solvable_shapes():
    assert known_solvable(CHORES, 3, 8)
    assert known_solvable(CHORES, 12, 12)
    assert not known_solvable(CHORES, 10, 16)  # c=6 needs 166 agents
    assert known_solvable(CHORES, 166, 172)


def test_rejects_goods_instance():
    with pytest.raises(ValueError):
        solve_chores(make_instance(GOODS, [[1, 2]]))


def test_two_agents_without_chores():
    out = solve_chores(make_instance(CHORES, [[], []]))
    assert out.status == "solved"
    assert out.allocation == (frozenset(), frozenset())
