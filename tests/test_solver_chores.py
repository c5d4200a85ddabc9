"""Chores solver: certified end-to-end runs plus witness-base branch coverage."""

import random

import pytest

from mmsalloc.bounds import DEFAULT_TABLE
from mmsalloc.core import CHORES, GOODS, bundle_value, make_instance, to_ordered
from mmsalloc.mms import mms_value, mu_vector
from mmsalloc.pipeline import Pipeline
from mmsalloc.reductions import verify_step, verify_trace
from mmsalloc.solver_chores import (
    _chores_tail_step,
    known_solvable_chores,
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


def test_shared_pair_tail_fires_domination():
    # every witness is one singleton plus three pairs; the cheap-end pair
    # normalizes to {4, 5} for everyone and the group reduction applies
    rows = [[-9, -8, -8, -8, -1, -1, -1]] * 4
    ordered = to_ordered(make_instance(CHORES, rows))
    pipe = Pipeline(ordered.instance)
    mu = mu_vector(pipe.current)
    step = _chores_tail_step(pipe, mu, DEFAULT_TABLE)
    assert step is not None and step.rule == "domination"
    assert frozenset({4, 5}) in [b for _, b in step.assignments]
    assert verify_step(ordered.instance, step)


def test_known_solvable_shapes():
    assert known_solvable_chores(3, 8)
    assert known_solvable_chores(12, 12)
    assert not known_solvable_chores(10, 16)  # c=6 needs 166 agents
    assert known_solvable_chores(166, 172)


def test_rejects_goods_instance():
    with pytest.raises(ValueError):
        solve_chores(make_instance(GOODS, [[1, 2]]))


def test_two_agents_without_chores():
    out = solve_chores(make_instance(CHORES, [[], []]))
    assert out.status == "solved"
    assert out.allocation == (frozenset(), frozenset())
