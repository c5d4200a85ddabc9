"""Goods solver: certified end-to-end runs plus targeted branch coverage.

The scripted case analyses for four agents / ten goods and eight agents /
fifteen goods rarely trigger on uniform random values (the cheap guarded
reductions almost always fire first), so each branch is exercised directly
on a hand-built instance and its emitted steps re-verified.
"""

import random

import pytest

from mmsalloc.core import GOODS, bundle_value, make_instance, to_ordered
from mmsalloc.errors import NEqualsThree, PreconditionUnmet, TooFewAgents
from mmsalloc.mms import mms_value, mu_vector
from mmsalloc.reductions import ReductionTrace, verify_trace
from mmsalloc.pipeline import Pipeline
from mmsalloc.solver_goods import (
    _solve_4x10,
    _solve_8x15,
    known_solvable_goods,
    mostly_overlapping_pair,
    reduce_2n2,
    solve,
    solve_c6,
    solve_c7,
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
            GOODS, [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
        )
        check_solved(inst, solve(inst))


def test_random_4x10_all_solved():
    rng = random.Random(1)
    for _ in range(40):
        inst = make_instance(
            GOODS, [[rng.randint(0, 20) for _ in range(10)] for _ in range(4)]
        )
        check_solved(inst, solve_c6(inst))


def test_random_8x15_all_solved():
    rng = random.Random(2)
    for _ in range(8):
        inst = make_instance(
            GOODS, [[rng.randint(0, 20) for _ in range(15)] for _ in range(8)]
        )
        check_solved(inst, solve_c7(inst))


def test_entry_point_guards():
    with pytest.raises(NEqualsThree):
        solve_c6(make_instance(GOODS, [[1] * 9] * 3))
    with pytest.raises(TooFewAgents):
        solve_c7(make_instance(GOODS, [[1] * 11] * 4))
    with pytest.raises(PreconditionUnmet):
        solve_c6(make_instance(GOODS, [[1] * 11] * 4))


def test_known_solvable_shapes():
    assert known_solvable_goods(2, 40)
    assert known_solvable_goods(5, 5)
    assert known_solvable_goods(4, 10)
    assert not known_solvable_goods(3, 9)
    assert known_solvable_goods(8, 15)
    assert not known_solvable_goods(7, 14)
    assert not known_solvable_goods(9, 17)  # c=8 needs 1446 agents


def run_script(rows, script):
    """Drive one scripted step directly and re-verify whatever it pushed."""
    ordered = to_ordered(make_instance(GOODS, [list(r) for r in rows]))
    pipe = Pipeline(ordered.instance)
    res = script(pipe, mu_vector(pipe.current), 10**8)
    trace = ReductionTrace(steps=tuple(pipe.steps), final=())
    for _, ok in verify_trace(ordered.instance, trace):
        assert ok
    return pipe.notes, res


def test_4x10_unique_top_valuer():
    rows = [[20] + [2] * 9] + [[5] * 10] * 3
    notes, res = run_script(rows, _solve_4x10)
    assert notes == ["c6:unique-top"] and res[0] == "continue"


def test_4x10_nobody_accepts_the_best_good():
    notes, res = run_script([[6] * 10] * 4, _solve_4x10)
    assert notes == ["c6:packed-pairs"] and res[0] == "continue"


def test_4x10_two_leading_singletons():
    rows = [
        [20, 13, 12, 4, 4, 3, 3, 3, 2, 1],
        [19, 17, 16, 4, 4, 2, 1, 1, 1, 0],
        [19, 19, 17, 4, 4, 3, 2, 1, 0, 0],
        [19, 17, 14, 4, 4, 3, 2, 2, 0, 0],
    ]
    notes, res = run_script(rows, _solve_4x10)
    assert notes == ["c6:two-singles"] and res[0] == "continue"
    # the same instance routes through the full dispatcher
    inst = make_instance(GOODS, rows)
    out = solve_c6(inst)
    check_solved(inst, out)
    assert "c6:two-singles" in out.diagnostic


def test_4x10_good1_payoff_with_completion():
    rows = [[20] + [3] * 9] * 2 + [[10, 5] + [2] * 8] * 2
    notes, res = run_script(rows, _solve_4x10)
    assert notes[0].startswith("c6:payoff-good1") and res[0] == "solved"


def test_8x15_low_third_good_matching():
    rows = [[20, 20] + [2] * 13] * 8
    notes, res = run_script(rows, _solve_8x15)
    assert notes == ["c7:low-third"] and res[0] == "solved"


FILLER = [10] * 3 + [1] * 12  # share 2, items 4+ are noise
SIX_HIGH = [10] * 6 + [3] * 9  # share 10, sixth-best good alone suffices
FIVE_HIGH = [10] * 5 + [1] * 10  # share 3, fifth-best good alone suffices


def test_8x15_unique_sixth_good_valuer():
    notes, res = run_script([SIX_HIGH] + [FILLER] * 7, _solve_8x15)
    assert notes == ["c7:sixth-good-unique"] and res[0] == "continue"


def test_8x15_sixth_and_fifth_pairs():
    notes, res = run_script([SIX_HIGH, FIVE_HIGH] + [FILLER] * 6, _solve_8x15)
    assert notes == ["c7:sixth-fifth-pairs"] and res[0] == "continue"


def test_8x15_six_leading_singletons():
    notes, res = run_script([SIX_HIGH, FIVE_HIGH, FIVE_HIGH] + [FILLER] * 5, _solve_8x15)
    assert notes == ["c7:six-singles"] and res[0] == "continue"


def test_8x15_few_fifth_good_valuers():
    notes, res = run_script([FIVE_HIGH] + [FILLER] * 7, _solve_8x15)
    assert notes == ["c7:five-high:1"] and res[0] == "continue"
    notes, res = run_script([FIVE_HIGH] * 4 + [FILLER] * 4, _solve_8x15)
    assert notes == ["c7:five-high:4"] and res[0] == "continue"


def test_8x15_many_fifth_good_valuers_batch():
    notes, res = run_script([FIVE_HIGH] * 5 + [FILLER] * 3, _solve_8x15)
    assert notes == ["c7:five-high:batch"] and res[0] == "solved"


def test_8x15_shared_pivot_pair():
    row = [10] * 3 + [4] * 3 + [2] * 9
    notes, res = run_script([row] * 8, _solve_8x15)
    assert notes == ["c7:pivot5:crowd"] and res[0] == "continue"


def test_reduce_2n2_pivot_pair_branch():
    # no single good and no {n, n+1} pair reaches a share; every witness is
    # packed with pairs through the three leading goods
    rows = [[7, 7, 7, 3, 3, 3, 2, 2, 2]] * 4
    ordered = to_ordered(make_instance(GOODS, rows))
    mu = mu_vector(ordered.instance)
    step = reduce_2n2(ordered, mu)
    assert step.rule == "domination"
    from mmsalloc.reductions import verify_step

    assert verify_step(ordered.instance, step)


def test_mostly_overlapping_pair_prefers_exception_agent():
    rows = [[7, 7, 7, 3, 3, 3, 2, 2, 2]] * 4
    ordered = to_ordered(make_instance(GOODS, rows))
    mu = mu_vector(ordered.instance)
    pairs = {1: frozenset({1, 7}), 2: frozenset({1, 8}), 3: frozenset({1, 9})}
    step = mostly_overlapping_pair(ordered, mu, 1, pairs)
    [(agent, bundle)] = step.assignments
    # the worst companion is good 9; agent 4 accepts it and takes priority
    assert bundle == frozenset({1, 9})
    assert agent == 4
    with pytest.raises(PreconditionUnmet):
        mostly_overlapping_pair(ordered, mu, 1, {1: frozenset({1, 7})})


def test_solver_rejects_wrong_kind():
    from mmsalloc.core import CHORES

    chores = make_instance(CHORES, [[-1, -1]])
    with pytest.raises(ValueError):
        solve(chores)


def test_two_agents_without_goods():
    out = solve(make_instance(GOODS, [[], []]))
    assert out.status == "solved"
    assert out.allocation == (frozenset(), frozenset())
