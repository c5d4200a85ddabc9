"""Goods solver: certified end-to-end runs plus targeted branch coverage.

The scripted case analyses for four agents / ten goods and eight agents /
fifteen goods rarely trigger on uniform random values (the cheap guarded
reductions almost always fire first), so each branch is exercised directly
on a hand-built instance and its emitted steps re-verified.
"""

import random
from types import SimpleNamespace

import pytest

from mmsalloc.core import GOODS, bundle_value, make_instance, to_ordered
from mmsalloc.errors import NEqualsThree, PreconditionUnmet, TooFewAgents, TooLarge
from mmsalloc.mms import mms_value, mu_vector, structured_partition_goods
from mmsalloc.reductions import ReductionTrace, verify_step, verify_trace
from mmsalloc.pipeline import CONTINUE, Pipeline
from mmsalloc import solver_goods
from mmsalloc.reductions import (
    reduce_pair_blockable,
    reduce_pair_from_high,
    reduce_pigeonhole_pair,
    reduce_single_item,
)
from mmsalloc.solver_goods import (
    _guarded_simple,
    _solve_4x10,
    _solve_8x15,
    _step,
    efm_step,
    known_solvable_goods,
    mostly_overlapping_pair,
    reduce_2n2,
    solve,
    solve_c6,
    solve_c7,
    tail_group_step,
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
    res = script(pipe, mu_vector(pipe.current))
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


def test_8x15_batch_search_past_the_cap_names_its_branch():
    # three kept agents over the ten goods left: 3^10 assignments
    ordered = to_ordered(make_instance(GOODS, [FIVE_HIGH] * 5 + [FILLER] * 3))
    pipe = Pipeline(ordered.instance, cap=1000)
    with pytest.raises(TooLarge, match=r"^c7:five-high:batch at 8x15$"):
        _solve_8x15(pipe, mu_vector(pipe.current))


def test_8x15_shared_pivot_pair():
    row = [10] * 3 + [4] * 3 + [2] * 9
    notes, res = run_script([row] * 8, _solve_8x15)
    assert notes == ["c7:pivot5:crowd"] and res[0] == "continue"


# Through ``solve`` the tail groups need n >= n_c_goods(c) agents, about
# 1,449 at c = 8, so these 8 x 16 residuals call the step directly.
TAIL_GROUP_ROWS = {
    "identical": [[29, 28, 23, 23, 23, 18, 15, 15, 13, 12, 11, 9, 5, 4, 4, 2]] * 8,
    "with-singletons": [
        [11, 8, 7, 9, 6, 6, 6, 3, 3, 3, 4, 2, 2, 1, 2, 1],
        [9, 9, 7, 8, 7, 7, 7, 3, 2, 3, 4, 3, 4, 2, 3, 1],
        [10, 8, 7, 9, 7, 6, 6, 2, 2, 4, 3, 4, 4, 3, 3, 2],
        [10, 8, 8, 9, 7, 6, 6, 4, 3, 3, 3, 3, 2, 2, 1, 1],
        [10, 9, 9, 9, 6, 6, 7, 3, 4, 3, 2, 3, 4, 1, 2, 2],
        [10, 9, 7, 8, 6, 6, 5, 3, 3, 4, 4, 3, 3, 2, 2, 2],
        [9, 9, 8, 8, 6, 5, 5, 3, 2, 4, 3, 4, 3, 2, 2, 1],
        [11, 9, 8, 8, 6, 6, 6, 3, 3, 3, 3, 3, 2, 2, 2, 2],
    ],
}


@pytest.mark.parametrize(
    "name, awards",
    [
        ("identical", {1: {8, 10, 16}}),
        # agents outside the group take the leading goods as singletons
        ("with-singletons", {6: {8, 9, 16}, 7: {1}, 8: {2}}),
    ],
)
def test_tail_group_domination_award(name, awards):
    """Every agent's structured witness has a triple among the tail goods;
    a group of them sharing two goods fires the domination award."""
    pipe = _pipe(TAIL_GROUP_ROWS[name])
    sorted_instance = pipe.current
    assert tail_group_step(pipe, 8, mu_vector(sorted_instance)) == CONTINUE
    [step] = pipe.steps
    assert step.rule == "domination"
    assert {a: set(b) for a, b in step.assignments} == awards
    assert verify_step(sorted_instance, step)


TAIL_R = [40, 40, 38, 34, 32, 32, 30, 5, 4, 3, 3, 2, 2, 2, 1, 0]


def test_tail_group_zero_share_pushes_the_pigeonhole_pair():
    pipe = _pipe([[0] * 16] + [TAIL_R] * 7)
    sorted_instance = pipe.current
    assert tail_group_step(pipe, 8, mu_vector(sorted_instance)) == CONTINUE
    [step] = pipe.steps
    assert step.rule == "pigeonhole_pair"
    assert {a: set(b) for a, b in step.assignments} == {1: {8, 9}}
    assert verify_step(sorted_instance, step)


def test_tail_group_huge_tail_hands_over_to_the_matching_step():
    """Every witness is seven singletons and a tail of nine goods: the
    matching step solves the residual outright."""
    pipe = _pipe([TAIL_R] * 8)
    status, final = tail_group_step(pipe, 8, mu_vector(pipe.current))
    assert status == "solved" and not pipe.steps
    assert final == tuple(
        [frozenset(range(8, 17))] + [frozenset({j}) for j in range(7, 0, -1)]
    )


def test_tail_group_step_without_a_trigger_returns_none():
    pipe = _pipe(
        [
            [10, 3, 8, 8, 6, 11, 20, 19, 6, 10, 4, 5, 6, 2, 20, 18],
            [10, 3, 6, 8, 7, 13, 20, 19, 6, 10, 3, 6, 4, 4, 18, 19],
            [8, 3, 7, 7, 6, 12, 21, 19, 7, 9, 3, 5, 5, 4, 20, 19],
            [8, 3, 6, 8, 5, 12, 19, 18, 7, 8, 3, 6, 6, 2, 19, 18],
            [9, 1, 8, 7, 6, 13, 19, 19, 5, 8, 5, 5, 5, 3, 19, 18],
            [8, 2, 7, 7, 5, 12, 21, 19, 6, 10, 3, 6, 6, 4, 18, 17],
            [10, 3, 7, 7, 7, 13, 19, 18, 6, 10, 5, 7, 6, 2, 19, 19],
            [10, 3, 6, 8, 7, 13, 21, 17, 6, 8, 4, 6, 5, 4, 20, 17],
        ]
    )
    assert tail_group_step(pipe, 8, mu_vector(pipe.current)) is None
    assert not pipe.steps


def test_efm_step_batch_on_a_hall_deficient_witness():
    """Agent 4's witness is three singletons and a tail bundle; nobody else
    accepts good 1, so the full graph has no perfect matching and the
    matching step awards an envy-free batch, singletons padded with the
    worst goods left."""
    pipe = _pipe(
        [
            [8, 7, 7, 5, 4, 3, 2, 1],
            [9, 8, 7, 7, 7, 7, 5, 1],
            [10, 9, 8, 6, 4, 2, 1, 1],
            [8, 6, 6, 3, 2, 2, 1, 0],
        ]
    )
    sorted_instance = pipe.current
    mu = mu_vector(sorted_instance)
    assert tuple(mu) == (9, 10, 10, 6)
    part = structured_partition_goods(sorted_instance, 4, mu[3])
    assert set(part) == {
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4, 5, 6, 7, 8}),
    }
    assert efm_step(pipe, 4, part, mu) == CONTINUE
    [step] = pipe.steps
    assert step.rule == "efm_batch"
    assert {a: set(b) for a, b in step.assignments} == {3: {1, 8}, 4: {2, 7}}
    assert verify_step(sorted_instance, step)


ROUTES = ("reduce_2n2", "_solve_4x10", "_solve_8x15", "tail_group_step")


@pytest.mark.parametrize(
    "n, m, route",
    [
        (5, 10, "reduce_2n2"),
        (5, 11, "reduce_2n2"),
        (9, 16, "reduce_2n2"),
        (4, 10, "_solve_4x10"),
        (8, 15, "_solve_8x15"),
        (1446, 1454, "tail_group_step"),
        (3, 9, None),
        (7, 14, None),
        (1445, 1453, None),
    ],
)
def test_step_routes_by_shape(monkeypatch, n, m, route):
    """With no guarded simple rule firing, the shape alone picks the route:
    reduce_2n2 above the c = 6 and c = 7 thresholds, the scripted analyses
    at them, the tail groups from n_c on (1,446 agents at c = 8), and
    nothing below."""
    calls = []
    monkeypatch.setattr(solver_goods, "_guarded_simple", lambda pipe, mu: None)
    for name in ROUTES:
        monkeypatch.setattr(
            solver_goods, name, lambda *args, name=name: calls.append(name) or name
        )
    pipe = SimpleNamespace(current=SimpleNamespace(n=n, m=m), push=lambda step: None)
    _step(pipe, mu=None)
    assert calls == ([route] if route else [])


def test_reduce_2n2_pivot_pair_branch():
    # no single good and no {n, n+1} pair reaches a share; every witness is
    # packed with pairs through the three leading goods
    rows = [[7, 7, 7, 3, 3, 3, 2, 2, 2]] * 4
    ordered = to_ordered(make_instance(GOODS, rows))
    mu = mu_vector(ordered.instance)
    step = reduce_2n2(ordered.instance, mu)
    assert step.rule == "domination"
    from mmsalloc.reductions import verify_step

    assert verify_step(ordered.instance, step)


def test_mostly_overlapping_pair_prefers_exception_agent():
    rows = [[7, 7, 7, 3, 3, 3, 2, 2, 2]] * 4
    ordered = to_ordered(make_instance(GOODS, rows))
    mu = mu_vector(ordered.instance)
    pairs = {1: frozenset({1, 7}), 2: frozenset({1, 8}), 3: frozenset({1, 9})}
    step = mostly_overlapping_pair(ordered.instance, mu, 1, pairs)
    [(agent, bundle)] = step.assignments
    # the worst companion is good 9; agent 4 accepts it and takes priority
    assert bundle == frozenset({1, 9})
    assert agent == 4
    with pytest.raises(PreconditionUnmet):
        mostly_overlapping_pair(ordered.instance, mu, 1, {1: frozenset({1, 7})})


def test_solver_rejects_wrong_kind():
    from mmsalloc.core import CHORES

    chores = make_instance(CHORES, [[-1, -1]])
    with pytest.raises(ValueError):
        solve(chores)


def test_two_agents_without_goods():
    out = solve(make_instance(GOODS, [[], []]))
    assert out.status == "solved"
    assert out.allocation == (frozenset(), frozenset())


def _eager_guarded_simple(cur, mu):
    """The guarded rules as they ran when every candidate was built first."""
    candidates = (
        reduce_single_item(cur, mu),
        reduce_pigeonhole_pair(cur, mu),
        reduce_pair_from_high(cur, mu),
        reduce_pair_blockable(cur, mu),
    )
    for step in candidates:
        if step is None:
            continue
        if known_solvable_goods(cur.n - len(step.agents()), cur.m - len(step.items())):
            return step
    return None


def _pipe(rows):
    return Pipeline(to_ordered(make_instance(GOODS, rows)).instance)


def test_later_rules_wait_for_the_first_guarded_step(monkeypatch):
    pipe = _pipe([[10, 1, 1, 1, 1], [3, 3, 3, 3, 3], [2, 2, 2, 2, 2]])
    mu = mu_vector(pipe.current)
    expected = reduce_single_item(pipe.current, mu)

    def refuse(*args):
        raise AssertionError("a later rule ran after a guarded step was found")

    later = ("reduce_pigeonhole_pair", "reduce_pair_from_high", "reduce_pair_blockable")
    for name in later:
        monkeypatch.setattr(solver_goods, name, refuse)
    assert expected is not None
    assert _guarded_simple(pipe, mu) == expected


def test_a_step_the_guard_rejects_falls_through():
    # agent 1 takes good 1 alone, which would leave three agents with nine
    # goods; the {4, 5} pair goes to agent 2 instead
    pipe = _pipe([[20] + [5] * 9] + [[5] * 10] * 3)
    mu = mu_vector(pipe.current)
    single = reduce_single_item(pipe.current, mu)
    assert single is not None and not known_solvable_goods(3, 9)
    step = _guarded_simple(pipe, mu)
    assert step == reduce_pigeonhole_pair(pipe.current, mu)
    assert step.assignments == ((2, frozenset({4, 5})),)
    assert step == _eager_guarded_simple(pipe.current, mu)


def test_lazy_rules_choose_the_eager_step():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(3, 8)
        m = n + rng.randint(0, 7)
        pipe = _pipe([[rng.randint(0, 12) for _ in range(m)] for _ in range(n)])
        mu = mu_vector(pipe.current)
        assert _guarded_simple(pipe, mu) == _eager_guarded_simple(pipe.current, mu)
