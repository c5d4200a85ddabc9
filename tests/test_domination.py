"""The bundle domination order: axioms, oracle equivalence, grouping."""

import itertools
import random

import pytest

from mmsalloc.core import CHORES, GOODS
from mmsalloc.domination import (
    dominates,
    group_tail_bundles,
    pick_dominated,
    strictly_dominates,
)
from mmsalloc.errors import EmptyGroup


def oracle_dominates(b, b_prime):
    """B dominates B' iff the i-th smallest of B is <= the i-th smallest of B'.

    Equivalent to the injective-map definition: sort both, pair smallest to
    smallest (needs |B| >= |B'|).
    """
    bs, ps = sorted(b), sorted(b_prime)
    if len(bs) < len(ps):
        return False
    return all(x <= y for x, y in zip(bs, ps))


def random_bundle(rng, universe=12):
    k = rng.randint(0, 5)
    return frozenset(rng.sample(range(1, universe + 1), k))


def test_matches_sorted_prefix_oracle():
    rng = random.Random(2024)
    for _ in range(2000):
        b, bp = random_bundle(rng), random_bundle(rng)
        assert (dominates(b, bp) is not None) == oracle_dominates(b, bp)


def test_witness_is_a_valid_injection():
    rng = random.Random(99)
    for _ in range(500):
        b, bp = random_bundle(rng), random_bundle(rng)
        w = dominates(b, bp)
        if w is None:
            continue
        sources = [j for j, _ in w]
        targets = [f for _, f in w]
        assert sorted(sources) == sorted(bp)
        assert len(set(targets)) == len(targets)
        assert set(targets) <= set(b)
        assert all(f <= j for j, f in w)


def test_partial_order_axioms():
    rng = random.Random(5)
    bundles = [random_bundle(rng, universe=8) for _ in range(40)]
    for b in bundles:
        assert dominates(b, b) is not None  # reflexive
    for b, bp in itertools.product(bundles, repeat=2):
        if strictly_dominates(b, bp):
            assert not strictly_dominates(bp, b)  # antisymmetric
    for b, bp, bpp in itertools.product(bundles[:15], repeat=3):
        if dominates(b, bp) is not None and dominates(bp, bpp) is not None:
            assert dominates(b, bpp) is not None  # transitive


def test_empty_bundle_is_dominated_by_everything():
    assert dominates(frozenset({5}), frozenset()) is not None
    assert dominates(frozenset(), frozenset()) is not None
    assert dominates(frozenset(), frozenset({1})) is None


def test_hand_checked_pair():
    b = frozenset({3, 7, 8, 11, 14})
    bp = frozenset({6, 7, 11, 13})
    w = dominates(b, bp)
    assert w is not None
    assert w == ((6, 3), (7, 7), (11, 8), (13, 11))
    assert dominates(bp, b) is None


def test_group_tail_bundles_keys_by_shared_subsets():
    tails = {
        1: frozenset({5, 6, 7}),
        2: frozenset({5, 6, 8}),
        3: frozenset({5, 6, 9}),
        4: frozenset({5, 7, 8}),
    }
    groups = group_tail_bundles(tails, 3)
    assert set(groups[frozenset({5, 6})]) == {1, 2, 3}
    assert set(groups[frozenset({5, 7})]) == {1, 4}
    # each group maps its agents to their bundles
    assert groups[frozenset({5, 7})] == {1: tails[1], 4: tails[4]}
    # bundles of the wrong size are ignored
    assert group_tail_bundles({1: frozenset({1, 2})}, 3) == {}


def test_pick_dominated_direction_depends_on_kind():
    group = {
        1: frozenset({5, 6, 7}),
        2: frozenset({5, 6, 8}),
        3: frozenset({5, 6, 9}),
    }
    worst = pick_dominated(group, GOODS)
    assert worst == (3, frozenset({5, 6, 9}))
    best = pick_dominated(group, CHORES)
    assert best == (1, frozenset({5, 6, 7}))
    # the chosen bundle is comparable to every member, in the right direction
    for bundle in group.values():
        assert dominates(bundle, worst[1]) is not None
        assert dominates(best[1], bundle) is not None


def test_pick_dominated_ties_go_to_lowest_agent():
    group = {4: frozenset({5, 6}), 2: frozenset({5, 6})}
    assert pick_dominated(group, GOODS) == (2, frozenset({5, 6}))


def test_pick_dominated_rejects_empty_group():
    with pytest.raises(EmptyGroup):
        pick_dominated({}, GOODS)
