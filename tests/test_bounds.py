"""Agent-count thresholds, their counting-argument diagnostic, and the
shape guard and tail-group sizes that read them."""

import pytest

from mmsalloc.bounds import (
    known_solvable,
    n_c_chores,
    n_c_goods,
    required_agents_chores,
    required_agents_goods,
    tail_thresholds,
)
from mmsalloc.core import CHORES, GOODS
from mmsalloc.errors import COutOfRange, NegativeC


def test_anchored_small_values():
    assert [n_c_goods(c) for c in range(0, 8)] == [1, 1, 1, 1, 1, 1, 4, 8]
    assert n_c_chores(5) == 1
    assert n_c_chores(6) == 166
    assert n_c_chores(7) == 915


def test_n_c_goods_is_non_decreasing_up_to_c_7():
    # above n_c(c), c <= 7, a two-good step leaves n - 1 >= n_c(c - 1)
    values = [n_c_goods(c) for c in range(0, 8)]
    assert values == sorted(values)


def test_n_c_goods_leaves_room_for_a_two_good_step():
    # from n_c(c), c >= 6, a two-good step leaves n - 1 >= n_c(c - 1)
    for c in range(6, 61):
        assert n_c_goods(c) - 1 >= n_c_goods(c - 1)


def test_closed_form_values():
    assert n_c_goods(8) == 1446
    assert n_c_goods(9) == 8587


def test_counting_argument_stays_within_the_table():
    for c in range(8, 15):
        assert required_agents_goods(c) <= n_c_goods(c)
    for c in range(6, 15):
        assert required_agents_chores(c) <= n_c_chores(c)


def test_required_agents_known_values():
    assert required_agents_goods(7) == 122
    assert required_agents_goods(8) == 292
    assert required_agents_chores(6) == 84
    assert required_agents_chores(7) == 351


def test_range_errors():
    with pytest.raises(NegativeC):
        n_c_goods(-1)
    with pytest.raises(COutOfRange):
        required_agents_goods(6)
    with pytest.raises(COutOfRange):
        required_agents_chores(5)


def _hand_written_goods(n, m):
    """The goods shape guard as it read with its thresholds spelled out."""
    c = m - n
    if n <= 2 or m <= n or c <= 5:
        return True
    if c == 6:
        return n != 3
    if c == 7:
        return n >= 8
    return n >= n_c_goods(c)


def _hand_written_chores(n, m):
    c = m - n
    return n <= 2 or m <= n or c <= 5 or n >= n_c_chores(c)


def test_shape_guards_read_the_thresholds():
    for n in range(40):
        for m in range(60):
            assert known_solvable(GOODS, n, m) == _hand_written_goods(n, m), (n, m)
            assert known_solvable(CHORES, n, m) == _hand_written_chores(n, m), (n, m)


def test_tail_thresholds_read_as_the_solvers_spelled_them_out():
    """The group sizes each solver built inline before they moved here."""
    for c in range(41):
        assert tail_thresholds(GOODS, c) == tuple(
            (k, max(c - k + 1, n_c_goods(c - k + 1) + 1)) for k in range(3, c - 1)
        ), c
        assert tail_thresholds(CHORES, c) == tuple(
            (k, max(c - k + 2, n_c_chores(c - k + 1) + 1)) for k in range(2, c + 2)
        ), c


def test_self_checks_hold_over_a_wide_range():
    for c in range(8, 121):
        required_agents_goods(c)
    for c in range(6, 121):
        required_agents_chores(c)
