"""Agent-count thresholds n_c above which n + c items are always solvable.

This module is the one source of the thresholds: the solvers read them
here, and nothing overrides them.  Closed forms: floor(alpha^c * c!) with
alpha = 0.6597 for goods and 0.7838 for chores, anchored by hand-proven
small cases (c <= 5 always solvable for any number of agents; goods c = 6
from 4 agents, c = 7 from 8 agents).  Both kinds' shape decisions are made
here: the guard on reductions (``known_solvable``) and the tail-group sizes
that license domination awards (``tail_thresholds``).  The
``required_agents`` diagnostics evaluate the counting argument over those
sizes and check it stays within the closed form; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, factorial, floor

from .core import CHORES, GOODS
from .errors import COutOfRange, InternalInvariantViolation, NegativeC

ALPHA_GOODS = Fraction(6597, 10000)
ALPHA_CHORES = Fraction(7838, 10000)


def n_c_goods(c: int) -> int:
    if c < 0:
        raise NegativeC(f"c must be non-negative, got {c}")
    if c <= 5:
        return 1
    if c == 6:
        return 4
    if c == 7:
        return 8
    return floor(ALPHA_GOODS**c * factorial(c))


def n_c_chores(c: int) -> int:
    if c < 0:
        raise NegativeC(f"c must be non-negative, got {c}")
    if c <= 5:
        return 1
    return floor(ALPHA_CHORES**c * factorial(c))


def known_solvable(kind: str, n: int, m: int) -> bool:
    """Does a residual of n agents and m items of ``kind`` keep a
    constructive route (three agents with nine goods do not)?  One or two
    agents or at most one item each do; otherwise n must reach n_c(m - n)."""
    n_c = n_c_goods if kind == GOODS else n_c_chores
    return n <= 2 or m <= n or n >= n_c(m - n)


def tail_thresholds(kind: str, c: int) -> tuple:
    """(k, agents) pairs in the order they are tried: with surplus c, size-k
    tail bundles sharing a (k-1)-subset license a domination award once
    ``agents`` distinct agents hold them.  Goods: k in 3..c-2 and agents =
    max(c-k+1, n_{c-k+1} + 1); chores: k in 2..c+1, max(c-k+2, n_{c-k+1} + 1).
    """
    if kind == GOODS:
        return tuple(
            (k, max(c - k + 1, n_c_goods(c - k + 1) + 1)) for k in range(3, c - 1)
        )
    return tuple(
        (k, max(c - k + 2, n_c_chores(c - k + 1) + 1)) for k in range(2, c + 2)
    )


def _weight(c: int, k: int) -> Fraction:
    return Fraction(comb(c, k - 1), k) + Fraction(comb(c, k - 2), k - 1)


def required_agents_goods(c: int) -> int:
    """Agents needed before some (k-1)-subset tail group hits threshold.

    1 + sum over the goods tail thresholds (k, agents) of
    (C(c,k-1)/k + C(c,k-2)/(k-1)) * (agents - 1), rounded up.  For c >= 8
    the result must stay within n_c_goods(c); for c = 7 it is reported as
    a raw diagnostic.
    """
    if c < 7:
        raise COutOfRange(f"counting argument needs c >= 7, got {c}")
    total = 1 + sum(
        _weight(c, k) * (agents - 1) for k, agents in tail_thresholds(GOODS, c)
    )
    result = ceil(total)
    if c >= 8 and result > n_c_goods(c):
        raise InternalInvariantViolation(
            f"required_agents_goods({c}) = {result} exceeds "
            f"n_c_goods({c}) = {n_c_goods(c)}"
        )
    return result


def required_agents_chores(c: int) -> int:
    """Chores analogue; size-2 tails all coincide, adding one flat term.

    1 + sum over the chores tail thresholds (k, agents) with 3 <= k <= c-1
    of (C(c,k-1)/k + C(c,k-2)/(k-1)) * (agents - 1), plus
    max(c-1, n_{c-1}), rounded up.
    """
    if c < 6:
        raise COutOfRange(f"counting argument needs c >= 6, got {c}")
    total = 1 + sum(
        _weight(c, k) * (agents - 1)
        for k, agents in tail_thresholds(CHORES, c)
        if 3 <= k < c
    )
    total += max(c - 1, n_c_chores(c - 1))
    result = ceil(total)
    if result > n_c_chores(c):
        raise InternalInvariantViolation(
            f"required_agents_chores({c}) = {result} exceeds "
            f"n_c_chores({c}) = {n_c_chores(c)}"
        )
    return result
