"""Agent-count thresholds n_c above which n + c items are always solvable.

This module is the one source of the thresholds: the solvers read them
here, and nothing overrides them.  Closed forms: floor(alpha^c * c!) with
alpha = 0.6597 for goods and 0.7838 for chores, anchored by hand-proven
small cases (c <= 5 always solvable for any number of agents; goods c = 6
from 4 agents, c = 7 from 8 agents).  The ``required_agents`` diagnostics
evaluate the counting argument behind the threshold and check it stays
within the closed form; everything is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import COutOfRange, InternalInvariantViolation, NegativeC

ALPHA_GOODS = Fraction(6597, 10000)
ALPHA_CHORES = Fraction(7838, 10000)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def n_c_goods(c: int) -> int:
    if c < 0:
        raise NegativeC(f"c must be non-negative, got {c}")
    if c <= 5:
        return 1
    if c == 6:
        return 4
    if c == 7:
        return 8
    return _floor(ALPHA_GOODS**c * factorial(c))


def n_c_chores(c: int) -> int:
    if c < 0:
        raise NegativeC(f"c must be non-negative, got {c}")
    if c <= 5:
        return 1
    return _floor(ALPHA_CHORES**c * factorial(c))


def required_agents_goods(c: int) -> int:
    """Agents needed before some (k-1)-subset tail group hits threshold.

    1 + sum over k in 3..c-2 of (C(c,k-1)/k + C(c,k-2)/(k-1)) *
    max(c-k, n_{c-k+1}), rounded up.  For c >= 8 the result must stay
    within n_c_goods(c); for c = 7 it is reported as a raw diagnostic.
    """
    if c < 7:
        raise COutOfRange(f"counting argument needs c >= 7, got {c}")
    total = Fraction(1)
    for k in range(3, c - 1):
        weight = Fraction(comb(c, k - 1), k) + Fraction(comb(c, k - 2), k - 1)
        total += weight * max(c - k, n_c_goods(c - k + 1))
    result = _ceil(total)
    if c >= 8 and result > n_c_goods(c):
        raise InternalInvariantViolation(
            f"required_agents_goods({c}) = {result} exceeds "
            f"n_c_goods({c}) = {n_c_goods(c)}"
        )
    return result


def required_agents_chores(c: int) -> int:
    """Chores analogue; size-2 tails all coincide, adding one flat term.

    1 + sum over k in 3..c-1 of (C(c,k-1)/k + C(c,k-2)/(k-1)) *
    max(c-k+1, n_{c-k+1}) + max(c-1, n_{c-1}), rounded up.
    """
    if c < 6:
        raise COutOfRange(f"counting argument needs c >= 6, got {c}")
    total = Fraction(1)
    for k in range(3, c):
        weight = Fraction(comb(c, k - 1), k) + Fraction(comb(c, k - 2), k - 1)
        total += weight * max(c - k + 1, n_c_chores(c - k + 1))
    total += max(c - 1, n_c_chores(c - 1))
    result = _ceil(total)
    if result > n_c_chores(c):
        raise InternalInvariantViolation(
            f"required_agents_chores({c}) = {result} exceeds "
            f"n_c_chores({c}) = {n_c_chores(c)}"
        )
    return result
