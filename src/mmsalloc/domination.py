"""The domination partial order over bundles of an ordered instance.

In an ordered instance a bundle B dominates B' when B' injects into B with
every image item at least as early in the common preference order.  For
goods a dominating bundle is at least as valuable under every non-increasing
valuation; for chores (worst chore first) it is at most as valuable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CHORES, GOODS
from .errors import EmptyGroup


@dataclass(frozen=True, slots=True)
class DominationWitness:
    """Injective map from items of B' to items of B with f(j) <= j."""

    mapping: tuple  # of (j, f(j)) pairs, ascending in j


@dataclass(frozen=True, slots=True)
class TailBundle:
    agent: int
    bundle: frozenset


def dominates(b, b_prime):
    """Witness that B dominates B', or None.

    Greedy construction: scan B' ascending, matching each item to the
    smallest unused item of B that does not exceed it.  The greedy match
    succeeds exactly when Hall's condition holds on the threshold graph.
    """
    available = sorted(b)
    mapping = []
    lo = 0
    for j in sorted(b_prime):
        if lo >= len(available) or available[lo] > j:
            return None
        mapping.append((j, available[lo]))
        lo += 1
    return DominationWitness(mapping=tuple(mapping))


def strictly_dominates(b, b_prime) -> bool:
    return frozenset(b) != frozenset(b_prime) and dominates(b, b_prime) is not None


def tail_bundle(partition, n: int):
    """The lexicographically first bundle living entirely past position
    n - 1, or None."""
    return min(
        (b for b in partition if b and min(b) >= n),
        key=lambda b: tuple(sorted(b)),
        default=None,
    )


def group_tail_bundles(tails, k: int):
    """Multimap from each (k-1)-subset to the size-k tail bundles containing it."""
    groups: dict = {}
    for tail in tails:
        if len(tail.bundle) != k:
            continue
        for out in tail.bundle:
            key = frozenset(tail.bundle - {out})
            groups.setdefault(key, set()).add(tail)
    return groups


def pick_dominated(group, kind: str) -> TailBundle:
    """The distinguished bundle of a shared-subset group.

    All bundles are S plus one extra item.  For goods the bundle with the
    largest extra item is dominated by every other; for chores the bundle
    with the smallest extra item dominates every other.  Ties between equal
    bundles go to the lowest agent id.
    """
    if not group:
        raise EmptyGroup("no tail bundles to choose from")
    members = list(group)
    shared = frozenset.intersection(*(t.bundle for t in members))
    if kind not in (GOODS, CHORES):
        raise ValueError(f"unknown kind {kind!r}")

    def extra(t: TailBundle) -> int:
        rest = t.bundle - shared
        return max(rest) if rest else 0

    if kind == GOODS:
        chosen = max(extra(t) for t in members)
    else:
        chosen = min(extra(t) for t in members)
    return min((t for t in members if extra(t) == chosen), key=lambda t: t.agent)
