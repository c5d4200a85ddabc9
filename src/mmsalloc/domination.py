"""The domination partial order over bundles of an ordered instance.

In an ordered instance a bundle B dominates B' when B' injects into B with
every image item at least as early in the common preference order.  For
goods a dominating bundle is at least as valuable under every non-increasing
valuation; for chores (worst chore first) it is at most as valuable.
"""

from __future__ import annotations

from .core import CHORES, GOODS
from .errors import EmptyGroup


def dominates(b, b_prime):
    """Witness that B dominates B', or None: the injective map f from the
    items of B' to items of B with f(j) <= j, as a tuple of (j, f(j))
    pairs ascending in j.

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
    return tuple(mapping)


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
    """Multimap from each (k-1)-subset to the size-k tail bundles containing
    it: ``tails`` maps agents to bundles, and so does each group."""
    groups: dict = {}
    for agent, bundle in tails.items():
        if len(bundle) != k:
            continue
        for out in bundle:
            groups.setdefault(frozenset(bundle - {out}), {})[agent] = bundle
    return groups


def pick_dominated(group, kind: str):
    """The distinguished bundle of a shared-subset group, which maps agents
    to bundles, as (agent, bundle).

    All bundles are S plus one extra item.  For goods the bundle with the
    largest extra item is dominated by every other; for chores the bundle
    with the smallest extra item dominates every other.  Ties between equal
    bundles go to the lowest agent id.
    """
    if not group:
        raise EmptyGroup("no tail bundles to choose from")
    shared = frozenset.intersection(*group.values())
    if kind not in (GOODS, CHORES):
        raise ValueError(f"unknown kind {kind!r}")

    def extra(agent: int) -> int:
        rest = group[agent] - shared
        return max(rest) if rest else 0

    pick = max if kind == GOODS else min
    chosen = pick(extra(a) for a in group)
    agent = min(a for a in group if extra(a) == chosen)
    return agent, group[agent]
