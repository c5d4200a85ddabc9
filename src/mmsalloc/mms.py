"""Exact MMS values, witness partitions, and threshold-feasibility search.

Two independent routes compute maximin shares: a plain exhaustive
enumeration (the oracle, capped) and a branch-and-bound search (the
workhorse, uncapped).  Both are exact; the test suite checks they agree
wherever the exhaustive route is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import CHORES, GOODS, Instance, OrderedInstance
from .errors import InternalInvariantViolation, TooLarge

DEFAULT_EXHAUSTIVE_CAP = 10**8


@dataclass(frozen=True)
class MmsRecord:
    agent: int
    mu: Fraction
    witness: tuple  # n-partition in which every bundle is worth >= mu


@dataclass(frozen=True)
class StructuredPartition:
    """An MMS partition whose singletons are the leading items 1..t."""

    partition: tuple
    singleton_count: int


def _scaled_row(row) -> tuple:
    """Scale a rational row to integers (returns absolute values for chores)."""
    scale = lcm(*(v.denominator for v in row)) if row else 1
    return tuple(abs(int(v * scale)) for v in row), scale


# Branch-and-bound results keyed by (scaled values, bundle count, sense).
_bnb_cache: dict = {}


def clear_caches() -> None:
    _bnb_cache.clear()


def _maximin_int(values: tuple, n: int):
    """Maximize the minimum bundle sum of an n-partition of `values` (>= 0).

    Returns (best value, assignment list mapping item position -> bundle).
    Items are branched in descending value order; bundles with equal loads
    are interchangeable and only the first is tried.
    """
    key = (values, n, "max")
    hit = _bnb_cache.get(key)
    if hit is not None:
        return hit
    m = len(values)
    order = sorted(range(m), key=lambda t: -values[t])
    vals = [values[t] for t in order]
    suffix = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] + vals[t]

    loads = [0] * n
    greedy = [0] * m
    for t in range(m):
        j = min(range(n), key=lambda b: loads[b])
        loads[j] += vals[t]
        greedy[t] = j
    best = min(loads)
    best_assign = greedy[:]

    loads = [0] * n
    assign = [0] * m

    def dfs(t: int) -> None:
        nonlocal best, best_assign
        if t == m:
            v = min(loads)
            if v > best:
                best = v
                best_assign = assign[:]
            return
        rest = suffix[t]
        acc = 0
        for k, load in enumerate(sorted(loads), start=1):
            acc += load
            if acc + rest <= k * best:
                return
        seen = set()
        for j in range(n):
            if loads[j] in seen:
                continue
            seen.add(loads[j])
            loads[j] += vals[t]
            assign[t] = j
            dfs(t + 1)
            loads[j] -= vals[t]

    if m and n > 1:
        dfs(0)
    elif n == 1:
        best = sum(vals)
        best_assign = [0] * m

    result_assign = [0] * m
    for t, pos in enumerate(order):
        result_assign[pos] = best_assign[t]
    result = (best, result_assign)
    _bnb_cache[key] = result
    return result


def _minimax_int(values: tuple, n: int):
    """Minimize the maximum bundle sum of an n-partition of `values` (>= 0)."""
    key = (values, n, "min")
    hit = _bnb_cache.get(key)
    if hit is not None:
        return hit
    m = len(values)
    order = sorted(range(m), key=lambda t: -values[t])
    vals = [values[t] for t in order]
    suffix = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] + vals[t]

    loads = [0] * n
    greedy = [0] * m
    for t in range(m):
        j = min(range(n), key=lambda b: loads[b])
        loads[j] += vals[t]
        greedy[t] = j
    best = max(loads)
    best_assign = greedy[:]

    loads = [0] * n
    assign = [0] * m

    def dfs(t: int) -> None:
        nonlocal best, best_assign
        if t == m:
            v = max(loads)
            if v < best:
                best = v
                best_assign = assign[:]
            return
        if max(loads) >= best:
            return
        if (sum(loads) + suffix[t] + n - 1) // n >= best:
            return
        seen = set()
        for j in range(n):
            if loads[j] in seen:
                continue
            seen.add(loads[j])
            loads[j] += vals[t]
            if loads[j] < best:
                assign[t] = j
                dfs(t + 1)
            loads[j] -= vals[t]

    if m and n > 1 and best > 0:
        dfs(0)
    elif n == 1:
        best = sum(vals)
        best_assign = [0] * m

    result_assign = [0] * m
    for t, pos in enumerate(order):
        result_assign[pos] = best_assign[t]
    result = (best, result_assign)
    _bnb_cache[key] = result
    return result


def _bnb_partition(instance: Instance, agent: int, items=None, bundles=None):
    """Exact maximin value and witness for one agent via branch and bound.

    `items` restricts the search to a subset of item ids, `bundles` overrides
    the bundle count (defaults to n).  Returns (mu, tuple of frozensets).
    """
    ids = sorted(items) if items is not None else list(range(1, instance.m + 1))
    k = bundles if bundles is not None else instance.n
    row = tuple(instance.value(agent, j) for j in ids)
    scaled, scale = _scaled_row(row)
    if instance.kind == GOODS:
        value, assign = _maximin_int(scaled, k)
        mu = Fraction(value, scale)
    else:
        value, assign = _minimax_int(scaled, k)
        mu = Fraction(-value, scale)
    parts = [set() for _ in range(k)]
    for pos, b in enumerate(assign):
        parts[b].add(ids[pos])
    return mu, tuple(frozenset(p) for p in parts)


def _exhaustive_partition(instance: Instance, agent: int, cap: int):
    """Independent oracle: enumerate every n^m assignment, no pruning."""
    n, m = instance.n, instance.m
    if n**m > cap:
        raise TooLarge(f"{n}^{m} assignments exceed the cap {cap}")
    row = instance.row(agent)
    sums = [Fraction(0)] * n
    assign = [0] * m
    best_value = None
    best_assign = None

    def walk(t: int) -> None:
        nonlocal best_value, best_assign
        if t == m:
            v = min(sums)
            if best_value is None or v > best_value:
                best_value = v
                best_assign = assign[:]
            return
        for j in range(n):
            sums[j] += row[t]
            assign[t] = j
            walk(t + 1)
            sums[j] -= row[t]

    walk(0)
    parts = [set() for _ in range(n)]
    for pos, b in enumerate(best_assign):
        parts[b].add(pos + 1)
    return best_value, tuple(frozenset(p) for p in parts)


def mms_value(
    instance: Instance,
    agent: int,
    method: str = "bnb",
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> MmsRecord:
    """Exact maximin share of one agent, with a witness partition."""
    if method == "exhaustive":
        mu, witness = _exhaustive_partition(instance, agent, cap)
    elif method == "bnb":
        mu, witness = _bnb_partition(instance, agent)
    else:
        raise ValueError(f"unknown method {method!r}")
    return MmsRecord(agent=agent, mu=mu, witness=witness)


def maximin_partition(instance: Instance, agent: int, items=None, bundles=None):
    """Best achievable worst-bundle value over a subset of items.

    Returns (value, partition).  `items` defaults to all items and `bundles`
    to n; used by the solvers to probe constrained partition shapes.
    """
    return _bnb_partition(instance, agent, items=items, bundles=bundles)


def mu_vector(instance: Instance) -> tuple:
    """Branch-and-bound MMS of every agent, as a tuple indexed by agent-1."""
    return tuple(mms_value(instance, i).mu for i in range(1, instance.n + 1))


def count_high_items(ordered: OrderedInstance, agent: int, mu: Fraction) -> int:
    """Number of leading goods the agent values at mu or higher."""
    row = ordered.instance.row(agent)
    k = 0
    for v in row:
        if v >= mu:
            k += 1
        else:
            break
    n, m = ordered.n, ordered.m
    c = m - n
    if n > c > 0 and k < n - c:
        raise InternalInvariantViolation(
            f"agent {agent}: only {k} items at or above mu, expected >= {n - c}"
        )
    return k


def _residual_feasible(instance: Instance, agent: int, items, bundles: int, mu):
    """Can `items` be split into `bundles` bundles each worth >= mu to agent?"""
    if bundles == 0:
        return tuple() if not items else None
    value, parts = _bnb_partition(instance, agent, items=items, bundles=bundles)
    if value >= mu:
        return parts
    return None


def _structured(ordered: OrderedInstance, agent: int, mu) -> StructuredPartition:
    """Max-singleton MMS partition with singletons on the leading items.

    Any MMS partition can be rearranged, without losing value or singletons,
    so that its singleton bundles hold the leading items; searching the
    prefix length top-down therefore finds the global maximum.
    """
    inst = ordered.instance
    n, m = inst.n, inst.m
    row = inst.row(agent)
    t_max = min(n, m)
    if inst.kind == GOODS and mu > 0:
        k = count_high_items(ordered, agent, mu)
        t_max = min(t_max, k)
    for t in range(t_max, -1, -1):
        if t < m and n - t == 0:
            continue
        rest = range(t + 1, m + 1)
        parts = _residual_feasible(inst, agent, list(rest), n - t, mu)
        if parts is None:
            continue
        singles = tuple(frozenset({j}) for j in range(1, t + 1))
        partition = singles + parts
        count = sum(1 for b in partition if len(b) == 1)
        return StructuredPartition(partition=partition, singleton_count=count)
    raise InternalInvariantViolation(
        f"no structured MMS partition found for agent {agent}"
    )


def structured_partition_goods(
    ordered: OrderedInstance, agent: int, mu
) -> StructuredPartition:
    if ordered.kind != GOODS:
        raise ValueError("goods instance required")
    sp = _structured(ordered, agent, mu)
    n = ordered.n
    k = count_high_items(ordered, agent, mu) if mu > 0 else ordered.m
    if sp.singleton_count < min(n - 1, k):
        raise InternalInvariantViolation(
            f"agent {agent}: {sp.singleton_count} singletons, "
            f"expected >= {min(n - 1, k)}"
        )
    return sp


def normalize_pair_bundle(partition: tuple, n: int) -> tuple:
    """Rewrite a size-2 bundle disjoint from {1..n-1} to {n, n+1}.

    Swaps the pair's chores with n and n+1 wherever they sit; bundle
    cardinalities and the positions of chores 1..n-1 are unchanged.
    """
    target = None
    for b in partition:
        if len(b) == 2 and min(b) >= n:
            target = b
            break
    if target is None or target == frozenset({n, n + 1}):
        return partition
    x, y = sorted(target)
    swap = {}
    if x != n:
        swap[x], swap[n] = n, x
    if y != n + 1:
        swap[y], swap[n + 1] = n + 1, y
    return tuple(frozenset(swap.get(j, j) for j in b) for b in partition)


def structured_partition_chores(
    ordered: OrderedInstance, agent: int, mu
) -> StructuredPartition:
    if ordered.kind != CHORES:
        raise ValueError("chores instance required")
    sp = _structured(ordered, agent, mu)
    return StructuredPartition(
        partition=normalize_pair_bundle(sp.partition, ordered.n),
        singleton_count=sp.singleton_count,
    )


def find_allocation_meeting(
    instance: Instance, thresholds, cap: int = DEFAULT_EXHAUSTIVE_CAP
):
    """An allocation giving each agent i at least thresholds[i-1], or None.

    The search is exhaustive (with sound pruning only), so None is a proof
    of nonexistence.
    """
    n, m = instance.n, instance.m
    if n**m > cap:
        raise TooLarge(f"{n}^{m} assignments exceed the cap {cap}")
    xs = [v if isinstance(v, Fraction) else Fraction(v) for v in thresholds]
    if len(xs) != n:
        raise ValueError("one threshold per agent required")
    rows = [instance.row(i) for i in range(1, n + 1)]
    # positive-part suffix sums: the most an agent can still gain
    gain = [[Fraction(0)] * (m + 1) for _ in range(n)]
    for i in range(n):
        for t in range(m - 1, -1, -1):
            gain[i][t] = gain[i][t + 1] + max(rows[i][t], Fraction(0))
    # least-damage suffix: each leftover item must go somewhere
    cheapest = [Fraction(0)] * (m + 1)
    for t in range(m - 1, -1, -1):
        cheapest[t] = cheapest[t + 1] + min(max(rows[i][t] for i in range(n)), 0)

    sums = [Fraction(0)] * n
    assign = [0] * m
    found = None

    def dfs(t: int) -> bool:
        nonlocal found
        if t == m:
            if all(sums[i] >= xs[i] for i in range(n)):
                found = assign[:]
                return True
            return False
        slack = Fraction(0)
        for i in range(n):
            if sums[i] + gain[i][t] < xs[i]:
                return False
            slack += sums[i] - xs[i] + gain[i][t]
        if slack + cheapest[t] < 0:
            return False
        for j in range(n):
            sums[j] += rows[j][t]
            assign[t] = j
            if dfs(t + 1):
                return True
            sums[j] -= rows[j][t]
        return False

    if not dfs(0):
        return None
    parts = [set() for _ in range(n)]
    for pos, b in enumerate(found):
        parts[b].add(pos + 1)
    return tuple(frozenset(p) for p in parts)

