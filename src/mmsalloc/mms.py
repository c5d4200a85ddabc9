"""Exact MMS values, witness partitions, and threshold-feasibility search.

One exact share oracle computes maximin shares.  A plain enumeration,
``exhaustive_partition`` (the reference, capped), is independent of it;
the test suite checks they agree wherever the enumeration is feasible.

The share oracle is one decision search: can every one of the n bundles
reach a target (goods), or can n bundles of a given capacity hold every
chore?  A decision returns the split it finds, or None.  The share
(``_share``) is a bundle sum, so targets are the row's subset sums (one
big-int bitset per row), stepped from the greedy value toward
``_share_bound``; the last one met is the share, and two bundles need no
search.  A row of m < 2n items first sheds 2n - m singletons (the peel).
Goods are decided by peeling the goods worth the target and bin
completion on the rest (``_complete``); chores are packed item by item
(``_pack``).  Each decision of either kind has its own node budget,
``SEARCH_NODES``, and past it or the stack raises TooLarge.  The witness
partition (``_split``) is the greedy partition when that meets the share,
and otherwise the split of one decision at the share, computed afresh on
each request; ``maximin_partition`` is the only way to ask for one.  The
share cache maps each sorted row to its share alone: ``row_share`` reads
it, as ``mms_value`` does, whose record holds the share and nothing else.
``mu_vector`` returns the shares of all agents by value and skips the
records; the solver and certification use it, and trace replay for its
base rows.  A structured witness (``structured_partition_goods``,
``structured_partition_chores``) is a tuple of n frozensets with as many
leading singletons as the other items allow.  ``find_allocation_meeting``
is the exhaustive threshold search, bounded by its node budget
``SEARCH_NODES``; on the solve path only the pipeline runs it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapreplace
from itertools import accumulate
from math import lcm

from .core import CHORES, GOODS, Instance, as_exact, drop_oldest
from .errors import DanglingReference, InternalInvariantViolation, TooLarge

DEFAULT_EXHAUSTIVE_CAP = 10**8
# Nodes one threshold search, or one share decision, may visit before it
# gives up: about 10 s.
SEARCH_NODES = 10**7


class MmsRecord:
    """An agent's maximin share ``mu``.  Its witness partition comes from
    ``maximin_partition``."""

    __slots__ = ("agent", "mu")

    def __init__(self, agent: int, mu: int | Fraction):
        self.agent = agent
        self.mu = mu


# Shares keyed by (sorted values, bundle count, goods?).  Once the cache
# holds _BNB_CACHE_LIMIT entries its oldest quarter is evicted
# (``drop_oldest``).
_BNB_CACHE_LIMIT = 1 << 14
_bnb_cache: dict = {}

# Rows whose values sum past this get no subset-sum bitset (one bit per
# attainable sum): their targets are bisected and two bundles are searched.
_SUBSET_SUM_LIMIT = 1 << 20


def clear_caches() -> None:
    _bnb_cache.clear()


def _share_bound(vals, n: int, goods: bool) -> int:
    """A value the share of the non-increasing integer row `vals` (>= 0)
    cannot pass: an upper bound for goods, a lower bound for chores."""
    m = len(vals)
    total = sum(vals)
    if goods:
        # Whatever bundles hold the k largest goods, n - k others share the rest.
        bound = total // n
        rest = total
        for k in range(1, min(n, m + 1)):
            rest -= vals[k - 1]
            bound = min(bound, rest // (n - k))
        return bound
    bound = max(-(-total // n), vals[0] if m else 0)
    if m > n:
        # Two of the n + 1 largest chores share a bundle.
        bound = max(bound, vals[n - 1] + vals[n])
    return bound


def _suffix_sums(vals) -> list:
    """suffix[t] = sum(vals[t:]) for t = 0..len(vals)."""
    return list(accumulate(reversed(vals), initial=0))[::-1]


def _subset_sums(vals):
    """The subset sums of the integers `vals` (>= 0) as a bitset: bit s is
    set when some sub-multiset sums to s.  `_share` asks for it only while
    the sum is at most _SUBSET_SUM_LIMIT, which bounds it at 128 KiB."""
    bits = 1
    for v in vals:
        bits |= bits << v
    return bits


def _above(bits, t: int) -> int:
    """The least subset sum above t; some subset sum must lie above t."""
    higher = bits >> (t + 1)
    return t + (higher & -higher).bit_length()


def _below(bits, t: int) -> int:
    """The greatest subset sum at or below t >= 0."""
    return (bits & ((2 << t) - 1)).bit_length() - 1


def _share(vals: tuple, n: int, goods: bool) -> int:
    """Exact share of the non-increasing integer row `vals` (>= 0) split
    into n bundles: for goods the best minimum bundle sum, for chores
    (absolute values) the best maximum.  Fewer than 2n items peel: p =
    2n - m bundles hold one item, so the share is that of the 2(m - n)
    smallest items in m - n bundles (not cached), capped by the p-th good
    or floored by the largest chore.

    The greedy (longest processing time) value is met and `_share_bound`
    cannot be passed, and the share lies between them.  A share is a bundle
    sum, so only the row's subset sums are candidates: targets step from
    the greedy value toward the bound over subset sums, and the last target
    met is the share.  On most rows the share is the greedy value and one
    refuted decision settles it.  Two bundles need no search: the best
    split puts the largest subset sum at or below half the total on one
    side.  A row too large for a bitset bisects the integers between the
    greedy value and the bound instead.
    """
    m = len(vals)
    if n < 1:
        raise ValueError(f"at least one bundle required, not {n}")
    if n == 1:
        return sum(vals)
    if goods:
        if m <= n:
            return vals[-1] if m == n else 0
    elif m <= n:
        return vals[0] if m else 0
    if m < 2 * n:
        p = 2 * n - m
        tail = _share(vals[p:], m - n, goods)
        return min(vals[p - 1], tail) if goods else max(vals[0], tail)
    loads = [0] * n
    for v in vals:
        heapreplace(loads, loads[0] + v)
    greedy = loads[0] if goods else max(loads)
    bound = _share_bound(vals, n, goods)
    if greedy == bound:
        return greedy
    total = sum(loads)
    if total > _SUBSET_SUM_LIMIT:
        met, refuted = greedy, bound + 1 if goods else bound - 1
        while abs(refuted - met) > 1:
            mid = (met + refuted) // 2
            if _meets(vals, n, goods, mid) is not None:
                met = mid
            else:
                refuted = mid
        return met
    bits = _subset_sums(vals)
    if n == 2:
        half = _below(bits, total // 2)
        return half if goods else total - half
    share = greedy
    while True:
        target = _above(bits, share) if goods else _below(bits, share - 1)
        past = target > bound if goods else target < bound
        if past or _meets(vals, n, goods, target) is None:
            return share
        share = target


def _meets(vals, n: int, goods: bool, target: int):
    """A split of the row `vals` into n bundles that meets `target`, each
    bundle worth at least it (goods) or at most it (chores), as `_reaches`
    or `_pack` returns it, or None when there is none.  Past its node
    budget or the interpreter's recursion limit it raises TooLarge, as the
    threshold search does."""
    left = [SEARCH_NODES]
    try:
        if goods:
            return _reaches(vals, n, target, left)
        return _pack(vals, _suffix_sums(vals), [0] * n, target, 0, left)
    except RecursionError:
        raise TooLarge(f"share search over {len(vals)} items past the stack") from None


def _reaches(vals, n: int, target: int, left: list):
    """A split of the goods row `vals` (non-increasing, >= 0) into n bundles
    each worth `target` (> 0), as lists of values, or None.

    A good worth `target` or more takes a bundle of its own: its
    bundle-mates, moved elsewhere, only raise the other bundles.  Zero goods
    raise no bundle and join any.  The rest go to bin completion
    (`_complete`).  Fewer than n goods reach `target`: every caller asks
    for a target above the greedy value, which is at least vals[n - 1]
    because the first n goods open the n bundles.
    """
    m = len(vals)
    k = 0
    while k < m and vals[k] >= target:
        k += 1
    while m > k and vals[m - 1] == 0:
        m -= 1
    slack = sum(vals[k:m]) - (n - k) * target
    if slack < 0:
        return None
    split = _complete(list(vals[k:m]), n - k, target, slack, left)
    if split is not None:
        split[-1] += vals[m:]
        split += ([v] for v in vals[:k])
    return split


def _complete(items: list, n: int, target: int, slack: int, left: list):
    """Bin completion: a split of the goods `items` (non-increasing, each in
    (0, target), summing to n * target + slack) into n bundles each worth
    `target`, or None.

    The bundle of the largest good is completed first, in every way that is
    minimal (dropping its smallest good leaves it below `target`) and wastes
    no more than `slack`: a good beyond a minimal completion can join any
    other bundle instead, and the last bundle takes every good left.  Every
    good is below `target`, so each bundle needs two.  The completed bundle
    comes last in the split."""
    if n == 1:
        return [items]
    if len(items) < 2 * n:
        return None
    rest = items[1:]
    need = target - items[0]
    split = _extend(rest, _suffix_sums(rest), 0, need, [], n, target, slack, left)
    if split is not None:
        split[-1].append(items[0])
    return split


def _extend(rest, suffix, start, need, chosen: list, n, target, slack, left: list):
    """Add goods of rest[start:] to the bundle being completed, which lacks
    `need`; `chosen` lists the positions in `rest` it already holds.  On
    success the split's last bundle holds the goods of `chosen`.

    Of the goods that close the bundle alone only the smallest is tried:
    swapped with a larger one, it leaves the bundle closed and raises the
    other.  The goods below `need` are added in turn, each value once, and
    the search goes on from the next position.  Each call is one node,
    charged to `left[0]` as `_pack` charges it.  (A module-level recursion:
    a nested one would leave a reference cycle per call.)"""
    if left[0] <= 0:
        raise TooLarge(f"share search past {SEARCH_NODES} nodes")
    left[0] -= 1
    m = len(rest)
    j = start
    while j < m and rest[j] >= need:
        j += 1
    if j > start and rest[j - 1] - need <= slack:
        chosen.append(j - 1)
        others = [v for i, v in enumerate(rest) if i not in chosen]
        split = _complete(others, n - 1, target, slack - rest[j - 1] + need, left)
        if split is not None:
            split.append([rest[i] for i in chosen])
            return split
        chosen.pop()
    last = None
    for i in range(j, m):
        if suffix[i] < need:
            return None
        v = rest[i]
        if v == last:
            continue
        last = v
        chosen.append(i)
        split = _extend(rest, suffix, i + 1, need - v, chosen, n, target, slack, left)
        if split is not None:
            return split
        chosen.pop()
    return None


def _pack(vals, suffix, loads, capacity: int, t: int, left: list):
    """A split of the chores vals[t:] over the bundles of `loads`, each
    holding at most `capacity`, as a list whose entry t' >= t is the bundle
    of chore t', or None.  Items are branched in row order over the bundles
    they fit in; the room left in a bundle counts only while the smallest
    chore still fits there.  Each call is one node, charged to `left[0]`;
    with none left it raises TooLarge."""
    if left[0] <= 0:
        raise TooLarge(f"share search past {SEARCH_NODES} nodes")
    left[0] -= 1
    if t == len(vals):
        return [0] * t
    smallest = vals[-1]
    room = 0
    for load in loads:
        if capacity - load >= smallest:
            room += capacity - load
    if suffix[t] > room:
        return None
    v = vals[t]
    seen = set()
    for j, load in enumerate(loads):
        if load + v > capacity or load in seen:
            continue
        seen.add(load)
        loads[j] = load + v
        split = _pack(vals, suffix, loads, capacity, t + 1, left)
        loads[j] = load
        if split is not None:
            split[t] = j
            return split
    return None


def _entry(key: tuple, share) -> int:
    """The cached share of `key` given what a probe for it returned,
    `share`: computed and stored on a miss (None)."""
    if share is None:
        if len(_bnb_cache) >= _BNB_CACHE_LIMIT:
            drop_oldest(_bnb_cache)
        share = _bnb_cache[key] = _share(*key)
    return share


def _split(vals: tuple, n: int, goods: bool) -> tuple:
    """The share of the non-increasing integer row `vals` (>= 0) and a
    witness: (share, assignment list mapping item position -> bundle).

    The share comes from the cache; the witness is computed on each call.
    It is the greedy partition (each item in row order to the first
    least-loaded bundle) when that meets the share, and otherwise the split
    one decision at the share returns; a goods split holds values, which
    map back to positions because equal values are interchangeable.
    """
    key = (vals, n, goods)
    share = _entry(key, _bnb_cache.get(key))
    loads = [0] * n
    assign = [0] * len(vals)
    for t, v in enumerate(vals):
        j = loads.index(min(loads))
        loads[j] += v
        assign[t] = j
    if (min(loads) if goods else max(loads)) != share:
        split = _meets(vals, n, goods, share)
        if split is None:
            raise InternalInvariantViolation(f"no split meets the share {share}")
        if goods:
            where = {}
            for t, v in enumerate(vals):
                where.setdefault(v, []).append(t)
            for b, bundle in enumerate(split):
                for v in bundle:
                    assign[where[v].pop()] = b
        else:
            assign = split
    return share, assign


def _scaled(values, sign: int):
    """The values times `sign` and the lcm of their denominators, as ints,
    and that lcm.  Values that are all ints (their sum is an int; a single
    Fraction would make it a Fraction) are only negated for chores."""
    if type(sum(values)) is int:
        return (values if sign == 1 else [-v for v in values]), 1
    scale = lcm(*(v.denominator for v in values))
    return [int(sign * scale * v) for v in values], scale


def _unscaled(value: int, sign: int, scale: int) -> int | Fraction:
    if scale == 1:
        return sign * value
    return as_exact(Fraction(sign * value, scale))


def row_share(row, bundles: int, goods: bool) -> int | Fraction:
    """The exact share of one row of values, in any order, split into
    `bundles` bundles.  The sorted row (chores negated) is probed first, so
    a hit costs one sort and one probe: keys are integer rows, which a row
    with a non-integral Fraction never equals, and integral Fractions share
    the entry of the equal ints.  A miss scales a non-integer row to
    integers.  Raises ValueError for fewer than one bundle."""
    sign = 1 if goods else -1
    vals = tuple(sorted(row, reverse=True) if goods else [-v for v in sorted(row)])
    key = (vals, bundles, goods)
    share = _bnb_cache.get(key)
    if share is None:
        if type(sum(vals)) is not int:
            scaled, scale = _scaled(vals, 1)
            key = (tuple(scaled), bundles, goods)
            return _unscaled(_entry(key, _bnb_cache.get(key)), sign, scale)
        share = _entry(key, None)
    return sign * share


def _check_agent(instance: Instance, agent: int) -> None:
    if not 1 <= agent <= instance.n:
        raise DanglingReference(f"agent {agent} is not in the instance")


def maximin_partition(instance: Instance, agent: int, items=None, bundles=None):
    """Best achievable worst-bundle value and a partition reaching it, both
    from the share oracle's decision search: the greedy partition when it
    meets the share, otherwise the split a decision at the share returns.

    `items` restricts the search to a subset of item ids (default: all) and
    `bundles` sets the bundle count (default: n); the solvers use both to
    probe constrained partition shapes.  Returns (value, tuple of frozensets).
    Raises DanglingReference for an agent or item id outside the instance
    and ValueError for repeated items or fewer than one bundle.
    """
    _check_agent(instance, agent)
    if items is None:
        ids = range(1, instance.m + 1)
    else:
        ids = sorted(items)
        for j in ids:
            if not 1 <= j <= instance.m:
                raise DanglingReference(f"item {j} is not in the instance")
        if len(set(ids)) != len(ids):
            raise ValueError(f"items repeat: {ids}")
    k = bundles if bundles is not None else instance.n
    row = instance.valuations[agent - 1]
    sign = 1 if instance.kind == GOODS else -1
    scaled, scale = _scaled([row[j - 1] for j in ids], sign)
    # highest value first, ties by id: a reverse sort is stable
    order = sorted(range(len(scaled)), key=scaled.__getitem__, reverse=True)
    value, assign = _split(tuple([scaled[t] for t in order]), k, sign == 1)
    parts = [[] for _ in range(k)]
    for t, b in zip(order, assign):
        parts[b].append(ids[t])
    return _unscaled(value, sign, scale), tuple([frozenset(p) for p in parts])


def exhaustive_partition(
    instance: Instance, agent: int, cap: int = DEFAULT_EXHAUSTIVE_CAP
):
    """The reference oracle: the agent's maximin share and a partition
    reaching it, from every one of the n^m assignments, unpruned.  Raises
    DanglingReference for an agent outside the instance and TooLarge past
    `cap` assignments."""
    _check_agent(instance, agent)
    n, m = instance.n, instance.m
    if n**m > cap:
        raise TooLarge(f"{n}^{m} assignments exceed the cap {cap}")
    best = [None, None]
    _walk(instance.row(agent), [0] * n, [0] * m, 0, best)
    best_value, best_assign = best
    parts = [set() for _ in range(n)]
    for pos, b in enumerate(best_assign):
        parts[b].add(pos + 1)
    return best_value, tuple(frozenset(p) for p in parts)


def _walk(row, sums, assign, t: int, best: list) -> None:
    """Every assignment of items t.. to the bundles of `sums`, unpruned;
    `best` holds [value, assignment] of the first best one found.  (A
    module-level recursion: a nested one would leave a reference cycle per
    call.)"""
    if t == len(row):
        v = min(sums)
        if best[0] is None or v > best[0]:
            best[0] = v
            best[1] = assign[:]
        return
    for j in range(len(sums)):
        sums[j] += row[t]
        assign[t] = j
        _walk(row, sums, assign, t + 1, best)
        sums[j] -= row[t]


def mms_value(instance: Instance, agent: int) -> MmsRecord:
    """Exact maximin share of one agent, from the decision search alone;
    its witness partition comes from ``maximin_partition``.  Raises
    DanglingReference for an agent outside the instance.
    """
    _check_agent(instance, agent)
    return MmsRecord(
        agent,
        row_share(instance.valuations[agent - 1], instance.n, instance.kind == GOODS),
    )


def mu_vector(instance: Instance) -> tuple:
    """Exact MMS of every agent, as a tuple indexed by agent-1: the values
    of ``mms_value`` without building a record per agent."""
    n = instance.n
    goods = instance.kind == GOODS
    return tuple([row_share(row, n, goods) for row in instance.valuations])


def count_high_items(instance: Instance, agent: int, mu) -> int:
    """Number of leading goods the agent values at mu or higher."""
    row = instance.row(agent)
    k = next((t for t, v in enumerate(row) if v < mu), len(row))
    n, m = instance.n, instance.m
    c = m - n
    if n > c > 0 and k < n - c:
        raise InternalInvariantViolation(
            f"agent {agent}: only {k} items at or above mu, expected >= {n - c}"
        )
    return k


def _structured(instance: Instance, agent: int, mu, high: int) -> tuple:
    """Max-singleton MMS partition of a sorted instance: singletons {1}..{t},
    with t <= `high` as large as the other items allow, then n - t bundles of
    the other items, each worth mu or more.

    Any MMS partition can be rearranged, without losing value or singletons,
    so that its singleton bundles hold the leading items; searching the
    prefix length top-down therefore finds the global maximum.  The prefix
    t = n leaves no bundle for other items: it works only when there are none.
    """
    n, m = instance.n, instance.m
    if n == m <= high:
        return tuple(frozenset({j}) for j in range(1, n + 1))
    row = instance.row(agent)
    goods = instance.kind == GOODS
    for t in range(min(n - 1, high), -1, -1):
        if row_share(row[t:], n - t, goods) >= mu:
            singles = tuple(frozenset({j}) for j in range(1, t + 1))
            rest = maximin_partition(instance, agent, range(t + 1, m + 1), n - t)
            return singles + rest[1]
    raise InternalInvariantViolation(
        f"no structured MMS partition found for agent {agent}"
    )


def structured_partition_goods(instance: Instance, agent: int, mu) -> tuple:
    """The agent's max-singleton MMS partition of a sorted goods instance
    (``_structured``), as a tuple of n frozensets."""
    if instance.kind != GOODS:
        raise ValueError("goods instance required")
    high = count_high_items(instance, agent, mu) if mu > 0 else instance.m
    partition = _structured(instance, agent, mu, high)
    singles = sum(1 for b in partition if len(b) == 1)
    if singles < min(instance.n - 1, high):
        raise InternalInvariantViolation(
            f"agent {agent}: {singles} singletons, "
            f"expected >= {min(instance.n - 1, high)}"
        )
    return partition


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


def structured_partition_chores(instance: Instance, agent: int, mu) -> tuple:
    """The agent's max-singleton MMS partition of a sorted chores instance
    (``_structured``), as a tuple of n frozensets, with a pair bundle past
    the first n - 1 chores moved onto chores n and n + 1."""
    if instance.kind != CHORES:
        raise ValueError("chores instance required")
    partition = _structured(instance, agent, mu, instance.m)
    return normalize_pair_bundle(partition, instance.n)


def find_allocation_meeting(instance: Instance, thresholds):
    """An allocation giving each agent i at least thresholds[i-1], or None.

    The search is exhaustive (with sound pruning only), so None is a proof
    of nonexistence.  Past ``SEARCH_NODES`` nodes, or past the
    interpreter's recursion limit (one frame per item), it raises TooLarge.
    """
    n, m = instance.n, instance.m
    xs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in thresholds]
    if len(xs) != n:
        raise ValueError("one threshold per agent required")
    rows = [instance.row(i) for i in range(1, n + 1)]
    # positive-part suffix sums: the most an agent can still gain
    gain = [[0] * (m + 1) for _ in range(n)]
    for i in range(n):
        for t in range(m - 1, -1, -1):
            gain[i][t] = gain[i][t + 1] + max(rows[i][t], 0)
    # best-case suffix: the most the leftover items can add to all totals
    best = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        best[t] = best[t + 1] + max(rows[i][t] for i in range(n))

    assign = [0] * m
    goods = instance.kind == GOODS
    try:
        found = _meet(rows, gain, best, goods, xs, [0] * n, assign, 0, [SEARCH_NODES])
    except RecursionError:
        # one frame per item: a residual deeper than the interpreter's stack
        # is past this search, as a spent budget is
        raise TooLarge(f"threshold search over {m} items past the stack") from None
    if not found:
        return None
    parts = [set() for _ in range(n)]
    for pos, b in enumerate(assign):
        parts[b].add(pos + 1)
    return tuple(frozenset(p) for p in parts)


def _meet(rows, gain, best, goods, xs, sums, assign, t: int, left: list) -> bool:
    """Can items t.. be assigned so that every agent i's total in `sums`
    reaches xs[i]?  On success `assign` holds the assignment found.  Each
    call is one node, charged to `left[0]`; with none left it raises
    TooLarge.  An agent who cannot gain what she lacks prunes the node, as
    does a total need past `best[t]`, the most items t.. can add to all
    totals: for goods the sum of what the agents lack, for chores minus the
    room they have left.  (A module-level recursion: a nested one would
    leave a reference cycle per search.)"""
    if left[0] <= 0:
        raise TooLarge(f"threshold search past {SEARCH_NODES} nodes")
    left[0] -= 1
    n = len(xs)
    if t == len(assign):
        return all(sums[i] >= xs[i] for i in range(n))
    need = 0
    for i in range(n):
        short = xs[i] - sums[i]
        if gain[i][t] < short:
            return False
        if short > 0 or not goods:
            need += short
    if need > best[t]:
        return False
    for j in range(n):
        sums[j] += rows[j][t]
        assign[t] = j
        if _meet(rows, gain, best, goods, xs, sums, assign, t + 1, left):
            return True
        sums[j] -= rows[j][t]
    return False
