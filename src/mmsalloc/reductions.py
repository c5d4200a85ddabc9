"""Valid reductions: award bundles to some agents, shrink the instance.

A step is *valid* when every awarded agent values her bundle at her maximin
share or higher, and no remaining agent's maximin share decreases in the
residual instance.  Rules here only emit steps whose validity follows from
their preconditions; ``verify_step`` re-checks both conditions from scratch
with exact arithmetic and is the oracle the test suite leans on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, compress

from .core import (
    CHORES,
    GOODS,
    Instance,
    bundle_value,
    shared_bundle,
)
from .domination import group_tail_bundles, pick_dominated
from .errors import DanglingReference, MalformedDocument, PreconditionUnmet
from .mms import maximin_partition, mu_vector, row_share
# Unused here: the bench's tracer patches this binding, which
# test_tracing_patches_every_binding_and_restores_it asserts.
from .mms import mms_value  # noqa: F401

RULE_SINGLE_ITEM = "single_item"
RULE_PAIR_BLOCKABLE = "pair_blockable"
RULE_PIGEONHOLE_PAIR = "pigeonhole_pair"
RULE_PAIR_FROM_HIGH = "pair_from_high"
RULE_DOMINATION = "domination"
RULE_EFM_BATCH = "efm_batch"

ALL_RULES = (
    RULE_SINGLE_ITEM,
    RULE_PAIR_BLOCKABLE,
    RULE_PIGEONHOLE_PAIR,
    RULE_PAIR_FROM_HIGH,
    RULE_DOMINATION,
    RULE_EFM_BATCH,
)


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One valid reduction: a rule id plus the removed agents' awards."""

    rule: str
    assignments: tuple  # of (agent, frozenset) pairs, ascending agent id

    def agents(self) -> tuple:
        return tuple(a for a, _ in self.assignments)

    def items(self) -> frozenset:
        out: set = set()
        for _, bundle in self.assignments:
            out |= bundle
        return frozenset(out)


def make_step(rule: str, awards) -> ReductionStep:
    """Normalize and sanity-check an (agent -> bundle) mapping into a step.

    Its bundles are plain frozensets, not shared ones (``core.shared_bundle``):
    ``Pipeline.push`` shares the bundles it keeps, in companion ids, and a
    frozenset bundle, shared or not, is kept as the same object."""
    if rule not in ALL_RULES:
        raise ValueError(f"unknown rule id {rule!r}")
    pairs = sorted([(a, frozenset(b)) for a, b in dict(awards).items()])
    if not pairs:
        raise PreconditionUnmet("a step must award at least one agent")
    seen: set = set()
    for _, bundle in pairs:
        if not seen.isdisjoint(bundle):
            raise PreconditionUnmet("awarded bundles overlap")
        seen |= bundle
    return ReductionStep(rule=rule, assignments=tuple(pairs))


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    """A replayable certificate: steps applied in order, then a final
    allocation of whatever instance remains."""

    steps: tuple
    final: tuple  # allocation of the residual instance (may be empty)

    def allocation(self, n: int) -> tuple:
        """The allocation of the n-agent base instance that the trace
        describes: each step's awards, then the final bundles to the agents
        no step awarded, in ascending id order as the residual keeps them.
        An agent left without a final bundle gets the empty one."""
        bundles = [None] * n
        for step in self.steps:
            for agent, bundle in step.assignments:
                if 0 < agent <= n:
                    bundles[agent - 1] = bundle
        final = iter(self.final)
        return tuple([next(final, frozenset()) if b is None else b for b in bundles])


# --- individual rules --------------------------------------------------------

def reduce_single_item(instance: Instance, mu) -> ReductionStep | None:
    """Award a single good worth an agent's full share.

    Only sound for goods: the removed item's bundle-mates can be spread over
    the other bundles without lowering them.  Picks the largest qualifying
    item, then the lowest agent id.
    """
    if instance.kind != GOODS:
        return None
    best = None
    for i in range(1, instance.n + 1):
        row = instance.row(i)
        for j in range(instance.m, 0, -1):
            if row[j - 1] >= mu[i - 1]:
                if best is None or j > best[1] or (j == best[1] and i < best[0]):
                    best = (i, j)
                break  # smaller j can only tie or lose for this agent
    if best is None:
        return None
    i, j = best
    return make_step(RULE_SINGLE_ITEM, {i: {j}})


def reduce_pair_blockable(instance: Instance, mu) -> ReductionStep | None:
    """Award a pair one agent accepts and nobody else would block.

    Valid for goods and chores alike: every other agent values the pair at
    most at her share, so she can set the pair aside as one bundle of a new
    partition and keep her other n-1 bundles intact.
    """
    rows = instance.valuations
    for i, row in enumerate(rows):
        for j, jp in combinations(range(instance.m), 2):
            if row[j] + row[jp] < mu[i]:
                continue
            blocked = False
            for ip, other in enumerate(rows):
                if ip != i and other[j] + other[jp] > mu[ip]:
                    blocked = True
                    break
            if not blocked:
                return make_step(RULE_PAIR_BLOCKABLE, {i + 1: {j + 1, jp + 1}})
    return None


def reduce_pigeonhole_pair(instance: Instance, mu) -> ReductionStep | None:
    """Award goods {n, n+1} to an agent who values the pair at her share.

    In an ordered goods instance with m > n, some bundle of any partition
    holds two of the n+1 best goods, so every agent values {n, n+1} at most
    at her share and the removal blocks nobody.
    """
    if instance.kind != GOODS or instance.m < instance.n + 1:
        return None
    n = instance.n
    for i in range(1, n + 1):
        if instance.value(i, n) + instance.value(i, n + 1) >= mu[i - 1]:
            return make_step(RULE_PIGEONHOLE_PAIR, {i: {n, n + 1}})
    return None


def reduce_pair_from_high(instance: Instance, mu) -> ReductionStep | None:
    """Award {j, m} when exactly one agent values good j at her share.

    The unique qualifier takes good j plus the worst good; everyone else
    strictly prefers each of her own bundles to {j, m}, because j alone is
    already below her share and m is the worst good.
    """
    if instance.kind != GOODS:
        return None
    n, m = instance.n, instance.m
    for j in range(1, m):
        qualifiers = [
            i for i in range(1, n + 1) if instance.value(i, j) >= mu[i - 1]
        ]
        if not qualifiers:
            return None  # rows are non-increasing; later items have fewer
        if len(qualifiers) == 1:
            return make_step(RULE_PAIR_FROM_HIGH, {qualifiers[0]: {j, m}})
    return None


def reduce_by_domination(instance: Instance, group, mu) -> ReductionStep:
    """Composite step built around a group of same-size tail bundles, a
    map from the group's agents to their bundles.

    The group's bundles share a (k-1)-subset, so one of them is comparable
    to all others under domination: for goods the bundle with the worst
    extra item is dominated by every other, for chores the bundle with the
    worst extra item dominates every other.  That bundle goes to its owner.
    Every agent outside the group is removed with a singleton: the leading
    items for goods (plus, when the group is smaller than c, the items just
    past the shared-singleton zone), the worst chores for chores.  Value
    floors for all singleton awards are re-checked here, and ``make_step``
    rejects a singleton landing in the bundle: both raise PreconditionUnmet,
    as they encode assumptions about the caller's bundle-size bookkeeping.
    """
    kind = instance.kind
    n, m = instance.n, instance.m
    c = m - n
    owner, bundle = pick_dominated(group, kind)
    if bundle_value(instance, owner, bundle) < mu[owner - 1]:
        raise PreconditionUnmet(
            f"agent {owner} does not accept the distinguished bundle"
        )

    outside = [i for i in range(1, n + 1) if i not in group]
    awards = {owner: set(bundle)}

    if kind == CHORES:
        # Worst chores go out one per agent; any single chore meets any share.
        for pos, agent in enumerate(sorted(outside), start=1):
            if instance.value(agent, pos) < mu[agent - 1]:
                raise PreconditionUnmet(
                    f"agent {agent} values chore {pos} below her share"
                )
            awards[agent] = {pos}
        return make_step(RULE_DOMINATION, awards)

    q = len(outside)
    d = max(0, q - (n - c))
    k = len(bundle)
    if d > max(0, k - 1):
        raise PreconditionUnmet(
            f"group of {len(group)} leaves {d} surplus agents for {k}-bundles"
        )
    high_items = [n - c + t for t in range(1, d + 1)]
    eligible = [
        i for i in outside
        if d == 0 or instance.value(i, n - c + d) >= mu[i - 1]
    ]
    if d > 0 and len(eligible) < d:
        raise PreconditionUnmet("not enough agents accept the post-zone singletons")
    high_takers = eligible[:d] if d > 0 else []
    low_takers = [i for i in outside if i not in high_takers]
    for item, agent in zip(high_items, high_takers):
        awards[agent] = {item}
    for item, agent in zip(range(1, q - d + 1), low_takers):
        if instance.value(agent, item) < mu[agent - 1]:
            raise PreconditionUnmet(
                f"agent {agent} values good {item} below her share"
            )
        awards[agent] = {item}
    return make_step(RULE_DOMINATION, awards)


def reduce_by_tail_group(
    instance: Instance, tails, mu, thresholds
) -> ReductionStep | None:
    """Domination award on the first large enough group of tail bundles.

    ``tails`` maps agents to their tail bundle.  For each ``(k, threshold)``
    in ``thresholds``, in order, the size-k tails are grouped by shared
    (k-1)-subsets, and the groups are tried in sorted-key order: the first
    with ``threshold`` distinct agents whose domination award goes through
    gives the step.  Returns None when no group fires.
    """
    for k, threshold in thresholds:
        groups = group_tail_bundles(tails, k)
        for key in sorted(groups, key=lambda s: tuple(sorted(s))):
            grp = groups[key]
            if len(grp) >= threshold:
                try:
                    return reduce_by_domination(instance, grp, mu)
                except PreconditionUnmet:
                    continue
    return None


def base_identical_partitions(instance: Instance) -> tuple:
    """Full allocation for one or two agents.

    A single agent takes everything.  With two, agent 2 takes her better
    bundle of agent 1's witness partition and agent 1 the other: her total
    is at least twice her share, so her better half clears it, and each
    witness bundle clears agent 1's share.
    """
    if instance.n == 1:
        return (frozenset(range(1, instance.m + 1)),)
    first, second = maximin_partition(instance, 1)[1]
    row = instance.valuations[1]
    gain = sum([row[j - 1] for j in first]) - sum([row[j - 1] for j in second])
    # on a tie agent 2 takes the bundle whose sorted item ids come first
    if gain > 0 or (gain == 0 and sorted(first) <= sorted(second)):
        return (second, first)
    return (first, second)


# --- application and verification -------------------------------------------

def apply_with_maps(instance: Instance, step: ReductionStep):
    """Residual instance after removing a step's agents and items.

    Ids are compacted but keep their relative order, so ordered instances
    stay ordered and positional arguments (n, n+1, ...) stay meaningful.
    Returns (residual, kept_agents, kept_items): residual agent i' and item
    j' are agent kept_agents[i'-1] and item kept_items[j'-1] of `instance`.
    """
    n, m = instance.n, instance.m
    gone_agents = set()
    gone_items = set()
    for a, bundle in step.assignments:
        gone_agents.add(a)
        gone_items |= bundle
    for a in gone_agents:
        if not 1 <= a <= n:
            raise DanglingReference(f"agent {a} is not in the instance")
    for j in gone_items:
        if not 1 <= j <= m:
            raise DanglingReference(f"item {j} is not in the instance")
    keep_agents = [i for i in range(1, n + 1) if i not in gone_agents]
    kept = [j not in gone_items for j in range(1, m + 1)]
    valuations = instance.valuations
    rows = tuple([tuple(compress(valuations[i - 1], kept)) for i in keep_agents])
    residual = Instance(kind=instance.kind, valuations=rows)
    return residual, keep_agents, list(compress(range(1, m + 1), kept))


def verify_step(instance: Instance, step: ReductionStep) -> bool:
    """Re-derive both halves of validity with exact arithmetic: the verdict
    of ``verify_trace`` on a trace of this one step.

    Awarded agents must reach their share in the instance the step was
    applied to; every remaining agent's share, recomputed on the residual,
    must not have dropped.  A step naming an agent twice, an id that is not
    a plain int or an agent or item outside the instance is invalid.
    """
    return verify_trace(instance, ReductionTrace(steps=(step,), final=()))[0][1]


def verify_trace(instance: Instance, trace: ReductionTrace):
    """Replay a trace from its base instance, verifying each step in one
    pass: its base ids are checked against the agents and items left, its
    awards summed off the base rows, and the shares of the agents left
    computed on their base rows compressed by one mask of the items left;
    those are the "before" shares of the next step.  A step naming an agent
    twice, an id that is not a plain int or an agent or item no longer
    present ends the replay as invalid; then an unknown rule raises
    ValueError, and an empty step or overlapping awards PreconditionUnmet.
    Returns a list of (rule, valid) pairs in step order.
    """
    rows, m, goods = instance.valuations, instance.m, instance.kind == GOODS
    agents = list(range(1, instance.n + 1))  # the agents left, ascending
    left = set(agents)
    kept = [True] * m  # kept[j - 1]: item j is left
    mu = None  # agent -> share in the residual, from the first step on
    verdicts = []
    for step in trace.steps:
        awarded: set = set()
        gone: set = set()
        for a, bundle in step.assignments:
            if type(a) is not int or a not in left or a in awarded or not all(
                type(j) is int and 0 < j <= m and kept[j - 1] for j in bundle
            ):
                verdicts.append((step.rule, False))
                return verdicts
            awarded.add(a)
            gone.update(bundle)
        if step.rule not in ALL_RULES:
            raise ValueError(f"unknown rule id {step.rule!r}")
        if not awarded:
            raise PreconditionUnmet("a step must award at least one agent")
        if len(gone) < sum([len(b) for _, b in step.assignments]):
            raise PreconditionUnmet("awarded bundles overlap")
        if mu is None:
            mu = dict(zip(agents, mu_vector(instance)))
        ok = all(
            sum([rows[a - 1][j - 1] for j in bundle]) >= mu[a]
            for a, bundle in step.assignments
        )
        left -= awarded
        agents = [a for a in agents if a in left]
        for j in gone:
            kept[j - 1] = False
        k = len(agents)
        after = [row_share(compress(rows[a - 1], kept), k, goods) for a in agents]
        ok = ok and all([v >= mu[a] for v, a in zip(after, agents)])
        verdicts.append((step.rule, ok))
        mu = dict(zip(agents, after))
    return verdicts


# --- trace wire format -------------------------------------------------------

def trace_to_json(trace: ReductionTrace) -> str:
    return json.dumps(
        {
            "steps": [
                {
                    "rule": step.rule,
                    "awards": [
                        {"agent": agent, "bundle": sorted(bundle)}
                        for agent, bundle in step.assignments
                    ],
                }
                for step in trace.steps
            ],
            "final": {"bundles": [sorted(b) for b in trace.final]},
        }
    )


def trace_from_json(text: str) -> ReductionTrace:
    """The trace of a document; every agent and item must be a plain int id,
    no step may award an agent twice and no bundle may repeat an item."""
    data = json.loads(text)
    steps = []
    for entry in data["steps"]:
        awards = [
            (_read_id(award["agent"], "agent"), _read_bundle(award["bundle"]))
            for award in entry["awards"]
        ]
        if len(dict(awards)) != len(awards):
            raise MalformedDocument("a step's awards name one recipient twice")
        steps.append(make_step(entry["rule"], awards))
    final = tuple(_read_bundle(b) for b in data["final"]["bundles"])
    return ReductionTrace(steps=tuple(steps), final=final)


def _read_id(x, what: str):
    """A trace document's agent or item id, which must be a plain int: a
    float or bool would pass for the int id it equals."""
    if type(x) is not int:
        raise MalformedDocument(f"trace {what}s must be plain ints, got {x!r}")
    return x


def _read_bundle(items) -> frozenset:
    """The shared bundle of a trace document's items."""
    ids = [_read_id(j, "item") for j in items]
    if len(set(ids)) != len(ids):
        raise MalformedDocument(f"a trace bundle repeats an item: {ids}")
    return shared_bundle(frozenset(ids))
