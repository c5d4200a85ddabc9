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
from itertools import combinations

from .core import (
    CHORES,
    GOODS,
    Instance,
    OrderedInstance,
    bundle_value,
)
from .domination import pick_dominated
from .errors import DanglingReference, PreconditionUnmet
from .mms import mms_value

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


@dataclass(frozen=True)
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
    """Normalize and sanity-check an (agent -> bundle) mapping into a step."""
    if rule not in ALL_RULES:
        raise ValueError(f"unknown rule id {rule!r}")
    pairs = sorted((a, frozenset(b)) for a, b in dict(awards).items())
    if not pairs:
        raise PreconditionUnmet("a step must award at least one agent")
    seen: set = set()
    for _, bundle in pairs:
        if bundle & seen:
            raise PreconditionUnmet("awarded bundles overlap")
        seen |= bundle
    return ReductionStep(rule=rule, assignments=tuple(pairs))


@dataclass(frozen=True)
class ReductionTrace:
    """A replayable certificate: steps applied in order, then a final
    allocation of whatever instance remains."""

    steps: tuple
    final: tuple  # Allocation of the residual instance (may be empty)


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
    n, m = instance.n, instance.m
    for i in range(1, n + 1):
        row = instance.row(i)
        for j, jp in combinations(range(1, m + 1), 2):
            pair_value = row[j - 1] + row[jp - 1]
            if pair_value < mu[i - 1]:
                continue
            blocked = False
            for ip in range(1, n + 1):
                if ip == i:
                    continue
                if instance.value(ip, j) + instance.value(ip, jp) > mu[ip - 1]:
                    blocked = True
                    break
            if not blocked:
                return make_step(RULE_PAIR_BLOCKABLE, {i: {j, jp}})
    return None


def reduce_pigeonhole_pair(ordered: OrderedInstance, mu) -> ReductionStep | None:
    """Award goods {n, n+1} to an agent who values the pair at her share.

    In an ordered goods instance with m > n, some bundle of any partition
    holds two of the n+1 best goods, so every agent values {n, n+1} at most
    at her share and the removal blocks nobody.
    """
    if ordered.kind != GOODS or ordered.m < ordered.n + 1:
        return None
    n = ordered.n
    inst = ordered.instance
    for i in range(1, n + 1):
        if inst.value(i, n) + inst.value(i, n + 1) >= mu[i - 1]:
            return make_step(RULE_PIGEONHOLE_PAIR, {i: {n, n + 1}})
    return None


def reduce_pair_from_high(ordered: OrderedInstance, mu) -> ReductionStep | None:
    """Award {j, m} when exactly one agent values good j at her share.

    The unique qualifier takes good j plus the worst good; everyone else
    strictly prefers each of her own bundles to {j, m}, because j alone is
    already below her share and m is the worst good.
    """
    if ordered.kind != GOODS:
        return None
    inst = ordered.instance
    n, m = ordered.n, ordered.m
    for j in range(1, m):
        qualifiers = [i for i in range(1, n + 1) if inst.value(i, j) >= mu[i - 1]]
        if not qualifiers:
            return None  # rows are non-increasing; later items have fewer
        if len(qualifiers) == 1:
            return make_step(RULE_PAIR_FROM_HIGH, {qualifiers[0]: {j, m}})
    return None


def reduce_by_domination(ordered: OrderedInstance, group, kind: str, mu) -> ReductionStep:
    """Composite step built around a group of same-size tail bundles.

    The group's bundles share a (k-1)-subset, so one of them is comparable
    to all others under domination: for goods the bundle with the worst
    extra item is dominated by every other, for chores the bundle with the
    worst extra item dominates every other.  That bundle goes to its owner.
    Every agent outside the group is removed with a singleton: the leading
    items for goods (plus, when the group is smaller than c, the items just
    past the shared-singleton zone), the worst chores for chores.  Value
    floors for all singleton awards are re-checked here and failures raise
    PreconditionUnmet, since they encode assumptions about the caller's
    bundle-size bookkeeping.
    """
    if kind != ordered.kind:
        raise PreconditionUnmet(f"kind mismatch: {kind!r} vs {ordered.kind!r}")
    if not group:
        raise PreconditionUnmet("empty tail-bundle group")
    inst = ordered.instance
    n, m = ordered.n, ordered.m
    c = m - n
    chosen = pick_dominated(group, kind)
    if bundle_value(inst, chosen.agent, chosen.bundle) < mu[chosen.agent - 1]:
        raise PreconditionUnmet(
            f"agent {chosen.agent} does not accept the distinguished bundle"
        )

    group_agents = {t.agent for t in group}
    outside = [i for i in range(1, n + 1) if i not in group_agents]
    awards = {chosen.agent: set(chosen.bundle)}

    if kind == CHORES:
        # Worst chores go out one per agent; any single chore meets any share.
        for pos, agent in enumerate(sorted(outside), start=1):
            if pos in chosen.bundle:
                raise PreconditionUnmet("singleton chore collides with the bundle")
            if inst.value(agent, pos) < mu[agent - 1]:
                raise PreconditionUnmet(
                    f"agent {agent} values chore {pos} below her share"
                )
            awards[agent] = {pos}
        return make_step(RULE_DOMINATION, awards)

    q = len(outside)
    d = max(0, q - (n - c))
    k = len(chosen.bundle)
    if d > max(0, k - 1):
        raise PreconditionUnmet(
            f"group of {len(group_agents)} leaves {d} surplus agents for {k}-bundles"
        )
    high_items = [n - c + t for t in range(1, d + 1)]
    eligible = [
        i for i in outside
        if d == 0 or inst.value(i, n - c + d) >= mu[i - 1]
    ]
    if d > 0 and len(eligible) < d:
        raise PreconditionUnmet("not enough agents accept the post-zone singletons")
    high_takers = eligible[:d] if d > 0 else []
    low_takers = [i for i in outside if i not in high_takers]
    for item, agent in zip(high_items, high_takers):
        awards[agent] = {item}
    for item, agent in zip(range(1, q - d + 1), low_takers):
        if inst.value(agent, item) < mu[agent - 1]:
            raise PreconditionUnmet(
                f"agent {agent} values good {item} below her share"
            )
        awards[agent] = {item}
    claimed = set().union(*awards.values())
    if len(claimed) != sum(len(b) for b in awards.values()):
        raise PreconditionUnmet("singleton awards collide with the bundle")
    return make_step(RULE_DOMINATION, awards)


def base_identical_partitions(instance: Instance) -> tuple:
    """Full allocation for one or two agents.

    A single agent takes everything.  With two, agent 2 takes her better
    bundle of agent 1's witness partition and agent 1 the other: her total
    is at least twice her share, so her better half clears it, and each
    witness bundle clears agent 1's share.
    """
    if instance.n == 1:
        return (frozenset(range(1, instance.m + 1)),)
    witness = mms_value(instance, 1).witness
    order = sorted(
        witness,
        key=lambda b: (-bundle_value(instance, 2, b), tuple(sorted(b))),
    )
    return (order[1], order[0])


# --- application and verification -------------------------------------------

def apply(instance: Instance, step: ReductionStep) -> Instance:
    """Residual instance after removing a step's agents and items.

    Ids are compacted but keep their relative order, so ordered instances
    stay ordered and positional arguments (n, n+1, ...) stay meaningful.
    """
    residual, _, _ = apply_with_maps(instance, step)
    return residual


def apply_with_maps(instance: Instance, step: ReductionStep):
    """Like apply, but also returns residual-to-original id maps.

    Returns (residual, agent_map, item_map) where agent_map[i'] and
    item_map[j'] give the original ids of residual agent i' and item j'.
    """
    gone_agents = set(step.agents())
    gone_items = step.items()
    for a in gone_agents:
        if not 1 <= a <= instance.n:
            raise DanglingReference(f"agent {a} is not in the instance")
    for j in gone_items:
        if not 1 <= j <= instance.m:
            raise DanglingReference(f"item {j} is not in the instance")
    keep_agents = [i for i in range(1, instance.n + 1) if i not in gone_agents]
    keep_items = [j for j in range(1, instance.m + 1) if j not in gone_items]
    rows = tuple(
        tuple(instance.value(i, j) for j in keep_items) for i in keep_agents
    )
    residual = Instance(kind=instance.kind, valuations=rows)
    agent_map = {pos: i for pos, i in enumerate(keep_agents, start=1)}
    item_map = {pos: j for pos, j in enumerate(keep_items, start=1)}
    return residual, agent_map, item_map


def verify_step(instance: Instance, step: ReductionStep) -> bool:
    """Re-derive both halves of validity with exact arithmetic.

    Awarded agents must reach their share in the instance the step was
    applied to; every remaining agent's share, recomputed on the residual,
    must not have dropped.
    """
    before = {i: mms_value(instance, i).mu for i in range(1, instance.n + 1)}
    for agent, bundle in step.assignments:
        if bundle_value(instance, agent, bundle) < before[agent]:
            return False
    residual, agent_map, _ = apply_with_maps(instance, step)
    for pos in range(1, residual.n + 1):
        if mms_value(residual, pos).mu < before[agent_map[pos]]:
            return False
    return True


def verify_trace(instance: Instance, trace: ReductionTrace):
    """Replay a trace from its base instance, verifying each step.

    Trace steps carry base-instance ids while verification runs against the
    shrinking residual, so ids are translated along the way.  Returns a list
    of (rule, valid) pairs in step order.
    """
    cur = instance
    agent_ids = list(range(1, instance.n + 1))
    item_ids = list(range(1, instance.m + 1))
    verdicts = []
    for step in trace.steps:
        agent_pos = {a: p for p, a in enumerate(agent_ids, start=1)}
        item_pos = {j: p for p, j in enumerate(item_ids, start=1)}
        try:
            local = make_step(
                step.rule,
                {
                    agent_pos[a]: frozenset(item_pos[j] for j in b)
                    for a, b in step.assignments
                },
            )
        except KeyError:
            verdicts.append((step.rule, False))
            return verdicts
        verdicts.append((step.rule, verify_step(cur, local)))
        cur, agent_map, item_map = apply_with_maps(cur, local)
        agent_ids = [agent_ids[agent_map[p] - 1] for p in range(1, cur.n + 1)]
        item_ids = [item_ids[item_map[p] - 1] for p in range(1, cur.m + 1)]
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
    data = json.loads(text)
    steps = tuple(
        make_step(
            entry["rule"],
            {award["agent"]: frozenset(award["bundle"]) for award in entry["awards"]},
        )
        for entry in data["steps"]
    )
    final = tuple(frozenset(b) for b in data["final"]["bundles"])
    return ReductionTrace(steps=steps, final=final)
