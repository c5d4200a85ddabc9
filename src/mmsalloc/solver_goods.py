"""Goods steps of the constructive solver.

``solve`` runs the shared pipeline (``mmsalloc.pipeline``) with this
module's step, which shrinks the sorted residual with valid reductions.
Scripted case analyses handle the two delicate sizes (four agents with ten
goods, eight agents with fifteen goods); a counting argument over shared
tail bundles handles large agent counts; everything else falls back to the
pipeline's exhaustive threshold search below the oracle cap.
"""

from __future__ import annotations

from .bounds import (
    DEFAULT_TABLE,
    BoundTable,
)
from .core import (
    GOODS,
    Instance,
    OrderedInstance,
    bundle_value,
)
from .domination import TailBundle, group_tail_bundles
from .errors import (
    InternalInvariantViolation,
    NEqualsThree,
    PreconditionUnmet,
    TooFewAgents,
)
from .matching import BipartiteGraph, hall_deficient_split, max_matching, envy_free_matching
from .mms import (
    DEFAULT_EXHAUSTIVE_CAP,
    StructuredPartition,
    find_allocation_meeting,
    maximin_partition,
    mms_value,
    structured_partition_goods,
)
from .pipeline import CONTINUE, Pipeline, SolveOutcome, run
from .reductions import (
    RULE_DOMINATION,
    RULE_EFM_BATCH,
    RULE_PAIR_FROM_HIGH,
    RULE_PIGEONHOLE_PAIR,
    RULE_SINGLE_ITEM,
    ReductionStep,
    make_step,
    reduce_by_domination,
    reduce_pair_blockable,
    reduce_pair_from_high,
    reduce_pigeonhole_pair,
    reduce_single_item,
)


def known_solvable_goods(n: int, m: int, table: BoundTable = DEFAULT_TABLE) -> bool:
    """Is a goods instance of this shape guaranteed solvable by this solver?

    Used as a guard so that generic reductions never strand the pipeline in
    a shape with no constructive route (such as three agents with nine
    goods).
    """
    c = m - n
    if n <= 2 or m <= n or c <= 5:
        return True
    if c == 6:
        return n != 3
    if c == 7:
        return n >= 8
    return n >= table.n_c_goods(c)


def _guarded_simple(pipe: Pipeline, mu, table: BoundTable):
    """Cheapest applicable reduction whose residual stays solvable."""
    cur = pipe.current
    view = pipe.view()
    candidates = (
        reduce_single_item(cur, mu),
        reduce_pigeonhole_pair(view, mu),
        reduce_pair_from_high(view, mu),
        reduce_pair_blockable(cur, mu),
    )
    for step in candidates:
        if step is None:
            continue
        if known_solvable_goods(
            cur.n - len(step.agents()), cur.m - len(step.items()), table
        ):
            return step
    return None


# --- shared pivot-pair reduction ---------------------------------------------

def mostly_overlapping_pair(ordered: OrderedInstance, mu, pivot: int, pairs) -> ReductionStep:
    """Remove one agent with a two-good bundle around a shared pivot good.

    ``pairs`` maps agents to a size-2 bundle containing the pivot, taken
    from one of their own maximin witness partitions.  At most one agent may
    lack such a bundle.  Among the pairs, the one with the worst companion
    good is comparable to all others, so awarding it blocks nobody: the
    pairless agent receives it if she clears her share with it, otherwise it
    goes back to its owner while her share survives a merge argument.
    """
    cur = ordered.instance
    missing = [i for i in range(1, cur.n + 1) if i not in pairs]
    if len(missing) > 1:
        raise PreconditionUnmet(f"{len(missing)} agents lack a pivot pair")
    companion = {}
    for agent, bundle in pairs.items():
        if len(bundle) != 2 or pivot not in bundle:
            raise PreconditionUnmet("pair must be the pivot plus one good")
        companion[agent] = max(bundle - {pivot})
    bundle, recipient = _worst_pivot_pair(cur, mu, pivot, companion, missing)
    return make_step(RULE_DOMINATION, {recipient: bundle})


def _worst_pivot_pair(cur: Instance, mu, pivot: int, companion, missing):
    """The pivot pair with the worst companion good, and who receives it.

    ``companion`` maps agents to the other good of their pivot pair.  The
    worst pair is dominated by every other one, so it goes to its
    lowest-id owner, unless the first agent of ``missing`` (agents without
    a pair) clears her share with it.  Returns (bundle, recipient).
    """
    worst = max(companion.values())
    recipient = min(a for a, x in companion.items() if x == worst)
    bundle = frozenset({pivot, worst})
    if missing and bundle_value(cur, missing[0], bundle) >= mu[missing[0] - 1]:
        recipient = missing[0]
    return bundle, recipient


def reduce_2n2(ordered: OrderedInstance, mu) -> ReductionStep:
    """Guaranteed reduction when there are at most 2n + 2 goods.

    Case split: a single good worth a full share; the pair of the n-th and
    (n+1)-th goods; or, when neither exists, every witness partition is
    packed with size-2 bundles hitting the leading goods, and some leading
    good is shared by enough of them to award a pivot pair.
    """
    cur = ordered.instance
    n, m = cur.n, cur.m
    if n < 3 or m > 2 * n + 2:
        raise PreconditionUnmet(f"needs 3 <= n and m <= 2n+2, got {n}x{m}")
    step = reduce_single_item(cur, mu)
    if step is not None:
        return step
    step = reduce_pigeonhole_pair(ordered, mu)
    if step is not None:
        return step
    holders: dict = {}  # pivot good -> {agent: pair bundle}
    for i in range(1, n + 1):
        for b in mms_value(cur, i).witness:
            if len(b) == 2 and min(b) <= n - 1:
                g = min(b)
                holders.setdefault(g, {}).setdefault(i, b)
    for g in range(1, n):
        if g in holders and len(holders[g]) >= n - 1:
            return mostly_overlapping_pair(ordered, mu, g, holders[g])
    raise InternalInvariantViolation(
        "no branch fired although one is always available at this size"
    )


# --- envy-free matching step -------------------------------------------------

def efm_step(pipe: Pipeline, agent: int, part, mu):
    """Allocate via matching when one agent's partition is nearly all small.

    Requires at least n - 1 bundles of size below three in the witness.  A
    perfect matching of agents to bundles they accept solves the instance
    outright.  Otherwise a Hall-deficient agent set is carved off, an
    envy-free matching is found among the rest on the small bundles, and
    every matched agent is removed: size-2 bundles as-is, size-1 bundles
    padded with the worst remaining good.  Returns ("solved", a) or pushes
    the batch step and returns CONTINUE.
    """
    cur = pipe.current
    n, m = cur.n, cur.m
    if mu[agent - 1] == 0:
        raise PreconditionUnmet("zero-share agents are handled by the pigeonhole pair")
    small = [idx for idx, b in enumerate(part) if len(b) <= 2]
    if len(small) < n - 1:
        raise PreconditionUnmet("witness needs at least n-1 bundles of size < 3")

    def accepts(i: int, b) -> bool:
        return bundle_value(cur, i, b) >= mu[i - 1]

    full = BipartiteGraph.from_edges(
        n,
        len(part),
        [
            (i, idx + 1)
            for i in range(1, n + 1)
            for idx, b in enumerate(part)
            if accepts(i, b)
        ],
    )
    mm = max_matching(full)
    if len(mm.pairs) == n:
        alloc = [None] * n
        for x, y in mm.pairs:
            alloc[x - 1] = part[y - 1]
        return ("solved", tuple(alloc))

    others = [i for i in range(1, n + 1) if i != agent]
    g2 = BipartiteGraph.from_edges(
        len(others),
        len(small),
        [
            (xi + 1, yi + 1)
            for xi, i in enumerate(others)
            for yi, idx in enumerate(small)
            if accepts(i, part[idx])
        ],
    )
    split = hall_deficient_split(g2)
    if split is None:
        # The other agents match into the small bundles; the witness owner
        # accepts whatever bundle of her own partition is left over.
        mm2 = max_matching(g2)
        alloc = [None] * n
        used = set()
        for x, y in mm2.pairs:
            alloc[others[x - 1] - 1] = part[small[y - 1]]
            used.add(small[y - 1])
        leftover = [idx for idx in range(len(part)) if idx not in used]
        alloc[agent - 1] = part[leftover[0]]
        if len(leftover) != 1:
            raise InternalInvariantViolation("expected exactly one unmatched bundle")
        return ("solved", tuple(alloc))

    blocked_x, blocked_y = split
    x3 = [i for xi, i in enumerate(others) if (xi + 1) not in blocked_x]
    x3.append(agent)
    x3.sort()
    y3 = [idx for yi, idx in enumerate(small) if (yi + 1) not in blocked_y]
    g3 = BipartiteGraph.from_edges(
        len(x3),
        len(y3),
        [
            (xi + 1, yi + 1)
            for xi, i in enumerate(x3)
            for yi, idx in enumerate(y3)
            if accepts(i, part[idx])
        ],
    )
    efm = envy_free_matching(g3)
    if not efm.pairs:
        raise InternalInvariantViolation("envy-free matching unexpectedly empty")
    matched = sorted((x3[x - 1], y3[y - 1]) for x, y in efm.pairs)
    used_goods = set()
    for _, idx in matched:
        used_goods |= part[idx]
    pads = [j for j in range(m, 0, -1) if j not in used_goods]
    awards = {}
    pi = 0
    for aid, idx in matched:
        b = part[idx]
        if len(b) == 2:
            awards[aid] = b
        else:
            awards[aid] = b | {pads[pi]}
            pi += 1
    pipe.push(make_step(RULE_EFM_BATCH, awards))
    return CONTINUE


# --- large-n tail grouping ---------------------------------------------------

def _tail_bundle(sp: StructuredPartition, n: int):
    """The lexicographically first bundle living entirely past position n-1."""
    tails = [b for b in sp.partition if b and min(b) >= n]
    if not tails:
        return None
    return min(tails, key=lambda b: tuple(sorted(b)))


def tail_group_step(pipe: Pipeline, c: int, mu, table: BoundTable = DEFAULT_TABLE):
    """One reduction for large agent counts via shared tail-bundle groups.

    Every agent's max-singleton witness has a bundle inside the last c + 1
    positions.  Tiny or worthless tails route to the pigeonhole pair; huge
    tails force a nearly-all-small witness and the matching step; otherwise
    the k-sized tails are grouped by shared (k-1)-subsets and a group
    reaching max(c-k+1, n_{c-k+1}+1) members fires the domination award.
    Pushes a step and returns CONTINUE, returns ("solved", a), or returns
    None when nothing triggers.
    """
    ordered = pipe.view()
    cur = pipe.current
    n = cur.n
    tails = {}
    parts = {}
    for i in range(1, n + 1):
        sp = structured_partition_goods(ordered, i, mu[i - 1])
        parts[i] = sp
        tb = _tail_bundle(sp, n)
        if mu[i - 1] == 0 or tb is None or len(tb) <= 2:
            if cur.m >= n + 1:
                pipe.push(make_step(RULE_PIGEONHOLE_PAIR, {i: {n, n + 1}}))
                return CONTINUE
            return None
        tails[i] = tb
    for i in range(1, n + 1):
        if len(tails[i]) >= c - 1:
            sp = parts[i]
            if sum(1 for b in sp.partition if len(b) <= 2) >= n - 1:
                return efm_step(pipe, i, sp.partition, mu)
    for k in range(3, c - 1):
        threshold = max(c - k + 1, table.n_c_goods(c - k + 1) + 1)
        sized = [TailBundle(i, b) for i, b in tails.items() if len(b) == k]
        groups = group_tail_bundles(sized, k)
        for key in sorted(groups, key=lambda s: tuple(sorted(s))):
            grp = groups[key]
            if len({t.agent for t in grp}) >= threshold:
                try:
                    step = reduce_by_domination(ordered, grp, GOODS, mu)
                except PreconditionUnmet:
                    continue
                pipe.push(step)
                return CONTINUE
    return None


# --- scripted case analyses --------------------------------------------------

def _threshold_final(pipe: Pipeline, removed_items, kept_agents, thresholds, cap):
    """Search the residual (after hypothetically removing items) for an
    allocation meeting original-share thresholds.  Returns the residual
    allocation in post-removal coordinates, or None."""
    cur = pipe.current
    keep = [j for j in range(1, cur.m + 1) if j not in removed_items]
    rows = tuple(
        tuple(cur.value(i, j) for j in keep) for i in kept_agents
    )
    sub = Instance(kind=cur.kind, valuations=rows)
    return find_allocation_meeting(sub, thresholds, cap)


def _solve_4x10(pipe: Pipeline, mu, cap: int):
    """Case analysis for four agents and ten goods.

    Returns CONTINUE, ("solved", final_alloc_in_current_coords) or
    ("unresolved", reason).
    """
    cur = pipe.current
    view = pipe.view()
    h1 = [i for i in range(1, 5) if cur.value(i, 1) >= mu[i - 1]]
    h2 = [i for i in range(1, 5) if cur.value(i, 2) >= mu[i - 1]]
    if not h1:
        pipe.note("c6:packed-pairs")
        pipe.push(reduce_2n2(view, mu))
        return CONTINUE
    if len(h1) == 1:
        step = reduce_pair_from_high(view, mu)
        if step is None:
            raise InternalInvariantViolation("unique top-good valuer must fire")
        pipe.note("c6:unique-top")
        pipe.push(step)
        return CONTINUE
    if h2:
        i = h2[0]
        other = next(a for a in h1 if a != i)
        pipe.note("c6:two-singles")
        pipe.push(make_step(RULE_SINGLE_ITEM, {other: {1}, i: {2}}))
        return CONTINUE
    # Two or more agents accept good 1, nobody accepts good 2: one of the
    # good-1 claimants can be paid off so that the rest still split the
    # remaining nine goods up to their old shares.
    for star in h1:
        kept = [a for a in range(1, 5) if a != star]
        final = _threshold_final(
            pipe, {1}, kept, [mu[a - 1] for a in kept], cap
        )
        if final is not None:
            pipe.note(f"c6:payoff-good1:agent{star}")
            pipe.push(make_step(RULE_SINGLE_ITEM, {star: {1}}))
            return ("solved", final)
    return ("unresolved", "4x10: no good-1 recipient admits a completion")


def _pivot_pair_witness(cur: Instance, agent: int, pivot: int, mu_i):
    """Smallest companion x such that {1},{2},{3} singletons, {pivot, x} and
    four further bundles at or above the share partition all fifteen goods."""
    row = cur.row(agent)
    if row[2] < mu_i:
        return None
    for x in range(4, 16):
        if x == pivot:
            continue
        if row[pivot - 1] + row[x - 1] < mu_i:
            continue
        rest = [j for j in range(4, 16) if j not in (pivot, x)]
        value, _ = maximin_partition(cur, agent, items=rest, bundles=4)
        if value >= mu_i:
            return x
    return None


def _solve_8x15(pipe: Pipeline, mu, cap: int):
    """Case analysis for eight agents and fifteen goods."""
    cur = pipe.current
    view = pipe.view()

    # An agent whose third-best good misses her share has a witness of five
    # pairs, one triple and two singletons: the matching step applies.
    for i in range(1, 9):
        if cur.value(i, 3) < mu[i - 1]:
            sp = structured_partition_goods(view, i, mu[i - 1])
            pipe.note("c7:low-third")
            return efm_step(pipe, i, sp.partition, mu)

    h6 = [i for i in range(1, 9) if cur.value(i, 6) >= mu[i - 1]]
    if h6:
        i = h6[0]
        h5_others = [
            a for a in range(1, 9) if a != i and cur.value(a, 5) >= mu[a - 1]
        ]
        if not h5_others:
            pipe.note("c7:sixth-good-unique")
            pipe.push(make_step(RULE_PAIR_FROM_HIGH, {i: {6, 15}}))
            return CONTINUE
        if len(h5_others) == 1:
            ip = h5_others[0]
            pipe.note("c7:sixth-fifth-pairs")
            pipe.push(
                make_step(RULE_PAIR_FROM_HIGH, {i: {6, 14}, ip: {5, 15}})
            )
            return CONTINUE
        ip, ipp = h5_others[0], h5_others[1]
        rest = [a for a in range(1, 9) if a not in (i, ip, ipp)][:3]
        awards = {i: {6}, ip: {5}, ipp: {4}}
        for pos, a in enumerate(rest, start=1):
            awards[a] = {pos}
        pipe.note("c7:six-singles")
        pipe.push(make_step(RULE_SINGLE_ITEM, awards))
        return CONTINUE

    for i in range(1, 9):
        sp = structured_partition_goods(view, i, mu[i - 1])
        if sum(1 for b in sp.partition if len(b) <= 2) >= 7:
            pipe.note("c7:mostly-small")
            return efm_step(pipe, i, sp.partition, mu)

    high5 = [i for i in range(1, 9) if cur.value(i, 5) >= mu[i - 1]]
    if high5:
        return _solve_8x15_with_five_singles(pipe, mu, cap, high5)
    return _solve_8x15_pivot(pipe, mu, cap)


def _solve_8x15_with_five_singles(pipe: Pipeline, mu, cap: int, high5):
    """Agents valuing the fifth good at their share exist (five-singleton
    witnesses); peel them off with leading singletons plus one pair."""
    cur = pipe.current
    k12 = len(high5)
    if k12 <= 4:
        awards = {}
        for pos, a in enumerate(high5[:-1], start=1):
            awards[a] = {pos}
        awards[high5[-1]] = {5, 15}
        pipe.note(f"c7:five-high:{k12}")
        pipe.push(make_step(RULE_PAIR_FROM_HIGH, awards))
        return CONTINUE
    chosen = high5[:5]
    outsiders = [a for a in range(1, 9) if a not in chosen][:3]
    for first in chosen:
        for second in chosen:
            if second == first:
                continue
            awards = {outsiders[0]: {1}, outsiders[1]: {2}, outsiders[2]: {3}}
            awards[first] = {4}
            awards[second] = {5}
            kept = [a for a in chosen if a not in (first, second)]
            final = _threshold_final(
                pipe, {1, 2, 3, 4, 5}, kept, [mu[a - 1] for a in kept], cap
            )
            if final is not None:
                pipe.note("c7:five-high:batch")
                pipe.push(make_step(RULE_SINGLE_ITEM, awards))
                return ("solved", final)
    return ("unresolved", "8x15: five-singleton batch admits no completion")


def _solve_8x15_pivot(pipe: Pipeline, mu, cap: int):
    """No agent accepts good 5 alone: witnesses have three or four leading
    singletons and pair bundles through goods 5-7.  Group by pivot good."""
    cur = pipe.current
    witness = {}
    for g in (5, 6, 7):
        for i in range(1, 9):
            x = _pivot_pair_witness(cur, i, g, mu[i - 1])
            if x is not None:
                witness[(g, i)] = x
    members = {g: [i for i in range(1, 9) if (g, i) in witness] for g in (5, 6, 7)}
    g = max((5, 6, 7), key=lambda gg: (len(members[gg]), -gg))
    crowd = members[g]
    if len(crowd) >= 4:
        chosen = crowd[:5]
        if len(chosen) < 5:
            extras = [a for a in range(1, 9) if a not in chosen]
            chosen = sorted(chosen + extras[: 5 - len(chosen)])
        outsiders = [a for a in range(1, 9) if a not in chosen][:3]
        companions = {a: witness[(g, a)] for a in chosen if (g, a) in witness}
        missing = [a for a in chosen if a not in companions]
        bundle, recipient = _worst_pivot_pair(cur, mu, g, companions, missing)
        awards = {outsiders[0]: {1}, outsiders[1]: {2}, outsiders[2]: {3}}
        awards[recipient] = bundle
        pipe.note(f"c7:pivot{g}:crowd")
        pipe.push(make_step(RULE_DOMINATION, awards))
        return CONTINUE
    if len(crowd) == 3:
        helpers = [
            a
            for a in range(1, 9)
            if a not in crowd and cur.value(a, 4) >= mu[a - 1]
        ]
        if len(helpers) >= 2:
            companions = {a: witness[(g, a)] for a in crowd}
            bundle, owner = _worst_pivot_pair(cur, mu, g, companions, ())
            i, ip = helpers[0], helpers[1]
            outsiders = [a for a in range(1, 9) if a not in crowd + [i, ip]][:3]
            base = {outsiders[0]: {1}, outsiders[1]: {2}, outsiders[2]: {3}}
            vi = bundle_value(cur, i, bundle) >= mu[i - 1]
            vip = bundle_value(cur, ip, bundle) >= mu[ip - 1]
            if vi and vip:
                awards = dict(base)
                awards[i] = bundle
                awards[ip] = {4}
                final = _threshold_final(
                    pipe,
                    {1, 2, 3, 4} | bundle,
                    crowd,
                    [mu[a - 1] for a in crowd],
                    cap,
                )
                if final is not None:
                    pipe.note(f"c7:pivot{g}:pack")
                    pipe.push(make_step(RULE_DOMINATION, awards))
                    return ("solved", final)
            awards = dict(base)
            recipient = ip if vip else owner
            if vi and not vip:
                recipient = i
            awards[recipient] = bundle
            pipe.note(f"c7:pivot{g}:reject")
            pipe.push(make_step(RULE_DOMINATION, awards))
            return CONTINUE
    return ("unresolved", "8x15: no pivot-pair group is large enough")


# --- dispatcher --------------------------------------------------------------

def _step(pipe: Pipeline, mu, cap: int, table: BoundTable):
    """One goods step: guarded simple rules, the reduce_2n2 shapes, the
    scripted 4 x 10 and 8 x 15 analyses, then the tail groups."""
    n, m = pipe.current.n, pipe.current.m
    c = m - n
    step = _guarded_simple(pipe, mu, table)
    if step is None and (c <= 5 or (c == 6 and n > 4) or (c == 7 and n > 8)):
        step = reduce_2n2(pipe.view(), mu)
    if step is not None:
        pipe.push(step)
        return CONTINUE
    if c == 6 and n == 4:
        return _solve_4x10(pipe, mu, cap)
    if c == 7 and n == 8:
        return _solve_8x15(pipe, mu, cap)
    if n >= table.n_c_goods(c):
        return tail_group_step(pipe, c, mu, table)
    return None


def solve(
    instance: Instance,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
    table: BoundTable = DEFAULT_TABLE,
) -> SolveOutcome:
    """Solve a goods instance, certifying the result before reporting it."""
    return run(
        instance, GOODS, _step, cap, table,
        "base:leading-singletons", "; search cap exceeded",
    )


def solve_c6(instance: Instance, cap: int = DEFAULT_EXHAUSTIVE_CAP) -> SolveOutcome:
    """Entry point for up to n + 6 goods; three agents are out of scope
    because nine goods can defeat three agents."""
    if instance.kind != GOODS:
        raise ValueError("goods instance required")
    if instance.n == 3:
        raise NEqualsThree("three agents with nine-plus goods are not covered")
    if instance.m > instance.n + 6:
        raise PreconditionUnmet("needs m <= n + 6")
    return solve(instance, cap=cap)


def solve_c7(instance: Instance, cap: int = DEFAULT_EXHAUSTIVE_CAP) -> SolveOutcome:
    """Entry point for up to n + 7 goods with at least eight agents."""
    if instance.kind != GOODS:
        raise ValueError("goods instance required")
    if instance.n < 8:
        raise TooFewAgents("needs at least eight agents")
    if instance.m > instance.n + 7:
        raise PreconditionUnmet("needs m <= n + 7")
    return solve(instance, cap=cap)
