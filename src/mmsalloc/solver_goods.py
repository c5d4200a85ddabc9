"""Goods steps of the constructive solver.

``solve`` runs the shared pipeline (``mmsalloc.pipeline``) with this
module's step, which pushes valid reductions of the sorted residual or
returns its final allocation.  Scripted case analyses handle four agents
with ten goods and eight with fifteen; a counting argument over shared tail
bundles handles large agent counts; everything else, a scripted dead end
included (it notes its reason), falls back to the pipeline's threshold
search.  Scripted branches hand the step they would push to that search
(``Pipeline.settle``) with their branch tag, which searches what it leaves
and pushes it on success.
The simple rules pass the pipeline's guard (``Pipeline.push_guarded``),
and the routes start where they stop: no route repeats a case they settle.
"""

from __future__ import annotations

from .bounds import n_c_goods, tail_thresholds
from .core import (
    GOODS,
    Instance,
    bundle_value,
)
from .domination import pick_dominated, tail_bundle
from .errors import InternalInvariantViolation, PreconditionUnmet
from .matching import BipartiteGraph, hall_deficient_split, max_matching, envy_free_matching
from .mms import (
    maximin_partition,
    row_share,
    structured_partition_goods,
)
# Unused here: the bench's tracer patches this binding, which
# test_tracing_patches_every_binding_and_restores_it asserts.
from .mms import mms_value  # noqa: F401
from .pipeline import Pipeline, SolveOutcome, run
from .reductions import (
    RULE_DOMINATION,
    RULE_EFM_BATCH,
    RULE_PAIR_FROM_HIGH,
    RULE_SINGLE_ITEM,
    ReductionStep,
    make_step,
    reduce_by_tail_group,
    reduce_pair_blockable,
    reduce_pair_from_high,
    reduce_pigeonhole_pair,
    reduce_single_item,
)


# --- shared pivot-pair reduction ---------------------------------------------

def _worst_pivot_pair(cur: Instance, mu, pivot: int, companion, missing):
    """The pivot pair with the worst companion good, and who receives it.

    ``companion`` maps agents to the other good of their pivot pair.  The
    pairs share the pivot, so ``pick_dominated`` finds the one dominated by
    every other and its lowest-id owner; the first agent of ``missing``
    (agents without a pair) takes it instead if she clears her share with
    it.  Returns (bundle, recipient).
    """
    owner, worst = pick_dominated(
        {a: frozenset({pivot, x}) for a, x in companion.items()}, GOODS
    )
    if missing and bundle_value(cur, missing[0], worst) >= mu[missing[0] - 1]:
        return worst, missing[0]
    return worst, owner


def reduce_2n2(cur: Instance, mu) -> ReductionStep:
    """Guaranteed reduction when there are at most 2n + 2 goods.

    Precondition: no agent values a single good or the pair of the n-th and
    (n+1)-th goods at her share (``_step`` and ``c6:packed-pairs`` call it
    only then).  So every witness partition is packed with size-2 bundles hitting the
    leading goods, and some leading good is shared by enough of them to
    award a pivot pair: at most one agent lacks one.  The worst pair
    (``_worst_pivot_pair``) blocks nobody: that agent takes it if she clears
    her share with it, else its owner does and her share survives a merge.
    """
    n, m = cur.n, cur.m
    if n < 3 or m > 2 * n + 2:
        raise PreconditionUnmet(f"needs 3 <= n and m <= 2n+2, got {n}x{m}")
    holders: dict = {}  # pivot good -> {agent: the other good of her pair}
    for i in range(1, n + 1):
        for b in maximin_partition(cur, i)[1]:
            if len(b) == 2 and min(b) <= n - 1:
                holders.setdefault(min(b), {}).setdefault(i, max(b))
    for g in range(1, n):
        companion = holders.get(g, {})
        if len(companion) >= n - 1:
            missing = [i for i in range(1, n + 1) if i not in companion]
            bundle, recipient = _worst_pivot_pair(cur, mu, g, companion, missing)
            return make_step(RULE_DOMINATION, {recipient: bundle})
    raise InternalInvariantViolation(
        "no branch fired although one is always available at this size"
    )


# --- envy-free matching step -------------------------------------------------

def efm_step(pipe: Pipeline, agent: int, part, mu, tag: str = ""):
    """Allocate via matching when one agent's partition is nearly all small.

    ``part`` is ``agent``'s own witness, so every bundle of it meets her
    share; it needs at least n - 1 bundles of size below three.  A
    perfect matching of agents to bundles they accept solves the instance
    outright.  Otherwise a Hall-deficient agent set is carved off, an
    envy-free matching is found among the rest on the small bundles, and
    every matched agent is removed: size-2 bundles as-is, size-1 bundles
    padded with the worst remaining good.  Returns the allocation, or
    pushes the batch step and returns None; either way it notes ``tag``,
    the branch taking it.
    """
    cur = pipe.current
    n, m = cur.n, cur.m
    if mu[agent - 1] == 0:
        raise PreconditionUnmet("zero-share agents are handled by the pigeonhole pair")
    small = [idx for idx, b in enumerate(part) if len(b) <= 2]
    if len(small) < n - 1:
        raise PreconditionUnmet("witness needs at least n-1 bundles of size < 3")

    def acceptance(agents, bundles) -> BipartiteGraph:
        """Agents x bundle indices into ``part``, an edge where accepted."""
        return BipartiteGraph.from_edges(
            len(agents),
            len(bundles),
            [
                (x, y)
                for x, i in enumerate(agents, start=1)
                for y, idx in enumerate(bundles, start=1)
                if bundle_value(cur, i, part[idx]) >= mu[i - 1]
            ],
        )

    full = acceptance(range(1, n + 1), range(len(part)))
    mm = max_matching(full)
    if len(mm) == n:
        alloc = [None] * n
        for x, y in mm:
            alloc[x - 1] = part[y - 1]
        if tag:
            pipe.note(tag)
        return tuple(alloc)

    others = [i for i in range(1, n + 1) if i != agent]
    g2 = acceptance(others, small)
    # Were the other agents all matched into the small bundles, the witness
    # owner, who accepts every bundle of her own witness, would take the one
    # left and the full graph would have a perfect matching: a Hall violator
    # exists.
    blocked_x, blocked_y = hall_deficient_split(g2)
    x3 = [i for xi, i in enumerate(others) if (xi + 1) not in blocked_x]
    x3.append(agent)
    x3.sort()
    y3 = [idx for yi, idx in enumerate(small) if (yi + 1) not in blocked_y]
    g3 = acceptance(x3, y3)
    efm = envy_free_matching(g3)
    if not efm:
        raise InternalInvariantViolation("envy-free matching unexpectedly empty")
    matched = sorted((x3[x - 1], y3[y - 1]) for x, y in efm)
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
    pipe.push(make_step(RULE_EFM_BATCH, awards), tag)
    return None


# --- large-n tail grouping ---------------------------------------------------

def tail_group_step(pipe: Pipeline, c: int, mu):
    """One reduction for large agent counts via shared tail-bundle groups.

    Precondition: no agent values goods {n, n+1} at her share (the guarded
    pigeonhole pair took any such agent).  So every share is positive, and
    every agent's max-singleton witness has a tail bundle of three goods or
    more inside the last c + 1 positions: a tail of one or two goods there
    would be worth at most {n, n+1}.  Huge tails force a nearly-all-small
    witness and the matching step; otherwise the k-sized tails are grouped
    by shared (k-1)-subsets and a group reaching its agent count in
    ``tail_thresholds(GOODS, c)`` fires the domination award.
    Returns the matching step's allocation, or None after pushing a step
    or when nothing triggers.
    """
    cur = pipe.current
    n = cur.n
    parts = {i: structured_partition_goods(cur, i, mu[i - 1]) for i in range(1, n + 1)}
    tails = {i: tail_bundle(part, n) for i, part in parts.items()}
    for i in range(1, n + 1):
        if len(tails[i]) >= c - 1:
            if sum(1 for b in parts[i] if len(b) <= 2) >= n - 1:
                return efm_step(pipe, i, parts[i], mu)
    step = reduce_by_tail_group(cur, tails, mu, tail_thresholds(GOODS, c))
    if step is not None:
        pipe.push(step)
    return None


# --- scripted case analyses --------------------------------------------------

def _solve_4x10(pipe: Pipeline, mu):
    """Case analysis for four agents and ten goods: pushes a step, and
    returns the final allocation of the residual it leaves or None.

    Precondition: the guarded rules found nothing, so no agent or at least
    two agents value good 1 at their share."""
    cur = pipe.current
    h1 = [i for i in range(1, 5) if cur.value(i, 1) >= mu[i - 1]]
    h2 = [i for i in range(1, 5) if cur.value(i, 2) >= mu[i - 1]]
    if not h1:
        pipe.push(reduce_2n2(cur, mu), "c6:packed-pairs")
        return None
    if h2:
        i = h2[0]
        other = next(a for a in h1 if a != i)
        pipe.push(make_step(RULE_SINGLE_ITEM, {other: {1}, i: {2}}), "c6:two-singles")
        return None
    # Two or more agents accept good 1, nobody accepts good 2: one of the
    # good-1 claimants can be paid off so that the rest still split the
    # remaining nine goods up to their old shares.
    for star in h1:
        step = make_step(RULE_SINGLE_ITEM, {star: {1}})
        tag = f"c6:payoff-good1:agent{star}"
        final = pipe.settle(mu, "c6:payoff-good1 at 4x10", tag, step)
        if final is not None:
            return final
    pipe.note("4x10: no good-1 recipient admits a completion")
    return None


def _pivot_pair_witness(cur: Instance, agent: int, pivot: int, mu_i):
    """Smallest companion x such that {1},{2},{3} singletons, {pivot, x} and
    four further bundles at or above the share partition all fifteen goods.

    Precondition: the agent values good 3, hence goods 1-3, at her share
    (``c7:low-third`` took any agent who does not)."""
    row = cur.row(agent)
    for x in range(4, 16):
        if x == pivot:
            continue
        if row[pivot - 1] + row[x - 1] < mu_i:
            continue
        rest = [row[j - 1] for j in range(4, 16) if j not in (pivot, x)]
        if row_share(rest, 4, True) >= mu_i:
            return x
    return None


def _leading_three(named, awards: dict) -> dict:
    """``awards`` plus goods 1, 2 and 3, one each, to the first three of
    the eight agents outside ``named``."""
    rest = (a for a in range(1, 9) if a not in named)
    return {**awards, **{a: {g} for g, a in zip((1, 2, 3), rest)}}


def _solve_8x15(pipe: Pipeline, mu):
    """Case analysis for eight agents and fifteen goods.

    Precondition: the guarded rules found nothing, so no agent or at least
    two agents value good 6 at their share."""
    cur = pipe.current

    # An agent whose third-best good misses her share has a witness of five
    # pairs, one triple and two singletons: the matching step applies.
    for i in range(1, 9):
        if cur.value(i, 3) < mu[i - 1]:
            part = structured_partition_goods(cur, i, mu[i - 1])
            return efm_step(pipe, i, part, mu, "c7:low-third")

    h6 = [i for i in range(1, 9) if cur.value(i, 6) >= mu[i - 1]]
    if h6:
        i = h6[0]
        # holds the other valuers of good 6, so it is never empty
        h5_others = [
            a for a in range(1, 9) if a != i and cur.value(a, 5) >= mu[a - 1]
        ]
        if len(h5_others) == 1:
            ip = h5_others[0]
            step = make_step(RULE_PAIR_FROM_HIGH, {i: {6, 14}, ip: {5, 15}})
            pipe.push(step, "c7:sixth-fifth-pairs")
            return None
        ip, ipp = h5_others[0], h5_others[1]
        awards = _leading_three((i, ip, ipp), {i: {6}, ip: {5}, ipp: {4}})
        pipe.push(make_step(RULE_SINGLE_ITEM, awards), "c7:six-singles")
        return None

    for i in range(1, 9):
        part = structured_partition_goods(cur, i, mu[i - 1])
        if sum(1 for b in part if len(b) <= 2) >= 7:
            return efm_step(pipe, i, part, mu, "c7:mostly-small")

    high5 = [i for i in range(1, 9) if cur.value(i, 5) >= mu[i - 1]]
    if high5:
        return _solve_8x15_with_five_singles(pipe, mu, high5)
    return _solve_8x15_pivot(pipe, mu)


def _solve_8x15_with_five_singles(pipe: Pipeline, mu, high5):
    """Agents valuing the fifth good at their share exist (five-singleton
    witnesses); peel them off with leading singletons plus one pair."""
    cur = pipe.current
    k12 = len(high5)
    if k12 <= 4:
        awards = {}
        for pos, a in enumerate(high5[:-1], start=1):
            awards[a] = {pos}
        awards[high5[-1]] = {5, 15}
        pipe.push(make_step(RULE_PAIR_FROM_HIGH, awards), f"c7:five-high:{k12}")
        return None
    chosen = high5[:5]
    for first in chosen:
        for second in chosen:
            if second == first:
                continue
            awards = _leading_three(chosen, {first: {4}, second: {5}})
            step = make_step(RULE_SINGLE_ITEM, awards)
            tag = "c7:five-high:batch"
            final = pipe.settle(mu, "c7:five-high:batch at 8x15", tag, step)
            if final is not None:
                return final
    pipe.note("8x15: five-singleton batch admits no completion")
    return None


def _solve_8x15_pivot(pipe: Pipeline, mu):
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
        companions = {a: witness[(g, a)] for a in chosen if (g, a) in witness}
        missing = [a for a in chosen if a not in companions]
        bundle, recipient = _worst_pivot_pair(cur, mu, g, companions, missing)
        awards = _leading_three(chosen, {recipient: bundle})
        pipe.push(make_step(RULE_DOMINATION, awards), f"c7:pivot{g}:crowd")
        return None
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
            named = crowd + [i, ip]
            vi = bundle_value(cur, i, bundle) >= mu[i - 1]
            vip = bundle_value(cur, ip, bundle) >= mu[ip - 1]
            if vi and vip and 4 not in bundle:  # the pack gives ip good 4
                step = make_step(
                    RULE_DOMINATION, _leading_three(named, {i: bundle, ip: {4}})
                )
                tag = f"c7:pivot{g}:pack"
                final = pipe.settle(mu, f"{tag} at 8x15", tag, step)
                if final is not None:
                    return final
            recipient = ip if vip else owner
            if vi and not vip:
                recipient = i
            awards = _leading_three(named, {recipient: bundle})
            pipe.push(make_step(RULE_DOMINATION, awards), f"c7:pivot{g}:reject")
            return None
    pipe.note("8x15: no pivot-pair group is large enough")
    return None


# --- dispatcher --------------------------------------------------------------

def _step(pipe: Pipeline, mu):
    """One goods step: guarded simple rules, then a route by the threshold
    n_c of the surplus c = m - n.  Above n_c, c <= 7 goods fit in 2n + 2
    and reduce_2n2 applies; at n_c, c = 6 and c = 7 are the scripted 4 x 10
    and 8 x 15 analyses; from n_c on, the tail groups.

    The routes start where the guarded rules stop, on the same residual and
    shares, and rely on it.  A two-good rule leaves n - 1 agents with
    surplus c - 1, which the guard passes on every route: n - 1 >= n_c(c)
    >= n_c(c - 1) above n_c for c <= 7, and n - 1 >= n_c(c) - 1 >=
    n_c(c - 1) from n_c for c >= 6.  So no agent values {n, n+1} at her
    share, and no good j < m has exactly one agent valuing it at her share
    (rows are sorted, so the valuers of good j shrink as j grows).  Above
    n_c no agent values a single good at her share either."""
    n, m = pipe.current.n, pipe.current.m
    c = m - n
    n_c = n_c_goods(c)
    # built on each call: the bench's tracer rebinds these module globals
    rules = (
        reduce_single_item,
        reduce_pigeonhole_pair,
        reduce_pair_from_high,
        reduce_pair_blockable,
    )
    if pipe.push_guarded(rules, mu):
        return None
    if c <= 7 and n > n_c:
        pipe.push(reduce_2n2(pipe.current, mu))
    elif n == n_c and c == 6:
        return _solve_4x10(pipe, mu)
    elif n == n_c and c == 7:
        return _solve_8x15(pipe, mu)
    elif n >= n_c:
        return tail_group_step(pipe, c, mu)
    return None


def solve(instance: Instance) -> SolveOutcome:
    """Solve a goods instance, certifying the result before reporting it."""
    return run(instance, GOODS, _step)
