"""Chores steps of the constructive solver.

``solve_chores`` runs the shared pipeline (``mmsalloc.pipeline``) with this
module's step.  The key facts flip direction from goods: any single chore
is acceptable to every agent (it costs no more than the bundle containing
it in her own witness partition), witness partitions can be normalized to
carry their singletons on the worst chores, and domination awards the
*worse* of two comparable bundles.  Small instances with few leftover
chores are finished by structured-witness base cases; large agent counts
go through shared tail-bundle groups; anything else falls back to the
pipeline's exhaustive threshold search.
"""

from __future__ import annotations

from .bounds import (
    DEFAULT_TABLE,
    BoundTable,
)
from .core import (
    CHORES,
    Instance,
    bundle_value,
)
from .domination import TailBundle, group_tail_bundles
from .errors import PreconditionUnmet
from .mms import (
    DEFAULT_EXHAUSTIVE_CAP,
    # Unused here; kept so that every solver module carries an mms_value
    # binding for the bench's tracer to patch, which
    # test_tracing_patches_every_binding_and_restores_it asserts.
    mms_value,  # noqa: F401
    structured_partition_chores,
)
from .pipeline import CONTINUE, Pipeline, SolveOutcome, run
from .reductions import (
    make_step,
    reduce_by_domination,
    reduce_pair_blockable,
)


def known_solvable_chores(n: int, m: int, table: BoundTable = DEFAULT_TABLE) -> bool:
    """Is a chores instance of this shape within this solver's reach?

    Shapes with at most five extra chores always admit an allocation and
    stay small enough for the search fallback at the agent counts we target;
    beyond that the tail-grouping threshold must be met.
    """
    c = m - n
    return n <= 2 or m <= n or c <= 5 or n >= table.n_c_chores(c)


def _chores_witness_base(pipe: Pipeline, mu):
    """Finish or shrink via a witness packed with singleton chores.

    A witness with n - 1 singletons plus one residue bundle is a full
    allocation outright (singletons are universally acceptable).  With n - 2
    singletons and a pair among the two residue bundles, either some other
    agent takes the pair (full allocation) or nobody would, in which case
    the pair is unblockable and reduces the instance.  Returns
    ("solved", final), CONTINUE after pushing a step, or None.
    """
    cur = pipe.current
    view = pipe.view()
    n = cur.n
    for i in range(1, n + 1):
        sp = structured_partition_chores(view, i, mu[i - 1])
        bundles = sorted(sp.partition, key=lambda b: (len(b), sorted(b)))
        singles = [b for b in bundles if len(b) == 1]
        multis = [b for b in bundles if len(b) >= 2]
        if len(singles) >= n - 1:
            others = [a for a in range(1, n + 1) if a != i]
            alloc = [None] * n
            alloc[i - 1] = multis[0] if multis else singles[-1]
            pool = singles if multis else singles[:-1]
            for a, b in zip(others, pool):
                alloc[a - 1] = b
            pipe.note("chores_base:singletons")
            return ("solved", tuple(alloc))
        if len(singles) == n - 2 and len(multis) == 2 and len(multis[0]) == 2:
            pair, residue = multis[0], multis[1]
            takers = [
                a
                for a in range(1, n + 1)
                if a != i and bundle_value(cur, a, pair) >= mu[a - 1]
            ]
            if takers:
                a = takers[0]
                others = [x for x in range(1, n + 1) if x not in (i, a)]
                alloc = [None] * n
                alloc[i - 1] = residue
                alloc[a - 1] = pair
                for x, b in zip(others, singles):
                    alloc[x - 1] = b
                pipe.note("chores_base:pair_to_other")
                return ("solved", tuple(alloc))
            pipe.note("chores_base:pair_to_self")
            pipe.push(make_step("pair_blockable", {i: pair}))
            return CONTINUE
    return None


def _chores_tail_step(pipe: Pipeline, mu, table: BoundTable):
    """Domination award on a shared tail bundle, if a group is large enough."""
    cur = pipe.current
    view = pipe.view()
    n, m = cur.n, cur.m
    c = m - n
    tails = {}
    for i in range(1, n + 1):
        sp = structured_partition_chores(view, i, mu[i - 1])
        inside = [b for b in sp.partition if b and min(b) >= n]
        if inside:
            tails[i] = min(inside, key=lambda b: tuple(sorted(b)))
    for k in range(2, c + 2):
        threshold = max(c - k + 2, table.n_c_chores(c - k + 1) + 1)
        sized = [TailBundle(i, b) for i, b in tails.items() if len(b) == k]
        groups = group_tail_bundles(sized, k)
        for key in sorted(groups, key=lambda s: tuple(sorted(s))):
            grp = groups[key]
            if len({t.agent for t in grp}) >= threshold:
                try:
                    return reduce_by_domination(view, grp, CHORES, mu)
                except PreconditionUnmet:
                    continue
    return None


def _step(pipe: Pipeline, mu, cap: int, table: BoundTable):
    """One chores step: the guarded blockable pair, the witness bases, then
    the tail groups.  ``cap`` is unused; chores have no scripted search."""
    cur = pipe.current
    step = reduce_pair_blockable(cur, mu)
    if step is not None and known_solvable_chores(
        cur.n - len(step.agents()), cur.m - len(step.items()), table
    ):
        pipe.push(step)
        return CONTINUE
    result = _chores_witness_base(pipe, mu)
    if result is not None:
        return result
    step = _chores_tail_step(pipe, mu, table)
    if step is not None:
        pipe.push(step)
        return CONTINUE
    return None


def solve_chores(
    instance: Instance,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
    table: BoundTable = DEFAULT_TABLE,
) -> SolveOutcome:
    """Solve a chores instance, certifying the result before reporting it."""
    return run(
        instance, CHORES, _step, cap, table,
        "chores_base:one-each", " and beyond the search cap",
    )
