"""Chores steps of the constructive solver.

``solve_chores`` runs the shared pipeline (``mmsalloc.pipeline``) with this
module's step.  The key facts flip direction from goods: any single chore
is acceptable to every agent (it costs no more than the bundle containing
it in her own witness partition), witness partitions can be normalized to
carry their singletons on the worst chores, and domination awards the
*worse* of two comparable bundles.  A step builds each agent's structured
witness once and reads it twice: as a base case that finishes the residual
or pushes a reduction, and for its tail bundle, which the shared tail-bundle
groups of large agent counts use when no base fires; anything else falls
back to the pipeline's exhaustive threshold search.
"""

from __future__ import annotations

from .bounds import tail_thresholds
from .core import (
    CHORES,
    Instance,
    bundle_value,
)
from .domination import tail_bundle
from .mms import structured_partition_chores
# Unused here: the bench's tracer patches this binding, which
# test_tracing_patches_every_binding_and_restores_it asserts.
from .mms import mms_value  # noqa: F401
from .pipeline import Pipeline, SolveOutcome, run
from .reductions import (
    RULE_PAIR_BLOCKABLE,
    make_step,
    reduce_by_tail_group,
    reduce_pair_blockable,
)


def _witness_base(pipe: Pipeline, i: int, part, mu):
    """Finish or shrink via agent i's witness ``part`` if it is packed with
    singleton chores.

    A witness with n - 1 singletons plus one residue bundle is a full
    allocation outright (singletons are universally acceptable).  With n - 2
    singletons and a pair among the two residue bundles, either some other
    agent takes the pair (full allocation) or nobody would, in which case
    the pair is unblockable and reduces the instance.  Returns the full
    allocation, or None, having pushed the pair or not.
    """
    cur = pipe.current
    n = cur.n
    bundles = sorted(part, key=lambda b: (len(b), sorted(b)))
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
        return tuple(alloc)
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
            return tuple(alloc)
        pipe.push(make_step(RULE_PAIR_BLOCKABLE, {i: pair}), "chores_base:pair_to_self")
    return None


def _step(pipe: Pipeline, mu):
    """One chores step: the guarded blockable pair, then one pass over the
    agents' structured witnesses, each built once and read twice: as a
    witness base, and for its tail bundle.  Only when no base fires do the
    shared tail groups award a domination step."""
    if pipe.push_guarded((reduce_pair_blockable,), mu):
        return None
    cur = pipe.current
    n = cur.n
    tails = {}
    for i in range(1, n + 1):
        part = structured_partition_chores(cur, i, mu[i - 1])
        final = _witness_base(pipe, i, part, mu)
        if final is not None or pipe.current is not cur:
            return final
        tb = tail_bundle(part, n)
        if tb is not None:
            tails[i] = tb
    step = reduce_by_tail_group(cur, tails, mu, tail_thresholds(CHORES, cur.m - n))
    if step is not None:
        pipe.push(step)
    return None


def solve_chores(instance: Instance) -> SolveOutcome:
    """Solve a chores instance, certifying the result before reporting it."""
    return run(instance, CHORES, _step)
