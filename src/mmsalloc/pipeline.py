"""The solve scheme shared by goods and chores.

Sort the instance into its companion, shrink the companion with valid
reductions until a base case finishes it, lift the result back and certify
it against the shares computed once, on the companion.  The item kind only
decides which reductions and case analyses run; ``run`` takes those as a
step function, which pushes reductions or finishes the residual, so the
scheme itself exists once, and so does the shape guard on the steps'
simple reductions (``Pipeline.push_guarded``).  The pipeline runs every
threshold search of a solve (``Pipeline.settle``): the fallback's, and each
scripted branch's on the residual of the step it would push, which it
pushes on success.  A branch's tag is noted where its step is committed,
in ``push`` or ``settle``.  Each search stops at its node budget
(``mms.SEARCH_NODES``), the solve's one limit.
Results are certified before being reported: an uncertified result is
unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import known_solvable
from .core import (
    CHORES,
    GOODS,
    Instance,
    OrderedInstance,
    bundle_value,
    lift_allocation,
    shared_bundle,
    to_ordered,
)
from .errors import TooLarge
from .mms import find_allocation_meeting, mu_vector
from .reductions import (
    ReductionStep,
    ReductionTrace,
    apply_with_maps,
    base_identical_partitions,
)

# The pipeline's own branch, named per kind: the one-item-each base case.
LEADING_NOTE = {GOODS: "base:leading-singletons", CHORES: "chores_base:one-each"}


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """Result of a solve run.

    Stored: ``status``, ``allocation`` (in original-instance coordinates),
    ``trace``, ``diagnostic`` and ``instance``, the solved instance itself
    (shared with the caller, not copied).  Derived on each access, so an
    outcome holds no second copy of either: ``ordered``, the sorted
    companion ``to_ordered(instance)``, and ``ordered_allocation``, the
    companion allocation ``trace.allocation(n)``.  Every bundle of the
    allocation and the trace is the one shared frozenset of its items
    (``core.shared_bundle``), so outcomes that hold equal bundles hold one
    copy between them.  The trace and the companion allocation refer to
    the sorted companion, whose per-agent item permutations make an
    item-faithful translation of trace steps back to the original
    impossible.
    """

    status: str  # "solved" | "unresolved"
    allocation: tuple | None
    trace: ReductionTrace | None
    diagnostic: str
    instance: Instance | None = None

    @property
    def ordered(self) -> OrderedInstance | None:
        if self.instance is None:
            return None
        return to_ordered(self.instance)

    @property
    def ordered_allocation(self) -> tuple | None:
        if self.trace is None or self.instance is None:
            return None
        return self.trace.allocation(self.instance.n)


class Pipeline:
    """Accumulates reduction steps against a shrinking sorted instance.

    ``current`` is the sorted residual that every step and rule works on.
    Steps are pushed in its coordinates and stored translated to the
    companion instance, so the finished trace can be replayed against it.
    ``settle`` runs every threshold search of the solve, scripted or
    fallback.
    """

    def __init__(self, companion: Instance):
        self.companion = companion
        self.current = companion
        self.agent_ids = list(range(1, companion.n + 1))
        self.item_ids = list(range(1, companion.m + 1))
        self.steps: list = []
        self.notes: list = []

    def note(self, text: str) -> None:
        self.notes.append(text)

    def push(self, step: ReductionStep, tag: str = "") -> None:
        """Apply a step made by ``make_step`` to the residual, store it
        translated to the companion and note ``tag``, the branch taking it."""
        self._commit(step, apply_with_maps(self.current, step), tag)

    def _commit(self, step: ReductionStep, applied, tag: str) -> None:
        """``push`` with ``applied``, what ``apply_with_maps`` made of the
        step.  The residual's ids map to the companion's in increasing order,
        so the translation keeps the step's agents ascending and its bundles
        disjoint."""
        self.current, agents, items = applied
        agent_ids, item_ids = self.agent_ids, self.item_ids
        awards = [
            (agent_ids[a - 1], shared_bundle([item_ids[j - 1] for j in b]))
            for a, b in step.assignments
        ]
        self.steps.append(ReductionStep(rule=step.rule, assignments=tuple(awards)))
        self.agent_ids = [agent_ids[a - 1] for a in agents]
        self.item_ids = [item_ids[j - 1] for j in items]
        if tag:
            self.note(tag)

    def push_guarded(self, rules, mu) -> bool:
        """Push the first step ``rule(current, mu)`` of ``rules``, tried in
        order, whose residual is still ``known_solvable``; later rules do
        not run.  Returns whether a step was pushed."""
        cur = self.current
        for rule in rules:
            step = rule(cur, mu)
            if step is not None and known_solvable(
                cur.kind, cur.n - len(step.agents()), cur.m - len(step.items())
            ):
                self.push(step)
                return True
        return False

    def settle(self, mu, reason: str, tag: str, step=None):
        """The one exhaustive threshold search of a solve: an allocation of
        the residual giving each agent her share in ``mu``.  With a ``step``,
        the residual it leaves, for the agents it keeps, is searched and on
        success pushed.  Success notes ``tag`` and returns the allocation of
        the new ``current``; None, a proof that none exists, changes nothing.
        Past its node budget it raises TooLarge with ``reason``."""
        residual = self.current
        if step is not None:
            applied = apply_with_maps(residual, step)
            residual, kept, _ = applied
            mu = [mu[a - 1] for a in kept]
        try:
            final = find_allocation_meeting(residual, mu)
        except TooLarge:
            raise TooLarge(reason) from None
        if final is not None:
            if step is None:
                self.note(tag)
            else:
                self._commit(step, applied, tag)
        return final

    def finish(self, final_current):
        """Translate a final residual allocation and close the trace."""
        item_ids = self.item_ids
        final = tuple(
            [shared_bundle([item_ids[j - 1] for j in b]) for b in final_current]
        )
        trace = ReductionTrace(steps=tuple(self.steps), final=final)
        return trace, trace.allocation(self.companion.n)


def _drive(pipe: Pipeline, step):
    """Shrink the residual until it is finished.

    Returns (final allocation of the residual, the companion's shares, "")
    or (None, None, reason).  Those shares serve the first round too.  A
    step that pushed nothing (``pipe.current`` did not move) and returned
    None leaves the residual to the fallback search.  A search past its
    node budget, in the shares, the two-agent base, the step or the
    fallback, leaves it unresolved.
    """
    kind = pipe.companion.kind
    try:
        shares = mu_vector(pipe.companion)
        while True:
            cur = pipe.current
            n, m = cur.n, cur.m
            if n == 0:
                return tuple(), shares, ""
            if n <= 2:
                pipe.note("base:two-agent")
                return base_identical_partitions(cur), shares, ""
            if m <= n:
                # one leading item each, in order; empties beyond that
                pipe.note(LEADING_NOTE[kind])
                final = tuple(
                    frozenset({i}) if i <= m else frozenset() for i in range(1, n + 1)
                )
                return final, shares, ""
            mu = shares if cur is pipe.companion else mu_vector(cur)
            final = step(pipe, mu)
            if final is not None:
                return final, shares, ""
            if pipe.current is not cur:
                continue
            # no constructive route: exhaustive threshold search or give up
            final = pipe.settle(
                mu, f"no constructive route at {n}x{m}", "fallback:threshold-search"
            )
            if final is None:
                return None, None, f"no allocation meets all shares at {n}x{m}"
            return final, shares, ""
    except TooLarge as overrun:
        return None, None, f"{overrun}; search budget exceeded"


def run(instance: Instance, kind: str, step) -> SolveOutcome:
    """Solve an instance of ``kind`` and certify the result before reporting it.

    ``step(pipe, mu)`` advances a residual of more than two agents and
    more items than agents: it returns the final allocation of the residual
    it leaves, or None to go round again if it pushed and to fall back to
    the threshold search if not.  Every search, the step's own included,
    stops at its node budget.  The certification reads the companion's
    shares from ``_drive``: sorting a row keeps its share.
    """
    if instance.kind != kind:
        raise ValueError(f"{kind} instance required")
    ordered = to_ordered(instance)
    pipe = Pipeline(ordered.instance)
    final, shares, reason = _drive(pipe, step)
    diagnostic = "; ".join(pipe.notes)
    if final is None:
        return SolveOutcome(
            status="unresolved",
            allocation=None,
            trace=None,
            diagnostic="; ".join(filter(None, [diagnostic, reason])),
            instance=instance,
        )
    trace, companion_alloc = pipe.finish(final)
    allocation = lift_allocation(ordered, companion_alloc, instance)
    status = "solved"
    for i in range(1, instance.n + 1):
        if bundle_value(instance, i, allocation[i - 1]) < shares[i - 1]:
            status, allocation = "unresolved", None
            diagnostic = f"certification failed for agent {i}; " + diagnostic
            break
    return SolveOutcome(
        status=status,
        allocation=allocation,
        trace=trace,
        diagnostic=diagnostic,
        instance=instance,
    )
