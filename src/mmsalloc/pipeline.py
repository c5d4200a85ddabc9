"""The solve scheme shared by goods and chores.

Sort the instance into its companion, shrink the companion with valid
reductions until a base case finishes it, lift the result back and certify
it against independently recomputed maximin shares.  The item kind only
decides which reductions and case analyses run; ``run`` takes those as a
step function, so the scheme itself exists once.  The pipeline runs every
threshold search of a solve (``Pipeline.search``) under its one cap: the
fallback's, and each scripted branch's on the residual of the step it would
push.  Results are certified before being reported as solved: an
uncertified result is returned as unresolved, never as solved.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .mms import DEFAULT_EXHAUSTIVE_CAP, find_allocation_meeting, mu_vector
from .reductions import (
    ReductionStep,
    ReductionTrace,
    apply_with_maps,
    base_identical_partitions,
    make_step,
)

CONTINUE = ("continue",)

# The pipeline's own branches, named per kind: the one-item-each base case,
# and the end of the reason when a search exceeds the cap.
LEADING_NOTE = {GOODS: "base:leading-singletons", CHORES: "chores_base:one-each"}
OVER_CAP = {GOODS: "; search cap exceeded", CHORES: " and beyond the search cap"}


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
    ``cap`` bounds every assignment search of the solve, scripted or
    fallback, in ``n ** m`` assignments; ``search`` runs them all.
    """

    def __init__(self, companion: Instance, cap: int = DEFAULT_EXHAUSTIVE_CAP):
        self.companion = companion
        self.cap = cap
        self.current = companion
        self.agent_ids = list(range(1, companion.n + 1))
        self.item_ids = list(range(1, companion.m + 1))
        self.steps: list = []
        self.notes: list = []

    def note(self, text: str) -> None:
        self.notes.append(text)

    def push(self, step: ReductionStep) -> None:
        translated = make_step(
            step.rule,
            {
                self.agent_ids[a - 1]: [self.item_ids[j - 1] for j in b]
                for a, b in step.assignments
            },
        )
        self.steps.append(translated)
        self.current, agents, items = apply_with_maps(self.current, step)
        self.agent_ids = [self.agent_ids[a - 1] for a in agents]
        self.item_ids = [self.item_ids[j - 1] for j in items]

    def search(self, mu, reason: str, step=None):
        """An allocation of the residual giving each agent at least its
        share in ``mu``, or None, a proof that none exists: the one
        exhaustive threshold search of the solve.

        With a ``step``, the residual is the one the step would leave
        (``apply_with_maps``), searched against ``mu`` of the agents it
        keeps and in its coordinates.  Past ``cap`` assignments it raises
        TooLarge with ``reason``, which names the branch that overran.
        """
        cur = self.current
        if step is not None:
            cur, kept, _ = apply_with_maps(cur, step)
            mu = [mu[a - 1] for a in kept]
        try:
            return find_allocation_meeting(cur, mu, self.cap)
        except TooLarge:
            raise TooLarge(reason) from None

    def finish(self, final_current):
        """Translate a final residual allocation and close the trace."""
        final = tuple(
            shared_bundle([self.item_ids[j - 1] for j in b]) for b in final_current
        )
        trace = ReductionTrace(steps=tuple(self.steps), final=final)
        return trace, trace.allocation(self.companion.n)


def _drive(pipe: Pipeline, step):
    """Shrink the residual until it is finished.

    Returns (final allocation of the residual, "") or (None, reason).  A
    search past ``pipe.cap``, in the step or in the fallback, leaves the
    residual unresolved.
    """
    kind = pipe.companion.kind
    while True:
        cur = pipe.current
        n, m = cur.n, cur.m
        if n == 0:
            return tuple(), ""
        if n <= 2:
            pipe.note("base:two-agent")
            return base_identical_partitions(cur), ""
        if m <= n:
            # one leading item each, in order; empties beyond that
            pipe.note(LEADING_NOTE[kind])
            final = tuple(
                frozenset({i}) if i <= m else frozenset() for i in range(1, n + 1)
            )
            return final, ""
        mu = mu_vector(cur)
        try:
            result = step(pipe, mu)
            if result == CONTINUE:
                continue
            if result is not None and result[0] == "solved":
                return result[1], ""
            # no constructive route: exhaustive threshold search or give up
            reason = result[1] if result else f"no constructive route at {n}x{m}"
            final = pipe.search(mu, reason)
        except TooLarge as overrun:
            return None, f"{overrun}{OVER_CAP[kind]}"
        if final is None:
            return None, f"no allocation meets all shares at {n}x{m}"
        pipe.note("fallback:threshold-search")
        return final, ""


def run(instance: Instance, kind: str, step, cap: int) -> SolveOutcome:
    """Solve an instance of ``kind`` and certify the result before reporting it.

    ``step(pipe, mu)`` advances a residual of more than two agents and
    more items than agents: it pushes reductions and returns ``CONTINUE``,
    returns ``("solved", final)``, or returns ``("unresolved", reason)`` or
    ``None`` to fall back to the threshold search.  Every search, the
    step's own included, stops at ``cap`` assignments (``pipe.cap``).
    """
    if instance.kind != kind:
        raise ValueError(f"{kind} instance required")
    ordered = to_ordered(instance)
    pipe = Pipeline(ordered.instance, cap)
    final, reason = _drive(pipe, step)
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
    shares = mu_vector(instance)
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
