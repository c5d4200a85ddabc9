"""The solve scheme shared by goods and chores.

Sort the instance into its companion, shrink the companion with valid
reductions until a base case finishes it, lift the result back and certify
it against independently recomputed maximin shares.  The item kind only
decides which reductions and case analyses run; ``run`` takes those as a
step function, so the scheme itself exists once.  Results are certified
before being reported as solved — an uncertified result is returned as
unresolved, never as solved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Instance,
    OrderedInstance,
    bundle_value,
    lift_allocation,
    to_ordered,
)
from .errors import TooLarge
from .mms import find_allocation_meeting, mms_value, mu_vector
from .reductions import (
    ReductionStep,
    ReductionTrace,
    apply_with_maps,
    base_identical_partitions,
    make_step,
)

CONTINUE = ("continue",)


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a solve run.

    ``allocation`` is in original-instance coordinates; ``trace`` and
    ``ordered_allocation`` refer to the sorted companion instance, whose
    per-agent item permutations make an item-faithful translation of trace
    steps back to the original impossible.
    """

    status: str  # "solved" | "unresolved"
    allocation: tuple | None
    trace: ReductionTrace | None
    diagnostic: str
    ordered: OrderedInstance | None = None
    ordered_allocation: tuple | None = None


class Pipeline:
    """Accumulates reduction steps against a shrinking ordered instance.

    Steps are pushed in current-residual coordinates and stored translated
    to the companion (fully ordered) instance, so the finished trace can be
    replayed against it.
    """

    def __init__(self, companion: Instance):
        self.companion = companion
        self.current = companion
        self.agent_ids = list(range(1, companion.n + 1))
        self.item_ids = list(range(1, companion.m + 1))
        self.steps: list = []
        self.awards: dict = {}
        self.notes: list = []

    def note(self, text: str) -> None:
        self.notes.append(text)

    def view(self) -> OrderedInstance:
        ranks = tuple(
            tuple(range(1, self.current.m + 1)) for _ in range(self.current.n)
        )
        return OrderedInstance(instance=self.current, source_ranks=ranks)

    def push(self, step: ReductionStep) -> None:
        translated = make_step(
            step.rule,
            {
                self.agent_ids[a - 1]: frozenset(self.item_ids[j - 1] for j in b)
                for a, b in step.assignments
            },
        )
        self.steps.append(translated)
        for a, b in translated.assignments:
            self.awards[a] = b
        residual, agent_map, item_map = apply_with_maps(self.current, step)
        self.agent_ids = [
            self.agent_ids[agent_map[i] - 1] for i in range(1, residual.n + 1)
        ]
        self.item_ids = [
            self.item_ids[item_map[j] - 1] for j in range(1, residual.m + 1)
        ]
        self.current = residual

    def finish(self, final_current):
        """Translate a final residual allocation and close the trace."""
        final = tuple(
            frozenset(self.item_ids[j - 1] for j in b) for b in final_current
        )
        trace = ReductionTrace(steps=tuple(self.steps), final=final)
        full = {a: b for a, b in self.awards.items()}
        for pos, b in enumerate(final):
            full[self.agent_ids[pos]] = b
        allocation = tuple(
            full.get(i, frozenset()) for i in range(1, self.companion.n + 1)
        )
        return trace, allocation


def _drive(pipe: Pipeline, step, cap: int, table, leading_note: str, over_cap: str):
    """Shrink the residual until it is finished.

    Returns (final allocation of the residual, "") or (None, reason).
    """
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
            pipe.note(leading_note)
            final = tuple(
                frozenset({i}) if i <= m else frozenset() for i in range(1, n + 1)
            )
            return final, ""
        mu = mu_vector(cur)
        result = step(pipe, mu, cap, table)
        if result == CONTINUE:
            continue
        if result is not None and result[0] == "solved":
            return result[1], ""
        # no constructive route: exhaustive threshold search or give up
        reason = result[1] if result is not None else f"no constructive route at {n}x{m}"
        try:
            final = find_allocation_meeting(cur, mu, cap)
        except TooLarge:
            return None, reason + over_cap
        if final is None:
            return None, f"no allocation meets all shares at {n}x{m}"
        pipe.note("fallback:threshold-search")
        return final, ""


def run(
    instance: Instance,
    kind: str,
    step,
    cap: int,
    table,
    leading_note: str,
    over_cap: str,
) -> SolveOutcome:
    """Solve an instance of ``kind`` and certify the result before reporting it.

    ``step(pipe, mu, cap, table)`` advances a residual of more than two
    agents and more items than agents: it pushes reductions and returns
    ``CONTINUE``, returns ``("solved", final)``, or returns
    ``("unresolved", reason)`` or ``None`` to fall back to the threshold
    search.  ``leading_note`` names the one-item-each base case, and
    ``over_cap`` ends the reason when the search exceeds ``cap``.
    """
    if instance.kind != kind:
        raise ValueError(f"{kind} instance required")
    ordered = to_ordered(instance)
    pipe = Pipeline(ordered.instance)
    final, reason = _drive(pipe, step, cap, table, leading_note, over_cap)
    diagnostic = "; ".join(pipe.notes)
    if final is None:
        return SolveOutcome(
            status="unresolved",
            allocation=None,
            trace=None,
            diagnostic="; ".join(filter(None, [diagnostic, reason])),
            ordered=ordered,
        )
    trace, companion_alloc = pipe.finish(final)
    allocation = lift_allocation(ordered, companion_alloc, instance)
    status = "solved"
    for i in range(1, instance.n + 1):
        target = mms_value(instance, i).mu
        if bundle_value(instance, i, allocation[i - 1]) < target:
            status, allocation = "unresolved", None
            diagnostic = f"certification failed for agent {i}; " + diagnostic
            break
    return SolveOutcome(
        status=status,
        allocation=allocation,
        trace=trace,
        diagnostic=diagnostic,
        ordered=ordered,
        ordered_allocation=companion_alloc,
    )
