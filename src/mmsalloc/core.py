"""Instance model, exact arithmetic, ordering, and the picking-sequence lift.

Valuations are exact rationals throughout (``fractions.Fraction``), so every
comparison in a reduction precondition is decidable.  Items and agents are
1-based everywhere.  Goods are non-negative, chores non-positive; in an
ordered chores instance item 1 is the *worst* chore, so goods and chores
code can share index conventions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import EmptyMatrix, ShapeMismatch, SignViolation

GOODS = "goods"
CHORES = "chores"

Bundle = frozenset  # of 1-based item ids
Allocation = tuple  # of n Bundles, pairwise disjoint, covering {1..m}


def as_fraction(x) -> Fraction:
    """Promote an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def format_fraction(x: Fraction) -> object:
    """Render a Fraction for JSON: plain int when integral, else "p/q"."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Instance:
    """A fair-allocation instance: n agents, m items, exact valuations.

    ``valuations[i-1][j-1]`` is agent i's value for item j.
    """

    kind: str
    valuations: tuple

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def m(self) -> int:
        return len(self.valuations[0]) if self.valuations else 0

    def value(self, agent: int, item: int) -> Fraction:
        return self.valuations[agent - 1][item - 1]

    def row(self, agent: int) -> tuple:
        return self.valuations[agent - 1]


def make_instance(kind: str, valuations: Iterable[Iterable]) -> Instance:
    """Validate and build an Instance from a rectangular matrix.

    Raises SignViolation for an entry of the wrong sign, EmptyMatrix when
    there are no agents.  A zero entry is allowed for either kind.
    """
    if kind not in (GOODS, CHORES):
        raise ValueError(f"kind must be {GOODS!r} or {CHORES!r}, got {kind!r}")
    rows = [tuple(as_fraction(v) for v in row) for row in valuations]
    if not rows:
        raise EmptyMatrix("instance needs at least one agent")
    m = len(rows[0])
    for row in rows:
        if len(row) != m:
            raise ShapeMismatch("valuation matrix is not rectangular")
        for v in row:
            if kind == GOODS and v < 0:
                raise SignViolation(f"negative value {v} in a goods instance")
            if kind == CHORES and v > 0:
                raise SignViolation(f"positive value {v} in a chores instance")
    return Instance(kind=kind, valuations=tuple(rows))


def bundle_value(instance: Instance, agent: int, bundle) -> Fraction:
    """Additive value of a bundle for an agent; the empty bundle is worth 0."""
    row = instance.row(agent)
    return sum((row[j - 1] for j in bundle), Fraction(0))


def validate_allocation(instance: Instance, allocation) -> None:
    """Check the partition invariant: disjoint bundles covering {1..m}."""
    if len(allocation) != instance.n:
        raise ShapeMismatch(
            f"allocation has {len(allocation)} bundles for {instance.n} agents"
        )
    seen = set()
    for bundle in allocation:
        for j in bundle:
            if not (1 <= j <= instance.m) or j in seen:
                raise ShapeMismatch(f"item {j} missing, duplicated, or out of range")
            seen.add(j)
    if len(seen) != instance.m:
        raise ShapeMismatch("allocation does not cover all items")


@dataclass(frozen=True)
class OrderedInstance:
    """An instance whose rows are sorted per kind, plus the sort permutations.

    For goods each row is non-increasing, for chores non-decreasing (worst
    chore first).  ``source_ranks[i-1][j-1]`` is the original item id whose
    value sits at ordered position j in agent i's row.
    """

    instance: Instance
    source_ranks: tuple

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def m(self) -> int:
        return self.instance.m

    @property
    def kind(self) -> str:
        return self.instance.kind


def to_ordered(instance: Instance) -> OrderedInstance:
    """Sort each agent's row per kind; ties broken by original item id.

    Each agent's MMS is unchanged, because sorting is a bijection on her
    item values.
    """
    descending = instance.kind == GOODS
    rows = []
    ranks = []
    for i in range(1, instance.n + 1):
        row = instance.row(i)
        order = sorted(
            range(1, instance.m + 1),
            key=lambda j: (-row[j - 1], j) if descending else (row[j - 1], j),
        )
        ranks.append(tuple(order))
        rows.append(tuple(row[j - 1] for j in order))
    ordered = Instance(kind=instance.kind, valuations=tuple(rows))
    return OrderedInstance(instance=ordered, source_ranks=tuple(ranks))


def lift_allocation(ordered: OrderedInstance, ordered_alloc, original: Instance):
    """Convert an ordered-instance allocation back to the original instance.

    Picking sequence: slots are processed from most to least valuable
    (ordered index 1..m for goods, m..1 for chores) and the agent holding
    the slot picks her best remaining original item.  Every agent ends up
    with a bundle worth at least her ordered-allocation bundle.
    """
    if ordered.instance.kind != original.kind or ordered.m != original.m:
        raise ShapeMismatch("ordered instance does not match the original")
    validate_allocation(ordered.instance, ordered_alloc)

    holder = {}
    for i, bundle in enumerate(ordered_alloc, start=1):
        for j in bundle:
            holder[j] = i

    slots = range(1, ordered.m + 1)
    if original.kind == CHORES:
        slots = reversed(slots)

    remaining = set(range(1, original.m + 1))
    picked = [set() for _ in range(original.n)]
    for slot in slots:
        agent = holder[slot]
        row = original.row(agent)
        best = max(remaining, key=lambda j: (row[j - 1], -j))
        remaining.remove(best)
        picked[agent - 1].add(best)
    return tuple(frozenset(b) for b in picked)


# --- JSON wire formats -------------------------------------------------------

def instance_to_json(instance: Instance) -> str:
    return json.dumps(
        {
            "kind": instance.kind,
            "n": instance.n,
            "m": instance.m,
            "valuations": [
                [format_fraction(v) for v in row] for row in instance.valuations
            ],
        }
    )


def instance_from_json(text: str) -> Instance:
    data = json.loads(text)
    instance = make_instance(data["kind"], data["valuations"])
    if instance.n != data.get("n", instance.n) or instance.m != data.get("m", instance.m):
        raise ShapeMismatch("declared n/m do not match the valuation matrix")
    return instance


def allocation_to_json(allocation) -> str:
    return json.dumps({"bundles": [sorted(b) for b in allocation]})


def allocation_from_json(text: str):
    data = json.loads(text)
    return tuple(frozenset(b) for b in data["bundles"])
