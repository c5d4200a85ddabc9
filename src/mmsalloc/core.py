"""Instance model, exact arithmetic, ordering, and the picking-sequence lift.

Valuations are exact throughout: an ``int`` when integral, otherwise a
``fractions.Fraction``.  So every comparison in a reduction precondition is
decidable, and integer instances never leave plain integer arithmetic.
Items and agents are 1-based everywhere.  A bundle is a frozenset of item
ids; an allocation is a tuple of n pairwise disjoint bundles covering every
item.  Goods are non-negative, chores non-positive; in an ordered chores
instance item 1 is the *worst* chore, so goods and chores code can share
index conventions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable

from .errors import EmptyMatrix, MalformedDocument, ShapeMismatch, SignViolation

GOODS = "goods"
CHORES = "chores"

# The one frozenset of each distinct bundle, keyed by itself.  Instances have
# n agents and about n items, so the allocations and traces of many solves
# reuse few distinct bundles; every bundle an outcome keeps is built by
# shared_bundle and points here.  Once the table holds _SHARED_BUNDLE_LIMIT
# bundles its oldest quarter is evicted (``drop_oldest``); an evicted bundle
# lives on in whatever still holds it.
_SHARED_BUNDLE_LIMIT = 1 << 12
_shared_bundles: dict = {}


def drop_oldest(table: dict) -> None:
    """Evict the oldest quarter (at least one) of a full bounded table.

    One pass over the front of the dict: evicting one entry at a time would
    walk every slot freed before it, a cost that grows with each eviction.
    """
    for key in list(islice(table, max(1, len(table) // 4))):
        del table[key]


def shared_bundle(items) -> frozenset:
    """The shared frozenset of ``items``, which must be plain int item ids:
    a float or bool id equals an int one and would stand in for it."""
    bundle = frozenset(items)
    shared = _shared_bundles.get(bundle)
    if shared is None:
        if len(_shared_bundles) >= _SHARED_BUNDLE_LIMIT:
            drop_oldest(_shared_bundles)
        shared = _shared_bundles[bundle] = bundle
    return shared


def as_exact(x) -> int | Fraction:
    """An int, Fraction, or "p/q" string as an exact number: an int when
    integral, otherwise a Fraction.  A bool is refused: it is an int in
    Python, but a JSON true is no number."""
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


def format_fraction(x: int | Fraction) -> object:
    """Render an exact value for JSON: plain int when integral, else "p/q"."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, slots=True)
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

    def value(self, agent: int, item: int) -> int | Fraction:
        return self.valuations[agent - 1][item - 1]

    def row(self, agent: int) -> tuple:
        return self.valuations[agent - 1]


_INT_ONLY = frozenset({int})


def make_instance(kind: str, valuations: Iterable[Iterable]) -> Instance:
    """Validate and build an Instance from a rectangular matrix.

    Raises SignViolation for an entry of the wrong sign, EmptyMatrix when
    there are no agents.  A zero entry is allowed for either kind.
    """
    if kind not in (GOODS, CHORES):
        raise ValueError(f"kind must be {GOODS!r} or {CHORES!r}, got {kind!r}")
    rows = []
    for row in valuations:
        row = tuple(row)
        # plain ints are exact already; only other rows go through as_exact
        if not set(map(type, row)) <= _INT_ONLY:
            row = tuple([as_exact(v) for v in row])
        rows.append(row)
    if not rows:
        raise EmptyMatrix("instance needs at least one agent")
    m = len(rows[0])
    for row in rows:
        if len(row) != m:
            raise ShapeMismatch("valuation matrix is not rectangular")
        if kind == GOODS and min(row, default=0) < 0:
            v = next(v for v in row if v < 0)
            raise SignViolation(f"negative value {v} in a goods instance")
        if kind == CHORES and max(row, default=0) > 0:
            v = next(v for v in row if v > 0)
            raise SignViolation(f"positive value {v} in a chores instance")
    return Instance(kind=kind, valuations=tuple(rows))


def bundle_value(instance: Instance, agent: int, bundle) -> int | Fraction:
    """Additive value of a bundle for an agent; the empty bundle is worth 0."""
    row = instance.valuations[agent - 1]
    return sum([row[j - 1] for j in bundle])


def validate_allocation(instance: Instance, allocation) -> None:
    """Check the partition invariant: disjoint bundles covering {1..m}."""
    if len(allocation) != instance.n:
        raise ShapeMismatch(
            f"allocation has {len(allocation)} bundles for {instance.n} agents"
        )
    m = instance.m
    seen = set()
    for bundle in allocation:
        for j in bundle:
            if not (type(j) is int and 1 <= j <= m) or j in seen:
                raise ShapeMismatch(f"item {j} missing, duplicated, or out of range")
            seen.add(j)
    if len(seen) != m:
        raise ShapeMismatch("allocation does not cover all items")


@dataclass(frozen=True, slots=True)
class OrderedInstance:
    """An instance whose rows are sorted per kind: for goods each row is
    non-increasing, for chores non-decreasing (worst chore first)."""

    instance: Instance


def to_ordered(instance: Instance) -> OrderedInstance:
    """Sort each agent's row per kind.

    Each agent's MMS is unchanged, because sorting is a bijection on her
    item values.
    """
    descending = instance.kind == GOODS
    rows = tuple(
        [tuple(sorted(row, reverse=descending)) for row in instance.valuations]
    )
    return OrderedInstance(instance=Instance(kind=instance.kind, valuations=rows))


def lift_allocation(ordered: OrderedInstance, ordered_alloc, original: Instance):
    """Convert an ordered-instance allocation back to the original instance.

    Picking sequence: slots are processed from most to least valuable
    (ordered index 1..m for goods, m..1 for chores) and the agent holding
    the slot picks her best remaining original item, the lowest id among
    ties.  Every agent ends up with a bundle worth at least her
    ordered-allocation bundle.
    """
    companion = ordered.instance
    shape = (original.kind, original.n, original.m)
    if (companion.kind, companion.n, companion.m) != shape:
        raise ShapeMismatch("ordered instance does not match the original")
    validate_allocation(companion, ordered_alloc)

    rows = original.valuations
    m = original.m
    # the holder of each slot, in picking order
    holders = [0] * m
    for i, bundle in enumerate(ordered_alloc):
        for j in bundle:
            holders[j - 1] = i
    if original.kind == CHORES:
        holders.reverse()

    # each agent's items best first, ties by id, and how far she has picked
    best_first = [sorted(range(m), key=row.__getitem__, reverse=True) for row in rows]
    picked_up_to = [0] * len(rows)
    taken = [False] * m
    picked = [[] for _ in rows]
    for agent in holders:
        order = best_first[agent]
        k = picked_up_to[agent]
        while taken[order[k]]:
            k += 1
        picked_up_to[agent] = k + 1
        taken[order[k]] = True
        picked[agent].append(order[k] + 1)
    return tuple([shared_bundle(b) for b in picked])


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
    try:
        instance = make_instance(data["kind"], data["valuations"])
    except KeyError as exc:
        raise MalformedDocument(f"instance document has no {exc} field") from exc
    except TypeError as exc:
        raise MalformedDocument(f"instance document: {exc}") from exc
    for field, size in (("n", instance.n), ("m", instance.m)):
        declared = data.get(field, size)
        if type(declared) is not int:
            raise MalformedDocument(f"instance document: {field} is {declared!r}")
        if declared != size:
            raise ShapeMismatch("declared n/m do not match the valuation matrix")
    return instance


def allocation_to_json(allocation) -> str:
    return json.dumps({"bundles": [sorted(b) for b in allocation]})


def allocation_from_json(text: str):
    """The allocation of a document.  A bundle with an item that is not a
    plain int is left unshared, for ``validate_allocation`` to judge."""
    data = json.loads(text)
    if any(len(set(b)) != len(b) for b in data["bundles"]):
        raise MalformedDocument("an allocation bundle repeats an item")
    bundles = (frozenset(b) for b in data["bundles"])
    return tuple(
        shared_bundle(b) if all(type(j) is int for j in b) else b for b in bundles
    )
