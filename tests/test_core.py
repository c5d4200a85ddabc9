"""Instance model, JSON wire format, ordering, and the picking-sequence lift."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsalloc import (
    CHORES,
    GOODS,
    Instance,
    OrderedInstance,
    allocation_from_json,
    allocation_to_json,
    bundle_value,
    instance_from_json,
    instance_to_json,
    lift_allocation,
    make_instance,
    mms_value,
    to_ordered,
    validate_allocation,
)
from mmsalloc.core import as_exact, shared_bundle
from mmsalloc.errors import (
    EmptyMatrix,
    MalformedDocument,
    ShapeMismatch,
    SignViolation,
)
from mmsalloc.reductions import trace_from_json


def test_make_instance_basic():
    inst = make_instance(GOODS, [[3, 1, 2], [1, 1, 1]])
    assert inst.n == 2 and inst.m == 3
    assert inst.value(1, 1) == 3
    assert inst.row(2) == (1, 1, 1)


def test_make_instance_rejects_bad_input():
    with pytest.raises(EmptyMatrix):
        make_instance(GOODS, [])
    with pytest.raises(ShapeMismatch):
        make_instance(GOODS, [[1, 2], [1]])
    with pytest.raises(SignViolation):
        make_instance(GOODS, [[1, -2]])
    with pytest.raises(SignViolation):
        make_instance(CHORES, [[-1, 2]])
    with pytest.raises(ValueError):
        make_instance("bads", [[1]])


def _reference_make_instance(kind, valuations):
    """`make_instance` as it was before plain-int rows skipped `as_exact`:
    every entry converted, then shapes and signs checked entry by entry."""
    if kind not in (GOODS, CHORES):
        raise ValueError(f"kind must be {GOODS!r} or {CHORES!r}, got {kind!r}")
    rows = [tuple(as_exact(v) for v in row) for row in valuations]
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


def _built_or_raised(build, kind, rows):
    """The instance with each value's exact type, or the error's class and text."""
    try:
        inst = build(kind, rows)
    except Exception as exc:  # the outcome under comparison, whatever it is
        return type(exc), str(exc)
    return inst, [[type(v) for v in row] for row in inst.valuations]


@pytest.mark.parametrize(
    "kind, rows",
    [
        (GOODS, [[3, 1, 2], [0, 0, 5]]),
        (GOODS, [[True, False, 2]]),
        (CHORES, [[-1, False], [-True, 0]]),
        (GOODS, [[Fraction(1, 3), 2], [Fraction(4, 2), 0]]),
        (CHORES, [[Fraction(-1, 3), -2], [0, Fraction(-6, 3)]]),
        (GOODS, [["1/3", "2", 3], ["4/2", 0, "0/5"]]),
        (CHORES, [["-1/3", -2], [0, "-6/3"]]),
        (GOODS, [[1, 2], [3]]),
        (GOODS, [[1, 2], [3, "1/2", 4]]),
        (CHORES, [[-1, -2], []]),
        (GOODS, [[1, -2, -5], [1, 1, 1]]),
        (GOODS, [[1, 2, 3], [1, Fraction(-1, 2), -3]]),
        (CHORES, [[-1, 2, 5], [-1, -1, -1]]),
        (CHORES, [[-1, -2, -3], [-1, "1/2", 3]]),
        (GOODS, [[1, -2], [3]]),
        (GOODS, []),
        (GOODS, [[]]),
        (GOODS, [[1, 2.5]]),
        (GOODS, [[1, "x"]]),
        (GOODS, [5]),
        ("bads", [[1]]),
    ],
)
def test_make_instance_matches_the_reference(kind, rows):
    """Plain-int rows skip `as_exact`; every other row, and every error
    class and message, is as before."""
    assert _built_or_raised(make_instance, kind, rows) == _built_or_raised(
        _reference_make_instance, kind, rows
    )


def test_make_instance_reads_rows_from_iterators():
    rows = (iter([4, 2]) for _ in range(3))
    assert make_instance(GOODS, rows).valuations == ((4, 2),) * 3
    with pytest.raises(EmptyMatrix):
        make_instance(CHORES, iter([]))


def test_zero_values_allowed_for_both_kinds():
    make_instance(GOODS, [[0, 0]])
    make_instance(CHORES, [[0, 0]])


def test_fraction_values_survive_json_round_trip():
    inst = make_instance(GOODS, [[Fraction(1, 3), 2], [0, Fraction(7, 2)]])
    again = instance_from_json(instance_to_json(inst))
    assert again == inst
    assert again.value(1, 1) == Fraction(1, 3)


def test_integral_values_are_stored_as_int():
    inst = make_instance(GOODS, [["4/2", Fraction(6, 3), 1, "1/2"]])
    assert [type(v) for v in inst.row(1)] == [int, int, int, Fraction]
    assert inst.row(1) == (2, 2, 1, Fraction(1, 2))
    assert type(bundle_value(inst, 1, frozenset({1, 2, 3}))) is int
    assert bundle_value(inst, 1, frozenset({1, 4})) == Fraction(5, 2)
    assert type(bundle_value(inst, 1, frozenset())) is int
    with pytest.raises(TypeError):
        make_instance(GOODS, [[0.5]])


def test_allocation_json_round_trip():
    alloc = (frozenset({1, 3}), frozenset(), frozenset({2}))
    assert allocation_from_json(allocation_to_json(alloc)) == alloc


def test_documents_share_only_bundles_of_integer_ids():
    """A float or bool item equals an int id; a document holding one gets
    neither the shared bundle of that id nor a place in the table."""
    one = shared_bundle([1])
    alloc = allocation_from_json(json.dumps({"bundles": [[1.0], [True], [2]]}))
    assert [type(j) for b in alloc for j in b] == [float, bool, int]
    assert alloc[2] is shared_bundle({2})
    with pytest.raises(ShapeMismatch):
        validate_allocation(make_instance(GOODS, [[1, 1]] * 3), alloc)
    fresh = 987_654_321  # an id no solve has shared
    allocation_from_json(json.dumps({"bundles": [[float(fresh)]]}))
    for item in (1.0, True, float(fresh)):
        doc = {"steps": [], "final": {"bundles": [[item]]}}
        with pytest.raises(MalformedDocument):
            trace_from_json(json.dumps(doc))
    assert shared_bundle([1]) is one
    assert [type(j) for j in shared_bundle([fresh])] == [int]


def test_bundle_value_empty_is_zero():
    inst = make_instance(CHORES, [[-1, -2]])
    assert bundle_value(inst, 1, frozenset()) == 0
    assert bundle_value(inst, 1, frozenset({1, 2})) == -3


def test_validate_allocation_catches_misallocations():
    inst = make_instance(GOODS, [[1, 1], [1, 1]])
    validate_allocation(inst, (frozenset({1}), frozenset({2})))
    with pytest.raises(ShapeMismatch):
        validate_allocation(inst, (frozenset({1}),))
    with pytest.raises(ShapeMismatch):
        validate_allocation(inst, (frozenset({1}), frozenset({1})))
    with pytest.raises(ShapeMismatch):
        validate_allocation(inst, (frozenset({1}), frozenset()))
    for stray in ("2", 1.5, 0, 3):
        with pytest.raises(ShapeMismatch):
            validate_allocation(inst, (frozenset({1}), frozenset({stray})))
    # True equals item 1 but is not an item id
    with pytest.raises(ShapeMismatch):
        validate_allocation(inst, (frozenset({True}), frozenset({2})))


def _random_instance(rng, kind, n, m, hi=10):
    sign = -1 if kind == CHORES else 1
    return make_instance(
        kind, [[sign * rng.randint(0, hi) for _ in range(m)] for _ in range(n)]
    )


def test_to_ordered_sorts_rows_per_kind():
    rng = random.Random(0)
    for kind in (GOODS, CHORES):
        for _ in range(50):
            inst = _random_instance(rng, kind, rng.randint(1, 4), rng.randint(1, 7))
            ordered = to_ordered(inst)
            for i in range(1, inst.n + 1):
                row = ordered.instance.row(i)
                if kind == GOODS:
                    assert all(row[j] >= row[j + 1] for j in range(len(row) - 1))
                else:
                    assert all(row[j] <= row[j + 1] for j in range(len(row) - 1))
                # the sorted row holds the original row's values
                assert sorted(row) == sorted(inst.row(i))


def test_to_ordered_preserves_mms():
    rng = random.Random(1)
    for kind in (GOODS, CHORES):
        for _ in range(25):
            inst = _random_instance(rng, kind, rng.randint(1, 3), rng.randint(1, 6))
            ordered = to_ordered(inst)
            for i in range(1, inst.n + 1):
                assert (
                    mms_value(inst, i).mu == mms_value(ordered.instance, i).mu
                )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lift_never_decreases_any_agents_value(data):
    kind = data.draw(st.sampled_from([GOODS, CHORES]))
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 6))
    sign = -1 if kind == CHORES else 1
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 8).map(lambda v: sign * v), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    inst = make_instance(kind, rows)
    ordered = to_ordered(inst)
    # random ordered allocation
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    owners = [rng.randrange(n) for _ in range(m)]
    ordered_alloc = tuple(
        frozenset(j + 1 for j, o in enumerate(owners) if o == i) for i in range(n)
    )
    lifted = lift_allocation(ordered, ordered_alloc, inst)
    validate_allocation(inst, lifted)
    for i in range(1, n + 1):
        assert bundle_value(inst, i, lifted[i - 1]) >= bundle_value(
            ordered.instance, i, ordered_alloc[i - 1]
        )


def test_lift_rejects_mismatched_shapes():
    inst = make_instance(GOODS, [[1, 2]])
    other = make_instance(GOODS, [[1, 2, 3]])
    ordered = to_ordered(inst)
    with pytest.raises(ShapeMismatch):
        lift_allocation(ordered, (frozenset({1, 2}),), other)
    # a companion of fewer agents than the original, and of more
    two = make_instance(GOODS, [[3, 2, 1], [1, 2, 3]])
    three = make_instance(GOODS, [[3, 2, 1], [1, 2, 3], [2, 2, 2]])
    two_agents = (frozenset({1, 3}), frozenset({2}))
    three_agents = (frozenset({1}), frozenset({2}), frozenset({3}))
    with pytest.raises(ShapeMismatch):
        lift_allocation(to_ordered(two), two_agents, three)
    with pytest.raises(ShapeMismatch):
        lift_allocation(to_ordered(three), three_agents, two)


def _reference_to_ordered(instance):
    """Row sorting as it was done with an explicit (value, id) key."""
    descending = instance.kind == GOODS
    rows = []
    for i in range(1, instance.n + 1):
        row = instance.row(i)
        order = sorted(
            range(1, instance.m + 1),
            key=lambda j: (-row[j - 1], j) if descending else (row[j - 1], j),
        )
        rows.append(tuple(row[j - 1] for j in order))
    ordered = Instance(kind=instance.kind, valuations=tuple(rows))
    return OrderedInstance(instance=ordered)


def _reference_lift(ordered, ordered_alloc, original):
    """The picking sequence as a scan of every remaining item per slot."""
    holder = {j: i for i, b in enumerate(ordered_alloc, start=1) for j in b}
    slots = range(1, original.m + 1)
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


# few distinct values, so most rows hold ties; halves mix with integers
_TIED_VALUES = st.sampled_from([0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sort_and_lift_match_the_reference(data):
    kind = data.draw(st.sampled_from([GOODS, CHORES]))
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 9))
    sign = -1 if kind == CHORES else 1
    rows = data.draw(
        st.lists(
            st.lists(_TIED_VALUES.map(lambda v: sign * v), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    inst = make_instance(kind, rows)
    ordered = to_ordered(inst)
    reference = _reference_to_ordered(inst)
    assert ordered == reference
    owners = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    ordered_alloc = tuple(
        frozenset(j + 1 for j, o in enumerate(owners) if o == i) for i in range(n)
    )
    assert lift_allocation(ordered, ordered_alloc, inst) == _reference_lift(
        ordered, ordered_alloc, inst
    )
