"""The shared solve pipeline: fallback reasons and the certification gate."""

from mmsalloc.core import GOODS, make_instance
from mmsalloc.pipeline import run

ROWS = [[5, 5, 5, 5]] * 3  # three agents, four goods: every share is 5


def test_uncertified_allocation_is_reported_unresolved():
    def all_to_agent_one(pipe, mu, cap, table):
        pipe.note("test:all-to-one")
        return ("solved", (frozenset({1, 2, 3, 4}), frozenset(), frozenset()))

    out = run(make_instance(GOODS, ROWS), GOODS, all_to_agent_one, 10**8, None, "", "")
    assert out.status == "unresolved" and out.allocation is None
    assert out.diagnostic == "certification failed for agent 2; test:all-to-one"
    assert out.ordered_allocation == (frozenset({1, 2, 3, 4}), frozenset(), frozenset())


def test_step_reason_ends_with_the_callers_over_cap_text():
    def give_up(pipe, mu, cap, table):
        pipe.note("test:no-route")
        return ("unresolved", "scripted reason")

    out = run(make_instance(GOODS, ROWS), GOODS, give_up, 1, None, "", " (over cap)")
    assert out.status == "unresolved" and out.trace is None
    assert out.diagnostic == "test:no-route; scripted reason (over cap)"
