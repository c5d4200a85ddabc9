"""Frozen solve outcomes: refactors must not change what the solver returns.

``golden_outcomes.json`` holds seeded instances (and the search cap, when
not the default) together with the status, allocation, trace (as
``trace_to_json`` prints it), diagnostic and companion allocation that
``solve``/``solve_chores`` returned for each.  The test
solves every instance again and demands the same five fields, byte for byte.

The file was written once and is not meant to follow the code.  Regenerate
it only for an intended change of output, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
import sys
from pathlib import Path

from mmsalloc.core import CHORES, GOODS, make_instance
from mmsalloc.reductions import trace_to_json
from mmsalloc.solver_chores import solve_chores
from mmsalloc.solver_goods import solve

GOLDEN = Path(__file__).with_name("golden_outcomes.json")

# Passes the 4 x 10 analysis through its two-leading-singletons branch.
TWO_SINGLES_4X10 = [
    [20, 13, 12, 4, 4, 3, 3, 3, 2, 1],
    [19, 17, 16, 4, 4, 2, 1, 1, 1, 0],
    [19, 19, 17, 4, 4, 3, 2, 1, 0, 0],
    [19, 17, 14, 4, 4, 3, 2, 2, 0, 0],
]

# one or two agents, and no more items than agents
EDGE_SHAPES = ((1, 0), (1, 1), (1, 4), (2, 1), (2, 2), (2, 6), (3, 1), (3, 3), (4, 2), (5, 5))


def corpus():
    """(kind, rows, cap) triples: random small shapes, 8 x 15, 4 x 10, edge
    shapes, and shapes with no constructive route under a tiny search cap."""
    cases = []
    rng = random.Random(2024)
    for kind in (GOODS, CHORES):
        sign = 1 if kind == GOODS else -1
        for noisy in (False, True):
            for _ in range(200):
                n = rng.randint(3, 5)
                m = rng.randint(n, n + 6)
                if noisy:
                    base = [rng.randint(0, 20) for _ in range(m)]
                    rows = [
                        [max(0, v + rng.randint(-1, 1)) for v in base]
                        for _ in range(n)
                    ]
                else:
                    rows = [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
                cases.append((kind, [[sign * v for v in row] for row in rows], None))
    # the first criterion-3 instances of the acceptance suite
    rng = random.Random(103)
    for _ in range(4):
        cases.append(
            (GOODS, [[rng.randint(0, 20) for _ in range(15)] for _ in range(8)], None)
        )
    cases.append((GOODS, TWO_SINGLES_4X10, None))
    rng = random.Random(7)
    for kind in (GOODS, CHORES):
        sign = 1 if kind == GOODS else -1
        for n, m in EDGE_SHAPES:
            rows = [[sign * rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
            cases.append((kind, rows, None))
        for _ in range(3):
            rows = [[sign * rng.randint(0, 20) for _ in range(11)] for _ in range(4)]
            cases.append((kind, rows, 1))
    return cases


def outcome_record(kind, rows, cap):
    """The five compared fields of one solve, in JSON-ready form."""
    inst = make_instance(kind, rows)
    kwargs = {} if cap is None else {"cap": cap}
    out = (solve if kind == GOODS else solve_chores)(inst, **kwargs)

    def bundles(alloc):
        return None if alloc is None else [sorted(b) for b in alloc]

    return {
        "status": out.status,
        "allocation": bundles(out.allocation),
        "trace": None if out.trace is None else trace_to_json(out.trace),
        "diagnostic": out.diagnostic,
        "ordered_allocation": bundles(out.ordered_allocation),
    }


def test_outcomes_match_frozen_corpus():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) > 800
    changed = [
        pos
        for pos, case in enumerate(cases)
        if outcome_record(case["kind"], case["valuations"], case["cap"])
        != case["outcome"]
    ]
    assert not changed, f"{len(changed)} outcomes differ, first at entries {changed[:5]}"


if __name__ == "__main__":
    entries = [
        {
            "kind": kind,
            "valuations": rows,
            "cap": cap,
            "outcome": outcome_record(kind, rows, cap),
        }
        for kind, rows, cap in corpus()
    ]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} outcomes to {GOLDEN}", file=sys.stderr)
