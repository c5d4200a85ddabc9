"""Command-line surface: generate, solve, verify, order, and bound queries.

Exit codes: 0 success (solved / all checks pass), 2 unresolved or failed
checks, 1 usage or input errors.  All randomness lives in ``gen``; solving
and verification are deterministic.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .bounds import (
    n_c_chores,
    n_c_goods,
    required_agents_chores,
    required_agents_goods,
)
from .core import (
    CHORES,
    GOODS,
    Instance,
    allocation_from_json,
    allocation_to_json,
    bundle_value,
    instance_from_json,
    instance_to_json,
    lift_allocation,
    to_ordered,
    validate_allocation,
)
from .errors import COutOfRange, MmsError
from .mms import DEFAULT_EXHAUSTIVE_CAP, exhaustive_partition, mu_vector
from .reductions import trace_from_json, trace_to_json, verify_trace
from .solver_chores import solve_chores
from .solver_goods import solve as solve_goods


def cmd_gen(
    kind: str, n: int, m: int, max_value: int, seed: int, count: int, out_dir: Path
) -> int:
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_value < 1:
        raise ValueError("max_value must be >= 1")
    if n < 1 or m < 0:
        print("gen: need n >= 1 and m >= 0", file=sys.stderr)
        return 1
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    sign = -1 if kind == CHORES else 1
    for idx in range(count):
        rows = tuple(
            tuple(sign * rng.randint(0, max_value) for _ in range(m))
            for _ in range(n)
        )
        inst = Instance(kind=kind, valuations=rows)
        path = out_dir / f"{kind}_{n}x{m}_{seed}_{idx:04d}.json"
        path.write_text(instance_to_json(inst) + "\n")
    print(f"wrote {count} instances to {out_dir}")
    return 0


def _outcome_json(outcome) -> str:
    doc = {
        "status": outcome.status,
        "diagnostic": outcome.diagnostic,
    }
    if outcome.allocation is not None:
        doc["allocation"] = json.loads(allocation_to_json(outcome.allocation))
    if outcome.trace is not None:
        doc["trace"] = json.loads(trace_to_json(outcome.trace))
    ordered, companion = outcome.ordered, outcome.ordered_allocation
    if ordered is not None:
        doc["ordered"] = json.loads(instance_to_json(ordered.instance))
    if companion is not None:
        doc["ordered_allocation"] = json.loads(allocation_to_json(companion))
    return json.dumps(doc, indent=2)


def cmd_solve(input_path: Path, trace_out: Path | None, oracle: str, cap: int) -> int:
    inst = instance_from_json(input_path.read_text())
    solver = solve_goods if inst.kind == GOODS else solve_chores
    outcome = solver(inst)
    print(_outcome_json(outcome))
    if trace_out is not None and outcome.trace is not None:
        trace_out.write_text(trace_to_json(outcome.trace) + "\n")
    if outcome.status != "solved":
        return 2
    if oracle == "exhaustive":
        # re-certify with the reference oracle for belt and braces; a share
        # it cannot compute (past its n^m cap) fails the re-certification
        for i in range(1, inst.n + 1):
            try:
                mu = exhaustive_partition(inst, i, cap)[0]
            except MmsError as exc:
                print(f"exhaustive re-certification: {exc}")
                return 2
            if bundle_value(inst, i, outcome.allocation[i - 1]) < mu:
                print(f"exhaustive re-certification failed for agent {i}")
                return 2
    return 0


def cmd_verify(instance_path: Path, result_path: Path) -> int:
    """Check a solved outcome against the instance; every check is required.

    The trace is replayed against the companion instance recomputed from
    the instance file, never against the outcome's own copy of it, and the
    companion allocation it describes must lift to the reported allocation.
    One share vector serves both; a search past its budget fails the check.
    """
    inst = instance_from_json(instance_path.read_text())
    doc = json.loads(result_path.read_text())
    if not (
        isinstance(doc, dict)
        and doc.get("status") == "solved"
        and doc.get("allocation") is not None
        and doc.get("trace") is not None
    ):
        print("result: not a solved outcome with an allocation and a trace: FAIL")
        return 2
    try:
        allocation = allocation_from_json(json.dumps(doc["allocation"]))
        validate_allocation(inst, allocation)
    except (MmsError, KeyError, TypeError) as exc:
        # no share can be computed for a bundle list that is not a partition
        print(f"allocation: structural check failed: {exc}")
        return 2
    print("allocation: partitions all items, no overlaps: pass")
    try:
        trace = trace_from_json(json.dumps(doc["trace"]))
    except (MmsError, KeyError, TypeError, ValueError) as exc:
        # nothing can be replayed from a document that is not a trace
        print(f"trace: structural check failed: {exc!r}")
        return 2
    failures = 0

    ordered = to_ordered(inst)
    replay = ordered.instance
    try:
        verdicts = verify_trace(replay, trace)
        shares = mu_vector(inst)
    except MmsError as exc:
        print(f"trace replay and shares: {exc}: FAIL")
        return 2
    for pos, (rule, ok) in enumerate(verdicts, start=1):
        if ok:
            print(f"trace step {pos} ({rule}): valid")
        else:
            print(f"trace step {pos} ({rule}): INVALID")
            failures += 1
    covered = [j for step in trace.steps for j in step.items()]
    covered += [j for bundle in trace.final for j in bundle]
    remaining = replay.n - sum(len(s.agents()) for s in trace.steps)
    items = list(range(1, replay.m + 1))
    if sorted(covered) == items and len(trace.final) == remaining:
        print("trace: steps plus final cover every item exactly once: pass")
    else:
        print("trace: coverage check failed")
        failures += 1

    if failures:
        # valid steps and full coverage are what make the trace's
        # allocation a partition; without them there is none to check
        print("trace: final allocation: not checked, as the checks above failed")
    else:
        companion = trace.allocation(replay.n)
        short = [
            a
            for a in range(1, replay.n + 1)
            if bundle_value(replay, a, companion[a - 1]) < shares[a - 1]
        ]
        if short:
            print(f"trace: final allocation: agents {short} miss their shares: FAIL")
            failures += 1
        elif lift_allocation(ordered, companion, inst) != allocation:
            print("trace: final allocation: does not lift to the allocation: FAIL")
            failures += 1
        else:
            print("trace: final allocation: shares met, lifts to the allocation: pass")

    for i in range(1, inst.n + 1):
        mu = shares[i - 1]
        got = bundle_value(inst, i, allocation[i - 1])
        verdict = "pass" if got >= mu else "FAIL"
        print(f"agent {i}: mu = {mu}, received = {got}: {verdict}")
        if got < mu:
            failures += 1

    return 0 if failures == 0 else 2


def cmd_bound(c: int, kind: str) -> int:
    if kind == GOODS:
        n_c, req_of = n_c_goods(c), required_agents_goods
    else:
        n_c, req_of = n_c_chores(c), required_agents_chores
    line = f"kind={kind} c={c} n_c={n_c}"
    try:
        line += f" required_agents={req_of(c)}"
    except COutOfRange:
        pass
    print(line)
    return 0


def cmd_order(input_path: Path, out_path: Path | None) -> int:
    inst = instance_from_json(input_path.read_text())
    ordered = to_ordered(inst)
    text = instance_to_json(ordered.instance)
    if out_path is not None:
        out_path.write_text(text + "\n")
    else:
        print(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit code 1; argparse's own 2 would read
    as an unresolved solve or a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mmsalloc")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate random instances")
    g.add_argument("--kind", choices=[GOODS, CHORES], required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--max-value", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--out-dir", type=Path, required=True)

    s = sub.add_parser("solve", help="solve one instance file")
    s.add_argument("--input", type=Path, required=True)
    s.add_argument("--trace-out", type=Path)
    s.add_argument("--oracle", choices=["exhaustive", "bnb"], default="bnb")
    s.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_EXHAUSTIVE_CAP,
        help="most n^m assignments the --oracle exhaustive re-certification "
        "enumerates; the solver itself is bounded by its search's node budget",
    )

    v = sub.add_parser("verify", help="verify an outcome against its instance")
    v.add_argument("--instance", type=Path, required=True)
    v.add_argument("--result", type=Path, required=True)

    b = sub.add_parser("bound", help="print the agent-count threshold for c")
    b.add_argument("--c", type=int, required=True)
    b.add_argument("--kind", choices=[GOODS, CHORES], required=True)

    o = sub.add_parser("order", help="print the sorted companion instance")
    o.add_argument("--input", type=Path, required=True)
    o.add_argument("--out", type=Path)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(
                args.kind, args.n, args.m, args.max_value, args.seed, args.count,
                args.out_dir,
            )
        if args.command == "solve":
            return cmd_solve(args.input, args.trace_out, args.oracle, args.oracle_cap)
        if args.command == "verify":
            return cmd_verify(args.instance, args.result)
        if args.command == "bound":
            return cmd_bound(args.c, args.kind)
        if args.command == "order":
            return cmd_order(args.input, args.out)
        return 1
    except (MmsError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
