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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .bounds import BoundParams, BoundTable
from .core import (
    CHORES,
    GOODS,
    Instance,
    allocation_from_json,
    allocation_to_json,
    bundle_value,
    instance_from_json,
    instance_to_json,
    to_ordered,
    validate_allocation,
)
from .errors import InternalInvariantViolation, MmsError
from .mms import DEFAULT_EXHAUSTIVE_CAP, mms_value
from .reductions import trace_from_json, trace_to_json, verify_trace
from .solver_chores import solve_chores
from .solver_goods import solve as solve_goods


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    count: int = 1
    max_value: int = 20

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.max_value < 1:
            raise ValueError("max_value must be >= 1")


def cmd_gen(config: RunConfig, n: int, m: int, kind: str, out_dir: Path) -> int:
    if n < 1 or m < 0:
        print("gen: need n >= 1 and m >= 0", file=sys.stderr)
        return 1
    rng = random.Random(config.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    sign = -1 if kind == CHORES else 1
    for idx in range(config.count):
        rows = tuple(
            tuple(sign * rng.randint(0, config.max_value) for _ in range(m))
            for _ in range(n)
        )
        inst = Instance(kind=kind, valuations=rows)
        path = out_dir / f"{kind}_{n}x{m}_{config.seed}_{idx:04d}.json"
        path.write_text(instance_to_json(inst) + "\n")
    print(f"wrote {config.count} instances to {out_dir}")
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
    if outcome.ordered is not None:
        doc["ordered"] = json.loads(instance_to_json(outcome.ordered.instance))
    if outcome.ordered_allocation is not None:
        doc["ordered_allocation"] = json.loads(
            allocation_to_json(outcome.ordered_allocation)
        )
    return json.dumps(doc, indent=2)


def cmd_solve(input_path: Path, trace_out: Path | None, oracle: str, cap: int) -> int:
    inst = instance_from_json(input_path.read_text())
    solver = solve_goods if inst.kind == GOODS else solve_chores
    outcome = solver(inst, cap=cap)
    print(_outcome_json(outcome))
    if trace_out is not None and outcome.trace is not None:
        trace_out.write_text(trace_to_json(outcome.trace) + "\n")
    if outcome.status != "solved":
        return 2
    if oracle == "exhaustive":
        # re-certify with the second oracle for belt and braces
        for i in range(1, inst.n + 1):
            mu = mms_value(inst, i, method="exhaustive", cap=cap).mu
            if bundle_value(inst, i, outcome.allocation[i - 1]) < mu:
                print(f"exhaustive re-certification failed for agent {i}")
                return 2
    return 0


def cmd_verify(instance_path: Path, result_path: Path) -> int:
    """Check a solved outcome against the instance; every check is required.

    The trace is replayed against the companion instance recomputed from
    the instance file, never against the outcome's own copy of it.
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
    failures = 0

    allocation = allocation_from_json(json.dumps(doc["allocation"]))
    try:
        validate_allocation(inst, allocation)
        print("allocation: partitions all items, no overlaps: pass")
    except MmsError as exc:
        print(f"allocation: structural check failed: {exc}")
        failures += 1

    trace = trace_from_json(json.dumps(doc["trace"]))
    replay = to_ordered(inst).instance
    for pos, (rule, ok) in enumerate(verify_trace(replay, trace), start=1):
        if ok:
            print(f"trace step {pos} ({rule}): valid")
        else:
            print(f"trace step {pos} ({rule}): INVALID")
            failures += 1
    covered = set().union(*trace.final)
    for step in trace.steps:
        covered |= step.items()
    remaining = replay.n - sum(len(s.agents()) for s in trace.steps)
    if covered == set(range(1, replay.m + 1)) and len(trace.final) == remaining:
        print("trace: steps plus final cover every item exactly once: pass")
    else:
        print("trace: coverage check failed")
        failures += 1

    for i in range(1, inst.n + 1):
        mu = mms_value(inst, i).mu
        got = bundle_value(inst, i, allocation[i - 1])
        verdict = "pass" if got >= mu else "FAIL"
        print(f"agent {i}: mu = {mu}, received = {got}: {verdict}")
        if got < mu:
            failures += 1

    return 0 if failures == 0 else 2


def _parse_alpha(text: str) -> Fraction:
    return Fraction(text)


def cmd_bound(c: int, kind: str, params: BoundParams, overrides: tuple) -> int:
    if kind == GOODS:
        table = BoundTable(params=params, goods_overrides=overrides)
        n_c, req_of, lo = table.n_c_goods(c), table.required_agents_goods, 7
    else:
        table = BoundTable(params=params, chores_overrides=overrides)
        n_c, req_of, lo = table.n_c_chores(c), table.required_agents_chores, 6
    line = f"kind={kind} c={c} n_c={n_c}"
    if c >= lo:
        try:
            line += f" required_agents={req_of(c)}"
        except InternalInvariantViolation as exc:
            # overrides or alphas can make the table inconsistent; report it
            line += f" inconsistent ({exc})"
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mmsalloc")
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
    s.add_argument("--oracle-cap", type=int, default=DEFAULT_EXHAUSTIVE_CAP)

    v = sub.add_parser("verify", help="verify an outcome against its instance")
    v.add_argument("--instance", type=Path, required=True)
    v.add_argument("--result", type=Path, required=True)

    b = sub.add_parser("bound", help="print the agent-count threshold for c")
    b.add_argument("--c", type=int, required=True)
    b.add_argument("--kind", choices=[GOODS, CHORES], required=True)
    b.add_argument("--alpha-goods", type=_parse_alpha)
    b.add_argument("--alpha-chores", type=_parse_alpha)
    b.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="C=N",
        help="pin n_c for a specific c",
    )

    o = sub.add_parser("order", help="print the sorted companion instance")
    o.add_argument("--input", type=Path, required=True)
    o.add_argument("--out", type=Path)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            config = RunConfig(
                seed=args.seed, count=args.count, max_value=args.max_value
            )
            return cmd_gen(config, args.n, args.m, args.kind, args.out_dir)
        if args.command == "solve":
            return cmd_solve(args.input, args.trace_out, args.oracle, args.oracle_cap)
        if args.command == "verify":
            return cmd_verify(args.instance, args.result)
        if args.command == "bound":
            kwargs = {}
            if args.alpha_goods is not None:
                kwargs["alpha_goods"] = args.alpha_goods
            if args.alpha_chores is not None:
                kwargs["alpha_chores"] = args.alpha_chores
            overrides = tuple(
                (int(t.split("=")[0]), int(t.split("=")[1])) for t in args.override
            )
            return cmd_bound(args.c, args.kind, BoundParams(**kwargs), overrides)
        if args.command == "order":
            return cmd_order(args.input, args.out)
        return 1
    except (MmsError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
