"""Solve/verify benchmark for mmsalloc.

Run from the repository root:

    python3 bench/run.py --workload small-uniform --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

One single-threaded process drives the package through its public
functions as a closed loop: one instance at a time, solved with
``solve``/``solve_chores``, then verified the way ``mmsalloc verify`` does
it (trace replay against a recomputed sorted companion, plus allocation
checks).  Instances come in rounds; the share cache is cleared before a
round is solved and again before it is verified, as in a fresh process.

``--trace 0`` times rounds until the whole pool has been done once and at
least ``--seconds`` of solve plus verify time has passed, and reports the
end-to-end metrics.  ``--trace 1`` makes one untraced solve pass and one
traced solve and verify pass over the pool, and reports per-layer metrics,
the tracing overhead and the tracer cross-check.  Correctness is checked outside the timed region.
The last line of standard output is one JSON object; the exit code is 0
when every check passed, 1 when one failed, 2 when the bench could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics, traced_package
from workloads import CORPUS_SEED, CORPUS_SIZE, WORKLOADS, criterion3_rows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Share-oracle calls and cache hits of the tracer cross-check at the commit
# that introduced this bench.
CROSSCHECK_BASELINE = (1350, 60)

END_TO_END = {
    "solve_per_s": "1/s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "verify_per_s": "1/s",
    "verify_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "mms.share_calls": "count",
    "mms.share_s": "s",
    "mms.cache_hit_ratio": "ratio",
    "mms.mu_vector_s": "s",
    "mms.certify_s": "s",
    "mms.structured_calls": "count",
    "mms.structured_s": "s",
    "mms.threshold_search_calls": "count",
    "mms.threshold_search_s": "s",
    "reductions.rule_attempts": "count",
    "reductions.rule_fire_ratio": "ratio",
    "reductions.rules_s": "s",
    "reductions.apply_s": "s",
    "reductions.verify_step_s": "s",
    "reductions.verify_share_s": "s",
    "core.to_ordered_s": "s",
    "core.lift_s": "s",
    "core.bundle_value_calls": "count",
    "matching.calls": "count",
    "matching.s": "s",
    "domination.calls": "count",
    "domination.s": "s",
    "solver.self_s": "s",
    "solver.fallback_calls": "count",
    "solver.steps": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The bench cannot run here; no result is printed."""


# --- set-up -----------------------------------------------------------------

def load_package():
    """Import mmsalloc from this checkout's src/ and refuse any other copy."""
    home = SRC / "mmsalloc"
    if not (home / "__init__.py").is_file():
        raise BenchError(f"package source not found at {home}")
    sys.path.insert(0, str(SRC))
    import mmsalloc

    if Path(mmsalloc.__file__).resolve().parent != home.resolve():
        raise BenchError(f"imported mmsalloc from {mmsalloc.__file__}, not {home}")
    return mmsalloc


def import_seconds():
    """Time `import mmsalloc` in a fresh interpreter, as a user's process pays it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import mmsalloc; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def set_up(generate, seed):
    """Import plus pool generation, repeated; returns the package, the last
    pool and the median set-up time."""
    pkg = load_package()
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        pool = generate(pkg, seed)
        times.append(imported + perf_counter() - start)
    return pkg, pool, statistics.median(times)


# --- one instance -------------------------------------------------------------

def solve_one(pkg, instance):
    """(outcome or None when the solver raised, seconds)."""
    solver = pkg.solve if instance.kind == pkg.GOODS else pkg.solve_chores
    start = perf_counter()
    try:
        outcome = solver(instance)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome = None
    return outcome, perf_counter() - start


def meets_shares(pkg, instance, allocation):
    """The allocation partitions the items and gives every agent her share."""
    try:
        pkg.validate_allocation(instance, allocation)
    except pkg.errors.MmsError:
        return False
    return all(
        pkg.bundle_value(instance, i, allocation[i - 1]) >= pkg.mms_value(instance, i).mu
        for i in range(1, instance.n + 1)
    )


def verify_one(pkg, instance, outcome):
    """Check one result as `mmsalloc verify` does; True when all checks pass.

    The trace is replayed against a freshly sorted companion, never against
    the outcome's own ``ordered`` field, which may belong to another instance.
    """
    if outcome is None or outcome.allocation is None or outcome.trace is None:
        return False
    try:
        replay = pkg.to_ordered(instance).instance
        trace = outcome.trace
        if not all(ok for _, ok in pkg.reductions.verify_trace(replay, trace)):
            return False
        covered = [j for step in trace.steps for j in step.items()]
        covered += [j for bundle in trace.final for j in bundle]
        awarded = sum(len(step.agents()) for step in trace.steps)
        if sorted(covered) != list(range(1, replay.m + 1)):
            return False
        if len(trace.final) != replay.n - awarded:
            return False
        return meets_shares(pkg, instance, outcome.allocation)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


# --- passes -------------------------------------------------------------------

class Pass:
    """Per-instance timings and results of solve/verify rounds."""

    def __init__(self, size):
        self.solve_s = []
        self.verify_s = []
        self.solved = 0
        self.verified = 0
        self.failed = 0
        self.outcomes = [None] * size  # first result per pool index
        self.verdicts = [False] * size

    def attempted(self):
        return len(self.solve_s) + len(self.verify_s)


def run_round(pkg, pool, indices, result, verify=True, tracer=None):
    """Solve, then verify, one round of pool instances from a cold share cache."""
    pkg.mms.clear_caches()
    outcomes = []
    for k in indices:
        outcome, seconds = solve_one(pkg, pool[k])
        result.solve_s.append(seconds)
        ok = outcome is not None and outcome.status == "solved"
        result.solved += ok
        result.failed += not ok
        outcomes.append(outcome)
        if result.outcomes[k] is None:
            result.outcomes[k] = outcome
    if not verify:
        return
    pkg.mms.clear_caches()
    for k, outcome in zip(indices, outcomes):
        start = perf_counter()
        if tracer is None:
            ok = verify_one(pkg, pool[k], outcome)
        else:
            with tracer.root("verify"):
                ok = verify_one(pkg, pool[k], outcome)
        result.verify_s.append(perf_counter() - start)
        result.verified += ok
        result.failed += not ok
        if outcome is result.outcomes[k]:
            result.verdicts[k] = ok


def rounds(size, round_size):
    return [range(lo, min(lo + round_size, size)) for lo in range(0, size, round_size)]


def timed_passes(pkg, pool, round_size, seconds):
    """Rounds until the pool is done once and `seconds` have been measured."""
    result = Pass(len(pool))
    order = rounds(len(pool), round_size)
    k = 0
    while k < len(order) or sum(result.solve_s) + sum(result.verify_s) < seconds:
        run_round(pkg, pool, order[k % len(order)], result)
        k += 1
    return result


def check(pkg, pool, result):
    """Bench-side checks of every pool instance's first result, untimed.

    Each share is recomputed from a cold cache.  Returns the failure count.
    """
    failures = 0
    for instance, outcome, verified in zip(pool, result.outcomes, result.verdicts):
        pkg.mms.clear_caches()
        ok = (
            verified
            and outcome.status == "solved"
            and meets_shares(pkg, instance, outcome.allocation)
        )
        failures += not ok
    return failures


# --- statistics -----------------------------------------------------------------

def tail_percentile(samples):
    """The highest whole percentile with at least ten samples beyond its
    nearest-rank value, as (percentile, value).  With ten samples or fewer
    no percentile qualifies and the maximum is returned as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def outcome_digest(pkg, outcomes):
    """sha256 of the canonical JSON of each outcome's status, allocation,
    trace and diagnostic, in pool order."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        doc = None
        if outcome is not None:
            doc = {
                "status": outcome.status,
                "allocation": None if outcome.allocation is None
                else [sorted(b) for b in outcome.allocation],
                "trace": None if outcome.trace is None
                else json.loads(pkg.reductions.trace_to_json(outcome.trace)),
                "diagnostic": outcome.diagnostic,
            }
        digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(result, pool_size, setup_s, peak_mib):
    solves = len(result.solve_s)
    tail_p, tail = tail_percentile(result.solve_s)
    metrics = {
        "solve_per_s": result.solved / sum(result.solve_s),
        "solve_p50_ms": statistics.median(result.solve_s) * 1000,
        "solve_tail_ms": tail * 1000,
        "verify_per_s": result.verified / sum(result.verify_s),
        "verify_p50_ms": statistics.median(result.verify_s) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mib,
    }
    notes = [
        f"solve_tail_ms is p{tail_p} of {solves} solves, "
        f"{solves - -(-tail_p * solves // 100)} beyond it",
        f"{solves} instances solved and verified, {solves / pool_size:.2f} passes "
        f"over the pool; solve {sum(result.solve_s):.3f} s, verify "
        f"{sum(result.verify_s):.3f} s",
    ]
    return metrics, notes


# --- traced run -------------------------------------------------------------------

def cache_size(pkg):
    cache = pkg.mms._bnb_cache
    return lambda: len(cache)


def crosscheck(pkg):
    """Share-oracle calls and cache hits over one cold solve pass of the
    criterion-3 corpus as drawn, without relabeling."""
    pool = [pkg.make_instance(pkg.GOODS, rows) for rows in criterion3_rows()]
    tracer = Tracer(cache_size(pkg))
    pkg.mms.clear_caches()
    with traced_package(tracer):
        for instance in pool:
            pkg.solve(instance)
    shares = [span for span in tracer.spans if span[0] == "mms.mms_value"]
    return len(shares), sum(1 for span in shares if span[5] == 0)


def per_layer(pkg, pool, round_size):
    """An untraced solve pass, a traced solve and verify pass, and the tracer
    cross-check."""
    untraced = Pass(len(pool))
    for indices in rounds(len(pool), round_size):
        run_round(pkg, pool, indices, untraced, verify=False)
    tracer = Tracer(cache_size(pkg))
    traced = Pass(len(pool))
    with traced_package(tracer) as missing:
        for indices in rounds(len(pool), round_size):
            run_round(pkg, pool, indices, traced, tracer=tracer)
    spans = tracer.spans
    metrics = layer_metrics(spans)
    with_trace = [o for o in traced.outcomes if o is not None and o.trace is not None]
    metrics["solver.steps"] = (
        sum(len(o.trace.steps) for o in with_trace) / len(with_trace) if with_trace else 0.0
    )
    metrics["solver.fallback_calls"] = sum(
        1 for o in traced.outcomes
        if o is not None and "fallback:threshold-search" in o.diagnostic
    )
    overhead = sum(traced.solve_s) - sum(untraced.solve_s)
    metrics["trace.overhead_s"] = overhead
    notes = [
        f"spans {len(spans)}; untraced solve {sum(untraced.solve_s):.3f} s, traced "
        f"{sum(traced.solve_s):.3f} s, overhead {overhead:+.3f} s "
        f"({overhead / sum(untraced.solve_s):+.1%})",
    ]
    if missing:
        notes.append("not traced (absent from the package): " + ", ".join(missing))
    # Tracing must not change any output.
    same = outcome_digest(pkg, traced.outcomes) == outcome_digest(pkg, untraced.outcomes)
    if not same:
        notes.append("traced outputs differ from untraced outputs")
    calls, hits = crosscheck(pkg)
    verdict = "matches" if (calls, hits) == CROSSCHECK_BASELINE else "differs from"
    notes.append(
        f"crosscheck (criterion-3 corpus, seed {CORPUS_SEED}, {CORPUS_SIZE} "
        f"instances): {calls} share-oracle calls, {hits} cache hits; {verdict} the "
        f"baseline {CROSSCHECK_BASELINE[0]}/{CROSSCHECK_BASELINE[1]}"
    )
    traced.failed += not same
    return [untraced, traced], metrics, notes


# --- reporting ---------------------------------------------------------------------

def environment(args, pool_size):
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": CORPUS_SEED,
        "pool": pool_size,
        "loadavg_start": os.getloadavg(),
    }


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def run_workload(args):
    generate, round_size = WORKLOADS[args.workload]
    pkg, pool, setup_s = set_up(generate, args.seed)
    env = environment(args, len(pool))
    if args.trace:
        passes, metrics, notes = per_layer(pkg, pool, round_size)
        units = PER_LAYER
    else:
        passes = [timed_passes(pkg, pool, round_size, args.seconds)]
        metrics, notes = end_to_end(passes[0], len(pool), setup_s, peak_rss_mib())
        units = END_TO_END
    checked = passes[-1]
    attempted = sum(p.attempted() for p in passes) + len(pool)
    failed = sum(p.failed for p in passes) + check(pkg, pool, checked)
    env["loadavg_end"] = os.getloadavg()
    print("environment " + json.dumps(env))
    for name, unit in units.items():
        print(f"{args.workload:14} {name:28} {metrics[name]:>16.6g} {unit}")
    print(f"{args.workload:14} {'failed_frac':28} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations)")
    print(f"{args.workload:14} digest sha256:{outcome_digest(pkg, checked.outcomes)}")
    for note in notes:
        print(f"{args.workload:14} {note}")
    emit(failed == 0, attempted, failed, metrics, units)
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so set-up and peak memory are its own."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise BenchError(f"{workload} printed no result (exit {done.returncode})")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric["value"]
            units[f"{workload}.{name}"] = metric["unit"]
    emit(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
