"""Command-line surface: generation determinism, solve/verify round trips,
exit codes, bound queries."""

import json
from pathlib import Path

from mmsalloc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_is_deterministic_per_seed(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run(
            capsys, "gen", "--kind", "goods", "--n", "3", "--m", "7",
            "--seed", "11", "--count", "4", "--out-dir", str(out_dir),
        )
        assert code == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert len(files_a) == 4
    for name in files_a:
        assert (a / name).read_text() == (b / name).read_text()


def test_gen_chores_values_are_nonpositive(tmp_path, capsys):
    code, _, _ = run(
        capsys, "gen", "--kind", "chores", "--n", "2", "--m", "5",
        "--seed", "3", "--count", "2", "--out-dir", str(tmp_path),
    )
    assert code == 0
    for p in tmp_path.iterdir():
        doc = json.loads(p.read_text())
        assert doc["kind"] == "chores"
        assert all(v <= 0 for row in doc["valuations"] for v in row)


def _gen_one(tmp_path, capsys, kind="goods", n=4, m=10, seed=5):
    run(
        capsys, "gen", "--kind", kind, "--n", str(n), "--m", str(m),
        "--seed", str(seed), "--count", "1", "--out-dir", str(tmp_path),
    )
    return next(iter(tmp_path.iterdir()))


def test_solve_then_verify_round_trip(tmp_path, capsys):
    inst_path = _gen_one(tmp_path, capsys)
    code, out, _ = run(capsys, "solve", "--input", str(inst_path))
    assert code == 0
    result = tmp_path / "result.json"
    result.write_text(out)
    code, report, _ = run(
        capsys, "verify", "--instance", str(inst_path), "--result", str(result)
    )
    assert code == 0
    assert "pass" in report and "FAIL" not in report


def test_verify_rejects_tampered_allocation(tmp_path, capsys):
    inst_path = _gen_one(tmp_path, capsys, seed=9)
    code, out, _ = run(capsys, "solve", "--input", str(inst_path))
    assert code == 0
    doc = json.loads(out)
    # swapping two bundles between agents with unequal tastes breaks shares
    bundles = doc["allocation"]["bundles"]
    order = sorted(range(len(bundles)), key=lambda i: len(bundles[i]))
    bundles[order[0]], bundles[order[-1]] = bundles[order[-1]], bundles[order[0]]
    result = tmp_path / "tampered.json"
    result.write_text(json.dumps(doc))
    code, report, _ = run(
        capsys, "verify", "--instance", str(inst_path), "--result", str(result)
    )
    assert code == 2
    assert "FAIL" in report


def test_verify_requires_a_solved_outcome(tmp_path, capsys):
    inst_path = _gen_one(tmp_path, capsys, seed=9)
    unresolved = {"status": "unresolved", "diagnostic": "no route"}
    no_allocation = {"status": "solved", "allocation": None, "trace": {}}
    for doc in ({}, unresolved, no_allocation):
        result = tmp_path / "result.json"
        result.write_text(json.dumps(doc))
        code, report, _ = run(
            capsys, "verify", "--instance", str(inst_path), "--result", str(result)
        )
        assert code == 2
        assert "FAIL" in report


def test_verify_ignores_the_outcomes_own_companion(tmp_path, capsys):
    # The trace replays against the companion of --instance.  Swapping the
    # result's "ordered" field for another, already sorted instance, under
    # which the trace's pair awards fall short, leaves the verdict as is.
    inst_path = _gen_one(tmp_path, capsys, seed=9)
    _, out, _ = run(capsys, "solve", "--input", str(inst_path))
    doc = json.loads(out)
    other = {"kind": "goods", "n": 4, "m": 10, "valuations": [[20] * 3 + [1] * 7] * 4}
    verdicts = []
    for ordered in (doc["ordered"], other):
        doc["ordered"] = ordered
        result = tmp_path / "result.json"
        result.write_text(json.dumps(doc))
        verdicts.append(
            run(capsys, "verify", "--instance", str(inst_path), "--result", str(result))
        )
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == 0


def test_solve_two_agent_chores(tmp_path, capsys):
    inst_path = _gen_one(tmp_path, capsys, kind="chores", n=2, m=6, seed=1)
    code, out, _ = run(capsys, "solve", "--input", str(inst_path))
    assert code == 0
    assert json.loads(out)["status"] == "solved"


def test_solve_writes_trace_file(tmp_path, capsys):
    inst_path = _gen_one(tmp_path, capsys, n=3, m=7, seed=2)
    trace_path = tmp_path / "trace.json"
    code, _, _ = run(
        capsys, "solve", "--input", str(inst_path), "--trace-out", str(trace_path)
    )
    assert code == 0
    doc = json.loads(trace_path.read_text())
    assert "steps" in doc and "final" in doc


def test_malformed_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", "--input", str(bad))
    assert code == 1
    assert "error" in err


def test_bound_command_prints_table_rows(capsys):
    code, out, _ = run(capsys, "bound", "--c", "5", "--kind", "goods")
    assert code == 0 and "n_c=1" in out
    code, out, _ = run(capsys, "bound", "--c", "7", "--kind", "goods")
    assert code == 0 and "n_c=8" in out
    code, out, _ = run(capsys, "bound", "--c", "6", "--kind", "chores")
    assert code == 0 and "n_c=166" in out
    code, out, _ = run(
        capsys, "bound", "--c", "6", "--kind", "chores", "--override", "6=42"
    )
    assert code == 0 and "n_c=42" in out


def test_order_command_sorts_rows(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(
        json.dumps({"kind": "goods", "n": 1, "m": 3, "valuations": [[1, 3, 2]]})
    )
    out_path = tmp_path / "ordered.json"
    code, _, _ = run(
        capsys, "order", "--input", str(inst), "--out", str(out_path)
    )
    assert code == 0
    assert json.loads(out_path.read_text())["valuations"] == [[3, 2, 1]]
