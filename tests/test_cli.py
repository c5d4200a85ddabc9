"""Command-line surface: generation determinism, solve/verify round trips,
exit codes, bound queries."""

import json
from pathlib import Path

import pytest

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


def _too_few(bundles):
    return {"bundles": bundles[:-1]}


def _item_99(bundles):
    return {"bundles": [bundles[0] + [99]] + bundles[1:]}


def _text_item(bundles):
    return {"bundles": [[str(j) for j in bundles[0]]] + bundles[1:]}


def _fractional_item(bundles):
    return {"bundles": [bundles[0][1:] + [bundles[0][0] + 0.5]] + bundles[1:]}


def _item_0(bundles):
    return {"bundles": [bundles[0] + [0]] + bundles[1:]}


def _true_item(bundles):
    return {"bundles": [[True if j == 1 else j for j in b] for b in bundles]}


def _no_bundles(bundles):
    return {"parts": bundles}


@pytest.mark.parametrize(
    "malform",
    [
        _too_few,
        _item_99,
        _text_item,
        _fractional_item,
        _item_0,
        _true_item,
        _no_bundles,
    ],
    ids=lambda f: f.__name__.strip("_"),
)
def test_verify_stops_at_a_malformed_allocation(tmp_path, capsys, malform):
    inst_path = _gen_one(tmp_path, capsys, seed=9)
    _, out, _ = run(capsys, "solve", "--input", str(inst_path))
    doc = json.loads(out)
    doc["allocation"] = malform(doc["allocation"]["bundles"])
    result = tmp_path / "result.json"
    result.write_text(json.dumps(doc))
    code, report, _ = run(
        capsys, "verify", "--instance", str(inst_path), "--result", str(result)
    )
    assert code == 2
    assert "structural check failed" in report
    # no share is computed, so nothing can read a bundle that is not there
    assert "trace step" not in report and "agent " not in report


def _empty_trace(trace):
    return {}


def _no_final(trace):
    return {"steps": trace["steps"]}


def _with_first_step(trace, **changes):
    steps = trace["steps"]
    return dict(trace, steps=[dict(steps[0], **changes)] + steps[1:])


def _unknown_rule(trace):
    return _with_first_step(trace, rule="no_such_rule")


def _overlapping_awards(trace):
    award = trace["steps"][0]["awards"][0]
    other = {"agent": award["agent"] + 1, "bundle": award["bundle"]}
    return _with_first_step(trace, awards=[award, other])


def _awards_not_a_list(trace):
    return _with_first_step(trace, awards=trace["steps"][0]["awards"][0])


def _float_item(trace):
    award = trace["steps"][0]["awards"][0]
    bundle = [float(j) for j in award["bundle"]]
    return _with_first_step(trace, awards=[dict(award, bundle=bundle)])


def _bool_agent(trace):
    award = trace["steps"][0]["awards"][0]
    assert award["agent"] == 1  # so that True would pass for it
    return _with_first_step(trace, awards=[dict(award, agent=True)])


def _float_agent(trace):
    award = trace["steps"][0]["awards"][0]
    return _with_first_step(trace, awards=[dict(award, agent=float(award["agent"]))])


@pytest.mark.parametrize(
    "malform",
    [
        _empty_trace,
        _no_final,
        _unknown_rule,
        _overlapping_awards,
        _awards_not_a_list,
        _float_item,
        _bool_agent,
        _float_agent,
    ],
    ids=lambda f: f.__name__.strip("_"),
)
def test_verify_stops_at_a_malformed_trace(tmp_path, capsys, malform):
    inst_path = _gen_one(tmp_path, capsys, seed=9)
    _, out, _ = run(capsys, "solve", "--input", str(inst_path))
    doc = json.loads(out)
    assert doc["trace"]["steps"]
    doc["trace"] = malform(doc["trace"])
    result = tmp_path / "result.json"
    result.write_text(json.dumps(doc))
    code, report, _ = run(
        capsys, "verify", "--instance", str(inst_path), "--result", str(result)
    )
    assert code == 2
    assert "trace: structural check failed" in report
    assert "trace step" not in report and "agent " not in report


def _one_bundle_takes_all(doc):
    doc["trace"]["final"]["bundles"] = [[1, 2, 7, 8, 9, 10], []]


def _item_4_twice(doc):
    doc["trace"]["final"]["bundles"][0].append(4)


def _bundles_swapped(doc):
    doc["trace"]["final"]["bundles"].reverse()


def _short_but_lifted(doc):
    # agent 4 misses her share on the companion instance, yet the allocation
    # this final lifts to meets every share on the original instance
    doc["trace"]["final"]["bundles"] = [[1, 2], [7, 8, 9, 10]]
    doc["allocation"]["bundles"] = [[2, 9], [1, 5], [7, 8], [3, 4, 6, 10]]


@pytest.mark.parametrize(
    "edit",
    [_one_bundle_takes_all, _item_4_twice, _bundles_swapped, _short_but_lifted],
    ids=lambda f: f.__name__.strip("_"),
)
def test_verify_checks_the_traces_final_allocation(tmp_path, capsys, edit):
    # The solved 4 x 10 instance ends in two final bundles covering goods
    # 1, 2, 7, 8, 9 and 10.  After each edit the steps stay valid and the
    # reported allocation meets every share, so only the final allocation
    # is wrong: it leaves a companion agent short, covers good 4 twice, or
    # lifts to another allocation than the reported one.
    inst_path = _gen_one(tmp_path, capsys, seed=9)
    _, out, _ = run(capsys, "solve", "--input", str(inst_path))
    doc = json.loads(out)
    final = doc["trace"]["final"]["bundles"]
    assert sorted(j for b in final for j in b) == [1, 2, 7, 8, 9, 10]
    edit(doc)
    result = tmp_path / "result.json"
    result.write_text(json.dumps(doc))
    code, report, _ = run(
        capsys, "verify", "--instance", str(inst_path), "--result", str(result)
    )
    assert code == 2
    assert "trace step 2 (pigeonhole_pair): valid" in report
    agents = [line for line in report.splitlines() if line.startswith("agent ")]
    assert len(agents) == 4 and all(line.endswith(": pass") for line in agents)


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


def test_scripted_search_past_the_oracle_cap_exits_two(tmp_path, capsys):
    """A cap overrun inside a scripted branch is an unresolved solve, not an
    input error."""
    path = tmp_path / "payoff.json"
    rows = [[20] + [3] * 9] * 2 + [[10, 5] + [2] * 8] * 2
    path.write_text(json.dumps({"kind": "goods", "valuations": rows}))
    code, out, err = run(capsys, "solve", "--input", str(path), "--oracle-cap", "1000")
    assert code == 2 and err == ""
    doc = json.loads(out)
    assert doc["status"] == "unresolved"
    assert doc["diagnostic"].endswith("; search cap exceeded")


def test_exhaustive_recertification_past_the_oracle_cap_exits_two(tmp_path, capsys):
    """The solve fits under the cap, but the second oracle's 4^10
    assignments do not: the re-certification fails, not the input."""
    path = tmp_path / "identical.json"
    rows = [[9, 8, 7, 6, 5, 4, 3, 2, 1, 1]] * 4
    path.write_text(json.dumps({"kind": "goods", "valuations": rows}))
    code, out, err = run(
        capsys, "solve", "--input", str(path),
        "--oracle", "exhaustive", "--oracle-cap", "1000",
    )
    assert code == 2 and err == ""
    document, last = out.rstrip("\n").rsplit("\n", 1)
    assert json.loads(document)["status"] == "solved"
    assert last == "exhaustive re-certification: 4^10 assignments exceed the cap 1000"


def test_malformed_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("{not json", "{}", '{"kind": "goods", "valuations": [[1.5, 1]]}'):
        bad.write_text(text)
        code, _, err = run(capsys, "solve", "--input", str(bad))
        assert code == 1
        assert err.startswith("error: ")
    code, _, err = run(capsys, "bound", "--c", "-1", "--kind", "goods")
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("solve",),
        ("bound", "--c", "8", "--kind", "goods", "--override", "8=5"),
        (),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "usage: mmsalloc" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


def test_bound_command_prints_table_rows(capsys):
    for argv, line in [
        (("--c", "5", "--kind", "goods"), "kind=goods c=5 n_c=1"),
        (("--c", "7", "--kind", "goods"), "kind=goods c=7 n_c=8 required_agents=122"),
        (("--c", "8", "--kind", "goods"), "kind=goods c=8 n_c=1446 required_agents=292"),
        (("--c", "6", "--kind", "chores"), "kind=chores c=6 n_c=166 required_agents=84"),
    ]:
        code, out, _ = run(capsys, "bound", *argv)
        assert code == 0 and out.strip() == line


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
