"""Every module-level import of a package module is used by that module.

``__init__.py`` re-exports by design and is exempt, as is any import line
marked ``# noqa: F401``.  The marker is fenced too: it may name only
``mms_value``, and only in the modules where the bench's tracer patches
that binding, so it hides no dead import.  Only the modules at the number
boundary import ``fractions``: the rest work on whatever exact values the
instance holds.
A design fence keeps a wrapper off the solve path: the rules and the
solvers take the sorted residual ``Instance`` itself, so only ``core`` and
``pipeline`` name ``OrderedInstance``.  Another keeps the search limit with
the pipeline: only ``mms``, which raises ``TooLarge``, and ``pipeline``,
which reports it, name it; and only ``pipeline``, which runs every
threshold search, imports ``find_allocation_meeting``.  Only ``pipeline``
imports ``apply_with_maps``: every step of a solve is applied where it is
committed, in ``Pipeline.push`` or ``Pipeline.settle``.  The reference
oracle ``exhaustive_partition`` stays off the solve path: only ``cli``, for
``solve --oracle exhaustive``, imports it.  The shape decisions stay in
``bounds``: only ``pipeline``, which guards every simple reduction,
imports ``known_solvable``, and no solver imports ``n_c_chores`` (only
``cli``, for ``mmsalloc bound``, does).  The solvers' scripted routes
start where the guarded rules stop, so the solvers name the simple rules
only in the rules tuple they hand ``Pipeline.push_guarded``: an unguarded
re-run cannot come back.  Every step names its rule by a ``RULE_*``
constant of ``reductions``; only ``trace_from_json`` reads the rule from
the document it parses.  Another keeps records small:
every frozen dataclass is also slotted.  Another keeps wrappers out: every
frozen dataclass has two fields or more, so a single value travels between
helpers as itself, not in a record that callers unpack again.  A last
fence finds dead helpers: every top-level function is used by another
top-level statement of the package, exported in ``__all__``, or named by
the bench.  An import fence
keeps set-up small: a fresh ``import mmsalloc`` loads neither the command
line module nor the standard modules only it needs.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mmsalloc

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mmsalloc"
BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FRACTION_MODULES = {"core.py", "mms.py", "bounds.py"}


def unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path) == []


def marked_imports(path: Path):
    """Each name imported on a line marked ``# noqa``: the marker exempts
    every name on its line."""
    source = path.read_text()
    lines = source.splitlines()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" in lines[alias.lineno - 1]:
                    yield alias.asname or alias.name


def test_only_bench_bindings_are_marked_unused():
    """``bench/test_bench.py`` asserts an ``mms_value`` binding in these
    modules for its tracer to patch; ROADMAP item 5 drops all three."""
    marked = {
        (path.name, name) for path in PACKAGE.glob("*.py") for name in marked_imports(path)
    }
    assert marked == {
        ("reductions.py", "mms_value"),
        ("solver_goods.py", "mms_value"),
        ("solver_chores.py", "mms_value"),
    }


def imports_fractions(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            return True
        if isinstance(node, ast.Import) and any(
            alias.name == "fractions" for alias in node.names
        ):
            return True
    return False


def test_only_boundary_modules_import_fractions():
    importers = {p.name for p in PACKAGE.glob("*.py") if imports_fractions(p)}
    assert importers <= FRACTION_MODULES


def imports_any(path: Path, names) -> bool:
    return any(
        alias.name in names
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


@pytest.mark.parametrize(
    "names, allowed",
    [
        ({"OrderedInstance"}, {"core.py", "pipeline.py"}),
        ({"TooLarge"}, {"mms.py", "pipeline.py"}),
        ({"find_allocation_meeting"}, {"pipeline.py"}),
        ({"apply_with_maps"}, {"pipeline.py"}),
        ({"exhaustive_partition"}, {"mms.py", "cli.py"}),
        ({"known_solvable"}, {"pipeline.py"}),
        ({"n_c_chores"}, {"cli.py"}),
    ],
    ids=[
        "ordered_instance",
        "too_large",
        "threshold_search",
        "step_application",
        "reference_oracle",
        "shape_guard",
        "chores_threshold",
    ],
)
def test_only_fenced_modules_import(names, allowed):
    importers = {p.name for p in MODULES if imports_any(p, names)}
    assert importers <= allowed


def frozen_dataclasses(path: Path):
    """(class name, whether it passes slots=True, number of fields) for each
    class decorated with ``@dataclass(frozen=True, ...)``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            func = deco.func if isinstance(deco, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
                continue
            flags = {
                kw.arg: kw.value.value
                for kw in deco.keywords
                if isinstance(kw.value, ast.Constant)
            }
            if flags.get("frozen"):
                fields = sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
                yield node.name, flags.get("slots") is True, fields


def test_frozen_dataclasses_are_slotted():
    found = {
        f"{path.stem}.{name}": slotted
        for path in MODULES
        for name, slotted, _ in frozen_dataclasses(path)
    }
    assert {"core.Instance", "matching.BipartiteGraph"} <= set(found)
    assert [name for name, slotted in found.items() if not slotted] == []


# ``bench/run.py`` reads ``OrderedInstance.instance``; folding the wrapper
# into its one field waits for the bench change of ROADMAP item 5.
SINGLE_FIELD_EXEMPT = {"core.OrderedInstance"}


def test_frozen_dataclasses_hold_two_fields_or_more():
    found = {
        f"{path.stem}.{name}": fields
        for path in MODULES
        for name, _, fields in frozen_dataclasses(path)
    }
    assert found["core.Instance"] >= 2 and SINGLE_FIELD_EXEMPT <= set(found)
    single = [name for name, fields in found.items() if fields < 2]
    assert sorted(single) == sorted(SINGLE_FIELD_EXEMPT)


def top_level_uses(node) -> set:
    """Names and attributes one top-level statement reads."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_top_level_function_is_used():
    defs, uses = [], set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node.name))
            # a function calling itself does not count as a use
            uses |= top_level_uses(node) - {getattr(node, "name", None)}
    bench = " ".join(p.read_text() for p in BENCH.glob("*.py"))
    dead = [
        qualified
        for qualified, name in defs
        if name not in uses
        and name not in mmsalloc.__all__
        and not re.search(rf"\b{name}\b", bench)
    ]
    assert dead == []


SIMPLE_RULES = {
    "reduce_single_item",
    "reduce_pigeonhole_pair",
    "reduce_pair_from_high",
    "reduce_pair_blockable",
}


def simple_rule_uses(path: Path):
    """(rule name, whether it is an element of a tuple handed to
    ``push_guarded``, directly or through a name bound to it in the same
    function) for each use of a simple rule in the module's code."""
    tree = ast.parse(path.read_text())
    guarded = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {
            target.id: node.value
            for node in ast.walk(func)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for call in ast.walk(func):
            if (
                isinstance(call, ast.Call)
                and getattr(call.func, "attr", None) == "push_guarded"
                and call.args
            ):
                arg = call.args[0]
                rules = bound.get(arg.id) if isinstance(arg, ast.Name) else arg
                if isinstance(rules, ast.Tuple):
                    guarded |= {id(elt) for elt in rules.elts}
    for node in ast.walk(tree):
        name = getattr(node, "id", getattr(node, "attr", None))
        if name in SIMPLE_RULES:
            yield name, id(node) in guarded


@pytest.mark.parametrize(
    "module, rules",
    [
        ("solver_goods.py", SIMPLE_RULES),
        ("solver_chores.py", {"reduce_pair_blockable"}),
    ],
)
def test_solvers_run_simple_rules_only_through_the_guard(module, rules):
    uses = list(simple_rule_uses(PACKAGE / module))
    assert {name for name, _ in uses} == rules
    assert [name for name, guarded in uses if not guarded] == []


def make_step_rules(path: Path):
    """(function, first argument) of each ``make_step`` call in the module,
    once for each function around it."""
    for func in ast.walk(ast.parse(path.read_text())):
        if isinstance(func, ast.FunctionDef):
            for call in ast.walk(func):
                callee = call.func if isinstance(call, ast.Call) else None
                if getattr(callee, "id", getattr(callee, "attr", None)) == "make_step":
                    yield func.name, call.args[0] if call.args else None


def test_every_step_names_its_rule_by_constant():
    loose = [
        f"{path.stem}.{func}"
        for path in MODULES
        for func, rule in make_step_rules(path)
        if not (isinstance(rule, ast.Name) and rule.id.startswith("RULE_"))
    ]
    assert loose == ["reductions.trace_from_json"]


def test_a_fresh_import_loads_no_command_line_code():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mmsalloc; "
        "print(' '.join(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(done.stdout.split())
    assert "mmsalloc.solver_goods" in loaded
    assert loaded & {"mmsalloc.cli", "argparse", "logging", "subprocess"} == set()
