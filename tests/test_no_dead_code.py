"""Every function, method and constant in src/flowcert and tools is read outside the tests.

A module-level function, a method or a module-level UPPER_CASE constant of
src/flowcert or tools counts as used when its name is read somewhere in
src/flowcert, perfbench or tools outside its own definition or assignment:
as a name (not shadowed by a local of the same name), as an attribute, or as
a string (perfbench's tracer looks functions up by name).  The package's
__init__.py binds only __version__: every caller imports a submodule.
Dunder methods run implicitly, a method that overrides a method of a builtin
or standard-library base class is called by that base (argparse calls
ArgumentParser.error), and properties are serialised by harness.jsonable, so
all three are exempt.  Paper API that only tests call today stays on
PAPER_API.

Likewise every run-config key is set by at least one bundled config: a key
that no shipped run sets is a constant with a parser in front of it.  So is
every profile kind in mcf.PROFILES named by one: a kind that no shipped run
starts from is a start profile only tests read, and belongs with them.  And
every FlowControls field is passed by some FlowControls(...) call in
src/flowcert or perfbench: a field that no caller passes is a constant of the
scheme with a constructor in front of it.

And every option of every CLI subcommand is read as args.<dest> by the
handler that the subcommand runs, or by cli.main (--out, --quiet): an option
that no code reads is a flag the command silently ignores.

And acceptance.py reads `evolve` only inside its run table, BundledRuns, so
each bundled MCF run is evolved once and no criterion evolves its own.

And every class in errors.py is raised or caught by name in src/flowcert: a
class that is only ever a base, or that no code raises, is a name with no
behaviour of its own.

And inside a run a profile is a row on the run's grid: mcf.py builds a
CylinderGraph only for the initial state and for an error's last state, and
cli.py builds none, so no mark is re-validated as a graph object.

And each reading the criteria share has one owner: in src/flowcert only
FlowHistory.gaps subtracts the cylinder area from mark_F, only
FlowHistory.max_rise differences consecutive marks' areas, and acceptance.py
imports no json, so criterion 11 compares the text harness.write_json writes.
Likewise only CertificateConstants.endpoint_bound takes a cap of an absolute
gap, only CloseReport.verdict conjoins the closeness flags, and only
sequences.constructive_bound reads the private certificate cache.
"""

import argparse
import ast
import builtins
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

from flowcert import cli, harness, mcf

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowcert"
PAPER_API = {"estimate_entropy", "profile_from_csv", "sqrt_segment_sum"}
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _stdlib_base_attributes(cls):
    """Attribute names of the class's bases that are builtins (`Exception`)
    or classes of a standard-library module (`argparse.ArgumentParser`)."""
    names = set()
    for base in cls.bases:
        obj = None
        if isinstance(base, ast.Name):
            obj = getattr(builtins, base.id, None)
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) \
                and base.value.id in sys.stdlib_module_names:
            obj = getattr(importlib.import_module(base.value.id), base.attr, None)
        if isinstance(obj, type):
            names.update(dir(obj))
    return names


def _constant_name(node):
    """The name a module-level UPPER_CASE assignment binds, else None."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, ast.AnnAssign):
        target = node.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id) else None


def _definitions(tree):
    """(name, node) of the module-level functions, the class methods and the
    module-level constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            inherited = _stdlib_base_attributes(node)
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                is_property = any(isinstance(d, ast.Name) and d.id == "property"
                                  for d in item.decorator_list)
                if not (is_property or item.name.startswith("__") or item.name in inherited):
                    yield item.name, item
        elif name := _constant_name(node):
            yield name, node


def _locals(fn):
    """Names a function binds: arguments, assignments, nested defs and
    imports (nested scopes included)."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node is not fn:
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def _uses(tree):
    """(name, enclosing top-level def, method def or constant assignment) for
    every read of a name."""
    out = []

    def visit(node, owner, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if owner is None:
                owner = node
            shadowed = shadowed | _locals(node)
        elif owner is None and _constant_name(node):
            owner = node
        elif isinstance(node, ast.ClassDef) and owner is None:
            for item in node.body:
                visit(item, None, shadowed)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                out.append((node.id, owner))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, owner))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, shadowed)

    visit(tree, None, frozenset())
    return out


def unreferenced(sources=(PACKAGE, ROOT / "tools"), readers=(ROOT / "perfbench",)):
    """Qualified names of the definitions in the sources' modules that nothing
    live in the sources or readers reads.  A read from inside a dead
    definition does not count, so a helper whose only caller is dead code, or
    a constant only dead code reads, is reported too."""
    paths = [p for d in (*sources, *readers) for p in sorted(d.glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    uses = [use for tree in trees.values() for use in _uses(tree)]
    candidates = {node: (name, f"{path.stem}.{name}") for path, tree in trees.items()
                  if path.parent in sources
                  for name, node in _definitions(tree) if name not in PAPER_API}
    dead: set = set()
    changed = True
    while changed:
        changed = False
        for node, (name, _) in candidates.items():
            if node not in dead and not any(
                    used == name and owner is not node and owner not in dead
                    for used, owner in uses):
                dead.add(node)
                changed = True
    return sorted(candidates[node][1] for node in dead)


def test_every_definition_has_a_non_test_reader():
    assert unreferenced() == []


def test_a_constant_only_dead_code_reads_is_reported(tmp_path):
    """A constant left behind by its deleted reader, or read only by a dead
    helper or another dead constant, is dead; a constant read by live code
    through another constant is not."""
    package = tmp_path / "flowcert"
    package.mkdir()
    (package / "mod.py").write_text(
        "GRID = 64\nSTEP = 2\nWIDTH = STEP * 3\nLEFT = 1\nSPAN = LEFT + 1\n"
        "def _dead():\n    return GRID\n"
        "def live():\n    return WIDTH\n")
    (tmp_path / "caller.py").write_text("import mod\nmod.live()\n")
    assert unreferenced((package,), readers=(tmp_path,)) == [
        "mod.GRID", "mod.LEFT", "mod.SPAN", "mod._dead"]


def test_a_tool_constant_left_behind_is_reported(tmp_path):
    """A script's key list that its main no longer reads is dead, although
    the script runs main from its `__main__` guard."""
    tools = tmp_path / "tools"
    tools.mkdir()
    (tools / "bench.py").write_text(
        "import sys\nPAIRS = 5\nKEYS = ('wall_s',)\n"
        "def main():\n    return PAIRS\n"
        "if __name__ == '__main__':\n    sys.exit(main())\n")
    assert unreferenced((tools,), readers=()) == ["bench.KEYS"]


def test_package_root_binds_only_the_version():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert isinstance(body[0], ast.Expr)  # the docstring
    assert [ast.unparse(node).split(" = ")[0] for node in body[1:]] == ["__version__"]


def test_paper_api_still_defined():
    defined = {name for path in PACKAGE.glob("*.py")
               for name, _ in _definitions(ast.parse(path.read_text()))}
    assert PAPER_API <= defined


def _bundled_configs() -> list:
    """The parsed key = value dict of each bundled config."""
    configs = sorted((PACKAGE / "configs").glob("*.cfg"))
    assert configs
    return [harness.parse_config_text(path.read_text(), str(path)) for path in configs]


def test_every_config_key_is_set_by_a_bundled_config():
    keys = {f.name for f in dataclasses.fields(mcf.RunConfig)}
    set_somewhere = set().union(*_bundled_configs())
    assert sorted(keys - set_somewhere) == []


def test_every_profile_kind_is_named_by_a_bundled_config():
    named = {config.get("profile_kind") for config in _bundled_configs()}
    assert sorted(set(mcf.PROFILES) - named) == []


def test_every_flow_control_is_passed_by_a_caller():
    fields = [f.name for f in dataclasses.fields(mcf.FlowControls)]
    passed = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "FlowControls" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                passed.update(fields[:len(node.args)])
                passed.update(kw.arg for kw in node.keywords)
    assert sorted(set(fields) - passed) == []


def _args_read(fn) -> set:
    """The attributes fn reads off the parsed arguments, `args`."""
    return {node.attr for node in ast.walk(ast.parse(inspect.getsource(fn)))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_every_cli_option_is_read():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    read_by_main = _args_read(cli.main)
    ignored = []
    for command, subparser in sub.choices.items():
        read = read_by_main | _args_read(subparser.get_default("run"))
        ignored += [f"{command} {action.option_strings[0]}" for action in subparser._actions
                    if not isinstance(action, argparse._HelpAction) and action.dest not in read]
    assert sorted(sub.choices) == ["grad-flow", "mcf", "seq-check", "verify-all"]
    assert ignored == []


def test_acceptance_evolves_only_in_the_run_table():
    """Criteria read their MCF runs from acceptance.BundledRuns, which evolves
    each bundled run once; no criterion evolves a run of its own."""
    readers = []
    for top in ast.parse((PACKAGE / "acceptance.py").read_text()).body:
        scopes = [(f"{top.name}.{item.name}", item) for item in top.body
                  if isinstance(item, ast.FunctionDef)] if isinstance(top, ast.ClassDef) \
            else [(getattr(top, "name", "<module>"), top)]
        readers += [owner for owner, scope in scopes for node in ast.walk(scope)
                    if "evolve" in (getattr(node, "attr", None), getattr(node, "id", None))]
    assert readers == ["BundledRuns.__missing__"]


def _raised_or_caught(tree) -> set:
    """Names of the exception classes a module raises (`raise X(...)`) or
    catches (`except X`, `except (X, Y)`)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.add(getattr(getattr(node.exc, "func", node.exc), "id", None))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(getattr(t, "id", None) for t in types)
    return names


def test_every_error_class_is_raised_or_caught():
    classes = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    used = set().union(*(_raised_or_caught(ast.parse(path.read_text()))
                         for path in sorted(PACKAGE.glob("*.py"))))
    assert sorted(classes - used) == []


def _graph_builders(path) -> list:
    """Dotted scopes (`Class.method`, `function.nested`) of every call in the
    module that builds a CylinderGraph: `CylinderGraph(...)` or one of its
    class methods."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        elif isinstance(node, ast.Call):
            func = node.func.value if isinstance(node.func, ast.Attribute) else node.func
            if getattr(func, "id", None) == "CylinderGraph":
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return sorted(found)


def test_graphs_are_built_only_at_the_edges():
    assert _graph_builders(PACKAGE / "mcf.py") == ["RunConfig.initial_state", "evolve.last_state"]
    assert _graph_builders(PACKAGE / "cli.py") == []


def _gap_spellings(path) -> list:
    """Dotted scopes of every subtraction from `mark_F` of the cylinder area:
    an operand that reads `F_value`, or a name bound in the same scope to an
    expression that reads it."""
    found = []

    def reads(node, attr, names=frozenset()):
        return any(getattr(sub, "attr", None) == attr or getattr(sub, "id", None) in names
                   for sub in ast.walk(node))

    def visit(node, scope, area_names):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
            area_names = area_names | {target.id for sub in ast.walk(node)
                                       if isinstance(sub, ast.Assign) and reads(sub.value, "F_value")
                                       for target in sub.targets if isinstance(target, ast.Name)}
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
                and reads(node.left, "mark_F") and reads(node.right, "F_value", area_names):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, area_names)

    visit(ast.parse(path.read_text()), [], frozenset())
    return found


def test_only_flow_history_gaps_subtracts_the_cylinder_area():
    """Every F-gap in src/flowcert is read through FlowHistory.gaps, so a
    change to how a gap is computed changes one property body."""
    found = [f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
             for scope in _gap_spellings(path)]
    assert found == ["mcf.FlowHistory.gaps"]


def test_a_gap_spelled_through_a_local_is_reported(tmp_path):
    """A gap spelled inline, or through a local bound to the cylinder area, is
    found; a drop between two marks is not a gap."""
    path = tmp_path / "mod.py"
    path.write_text("def fit(hist, idx):\n    F_cyl = hist.spec.F_value\n"
                    "    drop = hist.mark_F[idx - 1] - hist.mark_F[idx + 1]\n"
                    "    return abs(hist.mark_F[idx] - F_cyl), drop\n"
                    "def stationary(hist):\n    return hist.mark_F - hist.spec.F_value\n")
    assert _gap_spellings(path) == ["fit", "stationary"]


def test_acceptance_serialises_no_report_itself():
    """Criterion 11 compares harness.json_text, the text write_json writes:
    acceptance.py imports no json and calls no dumps of its own."""
    tree = ast.parse((PACKAGE / "acceptance.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "json" not in imported
    assert "dumps" not in {getattr(node, "attr", None) for node in ast.walk(tree)}


def _rise_spellings(path) -> list:
    """Dotted scopes of every difference of consecutive marks' areas: a `diff`
    call on `mark_F`, or one slice of `mark_F` minus another."""
    found = []

    def is_mark_slice(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
                and getattr(node.value, "attr", None) == "mark_F")

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        elif isinstance(node, ast.Call) and "diff" in (getattr(node.func, "attr", None),
                                                        getattr(node.func, "id", None)):
            if any(getattr(sub, "attr", None) == "mark_F" for arg in node.args
                   for sub in ast.walk(arg)):
                found.append(".".join(scope))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
                and is_mark_slice(node.left) and is_mark_slice(node.right):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_only_flow_history_max_rise_differences_the_mark_areas():
    """The unit-mark area rise that `flowcert mcf`'s area-monotone check and
    criterion 8 read is FlowHistory.max_rise, so the two cannot drift apart."""
    found = [f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
             for scope in _rise_spellings(path)]
    assert found == ["mcf.FlowHistory.max_rise"]


def test_a_rise_spelled_by_diff_or_slices_is_reported(tmp_path):
    """An np.diff of mark_F, or a slice of it minus another, is a rise; a
    drop between two indexed marks is not."""
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\n"
                    "def monotone(hist):\n    return np.max(np.diff(hist.mark_F))\n"
                    "def rises(hist):\n    return hist.mark_F[1:] - hist.mark_F[:-1]\n"
                    "def drop(hist, idx):\n    return hist.mark_F[idx - 1] - hist.mark_F[idx + 1]\n")
    assert _rise_spellings(path) == ["monotone", "rises"]


def _spelled_in(path, spells) -> list:
    """Dotted scopes of every node of the module for which spells(node) holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        elif spells(node):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def _names_read(node) -> set:
    return {getattr(sub, "attr", getattr(sub, "id", None)) for sub in ast.walk(node)}


def _cap_of_a_gap(node) -> bool:
    """A `.cap(...)` call whose argument takes an `abs`: one half of the
    endpoint-controlled bound."""
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "cap"
            and any("abs" in _names_read(arg) for arg in node.args))


def _closeness_conjunction(node) -> bool:
    """An `and` that reads all three closeness flags."""
    return (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)
            and {"hypotheses_ok", "certified", "bound_holds"} <= _names_read(node))


def _private_cache_read(node) -> bool:
    return "_constructive_bound_cached" in (getattr(node, "attr", None), getattr(node, "id", None))


def _package_spellings(spells) -> list:
    return sorted({f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
                   for scope in _spelled_in(path, spells)})


def test_each_certificate_decision_has_one_owner():
    """The endpoint-controlled bound that criteria 4 and 10 read, the closeness
    verdict that `flowcert mcf --close` and criterion 10 read, and the
    (C, tau) validation in front of the certificate cache are each written once."""
    assert _package_spellings(_cap_of_a_gap) == ["sequences.CertificateConstants.endpoint_bound"]
    assert _package_spellings(_closeness_conjunction) == ["mcf.CloseReport.verdict"]
    assert _package_spellings(_private_cache_read) == ["sequences.constructive_bound"]


def test_a_second_spelling_of_a_certificate_decision_is_reported(tmp_path):
    """Two caps of gaps, the three closeness flags conjoined and a read of the
    private cache are found; a cap at a plain value, and two of the three
    flags, are not."""
    path = tmp_path / "mod.py"
    path.write_text("from . import sequences\n"
                    "def bound(consts, dF1, dF2):\n"
                    "    return consts.cap(abs(dF1)) + consts.cap(abs(dF2)) + consts.cap(1.0)\n"
                    "def ok(report):\n"
                    "    return report.hypotheses_ok and report.certified and report.bound_holds\n"
                    "def partial(report):\n    return report.certified and report.bound_holds\n"
                    "def pair(tau):\n    return sequences._constructive_bound_cached(1.0, tau)\n")
    assert _spelled_in(path, _cap_of_a_gap) == ["bound", "bound"]
    assert _spelled_in(path, _closeness_conjunction) == ["ok"]
    assert _spelled_in(path, _private_cache_read) == ["pair"]
