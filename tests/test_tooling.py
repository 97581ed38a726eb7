"""Repository checks.  The benchmark harness's self-tests run in a child
process so that its tracer's patching of fuzzfix never reaches this test
session; a change that removes a name the tracer patches fails here.  The
AST checks keep the import lists, the public surface, the module-level
private names, the dataclass fields and the class members free of dead
names, and the expression language to one evaluator."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import fuzzfix

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_no_scalar_loop_site():
    # every callable takes arrays and broadcasts, so nothing is looped over
    # element by element
    hits = [path.name for path in sorted((ROOT / "src" / "fuzzfix").rglob("*.py"))
            for line in path.read_text().splitlines() if "np.vectorize" in line]
    assert hits == []


def test_no_flat_index_gather_scan():
    # scans broadcast blocks of whole rows; a chunk that unravels its flat
    # sample range gathers every coordinate again
    hits = [path.name for path in sorted((ROOT / "src").rglob("*.py"))
            if "unravel_index(np.arange(" in path.read_text()]
    assert hits == []


def test_one_owner_of_the_block_rule():
    # the block step of every scan, and the map from a sample index to its
    # coordinates, live in _parallel; no other module reads its chunk size
    hits = [path.name for path in sorted((ROOT / "src" / "fuzzfix").rglob("*.py"))
            if re.search(r"\bCHUNK\b", path.read_text())]
    assert hits == ["_parallel.py"]


def test_one_owner_of_the_positive_rule():
    # "finite and positive" is errors.require_positive; a module that tests
    # isfinite(...) together with a sign against 0 restates it
    hits = sorted({path.name for path in (ROOT / "src" / "fuzzfix").rglob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.BoolOp)
                   and "isfinite(" in ast.unparse(node)
                   and re.search(r"(>|<=) 0(\.0)?\b", ast.unparse(node))})
    assert hits == ["errors.py"]


def test_one_owner_of_the_variable_rule():
    # "an expression may only use these variables" is expr.expr_function; a
    # module that names expr.variables (bare, as an attribute or under an
    # import alias) restates it; __init__ only re-exports it
    readers = sorted({path.name for path in (ROOT / "src" / "fuzzfix").rglob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Name) and node.id == "variables"
                      or isinstance(node, ast.Attribute) and node.attr == "variables"
                      or isinstance(node, ast.alias) and node.name == "variables"})
    assert readers == ["__init__.py", "expr.py"]


def test_one_expression_evaluator():
    # the expression tree is walked for its variables and evaluated on
    # arrays; a second evaluator would match on BinOp again
    walkers = sorted(
        node.name for path in (ROOT / "src" / "fuzzfix").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(p, ast.MatchClass) and ast.unparse(p.cls) == "BinOp"
                for p in ast.walk(node)))
    assert walkers == ["_eval_array", "variables"]


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module-level imports, with their line numbers."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_no_unused_imports():
    # no pyflakes or ruff in the toolchain; the re-exports of
    # fuzzfix.__all__ count as uses
    unused = []
    for path in sorted([*(ROOT / "src" / "fuzzfix").glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path.name == "__init__.py":
            used |= set(fuzzfix.__all__)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in _module_imports(tree).items() if name not in used]
    assert unused == []


def _referenced_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _module_private_names(tree: ast.Module) -> dict[str, int]:
    """Private functions, classes and constants bound at module level."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                if isinstance(target, ast.Name):
                    bound[target.id] = node.lineno
    return {name: line for name, line in bound.items()
            if name.startswith("_") and not name.startswith("__")}


def test_no_dead_private_names():
    # a private helper that no module of the package reads is a leftover
    paths = sorted((ROOT / "src" / "fuzzfix").glob("*.py"))
    referenced = set().union(*(_referenced_names(path) for path in paths))
    dead = [f"{path.relative_to(ROOT)}:{line} {name}" for path in paths
            for name, line in _module_private_names(ast.parse(path.read_text())).items()
            if name not in referenced]
    assert dead == []


def _dataclass_fields(tree: ast.Module) -> dict[str, list[tuple[str, int]]]:
    """Each dataclass's fields in order, with their line numbers."""
    return {node.name: [(stmt.target.id, stmt.lineno) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(ast.unparse(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                    for d in node.decorator_list)}


def test_no_dead_dataclass_fields():
    # a field that no module of the package reads, as an attribute or through
    # a positional class pattern (the expression nodes), is a leftover
    trees = {path: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "fuzzfix").glob("*.py"))}
    fields = {cls: names for tree in trees.values()
              for cls, names in _dataclass_fields(tree).items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.MatchClass) and ast.unparse(node.cls) in fields:
                read |= {name for (name, _), pattern in zip(fields[ast.unparse(node.cls)],
                                                            node.patterns)
                         if not (isinstance(pattern, ast.MatchAs) and pattern.name is None)}
    dead = [f"{path.relative_to(ROOT)}:{line} {cls}.{name}" for path, tree in trees.items()
            for cls, names in _dataclass_fields(tree).items()
            for name, line in names if name not in read]
    assert dead == []


def test_public_surface_is_used():
    # every exported name is reached from src/ or from an acceptance criterion
    referenced = _referenced_names(ROOT / "tests" / "test_acceptance.py")
    for path in (ROOT / "src" / "fuzzfix").glob("*.py"):
        if path.name != "__init__.py":
            referenced |= _referenced_names(path)
    unreached = set(fuzzfix.__all__) - referenced
    assert unreached == set()


def test_reports_are_plain_dicts():
    # a check returns the dict it reports; only the dynamic-programming
    # results, which carry the solved value functions, keep a class
    classes = sorted(
        node.name for path in (ROOT / "src" / "fuzzfix").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "to_dict" for f in node.body))
    assert classes == ["IterationResult", "SystemReport"]


def test_no_dead_members():
    # a method or property that no module of the package reads as an
    # attribute is a second entry point or a leftover
    trees = {path: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "fuzzfix").glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    dead = [f"{path.relative_to(ROOT)}:{member.lineno} {cls.name}.{member.name}"
            for path, tree in trees.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for member in cls.body
            if isinstance(member, ast.FunctionDef)
            and not (member.name.startswith("__") and member.name.endswith("__"))
            and member.name not in read]
    assert dead == []
