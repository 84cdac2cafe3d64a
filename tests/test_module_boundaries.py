"""No module of the package reads another module's underscore names,
and every public name the package defines is reached from inside it or
kept for a stated reason."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "andreev"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}

# Public module-level names that no code in the package reaches, each
# kept for one of these reasons, which names where its user lives.
# `catalog` is the examples module and is exempt as a whole.
REASONS = {
    "bench import": "bench",
    "bench trace attribute": "bench",
    "test reference": "tests",
    "acceptance test": "tests/test_acceptance.py",
    "reader of CLI output": "tests",
}
CALLERLESS = {
    "complexes.isomorphic": (
        "bench import", "the combinatorics workload's op and its check"),
    "minkowski.extract_combinatorics": (
        "bench import", "the realize check rebuilds the cells with it"),
    "whitehead.random_simple": (
        "bench import", "the random complexes of every corpus"),
    "realize.continue_path": (
        "acceptance test", "test_15_degeneration_diagnostics"),
    "realize.truncate_ideal": (
        "bench trace attribute", "bench_trace.TRACED, looked up with no "
        "default"),
    "minkowski.dihedral": (
        "test reference", "the scalar oracle of Realization.edge_angles"),
    "minkowski.coseqn_determinant": (
        "acceptance test", "test_08_coseqn_identity"),
    "minkowski.coseqn_product": (
        "acceptance test", "test_08_coseqn_identity"),
    "whitehead.trace_from_json": (
        "reader of CLI output", "reads what `andreev reduce` writes"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_reads(path: pathlib.Path):
    """(line, text) of every read of another package module's underscore
    name in the file: `from .mod import _x`, or `mod._x` where `mod` was
    bound to a sibling module by an import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = {}                       # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package_level = (node.level == 1 and node.module is None) or (
                node.level == 0 and node.module == "andreev")
            if package_level:
                for alias in node.names:
                    if alias.name in MODULES:
                        siblings[alias.asname or alias.name] = alias.name
            elif (node.level == 1 and node.module in MODULES) or (
                    node.level == 0 and node.module is not None
                    and node.module.startswith("andreev.")):
                found += [(node.lineno, f"from {node.module} import {a.name}")
                          for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and siblings[node.value.id] != path.stem):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    offenders = {path.name: reads for path in sorted(PACKAGE.glob("*.py"))
                 if (reads := foreign_private_reads(path))}
    assert offenders == {}


def test_the_check_sees_a_private_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import complexes\n"
                     "from .angles import _conditions, check_conditions\n"
                     "links = complexes._link_cycles(None)\n"
                     "public = complexes.dual\n")
    assert foreign_private_reads(probe) == [
        (2, "from angles import _conditions"),
        (3, "complexes._link_cycles")]


def _references(node) -> set:
    """Every name a node reads: bare names, attribute names and names
    imported with `from ... import`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def callerless_names(package: pathlib.Path):
    """`module.name` of every public module-level def or class in the
    package (catalog excepted) that nothing else in the package refers
    to.  A definition's references to its own name do not count."""
    defined, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not own.startswith("_")
                    and path.stem != "catalog"):
                defined.append((path.stem, own))
            referenced |= _references(stmt) - {own}
    return sorted(f"{m}.{n}" for m, n in defined if n not in referenced)


def test_every_public_name_is_used_or_kept_for_a_reason():
    assert callerless_names(PACKAGE) == sorted(CALLERLESS)


def test_every_kept_name_has_its_stated_user():
    for qualified, (reason, _) in CALLERLESS.items():
        where = ROOT / REASONS[reason]
        files = sorted(where.glob("*.py")) if where.is_dir() else [where]
        files = [p for p in files if p.name != pathlib.Path(__file__).name]
        name = qualified.split(".")[1]
        assert any(re.search(rf"\b{name}\b", p.read_text())
                   for p in files), qualified


def test_the_check_sees_a_callerless_name(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return used\n"
                                   "def unused():\n    return used()\n"
                                   "class Kept:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import Kept\n")
    (tmp_path / "catalog.py").write_text("def example():\n    pass\n")
    assert callerless_names(tmp_path) == ["a.unused"]
