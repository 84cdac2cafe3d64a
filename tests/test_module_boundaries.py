"""No module of the package reads another module's underscore names."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "andreev"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


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
