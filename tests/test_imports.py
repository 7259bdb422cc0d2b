"""No module imports a name it never uses, and no package definition is dead.

A stdlib stand-in for a linter's unused-import rule, over the package (except
``__init__.py``, which only re-exports), the tests and the scripts; and a
dead-definition check: every module-level function, class and assignment in
the package is referenced from the package, the tests, the scripts or the
benchmark somewhere outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources() -> list[Path]:
    package = [p for p in (ROOT / "src" / "smoothlab").glob("*.py") if p.name != "__init__.py"]
    return sorted([*package, *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    sources = _sources()
    assert len(sources) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sources
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _definitions(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """(statement, name) for each module-level def, class and plain assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node, node.name))
        elif isinstance(node, ast.Assign):
            out += [(node, t.id) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append((node, node.target.id))
    return out


def _references(node: ast.AST) -> Counter:
    """Names read, attributes accessed and names imported under node."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.split(".")[-1]] += 1
    return refs


def test_no_dead_definitions():
    package = sorted((ROOT / "src" / "smoothlab").glob("*.py"))
    readers = [*package, *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    readers += (ROOT / "perfbench").glob("*.py")
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    everywhere: Counter = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
        for path in package
        for node, name in _definitions(trees[path])
        # dunders such as __version__ are read by tools, not by code
        if not (name.startswith("__") and name.endswith("__"))
        and everywhere[name] <= _references(node)[name]
    ]
    assert not dead, "definitions referenced nowhere else:\n" + "\n".join(dead)


def test_package_reads_no_environment():
    # the package takes every setting as an argument: no module reads
    # os.environ or calls getenv, under any spelling of the import
    reads = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / "src" / "smoothlab").glob("*.py"))
        for name in ("environ", "getenv")
        if _references(ast.parse(path.read_text(encoding="utf-8")))[name]
    ]
    assert not reads, "environment reads:\n" + "\n".join(reads)


def _readers(tree: ast.Module, name: str) -> set[str]:
    """The innermost function around each read or call of name, as a plain
    name or an attribute; "" for module level."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return found


def test_only_the_class_table_enumerates():
    # every exact count, class count and class weight reads one grouping of
    # one enumeration: no package function but smooth_core._by_class names
    # smooth_values, so none other can call it
    readers = {
        (path.name, owner)
        for path in sorted((ROOT / "src" / "smoothlab").glob("*.py"))
        for owner in _readers(ast.parse(path.read_text(encoding="utf-8")), "smooth_values")
    }
    assert readers == {("smooth_core.py", "_by_class")}
