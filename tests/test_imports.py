"""No module imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule, over the package (except
``__init__.py``, which only re-exports), the tests and the scripts.
"""

import ast
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
