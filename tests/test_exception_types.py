"""One refusal vocabulary, checked on the package's source.

Every ``raise`` in the package raises ``ValueError`` or a class defined in
``smoothlab.errors`` (a sequence's ``__getitem__`` may also raise
``IndexError``, which iteration relies on), and every ``SmoothLabError``
subclass is raised somewhere in the package.  So a new single-use type, or
an exception class the package never raises, fails here.
"""

import ast
from pathlib import Path

from smoothlab import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "smoothlab"
LOCAL = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.SmoothLabError)
}


def _raised() -> list[tuple[str, int, str, str]]:
    """(file, line, raised name, innermost enclosing function) for each
    raise in the package that names its exception."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk visits outer functions first, so the innermost one wins
        for func in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
            for node in ast.walk(func):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
                out[path.name, node.lineno] = (name, getattr(func, "name", ""))
    return [(file, line, name, func) for (file, line), (name, func) in out.items()]


def test_every_raise_is_in_the_vocabulary():
    raised = _raised()
    assert len(raised) > 50
    stray = sorted(
        f"{file}:{line}: {name}"
        for file, line, name, func in raised
        if name not in {"ValueError", *LOCAL}
        and not (name == "IndexError" and func == "__getitem__")
    )
    assert not stray, "raises outside ValueError and smoothlab.errors:\n" + "\n".join(stray)


def test_every_package_error_is_raised():
    raised = {name for *_, name, _ in _raised()}
    assert LOCAL - {"SmoothLabError"} <= raised
    assert LOCAL == {
        "SmoothLabError", "ThresholdExceededError", "NearPoleError",
        "NoConvergenceError", "ExportError",
    }
