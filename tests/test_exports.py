"""Export and import hygiene of src/groupwalks, read from the source by ast alone.

For each module: every name in ``__all__`` is bound at top level, every
public top-level def or class is listed in ``__all__``, and every imported
name is used.  The package ``__init__`` holds only its docstring.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "groupwalks"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


EXPORTING = [p for p in MODULES if _all(_tree(p)) is not None]


def _top_level(tree):
    """Statements at module level, descending into if/try blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
        else:
            yield node


def _imports(tree):
    """Names bound by the module's imports, __future__ excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _bound(tree):
    """Names bound at module level."""
    names = set()
    for node in _top_level(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    names.update(_imports(tree))
    return names


def _used(tree):
    """Names loaded anywhere in the module, string annotations and __all__
    re-exports included."""
    used = set(_all(tree) or ())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_all_names_resolve(path):
    tree = _tree(path)
    exported = _all(tree)
    assert len(exported) == len(set(exported)), "__all__ lists a name twice"
    assert sorted(set(exported) - _bound(tree)) == []


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_public_definitions_are_exported(path):
    tree = _tree(path)
    exported = _all(tree)
    public = {
        node.name
        for node in _top_level(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert sorted(public - set(exported)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    assert sorted(set(_imports(tree)) - _used(tree)) == []

