import ast
from pathlib import Path

import hypertri

SRC = Path(hypertri.__file__).parent


def _blanket_handlers(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node.lineno, "except:"
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for name in caught:
            if isinstance(name, ast.Name) and name.id in ("Exception", "BaseException"):
                yield node.lineno, f"except {name.id}"


def test_no_blanket_exception_handlers():
    # every failure the library expects is a GeometryError; a blanket handler
    # would also swallow programming errors
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in _blanket_handlers(path)]
    assert found == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn):
    """Nodes of a function's own scope: nested functions and classes are
    left out (a name they read is still found by `ast.walk` of ``fn``)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for fn in ast.walk(tree):
        if not isinstance(fn, _SCOPES):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        shared = {name for n in _own_nodes(fn)
                  if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        for n in _own_nodes(fn):
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                    and not n.id.startswith("_")
                    and n.id not in read and n.id not in shared):
                yield n.lineno, n.id


def test_no_unread_locals():
    # a local that is assigned and never read is dead work or a forgotten
    # check; name it with a leading underscore when the value is discarded
    # on purpose
    found = sorted(f"{path.name}:{line}: {name}"
                   for path in sorted(SRC.glob("*.py"))
                   for line, name in _unread_locals(path))
    assert found == []
