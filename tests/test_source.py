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
