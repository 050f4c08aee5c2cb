import ast
from pathlib import Path

import hypertri
from hypertri import centers, generate, registry

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


def _reads(fn) -> set[str]:
    """Names read anywhere in ``fn``.  The ``x`` of a subscript store
    ``x[k] = v`` is written into, not read."""
    written_into = {id(n.value) for n in ast.walk(fn)
                    if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)}
    return {n.id for n in ast.walk(fn)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
            and id(n) not in written_into}


def _unread_locals(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for fn in ast.walk(tree):
        if not isinstance(fn, _SCOPES):
            continue
        read = _reads(fn)
        shared = {name for n in _own_nodes(fn)
                  if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        for n in _own_nodes(fn):
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                    and not n.id.startswith("_")
                    and n.id not in read and n.id not in shared):
                yield n.lineno, n.id


def test_no_unread_locals():
    # a local that is assigned and never read, or only written into
    # (``x[k] = v``), is dead work or a forgotten check; name it with a
    # leading underscore when the value is discarded on purpose
    found = sorted(f"{path.name}:{line}: {name}"
                   for path in sorted(SRC.glob("*.py"))
                   for line, name in _unread_locals(path))
    assert found == []


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _hand_real_guards(path: Path):
    """``if classify(x) is not REAL:`` statements whose body raises."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        test = node.test if isinstance(node, ast.If) else None
        if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Call)
                and _name(test.left.func) == "classify"
                and isinstance(test.ops[0], ast.IsNot)
                and _name(test.comparators[0]) in ("REAL", "_R")
                and any(isinstance(n, ast.Raise)
                        for stmt in node.body for n in ast.walk(stmt))):
            yield node.lineno


def test_real_meets_go_through_real_point():
    # "this step lands on a real point, else raise" is `plane.real_point`;
    # a classify-then-raise guard elsewhere writes that check out again
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "plane.py"
             for line in _hand_real_guards(path)]
    assert found == []


def _letters(node) -> str | None:
    """The letters a dict key or an iterated sequence spells: a str
    constant, or a tuple or list of one-letter str constants."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, (ast.Tuple, ast.List)):
        parts = [_letters(e) for e in node.elts]
        if all(p is not None and len(p) == 1 for p in parts):
            return "".join(parts)
    return None


def _letter_keyed_dicts(path: Path):
    """Dict displays whose keys are all one-letter strings, and dict
    comprehensions whose key runs over a string of letters, where the
    letters are all vertex letters or all side letters."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = [None if k is None else _letters(k) for k in node.keys]
            if not all(k is not None and len(k) == 1 for k in keys):
                continue
            letters = "".join(keys)
        elif isinstance(node, ast.DictComp) and isinstance(node.key, ast.Name):
            letters = next((_letters(g.iter) for g in node.generators
                            if isinstance(g.target, ast.Name)
                            and g.target.id == node.key.id), None)
        else:
            continue
        if letters and any(set(letters) <= set(names) for names in ("ABC", "abc")):
            yield node.lineno, letters


def test_no_letter_keyed_dicts():
    # vertices and sides are addressed by index (trig.SIDE_ENDS); a dict
    # keyed by vertex letters or by side letters writes that convention out
    # by hand again
    found = sorted(f"{path.name}:{line}: {letters}"
                   for path in sorted(SRC.glob("*.py"))
                   for line, letters in _letter_keyed_dicts(path))
    assert found == []


_POINT_KIND_NAMES = {"REAL", "INFINITE", "IDEAL", "_R", "_IN", "_ID"}


def _point_kind_pair_tables(path: Path):
    """Dict and set displays with a key (or element) that is a tuple of
    point-kind names, such as ``(_R, _ID)`` or ``(PointKind.REAL, ...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        keys = (node.keys if isinstance(node, ast.Dict)
                else node.elts if isinstance(node, ast.Set) else [])
        if any(isinstance(k, ast.Tuple) and k.elts
               and all(_name(e) in _POINT_KIND_NAMES for e in k.elts) for k in keys):
            yield node.lineno


def test_no_point_kind_pair_tables():
    # a segment's lengths are the expected entry of its `registry.SEGMENT_CASES`
    # cell; a table keyed by point-kind pairs writes the catalogue out again
    found = sorted(f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                   for line in _point_kind_pair_tables(path))
    assert found == []


def _unused_imports(path: Path):
    """Names bound by an import and never read in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_no_unused_imports():
    # an import nothing reads is left over from deleted code; the package
    # `__init__` imports to re-export, so it is not checked
    found = sorted(f"{path.name}:{line}: {name}"
                   for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
                   for line, name in _unused_imports(path))
    assert found == []


_LETTER_FAMILIES = (("a", "b", "c"), ("alpha", "beta", "gamma"), ("A", "B", "C"))


def _letters_read(node) -> set[tuple[int, str]]:
    """(family, letter) pairs of the attributes ``.a``, ``.alpha``, ``.A``
    and their siblings that ``node`` reads."""
    return {(f, n.attr) for n in ast.walk(node) if isinstance(n, ast.Attribute)
            for f, family in enumerate(_LETTER_FAMILIES) if n.attr in family}


def _letter_spelled_triples(path: Path, exempt: set[str]):
    """Tuple and list displays, other than assignment targets, in which two
    elements read different letters of one family, with the function (or
    class) that holds them.  Displays inside the functions and classes named
    in ``exempt`` are skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def visit(node, scope):
        if isinstance(node, (*_SCOPES, ast.ClassDef)) and not isinstance(node, ast.Lambda):
            scope = node.name
            if scope in exempt:
                return
        if (isinstance(node, (ast.Tuple, ast.List))
                and not isinstance(node.ctx, ast.Store)):
            reads = [_letters_read(e) for e in node.elts]
            if any(f1 == f2 and x != y
                   for e1, r1 in enumerate(reads) for e2, r2 in enumerate(reads) if e1 < e2
                   for f1, x in r1 for f2, y in r2):
                yield node.lineno, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    yield from visit(tree, "<module>")


def test_no_letter_spelled_triples():
    # angles, sides and vertices are triples indexed under trig.SIDE_ENDS; a
    # tuple or list that spells the letters out restates which angle belongs
    # to which side by hand.  TriangleData builds the triples themselves, and
    # a Lambert quadrangle's a-d are the sides of a quadrangle, not a triangle
    exempt = {"trig.py": {"TriangleData", "lambert_relations"}}
    found = sorted({f"{path.name}:{line} in {scope}"
                    for path in sorted(SRC.glob("*.py"))
                    for line, scope in _letter_spelled_triples(path, exempt.get(path.name, set()))})
    assert found == []


def test_every_error_type_is_named():
    # an error type that no module raises, catches, subclasses or otherwise
    # names outside an import is left over from deleted code
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    named = {_name(n) for path in sorted(SRC.glob("*.py"))
             for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(n, (ast.Name, ast.Attribute))}
    assert sorted(declared - named) == []


_KERNEL_EXEMPT = {"origin"}


def _kernel_spellings(path: Path):
    """``.x``/``.y``/``.w`` reads and ``HPoint(``/``HLine(``/``UnitPoint(``
    calls inside the module-level functions of ``path``, other than those
    in `_KERNEL_EXEMPT`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name in _KERNEL_EXEMPT:
            continue
        for n in ast.walk(fn):
            if isinstance(n, ast.Attribute) and n.attr in ("x", "y", "w"):
                yield f"{fn.name}:{n.lineno}: .{n.attr}"
            elif isinstance(n, ast.Call) and _name(n.func) in ("HPoint", "HLine", "UnitPoint"):
                yield f"{fn.name}:{n.lineno}: {_name(n.func)}(...)"


def test_kernel_reads_each_triple_once():
    # the plane primitives unpack each triple once (x, y, w = p) and build
    # each result with tuple.__new__; an attribute read goes through the
    # named tuple's descriptor and a constructor call through its generated
    # __new__, both slower.  origin builds a point from constants, and
    # HPoint's own methods are not module-level primitives
    assert sorted(_kernel_spellings(SRC / "plane.py")) == []


def _private_centers_reads(path: Path):
    """Private names of `centers` that ``path`` reads: ``ct._name`` for a
    module alias ``ct`` of `centers`, or ``from .centers import _name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("centers"):
            yield from ((node.lineno, a.name) for a in node.names if a.name.startswith("_"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name.split(".")[-1] == "centers"}
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in aliases and n.attr.startswith("_")):
            yield n.lineno, f"{n.value.id}.{n.attr}"


def test_registry_reads_no_private_centers_name():
    # `centers` constructs and the registry compares: a center the registry
    # needs is a public `centers` builder, not assembled from its private
    # helpers
    assert sorted(_private_centers_reads(SRC / "registry.py")) == []


def test_no_nonlocal():
    # a value computed once per process is a functools.cache'd function,
    # not a closure that rebinds an enclosing variable
    found = sorted(f"{path.name}:{n.lineno}" for path in sorted(SRC.glob("*.py"))
                   for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(n, ast.Nonlocal))
    assert found == []


def _callers(path: Path, callee: str) -> list[str]:
    """The innermost enclosing function of each call of ``callee`` in
    ``path`` ("<module>" outside any function, "<lambda>" in a lambda)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Lambda):
            scope = "<lambda>"
        if isinstance(node, ast.Call) and _name(node.func) == callee:
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return list(visit(tree, "<module>"))


def test_only_result_classifies_a_center():
    # a builder hands `_result` its raw construction, and reads the kind
    # from the result; classifying the construction first repeats the work
    assert _callers(SRC / "centers.py", "classify") == ["_result"]


def test_registry_does_not_decode_radii():
    # a circumradius is `plane.radius_ext` of the center, not rebuilt from
    # the floats a center result carries for the report
    tree = ast.parse((SRC / "registry.py").read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and n.value == "radius_quantum"] == []


def test_only_main_prints_an_error():
    # a command raises `UsageError` and `main` writes the one ``error: ``
    # line for it, as for every other error; a ``print(..., file=...)``
    # elsewhere in the CLI writes that rule out again
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{n.lineno}" for stmt in tree.body
             if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "main")
             for n in ast.walk(stmt) if isinstance(n, ast.Call) and _name(n.func) == "print"
             and any(k.arg == "file" for k in n.keywords)]
    assert found == []


def _dataclass_uses(path: Path):
    """Each import of `dataclasses` and each ``@dataclass`` class in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, "import dataclasses") for a in node.names
                        if a.name == "dataclasses")
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            yield node.lineno, "from dataclasses import"
        elif isinstance(node, ast.ClassDef):
            yield from ((node.lineno, f"@dataclass {node.name}") for d in node.decorator_list
                        if _name(d.func if isinstance(d, ast.Call) else d) == "dataclass")


def test_no_dataclasses():
    # every record is a named tuple, like the points, lines and lengths;
    # importing `dataclasses` also loads `inspect`, `ast`, `dis` and
    # `tokenize`, which every command would pay for at start-up
    found = sorted(f"{path.name}:{line}: {what}" for path in sorted(SRC.glob("*.py"))
                   for line, what in _dataclass_uses(path))
    assert found == []


# public functions that keep no reader under src/, and why each stays
_NO_SRC_READER = {
    # README documents it; demo 03 and the test fixtures solve from angles
    "solve_from_angles",
    # the cycle center that tests and demo 05 show to lie off the
    # four-center line; they compare against it as a reference
    "bisector_feet_center",
    # perfbench's tracer wraps it by name (`tracer.METHODS`) to count
    # side-line reads; `Frame` reads the `lines` triple directly
    "TriangleData.side_line",
}


# the public attributes of the builtin types: ``x.get`` or ``x.real`` may
# read the builtin's, so such a read does not count as a reader of ours
_BUILTIN_ATTRS = {name for cls in (dict, list, tuple, str, set, float, complex)
                  for name in dir(cls) if not name.startswith("_")}


def _names_used(node) -> set[str]:
    """Names that ``node`` reads, reads as an attribute (other than an
    attribute of a builtin type, see `_BUILTIN_ATTRS`) or imports."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used.add(n.id)
        elif isinstance(n, ast.Attribute) and n.attr not in _BUILTIN_ATTRS:
            used.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            used |= {a.name for a in n.names}
    return used


def _public_functions(tree):
    """(qualified name, definition, statements that are not its body) for
    each public module-level function, and each public method or property
    of a module-level class."""
    for node in tree.body:
        others = [stmt for stmt in tree.body if stmt is not node]
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, others
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield (f"{node.name}.{fn.name}", fn,
                           others + [stmt for stmt in node.body if stmt is not fn])


def test_every_public_function_has_a_src_reader():
    # a public function, method or property that no other module reads, and
    # its own module reads nowhere but in its own body, is unused code with
    # a test of its own; the package `__init__` only re-exports, so it is no
    # reader.  A method counts as read wherever its name is read as an
    # attribute, whatever the object, unless a builtin type has an
    # attribute of that name; such a method needs a `_NO_SRC_READER` entry.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    used = {name: _names_used(tree) for name, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        elsewhere = set().union(*(u for m, u in used.items() if m != module))
        for qualname, fn, others in _public_functions(tree):
            if (qualname not in _NO_SRC_READER and fn.name not in elsewhere
                    and not any(fn.name in _names_used(stmt) for stmt in others)):
                found.append(f"{module}: {qualname}")
    assert found == []


def _memo_builders() -> list[str]:
    """The names of the `centers` builders, the functions under ``@_memo``."""
    tree = ast.parse((SRC / "centers.py").read_text(encoding="utf-8"))
    return [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and any(_name(d) == "_memo" for d in fn.decorator_list)]


def test_builders_store_results_in_the_frame_dict():
    # a builder stores its result in the frame's instance dict under its own
    # name; a frame or context attribute of that name would be shadowed by
    # the result or shadow it, and a keyed `get` cache beside the instance
    # dict is a second caching scheme for one triangle
    builders = _memo_builders()
    assert "centroid" in builders and "pseudo_orthocenter" in builders
    ctx = registry.TrialContext(1, generate.gen_triangle(1))
    for cls in (centers.Frame, registry.TrialContext):
        assert not hasattr(cls, "get"), cls
        assert sorted(b for b in builders if hasattr(cls, b) or b in vars(ctx)) == [], cls
    centers.centroid(ctx)
    assert vars(ctx)["centroid"] is centers.centroid(ctx)


# the residual functions whose results are reduced with trig.worst_residual
_RESIDUAL_CALLS = {"_rel", "_prop", "relative_residual", "proportionality_residual",
                   "collinearity_residual"}


def _hand_reductions(path: Path):
    """Names ``worst`` assigned inside a function, and ``max`` calls that
    take a residual call, or a comprehension over one, as an argument."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for fn in ast.walk(tree):
        if isinstance(fn, _SCOPES):
            yield from ((n.lineno, "worst =") for n in ast.walk(fn)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                        and n.id == "worst")
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and _name(n.func) == "max" and any(
                isinstance(m, ast.Call) and _name(m.func) in _RESIDUAL_CALLS
                for arg in n.args for m in ast.walk(arg)):
            yield n.lineno, "max(...)"


def test_residual_parts_reduce_through_worst_residual():
    # `max` drops a NaN part unless it comes first, so a check made of
    # several parts reduces them with `trig.worst_residual`, which keeps it
    found = sorted({f"{name}:{line}: {what}" for name in ("registry.py", "centers.py")
                    for line, what in _hand_reductions(SRC / name)})
    assert found == []


# the helpers every center-coordinate check calls many times per seed, and
# those of the segment and angle tables, the cevian section ratios, the
# solve of a triangle from its vertices and the candidates of generation,
# written as straight-line code: a generator expression, comprehension or
# lambda in one of them builds a frame on every call
_STRAIGHT_LINE = {
    "plane.py": ("segment",),
    "trig.py": ("tri_coords", "proportionality_residual", "relative_residual",
                "worst_residual", "cevian_ratio", "solve_from_vertices", "defect",
                "_measure"),
    "centers.py": ("_memo.builder", "side_tol", "isogonal_conjugate"),
    "registry.py": ("run_identity", "_center_coords.ev", "_table_check.evaluate",
                    "_segment_residual", "_angle_residual"),
    "generate.py": ("_sampled_triangle", "_accept", "_surely_rejected"),
}
_FRAME_BUILDERS = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp, ast.Lambda)


def _function(tree, path: str):
    """The function at the dotted ``path`` of nested definitions."""
    scope = tree
    for name in path.split("."):
        scope = next(n for n in ast.iter_child_nodes(scope)
                     if isinstance(n, ast.FunctionDef) and n.name == name)
    return scope


def test_hot_helpers_build_no_frames():
    found = []
    for module, paths in _STRAIGHT_LINE.items():
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for path in paths:
            found += [f"{module}:{n.lineno} in {path}: {type(n).__name__}"
                      for n in ast.walk(_function(tree, path)) if isinstance(n, _FRAME_BUILDERS)]
    assert found == []


# the kernel functions every construction calls take their max-norm by
# compares (``m = x if x >= 0.0 else -x``, then ``if a > m: m = a``), and the
# metric ones clamp by compares (``0.0 if s < 0.0 else s``); the builtin
# calls ``max(abs(x), abs(y), abs(w))`` cost about three times as much
_COMPARE_NORMS = ("_maxnorm", "classify", "normalize", "normalize_line", "_mcross",
                  "perpendicular_bisector", "distance", "tangent_toward", "segment",
                  "tangent_angle")


def test_kernel_max_norms_call_no_builtin():
    tree = ast.parse((SRC / "plane.py").read_text(encoding="utf-8"))
    found = [f"plane.py:{n.lineno} in {path}: {_name(n.func)}(...)"
             for path in _COMPARE_NORMS for n in ast.walk(_function(tree, path))
             if isinstance(n, ast.Call) and _name(n.func) in ("abs", "max", "min")]
    assert found == []


# the same for the `centers` helpers of EU0/EU1 and MIN1/MIN1C; an ``abs``
# that is the returned value stays (`collinearity_residual`'s clears the
# sign bit of a NaN determinant, which a compare would not)
_CENTERS_COMPARE_NORMS = ("_grid_minimum", "collinearity_residual")


def test_center_helpers_call_no_builtin_norm():
    tree = ast.parse((SRC / "centers.py").read_text(encoding="utf-8"))
    found = []
    for path in _CENTERS_COMPARE_NORMS:
        fn = _function(tree, path)
        returned = {id(n.value) for n in ast.walk(fn) if isinstance(n, ast.Return)}
        found += [f"centers.py:{n.lineno} in {path}: {_name(n.func)}(...)"
                  for n in ast.walk(fn)
                  if isinstance(n, ast.Call) and _name(n.func) in ("abs", "max", "min")
                  and not (_name(n.func) == "abs" and id(n) in returned)]
    assert found == []


# what each sequence of a triangle's objects holds
_ELEMENT = {"vertices": "vertex", "lines": "line", "altitude_feet": "foot"}


def _role(node, roles) -> str | None:
    """What ``node`` is: a "vertex", a side "line", an altitude "foot", one
    of the sequences of `_ELEMENT`, or None.  A local name has the role that
    ``roles`` gives it."""
    if isinstance(node, ast.Name):
        return roles.get(node.id)
    if isinstance(node, ast.Attribute):
        return "vertex" if node.attr in ("A", "B", "C") else (
            node.attr if node.attr in _ELEMENT else None)
    if isinstance(node, ast.Subscript):
        return _ELEMENT.get(_role(node.value, roles))
    if isinstance(node, ast.Call):
        name = _name(node.func)
        if name == "side_line":
            return "line"
        if name == "foot_of_perpendicular":
            return "foot"
        if name == "normalize" and node.args:
            return _role(node.args[0], roles)
    return None


def _bind(target, role, roles):
    """Give ``target`` the role ``role``; a tuple target unpacks a sequence."""
    if isinstance(target, ast.Name) and role is not None:
        roles[target.id] = role
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _bind(elt, _ELEMENT.get(role), roles)


def _bind_loop(target, it, roles):
    """Give the target of ``for target in it`` its role, through
    ``enumerate`` and ``zip``."""
    func = _name(it.func) if isinstance(it, ast.Call) else None
    if func in ("enumerate", "zip") and isinstance(target, ast.Tuple):
        seqs = [None, *it.args[:1]] if func == "enumerate" else it.args
        for elt, seq in zip(target.elts, seqs):
            _bind(elt, _ELEMENT.get(_role(seq, roles)), roles)
    else:
        _bind(target, _ELEMENT.get(_role(it, roles)), roles)


def _scopes(node, prefix=""):
    """(qualified name, definition) of every function in ``node``, nested
    ones and methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from _scopes(child, f"{prefix}{child.name}.")
        else:
            yield from _scopes(child, prefix)


def _scope_nodes(scope):
    """The nodes of ``scope``'s own body: nested functions and classes are
    left out, lambdas and comprehensions are not."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _rebuilt_frame_objects(path: Path):
    """(function, line, callee) of each call in ``path`` that builds an
    altitude, its foot or its length, or a side midpoint: `perpendicular_line`
    or `foot_of_perpendicular` of a vertex and a side line, `midpoint` of two
    vertices, `distance` between a vertex and an altitude foot."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for qualname, fn in _scopes(tree):
        nodes = list(_scope_nodes(fn))
        roles = {}
        for _ in range(3):   # a name may be bound from one bound later in the walk
            for n in nodes:
                if isinstance(n, ast.Assign):
                    for target in n.targets:
                        if isinstance(target, ast.Tuple) and isinstance(n.value, ast.Tuple):
                            for elt, value in zip(target.elts, n.value.elts):
                                _bind(elt, _role(value, roles), roles)
                        else:
                            _bind(target, _role(n.value, roles), roles)
                elif isinstance(n, (ast.For, ast.comprehension)):
                    _bind_loop(n.target, n.iter, roles)
        for n in nodes:
            if not (isinstance(n, ast.Call) and len(n.args) >= 2):
                continue
            name = _name(n.func)
            pair = (_role(n.args[0], roles), _role(n.args[1], roles))
            if (name in ("perpendicular_line", "foot_of_perpendicular")
                    and pair == ("vertex", "line")
                    or name == "midpoint" and pair == ("vertex", "vertex")
                    or name == "distance" and set(pair) == {"vertex", "foot"}):
                yield qualname, n.lineno, name


def test_frame_builds_altitudes_and_midpoints():
    # `centers.Frame.__init__` builds each altitude, its foot and length, and
    # each side midpoint once per triangle; the same call anywhere else
    # builds one of them again.  The frame's own altitude and midpoint calls
    # are seen (its foot is a meet, which the rule does not follow)
    found = sorted(f"{path.name}:{line} in {qualname}: {name}(...)"
                   for path in sorted(SRC.glob("*.py"))
                   for qualname, line, name in _rebuilt_frame_objects(path)
                   if (path.name, qualname) != ("centers.py", "Frame.__init__"))
    assert found == []
    assert sorted(name for qualname, _, name in _rebuilt_frame_objects(SRC / "centers.py")
                  if qualname == "Frame.__init__") == ["midpoint", "perpendicular_line"]


def test_only_gen_triangle_builds_a_mersenne_twister():
    # every triangle, center table and drawing comes from the Mersenne
    # Twister `gen_triangle` seeds; an identity's auxiliary draws come from
    # a keyed `registry._Stream`, which costs about 0.7 µs to key where
    # seeding a `random.Random` from a string costs about 5 µs
    found = sorted((path.name, scope) for path in sorted(SRC.glob("*.py"))
                   for scope in _callers(path, "Random"))
    assert found == [("generate.py", "gen_triangle")]


def test_stored_attributes_take_no_lock():
    # a value built on first read is a `trig.stored_property`: on Python 3.11
    # `functools.cached_property` takes a lock on every first read, about
    # 470 ns against 190 ns
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if "cached_property" in _names_used(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
