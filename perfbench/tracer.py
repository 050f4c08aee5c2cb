"""Span tracer that times calls into the hypertri modules from outside.

`Tracer.installed()` rebinds every wrapped function in every loaded
``hypertri.*`` module namespace (callers mostly import names directly, as in
``from .plane import normalize``, so patching one module attribute would miss
most calls) and a few named methods on their classes.  Leaving the block
restores every original binding.

Each span records its name, start, end, parent span and op id; the op id is
shared by every span of one seed or triangle.  Spans are kept in flat arrays
(about 27 bytes each) and written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("extscalar", "plane", "trig", "centers", "generate", "registry", "cli")

# Leaf arithmetic whose whole cost is about that of one wrapper call; their
# time stays in the caller's self time.
UNWRAPPED = frozenset({"plane.mdot", "plane.qform"})

# (module, class, method, span name): methods timed on their classes.
METHODS = (
    ("trig", "TriangleData", "side_line", "trig.side_line"),
    ("centers", "Frame", "__init__", "centers.Frame"),
    ("registry", "TrialContext", "__init__", "registry.TrialContext"),
    ("registry", "TrialReport", "to_jsonl", "registry.to_jsonl"),
)

MARK = "__perfbench_span__"


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self, max_spans: int = 1_000_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.err = array("H")   # name id of the exception class, 0 for none
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._id("")            # id 0 means "no error"

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self):
        return len(self.name)

    @property
    def full(self) -> bool:
        return len(self.name) >= self.max_spans

    def wrap(self, fn, name: str, name_from_arg: bool = False, op_from_arg: bool = False):
        """Wrapper that records one span per call of ``fn``.

        ``name_from_arg`` appends the first argument to the span name;
        ``op_from_arg`` makes the call an op boundary whose op id is the
        first element of its first argument (the seed of a verify job).
        """
        fixed = self._id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, errs = self.start, self.end, self.err
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(names)
            names.append(self._id(f"{name}.{args[0]}") if name_from_arg else fixed)
            parents.append(stack[-1] if stack else -1)
            if op_from_arg:
                self.op_id = args[0][0]
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            errs.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                errs[i] = self._id(type(e).__name__)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                if op_from_arg:
                    self.op_id = -1

        setattr(span, MARK, fn)
        return span

    # -- patching ----------------------------------------------------------
    def _targets(self):
        """(original, wrapper) pairs for every traced function and method."""
        pairs = []
        for layer in LAYERS:
            mod = importlib.import_module(f"hypertri.{layer}")
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or f"{layer}.{attr}" in UNWRAPPED):
                    continue
                if attr == "run_identity":   # one span name per identity: registry.<ID>
                    pairs.append((fn, self.wrap(fn, "registry", name_from_arg=True)))
                else:
                    pairs.append((fn, self.wrap(fn, f"{layer}.{attr}")))
        cli = importlib.import_module("hypertri.cli")
        pairs.append((cli._verify_worker,
                      self.wrap(cli._verify_worker, "cli.verify_worker", op_from_arg=True)))
        return pairs

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): w for fn, w in self._targets()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hypertri" or modname.startswith("hypertri.")):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    setattr(mod, attr, w)
                    self._patches.append((mod, attr, val))
        for layer, cls_name, meth, span_name in METHODS:
            cls = getattr(importlib.import_module(f"hypertri.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(orig, span_name))
            self._patches.append((cls, meth, orig))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- output ------------------------------------------------------------
    def write(self, path: str):
        """Gzip file: one JSON header line, then the raw arrays in header order."""
        fields = ("name", "parent", "op", "start", "end", "err")
        header = {
            "names": self.names,
            "count": len(self.name),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


def wrapped_bindings() -> list[str]:
    """Every hypertri binding that is currently a tracer wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "hypertri" or modname.startswith("hypertri.")):
            continue
        for attr, val in vars(mod).items():
            if hasattr(val, MARK):
                found.append(f"{modname}.{attr}")
            elif inspect.isclass(val) and val.__module__ == modname:
                found += [f"{modname}.{attr}.{m}" for m, f in vars(val).items()
                          if hasattr(f, MARK)]
    return found


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the summed durations of its direct children.

    Spans are numbered in start order, so a parent precedes its children.
    Calls are nested on one thread, so children never overlap.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def aggregate(tr: Tracer, under: dict[str, str]) -> dict:
    """Per-name call counts, inclusive and self seconds, error counts, and for
    each ``child -> ancestor`` pair in ``under`` the count of child spans that
    sit anywhere below an ancestor span."""
    names = tr.names
    own = self_times(tr.parent, tr.start, tr.end)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    selft: dict[str, float] = {}
    errors: dict[str, dict[str, int]] = {}
    wanted = set(under.values())
    inside = {a: array("b", bytes(len(tr.name))) for a in wanted}
    nested = {c: 0 for c in under}
    for i, nid in enumerate(tr.name):
        n = names[nid]
        calls[n] = calls.get(n, 0) + 1
        incl[n] = incl.get(n, 0.0) + (tr.end[i] - tr.start[i])
        selft[n] = selft.get(n, 0.0) + own[i]
        if tr.err[i]:
            e = errors.setdefault(n, {})
            e[names[tr.err[i]]] = e.get(names[tr.err[i]], 0) + 1
        p = tr.parent[i]
        for a, flags in inside.items():
            if p >= 0 and (flags[p] or names[tr.name[p]] == a):
                flags[i] = 1
        anc = under.get(n)
        if anc is not None and inside[anc][i]:
            nested[n] += 1
    ops = {o for o in tr.op if o >= 0}
    return {"calls": calls, "incl": incl, "self": selft, "errors": errors,
            "nested": nested, "ops": len(ops)}
