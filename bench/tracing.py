"""In-memory span tracing by wrapping library functions at run time.

A span is one call of a wrapped function: its name, the span that was open
when it started (its parent), and its start and end times. Spans live in flat
``array.array`` columns, 24 bytes each, so a million spans stay small. A
target may also sum a work count over its calls (rows for a forward pass). Nothing is written out;
``summary`` reduces the columns to per-name totals.

``install`` replaces a function everywhere the library holds a reference to
it: the defining module, every module that imported it by name, class
attributes, and default argument values. A target that no longer exists is
reported in ``absent`` and otherwise ignored.
"""

import importlib
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

PACKAGE = "gaitbridge"


@dataclass(frozen=True)
class Target:
    span: str            # span name the calls are recorded under
    where: str           # "module:Qualified.name"
    rows: object = None  # optional fn(args) -> work count of one call


def _resolve(where):
    module_name, _, qualname = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None, None, None
    return owner, attr, fn


def _library_namespaces():
    """Module and class dicts, and functions, of the traced package."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    classes, functions = [], []
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                classes.append(value)
                functions.extend(v for v in vars(value).values()
                                 if hasattr(v, "__defaults__"))
            elif hasattr(value, "__defaults__"):
                functions.append(value)
    return modules, classes, functions


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self._ids = {name: i for i, name in enumerate(dict.fromkeys(t.span for t in self.targets))}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = [0] * len(self._ids)  # summed work counts, per name
        self._stack = [-1]
        self._undo = []
        self.absent = []

    def _wrap(self, target, fn):
        nid = self._ids[target.span]
        rows_of = target.rows
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, rows = self.start, self.end, self.rows
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            if rows_of is not None:
                rows[nid] += rows_of(args)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _replace_everywhere(self, fn, wrapper):
        modules, classes, functions = _library_namespaces()
        for namespace_owner in modules + classes:
            for key, value in list(vars(namespace_owner).items()):
                if value is fn:
                    setattr(namespace_owner, key, wrapper)
                    self._undo.append(lambda o=namespace_owner, k=key: setattr(o, k, fn))
        for func in functions:
            defaults = func.__defaults__
            if defaults and any(d is fn for d in defaults):
                func.__defaults__ = tuple(wrapper if d is fn else d for d in defaults)
                self._undo.append(lambda f=func, d=defaults: setattr(f, "__defaults__", d))
            kwdefaults = getattr(func, "__kwdefaults__", None)
            if kwdefaults and any(d is fn for d in kwdefaults.values()):
                func.__kwdefaults__ = {k: wrapper if d is fn else d
                                       for k, d in kwdefaults.items()}
                self._undo.append(lambda f=func, d=kwdefaults: setattr(f, "__kwdefaults__", d))

    def install(self):
        self.absent = []
        for target in self.targets:
            owner, attr, fn = _resolve(target.where)
            if fn is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append(lambda o=owner, a=attr, f=fn: setattr(o, a, f))
            else:
                self._replace_everywhere(fn, wrapper)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def summary(self):
        """Per span name: calls, rows, inclusive and self seconds, durations."""
        ids = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(ids.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = {}
        for name, nid in self._ids.items():
            mask = ids == nid
            out[name] = {
                "calls": int(mask.sum()),
                "rows": self.rows[nid] if self.rows[nid] else int(mask.sum()),
                "seconds": float(dur[mask].sum()),
                "self_seconds": float(own[mask].sum()),
                "durations": dur[mask],
            }
        return out
