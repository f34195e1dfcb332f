"""Span tracer that wraps the public functions of the engine's modules.

The wrappers are installed from outside the package: every public
function, public method and hand-written constructor of the layer modules
is replaced by a wrapper, and every name it is reachable by is rebound,
including names bound by ``from ... import`` in sibling modules.  Without
that, ``cli`` would keep calling its own unwrapped ``fano_check`` and
``validate_fan``, and ``fanobundle`` its unwrapped ``is_fano``.

Spans are kept in memory (name, start, end, parent span, op id) and
written out at the end.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Engine modules, in dependency order; "_linalg" is reported as "linalg"
# because metric names start with a letter.
LAYERS = ("_linalg", "rootsys", "flagbase", "toricfiber", "fanobundle", "numcheck", "cli")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name_id, perf_counter(), 0.0, parent, self._op])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """The root span of one op; spans inside it carry its id."""
        self._op = op_id
        self.begin(self.name_id("harness.op"))
        try:
            yield
        finally:
            self.end()
            self._op = -1

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer, nid = self, self.name_id(name)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if hook is not None:
                hook(tracer.counters, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                self._set(cls, attr, self._wrap(f"{layer}.{cls.__name__}", value))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(f"{layer}.{attr}", value))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self._wrap(f"{layer}.{attr}", value.__func__)
                self._set(cls, attr, type(value)(wrapped))

    def install(self) -> None:
        """Wrap the layer modules of fanotoric; see uninstall."""
        wrappers: dict[int, tuple[object, object]] = {}
        for short in LAYERS:
            mod = importlib.import_module(f"fanotoric.{short}")
            layer = short.lstrip("_")
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    self._wrap_class(layer, value)
        for modname, mod in list(sys.modules.items()):
            if modname != "fanotoric" and not modname.startswith("fanotoric."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one CSV line: name,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(f"{self.names[nid]},{start!r},{end!r},{parent},{op}\n")

    def absorb(self, spans: list[list], counters: dict, op_id: int, root: int) -> None:
        """Adopt spans recorded by a child process under the root span given."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append(
                [self.name_id(name), start, end, root if parent < 0 else base + parent, op_id]
            )
        for key, value in counters.items():
            self.counters[key] += value


def _count_margins(counters, entries) -> None:
    counters["fanobundle.margin_entries"] += len(entries)
    counters["fanobundle.zero_margins"] += sum(1 for e in entries if e.value == 0)


def _count_shown(counters, report) -> None:
    counters["fanobundle.entries_shown"] += len(report["margins"])


# Counts taken from return values at the layer boundary.
_HOOKS = {
    "fanobundle.fano_margins": _count_margins,
    "cli.cmd_check": _count_shown,
}


def summarize(tracer: Tracer, scale: dict | None = None) -> dict:
    """Per-name calls and self/total seconds; per-layer self seconds.

    Spans recorded outside an op (op id -1) are left out; the times of an
    op's spans are multiplied by scale[op id] when given.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    by_layer: dict[str, float] = defaultdict(float)
    for i, (nid, start, end, parent, op) in enumerate(spans):
        if op < 0:
            continue
        name = tracer.names[nid]
        factor = scale[op] if scale else 1.0
        own = ((end - start) - covered[i]) * factor
        row = by_name[name]
        row[0] += 1
        row[1] += own
        row[2] += (end - start) * factor
        by_layer[layer_of(name)] += own
    return {"names": dict(by_name), "layers": dict(by_layer)}
