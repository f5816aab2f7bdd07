"""Span tracing from outside the program.

:class:`Tracer` replaces public functions of each ``repro`` layer with
wrappers that record one span (name, start, end, parent) per call, on the
process CPU clock, so a span's self time is CPU the process spent in that
layer and the self times of one process can never sum past its CPU time.
Each function is patched where its caller looks it up: a class attribute
for methods, and every ``repro`` module that binds a module-level function
by name.  :meth:`Tracer.restore` puts every original back.

Spans stay in memory in flat arrays; :meth:`Tracer.summary` folds them
into per-name self times when the run ends.  A worker process forked
while tracing is active inherits the wrappers: :meth:`traced_worker`
wraps the pool's worker entry point so that each worker starts from an
empty span table and writes its summary to a file when it exits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "layer_of", "merge_summaries"]

_MISSING = object()


def layer_of(span_name: str) -> str:
    """Span names are ``<layer>.<what>``; the layer is the ``repro`` package."""
    return span_name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset()

    # -- span table ------------------------------------------------------------------
    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            i = len(tracer.start)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.name_id.append(nid)
            tracer.end.append(-1.0)
            stack.append(i)
            tracer.start.append(time.process_time())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[i] = time.process_time()
                stack.pop()

        traced.__perfbench_original__ = fn
        return traced

    # -- patching --------------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it (plain, class- or
        static method)."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, name)))
        elif isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self.wrap(raw.__func__, name)))
        else:
            self._set(cls, attr, self.wrap(raw, name))

    def patch_function(self, fn: Callable, name: str) -> None:
        """Rebind module-level ``fn`` in every loaded ``repro`` module that
        holds it under its own name (its home module and every importer)."""
        wrapped = self.wrap(fn, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if mod.__dict__.get(fn.__name__) is fn:
                self._set(mod, fn.__name__, wrapped)

    def patch_raw(self, owner: Any, attr: str, value: Any) -> None:
        """Install a hand-made replacement, restored like any other patch."""
        self._set(owner, attr, value)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Per span name: calls and self seconds (duration minus the
        durations of the span's direct children)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        n = len(self.start)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        per_name: dict[str, dict[str, float]] = {}
        for i in range(n):
            entry = per_name.setdefault(self.names[self.name_id[i]], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s[i]
        return {"spans": n, "names": per_name}

    def dump_spans(self, path: Path) -> None:
        """Write the raw span table (name, start, end, parent) as JSON lines."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]
                    )
                    + "\n"
                )

    # -- forked workers --------------------------------------------------------------
    def traced_worker(self, worker_main: Callable, out_dir: Path) -> Callable:
        """Wrap a pool worker's entry point: empty span table at start,
        summary plus the worker's total CPU written to ``out_dir`` at exit."""
        tracer = self
        span = self.wrap(worker_main, "runtime.worker")

        @functools.wraps(worker_main)
        def worker(*args: Any, **kwargs: Any) -> Any:
            tracer.reset()
            try:
                return span(*args, **kwargs)
            finally:
                doc = tracer.summary()
                doc["cpu_s"] = time.process_time()
                path = Path(out_dir) / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(doc))

        worker.__perfbench_original__ = worker_main
        return worker


def merge_summaries(docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Add up per-name summaries from several processes."""
    out: dict[str, Any] = {"spans": 0, "names": {}, "cpu_s": 0.0}
    for doc in docs:
        out["spans"] += doc["spans"]
        out["cpu_s"] += doc.get("cpu_s", 0.0)
        for name, entry in doc["names"].items():
            acc = out["names"].setdefault(name, {"calls": 0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
    return out
