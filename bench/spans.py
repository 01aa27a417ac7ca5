"""In-memory span tracer wrapped around the public functions of `qasa`.

`Tracer.install()` replaces every public function of the traced modules,
in every `qasa` module namespace that binds it, with a wrapper that
records one span per call: name, start, end and parent.  Calls between
modules (cli -> data_io, fit_chip -> fit_qubit, ...) therefore nest.  The
program itself is not edited; `uninstall()` puts the originals back.
Spans stay in memory until `dump()` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "qasa"
TRACED_MODULES = ("model", "simulator", "estimator", "data_io", "analysis", "topology", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent]
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    # -- spans -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    # -- patching --------------------------------------------------------
    def install(self):
        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        namespaces = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])
                    self._patched.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[sid] for sid, _, start, end, _ in self.spans]

    def totals_under(self, root):
        """{name: [inclusive seconds, self seconds, calls]} summed over the
        spans below span `root` (no traced function calls itself)."""
        selfs = self.self_times()
        inside = {root}
        totals = defaultdict(lambda: [0.0, 0.0, 0])
        # children are recorded after their parent, so one forward scan suffices
        for sid, name, start, end, parent in self.spans[root + 1:]:
            if parent in inside:
                inside.add(sid)
                t = totals[name]
                t[0] += end - start
                t[1] += selfs[sid]
                t[2] += 1
        return dict(totals)

    def dump(self, path):
        selfs = self.self_times()
        rows = [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "self": s}
            for (sid, name, start, end, parent), s in zip(self.spans, selfs)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
            fh.write("\n")
