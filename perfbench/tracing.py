"""In-memory span tracer for the traced benchmark run.

A span is recorded at every call of a public function of the traced
package, named ``<module>.<function>`` (``operators.assemble``,
``solver.picard_solve``, ...), plus one root span named ``case`` per
replayed case.  Spans carry start, end, parent and a case id shared by the
spans of one case; they stay in memory until ``write`` is called.  Times
are integer nanoseconds, so self times are exact.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time


def _duration_s(rec: dict) -> float:
    return (rec["end_ns"] - rec["start_ns"]) * 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._case: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "case": self._case,
               "parent": self._stack[-1] if self._stack else None,
               "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def case(self, case_id: str):
        self._case = str(case_id)
        try:
            with self.span("case"):
                yield
        finally:
            self._case = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self, package_name: str):
        """Route every public function of the package through a span.

        Each module's own public functions are wrapped, and every module of
        the package that holds a reference to one (including re-exports in
        the package namespace) is pointed at the wrapper.  Returns a
        function that restores the originals.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package_name or name.startswith(package_name + ".")]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        patched = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))

        def restore():
            for module, attr, obj in patched:
                setattr(module, attr, obj)
        return restore

    def self_times_s(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
        return [(rec["end_ns"] - rec["start_ns"] - child_ns[rec["id"]]) * 1e-9
                for rec in self.spans]

    def total_s(self, name: str, minus_child: str | None = None) -> float:
        """Summed duration of the spans called ``name``.

        With ``minus_child``, the time of their direct children of that
        name is left out.
        """
        ids = {rec["id"] for rec in self.spans if rec["name"] == name}
        total = sum(_duration_s(self.spans[i]) for i in ids)
        if minus_child is not None:
            total -= sum(_duration_s(rec) for rec in self.spans
                         if rec["name"] == minus_child and rec["parent"] in ids)
        return total

    def count(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec["name"] == name)

    def write(self, path) -> None:
        """Write the spans as JSON lines, with their self times."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec, self_s in zip(self.spans, self.self_times_s()):
                fh.write(json.dumps(dict(rec, self_s=self_s), sort_keys=True) + "\n")
