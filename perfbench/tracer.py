"""In-process span tracer that wraps the package's layer functions.

``Tracer.install`` replaces every public function and public method
defined in each layer module with a wrapper that records a span (name,
parent span, start, end).  Modules that imported a wrapped function by
name get the wrapper too, so calls across layers are seen.  The package
itself is not modified on disk; ``uninstall`` restores the originals.
Spans stay in memory and are aggregated or written out after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

LAYERS = (
    "data",
    "basis",
    "embedding",
    "metric",
    "kernel",
    "bayes",
    "baselines",
    "scores",
    "pipeline",
    "cli",
)

# Private entry points worth a span: one call is one (region, lead) task.
TASKS = {"pipeline": {"_train_one": "pipeline.task.train", "_forecast_one": "pipeline.task.forecast"}}


def _pairs(targets, comparisons, *_args, **_kwargs) -> int:
    """Distance pairs in one matrix call: n_targets x n_candidates."""
    return len(targets) * len(comparisons)


# Work counters recorded with a span, by span name.
WORK = {
    "metric.procrustes_distances": _pairs,
    "metric.euclidean_distances": _pairs,
}


class Tracer:
    def __init__(self, package: str = "analogcast"):
        self.package = package
        self.names: list[str] = []
        # One tuple per span: (name id, parent span index or -1, t0, t1, work).
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work_fn = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                work = work_fn(*args, **kwargs) if work_fn is not None else 0
                spans[idx] = (name_id, parent, t0, t1, work)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{self.package}.{m}") for m in LAYERS}
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                task = TASKS.get(layer, {}).get(attr)
                if inspect.isfunction(obj) and (task or not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(obj, task or f"{layer}.{attr}")
                    self._set(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    self._wrap_methods(obj, f"{layer}.{attr}")
        # Re-point names that other modules imported with ``from .x import f``,
        # and functions held in module-level tables such as the CLI's stage map.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped and obj is not wrapped[id(obj)]:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if isinstance(val, tuple) and any(id(v) in wrapped for v in val):
                            self._restore.append((obj, key, val))
                            obj[key] = tuple(wrapped.get(id(v), v) for v in val)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, f"{prefix}.{attr}")))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, f"{prefix}.{attr}")))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, f"{prefix}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @staticmethod
    def span_cost_s(calls: int = 100_000) -> float:
        """Seconds one span adds to a call: a wrapped no-op function timed
        against the bare one, best of three rounds."""
        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "calibration")
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
        return max(best, 0.0)

    # --- aggregation ---------------------------------------------------------

    def finished(self) -> list[tuple]:
        if self._stack:
            raise RuntimeError("spans still open")
        return self.spans

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.finished())

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,name,t0,t1,work\n")
            for i, (nid, parent, t0, t1, work) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.names[nid]},{t0!r},{t1!r},{work}\n")


class SpanSummary:
    """Per-name call counts, inclusive and self times over a list of spans."""

    def __init__(self, names: list[str], spans: list[tuple]):
        self.spans = spans
        self.span_names = [names[s[0]] for s in spans]
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(self.span_names):
            self.by_name.setdefault(name, []).append(i)
        child = [0.0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_s = [t1 - t0 - c for (_, _, t0, t1, _), c in zip(spans, child)]

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [self.spans[i][3] - self.spans[i][2] for i in self.by_name.get(name, ())]

    def work(self, name: str) -> int:
        return sum(self.spans[i][4] for i in self.by_name.get(name, ()))

    def total_s(self, *names: str) -> float:
        """Inclusive time of the named spans, counting only the outermost
        span when one of them runs inside another."""
        wanted = set(names)
        total = 0.0
        for name in wanted:
            for i in self.by_name.get(name, ()):
                parent = self.spans[i][1]
                while parent >= 0 and self.span_names[parent] not in wanted:
                    parent = self.spans[parent][1]
                if parent < 0:
                    total += self.spans[i][3] - self.spans[i][2]
        return total

    def self_total(self, *names: str) -> float:
        return sum(self.self_s[i] for name in set(names) for i in self.by_name.get(name, ()))

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            self.self_total(name) for name in self.by_name if name.startswith(prefix)
        )

    def children(self, parent_name: str, *child_names: str) -> tuple[int, int]:
        """(spans named in ``child_names`` directly under a ``parent_name``
        span, ``parent_name`` spans that have at least one of them)."""
        parents = [
            self.spans[i][1]
            for name in set(child_names)
            for i in self.by_name.get(name, ())
            if self.spans[i][1] >= 0 and self.span_names[self.spans[i][1]] == parent_name
        ]
        return len(parents), len(set(parents))
