"""In-memory spans recorded by the benchmark around its calls into gradedproj.

A span has a name "<layer>.<call>", a start and end (perf_counter seconds), the
id of the span that was open when it started, and the id of the operation it
belongs to.  Spans are kept in a list and written out once, at the end of a
pass.  With tracing off, a span only records its name and duration (the
``bench.op`` roots are not timed at all).  Either way ``parts`` splits the
timed region into the same named pieces, which run.py aggregates over passes.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict


class _Step:
    __slots__ = ("steps", "name", "start")

    def __init__(self, steps: list, name: str):
        self.steps = steps
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.steps.append((self.name, time.perf_counter() - self.start))
        return False

    def set(self, **attrs):
        pass


class _Root:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_ROOT = _Root()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name, "attrs": attrs}

    def __enter__(self):
        tracer = self.tracer
        rec = self.record
        rec["parent"] = tracer._stack[-1] if tracer._stack else None
        rec["op"] = tracer._stack[0] if tracer._stack else rec["id"]
        tracer.spans.append(rec)
        tracer._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False

    def set(self, **attrs):
        self.record["attrs"].update(attrs)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._steps: list[tuple[str, float]] = []  # tracing off: (name, seconds) of each non-root span
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if self.enabled:
            return _Span(self, name, attrs)
        return _ROOT if name == "bench.op" else _Step(self._steps, name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def parts(self, wall_s: float) -> list[tuple[str, float]]:
        """The timed region as (name, seconds) pieces that add up to ``wall_s``.

        Traced, one piece per span in start order with its self time (its
        duration minus its direct children's); untraced, one per non-root
        span with its duration.  The last piece, "untraced", is the time
        outside them: outside every span when traced, outside the calls into
        gradedproj (so the benchmark's own work too) when not.
        """
        if self.enabled:
            child_s: dict[int, float] = defaultdict(float)
            for rec in self.spans:
                if rec["parent"] is not None:
                    child_s[rec["parent"]] += rec["end"] - rec["start"]
            pieces = [(rec["name"], rec["end"] - rec["start"] - child_s[rec["id"]]) for rec in self.spans]
            covered = sum(rec["end"] - rec["start"] for rec in self.spans if rec["parent"] is None)
        else:
            pieces = list(self._steps)
            covered = sum(secs for _, secs in pieces)
        return pieces + [("untraced", wall_s - covered)]


def span_cost_s(enabled: bool, n: int = 2000, repeats: int = 7) -> float:
    """Seconds one empty non-root span costs, less the loop around it.

    The minimum over ``repeats`` batches of ``n``: host contention only adds
    time, and the wrapper's own cost is what tracing adds to a pass.
    """
    best = math.inf
    for _ in range(repeats):
        tracer = Tracer(enabled)
        with tracer.span("bench.op"):
            t0 = time.perf_counter()
            for _ in range(n):
                with tracer.span("bench.probe"):
                    pass
            t1 = time.perf_counter()
            for _ in range(n):
                pass
            best = min(best, (t1 - t0) - (time.perf_counter() - t1))
    return best / n
