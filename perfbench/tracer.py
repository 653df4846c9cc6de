"""Per-layer tracing installed from outside the library.

A Tracer replaces public functions at the module or class attribute their
callers look them up through (``aqldb.engine.is_visible``,
``aqldb.engine.Replica.commit``, ...) with wrappers that record one span per
call: name, start, end, parent span and request id. Spans stay in memory in
flat arrays and are written out once at the end. ``uninstall`` restores every
attribute, so nothing under ``src/`` knows about timing.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.requests: list[str] = []
        self._request_index: dict[str, int] = {}
        self.request = -1
        # One entry per span, in start order; parents precede their children.
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_id = array("i")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # ---- recording

    def set_request(self, label: str) -> None:
        """Tag the spans that follow with a request id (a txid or fuzz seed)."""
        index = self._request_index.get(label)
        if index is None:
            index = self._request_index[label] = len(self.requests)
            self.requests.append(label)
        self.request = index

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        before(args) runs ahead of the call and its return value is passed to
        after(args, token, result, error), which runs when the call returns or
        raises. Both are optional; the hook-free wrapper is the cheap one.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._intern(name)
        ids, starts, ends = self.name_id, self.start, self.end
        parents, reqs, stack = self.parent, self.request_id, self._stack
        clock = time.perf_counter
        tracer = self

        if before is None and after is None:
            def wrapper(*args, **kwargs):
                idx = len(starts)
                ids.append(nid)
                parents.append(stack[-1] if stack else -1)
                reqs.append(tracer.request)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return original(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
        else:
            def wrapper(*args, **kwargs):
                token = before(args) if before is not None else None
                idx = len(starts)
                ids.append(nid)
                parents.append(stack[-1] if stack else -1)
                reqs.append(tracer.request)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                result = error = None
                try:
                    result = original(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    ends[idx] = clock()
                    stack.pop()
                    if after is not None:
                        after(args, token, result, error)

        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ---- output

    def write(self, path: Path) -> None:
        """Write every span as gzip-compressed CSV, times relative to start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,request\n")
            for i in range(len(self.start)):
                req = self.request_id[i]
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - self.origin:.9f},{self.end[i] - self.origin:.9f},"
                    f"{self.parent[i]},{self.requests[req] if req >= 0 else ''}\n"
                )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans are listed in start order, so a parent precedes its children and a
    parent's children appear in start order. Overlapping children are
    counted once and clipped to the parent's interval.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # furthest end among children seen so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if ends[i] > reach[p]:
            reach[p] = ends[i]
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def nearest(name_ids, parents, target: int) -> list[int]:
    """For every span, the index of the closest enclosing span (itself
    included) whose name id is target, or -1."""
    out = [-1] * len(name_ids)
    for i in range(len(name_ids)):
        if name_ids[i] == target:
            out[i] = i
        elif parents[i] >= 0:
            out[i] = out[parents[i]]
    return out


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and summed self time."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out = {name: {"calls": 0, "self_s": 0.0} for name in tracer.names}
    for i, nid in enumerate(tracer.name_id):
        entry = out[tracer.names[nid]]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
    return out


def outer_total(tracer: Tracer, name: str) -> float:
    """Summed duration of the name's outermost spans, so that a call nested
    in another call of the same name is not counted twice."""
    if name not in tracer._name_index:
        return 0.0
    outer = nearest(tracer.name_id, tracer.parent, tracer._name_index[name])
    parents = tracer.parent
    return sum(
        tracer.end[i] - tracer.start[i]
        for i in range(len(outer))
        if outer[i] == i and (parents[i] < 0 or outer[parents[i]] < 0)
    )


def calls_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """How many spans called name have a span called ancestor around them."""
    if name not in tracer._name_index or ancestor not in tracer._name_index:
        return 0
    nid = tracer._name_index[name]
    under = nearest(tracer.name_id, tracer.parent, tracer._name_index[ancestor])
    return sum(1 for i in range(len(under)) if tracer.name_id[i] == nid and under[i] >= 0)
