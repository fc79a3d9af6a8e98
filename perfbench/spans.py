"""Spans around the program's layer boundaries, installed from outside.

`Tracer.wrap` replaces an attribute through which the program calls a layer
(a module-level name such as `hamlearn.harness.pgh`, or a method on a class)
with a wrapper that records a span: name, start, end, parent span and one
optional number measured at the same boundary (particles scored, bytes
written, integrand evaluations).  Spans stay in memory; `Tracer.dump`
writes them out when the run ends.

Worker processes forked by the program's pool inherit the wrappers.  A
worker drops the spans it inherited, and each time its outermost span
closes it appends its spans to a file in the spill directory, so the parent
can read the trials' spans after the pool has finished.  A wrapper whose
target cannot be found is recorded as missing; the run goes on without it.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional


def resolve(path: str):
    """(owner, attribute) for a target written as 'package.module:Name.attr'."""
    module_name, _, attribute_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = attribute_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not callable(getattr(owner, attribute, None)):
        raise AttributeError(f"{path} is not a callable attribute")
    return owner, attribute


class Tracer:
    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans: List[dict] = []
        self.stack: List[int] = []
        self.missing: Dict[str, str] = {}
        self._installed = []

    def _claim(self) -> None:
        # A forked worker starts with a copy of the parent's spans and open
        # stack; they belong to the parent, so the worker starts afresh.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.stack = [], []

    def wrap(self, target: str, name: str,
             measure: Optional[Callable] = None,
             adapt: Optional[Callable] = None) -> None:
        """Record a span named `name` around every call of `target`.

        `measure(args, kwargs, result)` returns the number stored with the
        span; `adapt(args, kwargs, span)` may replace the arguments before
        the call, for counting inside a callback.
        """
        try:
            owner, attribute = resolve(target)
        except (ImportError, AttributeError) as exc:
            self.missing[name] = f"{target}: {exc}"
            return
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._claim()
            span = {"name": name, "parent": tracer.stack[-1] if tracer.stack else None,
                    "pid": tracer.pid, "value": 0}
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer.stack.append(index)
            if adapt is not None:
                args, kwargs = adapt(args, kwargs, span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer.stack.pop()
            if measure is not None:
                span["value"] = measure(args, kwargs, result)
            if not tracer.stack and tracer.pid != tracer.main_pid:
                tracer._spill()
            return result

        setattr(owner, attribute, wrapper)
        self._installed.append((owner, attribute, original))

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans, self.stack = [], []

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def collect(self) -> List[List[dict]]:
        """Span groups: the parent's spans, then each worker batch."""
        groups = [self.spans]
        for entry in sorted(os.listdir(self.spill_dir)):
            with open(os.path.join(self.spill_dir, entry), encoding="utf-8") as handle:
                groups.extend(json.loads(line) for line in handle)
        return groups

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"missing": self.missing, "groups": self.collect(), **extra}, handle)


def layer_totals(groups: List[List[dict]]) -> Dict[str, dict]:
    """Per span name: calls, total and self seconds, summed values, durations.

    Self time is a span's duration minus the durations of its direct
    children; children run inside their parent on one thread, so they do
    not overlap.
    """
    totals: Dict[str, dict] = {}
    for spans in groups:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, children in zip(spans, child_time):
            entry = totals.setdefault(
                span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0, "durations": []}
            )
            duration = span["end"] - span["start"]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - children
            entry["value"] += span["value"]
            entry["durations"].append(duration)
    return totals


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0
