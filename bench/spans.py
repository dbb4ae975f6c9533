"""In-memory span tracing of fedrank's layer functions, installed from outside.

A span records one call of a wrapped function: its name, start, end and the
span that was open when it began (its parent).  Spans stay in memory until
the run ends.  Wrappers are installed on every module attribute that holds
the wrapped function, so calls through any imported alias are seen, and on
the class for methods; ``traced`` puts every original back on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(name, self._clock(), 0.0, parent))
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = self._clock()
        return traced_call


def span_name(target: str) -> str:
    """``fedrank.nn:Supernetwork.from_seed`` -> ``nn.from_seed``."""
    module, _, path = target.partition(":")
    return f"{module.rsplit('.', 1)[-1]}.{path.rsplit('.', 1)[-1]}"


def _fedrank_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fedrank" or name.startswith("fedrank."))]


def install(tracer: Tracer, targets: list[str]) -> tuple[list[tuple], list[str]]:
    """Wrap each ``module:function`` or ``module:Class.method`` target.

    Returns the (owner, attribute, original) triples to restore and the
    names of targets that no longer exist.
    """
    saved: list[tuple] = []
    missing: list[str] = []
    for target in dict.fromkeys(targets):  # a repeated target is wrapped once
        name = span_name(target)
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                missing.append(name)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__))
            else:
                new = tracer.wrap(name, raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        for mod in _fedrank_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return saved, missing


def restore(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer, targets: list[str]):
    """Install the wrappers for the ``with`` block; yields the missing names."""
    saved, missing = install(tracer, targets)
    try:
        yield missing
    finally:
        restore(saved)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted((spans[c].start, spans[c].end) for c in children[i]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time)."""
    totals: dict[str, tuple[int, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        calls, total = totals.get(s.name, (0, 0.0))
        totals[s.name] = (calls + 1, total + own)
    return totals


def phase_totals(spans: list[Span], phase_of: dict[str, str]) -> dict[str, float]:
    """Wall time per phase, counting only spans with no phase-tagged ancestor,
    so phases never overlap and nested calls are not counted twice."""
    totals = {phase: 0.0 for phase in set(phase_of.values())}
    for s in spans:
        phase = phase_of.get(s.name)
        if phase is None:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in phase_of:
            p = spans[p].parent
        if p < 0:
            totals[phase] += s.end - s.start
    return totals
