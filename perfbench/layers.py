"""Span tracer and the layer wrappers of the traced benchmark run.

The traced run wraps the public functions at each layer boundary of
``repro`` (see README.md for the map) with a span recorder, runs the
workload, and removes every wrapper again.  Nothing under ``src/``
changes: functions are replaced in every loaded ``repro`` module that
holds them under some name, so a caller that imported a function by name
(``from repro.core.sampled import sampled_best_reply``) sees the wrapper
too; methods are replaced on the class that defines them.

A span's *inclusive* time is its wall duration; its *self* time is that
minus the time of wrapped spans directly nested inside it.  A span whose
name is already open on the stack (an agent ``handle`` calling its base
class's ``handle``) is not recorded again, so only the outermost call
counts.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class _Frame:
    name: str
    started: float
    child: float = 0.0


@dataclass
class SpanRecorder:
    """In-memory span totals: inclusive and self seconds, calls, counters."""

    inclusive: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_time: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[_Frame] = field(default_factory=list)

    def active(self, name: str) -> bool:
        return any(frame.name == name for frame in self._stack)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        frame = _Frame(name, perf_counter())
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - frame.started
            self._stack.pop()
            self.inclusive[name] += elapsed
            self.self_time[name] += elapsed - frame.child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1].child += elapsed


#: What a wrapper does with a call's result besides timing it:
#: ``observe(recorder, result)`` (counts such as sweeps or messages).
Observer = Callable[[SpanRecorder, Any], None]


@dataclass(frozen=True)
class Boundary:
    """One wrapped public name: ``module.attr`` or ``module.Class.attr``."""

    span: str
    module: str
    attr: str
    owner: str | None = None
    observe: Observer | None = None


def _wrap(recorder: SpanRecorder, boundary: Boundary, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if recorder.active(boundary.span):
            return original(*args, **kwargs)
        result = recorder.call(boundary.span, original, *args, **kwargs)
        if boundary.observe is not None:
            boundary.observe(recorder, result)
        return result

    return wrapper


class LayerTrace:
    """Installs the wrappers of a boundary list and restores the originals.

    ``install`` returns ``self`` so a traced block reads
    ``with LayerTrace(boundaries).install() as trace: ...``.
    """

    def __init__(self, boundaries: list[Boundary], recorder: SpanRecorder | None = None):
        self.boundaries = boundaries
        self.recorder = recorder if recorder is not None else SpanRecorder()
        #: (holder, attribute, original) for every replacement made.
        self.patched: list[tuple[Any, str, Any]] = []

    def install(self) -> "LayerTrace":
        for boundary in self.boundaries:
            module = sys.modules.get(boundary.module)
            if module is None:
                raise RuntimeError(f"{boundary.module} is not imported")
            if boundary.owner is not None:
                owner = getattr(module, boundary.owner)
                original = owner.__dict__[boundary.attr]
                self._replace(owner, boundary.attr, _wrap(self.recorder, boundary, original))
                continue
            original = getattr(module, boundary.attr)
            wrapper = _wrap(self.recorder, boundary, original)
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, attr, wrapper)
        return self

    def _replace(self, holder: Any, attr: str, value: Any) -> None:
        self.patched.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self.patched):
            setattr(holder, attr, original)

    def restored(self) -> bool:
        """Is every wrapped attribute the original object again?"""
        return all(
            holder.__dict__[attr] is original
            for holder, attr, original in self.patched
        )

    def __enter__(self) -> "LayerTrace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()
