"""Spans taken from outside the program.

A :class:`Tracer` wraps public callables of the system under test (class
attributes and module-level functions) *before* the system is
constructed, and records one span per call: ``(name, start_ns, end_ns,
parent)``.  A span's **self time** is its duration minus the part its
child spans cover; sums of self times never count an interval twice, so
they can be set against the run's processor time.

Self times, call counts and caller-defined unit counts (bytes, records)
are aggregated per span name as spans close -- a long run yields
millions of spans -- and the first ``keep`` raw spans are kept in memory
and written out by :meth:`Tracer.dump` when the run ends.

Coroutine functions are traced one resumption at a time: each
``send``/``throw`` of the wrapped coroutine is a span, so the time a
coroutine spends suspended (waiting on a socket) is not charged to it,
and synchronous spans opened while it runs nest under it correctly even
though many tasks interleave on the loop.

With ``enabled`` false the wrappers call straight through; the traced
and untraced stretches of one run then differ only by the recording,
which is how the run prices the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``units(args, result) -> int`` -- e.g. the byte length of an argument.
Units = Callable[[tuple, Any], int]


class _TracedAwaitable:
    """Drives a coroutine, recording one span per resumption."""

    __slots__ = ("_coro", "_tracer", "_nid")

    def __init__(self, coro: Any, tracer: "Tracer", nid: int) -> None:
        self._coro = coro
        self._tracer = tracer
        self._nid = nid

    def __await__(self) -> "_TracedAwaitable":
        return self

    def __iter__(self) -> "_TracedAwaitable":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        if not tracer.enabled:
            return self._coro.send(value)
        frame = tracer.begin(self._nid)
        try:
            return self._coro.send(value)
        finally:
            tracer.end(frame)

    def throw(self, *exc: Any) -> Any:
        tracer = self._tracer
        if not tracer.enabled:
            return self._coro.throw(*exc)
        frame = tracer.begin(self._nid)
        try:
            return self._coro.throw(*exc)
        finally:
            tracer.end(frame)

    def close(self) -> None:
        self._coro.close()


class Tracer:
    """In-memory span recorder with per-name self-time aggregation."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        keep: int = 200_000,
    ) -> None:
        self.clock = clock
        self.keep = keep
        self.enabled = True
        self.names: List[str] = []
        self.calls: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        self.units: List[int] = []
        #: The first ``keep`` spans: (index, name id, start, end, parent).
        self.spans: List[Tuple[int, int, int, int, int]] = []
        self.span_count = 0
        self._ids: Dict[str, int] = {}
        # Open spans, innermost last: [name id, start, child ns, index].
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self.units.append(0)
        return nid

    def begin(self, nid: int) -> List[int]:
        frame = [nid, 0, 0, self.span_count]
        self.span_count += 1
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def end(self, frame: List[int]) -> None:
        end = self.clock()
        stack = self._stack
        # Spans close innermost-first within one thread of control; an
        # exception that unwinds through several wrappers still ends
        # each in order, so the frame is always on top.
        stack.pop()
        nid, start, child_ns, index = frame
        duration = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - child_ns
        parent = -1
        if stack:
            top = stack[-1]
            top[2] += duration
            parent = top[3]
        if index < self.keep:
            self.spans.append((index, nid, start, end, parent))

    # -- wrapping --------------------------------------------------------
    def _traced(self, func: Callable, name: str, units: Optional[Units]) -> Callable:
        nid = self.name_id(name)
        tracer = self
        begin, end = self.begin, self.end

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            def traced_async(*args: Any, **kwargs: Any) -> _TracedAwaitable:
                return _TracedAwaitable(func(*args, **kwargs), tracer, nid)

            traced_async._bench_traced = True
            return traced_async

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return func(*args, **kwargs)
            frame = begin(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                end(frame)
            if units is not None:
                tracer.units[nid] += units(args, result)
            return result

        traced._bench_traced = True
        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(
        self, cls: type, attr: str, name: str, units: Optional[Units] = None
    ) -> None:
        """Trace ``cls.attr`` (instances created later resolve to it)."""
        self._patch(cls, attr, self._traced(cls.__dict__[attr], name, units))

    def wrap_function(
        self,
        module: Any,
        attr: str,
        name: str,
        units: Optional[Units] = None,
        namespace: str = "repro",
    ) -> None:
        """Trace a module-level function in every module that bound it.

        ``from m import f`` copies the function object into the
        importer's namespace, so patching ``m.f`` alone misses those
        callers: every loaded ``namespace`` module holding the original
        object is patched.
        """
        original = getattr(module, attr)
        traced = self._traced(original, name, units)
        prefix = namespace + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == namespace or mod_name.startswith(prefix)
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def unwrap_all(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> int:
        return len(self._patches)

    # -- results ---------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, int]]:
        """``name -> {calls, total_ns, self_ns, units}`` of closed spans."""
        return {
            name: {
                "calls": self.calls[nid],
                "total_ns": self.total_ns[nid],
                "self_ns": self.self_ns[nid],
                "units": self.units[nid],
            }
            for nid, name in enumerate(self.names)
        }

    def dump(self, path: str) -> None:
        """Write the aggregates and the kept raw spans as one JSON file."""
        doc = {
            "span_count": self.span_count,
            "kept": len(self.spans),
            "names": self.names,
            "summary": self.summary(),
            "span_fields": ["index", "name", "start_ns", "end_ns", "parent"],
            "spans": sorted(self.spans),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
