"""A call tracer that times calls into the simulator's layers from outside.

The traced mode of the benchmark wraps named functions of ``repro`` --
module functions and class attributes -- and records one span per call:
name, start, end, parent span and group.  A group is one simulated op or
one replayed unit: every span opened inside it shares its identifier.

Functions are wrapped where their callers look them up.  A class method is
replaced on the class that defines it; a module function is replaced in
every loaded module that holds it under some name, because
``from module import name`` copies the reference (``repro.store.reader``
imports ``run_from_payload`` that way, ``repro.core.runner`` imports
``build_stack``).  Modules should therefore be imported before
:meth:`CallTracer.install`, and every replaced attribute is put back by
:meth:`CallTracer.uninstall`.

Spans are aggregated per function and per scope as they close.  The scope is
``measured`` inside a measured root (a wrapped function flagged as such, or
the :meth:`CallTracer.measuring` context) and ``setup`` everywhere else.
Only the last ``ring_capacity`` raw spans are kept, and :meth:`write` dumps
them with the aggregates when the run ends.  Times are integer nanoseconds
from ``time.perf_counter_ns``, so a span's self time -- its duration minus
its traced children's -- is exact and never negative.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import itertools
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

RING_CAPACITY = 65536

#: Module functions are replaced in every loaded module of this package.
MODULE_PACKAGE = "repro"

# Indices into a function's aggregate list: one quadruple per scope.
MEASURED, SETUP = 0, 4
CALLS, SELF_NS, TOTAL_NS, ERRORS = 0, 1, 2, 3

# Indices into the tracer's shared mutable state: the current scope (an
# aggregate offset), the current group and the last group handed out.
_SCOPE, _GROUP, _LAST_GROUP = 0, 1, 2


class TracedFunction:
    """One wrapped function: identity, aggregates and measured durations."""

    __slots__ = ("fid", "name", "layer", "aggregate", "durations")

    def __init__(self, fid: int, name: str, layer: str) -> None:
        self.fid = fid
        self.name = name
        self.layer = layer
        #: ``[calls, self_ns, total_ns, errors]`` for the measured scope,
        #: then for set-up.
        self.aggregate = [0] * 8
        #: Inclusive duration of every measured call, in nanoseconds.
        self.durations = array("q")

    def calls(self, scope: int = MEASURED) -> int:
        return self.aggregate[scope + CALLS]

    def self_ns(self, scope: int = MEASURED) -> int:
        return self.aggregate[scope + SELF_NS]

    def total_ns(self, scope: int = MEASURED) -> int:
        return self.aggregate[scope + TOTAL_NS]

    def errors(self, scope: int = MEASURED) -> int:
        return self.aggregate[scope + ERRORS]


class CallTracer:
    """Wraps functions, aggregates their spans and restores them on exit.

    Use as a context manager, or call :meth:`install` and :meth:`uninstall`.
    Register functions with :meth:`wrap` before installing.
    """

    def __init__(self, ring_capacity: int = RING_CAPACITY) -> None:
        self.functions: List[TracedFunction] = []
        self.missing: List[str] = []
        self.ring: collections.deque = collections.deque(maxlen=ring_capacity)
        self._pending: List[Tuple[Any, str, Callable[[Callable], Any]]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._state = [SETUP, 0, 0]
        self._span_ids = itertools.count(1)
        self._root = [0, 0]
        self._stack: List[List[int]] = [self._root]
        self.window_start_ns = 0
        self.window_ns = 0
        self.installed = False

    # ------------------------------------------------------------ registration
    def wrap(
        self,
        layer: str,
        owner: Any,
        attr: str,
        *,
        measured_root: bool = False,
        opens_group: bool = False,
        closes_group: bool = False,
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> Optional[TracedFunction]:
        """Register ``owner.attr`` (a class or a module) for wrapping.

        ``measured_root`` puts the call and everything below it in the
        measured scope.  ``opens_group`` starts a new group at entry;
        ``closes_group`` ends the current group at exit.  ``on_return`` sees
        every return value.  A missing attribute or a generator function is
        recorded in :attr:`missing` and skipped; the benchmark counts the
        traced units of a run with missing functions as failed.
        """
        if self.installed:
            raise RuntimeError("register functions before install()")
        namespace = owner.__dict__
        raw = namespace.get(attr)
        kind = None
        if isinstance(raw, (classmethod, staticmethod)):
            kind, raw = type(raw), raw.__func__
        if inspect.isclass(owner):
            name = f"{owner.__module__}.{owner.__qualname__}.{attr}"
        else:
            name = f"{owner.__name__}.{attr}"
        if not inspect.isfunction(raw) or inspect.isgeneratorfunction(raw):
            self.missing.append(name)
            return None
        function = TracedFunction(len(self.functions), name, layer)
        self.functions.append(function)
        wrapper = functools.update_wrapper(
            self._make_wrapper(raw, function, measured_root, opens_group, closes_group, on_return),
            raw,
        )
        replacement = kind(wrapper) if kind is not None else wrapper
        if inspect.isclass(owner):
            self._pending.append((owner, attr, replacement))
            return function
        for module_name, module in list(sys.modules.items()):
            if module is not None and module_name.split(".")[0] == MODULE_PACKAGE:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._pending.append((module, key, replacement))
        return function

    def _make_wrapper(
        self,
        fn: Callable,
        function: TracedFunction,
        measured_root: bool,
        opens_group: bool,
        closes_group: bool,
        on_return: Optional[Callable[[Any], None]],
    ) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        push = stack.append
        pop = stack.pop
        state = self._state
        next_span = self._span_ids.__next__
        ring_append = self.ring.append
        aggregate = function.aggregate
        durations_append = function.durations.append
        fid = function.fid

        # Every wrapped call pays for these lines; whatever runs outside
        # [start, end] is charged to the caller's self time (about a
        # microsecond per call on a 2 GHz Xeon VM).
        def traced(*args, **kwargs):
            if measured_root:
                previous = state[_SCOPE]
                state[_SCOPE] = MEASURED
            scope = state[_SCOPE]
            if opens_group:
                state[_LAST_GROUP] += 1
                state[_GROUP] = state[_LAST_GROUP]
            parent = stack[-1]
            frame = [0, next_span()]
            group = state[_GROUP]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                aggregate[scope + ERRORS] += 1
                raise
            finally:
                end = clock()
                pop()
                elapsed = end - start
                own = elapsed - frame[0]
                parent[0] += elapsed
                aggregate[scope + CALLS] += 1
                aggregate[scope + SELF_NS] += own
                aggregate[scope + TOTAL_NS] += elapsed
                if scope == MEASURED:
                    durations_append(elapsed)
                ring_append((frame[1], parent[1], group, fid, start, end, own))
                if closes_group:
                    state[_GROUP] = 0
                if measured_root:
                    state[_SCOPE] = previous
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # ------------------------------------------------------------- lifecycle
    def install(self) -> "CallTracer":
        """Replace every registered function and open the root span."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, replacement in self._pending:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        self.installed = True
        self.window_start_ns = time.perf_counter_ns()
        return self

    def uninstall(self) -> None:
        """Put every original back and close the root span."""
        if not self.installed:
            return
        self.window_ns = time.perf_counter_ns() - self.window_start_ns
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    def __enter__(self) -> "CallTracer":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def measuring(self) -> Iterator[None]:
        """Count every span opened inside the block in the measured scope."""
        previous = self._state[_SCOPE]
        self._state[_SCOPE] = MEASURED
        try:
            yield
        finally:
            self._state[_SCOPE] = previous

    # ------------------------------------------------------------- results
    @property
    def root_self_ns(self) -> int:
        """Window time spent outside every traced call."""
        return self.window_ns - self._root[0]

    def total_self_ns(self) -> int:
        """Self time of every span in both scopes, root included.

        Equals :attr:`window_ns` exactly: each span's duration is charged
        once to itself and once, as a child, to its parent.
        """
        return self.root_self_ns + sum(
            function.self_ns(MEASURED) + function.self_ns(SETUP) for function in self.functions
        )

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the aggregates, then the ring of raw spans, as JSON lines."""
        with open(path, "w") as handle:
            header = {
                "kind": "window",
                "window_ns": self.window_ns,
                "root_self_ns": self.root_self_ns,
                "ring_spans": len(self.ring),
                "spans": sum(function.calls(MEASURED) + function.calls(SETUP) for function in self.functions),
                "missing": self.missing,
            }
            header.update(extra or {})
            handle.write(json.dumps(header) + "\n")
            for function in self.functions:
                record = {"kind": "function", "name": function.name, "layer": function.layer}
                for label, scope in (("measured", MEASURED), ("setup", SETUP)):
                    record[label] = {
                        "calls": function.calls(scope),
                        "self_ns": function.self_ns(scope),
                        "total_ns": function.total_ns(scope),
                        "errors": function.errors(scope),
                    }
                handle.write(json.dumps(record) + "\n")
            for span, parent, group, fid, start, end, own in self.ring:
                handle.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": span,
                            "parent": parent,
                            "group": group,
                            "name": self.functions[fid].name,
                            "start_ns": start - self.window_start_ns,
                            "end_ns": end - self.window_start_ns,
                            "self_ns": own,
                        }
                    )
                    + "\n"
                )


def percentile(sorted_values: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0
    # ceil(fraction * n) in integer arithmetic, so 0.99 * 100 ranks 99, not 100.
    permille = round(fraction * 1000)
    rank = -(-permille * len(sorted_values) // 1000)
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]
