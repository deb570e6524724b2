"""Timing shims installed from outside ``repro``, for the traced rep only.

A span is ``(id, layer, name, start, end, parent)``.  Synchronous calls
nest through a per-thread stack, so a layer's self time is its spans'
durations minus what their child spans cover.  Coroutines are recorded as
wall durations in a separate list and are never parents: other tasks run
inside an ``await``, so nothing that happens there is their child.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

Span = tuple[int, str, str, float, float, int]


class Tracer:
    """Installs the shims named by ``targets`` and collects their spans."""

    def __init__(self, targets: Iterable[tuple[str, str, str]]) -> None:
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        #: Coroutine wall durations: the same shape, with no id and no parent.
        self.async_spans: list[Span] = []
        #: Counts made at the shims: frames and bytes at ``encode_frame``
        #: outside storage, and operation outcomes at the client methods.
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[Any, str, Any]] = []
        self._tls = threading.local()
        self._ids = itertools.count()
        self._writing: set[int] = set()
        self._hook_table = self._build_hooks()

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, target, kind in self.targets:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                self._patch_class(getattr(module, owner_name), attr, layer, kind)
            else:
                self._patch_function(module, attr, layer, kind)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _bind(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_class(self, cls: type, attr: str, layer: str, kind: str) -> None:
        hooks = self._hooks(f"{cls.__name__}.{attr}")
        pending, seen = [cls], set()
        while pending:
            owner = pending.pop()
            if owner in seen:
                continue
            seen.add(owner)
            pending.extend(owner.__subclasses__())
            if attr in owner.__dict__:
                name = f"{owner.__name__}.{attr}"
                wrapper = self._wrap(owner.__dict__[attr], layer, name, kind, hooks)
                self._bind(owner, attr, wrapper)

    def _patch_function(self, home: Any, attr: str, layer: str, kind: str) -> None:
        original = getattr(home, attr)
        wrapper = self._wrap(original, layer, attr, kind, self._hooks(attr))
        holders = [home] + [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and module is not home
            and (name == "repro" or name.startswith("repro."))
        ]
        # A ``from x import f`` site holds its own binding: rebind every
        # repro namespace that holds this very function object.
        for module in holders:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._bind(module, key, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _wrap(
        self, fn: Callable, layer: str, name: str, kind: str, hooks: tuple
    ) -> Callable:
        if kind == "async":
            return self._wrap_async(fn, layer, name)
        if kind == "gen":
            return self._wrap_generator(fn, layer, name)
        return self._wrap_sync(fn, layer, name, *hooks)

    def _stack(self) -> list[tuple[int, str]]:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def _wrap_sync(
        self,
        fn: Callable,
        layer: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        spans, ids, clock, get_stack = self.spans, self._ids, time.perf_counter, self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = get_stack()
            span_id = next(ids)
            parent, parent_layer = stack[-1] if stack else (-1, "")
            token = before(args) if before is not None else None
            stack.append((span_id, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, layer, name, start, end, parent))
            if after is not None:
                after(token, args, result, parent_layer)
            return result

        return wrapper

    def _wrap_generator(self, fn: Callable, layer: str, name: str) -> Callable:
        """One span per resumption: the consumer's work between two
        ``next()`` calls is not the generator's."""
        spans, ids, clock, get_stack = self.spans, self._ids, time.perf_counter, self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = fn(*args, **kwargs)
            while True:
                stack = get_stack()
                span_id = next(ids)
                parent = stack[-1][0] if stack else -1
                stack.append((span_id, layer))
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((span_id, layer, name, start, end, parent))
                yield item

        return wrapper

    def _wrap_async(self, fn: Callable, layer: str, name: str) -> Callable:
        durations, clock = self.async_spans, time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                durations.append((-1, layer, name, start, clock(), -1))

        return wrapper

    # -- counts taken at the shims ------------------------------------------

    def _hooks(self, name: str) -> tuple[Optional[Callable], Optional[Callable]]:
        return self._hook_table.get(name, (None, None))

    def _build_hooks(self) -> dict[str, tuple[Optional[Callable], Optional[Callable]]]:
        counts, writing = self.counts, self._writing

        def frame_after(_token: Any, _args: Any, frame: bytes, parent_layer: str) -> None:
            if parent_layer != "storage":  # WAL records are framed too
                counts["net.frames"] += 1
                counts["net.wire_bytes"] += len(frame)

        def write_after(_token: Any, args: Any, _result: Any, _parent: str) -> None:
            writing.add(id(args[0]))

        def read_after(_token: Any, args: Any, _result: Any, _parent: str) -> None:
            writing.discard(id(args[0]))

        def deliver_before(args: Any) -> bool:
            return args[0].busy

        def deliver_after(was_busy: bool, args: Any, _result: Any, _parent: str) -> None:
            client = args[0]
            if was_busy and not client.busy:
                counts["client.completed"] += 1
                counts["client.phases"] += client.last_phases
                if id(client) in writing:
                    counts["client.writes"] += 1
                    if getattr(client, "last_write_fast_path", False):
                        counts["client.fast_path_writes"] += 1

        def retransmit_after(_token: Any, _args: Any, sends: Any, _parent: str) -> None:
            if sends:
                counts["client.retransmits"] += 1

        return {
            "encode_frame": (None, frame_after),
            "BftBcClient.begin_write": (None, write_after),
            "BftBcClient.begin_read": (None, read_after),
            "BftBcClient.deliver": (deliver_before, deliver_after),
            "BftBcClient.retransmit": (None, retransmit_after),
        }

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per line: nested spans first, then async durations."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, layer, name, start, end, parent in self.spans:
                out.write(json.dumps({
                    "id": span_id, "layer": layer, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
            for _id, layer, name, start, end, _parent in self.async_spans:
                out.write(json.dumps({
                    "layer": layer, "name": name,
                    "start": start, "end": end, "async": True,
                }) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    spans = list(spans)
    own = {span[0]: span[4] - span[3] for span in spans}
    for span_id, _layer, _name, start, end, parent in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_self_seconds(spans: Iterable[Span]) -> dict[str, float]:
    """Self time summed by layer."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += own[span[0]]
    return dict(totals)


def total_seconds(spans: Iterable[Span], layer: str, name: str) -> float:
    """Summed duration of the spans called ``name`` in ``layer`` (a name is
    matched with or without its class prefix)."""
    return sum(
        end - start
        for _id, span_layer, span_name, start, end, _parent in spans
        if span_layer == layer and span_name.rpartition(".")[2] == name
    )
