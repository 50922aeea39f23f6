"""Spans around scorefeat's public functions, recorded from outside the package.

``install`` replaces each traced function by a wrapper in the namespace
where the engine or the CLI looks it up, and re-registers every feature
module with wrapped callables. Spans stay in memory, one list per thread,
until ``Tracer.dump`` writes them out.

``layer_times`` turns spans into self times. At every instant the wall
time is shared equally among the open spans that have no open child; with
one thread that is the usual "duration minus the time children cover", and
with a thread pool the shares still add up to the wall time of the root.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import threading
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lists: dict[int, list] = {}
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        # Spans opened by pool threads outside any span of their own are
        # children of the span the main thread has open at that moment.
        self._main_stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.extract_cpu_s = 0.0
        self.missing: list[str] = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            ident = threading.get_ident()
            local.stack = self._main_stack if ident == self._main else []
            local.spans = []
            local.file = None
            with self._lock:
                self._lists[ident] = local.spans
        return local

    def wrap(self, name: str, fn, on_result=None, file_arg=None):
        """``fn`` recording a span per call; ``file_arg`` names the argument
        position whose value becomes the span's (and its thread's) file."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._thread_state()
            if file_arg is not None and len(args) > file_arg:
                state.file = str(args[file_arg])
            stack = state.stack
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                state.spans.append((span_id, name, parent, start, end, state.file))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, **options))

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def spans(self) -> list[tuple]:
        with self._lock:
            lists = list(self._lists.items())
        return [(tid, *span) for tid, spans in lists for span in spans]

    def dump(self) -> dict:
        return {
            "spans": self.spans(),
            "counts": dict(self.counts),
            "extract_cpu_s": self.extract_cpu_s,
            "missing": self.missing,
        }


def cpu_s() -> float:
    """CPU seconds of this process and of its children that have ended."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def install(tracer: Tracer) -> None:
    """Wrap the module-boundary functions of an imported scorefeat."""
    from scorefeat import cache, cli, engine, midi, musicxml, registry, table

    def parsed(kind):
        def record(result):
            diags = result[1] if isinstance(result, tuple) else None
            tracer.count(f"{kind}.warnings", len(getattr(diags, "warnings", ())))
            tracer.count(f"{kind}.skipped", sum(getattr(diags, "skipped_elements", {}).values()))
        return record

    def annotations(result):
        tracer.count("harmony.annotations", len(result))

    tracer.patch(musicxml, "parse_musicxml", "musicxml.parse", on_result=parsed("musicxml"))
    tracer.patch(midi, "import_midi", "midi.import", on_result=parsed("midi"))
    tracer.patch(cache, "cache_key", "cache.key")
    tracer.patch(cache, "load_score", "cache.load")
    tracer.patch(cache, "store_score", "cache.store")
    tracer.patch(engine, "parse_harmony_file", "harmony.parse", on_result=annotations)
    tracer.patch(engine, "attach_annotations", "harmony.attach")
    tracer.patch(engine, "slice_window", "model.slice_window")
    tracer.patch(engine, "load_or_parse", "engine.load_or_parse", file_arg=0)
    tracer.patch(cli, "process", "postprocess.process")
    tracer.patch(cli, "load_config", "cli.load_config")
    tracer.patch(cli, "collect_score_paths", "cli.collect_paths")
    tracer.patch(table.FeatureTable, "append_row", "table.append")
    tracer.patch(table.FeatureTable, "to_csv", "table.to_csv")

    extract = getattr(cli, "extract", None)
    if extract is None:
        tracer.missing.append("cli.extract")
    else:
        traced_extract = tracer.wrap("engine.extract", extract)

        def extract_with_cpu(*args, **kwargs):
            cpu = cpu_s()
            try:
                return traced_extract(*args, **kwargs)
            finally:
                tracer.extract_cpu_s += cpu_s() - cpu

        cli.extract = extract_with_cpu

    for name, desc in registry.feature_modules().items():
        wrapped = {role: tracer.wrap(f"features.{name}", fn)
                   for role in ("part_fn", "score_fn") if (fn := getattr(desc, role)) is not None}
        registry.register_feature_module(dataclasses.replace(desc, **wrapped))


def self_times(spans) -> dict[int, float]:
    """Span id -> self time, sharing each instant among the open leaf spans.

    ``spans`` holds ``(thread, id, name, parent, start, end, file)`` tuples.
    """
    parent_of = {s[1]: s[3] for s in spans}
    events = []
    for _tid, span_id, _name, _parent, start, end, _file in spans:
        events.append((start, 1, span_id))
        events.append((end, 0, -span_id))  # at equal times children end first
    events.sort()
    open_spans: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    self_s: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, is_start, key in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_s[leaf] += share
        last = t
        span_id = key if is_start else -key
        parent = parent_of[span_id]
        if is_start:
            open_spans.add(span_id)
            leaves.add(span_id)
            if parent in open_spans:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            open_spans.discard(span_id)
            leaves.discard(span_id)
            if parent in open_spans:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_s


def layer_times(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: summed self time, summed duration and call count."""
    own = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    total_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for _tid, span_id, name, _parent, start, end, _file in spans:
        self_by_name[name] += own.get(span_id, 0.0)
        total_by_name[name] += end - start
        calls[name] += 1
    return dict(self_by_name), dict(total_by_name), dict(calls)
