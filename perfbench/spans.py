"""Span tracing of the evintel layers from outside the package.

``Tracer.install`` replaces every public function of each layer module with a
wrapper, at every module namespace where a caller looks the function up: the
defining module itself (intra-module calls and ``module.name`` attribute
calls) and each module that imported the name with ``from .x import name``.
A span is named ``<layer>.<function>@<site>``, for example
``cluster.cluster_conflict@specify``. The thread pools in ``cluster`` and
``pipeline`` are swapped for an executor that hands the submitting thread's
current span to the worker, so worker spans have the span that caused them
as parent.

Spans live in per-thread column arrays (no lock on the hot path) until the
op ends; ``end_op`` then folds them into per-name totals and keeps the raw
spans of the ops it is asked to keep, which ``write`` saves when the run is
over. A span's self time is its duration minus the time its children cover:
same-thread children are subtracted as they end, children on other threads
by interval union in ``end_op``.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = ("ds", "cluster", "specify", "posterior", "tracks", "decide", "pipeline", "cli")
COLUMNS = (("sid", "q"), ("name", "H"), ("op", "I"), ("t0", "d"), ("t1", "d"), ("self_s", "d"), ("parent", "q"))
NEST_TOL = 1e-9


class _ThreadSpans:
    """One thread's span columns, its open-span stack and its adopted parent."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[list] = []  # [sid, seconds covered by finished children]
        self.adopted = 0  # span id on the submitting thread, 0 for none
        self.cols = {name: array.array(code) for name, code in COLUMNS}


class Tracer:
    """Spans and counts for one traced run; ``install`` before it, ``uninstall`` after."""

    def __init__(self):
        self.names: list[str] = []
        self.enabled = False
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._thread_ids = itertools.count()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._blocks: dict[int, tuple[object, set]] = {}  # id(corpus) -> (corpus, blocks seen)
        self.stats: dict[tuple[str, int], list] = {}  # (span name, op) -> [calls, incl s, self s]
        self.errors: list[str] = []
        self.kept = {name: array.array(code) for name, code in COLUMNS}  # spans of kept ops
        self.kept["thread"] = array.array("H")

    # --- recording --------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        ts = getattr(self._local, "spans", None)
        if ts is None:
            with self._lock:
                ts = _ThreadSpans(next(self._thread_ids))
                self._threads.append(ts)
            self._local.spans = ts
        return ts

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _call(self, idx: int, fn, args, kwargs):
        ts = self._spans()
        stack = ts.stack
        parent = stack[-1][0] if stack else -ts.adopted  # negative: parent is on another thread
        sid = next(self._ids)
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += t1 - t0
            cols = ts.cols
            cols["sid"].append(sid)
            cols["name"].append(idx)
            cols["op"].append(self.op)
            cols["t0"].append(t0)
            cols["t1"].append(t1)
            cols["self_s"].append(t1 - t0 - frame[1])
            cols["parent"].append(parent)

    def wrap(self, name: str, fn, observe=None):
        idx = self._name_index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(*args, **kwargs)
            return tracer._call(idx, fn, args, kwargs)

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the benchmark's op span)."""
        return self._call(self._name_index(name), fn, args, kwargs)

    def _current(self) -> int:
        ts = self._spans()
        return ts.stack[-1][0] if ts.stack else ts.adopted

    def _adopt(self, parent: int, fn, args, kwargs):
        ts = self._spans()
        saved, ts.adopted = ts.adopted, parent
        try:
            return fn(*args, **kwargs)
        finally:
            ts.adopted = saved

    def _see_block(self, corpus, block) -> None:
        entry = self._blocks.get(id(corpus))
        if entry is None:
            with self._lock:
                entry = self._blocks.setdefault(id(corpus), (corpus, set()))
        entry[1].add(frozenset(block))

    # --- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layers' public functions and thread pools in every module of ``package``."""
        modules = [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopt, tracer._current(), fn, args, kwargs)

        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                observe = self._see_block if fname == "cluster_conflict" else None
                for site in modules:
                    for bound, obj in list(vars(site).items()):
                        if obj is fn:
                            short = site.__name__.rsplit(".", 1)[1]
                            self._replace(site, bound, self.wrap(f"{layer}.{fname}@{short}", fn, observe))
        for site in modules:
            if vars(site).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                self._replace(site, "ThreadPoolExecutor", TracedExecutor)

    def _replace(self, module, name: str, value) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def uninstall(self) -> None:
        while self._undo:
            module, name, value = self._undo.pop()
            setattr(module, name, value)

    # --- analysis ---------------------------------------------------------

    def end_op(self, keep: bool) -> tuple[int, list]:
        """Close the op that just ran: fold its spans into ``stats`` and check
        their nesting, keep the raw spans only if ``keep`` (memory stays
        bounded by one op plus the kept ones).

        Returns (distinct conflict blocks first seen in the op, corpus objects it used).
        """
        cols = {name: array.array(code) for name, code in COLUMNS}
        cols["thread"] = array.array("H")
        for ts in self._threads:
            for name, _ in COLUMNS:
                cols[name].extend(ts.cols[name])
                del ts.cols[name][:]
            cols["thread"].extend([ts.thread] * (len(cols["sid"]) - len(cols["thread"])))
        current = self._spans()
        with self._lock:  # the op's pools are joined: only this thread records spans
            self._threads = [current]
        stats, errors = _fold(cols, self.names)
        for key, (calls, incl, self_s) in stats.items():
            entry = self.stats.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        self.errors += errors
        if keep:
            for name, arr in cols.items():
                self.kept[name].extend(arr)
        entries = list(self._blocks.values())
        self._blocks.clear()
        return sum(len(seen) for _, seen in entries), [corpus for corpus, _ in entries]

    def summarize(self) -> tuple[dict, list[str]]:
        """Per (span name, op): (calls, inclusive seconds, self seconds); nesting errors."""
        return {key: tuple(v) for key, v in self.stats.items()}, self.errors[:20]

    def write(self, path) -> None:
        """Gzip file of the kept spans: one JSON header line, then each column's raw bytes."""
        header = {
            "names": self.names,
            "columns": [[name, arr.typecode] for name, arr in self.kept.items()],
            "count": len(self.kept["sid"]),
        }
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in self.kept.values():
                f.write(arr.tobytes())


def _fold(cols: dict, names: list[str]) -> tuple[dict, list[str]]:
    """Aggregate one op's spans per (name, op) and check that children on
    other threads lie inside their parent; their covered time is taken off
    the parent's self time by interval union."""
    cross = [i for i, p in enumerate(cols["parent"]) if p < 0]
    special = {-cols["parent"][i] for i in cross}
    children: dict[int, list[tuple[float, float]]] = {s: [] for s in special}
    where: dict[int, int] = {}
    if special:
        for i, (sid, parent, t0, t1) in enumerate(zip(cols["sid"], cols["parent"], cols["t0"], cols["t1"])):
            if sid in special:
                where[sid] = i
            if abs(parent) in special:
                children[abs(parent)].append((t0, t1))
    self_s = cols["self_s"]
    errors = []
    for sid, intervals in children.items():
        i = where[sid]
        p0, p1 = cols["t0"][i], cols["t1"][i]
        if any(t0 < p0 - NEST_TOL or t1 > p1 + NEST_TOL for t0, t1 in intervals):
            errors.append(f"span {sid} ({names[cols['name'][i]]}): a child on another thread leaves its interval")
        self_s[i] = (p1 - p0) - _union_length(intervals)
    stats: dict[tuple[str, int], list] = {}
    for name, op, t0, t1, s in zip(cols["name"], cols["op"], cols["t0"], cols["t1"], self_s):
        entry = stats.get((names[name], op))
        if entry is None:
            entry = stats[(names[name], op)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += t1 - t0
        entry[2] += s
        if s < -NEST_TOL:
            errors.append(f"{names[name]}: negative self time {s!r}")
    return stats, errors


def read_spans(path) -> tuple[list[str], dict]:
    with gzip.open(path, "rb") as f:
        header = json.loads(f.readline())
        cols = {}
        for name, code in header["columns"]:
            arr = array.array(code)
            arr.frombytes(f.read(arr.itemsize * header["count"]))
            cols[name] = arr
    return header["names"], cols


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total
