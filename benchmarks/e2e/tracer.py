"""Wall-clock spans around ``repro``'s layer boundaries, recorded from outside.

``src/repro`` has no tracing of its own, so the benchmark rebinds the public
entry point of each layer to a timing wrapper for the duration of the timed
calls and restores every binding afterwards.  Execution is one thread and
every wrapped call is synchronous, so a single stack of open frames
attributes each instant to exactly one frame: self times sum to the root.

Three wrapper weights, by how often the boundary is crossed:

* **span** — batch-granularity calls (``Runtime.run``, a computing-job
  invocation, a sequencer hand-off, an LSM flush).  One record
  ``{name, start, end, parent, feed}`` each.
* **aggregate** — per-record calls that can contain spans (``Dataset.upsert``
  may flush).  A frame is pushed so children subtract correctly, but only
  ``(count, total, self)`` is kept, under the enclosing span.
* **leaf** — per-record calls with nothing traced below them
  (``parse_json``, a pull on an adapter or a reference scan).  No frame;
  ``(count, total, self)`` under the enclosing span.
"""

from __future__ import annotations

import contextlib
import json
import sys
from itertools import islice
from time import perf_counter
from types import ModuleType
from typing import Callable, Dict, Iterator, List, Optional

ROOT = "ingestion.start_feed"
#: reference-read iterators are pulled this many records per timed call
REF_READ_CHUNK = 256


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id", "aggs")

    def __init__(self, name, span_id, parent_id, aggs):
        self.name = name
        self.child = 0.0  # seconds covered by children
        self.span_id = span_id  # id of the nearest recorded span
        self.parent_id = parent_id
        self.aggs = aggs  # the nearest recorded span's aggregates
        self.start = 0.0


class Tracer:
    def __init__(self):
        #: closed spans, in close order
        self.spans: List[dict] = []
        #: label stamped on every span: the timed call being traced
        self.feed: Optional[str] = None
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> _Frame:
        stack = self._stack
        parent_id = stack[-1].span_id if stack else None
        frame = _Frame(name, self._next_id, parent_id, {})
        self._next_id += 1
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _close(self, frame: _Frame) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        self.spans.append(
            {
                "id": frame.span_id,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "parent": frame.parent_id,
                "feed": self.feed,
                "self_s": duration - frame.child,
                "aggregates": frame.aggs,
            }
        )

    @contextlib.contextmanager
    def root(self, feed: str):
        """The span of one timed facade call; everything nests under it."""
        self.feed = feed
        frame = self._open(ROOT)
        try:
            yield
        finally:
            self._close(frame)
            self.feed = None

    def _span(self, name: str, fn: Callable) -> Callable:
        open_, close = self._open, self._close

        def span_wrapper(*args, **kwargs):
            frame = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return span_wrapper

    def _span_generator(self, name: str, fn: Callable) -> Callable:
        """For a coroutine the kernel resumes: one span per resumed segment."""
        open_, close = self._open, self._close

        def generator_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            value = None
            error: Optional[BaseException] = None
            while True:
                frame = open_(name)
                try:
                    if error is None:
                        effect = inner.send(value)
                    else:
                        effect = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(frame)
                try:
                    value = yield effect
                    error = None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded into the coroutine
                    error = exc

        return generator_wrapper

    def _aggregate(self, name: str, fn: Callable) -> Callable:
        stack = self._stack

        def aggregate_wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(name, parent.span_id, parent.parent_id, parent.aggs)
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                parent.child += elapsed
                agg = parent.aggs.get(name)
                if agg is None:
                    parent.aggs[name] = [1, elapsed, elapsed - frame.child]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame.child

        return aggregate_wrapper

    def _charge(self, name: str, count: int, elapsed: float) -> None:
        """Book childless work under whichever frame is open right now."""
        top = self._stack[-1]
        top.child += elapsed
        agg = top.aggs.get(name)
        if agg is None:
            top.aggs[name] = [count, elapsed, elapsed]
        else:
            agg[0] += count
            agg[1] += elapsed
            agg[2] += elapsed

    def _leaf(self, name: str, fn: Callable) -> Callable:
        charge = self._charge

        def leaf_wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                charge(name, 1, perf_counter() - started)

        return leaf_wrapper

    def _leaf_iterator(self, name: str, fn: Callable, chunk: int = 1) -> Callable:
        """Time the ``next()`` calls on the iterator ``fn`` returns.

        The consumer may be resumed under a different span between items
        (the intake actor is), so each pull is charged to the frame open
        when it was made.  ``count`` is items yielded.

        ``chunk > 1`` pulls that many items per timed ``next()``: a
        reference scan yields a dozen records per tweet, and timing each
        one costs more than fetching it.  Only for side-effect-free
        sources, since the wrapper then reads ahead of its consumer.
        """
        charge = self._charge

        def timed(iterator: Iterator):
            try:
                while True:
                    started = perf_counter()
                    items = list(islice(iterator, chunk))
                    charge(name, len(items), perf_counter() - started)
                    if not items:
                        return
                    yield from items
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        def iterator_wrapper(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        return iterator_wrapper

    # ------------------------------------------------------------- patching

    def _rebind(self, owner, attr: str, wrap: Callable[[Callable], Callable]):
        """Replace ``owner.attr`` by ``wrap(original)`` and remember the undo.

        On a class or module the original object goes back by assignment;
        on an instance the wrapper shadows the class attribute and the
        undo deletes it, so nothing stays on the object.
        """
        if isinstance(owner, (type, ModuleType)):
            original = vars(owner)[attr]
            setattr(owner, attr, wrap(original))
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            setattr(owner, attr, wrap(getattr(owner, attr)))
            self._undo.append(lambda: delattr(owner, attr))

    def install(self, targets, references) -> None:
        """Rebind every layer boundary.

        ``targets`` are the datasets the feeds write, ``references`` the
        ones their UDFs read.
        """
        from repro.adm import parser as adm_parser
        from repro.cluster.controller import ClusterController
        from repro.hyracks.executor import LocalJobRunner
        from repro.ingestion.adapter import FileAdapter
        from repro.ingestion.fabric import FeedFabric
        from repro.ingestion.udf_operator import UdfEvaluatorOperator
        from repro.runtime.channel import Sequencer
        from repro.runtime.kernel import Runtime
        from repro.storage.lsm import LSMTree
        from repro.udf.registry import FunctionRegistry

        def span(name):
            return lambda fn: self._span(name, fn)

        def aggregate(name):
            return lambda fn: self._aggregate(name, fn)

        def leaf(name):
            return lambda fn: self._leaf(name, fn)

        def leaf_iterator(name, chunk=1):
            return lambda fn: self._leaf_iterator(name, fn, chunk)

        self._rebind(Runtime, "run", span("runtime.run"))
        self._rebind(ClusterController, "invoke", span("cluster.invoke"))
        self._rebind(LocalJobRunner, "execute", span("hyracks.execute"))
        self._rebind(UdfEvaluatorOperator, "next_frame", span("sqlpp.udf_eval"))
        self._rebind(
            Sequencer, "put",
            lambda fn: self._span_generator("runtime.sequencer", fn),
        )
        self._rebind(LSMTree, "flush", span("storage.flush_merge"))
        self._rebind(LSMTree, "merge_all", span("storage.flush_merge"))
        self._rebind(FunctionRegistry, "invoke_java", aggregate("udf.java_eval"))
        self._rebind(
            FileAdapter, "envelopes", leaf_iterator("ingestion.adapter_read")
        )
        for attr, value in list(vars(FeedFabric).items()):
            # the arbiter's public calls; reporting accessors are not on
            # the timed path
            if (
                callable(value)
                and not attr.startswith("_")
                and attr not in ("summary", "tenant_report", "governor_grants_for")
            ):
                self._rebind(FeedFabric, attr, span("ingestion.fabric"))

        # every module that imported the function by name holds its own
        # reference, so rebind each attribute that *is* the function
        parse_json = adm_parser.parse_json
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is parse_json:
                    self._rebind(module, attr, leaf("adm.parse"))

        for dataset in targets:
            self._rebind(dataset, "upsert", aggregate("storage.upsert"))
            self._rebind(dataset, "upsert_many", aggregate("storage.upsert"))
        for dataset in references:
            for attr in ("scan", "index_probe_equal", "index_probe_spatial"):
                self._rebind(
                    dataset, attr, leaf_iterator("storage.ref_read", REF_READ_CHUNK)
                )
            self._rebind(dataset, "get", leaf("storage.ref_read"))

    def wrap_apply(self, apply: Callable) -> Callable:
        """The update client's ``apply``: a reference upsert beside the feed."""
        return self._aggregate("storage.ref_upsert", apply)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------ reporting

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per boundary name: calls, total seconds and self seconds."""
        out: Dict[str, Dict[str, float]] = {}

        def add(name, count, total, self_s):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += count
            row["total_s"] += total
            row["self_s"] += self_s

        for span in self.spans:
            add(span["name"], 1, span["end"] - span["start"], span["self_s"])
            for name, (count, total, self_s) in span["aggregates"].items():
                add(name, count, total, self_s)
        return out

    def root_seconds(self) -> float:
        return sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] is None
        )

    def export(self, spans_path: str, chrome_path: str) -> None:
        """Write ``spans.jsonl`` and a Chrome-trace (``chrome://tracing``) file."""
        if not self.spans:
            return
        origin = min(span["start"] for span in self.spans)
        ordered = sorted(self.spans, key=lambda s: (s["start"], s["id"]))
        events = []
        with open(spans_path, "w") as handle:
            for span in ordered:
                aggregates = {
                    name: {"count": c, "total_s": t, "self_s": s}
                    for name, (c, t, s) in span["aggregates"].items()
                }
                row = dict(
                    span,
                    start=span["start"] - origin,
                    end=span["end"] - origin,
                    aggregates=aggregates,
                )
                handle.write(json.dumps(row) + "\n")
                events.append(
                    {
                        "name": span["name"],
                        "cat": span["name"].split(".")[0],
                        "ph": "X",
                        "ts": (span["start"] - origin) * 1e6,
                        "dur": (span["end"] - span["start"]) * 1e6,
                        "pid": 0,
                        "tid": 0,
                        "args": {
                            "feed": span["feed"],
                            "self_s": span["self_s"],
                            "aggregates": aggregates,
                        },
                    }
                )
        with open(chrome_path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
