"""Spans around calls into the sosec layers, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules in
every ``sosec.*`` module that binds it (``sosec.kb.build_knowledge_base``
and ``sosec.cli.build_knowledge_base`` alike) and the ``complete`` method of
each provider class. The package source is not edited. Spans are kept in
memory and written out by ``dump``; ``layer_metrics`` turns them into the
per-layer numbers.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("kb", "retrieval", "revision", "analysis", "evaluation", "cli")
PROVIDER_COMPLETE = "revision.provider_complete"
# Per-layer metrics that spans cannot give; run.py measures them itself.
FACT_METRICS = ("kb.peak_rss_mb", "retrieval.index_file_mb", "trace.overhead_ratio")


class Tracer:
    def __init__(self) -> None:
        # A span is [id, name, start, end, parent_id, request_id, thread, extra].
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Request ids keyed by code text: the original code of each request
        # and, once revised, the revised code, so analyzer calls that only
        # see code (or a file of it) still join their request.
        self.code_requests: dict[str, list] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request(self, request_id) -> None:
        """Set the request id for spans the calling thread opens next."""
        self._local.request = request_id

    def note_code(self, code: str, request_id) -> None:
        """Record that `code` belongs to `request_id` (one of possibly several)."""
        ids = self.code_requests.setdefault(code, [])
        if request_id not in ids:
            ids.append(request_id)

    def _request_for(self, args, kwargs):
        rid = kwargs.get("sample_id")
        if rid:
            return rid
        stack = self._stack()
        parent = stack[-1][5] if stack else None
        for arg in args:
            if isinstance(arg, str) and arg in self.code_requests:
                ids = self.code_requests[arg]
                if len(ids) == 1:
                    return ids[0]
                # Code that several requests share (duplicate samples, the same
                # revision): the enclosing span tells which one called, if it
                # knows; otherwise record them all.
                return parent if parent in ids else sorted(ids)
        return parent if stack else getattr(self._local, "request", None)

    def _open(self, name: str, rid) -> list:
        stack = self._stack()
        if not stack and rid is not None and not isinstance(rid, list):
            # A thread works one request at a time, so later top-level calls
            # on it that carry no request of their own (cwe_set on a result)
            # belong to the last one it started.
            self._local.request = rid
        span = [next(self._ids), name, time.perf_counter(), None, stack[-1][0] if stack else None,
                rid, threading.get_ident(), None]
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, annotate=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens inside each next(); one span per
            # next() keeps that time under the span of whoever consumes it.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rid = tracer._request_for(args, kwargs)
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name, rid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(span)
                        return
                    except BaseException:
                        tracer._close(span)
                        raise
                    tracer._close(span)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, tracer._request_for(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate is not None:
                span[7] = annotate(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions in every loaded sosec module."""
        import sosec.cli  # noqa: F401  (loads every layer module)

        wrappers: dict[int, object] = {}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "sosec" or n.startswith("sosec.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("sosec.") or home not in LAYERS:
                    continue
                if id(value) not in wrappers:
                    name = f"{home}.{value.__name__}"
                    wrappers[id(value)] = self.wrap(name, value, _ANNOTATORS.get(name))
                    self.wrapped.add(name)
                setattr(module, attr, wrappers[id(value)])
        revision = sys.modules["sosec.revision"]
        for value in list(vars(revision).values()):
            if inspect.isclass(value) and value.__module__ == "sosec.revision" and "complete" in vars(value):
                value.complete = self.wrap(PROVIDER_COMPLETE, vars(value)["complete"])
                self.wrapped.add(PROVIDER_COMPLETE)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, rid, thread, extra in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid, "thread": thread,
                                     "extra": extra}, default=str) + "\n")


def _annotate_revise(tracer, span, args, kwargs, record):
    tracer.note_code(record.revised_code, span[5])
    return {"changed": record.changed}


def _annotate_run_analyzer(tracer, span, args, kwargs, findings):
    adapter, source = args[0], args[1]
    digest = hashlib.sha256(Path(source).read_bytes()).hexdigest()
    return {"pair": f"{adapter.name}:{digest}"}


def _annotate_build_kb(tracer, span, args, kwargs, entries):
    return {"entries": len(entries)}


# Annotations run after the call returns, outside the span's timed interval.
# run_analyzer's source file still exists then: the caller deletes it later.
_ANNOTATORS = {
    "revision.revise": _annotate_revise,
    "analysis.run_analyzer": _annotate_run_analyzer,
    "kb.build_knowledge_base": _annotate_build_kb,
}


def layer_metrics(tracer: Tracer, names: list[str], wall_s: float, answer_rows: int) -> tuple[dict, list[str]]:
    """Per-layer metrics named in `names`, and the span names whose function is absent.

    ``<layer>.<function>.calls|.s|.self_s`` come straight from the spans;
    self time is a span's duration minus the time its child spans cover.
    `wall_s` is the time of the traced operations and `answer_rows` the
    dump's answer count (0 when there is no dump). FACT_METRICS are skipped.
    """
    calls, total, child = defaultdict(int), defaultdict(float), defaultdict(float)
    for span in tracer.spans:
        calls[span[1]] += 1
        total[span[1]] += span[3] - span[2]
        if span[4] is not None:
            child[span[4]] += span[3] - span[2]
    self_time = defaultdict(float)
    for span in tracer.spans:
        self_time[span[1]] += (span[3] - span[2]) - child[span[0]]

    extras = defaultdict(list)
    for span in tracer.spans:
        if span[7]:
            extras[span[1]].append(span[7])
    pairs = [e["pair"] for e in extras["analysis.run_analyzer"]]
    revisions = extras["revision.revise"]
    derived = {
        "kb.kept_ratio": (sum(e["entries"] for e in extras["kb.build_knowledge_base"])
                          / answer_rows) if answer_rows else 0.0,
        "analysis.distinct_pairs": len(set(pairs)),
        "analysis.useful_ratio": len(set(pairs)) / len(pairs) if pairs else 0.0,
        "analysis.in_flight_mean": total["analysis.run_analyzer"] / wall_s if wall_s else 0.0,
        "revision.changed_ratio": (sum(e["changed"] for e in revisions) / len(revisions)) if revisions else 0.0,
    }

    metrics, absent = {}, set()
    for name in names:
        if name in FACT_METRICS:
            continue
        if name in derived:
            metrics[name] = derived[name]
        else:
            span_name, _, stat = name.rpartition(".")
            if span_name not in tracer.wrapped:
                absent.add(span_name)
            table = {"calls": calls, "s": total, "self_s": self_time}[stat]
            metrics[name] = table.get(span_name, 0)
    return metrics, sorted(absent)
