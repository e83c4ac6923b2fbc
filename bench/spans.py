"""Spans around calls into dxaudit's public functions, installed from outside.

The tracer replaces each traced function with a wrapper that records a
span (name, start, end, parent, record id, and one measured quantity) and
puts the original back on ``uninstall``. A module-level function is
replaced wherever a dxaudit module holds it by name, not only where it is
defined, because ``from .recall import find_mentions`` binds a second
name that a patch of ``recall.find_mentions`` alone would miss. Methods
are replaced on their class.

Spans stay in memory; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager

def _len_result(args, kwargs, result):
    return len(result)


def _context_chars(args, kwargs, result):
    return len(result.context)


def _pair(args, kwargs, result):
    return args[1], args[2]


def _sample_chars(args, kwargs, result):
    sample = args[1] if len(args) > 1 else kwargs["sample"]
    return len(sample.context)


def targets():
    """(owner, attribute, span name, measure, sets record id) per traced call."""
    from dxaudit import (context_model, core, drg, features, modelio, pipeline,
                         recall, relation_model)

    cc, rc = context_model.ContextClassifier, relation_model.RelationClassifier
    return [
        (core, "parse_record_line", "core.parse_record_line", None, False),
        (recall, "build_matcher", "recall.build_matcher", None, False),
        (recall.DiseaseMatcher, "scan", "recall.scan", _len_result, False),
        (recall, "resolve_overlaps", "recall.resolve_overlaps", _len_result, False),
        (recall, "find_mentions", "recall.find_mentions", _len_result, False),
        (recall, "build_context_window", "recall.build_context_window",
         _context_chars, False),
        (features, "assemble_features", "features.assemble_features", None, False),
        (cc, "classify", "context_model.classify", _sample_chars, False),
        (cc, "loss_and_grads", "context_model.loss_and_grads", None, False),
        (cc, "mean_loss", "context_model.mean_loss", None, False),
        (cc, "accuracy", "context_model.accuracy", None, False),
        (context_model, "train", "context_model.train", None, False),
        (rc, "predict", "relation_model.predict", _pair, False),
        (rc, "predict_proba", "relation_model.predict_proba", None, False),
        (relation_model, "info_nce_batch_loss", "relation_model.info_nce_batch_loss",
         None, False),
        (relation_model, "eval_contrastive_loss", "relation_model.eval_contrastive_loss",
         None, False),
        (relation_model, "contrastive_pretrain", "relation_model.contrastive_pretrain",
         None, False),
        (relation_model, "finetune", "relation_model.finetune", None, False),
        (pipeline, "batch_detect", "pipeline.batch_detect", None, False),
        (pipeline, "_detect_record", "pipeline.detect_record", None, True),
        (drg, "cc_mcc_level", "drg.cc_mcc_level", None, False),
        (drg, "cost_delta_report", "drg.cost_delta_report", None, False),
        (modelio, "load_model", "modelio.load_model", None, False),
        (modelio, "save_model", "modelio.save_model", None, False),
    ]


class Tracer:
    """Records spans column by column: lists of floats and strings cost the
    cyclic collector nothing to walk, so tracing adds little collection
    time to the calls it measures."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.records: list[str | None] = []
        self.values: list = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, record) -> tuple[int, list[int]]:
        stack = self._stack()
        # A worker thread's first span belongs to whatever the main thread
        # is waiting in (batch_detect, when it fans records out).
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            i = len(self.names)
            self.names.append(name)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.parents.append(parent)
            self.records.append(record)
            self.values.append(None)
        stack.append(i)
        return i, stack

    @contextmanager
    def span(self, name: str):
        i, stack = self._open(name, None)
        self.starts[i] = time.perf_counter()
        try:
            yield i
        finally:
            self.ends[i] = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name, measure, sets_record):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            previous = getattr(tracer._local, "record", None)
            record = args[0].record_id if sets_record else previous
            i, stack = tracer._open(name, record)
            tracer._local.record = record
            tracer.starts[i] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = time.perf_counter()
                stack.pop()
                tracer._local.record = previous
            if measure is not None:
                tracer.values[i] = measure(args, kwargs, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dxaudit" or n.startswith("dxaudit.")]
        for owner, attr, name, measure, sets_record in targets():
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, measure, sets_record)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """One JSON array per span: index, name, start, end, parent, record, value."""
        columns = (self.names, self.starts, self.ends, self.parents, self.records,
                   self.values)
        with open(path, "w", encoding="utf-8") as handle:
            for i, row in enumerate(zip(*columns)):
                handle.write(json.dumps([i, *row], ensure_ascii=False))
                handle.write("\n")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


class SpanTree:
    def __init__(self, tracer: Tracer):
        self.names, self.starts, self.ends = tracer.names, tracer.starts, tracer.ends
        self.values = tracer.values
        self.children: list[list[int]] = [[] for _ in self.names]
        for i, parent in enumerate(tracer.parents):
            if parent is not None:
                self.children[parent].append(i)

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def self_time(self, i: int) -> float:
        """Duration minus the part of it that child spans cover.

        Children of one parent may overlap when they ran on several
        threads, so their intervals are merged before subtracting.
        """
        start, end = self.starts[i], self.ends[i]
        intervals = sorted((max(self.starts[c], start), min(self.ends[c], end))
                           for c in self.children[i])
        covered, reach = 0.0, start
        for a, b in intervals:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        return (end - start) - covered

    def under(self, root: int) -> list[int]:
        """The root and every span below it."""
        out, todo = [], [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children[i])
        return out

    def named(self, indices, name: str) -> list[int]:
        return [i for i in indices if self.names[i] == name]

    def seconds(self, indices, name: str) -> float:
        return sum(self.duration(i) for i in self.named(indices, name))

    def field(self, indices, name: str) -> list:
        """The measured quantity of every span called ``name``."""
        return [self.values[i] for i in self.named(indices, name)]
