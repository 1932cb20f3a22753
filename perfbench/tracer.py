"""Span tracer that wraps fundlens functions at the names their callers look up.

Nothing in the program is edited: for a traced run the benchmark replaces
module and class attributes with timing wrappers and puts the originals
back afterwards. Spans (name, start, end, parent, run id, counts) are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Marker set on every wrapper, so tests can tell a wrapped attribute apart.
WRAPPED = "__perfbench_wrapped__"


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _fit_counts(args, kwargs, model):
    jobs = kwargs.get("jobs", args[4] if len(args) > 4 else 1)
    return {"trees": len(model.trees), "nodes": sum(int(t.feature.size) for t in model.trees),
            "jobs": int(jobs)}


def _proba_counts(args, kwargs, result):
    return {"rows": int(result.shape[0]), "trees": len(args[0].trees)}


def _screen_counts(args, kwargs, result):
    rows, _ = result
    return {"features": len(args[1]), "significant": len(rows)}


def _campaign_counts(args, kwargs, result):
    campaigns, report = result
    return {"records": report.total_records, "rejected": report.rejected}


#: (owner, attribute, span name, observer). The owner is a module, or a
#: class written ``module:Class``. Where two modules call the same function
#: each lookup name is wrapped, under one span name.
TARGETS = (
    # cli: one span per stage; its self time is the stage's own code.
    *(("fundlens.cli", f"cmd_{s}", f"cli.{s}", None)
      for s in ("ingest", "featurize", "screen", "evaluate", "train", "predict", "report", "synth")),
    ("fundlens.cli", "load_campaigns", "ingest.load_campaigns", _campaign_counts),
    ("fundlens.cli", "load_population_table", "ingest.load_population_table", None),
    ("fundlens.cli", "load_lexicon", "text.load_lexicon", None),
    ("fundlens.features", "extract", "text.extract",
     lambda a, k, r: {"tokens": int(r.word_count)}),
    ("fundlens.cli", "load_precomputed_quality", "images.load_precomputed_quality", None),
    ("fundlens.images:StubFaceProvider", "analyze", "images.analyze", None),
    ("fundlens.cli", "build_feature_matrix", "features.build_feature_matrix",
     lambda a, k, r: {"rows": len(r.ids)}),
    ("fundlens.features:FeatureMatrix", "save", "features.save",
     lambda a, k, r: {"bytes": _file_bytes(a[1], a[2])}),
    ("fundlens.features:FeatureMatrix", "load", "features.load", None),
    ("fundlens.features:FeatureMatrix", "take_rows", "features.take_rows", None),
    ("fundlens.features:FeatureMatrix", "select_names", "features.select_names", None),
    ("fundlens.cli", "impute_with_indicators", "features.impute_with_indicators", None),
    ("fundlens.experiment", "impute_with_indicators", "features.impute_with_indicators", None),
    ("fundlens.cli", "apply_imputation", "features.apply_imputation", None),
    ("fundlens.cli", "screen", "stats.screen", _screen_counts),
    ("fundlens.stats", "pearson_p", "stats.pearson_p", None),
    ("fundlens.cli", "run_experiment", "experiment.run_experiment", None),
    ("fundlens.experiment", "compute_metrics", "experiment.compute_metrics", None),
    ("fundlens.cli", "assemble", "experiment.assemble", None),
    ("fundlens.experiment", "assemble", "experiment.assemble", None),
    ("fundlens.forest", "fit", "forest.fit", _fit_counts),
    ("fundlens.forest:RandomForest", "predict_proba", "forest.predict_proba", _proba_counts),
    ("fundlens.forest:RandomForest", "feature_importances", "forest.feature_importances", None),
    ("fundlens.forest:RandomForest", "save", "forest.save",
     lambda a, k, r: {"bytes": _file_bytes(a[1])}),
    ("fundlens.forest:RandomForest", "load", "forest.load", None),
    ("fundlens.forest:Tree", "leaf_proba", "forest.leaf_proba", None),
    ("fundlens.cli", "generate_dataset", "synth.generate_dataset",
     lambda a, k, r: {"campaigns": len(r.campaigns)}),
    ("fundlens.cli", "write_dataset", "synth.write_dataset", None),
)

#: Spans whose children run in worker processes: record the CPU time of
#: waited-for children, which ``parallel_eff`` needs.
_CHILD_CPU = {"forest.fit"}


def resolve_owner(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index of the enclosing span, -1 at top level
    attrs: Optional[dict] = None


class Tracer:
    """Records spans for every call through the wrapped attributes.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original attribute, even when the traced code raised.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn: Callable, name: str, observe) -> Callable:
        spans, stack = self.spans, self._stack
        child_cpu = name in _CHILD_CPU

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            cpu0 = _children_cpu() if child_cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            attrs = observe(args, kwargs, result) if observe is not None else {}
            if child_cpu:
                attrs["child_cpu_s"] = _children_cpu() - cpu0
            span.attrs = attrs or None
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def install(self) -> None:
        for owner_name, attr, name, observe in TARGETS:
            owner = resolve_owner(owner_name)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, observe))
                else:
                    new = self._wrap(raw, name, observe)
            else:
                raw = getattr(owner, attr)
                new = self._wrap(raw, name, observe)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        write_spans(path, self.spans, self.run_id)


def write_spans(path, spans, run_id: str) -> None:
    """One JSON object per line: name, start, end, parent index, run id, counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "run": run_id, "attrs": s.attrs}) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [Span(o["name"], o["start"], o["end"], o["parent"], o["attrs"])
                for o in map(json.loads, fh)]


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its direct children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [(s.end - s.start) - _union_length(children.get(i, ())) for i, s in enumerate(spans)]
