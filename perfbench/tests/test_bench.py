"""Tests for the benchmark's own code: span arithmetic, metric names and
wrapper installation. Run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import re
from pathlib import Path

import pytest

import fundlens.cli
from client import CALIBRATION_REF_S, calibrate, run_passes, run_stages
from layers import layer_metrics, per_layer_units
from run import END_TO_END_UNITS, scaled_passes
from tracer import TARGETS, WRAPPED, Span, Tracer, resolve_owner, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 6.0, 8.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 5.0, 0),
        Span("c", 3.0, 7.0, 0),   # overlaps b: the union 1..7 covers 6
        Span("d", 6.5, 6.8, 0),   # inside the union already
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [Span("a", 0.0, 10.0, -1), Span("b", 8.0, 12.0, 0), Span("c", 11.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(8.0)


def test_each_stage_is_scaled_by_the_samples_just_around_it():
    ref = CALIBRATION_REF_S
    passes = [[("ingest", 0, 1.0), ("screen", 0, 2.0)], [("ingest", 0, 3.0)]]
    calibration = [ref, ref, ref, 3 * ref, ref / 2, ref / 2]
    scaled = scaled_passes(passes, calibration)
    assert [[name for name, _ in p] for p in scaled] == [["ingest", "screen"], ["ingest"]]
    assert [s for p in scaled for _, s in p] == pytest.approx([1.0, 1.0, 6.0])


def test_calibration_restores_the_cpu_set():
    before = os.sched_getaffinity(0)
    assert calibrate(2) > 0
    assert os.sched_getaffinity(0) == before


def test_stages_run_on_their_cpus_between_two_calibration_samples(monkeypatch):
    seen = []
    monkeypatch.setattr(fundlens.cli, "main", lambda argv: seen.append(os.sched_getaffinity(0)) or 0)
    everywhere = os.sched_getaffinity(0)
    one = {max(everywhere)}
    calibration = []
    try:
        run_stages([("ingest", ["ingest"]), ("evaluate", ["evaluate"])], calibration=calibration,
                   cpus={"ingest": one, "evaluate": everywhere})
    finally:
        os.sched_setaffinity(0, everywhere)
    assert seen == [one, everywhere]
    assert len(calibration) == 4


def test_metric_names_and_units_are_well_formed():
    units = {**END_TO_END_UNITS, **per_layer_units()}
    for name, unit in units.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    assert len(per_layer_units()) <= 128


def test_benchmark_json_lists_exactly_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def _current(owner_name, attr):
    owner = resolve_owner(owner_name)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _is_wrapped(value) -> bool:
    return getattr(getattr(value, "__func__", value), WRAPPED, False)


def _probe(seen):
    def main(argv):
        seen.append([_is_wrapped(_current(o, a)) for o, a, _, _ in TARGETS])
        return 0
    return main


def test_untraced_run_installs_no_wrapper(monkeypatch):
    seen = []
    monkeypatch.setattr(fundlens.cli, "main", _probe(seen))
    run_stages([("ingest", ["ingest"]), ("report", ["report"])], tracer=None)
    assert len(seen) == 2
    assert not any(any(row) for row in seen)


def test_traced_run_restores_every_wrapped_attribute(monkeypatch):
    before = [_current(o, a) for o, a, _, _ in TARGETS]
    seen = []
    monkeypatch.setattr(fundlens.cli, "main", _probe(seen))
    run_stages([("ingest", ["ingest"])], tracer=Tracer("t"))
    assert seen and all(seen[0])
    after = [_current(o, a) for o, a, _, _ in TARGETS]
    assert all(x is y for x, y in zip(before, after))


def test_alternating_run_keeps_the_spans_of_the_first_traced_pass(monkeypatch):
    import fundlens.stats

    def main(argv):
        fundlens.stats.pearson_p(0.5, 10)
        return 0

    monkeypatch.setattr(fundlens.cli, "main", main)
    tracer = Tracer("t")
    passes, traced = run_passes([("screen", ["screen", "{out}"])], "p{i}", 6, 0.0, tracer,
                                alternate=True)
    assert len(passes) == 6
    assert traced == [False, True, True, False, False, True]
    assert [s.name for s in tracer.spans] == ["stats.pearson_p"]


def test_tracer_restores_after_an_exception():
    before = [_current(o, a) for o, a, _, _ in TARGETS]
    with pytest.raises(RuntimeError):
        with Tracer("t"):
            raise RuntimeError("boom")
    assert all(x is _current(o, a) for x, (o, a, _, _) in zip(before, TARGETS))


def test_traced_pipeline_records_every_layer(tmp_path):
    """A small traced pass: spans land in each layer and outputs match an
    untraced pass byte for byte."""
    spec = {
        "cells": [{"band": "B1", "category": "Other", "n": 80},
                  {"band": "B2", "category": "Other", "n": 80}],
        "effects": [{"feature": "insight", "modality": "text", "slope": -0.25}],
        "noise_sigma": 0.2,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    data = tmp_path / "data"

    def stages(out):
        base = ["--seed", "3", "--out", str(out), "--campaigns", str(data / "campaigns.jsonl"),
                "--census", str(data / "census.csv"), "--quality-scores", str(data / "quality.csv"),
                "--sidecar-root", str(data)]
        forest = ["--trees", "3", "--max-depth", "3", "--cv-folds", "2", "--settings", "Basic,EarlyFusionAll"]
        return [("ingest", ["ingest", *base]), ("featurize", ["featurize", *base]),
                ("screen", ["screen", *base]), ("evaluate", ["evaluate", *base, *forest]),
                ("train", ["train", *base, *forest]),
                ("predict", ["predict", *base, str(data / "campaigns.jsonl")]),
                ("report", ["report", *base])]

    tracer = Tracer("t")
    setup = run_stages([("synth", ["synth", "--seed", "3", "--out", str(data),
                                   str(tmp_path / "spec.json")])], tracer)
    traced = run_stages(stages(tmp_path / "traced"), tracer)
    plain = run_stages(stages(tmp_path / "plain"), None)
    assert [rc for _, rc, _ in setup + traced + plain] == [0] * 15

    m = layer_metrics(tracer.spans)
    for name in ("forest.fit.calls", "forest.leaf_proba.calls", "text.extract.calls",
                 "images.analyze.calls", "ingest.load_campaigns.records", "stats.screen.calls",
                 "experiment.run_experiment.fits", "features.row_slices", "synth.campaigns"):
        assert m[name] > 0, name
    assert m["features.build_feature_matrix.rows"] == 2 * 160
    assert m["experiment.run_experiment.fits"] < m["forest.fit.calls"]
    for f in ("features.csv", "screening.csv", "predictions.csv", "models/B1.json"):
        assert (tmp_path / "traced" / f).read_bytes() == (tmp_path / "plain" / f).read_bytes(), f
