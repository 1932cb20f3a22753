"""Per-layer metrics of one traced pipeline pass, computed from its spans."""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times

#: This repository's modules. ``core`` only does scalar binning and gets no
#: layer metric.
LAYERS = ("cli", "ingest", "text", "images", "features", "stats", "forest", "experiment", "synth")

CLI_STAGES = ("ingest", "featurize", "screen", "evaluate", "train", "predict", "report", "synth")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Agg:
    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.attrs: dict = defaultdict(float)


def _aggregate(spans):
    agg: dict = defaultdict(_Agg)
    for span, own in zip(spans, self_times(spans)):
        a = agg[span.name]
        a.calls += 1
        a.s += span.end - span.start
        a.self_s += own
        for k, v in (span.attrs or {}).items():
            a.attrs[k] += v
    return agg


def _under(spans, i: int, ancestor: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == ancestor:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans) -> dict:
    """Named per-layer metrics. Every name is always present; a layer a
    workload does not exercise reads 0."""
    agg = _aggregate(spans)

    def a(name) -> _Agg:
        return agg[name] if name in agg else _Agg()

    fit = a("forest.fit")
    parallel_wall = sum(s.attrs["jobs"] * (s.end - s.start) for s in spans
                        if s.name == "forest.fit" and s.attrs and s.attrs["jobs"] > 1)
    proba = a("forest.predict_proba")
    row_trees = sum(s.attrs["rows"] * s.attrs["trees"] for s in spans
                    if s.name == "forest.predict_proba" and s.attrs)
    extract = a("text.extract")
    load_c = a("ingest.load_campaigns")
    screen = a("stats.screen")
    m = {
        "forest.fit.calls": fit.calls,
        "forest.fit.s": fit.s,
        "forest.fit.trees": fit.attrs["trees"],
        "forest.fit.nodes": fit.attrs["nodes"],
        "forest.fit.us_per_node": _ratio(1e6 * fit.s, fit.attrs["nodes"]),
        "forest.fit.child_cpu_s": fit.attrs["child_cpu_s"],
        "forest.fit.parallel_eff": _ratio(fit.attrs["child_cpu_s"], parallel_wall),
        "forest.predict_proba.calls": proba.calls,
        "forest.predict_proba.rows": proba.attrs["rows"],
        "forest.predict_proba.rows_per_call": _ratio(proba.attrs["rows"], proba.calls),
        "forest.predict_proba.s": proba.s,
        "forest.predict_proba.us_per_row_tree": _ratio(1e6 * proba.s, row_trees),
        "forest.leaf_proba.calls": a("forest.leaf_proba").calls,
        "forest.feature_importances.calls": a("forest.feature_importances").calls,
        "forest.save.s": a("forest.save").s,
        "forest.save.bytes": a("forest.save").attrs["bytes"],
        "forest.load.s": a("forest.load").s,
        "experiment.run_experiment.s": a("experiment.run_experiment").s,
        "experiment.run_experiment.self_s": a("experiment.run_experiment").self_s,
        "experiment.run_experiment.fits": sum(
            1 for i, s in enumerate(spans)
            if s.name == "forest.fit" and _under(spans, i, "experiment.run_experiment")),
        "experiment.compute_metrics.s": a("experiment.compute_metrics").s,
        "features.build_feature_matrix.calls": a("features.build_feature_matrix").calls,
        "features.build_feature_matrix.rows": a("features.build_feature_matrix").attrs["rows"],
        "features.build_feature_matrix.s": a("features.build_feature_matrix").s,
        "features.build_feature_matrix.self_s": a("features.build_feature_matrix").self_s,
        "features.save.s": a("features.save").s,
        "features.save.bytes": a("features.save").attrs["bytes"],
        "features.load.s": a("features.load").s,
        "features.impute_with_indicators.calls": a("features.impute_with_indicators").calls,
        "features.impute_with_indicators.s": a("features.impute_with_indicators").s,
        "features.apply_imputation.calls": a("features.apply_imputation").calls,
        "features.apply_imputation.s": a("features.apply_imputation").s,
        "features.row_slices": a("features.take_rows").calls + a("features.select_names").calls,
        "text.extract.calls": extract.calls,
        "text.extract.s": extract.s,
        "text.tokens": extract.attrs["tokens"],
        "text.tokens_per_s": _ratio(extract.attrs["tokens"], extract.s),
        "images.analyze.calls": a("images.analyze").calls,
        "images.analyze.s": a("images.analyze").s,
        "images.load_precomputed_quality.s": a("images.load_precomputed_quality").s,
        "ingest.load_campaigns.calls": load_c.calls,
        "ingest.load_campaigns.s": load_c.s,
        "ingest.load_campaigns.records": load_c.attrs["records"],
        "ingest.load_campaigns.rejected": load_c.attrs["rejected"],
        "ingest.records_per_s": _ratio(load_c.attrs["records"], load_c.s),
        "ingest.load_population_table.s": a("ingest.load_population_table").s,
        "stats.screen.calls": screen.calls,
        "stats.screen.s": screen.s,
        "stats.features_tested": screen.attrs["features"],
        "stats.significant": screen.attrs["significant"],
        "stats.pearson_p.calls": a("stats.pearson_p").calls,
        "synth.generate_dataset.s": a("synth.generate_dataset").s,
        "synth.write_dataset.s": a("synth.write_dataset").s,
        "synth.campaigns": a("synth.generate_dataset").attrs["campaigns"],
    }
    for stage in CLI_STAGES:
        m[f"cli.{stage}.self_s"] = a(f"cli.{stage}").self_s
    layer_self: dict = defaultdict(float)
    for name, x in agg.items():
        layer_self[name.split(".", 1)[0]] += x.self_s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in list(layer_metrics([]).keys()) + ["trace.overhead_s"]:
        last = name.rsplit(".", 1)[-1]
        if last.endswith("_s") or last == "s":
            unit = "1/s" if last.endswith("per_s") else "s"
        elif last.startswith("us_per"):
            unit = "us"
        elif last == "bytes":
            unit = "bytes"
        elif last == "parallel_eff" or last == "rows_per_call":
            unit = "1"
        else:
            unit = "count"
        units[name] = unit
    return units
