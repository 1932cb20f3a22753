import builtins
import csv
import hashlib
import io
import json
import os
import random
import shutil
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from fundlens import cli, features
from fundlens.cli import _dataset_paths, _feature_inputs, _load_features, build_parser, load_config, main
from fundlens.core import CategoryRegistry
from fundlens.features import build_feature_matrix
from fundlens.ingest import load_campaigns


SPEC = {
    "cells": [
        {"band": "B1", "category": "Other", "n": 120},
        {"band": "B2", "category": "Animals & Pets", "n": 100},
    ],
    "effects": [
        {"feature": "insight", "modality": "text", "slope": -0.25},
        {"feature": "technical", "modality": "image_quality", "slope": 0.2},
    ],
    "noise_sigma": 0.05,
}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One synth+ingest+featurize run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_file = root / "spec.json"
    spec_file.write_text(json.dumps(SPEC))
    out = root / "out"
    data = root / "data"
    base = [
        "--seed", "7", "--out", str(out),
        "--campaigns", str(data / "campaigns.jsonl"),
        "--census", str(data / "census.csv"),
        "--quality-scores", str(data / "quality.csv"),
        "--sidecar-root", str(data),
    ]
    assert main(["synth", *base, "--out", str(data), str(spec_file)]) == 0
    assert main(["ingest", *base]) == 0
    assert main(["featurize", *base]) == 0
    return root, out, base


def test_synth_and_ingest_artifacts(pipeline_dir):
    root, out, base = pipeline_dir
    dataset = (out / "dataset.jsonl").read_text().strip().splitlines()
    assert len(dataset) == 220
    row = json.loads(dataset[0])
    assert {"id", "ratio", "goal_band", "class_four", "class_two"} <= set(row)
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["accepted"] == 220


def test_featurize_artifacts(pipeline_dir):
    root, out, base = pipeline_dir
    meta = json.loads((out / "features_meta.json").read_text())
    assert "provider_tags" in meta
    assert "lexicon_fingerprint" in meta
    header = (out / "features.csv").read_text().splitlines()[0]
    assert "liwc_insight" in header
    assert "technical_score" in header


def test_screen_finds_planted_features(pipeline_dir):
    root, out, base = pipeline_dir
    assert main(["screen", *base]) == 0
    text = (out / "screening.csv").read_text()
    assert text.startswith("# alpha=")
    assert "liwc_insight" in text
    assert "technical_score" in text


def test_evaluate_writes_report_and_is_deterministic(pipeline_dir):
    root, out, base = pipeline_dir
    args = ["evaluate", *base, "--trees", "15", "--cv-folds", "2",
            "--settings", "Basic,LIWC,EarlyFusionAll"]
    assert main(args) == 0
    first = (out / "report.csv").read_bytes()
    first_json = (out / "report.json").read_bytes()
    assert main(args) == 0
    assert (out / "report.csv").read_bytes() == first
    assert (out / "report.json").read_bytes() == first_json
    lines = first.decode().splitlines()
    assert any(line.startswith("# seed=7") for line in lines)
    assert any(",LIWC," in line for line in lines)
    assert any(line.startswith("Total(Weighted),") for line in lines)


#: Two categories in B1, four cells of 9 in B3 (too small to screen, so B3
#: keeps no text feature in screened mode) and four-class targets whose small
#: classes lower k.
_PROTOCOL_SPEC = {
    "cells": [
        {"band": "B1", "category": "Other", "n": 60},
        {"band": "B1", "category": "Medical, Illness & Healing", "n": 50},
        {"band": "B2", "category": "Animals & Pets", "n": 40},
        *({"band": "B3", "category": c, "n": 9}
          for c in ("Other", "Animals & Pets", "Education & Learning", "Sports, Teams & Clubs")),
    ],
    "effects": [
        {"feature": "insight", "modality": "text", "slope": -0.25},
        {"feature": "technical", "modality": "image_quality", "slope": 0.2},
        {"feature": "num_faces", "modality": "face", "slope": 0.15},
    ],
    "noise_sigma": 0.2,
    "words_per_description": 40,
}

#: sha256 of featurize's, screen's and evaluate's files for _PROTOCOL_SPEC at seed 3. Like
#: tests/test_synth.py::test_write_dataset_is_pinned they follow NumPy's
#: Generator streams: re-pin only after a NumPy upgrade, with a note in CHANGES.md.
#: The "holdout" digests cover report.csv without its notes and cv_* columns:
#: the holdout cells and weighted totals, which a change to CV alone must not move.
#: "features.npz values" covers the bytes of the float64 values array alone.
_PROTOCOL_DIGESTS = {
    "features.csv": "1a0a5e622fb5e5317f23fde5fc90de7af753b6c0321e53863f6df9a63ec65514",
    "features.npz values": "8b7640b1e4aa75fbe0f8b8b19a72d31e065715aa3d9911a806fa30c0f9a94332",
    "screening.csv": "658395c392162a55b3fc5cc1ae7de97080af6ec54843e9402f12d8c8ebea2a53",
    "screening_notes.json": "c323470bb98a2ca82d12be7e030a8412b341d596f332e63bfd7c36f9c269c5b6",
    "all-features/report.csv": "8f6a4e0902e0560f301bdbd24d0e37f4f9ab572a8aa6e8780ba373deeffb34b6",
    "all-features/report.json": "28e3592c53d4637be67539da2a52e32ad6023f8cca5455ddc2b6137210df4d83",
    "screened/report.csv": "cf14c4c41d60e41f4701b0eeec479b82ad722b6c4c8ab019bb83c2f63c9db843",
    "screened/report.json": "cd7b4519a91ec4c49e9c552b2fc42cf5673eeff5ff5e27f919e4613a80da5c10",
    "all-features/report.csv holdout": "9827b3f09c861d8a8cdfd2327f3ee7352c65b2028a44ab99e29b098f7ba96adc",
    "screened/report.csv holdout": "4fa6dc30a4f39cb652f811e2aad24b52458c4657c73fda8b30f2c663f33df15a",
}


def _holdout_only(report_csv: str) -> bytes:
    """report.csv without its ``#`` lines and its cv_* columns."""
    table = [line.split(",") for line in report_csv.splitlines() if not line.startswith("#")]
    keep = [j for j, column in enumerate(table[0]) if not column.startswith("cv_")]
    return "".join(",".join(cells[j] for j in keep) + "\n" for cells in table).encode()


def test_screen_and_evaluate_outputs_are_pinned(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(_PROTOCOL_SPEC))
    data, out = tmp_path / "data", tmp_path / "out"
    base = ["--seed", "3", "--out", str(out), "--campaigns", str(data / "campaigns.jsonl"),
            "--census", str(data / "census.csv"), "--quality-scores", str(data / "quality.csv"),
            "--sidecar-root", str(data)]
    assert main(["synth", *base, "--out", str(data), str(spec_file)]) == 0
    # Every 10th campaign raises three times its goal: a ratio above 2.5,
    # which screening leaves out and which has no class.
    records = [json.loads(line) for line in (data / "campaigns.jsonl").read_text().splitlines()]
    for r in records[::10]:
        r["raised_amount"] = 3 * r["goal_amount"]
    (data / "campaigns.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    for stage in ("ingest", "featurize", "screen"):
        assert main([stage, *base]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("features.csv", "screening.csv", "screening_notes.json")}
    with np.load(out / "features.npz") as z:
        digests["features.npz values"] = hashlib.sha256(z["values"].tobytes()).hexdigest()
    forest = ["--trees", "3", "--max-depth", "4", "--full-settings-bands", "B1,B2,B3"]
    for run, flags in (("all-features", ["--cv-folds", "3"]),
                       ("screened", ["--assembly", "screened", "--target", "four-class"])):
        assert main(["evaluate", *base, *forest, *flags]) == 0
        for name in ("report.csv", "report.json"):
            digests[f"{run}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        holdout = _holdout_only((out / "report.csv").read_text())
        digests[f"{run}/report.csv holdout"] = hashlib.sha256(holdout).hexdigest()
    notes = [line for line in (out / "report.csv").read_text().splitlines() if line.startswith("# note")]
    # the paths the spec is here for are taken
    assert "# note: skipped B3/LateFusion: no columns left after name filter" in notes
    assert any("B1 cv: k lowered" in note for note in notes)
    assert digests == _PROTOCOL_DIGESTS


def test_train_and_predict(pipeline_dir):
    root, out, base = pipeline_dir
    assert main(["train", *base, "--trees", "10",
                 "--train-setting", "EarlyFusionAll"]) == 0
    models = sorted(p.name for p in (out / "models").glob("*.json"))
    assert "B1.json" in models and "B1_meta.json" in models

    new_file = root / "new.jsonl"
    sample = json.loads((root / "data" / "campaigns.jsonl").read_text().splitlines()[0])
    sample["id"] = "fresh"
    new_file.write_text(json.dumps(sample) + "\n")
    assert main(["predict", *base, str(new_file)]) == 0
    pred = (out / "predictions.csv").read_text().splitlines()
    assert pred[0].startswith("id,")
    assert pred[1].startswith("fresh,")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_and_predict_with_populations_near_the_float_limit(tmp_path):
    # np.median averages the two middle values, and their sum overflows above about 9e307:
    # train wrote an infinite median that predict refused, and retraining could not help.
    spec = {"cells": [{"band": "B1", "category": "Other", "n": 60}],
            "effects": [{"feature": "city_population", "modality": "population", "slope": 0.1}],
            "noise_sigma": 0.05}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    data, out = tmp_path / "data", tmp_path / "out"
    base = ["--seed", "3", "--out", str(out), "--campaigns", str(data / "campaigns.jsonl"),
            "--census", str(data / "census.csv"), "--quality-scores", str(data / "quality.csv"),
            "--sidecar-root", str(data)]
    assert main(["synth", *base, "--out", str(data), str(tmp_path / "spec.json")]) == 0
    census = (data / "census.csv").read_text(encoding="utf-8").splitlines()
    huge = [f"{row.rsplit(',', 1)[0]},1.5e308" if row.startswith("plantcity") else row
            for row in census]
    assert huge != census
    (data / "census.csv").write_text("\n".join(huge) + "\n", encoding="utf-8")
    for stage in ("ingest", "featurize"):
        assert main([stage, *base]) == 0
    assert main(["train", *base, "--trees", "3"]) == 0
    meta = json.loads((out / "models" / "B1_meta.json").read_text())
    assert meta["medians"]["city_population"] == 1.5e308
    assert main(["predict", *base, str(data / "campaigns.jsonl")]) == 0
    assert len((out / "predictions.csv").read_text().splitlines()) == 61


def test_parallel_train_writes_the_serial_models(pipeline_dir, monkeypatch):
    root, out, base = pipeline_dir
    calls = []
    real = features.apply_imputation
    monkeypatch.setattr(features, "apply_imputation", lambda *a: calls.append(1) or real(*a))
    written = {}
    for jobs in ("1", "2"):
        models = root / f"models_jobs{jobs}"
        assert main(["train", *base, "--trees", "3", "--models", str(models), "--jobs", jobs]) == 0
        written[jobs] = {p.name: p.read_bytes() for p in sorted(models.iterdir())}
    assert sorted(written["1"]) == ["B1.json", "B1_meta.json", "B2.json", "B2_meta.json"]
    assert written["2"] == written["1"]
    # Each run imputes each band's training rows once.
    assert len(calls) == 2 * 2


def test_report_histograms(pipeline_dir):
    root, out, base = pipeline_dir
    assert main(["report", *base]) == 0
    hist = (out / "goal_histogram.csv").read_text().splitlines()
    assert hist[0].split(",")[0] == "bin_left"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 220


def test_config_file_and_flag_override(pipeline_dir, tmp_path, monkeypatch, capsys):
    root, out, base = pipeline_dir
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[paths]\n"
        f"campaigns = {root / 'data' / 'campaigns.jsonl'}\n"
        f"census = {root / 'data' / 'census.csv'}\n"
        f"quality_scores = {root / 'data' / 'quality.csv'}\n"
        f"sidecar_root = {root / 'data'}\n"
        f"out = {tmp_path / 'out'}\n"
        "[run]\n"
        "seed = 3\n"
    )
    assert main(["ingest", "--config", str(ini)]) == 0
    assert (tmp_path / "out" / "dataset.jsonl").exists()
    # a flag overrides the file value
    assert main(["ingest", "--config", str(ini), "--out", str(tmp_path / "o2")]) == 0
    assert (tmp_path / "o2" / "dataset.jsonl").exists()

    # The README's one-section example loads as written; its relative paths
    # resolve from the working directory.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    work = tmp_path / "readme"
    work.mkdir()
    (work / "data").symlink_to(root / "data")
    monkeypatch.chdir(work)
    Path("run.ini").write_text(example)
    assert main(["ingest", "--config", "run.ini"]) == 0
    assert Path("out/dataset.jsonl").exists()
    # An empty value means the default.
    Path("empty.ini").write_text(example.replace("cv_folds = 5", "cv_folds ="))
    assert main(["ingest", "--config", "empty.ini"]) == 0
    capsys.readouterr()
    # A misspelled key, or a key set in two sections, is a config error naming the key.
    Path("typo.ini").write_text(example.replace("trees =", "tress ="))
    assert main(["ingest", "--config", "typo.ini"]) == 2
    assert "'tress'" in capsys.readouterr().err
    Path("twice.ini").write_text(example + "[run]\nseed = 3\n")
    assert main(["ingest", "--config", "twice.ini"]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert main(["ingest", "--config", "run.ini", "--full-settings-bands", "B1,B9"]) == 2
    assert "full_settings_bands" in capsys.readouterr().err
    for jobs in ("0", "-1"):
        assert main(["ingest", "--config", "run.ini", f"--jobs={jobs}"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
    # Every option value is checked before any stage runs, under the option's own name.
    for flag, value, problem in [
        ("--alpha", "2", "alpha must be in [0, 1]"),
        ("--alpha", "-0.1", "alpha must be in [0, 1]"),
        ("--alpha", "nan", "alpha must be in [0, 1]"),
        ("--min-band-n", "0", "min_band_n must be >= 2"),
        ("--trees", "0", "trees must be >= 1"),
        ("--max-depth", "-1", "max_depth must be >= 0"),
        ("--max-features", "0", "max_features must be >= 1"),
        ("--train-setting", "LateFusion", "train_setting must name a single-model setting"),
        ("--train-setting", "Bogus", "train_setting must name a single-model setting"),
        ("--settings", "Basic,Bogus", "bad value for settings"),
        ("--seed", "-1", "seed must be >= 0"),
        ("--cv-folds", "0", "cv_folds must be >= 1 (1 runs the holdout only)"),
        ("--cv-folds", "-3", "cv_folds must be >= 1"),
    ]:
        for command in ("screen", "evaluate", "train"):
            assert main([command, "--config", "run.ini", f"{flag}={value}"]) == 2, (flag, value)
            assert problem in capsys.readouterr().err, (flag, value)
    assert main(["synth", "--config", "run.ini", "--seed", "-1", "spec.json"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert main(["ingest", "--config", "run.ini", "--max-depth", "0", "--alpha", "1"]) == 0


def test_missing_seed_is_config_error(pipeline_dir, capsys):
    root, out, base = pipeline_dir
    rc = main(["ingest", "--campaigns", str(root / "data" / "campaigns.jsonl"),
               "--out", str(out)])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_bytes(b"[run]\nseed = 1\nout = caf\xe9\n")
    assert main(["report", "--config", str(ini)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot parse")


def test_missing_input_file_exits_2(tmp_path):
    rc = main(["ingest", "--seed", "1", "--out", str(tmp_path / "o"),
               "--campaigns", str(tmp_path / "nope.jsonl")])
    assert rc == 2


@pytest.mark.parametrize("command, present, missing, writer", [
    ("featurize", [], "dataset.jsonl", "ingest"),
    ("screen", [], "dataset.jsonl", "ingest"),
    ("screen", ["dataset.jsonl"], "features.npz", "featurize"),
    ("evaluate", [], "dataset.jsonl", "ingest"),
    ("train", [], "dataset.jsonl", "ingest"),
    ("report", [], "dataset.jsonl", "ingest"),
    ("predict", [], "models", "train"),
])
def test_missing_stage_input_names_the_stage_to_run(pipeline_dir, tmp_path, capsys,
                                                    command, present, missing, writer):
    root, out, base = pipeline_dir
    for name in present:
        shutil.copy(out / name, tmp_path / name)
    extra = [str(root / "data" / "campaigns.jsonl")] if command == "predict" else []
    assert main([command, *base, "--out", str(tmp_path), *extra]) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"{tmp_path / missing} not found; run {writer} first")
    assert sorted(p.name for p in tmp_path.iterdir()) == present


_BUNDLED = Path(cli.__file__).resolve().parent / "data"


def _record_reads(monkeypatch, opened: list):
    """Make open and io.open append each path they open for reading to ``opened``."""
    real = io.open

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            opened.append(Path(file).resolve())
        return real(file, mode, *args, **kwargs)

    for owner in (builtins, io):
        monkeypatch.setattr(owner, "open", recording_open)


@pytest.mark.parametrize("named", [False, True], ids=["bundled", "named"])
def test_stages_names_every_file_a_stage_reads(tmp_path, monkeypatch, named):
    # Each stage opens for reading exactly the files its STAGES entry names, files
    # inside a named directory (models, --sidecar-root) and bundled resources.
    reads = {}  # stage -> (the paths main passed it, the files it opened for reading)
    for stage in cli.STAGES:
        def traced(cfg, paths, stage=stage, run=getattr(cli, f"cmd_{stage}")):
            opened = []
            with monkeypatch.context() as m:
                _record_reads(m, opened)
                rc = run(cfg, paths)
            reads[stage] = paths, opened
            return rc
        monkeypatch.setattr(cli, f"cmd_{stage}", traced)
    spec_file, data, out = tmp_path / "spec.json", tmp_path / "data", tmp_path / "out"
    spec_file.write_text(json.dumps(SPEC))
    base = ["--seed", "7", "--out", str(out), "--campaigns", str(data / "campaigns.jsonl"),
            "--census", str(data / "census.csv"), "--quality-scores", str(data / "quality.csv"),
            "--trees", "3", "--cv-folds", "2"]
    if named:
        for name, flag in (("categories.txt", "--categories"), ("demo_lexicon.dic", "--lexicon")):
            shutil.copy(_BUNDLED / name, tmp_path / name)
            base += [flag, str(tmp_path / name)]
    assert main(["synth", *base, "--out", str(data), str(spec_file)]) == 0
    # The sidecar root holds only faces.jsonl, so no other input lies in a named directory.
    (tmp_path / "faces").mkdir()
    (data / "faces.jsonl").rename(tmp_path / "faces" / "faces.jsonl")
    base += ["--sidecar-root", str(tmp_path / "faces")]
    for stage in ("ingest", "featurize", "screen", "evaluate", "train"):
        assert main([stage, *base]) == 0
    assert main(["predict", *base, str(data / "campaigns.jsonl")]) == 0
    assert main(["report", *base]) == 0
    assert sorted(reads) == sorted(cli.STAGES)
    for stage, (paths, opened) in reads.items():
        declared = {paths[key].resolve() for key in cli.STAGES[stage][0] if paths[key] is not None}
        for path in opened:
            assert path in declared or any(d in path.parents for d in (*declared, _BUNDLED)), (stage, path)
        # and each declared file, or a file in each declared directory, is read
        for path in declared:
            assert any(p == path or path in p.parents for p in opened), (stage, path)


#: The message each file a stage reads gives when it is missing, as a format of its path.
_MISSING = {
    "dataset": "{} not found; run ingest first", "features": "{} not found; run featurize first",
    "models": "{} not found; run train first", "campaigns": "campaign snapshot not found: {}",
    "census": "census file not found: {}", "quality_scores": "quality score file not found: {}",
    "sidecar_root": "sidecar root not found: {}", "lexicon": "lexicon file not found: {}",
    "categories": "category registry not found: {}", "spec_file": "synthetic spec file not found: {}",
    "campaign_file": "campaign file not found: {}",
}
_FLAGS = {"campaigns": "--campaigns", "census": "--census", "quality_scores": "--quality-scores",
          "sidecar_root": "--sidecar-root", "lexicon": "--lexicon", "categories": "--categories",
          "models": "--models"}


def _stage_files(pipeline_dir, served, tmp_path):
    """(out, files): an output directory holding dataset.jsonl and features.npz, and every
    other file a stage can read, by _dataset_paths key."""
    root, _, _ = pipeline_dir
    data, out = root / "data", tmp_path / "out"
    out.mkdir()
    for name in ("dataset.jsonl", "features.npz"):
        shutil.copy(root / "out" / name, out / name)
    files = {"campaigns": data / "campaigns.jsonl", "census": data / "census.csv",
             "quality_scores": data / "quality.csv", "sidecar_root": data, "models": served[0],
             "campaign_file": served[1], "spec_file": tmp_path / "spec.json",
             "lexicon": tmp_path / "lexicon.dic", "categories": tmp_path / "categories.txt"}
    files["spec_file"].write_text(json.dumps(SPEC))
    shutil.copy(_BUNDLED / "demo_lexicon.dic", files["lexicon"])
    shutil.copy(_BUNDLED / "categories.txt", files["categories"])
    return out, files


def _fails_before_reading(monkeypatch, capsys, stage, out, files, message):
    """Run ``stage`` on ``files``: it exits 2 with ``message``, opens no file and writes nothing."""
    positional = cli.STAGES[stage][1]
    argv = [stage, "--seed", "7", "--out", str(out),
            *(arg for k, flag in _FLAGS.items() for arg in (flag, str(files[k]))),
            *([str(files[positional])] if positional else [])]
    before = sorted(out.iterdir())
    capsys.readouterr()
    opened = []
    with monkeypatch.context() as m:
        _record_reads(m, opened)
        assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert opened == []
    assert sorted(out.iterdir()) == before


@pytest.mark.parametrize("stage, key", [(stage, key) for stage, (reads, _) in cli.STAGES.items()
                                        for key in reads])
def test_a_missing_input_fails_before_any_is_read(pipeline_dir, served, tmp_path, monkeypatch, capsys,
                                                  stage, key):
    out, files = _stage_files(pipeline_dir, served, tmp_path)
    if key in ("dataset", "features"):
        missing = out / ("dataset.jsonl" if key == "dataset" else "features.npz")
        missing.unlink()
    else:
        missing = files[key] = tmp_path / "nowhere" / files[key].name
    _fails_before_reading(monkeypatch, capsys, stage, out, files, _MISSING[key].format(missing))


@pytest.mark.parametrize("stage", [stage for stage, (reads, _) in cli.STAGES.items()
                                   if "sidecar_root" in reads])
def test_a_sidecar_root_that_is_a_file_fails_before_any_is_read(pipeline_dir, served, tmp_path,
                                                                monkeypatch, capsys, stage):
    # Named as the root, faces.jsonl itself would otherwise give every campaign no faces.
    out, files = _stage_files(pipeline_dir, served, tmp_path)
    files["sidecar_root"] = files["sidecar_root"] / "faces.jsonl"
    assert files["sidecar_root"].is_file()
    _fails_before_reading(monkeypatch, capsys, stage, out, files,
                          f"sidecar root is not a directory: {files['sidecar_root']}")


def test_config_fingerprint_covers_alpha():
    # With --assembly screened, alpha sets the gate, so it decides evaluate's report.
    fingerprints = {load_config(None, build_parser().parse_args(
        ["evaluate", "--seed", "1", "--assembly", "screened", "--alpha", alpha])).fingerprint()
        for alpha in ("0.05", "1e-12")}
    assert len(fingerprints) == 2


def test_ini_values_are_read_literally(tmp_path):
    # A value reads as the same flag does: no % interpolation.
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseed = 3\nout = res%2024\ncampaigns = %(seed)s.jsonl\n")
    cfg = load_config(str(ini), build_parser().parse_args(["ingest"]))
    assert (cfg.out, cfg.campaigns) == (Path("res%2024"), Path("%(seed)s.jsonl"))


def test_main_dispatches_through_the_module_attribute(pipeline_dir, monkeypatch):
    # The benchmark tracer times each stage by replacing cli.cmd_<stage>.
    root, out, base = pipeline_dir
    monkeypatch.setattr(cli, "cmd_report", lambda cfg, paths: 42)
    assert main(["report", *base]) == 42


def _exit(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


def test_build_parser_without_a_stage_parses_every_stage():
    parser = build_parser()
    for stage, (_, arg) in cli.STAGES.items():
        args = parser.parse_args([stage, "--trees", "3", *(["x"] if arg else [])])
        assert (args.command, args.trees) == (stage, "3")


@pytest.mark.parametrize("argv", [["-h"], ["evaluate", "-h"], ["predict", "--help"],
                                  ["synth", "-h"]])
def test_help_reads_as_the_full_parsers(argv, capsys):
    # main builds only the named stage's options; its help must not change.
    expected = _exit(build_parser().parse_args, argv, capsys)
    assert _exit(main, argv, capsys) == expected
    assert expected[0] == 0 and expected[1].startswith("usage: fundlens")
    if argv == ["-h"]:
        assert all(stage in expected[1] for stage in cli.STAGES)


@pytest.mark.parametrize("argv", [["bogus"], [], ["--trees", "3"], ["evaluate", "--bogus", "1"],
                                  ["synth"]])
def test_unknown_command_or_argument_exits_2_as_before(argv, capsys):
    expected = _exit(build_parser().parse_args, argv, capsys)
    assert _exit(main, argv, capsys) == expected
    assert expected[0] == 2 and expected[2].startswith("usage: fundlens")
    if argv[:1] != ["synth"]:  # the top-level usage line, which names every stage
        assert "{synth,ingest,featurize,screen,evaluate,train,predict,report}" in expected[2]
    if argv == ["bogus"]:
        assert "invalid choice: 'bogus'" in expected[2]


def test_unparseable_data_exits_3(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    rc = main(["ingest", "--seed", "1", "--out", str(tmp_path / "o"),
               "--campaigns", str(bad)])
    assert rc == 3


def test_bad_spec_exits_3(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cells": [{"band": "B7", "category": "Other", "n": 5}]}))
    rc = main(["synth", "--seed", "1", "--out", str(tmp_path / "o"), str(spec)])
    assert rc == 3


def _spec_bytes(**changes) -> bytes:
    return json.dumps({**SPEC, **changes}).encode()


@pytest.mark.parametrize("blob", [
    b'{"cells": [',
    _spec_bytes().replace(b"Other", b"Oth\xffer"),
    _spec_bytes(noise_sigma="abc"),
    _spec_bytes(noise_sigma=None),
    _spec_bytes(noise_sigm=0.1),
    _spec_bytes(cells=[{"band": "B1", "category": "Other", "n": "5"}]),
    _spec_bytes(effects=[{"feature": "insight", "modality": "text", "slope": "x"}]),
    _spec_bytes(interactions=[{"a_feature": "insight", "a_modality": "text", "b_feature": "age",
                               "b_modality": "face", "magnitude": float("inf")}]),
    b"[]",
    _spec_bytes(noise_sigma=float("nan")),
    _spec_bytes(base_ratio=float("inf")),
    _spec_bytes(missing_city_rate=7),
    _spec_bytes(missing_city_rate=-0.01),
    _spec_bytes(background_poisson=-1),
    _spec_bytes(background_poisson=float("inf")),
    _spec_bytes(background_poisson=1e20),
    _spec_bytes(words_per_description=10**39),
    _spec_bytes(noise_sigma=True),
    _spec_bytes(words_per_description=120.9),
], ids=["invalid-json", "not-utf8", "str-scalar", "null-scalar", "unknown-key", "str-n",
        "str-slope", "infinite-magnitude", "not-an-object", "nan-noise", "infinite-base-ratio",
        "city-rate-7", "negative-city-rate", "negative-poisson", "infinite-poisson",
        "huge-poisson", "huge-words", "bool-scalar", "fractional-int-scalar"])
def test_malformed_spec_exits_3(tmp_path, capsys, blob):
    spec = tmp_path / "spec.json"
    spec.write_bytes(blob)
    rc = main(["synth", "--seed", "1", "--out", str(tmp_path / "o"), str(spec)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (tmp_path / "o").exists()


_DEMO_LEXICON = Path(features.__file__).parent / "data" / "demo_lexicon.dic"


@pytest.mark.parametrize("command, source, flag", [
    ("ingest", "data/campaigns.jsonl", "--campaigns"),
    ("report", "out/dataset.jsonl", None),
    ("featurize", "data/census.csv", "--census"),
    ("featurize", "lexicon.dic", "--lexicon"),
    ("featurize", "data/faces.jsonl", "--sidecar-root"),
], ids=["snapshot", "dataset", "census", "lexicon", "sidecar"])
def test_non_utf8_input(pipeline_dir, tmp_path, capsys, command, source, flag):
    # ingest rejects the snapshot line under its own reason code; any other
    # input that is not UTF-8 is a data error.
    root, out, base = pipeline_dir
    work = tmp_path / "o"
    work.mkdir()
    if command != "ingest":
        shutil.copy(out / "dataset.jsonl", work / "dataset.jsonl")
    src = _DEMO_LEXICON if flag == "--lexicon" else root / source
    bad = work / "dataset.jsonl" if flag is None else tmp_path / source
    bad.parent.mkdir(parents=True, exist_ok=True)
    blob = src.read_bytes()
    bad.write_bytes(blob[:1] + b"\xff" + blob[1:])  # 0xff starts no UTF-8 sequence
    value = tmp_path / "data" if flag == "--sidecar-root" else bad
    rc = main([command, *base, "--out", str(work), *([flag, str(value)] if flag else [])])
    err = capsys.readouterr().err
    if command == "ingest":
        assert rc == 0
        report = json.loads((work / "ingest_report.json").read_text())
        assert (report["accepted"], report["reasons"]) == (219, {"bad_utf8": 1})
    else:
        assert rc == 3
        assert err.startswith("data error: ") and "can't decode byte 0xff" in err


def test_non_numeric_quality_score_exits_3(pipeline_dir, tmp_path, capsys):
    root, out, base = pipeline_dir
    shutil.copy(out / "dataset.jsonl", tmp_path / "dataset.jsonl")
    quality = tmp_path / "quality.csv"
    quality.write_text("image_ref,aesthetic,technical\nimg/a.ppm,4.0,5.0\nimg/b.ppm,abc,5.0\n")
    rc = main(["featurize", *base, "--out", str(tmp_path), "--quality-scores", str(quality)])
    assert rc == 3
    assert "quality.csv, line 3" in capsys.readouterr().err
    assert not (tmp_path / "features.csv").exists()


_FACE = {"age": 30.0, "beauty": {"female_score": 60.0, "male_score": 70.0},
         "emotion": {"anger": 0.0, "disgust": 0.0, "fear": 0.0, "happiness": 80.0,
                     "neutral": 20.0, "sadness": 0.0, "surprise": 0.0},
         "gender": "female", "smile": {"value": False}}


def _faces_line(faces, ref):
    return (json.dumps({"faces": faces, "image_ref": ref}) + "\n").encode("utf-8")


@pytest.mark.parametrize("edit", [
    lambda first, line: line[:-5] + b"\n",
    lambda first, line: b"[]\n",
    lambda first, line: _faces_line([], 7),
    lambda first, line: json.dumps({"faces": [], "ref": "x"}).encode("utf-8") + b"\n",
    lambda first, line: _faces_line({}, json.loads(line)["image_ref"]),
    lambda first, line: first,
    lambda first, line: line[:1] + b"\xff" + line[1:],
    lambda first, line: _faces_line([{**_FACE, "age": True}], json.loads(line)["image_ref"]),
    lambda first, line: _faces_line([{**_FACE, "age": 10**400}], json.loads(line)["image_ref"]),
    lambda first, line: _faces_line([{**_FACE, "emotion": {**_FACE["emotion"], "anger": float("nan")}}],
                                    json.loads(line)["image_ref"]),
], ids=["malformed", "array", "int-ref", "no-ref", "faces-object", "duplicate-ref", "not-utf8",
        "bool-age", "huge-age", "nan-emotion"])
def test_malformed_faces_jsonl_exits_3(pipeline_dir, tmp_path, capsys, edit):
    root, out, base = pipeline_dir
    lines = (root / "data" / "faces.jsonl").read_bytes().splitlines(keepends=True)
    lines[1] = edit(lines[0], lines[1])
    data = tmp_path / "data"
    data.mkdir()
    (data / "faces.jsonl").write_bytes(b"".join(lines))
    work = tmp_path / "o"
    work.mkdir()
    shutil.copy(out / "dataset.jsonl", work / "dataset.jsonl")
    rc = main(["featurize", *base, "--out", str(work), "--sidecar-root", str(data)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error: ") and f"{data / 'faces.jsonl'}, line 2: " in err
    assert "Traceback" not in err
    assert sorted(p.name for p in work.iterdir()) == ["dataset.jsonl"]


@pytest.mark.parametrize("key, value, problem", [
    ("fear", True, "must be a finite number"),
    ("sadness", "50", "must be a finite number"),
    ("surprise", 10**400, "must be a finite number"),
    ("neutral", float("nan"), "must be a finite number"),
    ("disgust", float("inf"), "must be a finite number"),
    ("anger", -1, "must be non-negative"),
    ("emotion", None, "must have exactly the 7 keys"),
], ids=["true", "string", "huge-int", "NaN", "Infinity", "negative", "not-an-object"])
def test_malformed_emotion_exits_3_naming_the_key(pipeline_dir, tmp_path, capsys, key, value, problem):
    # The emotion scores are checked one key at a time, in EMOTION_KEYS order;
    # the error names the score's key and its faces.jsonl line, here line 2.
    root, out, base = pipeline_dir
    lines = (root / "data" / "faces.jsonl").read_bytes().splitlines(keepends=True)
    emotion = (["happy"] if key == "emotion" else
               {**_FACE["emotion"], key: value, "happiness": 81.0 if key == "anger" else 80.0})
    lines[1] = _faces_line([_FACE, {**_FACE, "emotion": emotion}], json.loads(lines[1])["image_ref"])
    data = tmp_path / "data"
    data.mkdir()
    (data / "faces.jsonl").write_bytes(b"".join(lines))
    work = tmp_path / "o"
    work.mkdir()
    shutil.copy(out / "dataset.jsonl", work / "dataset.jsonl")
    rc = main(["featurize", *base, "--out", str(work), "--sidecar-root", str(data)])
    err = capsys.readouterr().err
    assert rc == 3
    named = "emotion" if key == "emotion" else f"emotion {key}"
    assert err.startswith(f"data error: {data / 'faces.jsonl'}, line 2: {named} {problem}")
    assert "Traceback" not in err
    assert sorted(p.name for p in work.iterdir()) == ["dataset.jsonl"]


@pytest.mark.parametrize("command", ["featurize", "predict"])
@pytest.mark.parametrize("population, problem", [
    ("inf", "must be finite"), ("1e999", "must be finite"), ("nan", "must be finite"),
    ("-3", "must be positive"), ("2.5", "must be a whole number"), ("many", "must be a number"),
])
def test_bad_census_population_exits_3(pipeline_dir, served, tmp_path, capsys, command, population,
                                       problem):
    # A population that is not a positive whole number is a data error naming
    # census.csv and its line, never a traceback or a truncated count.
    root, out, base = pipeline_dir
    models, _ = served
    census = tmp_path / "census.csv"
    rows = (root / "data" / "census.csv").read_text(encoding="utf-8").splitlines()
    city, state, _ = rows[3].split(",")
    rows[3] = f"{city},{state},{population}"
    census.write_text("\n".join(rows) + "\n", encoding="utf-8")
    work = tmp_path / "o"
    work.mkdir()
    shutil.copy(out / "dataset.jsonl", work / "dataset.jsonl")
    argv = ([command, *base, "--out", str(work), "--census", str(census)] if command == "featurize" else
            [command, *base, "--out", str(work), "--models", str(models), "--census", str(census),
             str(root / "data" / "campaigns.jsonl")])
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"data error: {census}, line 4: population {problem}, got {population!r}")
    assert "Traceback" not in err
    assert sorted(p.name for p in work.iterdir()) == ["dataset.jsonl"]


def test_predict_missing_input_exits_2_before_writing(pipeline_dir, tmp_path, capsys):
    root, out, base = pipeline_dir
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("untouched\n")
    rc = main(["predict", "--seed", "7", "--out", str(tmp_path), "--models", str(tmp_path),
               "--census", str(tmp_path / "nope.csv"), "--quality-scores", str(tmp_path / "nope.csv"),
               "--sidecar-root", str(tmp_path / "nodir"), str(root / "data" / "campaigns.jsonl")])
    assert rc == 2
    assert "census file not found" in capsys.readouterr().err
    assert predictions.read_text() == "untouched\n"


def test_predict_without_a_model_exits_2_before_reading_inputs(pipeline_dir, tmp_path, capsys,
                                                              monkeypatch):
    root, out, base = pipeline_dir
    for name in ("load_campaigns", "load_population_table", "build_feature_matrix"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("read an input"))
    rc = main(["predict", *base, "--out", str(tmp_path), "--models", str(tmp_path),
               str(root / "data" / "campaigns.jsonl")])
    assert rc == 2
    assert "no trained models found" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _drop_goal_band(line):
    record = json.loads(line)
    del record["goal_band"]
    return json.dumps(record)


def _set(**changes):
    """A dataset.jsonl line edit that sets each key of ``changes``."""
    return lambda line: json.dumps({**json.loads(line), **changes})


def _double_ratio(line):
    record = json.loads(line)
    record["ratio"] *= 2  # no longer raised_amount / goal_amount
    return json.dumps(record)


#: Records that are off their schema, or whose stored labels are not the labels of their amounts.
_OFF_SCHEMA = {
    "state-5": _set(state=5),
    "title-null": _set(title=None),
    "goal-abc": _set(goal_amount="abc"),
    "cover-image-5": _set(cover_image=5),
    "class-two-7": _set(class_two=7),
    "goal-band-B9": _set(goal_band="B9"),
    "ratio-off": _double_ratio,
}


@pytest.mark.parametrize("command, corrupt", [
    pytest.param("featurize", _drop_goal_band, id="missing-key"),
    pytest.param("report", lambda line: "{not json", id="not-json"),
    *(pytest.param(command, corrupt, id=f"{command}-{name}")
      for name, corrupt in _OFF_SCHEMA.items() for command in ("featurize", "report")),
])
def test_malformed_dataset_exits_3(pipeline_dir, tmp_path, capsys, command, corrupt):
    root, out, base = pipeline_dir
    for name in ("dataset.jsonl", "features.csv", "features_meta.json", "features.npz"):
        shutil.copy(out / name, tmp_path / name)
    lines = (tmp_path / "dataset.jsonl").read_text().splitlines()
    lines[4] = corrupt(lines[4])
    (tmp_path / "dataset.jsonl").write_text("\n".join(lines) + "\n")
    assert main([command, *base, "--out", str(tmp_path)]) == 3
    assert "dataset.jsonl, line 5" in capsys.readouterr().err


def test_dataset_record_without_cover_image_has_no_image(pipeline_dir, tmp_path):
    # Like a snapshot record without one: the campaign's image features are missing.
    root, out, base = pipeline_dir
    lines = (out / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[4])
    del record["cover_image"]
    lines[4] = json.dumps(record)
    (tmp_path / "dataset.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["featurize", *base, "--out", str(tmp_path)]) == 0
    matrix, _, _ = features.FeatureMatrix.load(tmp_path / "features.npz",
                                               cli._sha256(tmp_path / "dataset.jsonl"))
    before, _, _ = features.FeatureMatrix.load(out / "features.npz", cli._sha256(out / "dataset.jsonl"))
    image = [j for j, m in enumerate(matrix.modalities) if m in ("image_quality", "face")
             and not matrix.names[j].endswith("_missing")]
    assert np.isnan(matrix.values[4, image]).all()
    assert not np.isnan(before.values[4, image]).all()
    assert np.array_equal(np.delete(matrix.values, 4, axis=0), np.delete(before.values, 4, axis=0),
                          equal_nan=True)


def test_featurize_without_side_inputs_marks_every_modality_missing(pipeline_dir, tmp_path):
    # No --census, --quality-scores or --sidecar-root: each modality's indicator reads 1.0
    # on every row, so imputation adds no indicator of an indicator.
    root, out, base = pipeline_dir
    shutil.copy(out / "dataset.jsonl", tmp_path / "dataset.jsonl")
    assert main(["featurize", "--seed", "7", "--out", str(tmp_path)]) == 0
    matrix, _, _ = features.FeatureMatrix.load(tmp_path / "features.npz",
                                               cli._sha256(tmp_path / "dataset.jsonl"))
    for name in ("population_missing", "image_quality_missing", "face_missing"):
        assert (matrix.column(name) == 1.0).all(), name
    _, _, out_names, _ = features.impute_with_indicators(matrix.values, None, matrix.names)
    assert [n for n in out_names if n.endswith("_missing__missing")] == []


def test_reordered_dataset_exits_3(pipeline_dir, tmp_path, capsys):
    # features.npz rows must be the dataset.jsonl campaigns in the same order;
    # matching by position alone would screen and train on the wrong labels.
    root, out, base = pipeline_dir
    for name in ("dataset.jsonl", "features.csv", "features_meta.json", "features.npz"):
        shutil.copy(out / name, tmp_path / name)
    lines = (tmp_path / "dataset.jsonl").read_text().splitlines()
    random.Random(0).shuffle(lines)
    (tmp_path / "dataset.jsonl").write_text("\n".join(lines) + "\n")
    for command in ("screen", "evaluate", "train"):
        assert main([command, *base, "--out", str(tmp_path), "--trees", "2"]) == 3, command
        assert "rerun featurize" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dataset.jsonl", "features.csv", "features.npz", "features_meta.json"]


def test_stale_dataset_exits_3(pipeline_dir, tmp_path, capsys):
    # ingest re-run on a snapshot with the same ids but other raised amounts,
    # featurize skipped: the features no longer match the labels.
    root, out, base = pipeline_dir
    for name in ("features.csv", "features_meta.json", "features.npz"):
        shutil.copy(out / name, tmp_path / name)
    assert main(["ingest", *base, "--out", str(tmp_path)]) == 0
    assert main(["screen", *base, "--out", str(tmp_path)]) == 0  # built from the same snapshot
    records = [json.loads(line) for line in (root / "data" / "campaigns.jsonl").read_text().splitlines()]
    for r in records[::2]:
        r["raised_amount"] = round(r["raised_amount"] * 1.5, 2)
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["ingest", *base, "--out", str(tmp_path), "--campaigns", str(edited)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    for command in ("screen", "evaluate", "train"):
        assert main([command, *base, "--out", str(tmp_path), "--trees", "2"]) == 3, command
        assert capsys.readouterr().err.rstrip().endswith("rerun featurize"), command
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _truncate_bytes(data):
    return data[: len(data) // 2]


def _drop_npz_member(data):
    buf = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as src, zipfile.ZipFile(buf, "w") as dst:
        for item in src.infolist():
            if item.filename != "class_two.npy":
                dst.writestr(item, src.read(item))
    return buf.getvalue()


@pytest.mark.parametrize("corrupt", [
    _truncate_bytes,
    lambda data: b"id,x\nc1,1.0\n",
    _drop_npz_member,
], ids=["truncated", "not-zip", "missing-key"])
@pytest.mark.parametrize("command", ["screen", "evaluate", "train"])
def test_corrupt_features_npz_exits_3(pipeline_dir, tmp_path, capsys, command, corrupt):
    root, out, base = pipeline_dir
    for name in ("dataset.jsonl", "features.csv", "features_meta.json"):
        shutil.copy(out / name, tmp_path / name)
    npz = tmp_path / "features.npz"
    npz.write_bytes(corrupt((out / "features.npz").read_bytes()))
    assert main([command, *base, "--out", str(tmp_path), "--trees", "2"]) == 3
    err = capsys.readouterr().err
    assert str(npz) in err and err.rstrip().endswith("rerun featurize")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dataset.jsonl", "features.csv", "features.npz", "features_meta.json"]


def test_features_npz_holds_the_exact_features(pipeline_dir):
    # The stages after featurize see the bits predict builds in memory.
    root, out, base = pipeline_dir
    cfg = load_config(None, build_parser().parse_args(["featurize", *base]))
    registry = CategoryRegistry.default()
    campaigns, _ = load_campaigns(root / "data" / "campaigns.jsonl", registry)  # predict's path
    built = build_feature_matrix(campaigns, registry, **_feature_inputs(_dataset_paths(cfg)))
    saved, saved_labels, _ = _load_features(_dataset_paths(cfg))
    assert saved.ids == built.ids and saved.names == built.names
    assert np.array_equal(saved.values, built.values, equal_nan=True)
    dataset = [json.loads(line) for line in (out / "dataset.jsonl").read_text().splitlines()]
    assert saved_labels["class_two"] == [r["class_two"] for r in dataset]


def test_featurize_twice_writes_identical_features_npz(pipeline_dir, tmp_path):
    root, out, base = pipeline_dir
    shutil.copy(out / "dataset.jsonl", tmp_path / "dataset.jsonl")
    runs = []
    for wait in (1.1, 0):
        assert main(["featurize", *base, "--out", str(tmp_path)]) == 0
        runs.append((tmp_path / "features.npz").read_bytes())
        time.sleep(wait)  # a zip entry stamped with the wall clock would differ
    assert runs[0] == runs[1] == (out / "features.npz").read_bytes()


@pytest.fixture(scope="module")
def served(pipeline_dir):
    """Models trained on the shared run, plus fresh campaigns to score:
    two per band, the second of B1 without a cover image."""
    root, out, base = pipeline_dir
    models = root / "serve_models"
    assert main(["train", *base, "--trees", "5", "--models", str(models)]) == 0
    records = [json.loads(line) for line in (root / "data" / "campaigns.jsonl").read_text().splitlines()]
    fresh = []
    for band_goal in (lambda g: g <= 8_000, lambda g: 8_000 < g <= 40_000):
        fresh.extend([r for r in records if band_goal(r["goal_amount"])][:2])
    for i, r in enumerate(fresh):
        r["id"] = f"fresh{i}"
    fresh[1]["cover_image"] = None
    batch = root / "fresh.jsonl"
    batch.write_text("".join(json.dumps(r) + "\n" for r in fresh))
    return models, batch


def _predictions(path):
    with path.open(newline="") as fh:
        return {row["id"]: row for row in csv.DictReader(fh)}


def test_predict_imputes_a_campaign_without_cover(pipeline_dir, served, tmp_path):
    root, out, base = pipeline_dir
    models, batch = served
    assert main(["predict", *base, "--out", str(tmp_path), "--models", str(models), str(batch)]) == 0
    rows = _predictions(tmp_path / "predictions.csv")
    assert list(rows) == ["fresh0", "fresh1", "fresh2", "fresh3"]
    assert {r["goal_band"] for r in rows.values()} == {"B1", "B2"}
    assert all(r["predicted_class"] in ("-2", "2") for r in rows.values())
    imputed = set(rows["fresh1"]["imputed_features"].split(";"))
    assert {"aesthetic_score", "technical_score", "num_faces", "any_smile",
            "face_mean_age", "face_emotion_anger"} <= imputed
    assert not {"image_quality_missing", "face_missing"} & imputed
    assert "aesthetic_score" not in rows["fresh0"]["imputed_features"]


def test_predict_with_changed_features_exits_3_before_writing(pipeline_dir, served, tmp_path, capsys):
    root, out, base = pipeline_dir
    models, batch = served
    lexicon = tmp_path / "renamed.dic"
    demo = (Path(__file__).parents[1] / "src" / "fundlens" / "data" / "demo_lexicon.dic").read_text()
    lexicon.write_text(demo.replace("5\tthey\n", "5\tthem\n", 1))
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("untouched\n")
    args = ["predict", *base, "--out", str(tmp_path), "--models", str(models)]
    assert main([*args, "--lexicon", str(lexicon), str(batch)]) == 3
    assert "retrain" in capsys.readouterr().err
    assert predictions.read_text() == "untouched\n"

    # Model metadata written before every column stored its training median.
    old = tmp_path / "old_models"
    shutil.copytree(models, old)
    meta = json.loads((old / "B1_meta.json").read_text())
    indicators = json.loads((old / "B1.json").read_text())["feature_names"]
    meta["medians"] = {n: v for n, v in meta["medians"].items() if f"{n}__missing" in indicators}
    (old / "B1_meta.json").write_text(json.dumps(meta))
    assert main(["predict", *base, "--out", str(tmp_path), "--models", str(old), str(batch)]) == 3
    assert "retrain" in capsys.readouterr().err
    assert predictions.read_text() == "untouched\n"


def _truncate(text):
    return text[: len(text) // 2]


def _corrupt_tree(field, value):
    def corrupt(text):
        payload = json.loads(text)
        tree = payload["trees"][0]
        tree[field] = value(tree)
        return json.dumps(payload)
    return corrupt


def _drop_trees(text):
    payload = json.loads(text)
    del payload["trees"]
    return json.dumps(payload)


def _no_trees_config(text):
    payload = json.loads(text)
    payload["config"]["n_estimators"] = 0
    return json.dumps(payload)


def _rename_last_feature(text):
    payload = json.loads(text)
    payload["feature_names"][-1] = "not_a_column__missing"
    return json.dumps(payload)


def _labels(labels):
    def corrupt(text):
        payload = json.loads(text)
        payload["labels"] = labels
        return json.dumps(payload)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _truncate,
    _drop_trees,
    _corrupt_tree("feature", lambda t: [10_000] + t["feature"][1:]),
    _corrupt_tree("left", lambda t: [0] + t["left"][1:]),  # the root as its own child: a cycle
    _corrupt_tree("counts", lambda t: [row + [0.0] for row in t["counts"]]),
    _no_trees_config,
    _labels(["a", "b"]),
    _labels([[-2], [2]]),
    _labels([2, 2]),
    _corrupt_tree("counts", lambda t: [[0.0] * len(row) for row in t["counts"]]),
    _corrupt_tree("counts", lambda t: [[-1.0, *row[1:]] for row in t["counts"]]),
    _corrupt_tree("counts", lambda t: [[float("nan"), *row[1:]] for row in t["counts"]]),
    _corrupt_tree("threshold", lambda t: [float("nan")] * len(t["threshold"])),
    _rename_last_feature,
], ids=["truncated", "no-trees", "feature-out-of-range", "child-not-after-node", "counts-width",
        "bad-config", "string-labels", "nested-labels", "repeated-labels", "zero-counts",
        "negative-count", "nan-count", "nan-threshold", "unknown-feature-name"])
def test_corrupt_model_exits_3_before_writing(pipeline_dir, served, tmp_path, capsys, corrupt):
    root, out, base = pipeline_dir
    models, batch = served
    broken = tmp_path / "models"
    shutil.copytree(models, broken)
    model = broken / "B1.json"
    model.write_text(corrupt(model.read_text()))
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("untouched\n")
    assert main(["predict", *base, "--out", str(tmp_path), "--models", str(broken), str(batch)]) == 3
    err = capsys.readouterr().err
    assert str(model) in err and err.rstrip().endswith("retrain")
    assert "Traceback" not in err
    assert predictions.read_text() == "untouched\n"


def _meta(field, value):
    def corrupt(meta):
        meta[field] = value(meta)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _meta("medians", lambda m: list(m["medians"].values())),
    _meta("medians", lambda m: {n: str(v) for n, v in m["medians"].items()}),
    _meta("medians", lambda m: dict.fromkeys(m["medians"])),
    _meta("medians", lambda m: dict.fromkeys(m["medians"], True)),
    _meta("medians", lambda m: dict.fromkeys(m["medians"], 10**400)),
    _meta("medians", lambda m: dict.fromkeys(m["medians"], float("nan"))),
    _meta("medians", lambda m: {**m["medians"], "extra": 0.0}),
    _meta("base_names", lambda m: 5),
    _meta("base_names", lambda m: [*m["base_names"][:-1], 5]),
    _meta("base_names", lambda m: m["base_names"][::-1]),
], ids=["medians-list", "string-medians", "null-medians", "bool-medians", "huge-medians",
        "nan-medians", "extra-median", "base-names-int", "base-name-int", "reordered-base-names"])
def test_corrupt_model_meta_exits_3_before_writing(pipeline_dir, served, tmp_path, capsys, corrupt):
    root, out, base = pipeline_dir
    models, batch = served
    broken = tmp_path / "models"
    shutil.copytree(models, broken)
    meta_path = broken / "B1_meta.json"
    meta = json.loads(meta_path.read_text())
    corrupt(meta)
    meta_path.write_text(json.dumps(meta))
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("untouched\n")
    assert main(["predict", *base, "--out", str(tmp_path), "--models", str(broken), str(batch)]) == 3
    err = capsys.readouterr().err
    assert str(meta_path) in err and err.rstrip().endswith("retrain")
    assert "Traceback" not in err
    assert predictions.read_text() == "untouched\n"


def test_predict_reports_rejected_lines(pipeline_dir, served, tmp_path, capsys):
    root, out, base = pipeline_dir
    models, batch = served
    good = batch.read_text().splitlines()[:2]
    foreign = json.loads(good[0])
    foreign.update(id="abroad", country="CA")
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join([good[0], json.dumps(foreign), "{not json", good[1]]) + "\n")
    capsys.readouterr()
    assert main(["predict", *base, "--out", str(tmp_path), "--models", str(models), str(mixed)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("predict: 2 campaigns rejected=2 bad_json=1 non_us=1 -> ")
    assert list(_predictions(tmp_path / "predictions.csv")) == ["fresh0", "fresh1"]


def test_screened_four_class_models_serve_the_screened_features(pipeline_dir, tmp_path):
    # With --assembly screened, train gates each band like evaluate does:
    # basic columns, missingness indicators and the band's screened features.
    root, out, base = pipeline_dir
    for name in ("dataset.jsonl", "features.csv", "features_meta.json", "features.npz"):
        shutil.copy(out / name, tmp_path / name)
    args = [*base, "--out", str(tmp_path), "--assembly", "screened", "--target", "four-class",
            "--trees", "5"]
    assert main(["screen", *args]) == 0
    assert main(["evaluate", *args, "--cv-folds", "2", "--settings", "Basic,EarlyFusionAll"]) == 0
    assert main(["train", *args]) == 0
    modalities = json.loads((tmp_path / "features_meta.json").read_text())["modalities"]
    with (tmp_path / "screening.csv").open(newline="") as fh:
        fh.readline()  # the alpha comment
        screened = [(r["goal_band"], r["feature"]) for r in csv.DictReader(fh)]
    for band in ("B1", "B2"):
        meta = json.loads((tmp_path / "models" / f"{band}_meta.json").read_text())
        gated = {n for n in meta["base_names"]
                 if modalities[n] != "basic" and not n.endswith("_missing")}
        assert gated, band
        assert gated <= {f for b, f in screened if b == band}, band
    assert main(["predict", *args, str(root / "data" / "campaigns.jsonl")]) == 0
    rows = _predictions(tmp_path / "predictions.csv")
    assert len(rows) == 220
    assert {r["predicted_class"] for r in rows.values()} <= {"-2", "-1", "1", "2"}
