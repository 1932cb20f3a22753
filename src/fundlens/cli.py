"""Operator surface: ingest -> featurize -> screen -> train -> evaluate ->
predict, plus synthetic-data generation and histogram reports.

Runs are reproducible from a single INI config file; command-line flags win
over config values, and the seed is mandatory (no wall-clock default).
Exit codes: 0 success, 1 runtime failure, 2 config/path error, 3 data/shape
error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import forest as rf, parallel
from .core import BANDS, LABEL_KEYS, MAX_GOAL, MAX_RATIO, Campaign, CategoryRegistry, assign_goal_band
from .errors import ConfigError, DataError, FundlensError, SchemaError, utf8_input
from .experiment import SETTING_GROUPS, Setting, assemble, labeled_bands, run_experiment
from .features import FeatureMatrix, apply_imputation, build_feature_matrix, impute_with_indicators
from .images import StubFaceProvider, is_finite_number, load_precomputed_quality
from .ingest import load_campaigns, load_population_table
from .stats import screen
from .synth import SynthSpec, generate_dataset, write_dataset
from .text import load_lexicon


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _parse_list(raw: str) -> tuple:
    return tuple(t.strip() for t in raw.split(",") if t.strip())


def _parse_settings(raw: str) -> tuple:
    settings = tuple(Setting(name) for name in _parse_list(raw))  # ValueError on an unknown name
    if not settings:
        raise ValueError(raw)
    return settings


def _opt(default, parse):
    """A run option: its name is the INI key and, with - for _, the flag."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    seed: Optional[int] = _opt(None, int)
    out: Path = _opt(Path("out"), Path)
    campaigns: Optional[Path] = _opt(None, Path)
    census: Optional[Path] = _opt(None, Path)
    lexicon: Optional[Path] = _opt(None, Path)  # None -> bundled demo lexicon
    quality_scores: Optional[Path] = _opt(None, Path)
    sidecar_root: Optional[Path] = _opt(None, Path)
    categories: Optional[Path] = _opt(None, Path)
    models: Optional[Path] = _opt(None, Path)
    alpha: float = _opt(0.05, float)
    target: str = _opt("two-class", str)
    assembly: str = _opt("all-features", str)
    jobs: int = _opt(1, int)
    trees: int = _opt(100, int)
    min_samples_split: int = _opt(2, int)
    max_depth: Optional[int] = _opt(None, int)
    max_features: Optional[int] = _opt(None, int)
    bootstrap: bool = _opt(True, _parse_bool)
    cv_folds: int = _opt(10, int)
    min_band_n: int = _opt(30, int)
    settings: tuple = _opt(tuple(Setting), _parse_settings)
    #: Bands that run all settings; the rest run Basic only (the high-goal
    #: bands found no extra significant features).
    full_settings_bands: tuple = _opt(("B1", "B2"), _parse_list)
    train_setting: str = _opt("EarlyFusionAll", str)

    def forest_config(self, seed: int = 0) -> rf.ForestConfig:
        return rf.ForestConfig(
            n_estimators=self.trees,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            max_depth=self.max_depth,
            bootstrap=self.bootstrap,
            seed=seed,
        )

    def fingerprint(self) -> str:
        """Hash of the options that decide evaluate's report."""
        payload = {k: getattr(self, k) for k in (
            "seed", "cv_folds", "min_band_n", "target", "assembly", "alpha", "full_settings_bands")}
        payload.update(forest=asdict(self.forest_config()), settings=[s.value for s in self.settings])
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _read_ini(path: str) -> dict:
    """Key -> raw value from every section of an INI file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    # With no default section, [DEFAULT] is read like any other section; with no
    # interpolation, a value such as res%2024 reads as the same flag does.
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    known = {f.name for f in fields(RunConfig)}
    raw: dict = {}
    try:
        parser.read(p, encoding="utf-8")
        for section in parser.sections():
            for key, value in parser.items(section):
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r} in [{section}] of {p}")
                if key in raw:
                    raise ConfigError(f"config key {key!r} is set in more than one section of {p}")
                raw[key] = value
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from None
    return raw


def load_config(path: Optional[str], args: argparse.Namespace) -> RunConfig:
    raw = _read_ini(path) if path is not None else {}
    # Flags win over the config file.
    raw.update({f.name: getattr(args, f.name) for f in fields(RunConfig)
                if getattr(args, f.name, None) is not None})
    values = {}
    for f in fields(RunConfig):
        text = raw.get(f.name, "").strip()
        if not text:
            continue  # an empty value means the default
        try:
            values[f.name] = f.metadata["parse"](text)
        except ValueError:
            raise ConfigError(f"bad value for {f.name}: {text!r}") from None
    cfg = RunConfig(**values)
    if cfg.seed is None:
        raise ConfigError("seed is mandatory: set seed in the config or pass --seed")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.target not in ("two-class", "four-class"):
        raise ConfigError(f"target must be two-class or four-class, got {cfg.target!r}")
    if cfg.assembly not in ("all-features", "screened"):
        raise ConfigError(f"assembly must be all-features or screened, got {cfg.assembly!r}")
    if not set(cfg.full_settings_bands) <= set(BANDS):
        raise ConfigError(f"full_settings_bands must name bands B1-B4, got {cfg.full_settings_bands!r}")
    if cfg.train_setting not in {s.value for s, groups in SETTING_GROUPS.items() if len(groups) == 1}:
        raise ConfigError(f"train_setting must name a single-model setting, got {cfg.train_setting!r}")
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {cfg.jobs}")
    if not 0 <= cfg.alpha <= 1:  # NaN fails too
        raise ConfigError(f"alpha must be in [0, 1], got {cfg.alpha}")
    if cfg.min_band_n < 2:
        raise ConfigError(f"min_band_n must be >= 2, got {cfg.min_band_n}")
    if cfg.cv_folds < 1:
        raise ConfigError(f"cv_folds must be >= 1 (1 runs the holdout only), got {cfg.cv_folds}")
    try:
        cfg.forest_config()
    except ConfigError as exc:  # name the option, not the ForestConfig field
        raise ConfigError(str(exc).replace("n_estimators", "trees")) from None
    return cfg


def _registry(paths: dict) -> CategoryRegistry:
    categories = paths["categories"]
    return CategoryRegistry.load(categories) if categories else CategoryRegistry.default()


def _dataset_paths(cfg: RunConfig) -> dict:
    """Every file a stage reads or writes: the inputs the run names (None when it
    names none) and the artifacts under --out. main adds the stage's positional file."""
    out = Path(cfg.out)
    return {
        **{key: getattr(cfg, key) for key in (
            "campaigns", "census", "quality_scores", "sidecar_root", "lexicon", "categories")},
        "dataset": out / "dataset.jsonl",
        "ingest_report": out / "ingest_report.json",
        "features": out / "features.npz",
        "features_csv": out / "features.csv",
        "features_meta": out / "features_meta.json",
        "screening": out / "screening.csv",
        "screening_notes": out / "screening_notes.json",
        "report_csv": out / "report.csv",
        "report_json": out / "report.json",
        "models": (cfg.models or out / "models"),
        "predictions": out / "predictions.csv",
        "goal_hist": out / "goal_histogram.csv",
        "ratio_hist": out / "ratio_histogram.csv",
        "summary": out / "summary.json",
    }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_dataset(path: Path, registry: CategoryRegistry):
    """The campaigns of the dataset file cmd_ingest wrote, and their label columns.

    Each record is read and checked like a snapshot record, and its stored
    labels must be the ones its amounts give.
    """
    campaigns = []
    labels = {k: [] for k in LABEL_KEYS}
    with Path(path).open("r", encoding="utf-8") as fh, utf8_input(path):
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                campaign = Campaign.from_record(obj, registry)
                stored, expected = {k: obj[k] for k in LABEL_KEYS}, campaign.labels()
            except (DataError, ValueError, KeyError) as exc:
                raise DataError(f"{path}, line {lineno}: malformed dataset record: {exc!r}") from None
            if stored != expected:
                raise DataError(f"{path}, line {lineno}: stored labels {stored} are not the "
                                f"labels of its amounts {expected}; rerun ingest")
            campaigns.append(campaign)
            for k in LABEL_KEYS:
                labels[k].append(expected[k])
    return campaigns, labels


def _load_features(paths: dict):
    """features.npz as (matrix, labels, provenance), checked to be built from
    the current dataset.jsonl (a stale, edited or reordered one is a data error)."""
    return FeatureMatrix.load(paths["features"], _sha256(paths["dataset"]))


def cmd_ingest(cfg: RunConfig, paths: dict) -> int:
    registry = _registry(paths)
    if paths["campaigns"] is None:
        raise ConfigError("missing required path: campaign snapshot")
    campaigns, report = load_campaigns(paths["campaigns"], registry)
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    with paths["dataset"].open("w", encoding="utf-8") as fh:
        for c in campaigns:
            fh.write(json.dumps(c.to_record(), sort_keys=True) + "\n")
    paths["ingest_report"].write_text(
        json.dumps(report.as_dict(), sort_keys=True, indent=1), encoding="utf-8")
    print(f"ingest: accepted={report.accepted} rejected={report.rejected} "
          f"non_us={report.non_us} -> {paths['dataset']}")
    return 0


#: The inputs of build_feature_matrix that featurize and predict read.
_FEATURE_INPUTS = ("census", "quality_scores", "sidecar_root", "lexicon")


def _feature_inputs(paths: dict) -> dict:
    """The build_feature_matrix inputs that featurize and predict share."""
    census, quality, faces = paths["census"], paths["quality_scores"], paths["sidecar_root"]
    return {
        "lexicon": load_lexicon(paths["lexicon"]),
        "population_table": load_population_table(census) if census else None,
        "quality_table": load_precomputed_quality(quality) if quality else None,
        "face_provider": StubFaceProvider(faces) if faces else None,
    }


def cmd_featurize(cfg: RunConfig, paths: dict) -> int:
    registry = _registry(paths)
    campaigns, labels = _load_dataset(paths["dataset"], registry)
    inputs = _feature_inputs(paths)
    matrix = build_feature_matrix(campaigns, registry, **inputs)
    provider = inputs["face_provider"]
    tags = {"quality": "precomputed" if inputs["quality_table"] is not None else "none",
            "faces": provider.tag if provider is not None else "none"}
    provenance = {"provider_tags": tags, "lexicon_fingerprint": inputs["lexicon"].fingerprint}
    matrix.save(paths["features_csv"], paths["features_meta"], paths["features"],
                labels, provenance, _sha256(paths["dataset"]))
    print(f"featurize: {len(matrix.ids)} rows x {len(matrix.names)} features -> {paths['features']}")
    return 0


_SCREEN_MODALITIES = ("text", "image_quality", "face", "population")


def _screen_all(matrix: FeatureMatrix, labels, cfg: RunConfig):
    """Screen every (band, category, modality) cell; returns (rows, notes)."""
    ratios, bands = labels["ratio"], np.asarray(labels["goal_band"], dtype=object)
    analysis = ratios <= MAX_RATIO
    # Category of each row comes from the one-hot basic columns.
    cat_cols = sorted((name[4:], j) for j, name in enumerate(matrix.names) if name.startswith("cat_"))
    # Each modality's screened columns: its features, not its missingness indicators.
    columns = {}
    for modality in _SCREEN_MODALITIES:
        cols = [k for k, m in enumerate(matrix.modalities)
                if m == modality and not matrix.names[k].endswith("_missing")]
        if cols:
            columns[modality] = (cols, [matrix.names[k] for k in cols])
    all_rows = []
    all_notes = []
    for band in BANDS:
        in_band = analysis & (bands == band)
        for cat, j in cat_cols:
            cell = np.flatnonzero(in_band & (matrix.values[:, j] == 1.0))
            if not cell.size:
                continue
            for modality, (cols, names) in columns.items():
                rows, notes = screen(matrix.values[np.ix_(cell, cols)], names, ratios[cell],
                                     band=band, category=cat, alpha=cfg.alpha)
                all_rows.extend((modality, r) for r in rows)
                all_notes.extend(f"{modality}: {n}" for n in notes)
    return all_rows, all_notes


def cmd_screen(cfg: RunConfig, paths: dict) -> int:
    matrix, labels, _ = _load_features(paths)
    rows, notes = _screen_all(matrix, labels, cfg)
    with paths["screening"].open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# alpha={cfg.alpha}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["goal_band", "category", "modality", "feature",
                         "mean", "sd", "r", "p", "n", "threshold"])
        for modality, r in rows:
            writer.writerow([r.goal_band, r.category, modality, r.feature,
                             f"{r.mean:.6f}", f"{r.sd:.6f}", f"{r.r:.6f}",
                             f"{r.p:.6g}", r.n, f"{r.threshold:.6g}"])
    paths["screening_notes"].write_text(
        json.dumps({"notes": notes}, sort_keys=True, indent=1), encoding="utf-8")
    print(f"screen: {len(rows)} significant rows -> {paths['screening']}")
    return 0


#: The label column of features.npz each target trains on.
_CLASS_KEY = {"two-class": "class_two", "four-class": "class_four"}


def _screened_by_band(matrix, labels, cfg):
    rows, _ = _screen_all(matrix, labels, cfg)
    gate: dict = {}
    for _, r in rows:
        gate.setdefault(r.goal_band, set()).add(r.feature)
    return gate


def cmd_evaluate(cfg: RunConfig, paths: dict) -> int:
    matrix, labels, provenance = _load_features(paths)
    screened = _screened_by_band(matrix, labels, cfg) if cfg.assembly == "screened" else None
    header = {k: getattr(cfg, k) for k in ("seed", "target", "assembly", "min_samples_split",
                                           "cv_folds", "alpha")}
    header.update(config_fingerprint=cfg.fingerprint(), n_estimators=cfg.trees,
                  provider_tags=json.dumps(provenance["provider_tags"], sort_keys=True),
                  lexicon_fingerprint=provenance["lexicon_fingerprint"])
    report = run_experiment(labels["goal_band"], labels[_CLASS_KEY[cfg.target]], matrix, cfg,
                            header, screened_by_band=screened)
    paths["report_csv"].write_text(report.to_csv_text(), encoding="utf-8")
    paths["report_json"].write_text(report.to_json_text(), encoding="utf-8")
    print(f"evaluate: {len(report.rows)} rows, {len(report.totals)} totals -> {paths['report_csv']}")
    return 0


def cmd_train(cfg: RunConfig, paths: dict) -> int:
    matrix, labels, _ = _load_features(paths)
    setting = Setting(cfg.train_setting)
    screened = _screened_by_band(matrix, labels, cfg) if cfg.assembly == "screened" else None
    model_dir = paths["models"]
    model_dir.mkdir(parents=True, exist_ok=True)
    fits = []   # _fit_band arguments, one per trained band
    metas = []  # the matching _meta.json contents
    for band, idx, y in labeled_bands(labels["goal_band"], labels[_CLASS_KEY[cfg.target]],
                                      cfg.min_band_n, []):
        sub = assemble(matrix.take_rows(idx), setting,
                       screened.get(band, set()) if screened is not None else None)
        X, _, names, medians = impute_with_indicators(sub.values, None, sub.names)
        fits.append((X, y, cfg.forest_config(seed=cfg.seed), names))
        metas.append({"band": band, "setting": setting.value, "target": cfg.target,
                      "base_names": sub.names, "medians": medians})
    if not fits:
        raise DataError("no band had enough labeled campaigns to train")
    # One parallel_map for the stage: the bands are fitted in parallel, saved in band order.
    for meta, model in zip(metas, parallel.parallel_map(_fit_band, fits, cfg.jobs)):
        model.save(model_dir / f"{meta['band']}.json")
        (model_dir / f"{meta['band']}_meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=1), encoding="utf-8")
    print(f"train: models for {','.join(m['band'] for m in metas)} -> {model_dir}")
    return 0


def _fit_band(args):
    X, y, config, names = args
    return rf.fit(X, y, config, feature_names=names)


def _load_band_model(model_dir: Path, band: str):
    """A band's forest and the feature layout it was trained on."""
    model_path, meta_path = model_dir / f"{band}.json", model_dir / f"{band}_meta.json"
    model = rf.RandomForest.load(model_path)
    labels = model.labels
    if labels.ndim != 1 or labels.dtype.kind != "i" or np.unique(labels).size != labels.size:
        raise SchemaError(f"{model_path}: labels are not distinct integer classes; retrain")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        base_names, medians = meta["base_names"], meta["medians"]
    except (KeyError, TypeError, ValueError):
        raise SchemaError(f"{meta_path} is not a model layout this version reads; retrain") from None
    if not (isinstance(base_names, list) and all(isinstance(n, str) for n in base_names)
            and isinstance(medians, dict) and sorted(medians) == sorted(base_names)
            and all(map(is_finite_number, medians.values()))):
        raise SchemaError(f"{meta_path}: base_names must be strings, each with a finite median; retrain")
    if model.feature_names != base_names:
        raise SchemaError(f"{meta_path} does not describe the columns of {model_path}; retrain")
    return model, base_names, medians


def cmd_predict(cfg: RunConfig, paths: dict) -> int:
    registry = _registry(paths)
    model_dir = paths["models"]
    # The models load before any campaign or feature input is read: a run without one stops here.
    models = {band: _load_band_model(model_dir, band) for band in BANDS
              if (model_dir / f"{band}.json").is_file()}
    if not models:
        raise ConfigError(f"no trained models found under {model_dir}")
    campaigns, report = load_campaigns(paths["campaign_file"], registry)
    matrix = build_feature_matrix(campaigns, registry, **_feature_inputs(paths))
    bands = [assign_goal_band(c.goal_amount) for c in campaigns]
    rows = [[c.id, b.name if b else "OutOfRange", "", "", "", ""] for c, b in zip(campaigns, bands)]
    # Score each band in one batch on the columns its model was trained on.
    for band, (model, base_names, medians) in models.items():
        idx = [i for i, b in enumerate(bands) if b is not None and b.name == band]
        if not idx:
            continue
        sub = matrix.take_rows(idx).select_names(base_names)
        if sub.names != base_names:
            raise SchemaError(f"features for {band} differ from the ones its model was trained on "
                              f"(lexicon or registry changed?); retrain or use the training inputs")
        proba = model.predict_proba(apply_imputation(sub.values, sub.names, medians))
        importances = model.feature_importances()
        top = ";".join(model.feature_names[j] for j in np.argsort(-importances)[:5] if importances[j] > 0)
        missing = np.isnan(sub.values)
        for r, i in enumerate(idx):
            k = int(np.argmax(proba[r]))
            imputed = ";".join(n for n, miss in zip(sub.names, missing[r]) if miss)
            rows[i][2:] = [int(model.labels[k]), f"{proba[r, k]:.6f}", top, imputed]
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    with paths["predictions"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "goal_band", "predicted_class", "probability",
                         "top_features", "imputed_features"])
        writer.writerows(rows)
    rejected = "".join(f" {reason}={n}" for reason, n in sorted(report.reasons.items()))
    print(f"predict: {len(campaigns)} campaigns rejected={report.rejected}{rejected} -> {paths['predictions']}")
    return 0


def cmd_synth(cfg: RunConfig, paths: dict) -> int:
    spec = SynthSpec.from_file(paths["spec_file"])
    ds = generate_dataset(spec, cfg.seed, load_lexicon(paths["lexicon"]), _registry(paths))
    written = write_dataset(ds, cfg.out)
    print(f"synth: {ds.manifest['n_campaigns']} campaigns -> {written['campaigns']}")
    return 0


def cmd_report(cfg: RunConfig, paths: dict) -> int:
    campaigns, labels = _load_dataset(paths["dataset"], _registry(paths))

    def write_hist(path, values, lo, hi, width):
        edges = np.arange(lo, hi + width / 2, width)
        counts, _ = np.histogram(values, bins=edges)
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["bin_left", "bin_right", "count"])
            for left, right, count in zip(edges[:-1], edges[1:], counts):
                writer.writerow([f"{left:.6g}", f"{right:.6g}", int(count)])

    ratios = [r for r in labels["ratio"] if r <= MAX_RATIO]
    goals = [c.goal_amount for c in campaigns if c.goal_amount <= MAX_GOAL]
    write_hist(paths["goal_hist"], goals, 0.0, MAX_GOAL, 4_000.0)
    write_hist(paths["ratio_hist"], ratios, 0.0, MAX_RATIO, 0.1)
    summary = {
        "n": len(campaigns),
        "per_band": {b: labels["goal_band"].count(b) for b in BANDS},
        "per_class_two": {str(k): labels["class_two"].count(k) for k in (-2, 2)},
        "dropped_ratio": labels["class_two"].count(None),
    }
    paths["summary"].write_text(json.dumps(summary, sort_keys=True, indent=1), encoding="utf-8")
    print(f"report: histograms -> {paths['goal_hist']}, {paths['ratio_hist']}")
    return 0


#: Every stage in pipeline order: the _dataset_paths key of every file it reads, and its
#: positional file. main checks that each named file exists, in order, before the stage runs:
#: a named input that is missing is a config error, never a modality silently imputed.
STAGES = {
    "synth": (("spec_file", "categories", "lexicon"), "spec_file"),
    "ingest": (("categories", "campaigns"), None),
    "featurize": (("dataset", "categories", *_FEATURE_INPUTS), None),
    "screen": (("dataset", "features"), None),
    "evaluate": (("dataset", "features"), None),
    "train": (("dataset", "features"), None),
    "predict": (("models", "categories", "campaign_file", *_FEATURE_INPUTS), "campaign_file"),
    "report": (("dataset", "categories"), None),
}
#: When a file a stage reads is missing, its message names the stage that writes
#: it (an artifact) or says what it is (an input).
_WRITER = {"dataset": "ingest", "features": "featurize", "models": "train"}
_WHAT = {"campaigns": "campaign snapshot", "census": "census file", "quality_scores": "quality score file",
         "sidecar_root": "sidecar root", "lexicon": "lexicon file", "categories": "category registry",
         "spec_file": "synthetic spec file", "campaign_file": "campaign file"}
#: What main prints and returns for each error it catches, subclasses first.
_FAILURES = ((ConfigError, "config error", 2), (DataError, "data error", 3),
             (OSError, "io error", 2), (FundlensError, "error", 1))


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser. Given a stage name, only that stage's subparser is built; it parses
    that stage's argv, and prints its help and errors, as the full parser does."""
    parser = argparse.ArgumentParser(prog="fundlens",
                                     description="Multimodal crowdfunding analytics pipeline")
    # A one-stage parser still names every stage in its usage line.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{%s}" % ",".join(STAGES))
    for name, (_, arg) in STAGES.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file; flags override its values")
        for f in fields(RunConfig):
            p.add_argument("--" + f.name.replace("_", "-"))
        if arg:
            p.add_argument(arg)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the named stage's options are built (about 3 ms a stage for all eight); anything
    # else, such as -h or an unknown command, goes to the full parser.
    args = build_parser(argv[0] if argv and argv[0] in STAGES else None).parse_args(argv)
    reads, arg = STAGES[args.command]
    try:
        cfg = load_config(args.config, args)
        paths = _dataset_paths(cfg)
        if arg:
            paths[arg] = Path(getattr(args, arg))
        for key in reads:
            if paths[key] is not None and not paths[key].exists():
                raise ConfigError(f"{paths[key]} not found; run {_WRITER[key]} first" if key in _WRITER
                                  else f"{_WHAT[key]} not found: {paths[key]}")
            # A file given as the root, such as faces.jsonl itself, would read as "no faces".
            if key == "sidecar_root" and paths[key] is not None and not paths[key].is_dir():
                raise ConfigError(f"sidecar root is not a directory: {paths[key]}")
        # Looked up at call time, not kept in a table: the benchmark tracer
        # (perfbench/tracer.py) times a stage by replacing this module attribute.
        return globals()[f"cmd_{args.command}"](cfg, paths)
    except (FundlensError, OSError) as exc:
        kind, code = next((k, c) for cls, k, c in _FAILURES if isinstance(exc, cls))
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
