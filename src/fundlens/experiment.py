"""Evaluation protocol: feature-set settings, early/late fusion, stratified
90/10 split plus k-fold cross-validation, per-band metrics, weighted totals.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import forest as rf, parallel
from .core import BANDS
from .errors import EmptySetting, InsufficientData, ShapeError
from .features import FeatureMatrix, impute_with_indicators

if TYPE_CHECKING:  # cli imports this module
    from .cli import RunConfig


class Setting(Enum):
    BASIC = "Basic"
    LIWC = "LIWC"
    POPULATION = "Population"
    FACE = "Face"
    IMAGE_QUALITY = "ImageQuality"
    EARLY_FUSION_ALL = "EarlyFusionAll"
    LATE_FUSION = "LateFusion"


#: The modality groups of each setting, one model per group. A setting with more than
#: one group is late fusion: its models' class probabilities are averaged.
SETTING_GROUPS = {
    Setting.BASIC: (("basic",),),
    Setting.LIWC: (("text",),),
    Setting.POPULATION: (("population",),),
    Setting.FACE: (("face",),),
    Setting.IMAGE_QUALITY: (("image_quality",),),
    Setting.EARLY_FUSION_ALL: (("basic", "population", "text", "image_quality", "face"),),
    Setting.LATE_FUSION: (("text",), ("image_quality", "face")),
}


def _columns(matrix: FeatureMatrix, modalities, screened_names=None) -> list:
    """The names of the columns of some modalities, optionally gated to screened features.

    In screened mode only features found significant for the cell are kept
    (the two-step screen-then-classify procedure); basic columns and
    missingness indicators are never gated, since screening covers the
    non-basic feature columns.
    """
    picked = [(n, m) for n, m in zip(matrix.names, matrix.modalities) if m in modalities]
    if not picked:
        raise EmptySetting(f"no columns for modalities {tuple(modalities)}")
    names = [n for n, m in picked if screened_names is None
             or m == "basic" or n in screened_names or n.endswith("_missing")]
    if not names:
        raise EmptySetting("no columns left after name filter")
    return names


def assemble(matrix: FeatureMatrix, setting: Setting, screened_names=None) -> FeatureMatrix:
    """Column filter for a one-model setting; see _columns for the gate."""
    groups = SETTING_GROUPS[setting]
    if len(groups) > 1:
        raise EmptySetting(f"{setting.value} fits a model per modality group; use assemble per group")
    return matrix.select_names(_columns(matrix, groups[0], screened_names))


def fuse(models, xs) -> np.ndarray:
    """The labels of the argmax of the models' mean class probabilities, each model
    applied to its own input; ties go to the lower label. One model gives its own
    ``predict``. Every model of a setting is fitted on the same labels."""
    proba = np.mean([m.predict_proba(x) for m, x in zip(models, xs)], axis=0)
    return models[0].labels[np.argmax(proba, axis=1)]


def stratified_kfold(y, k: int = 10, seed: int = 0):
    """k disjoint stratified folds; per-fold class counts within 1 of proportion.

    When some class has fewer than k members, k is lowered to that count
    (never below 2) and a note is returned.
    """
    y = np.asarray(y)
    n = y.size
    if n < 2:
        raise InsufficientData(f"need at least 2 samples to fold, got {n}")
    labels, counts = np.unique(y, return_counts=True)
    note = None
    k_eff = int(k)
    min_count = int(counts.min())
    if min_count < k_eff:
        k_eff = max(2, min_count)
        note = f"k lowered from {k} to {k_eff}: smallest class has {min_count} members"
    rng = np.random.default_rng(seed)
    # Each class's rows, shuffled, are dealt round-robin onto the folds.
    dealt = np.concatenate([rng.permutation(np.flatnonzero(y == label)) for label in labels])
    return [np.sort(dealt[f::k_eff]) for f in range(k_eff)], note


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    per_class: dict
    support: dict
    zero_division: bool = False


def compute_metrics(y_true, y_pred) -> Metrics:
    """Support-weighted precision/recall/F1 from the confusion matrix.

    Weighted recall equals accuracy by construction. Zero-denominator
    per-class precision is defined as 0 and flagged.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ShapeError("y_true and y_pred must be equal-length, non-empty")
    labels = np.unique(np.concatenate([y_true, y_pred]))
    accuracy = float((y_true == y_pred).mean())
    per_class = {}
    support = {}
    zero_division = False
    w_precision = w_recall = w_f1 = 0.0
    n = y_true.size
    for label in labels:
        tp = int(((y_true == label) & (y_pred == label)).sum())
        fp = int(((y_true != label) & (y_pred == label)).sum())
        fn = int(((y_true == label) & (y_pred != label)).sum())
        sup = tp + fn
        if tp + fp == 0:
            precision = 0.0
            if sup > 0:
                zero_division = True
        else:
            precision = tp / (tp + fp)
        recall = tp / sup if sup > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[int(label)] = {"precision": precision, "recall": recall, "f1": f1}
        support[int(label)] = sup
        w_precision += sup * precision / n
        w_recall += sup * recall / n
        w_f1 += sup * f1 / n
    return Metrics(
        accuracy=accuracy, precision=w_precision, recall=w_recall, f1=w_f1,
        per_class=per_class, support=support, zero_division=zero_division,
    )


@dataclass
class ReportRow:
    goal_band: str
    setting: str
    n_train: int
    n_test: int
    holdout: Metrics
    cv: Optional[dict] = None  # mean metrics over CV folds


@dataclass
class ExperimentReport:
    header: dict
    rows: list
    totals: list
    notes: list

    _COLUMNS = (
        "goal_band", "setting", "n_train", "n_test",
        "accuracy", "precision", "recall", "f1",
        "cv_accuracy", "cv_precision", "cv_recall", "cv_f1",
    )

    def to_csv_text(self) -> str:
        lines = [f"# {k}={self.header[k]}" for k in sorted(self.header)]
        lines.append(",".join(self._COLUMNS))

        def fmt(v):
            return "" if v is None else f"{v:.6f}"

        for row in self.rows + self.totals:
            cv = row.cv or {}
            lines.append(",".join([
                row.goal_band, row.setting, str(row.n_train), str(row.n_test),
                fmt(row.holdout.accuracy), fmt(row.holdout.precision),
                fmt(row.holdout.recall), fmt(row.holdout.f1),
                fmt(cv.get("accuracy")), fmt(cv.get("precision")),
                fmt(cv.get("recall")), fmt(cv.get("f1")),
            ]))
        for note in self.notes:
            lines.append(f"# note: {note}")
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        def as_json(row: ReportRow, **cv):
            holdout = asdict(row.holdout)
            for k in ("per_class", "support"):
                holdout[k] = {str(label): v for label, v in holdout[k].items()}
            return {"goal_band": row.goal_band, "setting": row.setting, "n_train": row.n_train,
                    "n_test": row.n_test, "holdout": holdout, **cv}

        payload = {"header": self.header, "rows": [as_json(r, cv=r.cv) for r in self.rows],
                   "totals": [as_json(r) for r in self.totals], "notes": self.notes}
        return json.dumps(payload, sort_keys=True, indent=1)


def _derived_seed(*parts) -> int:
    blob = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "big") >> 1


def _model_columns(matrix: FeatureMatrix, setting: Setting, screened_names=None) -> tuple:
    """Column names of each model a setting trains, one per group in SETTING_GROUPS.
    Raises EmptySetting when a model would have none, or only columns that are
    constant on the matrix's rows (NaN counting as a value): its input was not measured."""
    at = {name: j for j, name in enumerate(matrix.names)}
    models = []
    for group in SETTING_GROUPS[setting]:
        names = _columns(matrix, group, screened_names)
        v = matrix.values[:, [at[n] for n in names]]
        if ((v == v[0]) | (np.isnan(v) & np.isnan(v[0]))).all():
            raise EmptySetting(f"no column of {'+'.join(group)} varies on the band's rows")
        models.append(tuple(names))
    return tuple(models)


@dataclass(frozen=True)
class _FoldTask:
    """The holdout split or one CV fold of a band: impute every band column once
    on ``fit_rows``, then train each setting's model(s) there and predict
    ``apply_rows``. Holds the whole band matrix, so it copies no rows until it runs."""
    band: FeatureMatrix
    y: np.ndarray          # labels of the band rows
    fit_rows: np.ndarray
    apply_rows: np.ndarray
    forest: rf.ForestConfig
    settings: tuple        # (tree seed parts, columns from _model_columns) per setting


def _fit_predict(task: _FoldTask) -> list:
    """Train per the task; one prediction vector for its apply rows per setting.
    A column's median depends only on its own fit rows, so each model's columns,
    picked by name from the imputed band, equal imputing those columns alone."""
    values = task.band.values
    Xtr, Xte, names, _ = impute_with_indicators(
        values[task.fit_rows], values[task.apply_rows], task.band.names)
    at = {name: j for j, name in enumerate(names)}
    y = task.y[task.fit_rows]
    predictions = []
    for seed_parts, columns in task.settings:
        late = len(columns) > 1
        models, xs = [], []
        for gi, group in enumerate(columns):
            picked = [at[n] for n in group]
            seed = _derived_seed(*seed_parts, "late", gi) if late else _derived_seed(*seed_parts)
            models.append(rf.fit(Xtr[:, picked], y, replace(task.forest, seed=seed), feature_names=group))
            xs.append(Xte[:, picked])
        predictions.append(fuse(models, xs))
    return predictions


def labeled_bands(bands, labels, min_band_n: int, notes: list):
    """(band, row indices, labels) of each band with at least ``min_band_n`` labeled
    rows, in band order; a smaller band is noted as skipped. A generator, so that
    note follows the notes the caller made for the bands before it."""
    for band in BANDS:
        idx = np.asarray([i for i, (b, lab) in enumerate(zip(bands, labels))
                          if b == band and lab is not None], dtype=np.intp)
        if idx.size < min_band_n:
            notes.append(f"skipped band {band}: n={idx.size} < {min_band_n}")
            continue
        yield band, idx, np.asarray([labels[i] for i in idx])


#: The metrics averaged over CV folds and, weighted by test size, over bands.
_AVERAGED = ("accuracy", "precision", "recall", "f1")


def run_experiment(bands, labels, matrix: FeatureMatrix, cfg: RunConfig, header: dict,
                   screened_by_band=None) -> ExperimentReport:
    """Per-band 90/10 stratified holdout evaluation plus k-fold CV on the 90%.

    ``bands``/``labels`` align with matrix rows; None entries (dropped ratio,
    out-of-range goal) are excluded. Weighted totals use band test sizes.
    ``screened_by_band`` (band -> feature names), if given, gates the columns.
    Each band draws its holdout split and CV folds once, and all its settings
    fit on those rows. Every (band, split) task is planned first (notes included),
    then all run through one ``parallel.parallel_map`` on up to ``cfg.jobs`` processes,
    then rows are scored in plan order, so the report does not depend on ``cfg.jobs``.
    """
    bands = list(bands)
    labels = list(labels)
    if len(bands) != len(matrix.ids) or len(labels) != len(matrix.ids):
        raise ShapeError("bands and labels must align with matrix rows")
    forest = cfg.forest_config()
    notes: list = []
    tasks: list = []
    planned: list = []  # (band, settings, n_train, n_test, its tasks: holdout first, then CV folds)
    for band, idx, y_band in labeled_bands(bands, labels, cfg.min_band_n, notes):
        if np.unique(y_band).size < 2:
            notes.append(f"skipped band {band}: single class")
            continue
        sub = matrix.take_rows(idx)
        folds, note = stratified_kfold(y_band, k=10, seed=_derived_seed(cfg.seed, band, "holdout"))
        if note:
            notes.append(f"{band} holdout: {note}")
        test_rows = folds[0]
        train_rows = np.setdiff1d(np.arange(idx.size), test_rows)
        screened_names = None if screened_by_band is None else screened_by_band.get(band, set())
        settings = []
        for setting in cfg.settings if band in cfg.full_settings_bands else (Setting.BASIC,):
            try:
                settings.append((setting, _model_columns(sub, setting, screened_names)))
            except EmptySetting as exc:
                notes.append(f"skipped {band}/{setting.value}: {exc}")
        if not settings:
            continue
        splits = [(train_rows, test_rows, ())]
        if cfg.cv_folds >= 2:
            cv_folds, cv_note = stratified_kfold(
                y_band[train_rows], k=cfg.cv_folds, seed=_derived_seed(cfg.seed, band, "cv"))
            if cv_note:
                notes.append(f"{band} cv: {cv_note}")
            splits += [(train_rows[np.setdiff1d(np.arange(train_rows.size), fold)], train_rows[fold],
                        ("cv", fi)) for fi, fold in enumerate(cv_folds)]
        first = len(tasks)
        tasks += [_FoldTask(sub, y_band, fit_rows, apply_rows, forest,
                            tuple(((cfg.seed, band, s.value, *seed_suffix), columns)
                                  for s, columns in settings))
                  for fit_rows, apply_rows, seed_suffix in splits]
        planned.append((band, settings, train_rows.size, test_rows.size, slice(first, len(tasks))))

    predictions = parallel.parallel_map(_fit_predict, tasks, cfg.jobs)
    rows: list = []
    for band, settings, n_train, n_test, span in planned:
        for si, (setting, _) in enumerate(settings):
            holdout, *cv = [compute_metrics(t.y[t.apply_rows], pred[si])
                            for t, pred in zip(tasks[span], predictions[span])]
            cv_means = {k: float(np.mean([getattr(m, k) for m in cv])) for k in _AVERAGED} if cv else None
            rows.append(ReportRow(band, setting.value, int(n_train), int(n_test), holdout, cv_means))

    totals = []
    for setting in [s.value for s in cfg.settings]:
        group = [row for row in rows if row.setting == setting]
        if not group:
            continue
        weights = np.asarray([r.n_test for r in group], dtype=np.float64)
        weights = weights / weights.sum()
        averaged = {k: float(sum(w * getattr(r.holdout, k) for w, r in zip(weights, group)))
                    for k in _AVERAGED}
        totals.append(ReportRow("Total(Weighted)", setting, int(sum(r.n_train for r in group)),
                                int(sum(r.n_test for r in group)),
                                Metrics(**averaged, per_class={}, support={})))

    return ExperimentReport(header=header, rows=rows, totals=totals, notes=notes)
