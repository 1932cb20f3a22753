"""Campaign feature matrix assembly across all modalities.

Columns are modality-tagged; NaN marks a missing value and each modality
with possible misses carries an explicit missingness indicator, so nothing
is ever silently fabricated.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import CategoryRegistry
from .errors import EmptySetting, SchemaError, ShapeError
from .images import FACE_COLUMNS
from .ingest import PopulationTable
from .stats import pow2_scaled
from .text import Lexicon, campaign_text, clout_surrogate, extract

#: features.npz keeps the label columns (core.LABEL_KEYS) beside the values; a missing
#: goal band is stored as "" and a missing class as _NO_CLASS (no class is 0).
_NO_CLASS = 0


@dataclass
class FeatureMatrix:
    """Dense named feature matrix; rows align with campaign ids."""

    ids: list
    names: list
    modalities: list
    values: np.ndarray  # (n, d) float64, NaN = missing

    def __post_init__(self):
        if len(self.names) != len(self.modalities):
            raise ShapeError("names and modalities must align")
        if self.values.shape != (len(self.ids), len(self.names)):
            raise ShapeError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.ids)} ids x {len(self.names)} names"
            )

    def select_names(self, names) -> "FeatureMatrix":
        wanted = set(names)
        keep = [j for j, n in enumerate(self.names) if n in wanted]
        if not keep:
            raise EmptySetting("no columns left after name filter")
        return FeatureMatrix(
            ids=self.ids,
            names=[self.names[j] for j in keep],
            modalities=[self.modalities[j] for j in keep],
            values=self.values[:, keep],
        )

    def take_rows(self, rows) -> "FeatureMatrix":
        rows = np.asarray(rows, dtype=np.intp)
        return FeatureMatrix(
            ids=[self.ids[i] for i in rows],
            names=self.names,
            modalities=self.modalities,
            values=self.values[rows],
        )

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise SchemaError(f"no such feature column: {name!r}") from None
        return self.values[:, j]

    def save(self, csv_path, meta_path, npz_path, labels: dict, provenance: dict,
             dataset_sha256: str) -> None:
        """Write the exact artifact ``npz_path`` (values bit for bit, ids, names,
        modalities, ``labels``, ``provenance`` and the dataset's sha256; ``load``
        is its only reader) and the write-only export: the CSV at ``.10g`` and
        the modalities and provenance at ``meta_path``."""
        fmt = ",".join(["%.10g"] * len(self.names))
        id_cell = io.StringIO()
        id_writer = csv.writer(id_cell, lineterminator="\n")
        with Path(csv_path).open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(["id", *self.names])
            for cid, row in zip(self.ids, self.values):
                # the id cell as csv quotes it: the row (cid, "") less its ",\n"
                id_cell.seek(0)
                id_cell.truncate()
                id_writer.writerow((cid, ""))
                # one row at a time: tolist() of the whole matrix raises peak RSS.
                # NaN is an empty field; the second pass catches adjacent NaNs.
                cells = f",{fmt % tuple(row.tolist())},".replace(",nan,", ",,").replace(",nan,", ",,")
                fh.write(f"{id_cell.getvalue()[:-2]}{cells[:-1]}\n")
        meta = {"modalities": {n: m for n, m in zip(self.names, self.modalities)}, **provenance}
        Path(meta_path).write_text(json.dumps(meta, sort_keys=True, indent=1), encoding="utf-8")
        np.savez(npz_path, values=np.asarray(self.values, dtype=np.float64),
                 ids=np.asarray(self.ids, dtype=str), names=np.asarray(self.names, dtype=str),
                 modalities=np.asarray(self.modalities, dtype=str),
                 goal_band=np.asarray([b or "" for b in labels["goal_band"]], dtype=str),
                 ratio=np.asarray(labels["ratio"], dtype=np.float64),
                 **{k: np.asarray([_NO_CLASS if c is None else c for c in labels[k]], dtype=np.int64)
                    for k in ("class_two", "class_four")},
                 provenance=np.asarray(json.dumps(provenance, sort_keys=True)),
                 dataset_sha256=np.asarray(dataset_sha256))

    @classmethod
    def load(cls, npz_path, dataset_sha256: str):
        """(matrix, labels, provenance) from ``save``'s ``npz_path``; a corrupt file,
        or one built from a dataset whose sha256 is not ``dataset_sha256``, is a SchemaError."""
        try:
            # np.load leaves a file it opened itself unclosed when zipfile raises
            with open(npz_path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
                matrix = cls(ids=z["ids"].tolist(), names=z["names"].tolist(),
                             modalities=z["modalities"].tolist(), values=z["values"])
                labels = {"goal_band": [b or None for b in z["goal_band"].tolist()], "ratio": z["ratio"]}
                for k in ("class_two", "class_four"):
                    labels[k] = [None if c == _NO_CLASS else c for c in z[k].tolist()]
                provenance = json.loads(z["provenance"].item())
                built_from = z["dataset_sha256"].item()
        except (zipfile.BadZipFile, ValueError, KeyError, OSError, EOFError) as exc:
            raise SchemaError(f"{npz_path} is not a complete feature artifact ({exc}); "
                              f"rerun featurize") from None
        if built_from != dataset_sha256:
            raise SchemaError(f"{npz_path} was built from another dataset file; rerun featurize")
        return matrix, labels, provenance


def _state_code(state: str) -> float:
    """(A..Z, A..Z) -> 0..675; NaN for anything but two ASCII letters."""
    s = state.strip().upper()
    if len(s) != 2 or not (s.isascii() and s.isalpha()):
        return math.nan
    return float((ord(s[0]) - 65) * 26 + (ord(s[1]) - 65))


def build_feature_matrix(
    campaigns,
    registry: CategoryRegistry,
    lexicon: Lexicon,
    population_table: Optional[PopulationTable] = None,
    quality_table: Optional[dict] = None,
    face_provider=None,
) -> FeatureMatrix:
    """One wide matrix per dataset: basic, population, text, image_quality, face."""
    names: list = []
    modalities: list = []

    def col(name, modality):
        names.append(name)
        modalities.append(modality)

    col("launch_year", "basic")
    col("launch_month", "basic")
    col("launch_dow", "basic")
    col("state_code", "basic")
    for label in registry.labels:
        col(f"cat_{label}", "basic")
    col("city_population", "population")
    col("population_missing", "population")
    col("word_count", "text")
    for cat in lexicon.categories:
        col(f"liwc_{cat}", "text")
    has_clout = all(c in lexicon.categories for c in ("we", "you", "i"))
    if has_clout:
        col("clout_surrogate", "text")
    col("aesthetic_score", "image_quality")
    col("technical_score", "image_quality")
    col("image_quality_missing", "image_quality")
    for name in FACE_COLUMNS:
        col(name, "face")
    col("face_missing", "face")

    nan = math.nan
    faces_missing = [nan] * len(FACE_COLUMNS) + [1.0]  # no cover image or no provider
    values = np.empty((len(campaigns), len(names)))
    ids = []
    for i, c in enumerate(campaigns):
        ids.append(c.id)
        # the row lists the columns in the order they are declared above
        row = [c.launch_date.year, c.launch_date.month, c.launch_date.weekday(), _state_code(c.state)]
        row += [1.0 if c.category == label else 0.0 for label in registry.labels]

        if population_table is None:
            row += [nan, 1.0]
        else:
            pop = population_table.lookup(c.city, c.state)
            row += [nan, 1.0] if pop is None else [float(pop), 0.0]

        tf = extract(campaign_text(c.title, c.description), lexicon)
        row.append(tf.word_count)
        row += [tf.percentages[cat] for cat in lexicon.categories]
        if has_clout:
            row.append(clout_surrogate(tf))

        q = None
        if c.cover_image is not None and quality_table is not None:
            q = quality_table.get(c.cover_image)
        row += [nan, nan, 1.0] if q is None else [q.aesthetic_score, q.technical_score, 0.0]

        if c.cover_image is not None and face_provider is not None:
            row += face_provider.analyze(c.cover_image)
            row.append(0.0)
        else:
            row += faces_missing
        values[i] = row

    return FeatureMatrix(ids=ids, names=names, modalities=modalities, values=values)


def impute_with_indicators(train_values: np.ndarray, apply_values: np.ndarray, names):
    """Fit median imputation on the training rows and apply it to both sides.

    Every column stores its training median (0.0 when it has no finite
    training value); a ``<name>__missing`` indicator is added for each
    column with a NaN in training. Both sides go through apply_imputation;
    with ``apply_values=None`` only the training rows are imputed.

    Returns (train_imputed, apply_imputed or None, out_names, medians).
    """
    train = np.asarray(train_values, dtype=np.float64)
    with np.errstate(over="ignore"):  # _median takes an overflowing median again, scaled
        med = np.median(train, axis=0)
        for j in np.flatnonzero(~np.isfinite(med)):  # a NaN in the column, or an overflow
            finite = train[~np.isnan(train[:, j]), j]
            med[j] = _median(finite) if finite.size else 0.0
    gappy = np.flatnonzero(np.isnan(train).any(axis=0))
    medians = dict(zip(names, med.tolist()))
    out_names = [*names, *(f"{names[j]}__missing" for j in gappy)]
    applied = None if apply_values is None else apply_imputation(apply_values, names, medians, out_names)
    return apply_imputation(train, names, medians, out_names), applied, out_names, medians


def _median(values) -> float:
    """np.median, taken again on values scaled by a power of two when the sum of its two
    middle values overflows (both above about 9e307)."""
    m = float(np.median(values))
    if math.isinf(m):
        scaled, e = pow2_scaled(values)
        m = float(np.ldexp(np.median(scaled), e))
    return m


def apply_imputation(values: np.ndarray, names, medians: dict, out_names):
    """The one imputation transform, for training and prediction rows alike.

    Fills every NaN with its column's training median and appends the
    trained indicator columns (1.0 where the value was missing). ``out_names``
    is ``names`` then ``<name>__missing`` indicators of some of them, as
    impute_with_indicators builds it; predict checks a stored layout when it
    loads the model.
    """
    base = {n: j for j, n in enumerate(names)}
    indicators = [base[name[: -len("__missing")]] for name in out_names[len(names):]]
    vals = np.asarray(values, dtype=np.float64)
    missing = np.isnan(vals)
    filled = np.where(missing, np.asarray([medians[n] for n in names], dtype=np.float64), vals)
    return np.hstack([filled, missing[:, indicators].astype(np.float64)])
