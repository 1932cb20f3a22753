"""Workload definitions: synthetic cohorts and the CLI flags of each stage.

Every workload runs the same seven stages in the same order, because every
end-to-end metric must be measured on every workload. The workloads differ
in which stage dominates the run:

- ``cv-sweep``: the per-band evaluation table (many small depth-8 forest
  fits, where per-call overhead in the split search dominates).
- ``cv-sweep-jobs2``: the same with ``--jobs 2``, the only workload that runs
  the process pool inside ``forest.fit``.
- ``train-serve``: few large unbounded-depth fits, model JSON save/load and
  row-by-row ``predict`` on a fresh batch that includes a band with no model.
- ``featurize-text``: many campaigns with long descriptions over 32 screening
  cells; its forest stages are tiny, so a forest change should barely move
  it (the bypass workload for forest work).

Sizes are scaled down from the acceptance-10 cohort so that one pass of the
pipeline takes 1–2 s and a run can repeat it 10–20 times.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("ingest", "featurize", "screen", "evaluate", "train", "predict", "report")

ALL_SETTINGS = (
    "Basic", "LIWC", "Population", "Face", "ImageQuality", "EarlyFusionAll", "LateFusion",
)

#: Planted linear effects of acceptance criterion 10. The output checks
#: expect screening to recover ``insight`` (r < 0) and ``technical`` (r > 0).
EFFECTS = (
    {"feature": "insight", "modality": "text", "slope": -0.25},
    {"feature": "technical", "modality": "image_quality", "slope": 0.2},
    {"feature": "num_faces", "modality": "face", "slope": 0.15},
    {"feature": "city_population", "modality": "population", "slope": 0.1},
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple                 # (band, category, n) of the analysed cohort
    fresh_cells: tuple           # (band, category, n) of the batch scored by predict
    words: int = 120             # words per campaign description
    evaluate_flags: tuple = ()
    train_flags: tuple = ()
    settings: tuple = ALL_SETTINGS

    def spec(self, cells) -> dict:
        return {
            "cells": [{"band": b, "category": c, "n": n} for b, c, n in cells],
            "effects": [dict(e) for e in EFFECTS],
            "noise_sigma": 0.2,
            "words_per_description": self.words,
        }

    @property
    def pool_stages(self) -> tuple:
        """Stages run with ``--jobs`` above 1, which start a process pool."""
        return tuple(stage for stage, flags in (("evaluate", self.evaluate_flags),
                                                ("train", self.train_flags))
                     if "--jobs" in flags and int(flags[flags.index("--jobs") + 1]) > 1)

    @property
    def trained_bands(self) -> set:
        """Bands that get a model: train needs at least 30 labelled rows."""
        counts: dict = {}
        for band, _, n in self.cells:
            counts[band] = counts.get(band, 0) + n
        return {b for b, n in counts.items() if n >= 30}


_CV_CELLS = (
    ("B1", "Other", 160),
    ("B1", "Medical, Illness & Healing", 140),
    ("B2", "Animals & Pets", 160),
    ("B2", "Funerals & Memorials", 140),
    ("B3", "Non-Profits & Charities", 200),
    ("B4", "Education & Learning", 200),
)
_CV_FRESH = (
    ("B1", "Other", 100),
    ("B2", "Animals & Pets", 100),
    ("B3", "Non-Profits & Charities", 100),
    ("B4", "Education & Learning", 100),
)
_CV_FOREST = ("--trees", "4", "--max-depth", "8")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cv-sweep",
            why="acceptance-10 cohort scaled to 1,000 campaigns: 54 small depth-8 forest fits "
                "in evaluate, serial",
            cells=_CV_CELLS,
            fresh_cells=_CV_FRESH,
            evaluate_flags=(*_CV_FOREST, "--cv-folds", "2", "--jobs", "1"),
            train_flags=(*_CV_FOREST, "--jobs", "1"),
        ),
        Workload(
            name="cv-sweep-jobs2",
            why="cv-sweep with --jobs 2, the only workload that runs the process pool in "
                "forest.fit",
            cells=_CV_CELLS,
            fresh_cells=_CV_FRESH,
            evaluate_flags=(*_CV_FOREST, "--cv-folds", "2", "--jobs", "2"),
            train_flags=(*_CV_FOREST, "--jobs", "2"),
        ),
        Workload(
            name="train-serve",
            why="two unbounded-depth fits on 600 rows, model save/load and row-by-row predict "
                "of 300 fresh campaigns, 30 of them in a band with no model",
            cells=(
                ("B1", "Other", 300),
                ("B1", "Medical, Illness & Healing", 300),
                ("B2", "Animals & Pets", 300),
                ("B2", "Funerals & Memorials", 300),
            ),
            fresh_cells=(
                ("B1", "Other", 68),
                ("B1", "Medical, Illness & Healing", 67),
                ("B2", "Animals & Pets", 68),
                ("B2", "Funerals & Memorials", 67),
                ("B3", "Non-Profits & Charities", 30),
            ),
            evaluate_flags=("--trees", "5", "--cv-folds", "1", "--jobs", "1"),
            train_flags=("--trees", "10", "--jobs", "1"),
            settings=("EarlyFusionAll",),
        ),
        Workload(
            name="featurize-text",
            why="1,200 campaigns with 300-word texts in 32 screening cells; tiny forests, so "
                "it bypasses forest changes",
            cells=tuple(
                (band, cat, 150)
                for band in ("B1", "B2", "B3", "B4")
                for cat in ("Other", "Animals & Pets")
            ),
            fresh_cells=(
                ("B1", "Other", 50),
                ("B2", "Other", 50),
                ("B3", "Animals & Pets", 50),
                ("B4", "Animals & Pets", 50),
            ),
            words=300,
            evaluate_flags=("--trees", "3", "--max-depth", "6", "--cv-folds", "1", "--jobs", "1"),
            train_flags=("--trees", "3", "--max-depth", "6", "--jobs", "1"),
            settings=("EarlyFusionAll",),
        ),
    )
}
