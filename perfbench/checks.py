"""Output checks and artifact digests for one pipeline pass.

Each check is one operation in the run's ``attempted`` count; a check that
does not hold adds one to ``failed`` and a line to the run's problem list.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

#: Planted features screening must recover in every cell, with their sign.
PLANTED_SIGNS = {"liwc_insight": -1, "technical_score": 1}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_body(path: Path) -> bytes:
    """report.csv without its ``#`` lines: the header lines carry the config
    fingerprint, which includes ``jobs``."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(b"#"))


def digests(out: Path) -> dict:
    """sha256 of every artifact the determinism contract covers."""
    d = {
        "features.csv": _sha((out / "features.csv").read_bytes()),
        "screening.csv": _sha((out / "screening.csv").read_bytes()),
        "report.csv body": _sha(report_body(out / "report.csv")),
        "predictions.csv": _sha((out / "predictions.csv").read_bytes()),
    }
    for model in sorted((out / "models").glob("*.json")):
        d[f"models/{model.name}"] = _sha(model.read_bytes())
    return d


def _csv_rows(path: Path) -> list:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_report(out: Path, workload) -> tuple:
    """Rows: every requested setting for B1/B2, Basic for B3/B4, one
    Total(Weighted) row per requested setting. Returns (problems, fused_f1)."""
    rows = _csv_rows(out / "report.csv")
    bands = sorted({b for b, _, _ in workload.cells})
    expected = [(b, s) for b in bands
                for s in (workload.settings if b in ("B1", "B2") else ("Basic",))]
    expected += [("Total(Weighted)", s) for s in workload.settings]
    got = [(r["goal_band"], r["setting"]) for r in rows]
    problems = []
    if sorted(got) != sorted(expected):
        problems.append(f"report.csv rows {got} != expected {expected}")
    fused = [r for r in rows if r["goal_band"] == "Total(Weighted)" and r["setting"] == "EarlyFusionAll"]
    fused_f1 = float(fused[0]["f1"]) if fused else float("nan")
    return problems, fused_f1


def check_screening(out: Path, workload) -> list:
    """The planted effects are significant, with the planted sign, in every cell."""
    rows = _csv_rows(out / "screening.csv")
    found = {(r["goal_band"], r["category"], r["feature"]): float(r["r"]) for r in rows}
    problems = []
    for band, cat, _ in workload.cells:
        for feature, sign in PLANTED_SIGNS.items():
            r = found.get((band, cat, feature))
            if r is None or r * sign <= 0:
                problems.append(f"screening.csv: {feature} not recovered in {band}/{cat} (r={r})")
    return problems


def load_fresh(path: Path) -> list:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_predictions(out: Path, fresh: list, trained_bands: set, band_of, class_of) -> tuple:
    """One row per input campaign in input order; rows of a band without a
    model are blank. Returns (problems, serve_accuracy) where accuracy is
    over the modelled rows against ``class_of(raised / goal)``."""
    rows = _csv_rows(out / "predictions.csv")
    problems = []
    if [r["id"] for r in rows] != [c["id"] for c in fresh]:
        problems.append("predictions.csv ids are not the input campaigns in input order")
        return problems, float("nan")
    hits = modelled = 0
    for r, c in zip(rows, fresh):
        band = band_of(c["goal_amount"])
        if r["goal_band"] != band:
            problems.append(f"predictions.csv: {c['id']} band {r['goal_band']} != {band}")
        elif band not in trained_bands:
            if any(r[k] for k in ("predicted_class", "probability", "top_features")):
                problems.append(f"predictions.csv: {c['id']} in {band} has no model but is not blank")
        elif r["predicted_class"] not in ("-2", "2"):
            problems.append(f"predictions.csv: {c['id']} has class {r['predicted_class']!r}")
        else:
            modelled += 1
            hits += int(r["predicted_class"]) == class_of(c["raised_amount"] / c["goal_amount"])
    if modelled == 0:
        problems.append("predictions.csv has no modelled rows")
    return problems[:5], (hits / modelled if modelled else float("nan"))
