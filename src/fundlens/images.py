"""Image-quality scores and face attributes via pluggable providers.

The learned quality model and the commercial face service are out of scope,
so images enter the pipeline only through their outputs: (a) a table of
precomputed aesthetic and technical scores (``--quality-scores``) and (b) a
face provider that reads offline sidecar files (``--sidecar-root``).
featurize records which providers it used in ``features_meta.json``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ParseError, RangeError, SchemaError, utf8_input

EMOTION_KEYS = ("anger", "disgust", "fear", "happiness", "neutral", "sadness", "surprise")

#: Age below which a detected face counts as a child.
CHILD_AGE = 10.0


@dataclass(frozen=True)
class ImageQuality:
    aesthetic_score: float
    technical_score: float
    provider: str

    def validate(self) -> None:
        for v in (self.aesthetic_score, self.technical_score):
            if not math.isfinite(v) or not (1.0 <= v <= 10.0):
                raise RangeError(f"quality score out of [1, 10]: {v}")


@dataclass(frozen=True)
class FaceAttributes:
    gender: str                   # "male" or "female"
    age: float                    # [0, 100]
    beauty_female_rater: float    # [0, 100]
    beauty_male_rater: float      # [0, 100]
    smile: bool
    emotion: dict                 # the 7 canonical keys, scores sum to 100 +- 0.5


@dataclass
class CampaignFaceFeatures:
    num_faces: int
    any_smile: int
    is_child: int
    mean_age: Optional[float] = None
    mean_beauty: Optional[float] = None
    mean_emotion: Optional[dict] = None


def parse_face(obj: dict) -> FaceAttributes:
    """Validate one provider response object; reject anything off-contract."""
    if not isinstance(obj, dict):
        raise SchemaError("face record is not an object")
    gender = obj.get("gender")
    if gender not in ("male", "female"):
        raise SchemaError(f"bad gender: {gender!r}")
    age = obj.get("age")
    if not isinstance(age, (int, float)) or not (0.0 <= float(age) <= 100.0):
        raise SchemaError(f"age out of [0, 100]: {age!r}")
    beauty = obj.get("beauty")
    if not isinstance(beauty, dict) or set(beauty) != {"female_score", "male_score"}:
        raise SchemaError("beauty must have exactly female_score and male_score")
    for k, v in beauty.items():
        if not isinstance(v, (int, float)) or not (0.0 <= float(v) <= 100.0):
            raise SchemaError(f"beauty {k} out of [0, 100]: {v!r}")
    smile = obj.get("smile")
    if not isinstance(smile, dict) or not isinstance(smile.get("value"), bool):
        raise SchemaError("smile must be {'value': bool}")
    emotion = obj.get("emotion")
    if not isinstance(emotion, dict) or set(emotion) != set(EMOTION_KEYS):
        raise SchemaError(f"emotion must have exactly the 7 keys {EMOTION_KEYS}")
    total = 0.0
    for k in EMOTION_KEYS:
        v = emotion[k]
        if not isinstance(v, (int, float)) or float(v) < 0:
            raise SchemaError(f"emotion {k} must be non-negative")
        total += float(v)
    if abs(total - 100.0) > 0.5:
        raise SchemaError(f"emotion scores sum to {total}, expected 100 +- 0.5")
    return FaceAttributes(
        gender=gender,
        age=float(age),
        beauty_female_rater=float(beauty["female_score"]),
        beauty_male_rater=float(beauty["male_score"]),
        smile=bool(smile["value"]),
        emotion={k: float(emotion[k]) for k in EMOTION_KEYS},
    )


#: A face sidecar sits at <root>/<image_ref><SIDECAR_SUFFIX>.
SIDECAR_SUFFIX = ".faces.json"


def sidecar_path(root, image_ref: str) -> Path:
    return Path(root) / f"{image_ref}{SIDECAR_SUFFIX}"


def write_sidecar(root, image_ref: str, faces) -> str:
    path = os.path.join(root, f"{image_ref}{SIDECAR_SUFFIX}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = [
        {
            "gender": f.gender,
            "age": f.age,
            "beauty": {"female_score": f.beauty_female_rater, "male_score": f.beauty_male_rater},
            "smile": {"value": f.smile},
            "emotion": dict(f.emotion),
        }
        for f in faces
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1))
    return path


class StubFaceProvider:
    """Offline provider: reads <image_ref>.faces.json sidecars under a root dir."""

    tag = "stub-sidecar"

    def __init__(self, root):
        self.root = os.fspath(root)

    def analyze(self, image_ref: str):
        """The sidecar's faces; [] when it is missing or its path names a directory."""
        path = os.path.join(self.root, f"{image_ref}{SIDECAR_SUFFIX}")
        try:
            fh = open(path, encoding="utf-8")
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            return []
        with fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                raise SchemaError(f"malformed sidecar {path}: {exc}") from exc
        if not isinstance(payload, list):
            raise SchemaError(f"sidecar {path} must hold a JSON array")
        return [parse_face(obj) for obj in payload]


def aggregate_face_features(faces) -> CampaignFaceFeatures:
    """Per-campaign aggregation; permutation-invariant in the face list."""
    n = len(faces)
    if n == 0:
        return CampaignFaceFeatures(num_faces=0, any_smile=0, is_child=0)
    return CampaignFaceFeatures(
        num_faces=n,
        any_smile=int(any(f.smile for f in faces)),
        is_child=int(any(f.age < CHILD_AGE for f in faces)),
        mean_age=sum(f.age for f in faces) / n,
        mean_beauty=sum((f.beauty_female_rater + f.beauty_male_rater) / 2.0 for f in faces) / n,
        mean_emotion={k: sum(f.emotion[k] for f in faces) / n for k in EMOTION_KEYS},
    )


def load_precomputed_quality(path) -> dict:
    """image_ref -> ImageQuality from a CSV so real model scores can be injected."""
    path = Path(path)
    table: dict = {}
    with path.open("r", encoding="utf-8", newline="") as fh, utf8_input(path):
        reader = csv.DictReader(fh)
        cols = set(reader.fieldnames or [])
        for col in ("image_ref", "aesthetic", "technical"):
            if col not in cols:
                raise SchemaError(f"quality file missing column {col!r}: {path}")
        for row in reader:
            try:
                quality = ImageQuality(
                    aesthetic_score=float(row["aesthetic"]),
                    technical_score=float(row["technical"]),
                    provider="precomputed",
                )
            except (TypeError, ValueError):
                raise ParseError(f"{path}, line {reader.line_num}: non-numeric quality score "
                                 f"{row['aesthetic']!r}, {row['technical']!r}") from None
            quality.validate()
            table[row["image_ref"]] = quality
    return table
