"""Image-quality scores and face attributes via pluggable providers.

The learned quality model and the commercial face service are out of scope;
this module offers (a) a precomputed-score table so real model outputs can
be injected, (b) a face provider that reads offline sidecar files, and (c) a
documented deterministic surrogate quality scorer over pixel arrays, which
no pipeline stage calls yet (featurize reads quality scores only from the
table). Reports always carry the provider tag so surrogate numbers are
never mistaken for model outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidImage, RangeError, SchemaError

EMOTION_KEYS = ("anger", "disgust", "fear", "happiness", "neutral", "sadness", "surprise")

#: Age below which a detected face counts as a child.
CHILD_AGE = 10.0

# Surrogate-scorer normalization constants (documented, fixed).
_GRAD_SCALE = 64.0        # e-folding scale of the sharpness response
_CONTRAST_NORM = 127.5    # max std of an 8-bit image split half black / half white
_COLORFULNESS_NORM = 150.0


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


def sidecar_path(root, image_ref: str) -> Path:
    return Path(root) / f"{image_ref}.faces.json"


def write_sidecar(root, image_ref: str, faces) -> Path:
    path = sidecar_path(root, image_ref)
    path.parent.mkdir(parents=True, exist_ok=True)
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
    path.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
    return path


class StubFaceProvider:
    """Offline provider: reads <image_ref>.faces.json sidecars under a root dir."""

    tag = "stub-sidecar"

    def __init__(self, root):
        self.root = Path(root)

    def analyze(self, image_ref: str):
        path = sidecar_path(self.root, image_ref)
        if not path.is_file():
            return []
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
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


def _colorfulness(pixels: np.ndarray) -> float:
    # Hasler & Suesstrunk opponent-channel statistic.
    r = pixels[..., 0].astype(np.float64)
    g = pixels[..., 1].astype(np.float64)
    b = pixels[..., 2].astype(np.float64)
    rg = r - g
    yb = 0.5 * (r + g) - b
    return float(np.hypot(rg.std(), yb.std()) + 0.3 * np.hypot(rg.mean(), yb.mean()))


def builtin_quality_score(pixels: np.ndarray) -> ImageQuality:
    """Deterministic surrogate quality scores on the 1-10 scale.

    technical = 1 + 9 * (1 - exp(-g / 64)) with g the mean gradient magnitude
    of the luminance; aesthetic = 1 + 9 * (0.5 * contrast + 0.5 * colorfulness),
    both components normalized to [0, 1]. Invariant under adding a constant
    to all pixels.
    """
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[2] == 3:
        lum = 0.299 * arr[..., 0] + 0.587 * arr[..., 1] + 0.114 * arr[..., 2]
        colorfulness = min(_colorfulness(arr) / _COLORFULNESS_NORM, 1.0)
    elif arr.ndim == 2:
        lum = arr
        colorfulness = 0.0
    else:
        raise InvalidImage(f"expected HxW or HxWx3 pixel array, got shape {arr.shape}")
    if lum.shape[0] < 8 or lum.shape[1] < 8:
        raise InvalidImage(f"image too small: {lum.shape}")
    gy = np.diff(lum, axis=0)[:, :-1]
    gx = np.diff(lum, axis=1)[:-1, :]
    g = float(np.hypot(gx, gy).mean())
    technical = 1.0 + 9.0 * (1.0 - math.exp(-g / _GRAD_SCALE))
    contrast = min(float(lum.std()) / _CONTRAST_NORM, 1.0)
    aesthetic = 1.0 + 9.0 * (0.5 * contrast + 0.5 * colorfulness)
    quality = ImageQuality(aesthetic_score=aesthetic, technical_score=technical, provider="builtin-surrogate")
    quality.validate()
    return quality


def load_precomputed_quality(path) -> dict:
    """image_ref -> ImageQuality from a CSV so real model scores can be injected."""
    path = Path(path)
    table: dict = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        cols = set(reader.fieldnames or [])
        for col in ("image_ref", "aesthetic", "technical"):
            if col not in cols:
                raise SchemaError(f"quality file missing column {col!r}: {path}")
        for row in reader:
            quality = ImageQuality(
                aesthetic_score=float(row["aesthetic"]),
                technical_score=float(row["technical"]),
                provider="precomputed",
            )
            quality.validate()
            table[row["image_ref"]] = quality
    return table
