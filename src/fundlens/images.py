"""Image-quality scores and face attributes via pluggable providers.

The learned quality model and the commercial face service are out of scope,
so images enter the pipeline only through their outputs: (a) a table of
precomputed aesthetic and technical scores (``--quality-scores``) and (b) a
face provider that reads its offline output, one ``faces.jsonl`` in the
directory given by ``--sidecar-root``.
featurize records which providers it used in ``features_meta.json``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
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


def is_finite_number(v) -> bool:
    """A finite int or float and never a bool, the rule of ``Campaign.from_record``."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _number(v, *what) -> float:
    """``v`` as a float if it is a finite number; otherwise a SchemaError naming ``what``."""
    if not is_finite_number(v):
        raise SchemaError(f"{' '.join(what)} must be a finite number")
    return float(v)


#: A face as floats: male, age, both beauty scores, smile, then the emotion
#: scores in EMOTION_KEYS order.
_FACE_WIDTH = 5 + len(EMOTION_KEYS)


def _face_values(obj) -> tuple:
    """The _FACE_WIDTH floats of one provider face object; anything off-contract
    is a SchemaError."""
    if not isinstance(obj, dict):
        raise SchemaError("face record is not an object")
    gender = obj.get("gender")
    if gender not in ("male", "female"):
        raise SchemaError(f"bad gender: {gender!r}")
    age = _number(obj.get("age"), "age")
    if not 0.0 <= age <= 100.0:
        raise SchemaError(f"age out of [0, 100]: {age!r}")
    beauty = obj.get("beauty")
    if not isinstance(beauty, dict) or set(beauty) != {"female_score", "male_score"}:
        raise SchemaError("beauty must have exactly female_score and male_score")
    for k, v in beauty.items():
        if not 0.0 <= _number(v, "beauty", k) <= 100.0:
            raise SchemaError(f"beauty {k} out of [0, 100]: {v!r}")
    smile = obj.get("smile")
    if not isinstance(smile, dict) or not isinstance(smile.get("value"), bool):
        raise SchemaError("smile must be {'value': bool}")
    emotion = obj.get("emotion")
    if not isinstance(emotion, dict) or set(emotion) != set(EMOTION_KEYS):
        raise SchemaError(f"emotion must have exactly the 7 keys {EMOTION_KEYS}")
    scores = [_number(emotion[k], "emotion", k) for k in EMOTION_KEYS]
    total = 0.0
    for k, v in zip(EMOTION_KEYS, scores):
        if v < 0:
            raise SchemaError(f"emotion {k} must be non-negative")
        total += v
    if abs(total - 100.0) > 0.5:
        raise SchemaError(f"emotion scores sum to {total}, expected 100 +- 0.5")
    return (gender == "male", age, float(beauty["female_score"]), float(beauty["male_score"]),
            smile["value"], *scores)


def _face(v) -> FaceAttributes:
    """The FaceAttributes of _face_values ``v``."""
    return FaceAttributes(
        gender="male" if v[0] else "female",
        age=v[1],
        beauty_female_rater=v[2],
        beauty_male_rater=v[3],
        smile=bool(v[4]),
        emotion=dict(zip(EMOTION_KEYS, v[5:])),
    )


def parse_face(obj: dict) -> FaceAttributes:
    """Validate one provider response object; reject anything off-contract."""
    return _face(_face_values(obj))


#: The face provider's output: one JSON line per image,
#: ``{"faces": [...], "image_ref": ...}``, in <sidecar-root>/FACES_FILE.
FACES_FILE = "faces.jsonl"


def write_faces(root, faces_by_ref) -> str:
    """Write <root>/faces.jsonl: one line per image_ref of ``faces_by_ref``, in its order."""
    path = os.path.join(root, FACES_FILE)
    with open(path, "w", encoding="utf-8") as fh:
        for ref, faces in faces_by_ref.items():
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
            fh.write(json.dumps({"faces": payload, "image_ref": ref}, sort_keys=True) + "\n")
    return path


class StubFaceProvider:
    """Offline provider: the faces of each image from <root>/faces.jsonl.

    Making one reads the file once and closes it. Every line and face is
    checked then, and each image's faces are kept in one array of floats: a
    count, then _FACE_WIDTH floats a face. Parsed records would take several
    MiB for a cohort. ``analyze`` rebuilds an image's faces from the array.
    """

    tag = "stub-sidecar"

    def __init__(self, root):
        path = os.path.join(os.fspath(root), FACES_FILE)
        self._values = array("d")
        self._starts = {}  # image_ref -> index of its face count in _values
        try:
            fh = open(path, "rb")
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            return  # no provider output: no image has faces
        with fh:
            for n, line in enumerate(fh, 1):
                try:
                    ref, faces = _faces_line(line)
                    if ref in self._starts:
                        raise SchemaError(f"image_ref {ref!r} is on an earlier line too")
                except SchemaError as exc:
                    raise SchemaError(f"{path}, line {n}: {exc}") from None
                self._starts[ref] = len(self._values)
                self._values.append(len(faces))
                for values in faces:
                    self._values.extend(values)

    def analyze(self, image_ref: str):
        """The image's faces; [] when faces.jsonl is missing or has no line for it."""
        at = self._starts.get(image_ref)
        if at is None:
            return []
        stop = at + 1 + int(self._values[at]) * _FACE_WIDTH
        return [_face(self._values[i:i + _FACE_WIDTH]) for i in range(at + 1, stop, _FACE_WIDTH)]


def _faces_line(line: bytes):
    """(image_ref, the _face_values of each face) of one faces.jsonl line."""
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise SchemaError(str(exc)) from None
    if (not isinstance(record, dict) or not isinstance(record.get("image_ref"), str)
            or not isinstance(record.get("faces"), list)):
        raise SchemaError("not an object with a string image_ref and a faces array")
    return record["image_ref"], [_face_values(obj) for obj in record["faces"]]


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
