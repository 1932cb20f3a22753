"""Image-quality scores and face attributes via pluggable providers.

The learned quality model and the commercial face service are out of scope,
so images enter the pipeline only through their outputs: (a) a table of
precomputed aesthetic and technical scores (``--quality-scores``) and (b) a
face provider that reads its offline output, one ``faces.jsonl`` in the
directory given by ``--sidecar-root``, and reduces each image's faces to the
face columns of the feature matrix as it reads them.
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


#: The face columns of an image, in the order ``StubFaceProvider.analyze`` gives them.
FACE_COLUMNS = ("num_faces", "any_smile", "is_child", "face_mean_age", "face_mean_beauty",
                *(f"face_emotion_{k}" for k in EMOTION_KEYS))
#: The face columns of an image with no face: no mean is defined.
_NO_FACES = (0.0, 0.0, 0.0) + (math.nan,) * (len(FACE_COLUMNS) - 3)

_BEAUTY_KEYS = frozenset(("female_score", "male_score"))
_EMOTION_KEYS = frozenset(EMOTION_KEYS)


def _face_values(obj) -> tuple:
    """(smile, age, the mean of both beauty scores, the emotion scores) of one
    provider face object; anything off-contract is a SchemaError naming the field."""
    if not isinstance(obj, dict):
        raise SchemaError("face record is not an object")
    gender = obj.get("gender")
    if gender not in ("male", "female"):  # a tuple: the gender may be unhashable
        raise SchemaError(f"bad gender: {gender!r}")
    age = _number(obj.get("age"), "age")
    if not 0.0 <= age <= 100.0:
        raise SchemaError(f"age out of [0, 100]: {age!r}")
    beauty = obj.get("beauty")
    if not isinstance(beauty, dict) or beauty.keys() != _BEAUTY_KEYS:
        raise SchemaError("beauty must have exactly female_score and male_score")
    for k, v in beauty.items():
        if not 0.0 <= _number(v, "beauty", k) <= 100.0:
            raise SchemaError(f"beauty {k} out of [0, 100]: {v!r}")
    smile = obj.get("smile")
    if not isinstance(smile, dict) or not isinstance(smile.get("value"), bool):
        raise SchemaError("smile must be {'value': bool}")
    emotion = obj.get("emotion")
    if not isinstance(emotion, dict) or emotion.keys() != _EMOTION_KEYS:
        raise SchemaError(f"emotion must have exactly the 7 keys {EMOTION_KEYS}")
    scores = [_number(emotion[k], "emotion", k) for k in EMOTION_KEYS]
    total = 0.0  # summed in key order: the bound depends on the order
    for k, v in zip(EMOTION_KEYS, scores):
        if v < 0:
            raise SchemaError(f"emotion {k} must be non-negative")
        total += v
    if abs(total - 100.0) > 0.5:
        raise SchemaError(f"emotion scores sum to {total}, expected 100 +- 0.5")
    return (smile["value"], age, (float(beauty["female_score"]) + float(beauty["male_score"])) / 2.0,
            *scores)


def _mean(values) -> float:
    """The floats ``values`` added left to right, over their count. Not the builtin sum,
    which from Python 3.12 adds floats with compensation and can round differently."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _face_row(faces) -> tuple:
    """The FACE_COLUMNS of an image from the _face_values of its faces. Each mean
    is the _mean of the faces' values in file order: the feature artifacts depend
    on that order of arithmetic, bit for bit."""
    if not faces:
        return _NO_FACES
    smiles, ages, beauties, *emotions = zip(*faces)
    return (len(faces), any(smiles), any(a < CHILD_AGE for a in ages), _mean(ages), _mean(beauties),
            *[_mean(scores) for scores in emotions])


#: The face provider's output: one JSON line per image,
#: ``{"faces": [...], "image_ref": ...}``, in <sidecar-root>/FACES_FILE.
FACES_FILE = "faces.jsonl"


def write_faces(root, faces_by_ref) -> str:
    """Write <root>/faces.jsonl: one line per image_ref of ``faces_by_ref``, in its
    order, holding that image's list of provider face objects as given."""
    path = os.path.join(root, FACES_FILE)
    with open(path, "w", encoding="utf-8") as fh:
        for ref, faces in faces_by_ref.items():
            fh.write(json.dumps({"faces": faces, "image_ref": ref}, sort_keys=True) + "\n")
    return path


class StubFaceProvider:
    """Offline provider: the face columns of each image from <root>/faces.jsonl.

    Making one reads the file once and closes it. Every line and face is
    checked then, and each image's faces are reduced to its FACE_COLUMNS,
    kept in one array of floats, a row per image. ``analyze`` returns an
    image's row.
    """

    tag = "stub-sidecar"

    def __init__(self, root):
        path = os.path.join(os.fspath(root), FACES_FILE)
        self._rows = array("d")
        self._starts = {}  # image_ref -> index of its row in _rows
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
                self._starts[ref] = len(self._rows)
                self._rows.extend(_face_row(faces))

    def analyze(self, image_ref: str) -> array:
        """The image's FACE_COLUMNS; those of no face when faces.jsonl is missing
        or has no line for it."""
        at = self._starts.get(image_ref)
        if at is None:
            return array("d", _NO_FACES)
        return self._rows[at:at + len(FACE_COLUMNS)]


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
