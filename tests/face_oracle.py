"""Test oracle for the face columns: the per-image aggregation written over
faces.jsonl face objects one face at a time.

``StubFaceProvider`` reduces each image's faces as it reads faces.jsonl; the
tests check its rows against these, bit for bit.
"""

import math

from fundlens.images import CHILD_AGE, EMOTION_KEYS


def _total(values) -> float:
    """Added one value at a time, left to right: from Python 3.12 the builtin sum
    adds floats with compensation."""
    total = 0.0
    for v in values:
        total += v
    return total


def face_columns(faces) -> list:
    """num_faces, any_smile, is_child, mean age, mean beauty and the mean of
    each emotion of an image's face objects, each number taken as a float; NaN
    means for no face."""
    n = len(faces)
    if n == 0:
        return [0.0, 0.0, 0.0] + [math.nan] * (2 + len(EMOTION_KEYS))
    ages = [float(f["age"]) for f in faces]
    return [
        float(n),
        float(any(f["smile"]["value"] for f in faces)),
        float(any(a < CHILD_AGE for a in ages)),
        _total(ages) / n,
        _total((float(f["beauty"]["female_score"]) + float(f["beauty"]["male_score"])) / 2.0
               for f in faces) / n,
        *(_total(float(f["emotion"][k]) for f in faces) / n for k in EMOTION_KEYS),
    ]
