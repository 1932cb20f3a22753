"""Test oracle for the face columns: one face object as FaceAttributes, and the
per-image aggregation written over FaceAttributes one face at a time.

``StubFaceProvider`` reduces each image's faces as it reads faces.jsonl; the
tests check its rows against these, bit for bit.
"""

import math

from fundlens.images import CHILD_AGE, EMOTION_KEYS, FaceAttributes


def face_attributes(obj: dict) -> FaceAttributes:
    """The FaceAttributes of one faces.jsonl face object, numbers as floats."""
    return FaceAttributes(
        gender=obj["gender"],
        age=float(obj["age"]),
        beauty_female_rater=float(obj["beauty"]["female_score"]),
        beauty_male_rater=float(obj["beauty"]["male_score"]),
        smile=obj["smile"]["value"],
        emotion={k: float(obj["emotion"][k]) for k in EMOTION_KEYS},
    )


def face_columns(faces) -> list:
    """num_faces, any_smile, is_child, mean age, mean beauty and the mean of
    each emotion of an image's FaceAttributes; NaN means for no face."""
    n = len(faces)
    if n == 0:
        return [0.0, 0.0, 0.0] + [math.nan] * (2 + len(EMOTION_KEYS))
    return [
        float(n),
        float(any(f.smile for f in faces)),
        float(any(f.age < CHILD_AGE for f in faces)),
        sum(f.age for f in faces) / n,
        sum((f.beauty_female_rater + f.beauty_male_rater) / 2.0 for f in faces) / n,
        *(sum(f.emotion[k] for f in faces) / n for k in EMOTION_KEYS),
    ]
