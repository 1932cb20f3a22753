import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fundlens.errors import InvalidImage, RangeError, SchemaError
from fundlens.images import (
    CHILD_AGE,
    EMOTION_KEYS,
    FaceAttributes,
    StubFaceProvider,
    aggregate_face_features,
    builtin_quality_score,
    load_precomputed_quality,
    parse_face,
    sidecar_path,
    write_sidecar,
)


def _face_obj(age=30.0, smile=False, gender="female"):
    return {
        "gender": gender,
        "age": age,
        "beauty": {"female_score": 60.0, "male_score": 70.0},
        "smile": {"value": smile},
        "emotion": {
            "anger": 0.0,
            "disgust": 0.0,
            "fear": 0.0,
            "happiness": 80.0,
            "neutral": 20.0,
            "sadness": 0.0,
            "surprise": 0.0,
        },
    }


def _face(age=30.0, smile=False):
    return parse_face(_face_obj(age=age, smile=smile))


# ---------------------------------------------------------------------------
# face attribute parsing and aggregation
# ---------------------------------------------------------------------------

def test_parse_face_roundtrip():
    face = _face(age=25.0, smile=True)
    assert face.gender == "female"
    assert face.age == 25.0
    assert face.smile is True
    assert set(face.emotion) == set(EMOTION_KEYS)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.update(gender="robot"),
        lambda o: o.update(age=150.0),
        lambda o: o.update(age=-1.0),
        lambda o: o["beauty"].pop("male_score"),
        lambda o: o.update(smile={"value": "yes"}),
        lambda o: o["emotion"].pop("fear"),
        lambda o: o["emotion"].update(anger=50.0),  # sum drifts past 100 +- 0.5
        lambda o: o["emotion"].update(anger=-5.0, happiness=85.0),
    ],
)
def test_parse_face_rejects_invalid(mutate):
    obj = _face_obj()
    mutate(obj)
    with pytest.raises(SchemaError):
        parse_face(obj)


def test_aggregate_empty_face_list():
    agg = aggregate_face_features([])
    assert agg.num_faces == 0
    assert agg.any_smile == 0
    assert agg.is_child == 0
    assert agg.mean_age is None
    assert agg.mean_beauty is None


def test_aggregate_hand_values():
    # Two faces aged 22 and 18 average to 20; a single smile flips any_smile.
    agg = aggregate_face_features([_face(age=22.0), _face(age=18.0, smile=True)])
    assert agg.num_faces == 2
    assert agg.mean_age == pytest.approx(20.0)
    assert agg.any_smile == 1
    assert agg.is_child == 0
    # beauty: both raters averaged per face, then across faces
    assert agg.mean_beauty == pytest.approx(65.0)
    assert agg.mean_emotion["happiness"] == pytest.approx(80.0)


def test_is_child_strictly_under_ten():
    assert aggregate_face_features([_face(age=10.0)]).is_child == 0
    assert aggregate_face_features([_face(age=9.99)]).is_child == 1
    assert CHILD_AGE == 10


def test_aggregate_permutation_invariant():
    faces = [_face(age=a, smile=(a > 30)) for a in (5.0, 31.0, 62.0)]
    a = aggregate_face_features(faces)
    b = aggregate_face_features(list(reversed(faces)))
    assert (a.num_faces, a.any_smile, a.is_child, a.mean_age, a.mean_beauty) == (
        b.num_faces, b.any_smile, b.is_child, b.mean_age, b.mean_beauty
    )
    assert a.mean_emotion == b.mean_emotion


def test_stub_provider_reads_sidecars(tmp_path):
    write_sidecar(tmp_path, "imgs/pic.ppm", [_face(age=8.0)])
    provider = StubFaceProvider(tmp_path)
    faces = provider.analyze("imgs/pic.ppm")
    assert len(faces) == 1
    assert faces[0].age == 8.0
    # missing sidecar means "no analysis", not an error
    assert provider.analyze("imgs/other.ppm") == []
    assert sidecar_path(tmp_path, "imgs/pic.ppm").exists()


# ---------------------------------------------------------------------------
# PNM decoding and quality surrogates
# ---------------------------------------------------------------------------

def test_quality_constant_image_is_floor():
    # Zero gradient and zero contrast: technical = aesthetic = 1.0 exactly.
    flat = np.full((16, 16), 128, dtype=np.uint8)
    q = builtin_quality_score(flat)
    assert q.technical_score == pytest.approx(1.0)
    assert q.aesthetic_score == pytest.approx(1.0)


def test_quality_checkerboard_hand_value():
    # 0/255 checkerboard: every horizontal and vertical neighbor differs by
    # 255, so the mean gradient magnitude is 255 * sqrt(2) and
    # technical = 1 + 9 * (1 - exp(-255 * sqrt(2) / 64)).
    n = 16
    board = np.indices((n, n)).sum(axis=0) % 2 * 255
    q = builtin_quality_score(board.astype(np.uint8))
    want = 1.0 + 9.0 * (1.0 - math.exp(-255.0 * math.sqrt(2.0) / 64.0))
    assert q.technical_score == pytest.approx(want, abs=1e-9)


def test_quality_sharp_beats_blurred():
    rng = np.random.default_rng(1)
    sharp = rng.integers(0, 256, size=(32, 32)).astype(np.float64)
    # crude 3x3 box blur as an independent "less sharp" oracle
    blurred = sharp.copy()
    for _ in range(3):
        blurred = (
            blurred
            + np.roll(blurred, 1, 0) + np.roll(blurred, -1, 0)
            + np.roll(blurred, 1, 1) + np.roll(blurred, -1, 1)
        ) / 5.0
    assert (
        builtin_quality_score(sharp).technical_score
        > builtin_quality_score(blurred).technical_score
    )


def test_quality_grayscale_has_zero_colorfulness():
    rng = np.random.default_rng(2)
    gray = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    color = np.stack([gray, gray, gray], axis=-1)
    # equal channels: colorfulness 0, so both paths agree
    qg = builtin_quality_score(gray)
    qc = builtin_quality_score(color)
    assert qg.aesthetic_score == pytest.approx(qc.aesthetic_score, abs=1e-9)
    assert qg.technical_score == pytest.approx(qc.technical_score, abs=1e-9)


def test_quality_rejects_tiny_images():
    with pytest.raises(InvalidImage):
        builtin_quality_score(np.zeros((4, 4)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=100))
def test_quality_brightness_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 140, size=(12, 12)).astype(np.float64)
    a = builtin_quality_score(img)
    b = builtin_quality_score(img + shift)
    assert a.technical_score == pytest.approx(b.technical_score, abs=1e-9)
    assert a.aesthetic_score == pytest.approx(b.aesthetic_score, abs=1e-9)


def test_quality_scores_always_in_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        img = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        q = builtin_quality_score(img)
        assert 1.0 <= q.technical_score <= 10.0
        assert 1.0 <= q.aesthetic_score <= 10.0


def test_load_precomputed_quality(tmp_path):
    good = tmp_path / "q.csv"
    good.write_text("image_ref,aesthetic,technical\na.ppm,4.65,5.28\n")
    table = load_precomputed_quality(good)
    assert table["a.ppm"].aesthetic_score == pytest.approx(4.65)
    assert table["a.ppm"].technical_score == pytest.approx(5.28)

    bad = tmp_path / "bad.csv"
    bad.write_text("image_ref,aesthetic,technical\na.ppm,12.0,5.0\n")
    with pytest.raises(RangeError):
        load_precomputed_quality(bad)

    missing = tmp_path / "missing.csv"
    missing.write_text("image_ref,aesthetic\na.ppm,4.0\n")
    with pytest.raises(SchemaError):
        load_precomputed_quality(missing)
