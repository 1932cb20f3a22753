import pytest

from fundlens.errors import ParseError, RangeError, SchemaError
from fundlens.images import (
    CHILD_AGE,
    EMOTION_KEYS,
    FaceAttributes,
    StubFaceProvider,
    aggregate_face_features,
    load_precomputed_quality,
    parse_face,
    write_faces,
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


@pytest.mark.parametrize("mutate", [
    lambda o: o["emotion"].update(anger=float("nan")),
    lambda o: o["emotion"].update(anger=float("inf")),
    lambda o: o.update(age=True),
    lambda o: o["beauty"].update(male_score=False),
    lambda o: o["emotion"].update(neutral=True),
    lambda o: o.update(age=10**400),
    lambda o: o["beauty"].update(female_score=10**400),
], ids=["nan-emotion", "inf-emotion", "bool-age", "bool-beauty", "bool-emotion",
        "huge-age", "huge-beauty"])
def test_parse_face_takes_only_finite_non_bool_numbers(mutate):
    # The rule of Campaign.from_record: a finite int or float, never a bool.
    obj = _face_obj()
    mutate(obj)
    with pytest.raises(SchemaError, match="must be a finite number"):
        parse_face(obj)


def test_stub_provider_reads_sidecars(tmp_path):
    # Each image's sidecar record is one line of faces.jsonl.
    write_faces(tmp_path, {"imgs/pic.ppm": [_face(age=8.0)], "imgs/none.ppm": []})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["faces.jsonl"]
    provider = StubFaceProvider(tmp_path)
    faces = provider.analyze("imgs/pic.ppm")
    assert len(faces) == 1
    assert faces[0].age == 8.0
    assert provider.analyze("imgs/none.ppm") == []
    # an image with no line means "no analysis", not an error
    assert provider.analyze("imgs/other.ppm") == []


def test_stub_provider_skips_paths_that_hold_no_sidecar_file(tmp_path):
    assert StubFaceProvider(tmp_path / "missing").analyze("pic.ppm") == []   # no directory
    (tmp_path / "plain.txt").write_text("not a directory")
    assert StubFaceProvider(tmp_path / "plain.txt").analyze("pic.ppm") == []  # a file as root
    (tmp_path / "faces.jsonl").mkdir()                                         # a directory at its path
    assert StubFaceProvider(tmp_path).analyze("pic.ppm") == []


_GOOD_LINE = '{"faces": [], "image_ref": "a.ppm"}\n'


@pytest.mark.parametrize("body", ["{not json", '{"faces": []}', '[{"gender": "robot"}]'])
def test_stub_provider_rejects_malformed_sidecars(tmp_path, body):
    (tmp_path / "faces.jsonl").write_text(_GOOD_LINE + body + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="faces.jsonl, line 2: "):
        StubFaceProvider(tmp_path)


@pytest.mark.parametrize("body, line", [
    (_GOOD_LINE + "\n", 2),
    (_GOOD_LINE + '{"faces": [], "image_ref": 5}\n', 2),
    (_GOOD_LINE + '{"faces": {}, "image_ref": "b.ppm"}\n', 2),
    (_GOOD_LINE + '{"image_ref": "b.ppm"}\n', 2),
    (_GOOD_LINE + '{"faces": [], "image_ref": "b.ppm"}\n' + _GOOD_LINE, 3),
    (_GOOD_LINE + '{"faces": [], "image_ref": "\xff.ppm"}\n', 2),
    (_GOOD_LINE + '{"faces": [{"gender": "robot"}], "image_ref": "b.ppm"}\n', 2),
], ids=["blank", "int-ref", "faces-object", "no-faces", "duplicate-ref", "not-utf8", "bad-face"])
def test_stub_provider_rejects_malformed_lines(tmp_path, body, line):
    (tmp_path / "faces.jsonl").write_bytes(body.encode("latin-1"))
    with pytest.raises(SchemaError, match=f"faces.jsonl, line {line}: "):
        StubFaceProvider(tmp_path)


# ---------------------------------------------------------------------------
# precomputed quality scores
# ---------------------------------------------------------------------------

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

    # A non-numeric or absent score is a parse error naming file and line.
    for name, rows, line in (("text.csv", "a.ppm,4.0,5.0\nb.ppm,abc,5.0\n", 3),
                             ("short.csv", "a.ppm,4.0\n", 2)):
        path = tmp_path / name
        path.write_text("image_ref,aesthetic,technical\n" + rows)
        with pytest.raises(ParseError, match=f"{name}, line {line}"):
            load_precomputed_quality(path)
