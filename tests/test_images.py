import json
import math
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from face_oracle import face_columns
from fundlens.errors import ParseError, RangeError, SchemaError
from fundlens.images import (
    CHILD_AGE,
    EMOTION_KEYS,
    FACE_COLUMNS,
    StubFaceProvider,
    load_precomputed_quality,
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


def _columns(root, faces) -> dict:
    """The face columns StubFaceProvider reads back for one image with ``faces``."""
    write_faces(root, {"a.ppm": faces})
    return dict(zip(FACE_COLUMNS, StubFaceProvider(root).analyze("a.ppm")))


def _load_face(root, obj):
    """Make a StubFaceProvider over a faces.jsonl holding one image with face ``obj``."""
    (root / "faces.jsonl").write_text(json.dumps({"faces": [obj], "image_ref": "a.ppm"}) + "\n")
    return StubFaceProvider(root)


# ---------------------------------------------------------------------------
# face checks and aggregation, through faces.jsonl
# ---------------------------------------------------------------------------

def test_parse_face_roundtrip(tmp_path):
    # A face written by write_faces reads back as the columns of its attributes.
    got = _columns(tmp_path, [_face_obj(age=25.0, smile=True)])
    assert got["num_faces"] == 1.0
    assert got["face_mean_age"] == 25.0
    assert got["any_smile"] == 1.0
    assert got["face_mean_beauty"] == 65.0
    assert [got[f"face_emotion_{k}"] for k in EMOTION_KEYS] == [0.0, 0.0, 0.0, 80.0, 20.0, 0.0, 0.0]


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
        lambda o: o.update(gender=["male"]),  # unhashable
    ],
)
def test_parse_face_rejects_invalid(tmp_path, mutate):
    obj = _face_obj()
    mutate(obj)
    with pytest.raises(SchemaError, match="faces.jsonl, line 1: "):
        _load_face(tmp_path, obj)


def test_aggregate_empty_face_list(tmp_path):
    got = _columns(tmp_path, [])
    assert (got["num_faces"], got["any_smile"], got["is_child"]) == (0.0, 0.0, 0.0)
    assert all(math.isnan(got[name]) for name in FACE_COLUMNS[3:])


def test_aggregate_hand_values(tmp_path):
    # Two faces aged 22 and 18 average to 20; a single smile flips any_smile.
    agg = _columns(tmp_path, [_face_obj(age=22.0), _face_obj(age=18.0, smile=True)])
    assert agg["num_faces"] == 2
    assert agg["face_mean_age"] == pytest.approx(20.0)
    assert agg["any_smile"] == 1
    assert agg["is_child"] == 0
    # beauty: both raters averaged per face, then across faces
    assert agg["face_mean_beauty"] == pytest.approx(65.0)
    assert agg["face_emotion_happiness"] == pytest.approx(80.0)


def test_face_means_are_added_left_to_right(tmp_path):
    # Ten ages of 0.1 add up, left to right, to 0.9999999999999999; from Python 3.12 the
    # builtin sum gives 1.0, so the mean would depend on the interpreter.
    assert _columns(tmp_path, [_face_obj(age=0.1)] * 10)["face_mean_age"] == 0.09999999999999999


def test_is_child_strictly_under_ten(tmp_path):
    assert _columns(tmp_path, [_face_obj(age=10.0)])["is_child"] == 0
    assert _columns(tmp_path, [_face_obj(age=9.99)])["is_child"] == 1
    assert CHILD_AGE == 10


def test_aggregate_permutation_invariant(tmp_path):
    faces = [_face_obj(age=a, smile=(a > 30)) for a in (5.0, 31.0, 62.0)]
    a = _columns(tmp_path, faces)
    b = _columns(tmp_path, list(reversed(faces)))
    for name in FACE_COLUMNS:
        assert a[name] == b[name]


_score = st.floats(0.0, 100.0) | st.integers(0, 100)
_emotions = st.lists(st.floats(0.0, 1.0) | st.integers(0, 9), min_size=7, max_size=7).filter(
    lambda raw: sum(raw) > 0)
_faces = st.lists(st.builds(
    lambda gender, age, female, male, smile, raw: {
        "gender": gender, "age": age, "beauty": {"female_score": female, "male_score": male},
        "smile": {"value": smile},
        "emotion": dict(zip(EMOTION_KEYS, (100.0 * r / sum(raw) for r in raw))),
    },
    st.sampled_from(["female", "male"]), _score | st.just(CHILD_AGE), _score, _score,
    st.booleans(), _emotions,
), max_size=6)


@settings(max_examples=60, deadline=None)
@given(faces=_faces, seed=st.integers(0, 2**32 - 1))
def test_face_columns_match_the_oracle(faces, seed):
    # The columns read from faces.jsonl are the oracle's aggregation of the
    # written faces, bit for bit; the counts and flags ignore face order.
    shuffled = list(faces)
    random.Random(seed).shuffle(shuffled)
    with tempfile.TemporaryDirectory() as root:
        lines = [json.dumps({"faces": f, "image_ref": ref}) for ref, f in (("a", faces), ("b", shuffled))]
        with open(f"{root}/faces.jsonl", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        provider = StubFaceProvider(root)
    got = np.asarray(provider.analyze("a"))
    want = np.asarray(face_columns(json.loads(json.dumps(faces))))
    assert got.tobytes() == want.tobytes()
    assert list(np.asarray(provider.analyze("b"))[:3]) == list(got[:3])


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
def test_parse_face_takes_only_finite_non_bool_numbers(tmp_path, mutate):
    # The rule of Campaign.from_record: a finite int or float, never a bool.
    obj = _face_obj()
    mutate(obj)
    with pytest.raises(SchemaError, match="faces.jsonl, line 1: .*must be a finite number"):
        _load_face(tmp_path, obj)


def test_emotion_bound_is_on_the_running_total(tmp_path):
    # Each 5e-15 is under half an ulp of 100.5, so a running total from 0.0
    # stays at 100.5, on the bound, while the exact sum is past it: the face is
    # taken, as it always was, whether or not the interpreter's sum compensates.
    obj = _face_obj()
    obj["emotion"] = dict(zip(EMOTION_KEYS, [100.5] + [5e-15] * 6))
    assert _load_face(tmp_path, obj).analyze("a.ppm")[0] == 1.0
    obj["emotion"]["anger"] = 100.50000000000003
    with pytest.raises(SchemaError, match="faces.jsonl, line 1: emotion scores sum to 100.5000000000000"):
        _load_face(tmp_path, obj)


def _no_faces(row) -> bool:
    return list(row[:3]) == [0.0, 0.0, 0.0] and all(math.isnan(v) for v in row[3:])


def test_stub_provider_reads_sidecars(tmp_path):
    # Each image's sidecar record is one line of faces.jsonl.
    write_faces(tmp_path, {"imgs/pic.ppm": [_face_obj(age=8.0)], "imgs/none.ppm": []})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["faces.jsonl"]
    provider = StubFaceProvider(tmp_path)
    got = dict(zip(FACE_COLUMNS, provider.analyze("imgs/pic.ppm")))
    assert (got["num_faces"], got["is_child"], got["face_mean_age"]) == (1.0, 1.0, 8.0)
    assert _no_faces(provider.analyze("imgs/none.ppm"))
    # an image with no line means "no analysis", not an error
    assert _no_faces(provider.analyze("imgs/other.ppm"))


def test_stub_provider_skips_paths_that_hold_no_sidecar_file(tmp_path):
    assert _no_faces(StubFaceProvider(tmp_path / "missing").analyze("pic.ppm"))   # no directory
    (tmp_path / "plain.txt").write_text("not a directory")
    assert _no_faces(StubFaceProvider(tmp_path / "plain.txt").analyze("pic.ppm"))  # a file as root
    (tmp_path / "faces.jsonl").mkdir()                                              # a directory at its path
    assert _no_faces(StubFaceProvider(tmp_path).analyze("pic.ppm"))


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
