import csv
import datetime
import json
import math

import numpy as np
import pytest

from face_oracle import face_columns
from fundlens.core import Campaign
from fundlens.errors import EmptySetting, SchemaError
from fundlens.experiment import Setting, _model_columns, assemble
from fundlens.features import (
    FeatureMatrix,
    _state_code,
    apply_imputation,
    build_feature_matrix,
    impute_with_indicators,
)
from fundlens.images import CHILD_AGE, EMOTION_KEYS, FACE_COLUMNS, StubFaceProvider, write_faces
from fundlens.ingest import load_population_table


def _campaign(i, **kw):
    base = dict(
        id=f"c{i}",
        launch_date=datetime.date(2019, 3, 4),
        city="Springfield",
        state="IL",
        country="US",
        title="Help us",
        description="we think we can do this together",
        category="Other",
        goal_amount=5000.0,
        raised_amount=2500.0,
        num_followers=1,
        num_shares=1,
        num_donors=1,
        cover_image=f"img_{i}.ppm",
    )
    base.update(kw)
    return Campaign(**base)


def test_matrix_selectors_and_column():
    m = FeatureMatrix(
        ids=["a", "b"],
        names=["x", "y", "z"],
        modalities=["basic", "text", "face"],
        values=np.arange(6, dtype=float).reshape(2, 3),
    )
    np.testing.assert_array_equal(m.column("y"), [1.0, 4.0])
    sub = assemble(m, Setting.FACE)
    assert sub.names == ["z"]
    np.testing.assert_array_equal(sub.values, [[2.0], [5.0]])
    assert _model_columns(m, Setting.LATE_FUSION) == (("y",), ("z",))
    rows = m.take_rows([1])
    assert rows.ids == ["b"]
    with pytest.raises(EmptySetting):
        assemble(m, Setting.POPULATION)


def test_matrix_save_load_roundtrip(tmp_path):
    m = FeatureMatrix(
        ids=["a", "b", "c"],
        names=["x", "y"],
        modalities=["basic", "text"],
        values=np.array([[1.5, np.nan], [0.1, 2.0], [3.0, 1 / 3]]),
    )
    labels = {"goal_band": ["B1", None, "B4"], "ratio": [0.25, 3.0, 1.3],
              "class_two": [-2, None, 2], "class_four": [-2, None, 2]}
    provenance = {"provider_tags": {"faces": "none", "quality": "none"}, "lexicon_fingerprint": "f"}

    def save(stem):
        paths = [tmp_path / f"{stem}.csv", tmp_path / f"{stem}.json", tmp_path / f"{stem}.npz"]
        m.save(*paths, labels, provenance, "sha-of-dataset")
        return [p.read_bytes() for p in paths]

    first = save("f")
    loaded, got_labels, got_provenance = FeatureMatrix.load(tmp_path / "f.npz", "sha-of-dataset")
    assert loaded.ids == m.ids
    assert loaded.names == m.names
    assert loaded.modalities == m.modalities
    assert np.array_equal(loaded.values, m.values, equal_nan=True)
    assert got_labels["goal_band"] == labels["goal_band"]
    assert got_labels["ratio"].tolist() == labels["ratio"]
    for key in ("class_two", "class_four"):
        assert got_labels[key] == labels[key]
        assert all(type(c) is int for c in got_labels[key] if c is not None)
    assert got_provenance == provenance
    assert json.loads((tmp_path / "f.json").read_text()) == {
        "modalities": {"x": "basic", "y": "text"}, **provenance}
    # a second save is byte-identical (deterministic formatting)
    assert save("g") == first
    with pytest.raises(SchemaError, match="another dataset file; rerun featurize"):
        FeatureMatrix.load(tmp_path / "f.npz", "sha-of-another-dataset")


def test_save_writes_the_per_value_csv_formatting(tmp_path):
    extremes = [np.nan, 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1 + 0.2,
                3.0, -7.0, 1e16, 123456789012.0, 2.5e-7]
    m = FeatureMatrix(ids=["a", "b"], names=[f"x{j}" for j in range(len(extremes))],
                      modalities=["basic"] * len(extremes),
                      values=np.array([extremes, extremes[::-1]]))
    labels = {"goal_band": [None, None], "ratio": [1.0, 1.0], "class_two": [None, None],
              "class_four": [None, None]}
    m.save(tmp_path / "f.csv", tmp_path / "f.json", tmp_path / "f.npz", labels, {}, "sha")
    expected = "id," + ",".join(m.names) + "\n"
    for cid, row in zip(m.ids, m.values):
        expected += ",".join([cid, *("" if np.isnan(v) else f"{np.float64(v):.10g}" for v in row)]) + "\n"
    assert (tmp_path / "f.csv").read_bytes() == expected.encode("utf-8")


def _per_value_csv(path, m):
    """features.csv as FeatureMatrix.save wrote it one value at a time: the reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", *m.names])
        for cid, row in zip(m.ids, m.values):
            writer.writerow([cid, *["" if math.isnan(v) else f"{v:.10g}" for v in row.tolist()]])


def test_save_csv_equals_the_per_value_writer(tmp_path):
    # ids that csv quotes, NaN first, last and side by side, -0.0, a tiny value,
    # 10 significant digits, and a seeded block of mixed magnitudes and NaNs.
    nan = np.nan
    rows = [
        [nan, nan, -0.0, 1e-300, 1234567891.0, nan],
        [nan, nan, nan, nan, nan, nan],
        [0.1 + 0.2, nan, 2.0, nan, 9.876543219e-5, -1234567891.5],
    ]
    rng = np.random.default_rng(5)
    block = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-12, 12, size=(40, 6))
    block[rng.random((40, 6)) < 0.3] = nan
    values = np.vstack([rows, block])
    ids = ["a,b", 'say "hi"', "", *(f"c{i}" for i in range(len(values) - 3))]
    m = FeatureMatrix(ids=ids, names=[f"x{j}" for j in range(6)], modalities=["basic"] * 6, values=values)
    labels = {"goal_band": [None] * len(ids), "ratio": [1.0] * len(ids),
              "class_two": [None] * len(ids), "class_four": [None] * len(ids)}
    m.save(tmp_path / "f.csv", tmp_path / "f.json", tmp_path / "f.npz", labels, {}, "sha")
    _per_value_csv(tmp_path / "ref.csv", m)
    got = (tmp_path / "f.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.splitlines()[1:4] == [b'"a,b",,,-0,1e-300,1234567891,', b'"say ""hi""",,,,,,',
                                     b',0.3,,2,,9.876543219e-05,-1234567892']


def test_face_columns_equal_the_oracle_bit_for_bit(registry, lexicon, tmp_path):
    # img_0: a face at exactly CHILD_AGE and JSON-integer scores; img_1: no face;
    # img_2: values whose sums depend on the order of addition; img_3 has no
    # line and c4 no cover image. A run with no faces.jsonl at all comes last.
    int_face = {"gender": "male", "age": int(CHILD_AGE), "beauty": {"female_score": 55, "male_score": 60},
                "smile": {"value": False},
                "emotion": dict(zip(EMOTION_KEYS, (0, 5, 0, 70, 25, 0, 0)))}
    rng = np.random.default_rng(11)

    def float_face(age):
        raw = rng.gamma(2.0, 1.0, size=7)
        return {"gender": "female", "age": age,
                "beauty": {"female_score": float(rng.uniform(20, 90)), "male_score": 0.1 + 0.2},
                "smile": {"value": bool(rng.random() < 0.5)},
                "emotion": dict(zip(EMOTION_KEYS, (100.0 * raw / raw.sum()).tolist()))}

    written = {"img_0.ppm": [int_face, float_face(33.3)], "img_1.ppm": [],
               "img_2.ppm": [float_face(a) for a in (0.1, 0.2, 0.3, 71.7)]}
    with (tmp_path / "faces.jsonl").open("w", encoding="utf-8") as fh:
        for ref, faces in written.items():
            fh.write(json.dumps({"faces": faces, "image_ref": ref}) + "\n")
    campaigns = [_campaign(0), _campaign(1), _campaign(2), _campaign(3), _campaign(4, cover_image=None)]
    columns = [*FACE_COLUMNS, "face_missing"]

    for root, faces_by_ref in ((tmp_path, written), (tmp_path / "no-provider-output", {})):
        matrix = build_feature_matrix(campaigns, registry, lexicon, face_provider=StubFaceProvider(root))
        got = np.ascontiguousarray(matrix.values[:, [matrix.names.index(n) for n in columns]])
        want = [[math.nan] * len(FACE_COLUMNS) + [1.0] if c.cover_image is None else
                face_columns(faces_by_ref.get(c.cover_image, [])) + [0.0]
                for c in campaigns]
        assert got.tobytes() == np.array(want).tobytes()
        assert matrix.column("is_child")[0] == 0.0  # CHILD_AGE itself is no child


@pytest.mark.parametrize("state, code", [
    ("AA", 0.0), ("ZZ", 675.0), ("IL", 8 * 26 + 11), (" il ", 8 * 26 + 11),
    ("ÉÉ", None), ("Ωα", None), ("ǅX", None), ("A1", None), ("I", None), ("ILL", None), ("", None),
])
def test_state_code_maps_two_ascii_letters_only(state, code):
    got = _state_code(state)
    assert np.isnan(got) if code is None else got == code
    assert np.isnan(got) or 0.0 <= got <= 675.0


def test_build_feature_matrix_columns(registry, lexicon, tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("city,state,population\nSpringfield,IL,114230\n")
    table = load_population_table(census)
    face = {
        "gender": "male", "age": 8.0,
        "beauty": {"female_score": 50.0, "male_score": 50.0},
        "smile": {"value": True},
        "emotion": {"anger": 0.0, "disgust": 0.0, "fear": 0.0, "happiness": 100.0,
                    "neutral": 0.0, "sadness": 0.0, "surprise": 0.0},
    }
    write_faces(tmp_path, {"img_0.ppm": [face]})
    provider = StubFaceProvider(tmp_path)

    campaigns = [_campaign(0), _campaign(1, city="Nowhere", cover_image=None)]
    matrix = build_feature_matrix(campaigns, registry, lexicon,
                                  population_table=table, face_provider=provider)
    assert matrix.ids == ["c0", "c1"]
    # basic block
    assert matrix.column("launch_year")[0] == 2019
    assert matrix.column("launch_month")[0] == 3
    assert matrix.column("cat_Other")[0] == 1.0
    assert matrix.column("cat_Animals & Pets")[0] == 0.0
    # population join with a missing city
    assert matrix.column("city_population")[0] == 114230
    assert np.isnan(matrix.column("city_population")[1])
    np.testing.assert_array_equal(matrix.column("population_missing"), [0.0, 1.0])
    # text block: "we" twice out of 7 description+2 title words
    assert matrix.column("word_count")[0] == 9
    assert matrix.column("liwc_we")[0] == pytest.approx(100.0 * 3 / 9)
    # face block from faces.jsonl; no cover image means the block is missing
    assert matrix.column("num_faces")[0] == 1.0
    assert matrix.column("is_child")[0] == 1.0
    assert np.isnan(matrix.column("num_faces")[1])
    np.testing.assert_array_equal(matrix.column("face_missing"), [0.0, 1.0])
    # modality bookkeeping covers all five modalities
    assert set(matrix.modalities) == {"basic", "population", "text", "image_quality", "face"}


def test_impute_with_indicators():
    # Medians and indicators are fitted on the training rows only: "a" has
    # no training NaN, so its NaN on the apply side is filled without an
    # indicator; "c" has no finite training value and gets median 0.0.
    train = np.array([[1.0, np.nan, np.nan], [3.0, 4.0, np.nan], [5.0, 8.0, np.nan]])
    test = np.array([[np.nan, 2.0, 7.0]])
    tr, te, out_names, medians = impute_with_indicators(train, test, ["a", "b", "c"])
    assert out_names == ["a", "b", "c", "b__missing", "c__missing"]
    assert medians == {"a": 3.0, "b": 6.0, "c": 0.0}
    np.testing.assert_array_equal(tr, [[1.0, 6.0, 0.0, 1.0, 1.0],
                                       [3.0, 4.0, 0.0, 0.0, 1.0],
                                       [5.0, 8.0, 0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(te, [[3.0, 2.0, 7.0, 0.0, 0.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_impute_medians_of_values_near_the_float_limit_stay_finite():
    # np.median averages the two middle values, and their sum overflows above about 9e307.
    train = np.array([[1.5e308, 1.0], [1.5e308, np.nan], [1.7e308, 3.0], [1.6e308, np.nan]])
    _, _, _, medians = impute_with_indicators(train, None, ["a", "b"])
    assert medians == {"a": 1.55e308, "b": 2.0}
    gappy = np.array([[1.7e308], [np.nan], [1.5e308]])
    assert impute_with_indicators(gappy, None, ["a"])[3] == {"a": 1.6e308}


def test_impute_no_missing_is_identity():
    train = np.array([[1.0, 2.0], [3.0, 4.0]])
    tr, te, out_names, medians = impute_with_indicators(train, train, ["a", "b"])
    np.testing.assert_array_equal(tr, train)
    np.testing.assert_array_equal(te, train)
    assert out_names == ["a", "b"]
    assert medians == {"a": 2.0, "b": 3.0}


def test_apply_imputation_matches_training_transform():
    train = np.array([[1.0, np.nan], [3.0, 4.0], [5.0, 8.0]])
    test = np.array([[np.nan, 2.0], [7.0, np.nan]])
    _, te, out_names, medians = impute_with_indicators(train, test, ["a", "b"])
    redo = apply_imputation(test, ["a", "b"], medians, out_names)
    np.testing.assert_allclose(redo, te)
