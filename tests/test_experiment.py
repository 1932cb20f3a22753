import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fundlens.parallel as parallel_module
from fundlens.cli import RunConfig
from fundlens.experiment import (
    SETTING_GROUPS,
    Setting,
    _fit_predict,
    _imputed_columns,
    _model_columns,
    assemble,
    compute_metrics,
    fuse,
    run_experiment,
    stratified_kfold,
)
from fundlens.features import FeatureMatrix, impute_with_indicators
from fundlens.forest import ForestConfig, fit


def _matrix(n=12, seed=0):
    rng = np.random.default_rng(seed)
    names = ["launch_year", "word_count", "liwc_we", "aesthetic_score", "num_faces"]
    modalities = ["basic", "text", "text", "image_quality", "face"]
    return FeatureMatrix(
        ids=[f"c{i}" for i in range(n)],
        names=names,
        modalities=modalities,
        values=rng.normal(size=(n, len(names))),
    )


# ---------------------------------------------------------------------------
# setting assembly and fusion
# ---------------------------------------------------------------------------

def test_assemble_selects_modalities():
    m = _matrix()
    basic = assemble(m, Setting.BASIC)
    assert basic.names == ["launch_year"]
    text = assemble(m, Setting.LIWC)
    assert text.names == ["word_count", "liwc_we"]
    fused = assemble(m, Setting.EARLY_FUSION_ALL)
    assert fused.names == m.names


def test_assemble_screened_gate_spares_basic():
    m = _matrix()
    gated = assemble(m, Setting.EARLY_FUSION_ALL, screened_names={"liwc_we"})
    assert gated.names == ["launch_year", "liwc_we"]
    # Basic is never screened out even with an empty gate.
    basic = assemble(m, Setting.BASIC, screened_names=set())
    assert basic.names == ["launch_year"]


def _lowest_label_of_the_max(labels, proba):
    # The rule fuse states, row by row: of the labels with the largest probability, the lowest.
    return np.asarray([labels[np.flatnonzero(row == row.max())].min() for row in proba])


def test_fuse_of_two_models_is_the_argmax_of_their_mean_probability():
    rng = np.random.default_rng(3)
    n = 80
    x1 = rng.normal(size=(n, 2))
    x2 = rng.normal(size=(n, 2))
    y = np.where(x1[:, 0] > 0, 2, np.where(x2[:, 1] > 0.5, 0, -2))
    m1 = fit(x1, y, ForestConfig(n_estimators=10, seed=0))
    m2 = fit(x2, y, ForestConfig(n_estimators=3, seed=1))
    mean = (m1.predict_proba(x1) + m2.predict_proba(x2)) / 2.0
    assert (mean == mean.max(axis=1, keepdims=True)).sum(axis=1).max() > 1  # a tie to break
    np.testing.assert_array_equal(fuse([m1, m2], [x1, x2]), _lowest_label_of_the_max(m1.labels, mean))


def test_fuse_of_one_model_is_its_predict_bit_for_bit():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 3))
    y = np.where(x[:, 0] > 0, 2, np.where(x[:, 1] > 0, 1, -2))
    for trees in (1, 2, 4, 9):  # an even count of trees gives probability ties
        m = fit(x, y, ForestConfig(n_estimators=trees, seed=trees))
        rows = np.vstack((x, rng.normal(size=(40, 3))))
        assert fuse([m], [rows]).tobytes() == m.predict(rows).tobytes()


def test_fuse_of_two_copies_of_a_model_is_its_own_predict():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 2))
    y = np.where(x[:, 0] > 0, 2, -2)
    m = fit(x, y, ForestConfig(n_estimators=8, seed=0))
    # Averaging a model with itself changes nothing.
    np.testing.assert_array_equal(fuse([m, m], [x, x]), m.predict(x))


def test_late_fusion_groups_cover_text_and_image():
    groups = SETTING_GROUPS[Setting.LATE_FUSION]
    assert len(groups) == 2
    flat = [m for group in groups for m in group]
    assert "text" in flat
    assert "image_quality" in flat and "face" in flat
    assert "basic" not in flat


# ---------------------------------------------------------------------------
# stratified folds
# ---------------------------------------------------------------------------

def test_stratified_kfold_partition():
    y = np.array([-2] * 37 + [2] * 63)
    folds, note = stratified_kfold(y, k=10, seed=0)
    assert note is None
    assert len(folds) == 10
    all_idx = np.concatenate(folds)
    assert sorted(all_idx.tolist()) == list(range(100))
    for fold in folds:
        minority = (y[fold] == -2).sum()
        assert 3 <= minority <= 4  # 37/10 within one of proportion


def test_stratified_kfold_lowers_k_for_rare_class():
    y = np.array([-2, -2, -2, 2, 2, 2, 2, 2, 2, 2])
    folds, note = stratified_kfold(y, k=10, seed=1)
    assert note is not None
    assert len(folds) == 3
    assert all((y[f] == -2).sum() == 1 for f in folds)


def test_stratified_kfold_deterministic():
    y = np.array([-2, 2] * 25)
    a, _ = stratified_kfold(y, k=5, seed=7)
    b, _ = stratified_kfold(y, k=5, seed=7)
    c, _ = stratified_kfold(y, k=5, seed=8)
    assert all(np.array_equal(x, z) for x, z in zip(a, b))
    assert any(not np.array_equal(x, z) for x, z in zip(a, c))


def _kfold_by_loop(y, k, seed):
    """stratified_kfold's folds dealt one row at a time: its reference."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    cursor = 0
    for label in np.unique(y):
        idx = np.flatnonzero(y == label)
        rng.shuffle(idx)
        for i in idx:
            folds[cursor % k].append(int(i))
            cursor += 1
    return [sorted(f) for f in folds]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=20, max_size=120),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=1000),
)
def test_stratified_kfold_properties(ys, k, seed):
    y = np.array(ys)
    folds, _ = stratified_kfold(y, k=k, seed=seed)
    assert all(f.dtype == np.intp for f in folds)
    assert [f.tolist() for f in folds] == _kfold_by_loop(y, len(folds), seed)
    # disjoint cover of all indices
    all_idx = np.concatenate(folds)
    assert sorted(all_idx.tolist()) == list(range(len(ys)))
    # fold sizes within 1 per class
    for label in np.unique(y):
        per_fold = [(y[f] == label).sum() for f in folds]
        assert max(per_fold) - min(per_fold) <= 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_hand_case():
    # true (-2,-2,2,2) vs predicted (-2,2,2,2): accuracy 3/4; class -2 has
    # precision 1 and recall 1/2, class 2 has precision 2/3 and recall 1;
    # support-weighted precision 5/6 and F1 (2/3 + 4/5)/2 = 11/15.
    m = compute_metrics([-2, -2, 2, 2], [-2, 2, 2, 2])
    assert m.accuracy == pytest.approx(0.75, abs=1e-12)
    assert m.precision == pytest.approx(0.8333, abs=1e-4)
    assert m.recall == pytest.approx(0.75, abs=1e-12)
    assert m.f1 == pytest.approx(0.7333, abs=1e-4)
    assert m.support == {-2: 2, 2: 2}
    assert not m.zero_division


def test_metrics_zero_division_flag():
    m = compute_metrics([-2, 2], [-2, -2])
    assert m.per_class[2]["precision"] == 0.0
    assert m.zero_division


def test_metrics_perfect_prediction():
    m = compute_metrics([1, 2, 1, 2], [1, 2, 1, 2])
    assert m.accuracy == m.precision == m.recall == m.f1 == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
def test_weighted_recall_equals_accuracy(seed, n_classes):
    rng = np.random.default_rng(seed)
    labels = np.array([-2, -1, 1, 2][:n_classes])
    y_true = rng.choice(labels, size=200)
    y_pred = rng.choice(labels, size=200)
    m = compute_metrics(y_true, y_pred)
    assert m.recall == pytest.approx(m.accuracy, abs=1e-12)
    assert 0.0 <= m.f1 <= 1.0 and 0.0 <= m.precision <= 1.0


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def _separable_dataset(n=240, seed=0):
    rng = np.random.default_rng(seed)
    names = ["launch_year", "liwc_we", "aesthetic_score"]
    modalities = ["basic", "text", "image_quality"]
    values = rng.normal(size=(n, 3))
    labels = [2 if v > 0 else -2 for v in values[:, 1]]
    bands = ["B1" if i % 2 == 0 else "B2" for i in range(n)]
    matrix = FeatureMatrix(
        ids=[f"c{i}" for i in range(n)], names=names, modalities=modalities, values=values
    )
    return bands, labels, matrix


def test_run_experiment_report_shape():
    bands, labels, matrix = _separable_dataset()
    cfg = RunConfig(
        seed=5,
        trees=10,
        settings=(Setting.BASIC, Setting.LIWC, Setting.EARLY_FUSION_ALL),
        cv_folds=2,
        min_band_n=30,
    )
    report = run_experiment(bands, labels, matrix, cfg, {})
    by_band = {}
    for row in report.rows:
        by_band.setdefault(row.goal_band, []).append(row.setting)
    assert set(by_band) == {"B1", "B2"}
    assert by_band["B1"] == ["Basic", "LIWC", "EarlyFusionAll"]
    # a weighted total per setting
    assert {t.setting for t in report.totals} == {"Basic", "LIWC", "EarlyFusionAll"}
    # the text feature separates the classes; LIWC must do well on holdout
    liwc = [r for r in report.rows if r.setting == "LIWC"]
    assert all(r.holdout.accuracy >= 0.8 for r in liwc)
    # train/test sizes come from a 90/10 stratified split
    for row in report.rows:
        assert row.n_test == pytest.approx(0.1 * (row.n_train + row.n_test), abs=1.0)


def test_run_experiment_basic_only_outside_full_bands():
    bands, labels, matrix = _separable_dataset(n=240, seed=2)
    bands = ["B3" if b == "B2" else b for b in bands]
    cfg = RunConfig(
        seed=1,
        trees=5,
        settings=(Setting.BASIC, Setting.LIWC),
        cv_folds=1,
        full_settings_bands=("B1",),
    )
    report = run_experiment(bands, labels, matrix, cfg, {})
    b3 = [r.setting for r in report.rows if r.goal_band == "B3"]
    assert b3 == ["Basic"]


def test_run_experiment_skips_small_bands():
    bands, labels, matrix = _separable_dataset(n=100, seed=3)
    bands = ["B1"] * 90 + ["B4"] * 10
    cfg = RunConfig(
        seed=0, trees=5,
        settings=(Setting.BASIC,), cv_folds=1, min_band_n=30,
    )
    report = run_experiment(bands, labels, matrix, cfg, {})
    assert {r.goal_band for r in report.rows} == {"B1"}
    assert any("B4" in note for note in report.notes)


def test_run_experiment_deterministic_outputs():
    bands, labels, matrix = _separable_dataset(n=200, seed=4)
    cfg = RunConfig(
        seed=11, trees=8,
        settings=(Setting.BASIC, Setting.LATE_FUSION), cv_folds=2,
    )
    # LateFusion needs face columns; extend the matrix with one.
    matrix.names.append("num_faces")
    matrix.modalities.append("face")
    matrix.values = np.column_stack([matrix.values, np.zeros(len(matrix.ids)) + 1.0])
    a = run_experiment(bands, labels, matrix, cfg, {})
    b = run_experiment(bands, labels, matrix, cfg, {})
    assert a.to_csv_text() == b.to_csv_text()
    assert a.to_json_text() == b.to_json_text()
    assert "goal_band,setting" in a.to_csv_text().splitlines()[len(a.header)]


def test_run_config_fingerprint_changes_with_seed():
    a = RunConfig(seed=1)
    b = RunConfig(seed=2)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == RunConfig(seed=1).fingerprint()
    # Pinned: a report.csv header's fingerprint moves only when the set of options it covers does.
    assert a.fingerprint() == "634c63960a363994"


def test_run_experiment_parallel_matches_serial():
    bands, labels, matrix = _separable_dataset(n=120, seed=6)
    # Four class-2 campaigns in B2: the holdout split and B2's CV lower k.
    b2 = [i for i, b in enumerate(bands) if b == "B2"]
    labels = [(2 if i in b2[:4] else -2) if b == "B2" else lab
              for i, (b, lab) in enumerate(zip(bands, labels))]
    cfg = RunConfig(
        seed=3, trees=3,
        settings=(Setting.BASIC, Setting.FACE, Setting.LIWC, Setting.LATE_FUSION), cv_folds=4,
    )
    serial = run_experiment(bands, labels, matrix, cfg, {})
    parallel = run_experiment(bands, labels, matrix, dataclasses.replace(cfg, jobs=2), {})
    assert parallel.to_csv_text() == serial.to_csv_text()
    assert parallel.to_json_text() == serial.to_json_text()
    # The matrix has no face columns, so Face is skipped in both bands.
    assert [n.split(":")[0] for n in serial.notes] == [
        "skipped B1/Face", "B2 holdout", "skipped B2/Face", "B2 cv", "skipped band B3",
        "skipped band B4"]
    assert [(r.goal_band, r.setting) for r in serial.rows] == [
        (b, s) for b in ("B1", "B2") for s in ("Basic", "LIWC", "LateFusion")]


def test_every_setting_of_a_band_fits_on_the_same_rows(monkeypatch):
    bands, labels, matrix = _separable_dataset(n=240, seed=7)
    cfg = RunConfig(seed=2, trees=2, cv_folds=3,
                    settings=(Setting.BASIC, Setting.LIWC, Setting.LATE_FUSION))
    planned = []
    real = parallel_module.parallel_map

    def recording_map(fn, tasks, jobs):
        if fn is _fit_predict:  # forest.fit maps its trees through here too
            planned.extend(tasks)
        return real(fn, tasks, jobs)

    monkeypatch.setattr(parallel_module, "parallel_map", recording_map)
    report = run_experiment(bands, labels, matrix, cfg, {})
    for band in ("B1", "B2"):
        tasks = [t for t in planned if t.settings[0][0][1] == band]
        # One holdout split plus k CV folds, each one task for every setting.
        assert len(tasks) == cfg.cv_folds + 1
        for i, task in enumerate(tasks):
            suffix = () if i == 0 else ("cv", i - 1)
            assert [parts for parts, _ in task.settings] == [
                (2, band, s, *suffix) for s in ("Basic", "LIWC", "LateFusion")]
        holdout, *cv = tasks
        assert [r.n_test for r in report.rows if r.goal_band == band] == [holdout.apply_rows.size] * 3
        # The CV folds partition the holdout's fit rows; each fold fits on the rest.
        assert np.array_equal(np.sort(np.concatenate([t.apply_rows for t in cv])), holdout.fit_rows)
        for t in cv:
            assert np.array_equal(t.fit_rows, np.setdiff1d(holdout.fit_rows, t.apply_rows))


_KINDS = ("complete", "gappy", "no finite fit value", "gaps in apply rows only")
_MODALITIES = ("basic", "text", "population", "image_quality", "face")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_band_imputation_sliced_per_model_equals_imputing_the_model_alone(data):
    n_fit, n_apply = data.draw(st.integers(2, 8)), data.draw(st.integers(1, 5))
    n, d = n_fit + n_apply, data.draw(st.integers(5, 10))
    cell = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0])
    values = np.array(data.draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n)))
    kinds = data.draw(st.lists(st.sampled_from(_KINDS), min_size=d, max_size=d))
    for j, kind in enumerate(kinds):
        gaps = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if kind == "complete":
            gaps[:] = False
        elif kind == "no finite fit value":
            gaps[:n_fit] = True
        elif kind == "gaps in apply rows only":
            gaps[:n_fit] = False
        values[gaps, j] = np.nan
    names = [f"f{j}" for j in range(d)]
    # Every modality has a column, so every setting has its model(s).
    band = FeatureMatrix(ids=[f"c{i}" for i in range(n)], names=names,
                         modalities=[_MODALITIES[j % len(_MODALITIES)] for j in range(d)], values=values)
    fit_all, apply_all, out_names, medians = impute_with_indicators(values[:n_fit], values[n_fit:], names)
    for j, kind in enumerate(kinds):
        if kind == "no finite fit value":
            assert medians[names[j]] == 0.0 and f"{names[j]}__missing" in out_names
        elif kind == "gaps in apply rows only":
            assert f"{names[j]}__missing" not in out_names
    for setting in Setting:
        for columns in _model_columns(band, setting):  # two groups for LateFusion
            at = [names.index(c) for c in columns]
            fit_alone, apply_alone, alone_names, _ = impute_with_indicators(
                values[:n_fit, at], values[n_fit:, at], list(columns))
            picked = _imputed_columns(out_names, columns)
            assert [out_names[j] for j in picked] == alone_names
            assert fit_all[:, picked].tobytes() == fit_alone.tobytes()
            assert apply_all[:, picked].tobytes() == apply_alone.tobytes()
