import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fundlens.errors import ConfigError, InsufficientData, InvalidMatrix, ShapeError
import fundlens.forest as forest_module
from fundlens.forest import ForestConfig, RandomForest, fit
from forest_oracle import DegenerateNode, best_split, gini, masked_leaf_proba


def _blobs(n=200, d=4, seed=0, sep=3.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal(0.0, 1.0, size=(half, d))
    x1 = rng.normal(sep, 1.0, size=(n - half, d))
    X = np.vstack([x0, x1])
    y = np.array([-2] * half + [2] * (n - half))
    perm = rng.permutation(n)
    return X[perm], y[perm]


# ---------------------------------------------------------------------------
# impurity and split search
# ---------------------------------------------------------------------------

def test_gini_values():
    assert gini([5, 5]) == pytest.approx(0.5)
    assert gini([10, 0]) == pytest.approx(0.0)
    assert gini([1, 1, 1, 1]) == pytest.approx(0.75)
    with pytest.raises(DegenerateNode):
        gini([0, 0])


def test_best_split_hand_case():
    # Perfectly separable in one feature: threshold is the midpoint of the
    # adjacent values across the class gap and the impurity decrease is the
    # full parent gini (0.5).
    X = np.array([[1.0], [2.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    split = best_split(X, y)
    assert split is not None
    feature, threshold, decrease = split
    assert feature == 0
    assert threshold == pytest.approx(6.0)
    assert decrease == pytest.approx(0.5)


def test_a_nodes_gini_sums_its_classes_in_order():
    # 1 - (0.04 + 0.04 + 0.36) is 0.56 in class order and 0.5599999999999999 reversed, so a
    # builder that sums a child's classes in another order stores another decrease.
    assert (gini([1, 1, 3]), gini([3, 1, 1])) == (0.56, 0.5599999999999999)
    X, y = np.arange(7.0)[:, None], np.array([0, 1, 2, 2, 2, 1, 1])
    model = fit(X, y, ForestConfig(n_estimators=1, bootstrap=False, max_depth=1, seed=0))
    np.testing.assert_array_equal(model.trees[0].counts, [[1, 3, 3], [1, 1, 3], [0, 2, 0]])
    decrease = gini([1, 3, 3]) - (5 * gini([1, 1, 3]) + 2 * gini([0, 2, 0])) / 7
    assert model.to_json()["importance_raw"] == [7 * decrease] == [1.4857142857142858]


def test_a_node_whose_splits_all_keep_its_class_mix_stays_a_leaf():
    # Two distinct values, but each side holds one row of each class: no positive decrease.
    X, y = np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1])
    assert best_split(X, y) is None
    model = fit(X, y, ForestConfig(n_estimators=1, bootstrap=False, seed=0))
    np.testing.assert_array_equal(model.trees[0].feature, [-1])


def test_best_split_tie_prefers_lower_feature_index():
    # Two identical columns: both give the same decrease; the lower index wins.
    col = np.array([0.0, 1.0, 10.0, 11.0])
    X = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1])
    split = best_split(X, y)
    assert split[0] == 0


def test_best_split_none_on_constant_feature():
    X = np.ones((6, 1))
    y = np.array([0, 0, 0, 1, 1, 1])
    assert best_split(X, y) is None


def test_best_split_matches_brute_force():
    # Independent oracle: exhaustive scan over every (feature, midpoint).
    rng = np.random.default_rng(42)
    for _ in range(20):
        n, d = 40, 3
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 3, size=n)
        split = best_split(X, y)
        classes = np.unique(y)
        counts_parent = np.array([(y == c).sum() for c in classes])
        parent = gini(counts_parent)
        best = None
        for f in range(d):
            xs = np.sort(np.unique(X[:, f]))
            for lo, hi in zip(xs, xs[1:]):
                thr = (lo + hi) / 2.0
                left = y[X[:, f] <= thr]
                right = y[X[:, f] > thr]
                gl = gini([(left == c).sum() for c in classes])
                gr = gini([(right == c).sum() for c in classes])
                dec = parent - (len(left) * gl + len(right) * gr) / n
                if best is None or dec > best[0] + 1e-12:
                    best = (dec, f, thr)
        if split is None:
            assert best is None or best[0] <= 1e-12
        else:
            feature, threshold, decrease = split
            assert decrease == pytest.approx(best[0], abs=1e-10)
            assert feature == best[1]
            assert threshold == pytest.approx(best[2], abs=1e-10)


# ---------------------------------------------------------------------------
# forest training
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ForestConfig(n_estimators=0)
    with pytest.raises(ConfigError):
        ForestConfig(min_samples_split=1)
    with pytest.raises(ConfigError, match="max_depth"):
        ForestConfig(max_depth=-1)
    with pytest.raises(ConfigError, match="max_features"):
        ForestConfig(max_features=0)
    assert ForestConfig(max_depth=0).max_depth == 0
    assert ForestConfig(max_features=None).resolved_max_features(16) == 4
    assert ForestConfig(max_features=None).resolved_max_features(10) == 4  # ceil(sqrt)
    assert ForestConfig(max_features=3).resolved_max_features(10) == 3


def test_fit_rejects_bad_matrices():
    cfg = ForestConfig(n_estimators=2, seed=0)
    with pytest.raises(InvalidMatrix):
        fit(np.array([[1.0, np.nan]]), np.array([0]), cfg)
    with pytest.raises(InsufficientData):
        fit(np.ones((1, 2)), np.array([0]), cfg)


def test_single_tree_memorizes_training_set():
    X, y = _blobs(n=120, sep=1.0, seed=3)
    cfg = ForestConfig(n_estimators=1, bootstrap=False, max_features=X.shape[1], seed=0)
    model = fit(X, y, cfg)
    assert (model.predict(X) == y).all()


def test_forest_is_deterministic():
    X, y = _blobs(n=150, seed=1)
    cfg = ForestConfig(n_estimators=25, seed=9)
    a = fit(X, y, cfg)
    b = fit(X, y, cfg)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    c = fit(X, y, ForestConfig(n_estimators=25, seed=10))
    assert json.dumps(a.to_json(), sort_keys=True) != json.dumps(c.to_json(), sort_keys=True)


def test_parallel_fit_matches_serial():
    X, y = _blobs(n=120, seed=2)
    cfg = ForestConfig(n_estimators=12, seed=4)
    serial = fit(X, y, cfg, jobs=1)
    parallel = fit(X, y, cfg, jobs=2)
    assert json.dumps(serial.to_json(), sort_keys=True) == json.dumps(
        parallel.to_json(), sort_keys=True
    )


@st.composite
def _fit_cases(draw):
    """Small fits with ties, constant columns and adjacent floats."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["normal", "ties", "adjacent"]))
    if kind == "normal":
        X = rng.normal(size=(n, d))
    elif kind == "ties":
        X = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        base = rng.normal()
        X = base + np.spacing(base) * rng.integers(0, 3, size=(n, d))
    if draw(st.booleans()):
        X[:, 0] = 1.0
    y = rng.integers(0, draw(st.integers(1, 4)), size=n)
    config = ForestConfig(
        n_estimators=draw(st.integers(1, 4)), seed=seed,
        max_features=draw(st.one_of(st.none(), st.integers(1, d))),
        max_depth=draw(st.one_of(st.none(), st.integers(0, 4))),
        min_samples_split=draw(st.integers(2, max(2, min(5, n)))),
        bootstrap=draw(st.booleans()))
    return X, y, config


@settings(max_examples=80, deadline=None)
@given(_fit_cases())
def test_level_builder_matches_best_split_at_every_node(case):
    # Walk each tree breadth-first, rebuilding every node's bootstrap rows and
    # replaying its candidate-feature draws: best_split on them must give the
    # stored split, and a node left unsplit while eligible must have none.
    X, y, config = case
    model = fit(X, y, config)
    n, d = X.shape
    mf = config.resolved_max_features(d)
    labels, y_codes = np.unique(y, return_inverse=True)
    importance = np.zeros((len(model.trees), d))
    for t, tree in enumerate(model.trees):
        rng = np.random.default_rng([config.seed, t])
        rows = np.sort(rng.integers(0, n, n)) if config.bootstrap else np.arange(n)
        level, depth, n_nodes = [(0, rows)], 0, 1
        while level:
            eligible = []
            for node, rows in level:
                counts = np.bincount(y_codes[rows], minlength=labels.size)
                np.testing.assert_array_equal(tree.counts[node], counts)
                if (rows.size >= config.min_samples_split and gini(counts) > 0.0
                        and (config.max_depth is None or depth < config.max_depth)):
                    eligible.append((node, rows))
                else:
                    assert tree.feature[node] == -1
            # One uniform block per level; a node takes its mf smallest draws.
            draws = np.sort(np.argsort(rng.random((len(eligible), d)), axis=1)[:, :mf], axis=1)
            level = []
            for (node, rows), feats in zip(eligible, draws):
                split = best_split(X, y, rows, feats)
                if split is None:
                    assert tree.feature[node] == -1
                    continue
                assert (tree.feature[node], tree.threshold[node]) == split[:2]
                importance[t, split[0]] += rows.size * split[2]
                # Children take the tree's next ids, breadth-first.
                assert (tree.left[node], tree.right[node]) == (n_nodes, n_nodes + 1)
                n_nodes += 2
                go_left = X[rows, split[0]] <= split[1]
                level += [(tree.left[node], rows[go_left]), (tree.right[node], rows[~go_left])]
            depth += 1
        assert n_nodes == tree.feature.size
    # Each split's weight times its decrease, added up breadth-first in each tree, then over
    # the trees: the builder must store the same bits, so its Gini arithmetic is the oracle's.
    assert model.to_json()["importance_raw"] == np.sum(importance, axis=0).tolist()


def test_a_tree_depends_only_on_seed_and_index(monkeypatch):
    X, y = _blobs(n=150, d=6, seed=11, sep=1.0)
    cfg = ForestConfig(n_estimators=12, max_features=2, seed=5)
    full = json.dumps(fit(X, y, cfg).to_json(), sort_keys=True)
    first5 = fit(X, y, replace(cfg, n_estimators=5)).to_json()["trees"]
    assert first5 == json.loads(full)["trees"][:5]
    assert json.dumps(fit(X, y, cfg, jobs=3).to_json(), sort_keys=True) == full
    # All 12 trees still grow as one group; each level is scanned about one node a chunk.
    monkeypatch.setattr(forest_module, "_ENTRY_BUDGET", 64)
    assert json.dumps(fit(X, y, cfg).to_json(), sort_keys=True) == full


def test_fit_memory_stays_flat():
    # The builder works in chunks under a fixed entry budget, so a large fit
    # holds little beyond its presorted columns and its trees.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1350, 63))
    y = np.where(rng.random(1350) < 0.5, -2, 2)
    tracemalloc.start()
    try:
        fit(X, y, ForestConfig(n_estimators=100, max_depth=8, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_fit_memory_stays_flat_without_a_depth_limit():
    # Unlimited trees end in many small nodes, so a level's chunks hold many segments.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1350, 63))
    y = np.where(rng.random(1350) < 0.5, -2, 2)
    tracemalloc.start()
    try:
        fit(X, y, ForestConfig(n_estimators=30, max_depth=None, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def _tied_cohort(n=240, d=6, seed=13):
    """Three classes over columns with many tied values."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.integers(0, 4, n), rng.integers(0, 12, n),
                         np.round(rng.normal(size=(n, d - 2)), 1)]).astype(float)
    y = np.array([3, 5, 7])[(X[:, 0] + X[:, 1] / 4 + rng.normal(size=n)).astype(int) % 3]
    return X, y


@pytest.mark.parametrize("max_depth", [None, 3])
def test_tree_groups_and_scan_chunks_never_change_a_forest(monkeypatch, max_depth):
    X, y = _tied_cohort()
    cfg = ForestConfig(n_estimators=7, max_depth=max_depth, seed=4)
    default = fit(X, y, cfg).to_json()
    # One tree per group, and about one node per scan chunk.
    monkeypatch.setattr(forest_module, "_GROUP_BUDGET", 1)
    monkeypatch.setattr(forest_module, "_ENTRY_BUDGET", 64)
    assert fit(X, y, cfg).to_json() == default
    # One group of every tree, scanning each level in one chunk.
    monkeypatch.setattr(forest_module, "_GROUP_BUDGET", cfg.n_estimators * X.shape[0])
    monkeypatch.setattr(forest_module, "_ENTRY_BUDGET", cfg.n_estimators * X.size)
    assert fit(X, y, cfg).to_json() == default


def test_fit_reads_any_memory_layout():
    # X is read in place through its strides when it is row- or column-major.
    X, y = _tied_cohort()
    cfg = ForestConfig(n_estimators=3, seed=1)
    expected = fit(X, y, cfg).to_json()
    wide = np.repeat(X, 2, axis=1)
    for layout in (np.asfortranarray(X), wide[:, ::2], np.asfortranarray(wide)[:, ::2]):
        assert fit(layout, y, cfg).to_json() == expected


#: sha256 of ``json.dumps(fit(...).to_json(), sort_keys=True)`` for the fits of
#: test_forest_bytes_are_pinned, computed before the scan-entry and tree-group budgets
#: were split: a faster builder must leave every tree as it is. The forests follow
#: NumPy's Generator streams, like tests/test_synth.py::test_write_dataset_is_pinned:
#: re-pin only after a NumPy upgrade or a change to the model file's keys, with a note
#: in CHANGES.md. Last re-pinned when ``to_json`` stopped writing ``tree_seeds``; each
#: digest is that of the earlier payload without that key.
_FOREST_DIGESTS = {
    "2 classes, depth 6": "3af702dc3aac4c57614ed207bf16702b83fc0f9fb9bfe6c68ec9416825b4dc0c",
    "3 classes, unlimited": "9c78a037a34a885fb2475681e063eabf6face50f7d92f5bd4ff26e16ab9edd14",
    "7 classes, depth 4": "18d0d28367ae4997615eafa4c39df6baab45e0f7c477e5a4f6fe68dcb916912b",
}


def test_forest_bytes_are_pinned():
    rng = np.random.default_rng(17)
    X7 = np.column_stack([rng.integers(0, 9, 1100), rng.normal(size=(1100, 3))])
    y7 = (X7[:, 0].astype(int) + (X7[:, 1] > 0)) % 7
    fits = {
        "2 classes, depth 6": (*_blobs(n=400, d=9, seed=21, sep=0.8),
                               ForestConfig(n_estimators=16, max_depth=6, seed=7)),
        "3 classes, unlimited": (*_tied_cohort(), ForestConfig(n_estimators=12, seed=8)),
        # Seven classes on 1,100 rows take two packed class-sum words.
        "7 classes, depth 4": (X7, y7, ForestConfig(n_estimators=3, max_depth=4, seed=2)),
    }
    digests = {name: hashlib.sha256(json.dumps(fit(X, y, cfg).to_json(), sort_keys=True)
                                    .encode()).hexdigest() for name, (X, y, cfg) in fits.items()}
    assert digests == _FOREST_DIGESTS


@settings(max_examples=60, deadline=None)
@given(_fit_cases(), st.sampled_from([None, 0, 2]), st.booleans())
def test_predict_proba_matches_the_masked_walk(case, max_depth, reload):
    # Single-leaf trees, trees with no depth limit and one to four classes, as fitted and as
    # loaded back: every row's probabilities are those of the masked walk, bit for bit.
    X, y, config = case
    model = fit(X, y, replace(config, max_depth=max_depth))
    if reload:
        model = RandomForest.from_json(json.loads(json.dumps(model.to_json())))
    rows = np.vstack((X, X[::-1] + 0.5))
    expected = np.zeros((rows.shape[0], model.labels.size))
    for tree in model.trees:
        expected += masked_leaf_proba(tree, rows)
    assert model.predict_proba(rows).tobytes() == (expected / len(model.trees)).tobytes()


def test_predict_proba_properties():
    X, y = _blobs(n=200, seed=5)
    model = fit(X, y, ForestConfig(n_estimators=30, seed=0))
    proba = model.predict_proba(X)
    assert proba.shape == (200, 2)
    assert np.all(proba >= 0)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    # argmax of proba agrees with predict (ties go to the lower label)
    np.testing.assert_array_equal(model.predict(X), model.labels[np.argmax(proba, axis=1)])


def test_batched_predict_proba_equals_per_row_calls():
    # predict scores a whole band in one call; every row must get exactly
    # the probabilities a call on that row alone gives.
    X, y = _blobs(n=150, d=3, seed=4, sep=1.0)
    model = fit(X, y, ForestConfig(n_estimators=25, max_depth=4, seed=1))
    batched = model.predict_proba(X)
    stacked = np.vstack([model.predict_proba(X[i : i + 1]) for i in range(X.shape[0])])
    assert batched.tobytes() == stacked.tobytes()
    assert len(np.unique(batched[:, 0])) > 2  # leaves hold mixed classes


def test_predict_tie_breaks_to_lower_label():
    # A forest with zero splits predicts the prior; craft an exact tie.
    X = np.array([[0.0], [0.0], [0.0], [0.0]])
    y = np.array([-2, -2, 2, 2])
    model = fit(X, y, ForestConfig(n_estimators=4, bootstrap=False, seed=0))
    proba = model.predict_proba(np.array([[0.0]]))
    np.testing.assert_allclose(proba, [[0.5, 0.5]])
    assert model.predict(np.array([[0.0]]))[0] == -2
    assert not model.feature_importances().any()


def test_feature_importances():
    rng = np.random.default_rng(6)
    n = 300
    X = rng.normal(size=(n, 5))
    y = np.where(X[:, 3] > 0, 2, -2)
    model = fit(X, y, ForestConfig(n_estimators=40, seed=1),
                feature_names=[f"f{i}" for i in range(5)])
    imp = model.feature_importances()
    assert imp.sum() == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(imp)) == 3


def test_relabeling_consistency():
    # Shifting all labels by a constant permutes nothing structural:
    # predictions differ by exactly that constant.
    X, y = _blobs(n=100, seed=7)
    a = fit(X, y, ForestConfig(n_estimators=15, seed=2))
    b = fit(X, y + 10, ForestConfig(n_estimators=15, seed=2))
    np.testing.assert_array_equal(a.predict(X) + 10, b.predict(X))


def test_serialization_roundtrip(tmp_path):
    X, y = _blobs(n=80, seed=8)
    model = fit(X, y, ForestConfig(n_estimators=10, seed=3), feature_names=["a", "b", "c", "d"])
    path = tmp_path / "model.json"
    model.save(path)
    loaded = RandomForest.load(path)
    np.testing.assert_array_equal(model.predict(X), loaded.predict(X))
    np.testing.assert_allclose(model.predict_proba(X), loaded.predict_proba(X), atol=0)
    np.testing.assert_allclose(model.feature_importances(), loaded.feature_importances())
    assert loaded.feature_names == model.feature_names
    # A config block with a key this version does not know is a data error.
    payload = model.to_json()
    payload["config"]["criterion"] = "gini"
    with pytest.raises(ShapeError):
        RandomForest.from_json(payload)


def test_a_model_file_with_tree_seeds_still_loads():
    # Model files written before to_json dropped the key list each tree's seed parts;
    # from_json ignores the key, so such a file predicts as before.
    X, y = _blobs(n=80, seed=8)
    model = fit(X, y, ForestConfig(n_estimators=6, seed=3))
    payload = model.to_json()
    assert "tree_seeds" not in payload
    payload["tree_seeds"] = [[3, i] for i in range(6)]
    loaded = RandomForest.from_json(json.loads(json.dumps(payload)))
    assert loaded.to_json() == model.to_json()
    assert loaded.predict_proba(X).tobytes() == model.predict_proba(X).tobytes()
    assert loaded.predict(X).tobytes() == model.predict(X).tobytes()


def test_predict_shape_check():
    X, y = _blobs(n=60, seed=9)
    model = fit(X, y, ForestConfig(n_estimators=5, seed=0))
    with pytest.raises(ShapeError):
        model.predict(np.ones((3, 7)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_forest_separable_blobs_property(seed):
    X, y = _blobs(n=80, d=2, seed=seed, sep=6.0)
    model = fit(X, y, ForestConfig(n_estimators=10, seed=seed))
    assert (model.predict(X) == y).mean() >= 0.95
