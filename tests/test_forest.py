import json
import multiprocessing
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fundlens.errors import DegenerateNode, ConfigError, InsufficientData, InvalidMatrix, ShapeError
import fundlens.forest as forest_module
from fundlens.forest import ForestConfig, RandomForest, best_split, fit, gini, parallel_map


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
                # Children take the tree's next ids, breadth-first.
                assert (tree.left[node], tree.right[node]) == (n_nodes, n_nodes + 1)
                n_nodes += 2
                go_left = X[rows, split[0]] <= split[1]
                level += [(tree.left[node], rows[go_left]), (tree.right[node], rows[~go_left])]
            depth += 1
        assert n_nodes == tree.feature.size


def test_a_tree_depends_only_on_seed_and_index(monkeypatch):
    X, y = _blobs(n=150, d=6, seed=11, sep=1.0)
    cfg = ForestConfig(n_estimators=12, max_features=2, seed=5)
    full = json.dumps(fit(X, y, cfg).to_json(), sort_keys=True)
    first5 = fit(X, y, replace(cfg, n_estimators=5)).to_json()["trees"]
    assert first5 == json.loads(full)["trees"][:5]
    assert json.dumps(fit(X, y, cfg, jobs=3).to_json(), sort_keys=True) == full
    # One tree per group and about one node per scan chunk.
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


def _square(x):
    return x * x


def test_parallel_map_keeps_task_order_and_caps_workers(monkeypatch):
    tasks = [3, 1, 4, 1, 5]
    assert parallel_map(_square, tasks, jobs=1) == [9, 1, 16, 1, 25]
    assert parallel_map(_square, tasks, jobs=2) == [9, 1, 16, 1, 25]
    assert parallel_map(_square, [], jobs=2) == []
    for jobs in (0, -1):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            parallel_map(_square, tasks, jobs=jobs)

    # The pool gets min(jobs, len(tasks)) workers and is not started for one.
    started = []

    class Pool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else
                multiprocessing.get_start_method())
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(forest_module, "futures", SimpleNamespace(ProcessPoolExecutor=Pool))
    assert parallel_map(_square, tasks, jobs=8) == [9, 1, 16, 1, 25]
    assert parallel_map(_square, tasks, jobs=3) == [9, 1, 16, 1, 25]
    assert parallel_map(_square, [7], jobs=4) == [49]
    assert parallel_map(_square, tasks, jobs=1) == [9, 1, 16, 1, 25]
    assert started == [5, 3]


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
