"""From-scratch CART trees and a random-forest classifier.

Trees are stored as flat arrays (feature, threshold, child links, leaf
class counts) and split search is vectorized across candidate features, so
training stays fast without any compiled extension. Determinism contract:
per-tree RNG seeds are derived from (config.seed, tree_index), never from
scheduling, so parallel and serial training build identical forests.
``parallel_map`` is the one place that starts a process pool.
"""

from __future__ import annotations

import json
import math
from concurrent import futures
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateNode, InsufficientData, InvalidMatrix, ShapeError

_SERIAL_VERSION = 1


@dataclass(frozen=True)
class ForestConfig:
    n_estimators: int = 1000
    min_samples_split: int = 2
    max_features: Optional[int] = None  # None -> ceil(sqrt(d))
    max_depth: Optional[int] = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ConfigError("n_estimators must be >= 1")
        if self.min_samples_split < 2:
            raise ConfigError("min_samples_split must be >= 2")

    def resolved_max_features(self, d: int) -> int:
        mf = self.max_features if self.max_features is not None else math.ceil(math.sqrt(d))
        return max(1, min(mf, d))


def gini(counts) -> float:
    """CART impurity 1 - sum((c_i / N)^2)."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.min() < 0 or counts.sum() < 1:
        raise DegenerateNode(f"bad class counts: {counts}")
    p = counts / counts.sum()
    return float(1.0 - (p * p).sum())


def _impurity(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts / total
    return float(1.0 - (p * p).sum())


def _scan_candidates(X, y_codes, rows, feats, n_classes, parent_impurity):
    """Best (feature, threshold, impurity decrease) over candidate features.

    Thresholds are midpoints of consecutive distinct sorted values; ties are
    broken by lower feature index, then lower threshold (argmax keeps the
    first maximum, and feats is sorted ascending).
    """
    m = rows.size
    Xn = X[np.ix_(rows, feats)]
    order = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, order, axis=0)
    ys = y_codes[rows][order]
    oh = ys[..., None] == np.arange(n_classes)
    cum = np.cumsum(oh, axis=0, dtype=np.float64)
    total = cum[-1]
    left = cum[:-1]
    right = total[None, :, :] - left
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    nr = float(m) - nl
    il = 1.0 - ((left / nl[..., None]) ** 2).sum(axis=-1)
    ir = 1.0 - ((right / nr[..., None]) ** 2).sum(axis=-1)
    decrease = parent_impurity - (nl * il + nr * ir) / m
    decrease[Xs[1:] <= Xs[:-1]] = -np.inf
    best_pos = np.argmax(decrease, axis=0)
    cols = np.arange(feats.size)
    best_dec = decrease[best_pos, cols]
    j = int(np.argmax(best_dec))
    if not (best_dec[j] > 1e-15):
        return None
    pos = best_pos[j]
    threshold = 0.5 * (Xs[pos, j] + Xs[pos + 1, j])
    # For adjacent floats the midpoint can round up to the higher value, which
    # would send every row left; fall back to the lower value (same partition).
    if threshold >= Xs[pos + 1, j]:
        threshold = Xs[pos, j]
    return int(feats[j]), float(threshold), float(best_dec[j])


def best_split(X, y, rows=None, features=None):
    """Exhaustive best split over the given rows and candidate features.

    Returns (feature_index, threshold, impurity_decrease) or None when no
    split gives a positive decrease.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    labels, y_codes = np.unique(np.asarray(y), return_inverse=True)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    feats = np.arange(X.shape[1]) if features is None else np.sort(np.asarray(features, dtype=np.intp))
    counts = np.bincount(y_codes[rows], minlength=labels.size).astype(np.float64)
    parent = _impurity(counts)
    if parent <= 0.0:
        return None
    return _scan_candidates(X, y_codes, rows, feats, labels.size, parent)


@dataclass
class Tree:
    feature: np.ndarray    # int32; -1 marks a leaf
    threshold: np.ndarray  # float64; go left iff value <= threshold
    left: np.ndarray       # int32 child indices
    right: np.ndarray
    counts: np.ndarray     # (n_nodes, n_classes) training-sample class counts

    def leaf_proba(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int32)
        active = self.feature[idx] >= 0
        while active.any():
            cur = idx[active]
            f = self.feature[cur]
            go_left = X[active, f] <= self.threshold[cur]
            idx[active] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.feature[idx] >= 0
        cnt = self.counts[idx]
        return cnt / cnt.sum(axis=1, keepdims=True)


def _build_tree(X, y_codes, n_classes, config: ForestConfig, tree_index: int):
    rng = np.random.default_rng([config.seed, tree_index])
    n, d = X.shape
    max_features = config.resolved_max_features(d)
    rows0 = rng.integers(0, n, n) if config.bootstrap else np.arange(n)
    feature: list = []
    threshold: list = []
    left: list = []
    right: list = []
    counts: list = []
    importance = np.zeros(d)
    stack = [(rows0, 0, -1, False)]
    while stack:
        rows, depth, parent, is_left = stack.pop()
        idx = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = idx
            else:
                right[parent] = idx
        cnt = np.bincount(y_codes[rows], minlength=n_classes).astype(np.float64)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(cnt)
        if rows.size < config.min_samples_split:
            continue
        if config.max_depth is not None and depth >= config.max_depth:
            continue
        parent_imp = _impurity(cnt)
        if parent_imp <= 0.0:
            continue
        if max_features < d:
            feats = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            feats = np.arange(d)
        found = _scan_candidates(X, y_codes, rows, feats, n_classes, parent_imp)
        if found is None:
            continue
        f, thr, dec = found
        split_left = X[rows, f] <= thr
        if split_left.all() or not split_left.any():
            continue  # degenerate split; keep the node as a leaf
        feature[idx] = f
        threshold[idx] = thr
        importance[f] += rows.size * dec
        stack.append((rows[~split_left], depth + 1, idx, False))
        stack.append((rows[split_left], depth + 1, idx, True))
    tree = Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        counts=np.vstack(counts),
    )
    return tree, importance


class RandomForest:
    """Trained ensemble; immutable and safely shareable across threads."""

    def __init__(self, trees, labels, feature_names, config, tree_seeds, importance_raw):
        self.trees = trees
        self.labels = np.asarray(labels)
        self.feature_names = list(feature_names)
        self.config = config
        self.tree_seeds = tree_seeds
        self._importance_raw = importance_raw

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def _check(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ShapeError(f"expected {self.n_features} features, got {X.shape[1]}")
        return X

    def predict_proba(self, X) -> np.ndarray:
        X = self._check(X)
        proba = np.zeros((X.shape[0], self.labels.size))
        for tree in self.trees:
            proba += tree.leaf_proba(X)
        return proba / len(self.trees)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        # argmax keeps the first maximum: ties go to the lower label.
        return self.labels[np.argmax(proba, axis=1)]

    def feature_importances(self) -> np.ndarray:
        """Mean decrease in impurity, normalized to sum 1; all-zero when no tree split."""
        total = self._importance_raw.sum()
        if total == 0.0:
            return np.zeros(self.n_features)
        return self._importance_raw / total

    def to_json(self) -> dict:
        return {
            "version": _SERIAL_VERSION,
            "config": asdict(self.config),
            "labels": self.labels.tolist(),
            "feature_names": self.feature_names,
            "tree_seeds": [list(s) for s in self.tree_seeds],
            "importance_raw": self._importance_raw.tolist(),
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "counts": t.counts.tolist(),
                }
                for t in self.trees
            ],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True), encoding="utf-8")

    @classmethod
    def from_json(cls, payload: dict) -> "RandomForest":
        if payload.get("version") != _SERIAL_VERSION:
            raise ShapeError(f"unsupported model version: {payload.get('version')}")
        try:
            config = ForestConfig(**payload["config"])
        except TypeError as exc:  # e.g. a "criterion" key from an older model file
            raise ShapeError(f"unsupported model config: {exc}") from None
        trees = [
            Tree(
                feature=np.asarray(t["feature"], dtype=np.int32),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int32),
                right=np.asarray(t["right"], dtype=np.int32),
                counts=np.asarray(t["counts"], dtype=np.float64),
            )
            for t in payload["trees"]
        ]
        return cls(
            trees=trees,
            labels=np.asarray(payload["labels"]),
            feature_names=payload["feature_names"],
            config=config,
            tree_seeds=[tuple(s) for s in payload["tree_seeds"]],
            importance_raw=np.asarray(payload["importance_raw"], dtype=np.float64),
        )

    @classmethod
    def load(cls, path) -> "RandomForest":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def parallel_map(fn, tasks, jobs: int) -> list:
    """``[fn(t) for t in tasks]`` on min(jobs, len(tasks)) worker processes.

    Runs serially in this process when that number is 1. fn and each task
    are pickled to the workers, so fn must be a module-level function and a
    task must carry everything fn needs: workers share no state with this
    process. Results come back in task order whatever the scheduling.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # The platform's default start method: with "spawn" each worker imports
    # NumPy afresh, about 0.45 s a stage on a 2-vCPU host, more than the fits
    # of a small cohort take. Results do not depend on the method.
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _fit_chunk(args):
    X, y_codes, n_classes, config, indices = args
    return [_build_tree(X, y_codes, n_classes, config, i) for i in indices]


def fit(X, y, config: ForestConfig, feature_names=None, jobs: int = 1) -> RandomForest:
    """Train a forest of CART trees on bootstrap samples.

    A single-class y is a valid constant model. With jobs > 1 the tree
    indices are split into chunks built on worker processes; seeds are
    index-derived so the result is identical to serial training.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidMatrix(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InvalidMatrix("X contains non-finite entries")
    y = np.asarray(y)
    if y.shape[0] != X.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < config.min_samples_split:
        raise InsufficientData(f"need at least {config.min_samples_split} rows, got {X.shape[0]}")
    labels, y_codes = np.unique(y, return_inverse=True)
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    if len(feature_names) != X.shape[1]:
        raise ShapeError("feature_names must match the number of columns")

    indices = list(range(config.n_estimators))
    chunks = [indices[i::jobs] for i in range(min(jobs, len(indices)))]
    built = parallel_map(_fit_chunk, [(X, y_codes, labels.size, config, c) for c in chunks], jobs)
    by_index = {i: pair for chunk, pairs in zip(chunks, built) for i, pair in zip(chunk, pairs)}
    built_pairs = [by_index[i] for i in indices]

    trees = [t for t, _ in built_pairs]
    importance_raw = np.sum([imp for _, imp in built_pairs], axis=0)
    tree_seeds = [(config.seed, i) for i in indices]
    return RandomForest(trees, labels, feature_names, config, tree_seeds, importance_raw)
