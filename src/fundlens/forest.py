"""From-scratch CART trees and a random-forest classifier.

A fit sorts each column once and grows its trees in groups, the trees of a group together,
one depth level at a time, over integer bootstrap row weights, as SLIQ and XGBoost's exact
greedy search do; ``best_split`` is the per-node reference. Two budgets size the work: a
group holds at most ``_GROUP_BUDGET`` (tree, row) pairs, and a level is scanned in chunks
of about ``_ENTRY_BUDGET`` (node, feature, row) entries. A tree draws its bootstrap, then
one block of candidate features per level, from its own generator seeded (config.seed,
tree_index), so it depends on nothing else: not on groups, chunks or ``jobs``. Trees are
flat arrays in breadth-first order. ``parallel_map`` is the one place that starts a pool.
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
_TREE_DTYPES = {"feature": np.int32, "threshold": np.float64, "left": np.int32, "right": np.int32,
                "counts": np.float64}
#: Most (node, feature, row) entries a scan chunk holds before its last node. A chunk's
#: working set is roughly 100 B an entry, so this budget bounds a fit's memory.
_ENTRY_BUDGET = 1 << 14
#: Most (tree, row) pairs a tree group holds: its trees share each level's calls, so 10
#: trees on 600 rows grow as one group. This budget bounds the calls, not the memory.
_GROUP_BUDGET = 1 << 13


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
            raise ConfigError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.min_samples_split < 2:
            raise ConfigError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.max_features is not None and self.max_features < 1:
            raise ConfigError(f"max_features must be >= 1, got {self.max_features}")

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
    parent = gini(counts)
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


class _Columns:
    """A fit's rows sorted once: ``order[f, k]`` is the row with the k-th smallest
    value of feature f (ties in row order), and ``rank[f, order[f, k]] == k``. X is read
    through ``flat[row * steps[0] + feature * steps[1]]``, so a row-major X and the
    column-major one that imputation builds are used without a copy.

    A class weight sum over a tree's rows is a whole number of at most n, so ``packed`` puts
    several classes, ``bits`` apart, into one uint64 word. Words add and subtract modulo 2**64,
    so a difference of two running sums holds each class's sum between them exactly."""

    def __init__(self, X, y_codes, n_classes):
        X = X if X.flags.c_contiguous or X.flags.f_contiguous else np.ascontiguousarray(X)
        self.flat, self.steps = X.ravel(order="K"), np.array(X.strides) // X.itemsize
        self.y_codes, self.n_classes = y_codes, n_classes
        n, d = X.shape
        self.order = np.argsort(X.T, axis=1, kind="stable").astype(np.int32)
        self.rank = np.empty_like(self.order)
        np.put(self.rank, self.order + np.arange(0, d * n, n, dtype=np.int32)[:, None],
               np.arange(n, dtype=np.int32))
        self.bits = n.bit_length()
        self.word, shift = np.divmod(np.arange(n_classes), 64 // self.bits)
        self.shift = (shift * self.bits).astype(np.uint64)[:, None]
        self.to_word = np.where(self.word[:, None] == np.arange(self.word[-1] + 1),
                                np.uint64(1) << self.shift, np.uint64(0))

    def packed(self, counts):
        """(words, rows) packed words of a (rows, classes) array of class counts."""
        return (counts.astype(np.uint64) @ self.to_word).T

    def unpacked(self, words):
        """(classes, k) float class counts of (words, k) packed words."""
        counts = words[self.word]
        counts >>= self.shift
        counts &= np.uint64((1 << self.bits) - 1)
        return counts.astype(np.float64)


def _scan(cols: _Columns, packed, tree_of, pair_row, size, counts, impurity, cand):
    """(nodes, feature, threshold, decrease, left class counts) of a frontier chunk's nodes
    that split, or None. Sorted keys ``(node * mf + j) * n + rank of the row in cand[node, j]``
    order each (node, feature) segment by value and a node's segments by feature. Class sums
    run in class order, as NumPy sums the per-node reference ``_scan_candidates`` for under 8
    classes: the same bits. Each array is dropped once spent: the chunk's peak working set
    bounds a fit's memory."""
    (d, n), (n_nodes, mf) = cols.order.shape, cand.shape
    it = np.int32 if max(n_nodes * mf, d) * n < 2**31 else np.int64  # keys, rows and features
    seg = np.arange(n_nodes * mf, dtype=it)
    cand = cand.astype(it)
    keys = np.repeat(cand * n, size, axis=0)
    keys += pair_row[:, None]
    keys = cols.rank.ravel().take(keys).astype(it, copy=False)
    keys += np.repeat((seg * n).reshape(n_nodes, mf), size, axis=0)
    keys = keys.ravel()
    keys.sort()
    # key - segment * n is the row's rank: this makes each key the (feature, rank) index of order.
    seg_size = np.repeat(size, mf)
    keys += np.repeat((cand.ravel() - seg) * n, seg_size)
    row = cols.order.ravel().take(keys).astype(it, copy=False)
    del keys
    value = cols.flat.take(row * cols.steps[0] + np.repeat(cand.ravel() * cols.steps[1], seg_size))
    # pos: each entry just left of a boundary between distinct values of a segment.
    step = value[1:] > value[:-1]
    start = np.cumsum(seg_size) - seg_size
    step[start[1:] - 1] = False
    pos = np.flatnonzero(step)
    del step
    if pos.size == 0:
        return None
    seg = np.searchsorted(start, pos, side="right") - 1
    node = seg // mf
    # run[:, k]: the packed class weights of the chunk's first k entries. Left of a boundary
    # are its segment's entries up to and including pos; right of it, the rest of the node's.
    row += np.repeat((tree_of * n).astype(it), size * mf)
    run = np.zeros((packed.shape[0], row.size + 1), np.uint64)
    packed.take(row, axis=1, out=run[:, 1:], mode="clip")
    del row
    np.cumsum(run, axis=1, out=run)
    words = run.take(pos + 1, axis=1)
    words -= run.take(start[seg], axis=1)
    del seg
    # The reference's Gini of each side, 1 - sum((class / total) ** 2) in class order.
    left = cols.unpacked(words)
    nl = left.sum(axis=0)
    np.square(np.divide(left, nl, out=left), out=left)
    gini_left = 1.0 - left.sum(axis=0)
    del left
    np.subtract(cols.packed(counts).take(node, axis=1), words, out=words)
    right = cols.unpacked(words)
    nr = right.sum(axis=0)
    np.square(np.divide(right, nr, out=right), out=right)
    gini_right = 1.0 - right.sum(axis=0)
    del right
    decrease = impurity[node] - (nl * gini_left + nr * gini_right) / counts.sum(axis=1)[node]
    del gini_left, gini_right, nl, nr
    # Segmented first max: the lower feature, then the lower threshold, wins a tie.
    new = np.concatenate(([True], node[1:] != node[:-1]))
    starts = np.flatnonzero(new)
    best = np.maximum.reduceat(decrease, starts)
    best_of = np.empty(n_nodes)
    best_of[node[starts]] = best
    hit = np.where(decrease == best_of[node], np.arange(pos.size), pos.size)
    first = np.minimum.reduceat(hit, starts)[best > 1e-15]
    at, node = pos[first], node[first]
    lo, hi = value[at], value[at + 1]
    # Between adjacent floats the midpoint can round up to hi: then use lo (same partition).
    threshold = np.where(0.5 * (lo + hi) >= hi, lo, 0.5 * (lo + hi))
    feature = cand.ravel()[np.searchsorted(start, at, side="right") - 1]
    return node, feature, threshold, decrease[first], counts[node] - cols.unpacked(words[:, first]).T


def _grow(task):
    """[(Tree, importance)] of trees ``indices``, grown together one depth level at a time
    in groups of at most ``_GROUP_BUDGET`` (tree, row) pairs; a level scans its frontier in
    chunks of about ``_ENTRY_BUDGET`` entries, never splitting a node across chunks."""
    cols, config, indices = task
    (d, n), n_classes = cols.order.shape, cols.n_classes
    group = max(1, _GROUP_BUDGET // n)
    if len(indices) > group:
        return [p for i in range(0, len(indices), group)
                for p in _grow((cols, config, indices[i:i + group]))]
    mf, n_trees = config.resolved_max_features(d), len(indices)
    rngs = [np.random.default_rng([config.seed, t]) for t in indices]
    weights = (np.stack([np.bincount(r.integers(0, n, n), minlength=n) for r in rngs])
               if config.bootstrap else np.ones((n_trees, n), dtype=np.int64))
    # packed[:, t * n + r]: row r's weight in tree t, in its class's field.
    class_weight = weights[:, :, None] * (cols.y_codes[:, None] == np.arange(n_classes))
    packed = cols.packed(class_weight.reshape(n_trees * n, n_classes))
    counts = class_weight.sum(axis=1).astype(np.float64)
    del class_weight

    def frontier(counts, depth):
        """Each frontier node's total weight, Gini impurity and whether it may split."""
        total = counts.sum(axis=1)
        impurity = 1.0 - ((counts / total[:, None]) ** 2).sum(axis=1)
        eligible = (total >= config.min_samples_split) & (impurity > 0.0)
        return total, impurity, eligible & (config.max_depth is None or depth < config.max_depth)

    total, impurity, eligible = frontier(counts, 0)
    # The in-bag rows of each eligible frontier node, node after node; roots first.
    in_bag = weights[eligible]
    pair_row, size = np.nonzero(in_bag)[1].astype(np.int32), np.count_nonzero(in_bag, axis=1)
    node_tree, tree_size = np.arange(n_trees), np.ones(n_trees, dtype=np.int64)
    importance, levels = np.zeros((n_trees, d)), []
    no_split = (np.empty(0, np.intp),) * 2 + (np.empty(0),) * 2 + (np.empty((0, n_classes)),)
    while node_tree.size:
        n_front, nodes = node_tree.size, np.flatnonzero(eligible)
        end = np.cumsum(size)
        found = [no_split]
        if nodes.size:
            # Each tree draws one uniform block for its eligible nodes, in frontier order; a
            # node's candidates are the mf features with the smallest draws, sorted.
            per_tree = np.bincount(node_tree[nodes], minlength=n_trees)
            draws = np.concatenate([r.random((c, d)) for r, c in zip(rngs, per_tree) if c])
            cand = np.sort(np.argsort(draws, axis=1)[:, :mf], axis=1)
            chunk = (end - size) * mf // _ENTRY_BUDGET
            bounds = np.flatnonzero(np.concatenate(([True], chunk[1:] != chunk[:-1], [True])))
            for a, b in zip(bounds[:-1], bounds[1:]):
                sel, rows = nodes[a:b], slice(end[a] - size[a], end[b - 1])
                split = _scan(cols, packed, node_tree[sel], pair_row[rows], size[a:b],
                              counts[sel], impurity[sel], cand[a:b])
                if split is not None:
                    found.append((split[0] + a, *split[1:]))
        split, feat, thr, dec, left_counts = (np.concatenate(c) for c in zip(*found))
        parent, ptree = nodes[split], node_tree[nodes[split]]
        feature, left = np.full((2, n_front), -1, dtype=np.int32)
        threshold = np.zeros(n_front)
        feature[parent], threshold[parent] = feat, thr
        np.add.at(importance, (ptree, feat), total[parent] * dec)
        # Each tree's children take its next ids, in frontier order, left then right.
        left[parent] = tree_size[ptree] + 2 * (np.arange(parent.size) - np.searchsorted(ptree, ptree))
        levels.append((node_tree, feature, threshold, left, np.where(left < 0, -1, left + 1), counts))
        tree_size += 2 * np.bincount(ptree, minlength=n_trees)
        # The next frontier: each split node's children, left then right, with the class
        # counts on each side of the boundary that split it.
        counts = np.concatenate((left_counts, counts[parent] - left_counts), axis=1)
        counts = counts.reshape(-1, n_classes)
        total, impurity, eligible = frontier(counts, len(levels))
        node_tree = np.repeat(ptree, 2)
        # Route each pair of a split node to its child and keep the eligible children's pairs.
        child = np.full(nodes.size, -2)
        child[split] = 2 * np.arange(split.size)
        child = np.repeat(child, size)
        at = pair_row * cols.steps[0] + np.repeat(feature[nodes] * cols.steps[1], size)
        child += cols.flat[at] > np.repeat(threshold[nodes], size)
        keep = child >= 0
        keep[keep] = eligible[child[keep]]
        child, pair_row = child[keep], pair_row[keep]
        # A counting sort by child that keeps each child's pairs in order: the pairs that went
        # left fill the left children's slots, in order, and those that went right the rest.
        size = np.bincount(child, minlength=eligible.size)
        to_left, went_left = np.repeat(np.arange(eligible.size) % 2 == 0, size), child % 2 == 0
        pair_row[to_left], pair_row[~to_left] = pair_row[went_left], pair_row[~went_left]
        size = size[eligible]
    tree_of = np.concatenate([lv[0] for lv in levels])
    by_tree, cuts = np.argsort(tree_of, kind="stable"), np.cumsum(np.bincount(tree_of))[:-1]
    arrays = [np.split(np.concatenate([lv[i] for lv in levels])[by_tree], cuts) for i in range(1, 6)]
    return [(Tree(*parts), imp) for *parts, imp in zip(*arrays, importance)]


class RandomForest:
    """Trained ensemble; immutable and safely shareable across threads."""

    def __init__(self, trees, labels, feature_names, config, tree_seeds, importance_raw):
        self.trees, self.labels, self.feature_names = trees, np.asarray(labels), list(feature_names)
        self.config, self.tree_seeds, self._importance_raw = config, tree_seeds, importance_raw

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
        return {"version": _SERIAL_VERSION, "config": asdict(self.config),
                "labels": self.labels.tolist(), "feature_names": self.feature_names,
                "tree_seeds": [list(s) for s in self.tree_seeds],
                "importance_raw": self._importance_raw.tolist(),
                "trees": [{k: getattr(t, k).tolist() for k in _TREE_DTYPES} for t in self.trees]}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True), encoding="utf-8")

    @classmethod
    def from_json(cls, payload: dict, source: str = "model") -> "RandomForest":
        """The forest ``to_json`` wrote, or ShapeError naming ``source``, ending in "retrain"."""
        def bad(problem):
            return ShapeError(f"{source}: {problem}; retrain")
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != _SERIAL_VERSION:
            raise bad(f"unsupported model version: {version}")
        try:
            config = ForestConfig(**payload["config"])
            labels, feature_names = np.asarray(payload["labels"]), list(payload["feature_names"])
            trees = [Tree(*(np.asarray(t[k], dtype=dt) for k, dt in _TREE_DTYPES.items()))
                     for t in payload["trees"]]
            tree_seeds = [tuple(s) for s in payload["tree_seeds"]]
            importance_raw = np.asarray(payload["importance_raw"], dtype=np.float64)
        except KeyError as exc:
            raise bad(f"missing field {exc}") from None
        except (TypeError, ValueError, ConfigError) as exc:  # a bad config key or value, ragged arrays
            raise bad(f"malformed model: {exc}") from None
        if importance_raw.shape != (len(feature_names),):
            raise bad("importance_raw does not match feature_names")
        for i, t in enumerate(trees):
            n, inner = t.feature.size, np.flatnonzero(t.feature >= 0)
            if not n or {a.shape for a in (t.feature, t.threshold, t.left, t.right)} != {(n,)}:
                raise bad(f"tree {i}: node arrays of unequal length")
            if (t.feature.min() < -1 or t.feature.max() >= len(feature_names)
                    or t.counts.shape != (n, labels.size)):
                raise bad(f"tree {i}: a feature index outside [-1, {len(feature_names)}) "
                          f"or counts not of shape ({n}, {labels.size})")
            if not (np.isfinite(t.threshold).all() and np.isfinite(t.counts).all()
                    and (t.counts >= 0).all() and (t.counts.sum(axis=1) > 0).all()):
                raise bad(f"tree {i}: a threshold or count that is not finite, a negative count, "
                          "or a node that counts no sample")
            # A child after its node also rules out a cycle.
            if any(((c[inner] <= inner) | (c[inner] >= n)).any() for c in (t.left, t.right)):
                raise bad(f"tree {i}: a child index is not after its node")
        return cls(trees, labels, feature_names, config, tree_seeds, importance_raw)

    @classmethod
    def load(cls, path) -> "RandomForest":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ShapeError(f"{path}: not a model file ({exc}); retrain") from None
        return cls.from_json(payload, source=str(path))


def parallel_map(fn, tasks, jobs: int) -> list:
    """``[fn(t) for t in tasks]`` on min(jobs, len(tasks)) worker processes, or in this process
    when that is 1. fn (module-level) and each task are pickled; results keep task order."""
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # "fork" where the platform has it: under "spawn" or "forkserver" (Linux's default from
    # Python 3.14) each worker imports NumPy afresh, about 0.45 s a stage on a 2-vCPU host.
    import multiprocessing  # not at module level: a serial run never loads it
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with futures.ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context(method)) as pool:
        return list(pool.map(fn, tasks))


def fit(X, y, config: ForestConfig, feature_names=None, jobs: int = 1) -> RandomForest:
    """Train a forest of CART trees on bootstrap samples (a single-class y gives a constant
    model). With jobs > 1, tasks of trees grow on worker processes, with the same result."""
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
    cols, n_trees = _Columns(X, y_codes, labels.size), config.n_estimators
    size = -(-n_trees // max(jobs, 1))  # one task of trees a worker
    tasks = [(cols, config, range(i, min(i + size, n_trees))) for i in range(0, n_trees, size)]
    trees, importance = zip(*(p for part in parallel_map(_grow, tasks, jobs) for p in part))
    return RandomForest(list(trees), labels, feature_names, config,
                        [(config.seed, i) for i in range(n_trees)], np.sum(importance, axis=0))
