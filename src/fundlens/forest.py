"""From-scratch CART trees and a random-forest classifier.

A fit sorts each column once and grows its trees in groups, the trees of a group together,
one depth level at a time, over integer bootstrap row weights, as SLIQ and XGBoost's exact
greedy search do; ``best_split`` in tests/forest_oracle.py is the per-node reference. Two
budgets size the work: a group holds at most ``_GROUP_BUDGET`` (tree, row) pairs, and a
level is scanned in chunks of about ``_ENTRY_BUDGET`` (node, feature, row) entries. A tree
draws its bootstrap, then one block of candidate features per level, from its own generator
seeded (config.seed, tree_index), so it depends on nothing else: not on groups, chunks or
``jobs``. Trees are flat arrays in breadth-first order, numbered once the group's last
level is grown. With ``jobs`` above 1, ``parallel.parallel_map`` grows the trees on this
process and forked children.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import parallel
from .errors import ConfigError, InsufficientData, InvalidMatrix, ShapeError

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


@dataclass
class Tree:
    feature: np.ndarray    # int32; -1 marks a leaf
    threshold: np.ndarray  # float64; go left iff value <= threshold
    left: np.ndarray       # int32 child indices
    right: np.ndarray
    counts: np.ndarray     # (n_nodes, n_classes) training-sample class counts

    def leaf_proba(self, X: np.ndarray) -> np.ndarray:
        # child[2 * i] and child[2 * i + 1]: node i's right and left child, or i itself at a
        # leaf. Every step moves every row, none masked: a row at a leaf stays there, and the
        # walk ends when no row is left at an inner node (a leaf's feature -1 reads a real
        # cell of X, whose value goes unused).
        child = np.where(self.feature >= 0, np.array((self.right, self.left)),
                         np.arange(self.feature.size)).T.ravel()
        feature, flat = self.feature.astype(np.intp), X.ravel()
        base, at = np.arange(X.shape[0]) * X.shape[1], np.zeros(X.shape[0], dtype=np.intp)
        while (f := feature.take(at)).max(initial=-1) >= 0:
            f += base
            at = child.take(2 * at + (flat.take(f) <= self.threshold.take(at)))
        cnt = self.counts[at]
        return cnt / cnt.sum(axis=1, keepdims=True)


class _Columns:
    """A fit's rows sorted once: ``order[f, k]`` is the row with the k-th smallest
    value of feature f (ties in row order), and ``rank[f, order[f, k]] == k``. X is read
    through ``flat[row * steps[0] + feature * steps[1]]``, so a row-major X and the
    column-major one that imputation builds are used without a copy.

    A class weight sum over a tree's rows is a whole number of at most n, so a packed word
    holds several classes, ``bits`` apart: ``row_word[r]`` is 1 in the field of row r's class.
    Words add and subtract modulo 2**64, so a difference of two running sums holds each
    class's sum between them exactly."""

    def __init__(self, X, y_codes, n_classes):
        X = X if X.flags.c_contiguous or X.flags.f_contiguous else np.ascontiguousarray(X)
        self.flat, self.steps = X.ravel(order="K"), np.array(X.strides) // X.itemsize
        n, d = X.shape
        self.order = np.argsort(X.T, axis=1, kind="stable").astype(np.int32)
        self.rank = np.empty_like(self.order)
        np.put(self.rank, self.order + np.arange(0, d * n, n, dtype=np.int32)[:, None],
               np.arange(n, dtype=np.int32))
        self.bits, self.n_classes = n.bit_length(), n_classes
        self.word, shift = np.divmod(np.arange(n_classes), 64 // self.bits)
        self.shift = (shift * self.bits).astype(np.uint64)
        self.row_word = np.where(self.word[y_codes, None] == np.arange(self.word[-1] + 1),
                                 np.uint64(1) << self.shift[y_codes, None], np.uint64(0))
        self.one_hot = (y_codes[:, None] == np.arange(n_classes)).astype(np.int64)

    def unpacked(self, words):
        """(classes, ...) float class counts of (words, ...) packed words."""
        counts = words[self.word]
        counts >>= self.shift.reshape((-1,) + (1,) * (words.ndim - 1))
        counts &= np.uint64((1 << self.bits) - 1)
        return counts.astype(np.float64)


def _scan(cols: _Columns, packed, col_of, pair_row, size, total, impurity, cand):
    """The splits of a frontier chunk's nodes, or None when none splits: (node, feature,
    threshold, decrease) of each split node, then its children's class counts, in-bag rows and
    row counts, left child then right, node after node.

    Sorted keys ``(node * mf + j) << bits | rank of the row in cand[node, j]`` order each
    (node, feature) segment by value and a node's segments by feature. Class sums run in
    class order, as NumPy sums the per-node reference for under 8 classes: the same bits.
    Each array is dropped once spent: the chunk's peak working set bounds a fit's memory."""
    (n_nodes, mf), n, b = cand.shape, cols.order.shape[1], cols.bits
    it = np.int32 if (n_nodes * mf) << b < 2**31 else np.int64  # keys
    # Index arrays are intp: NumPy's take runs several times slower on int32 indices.
    at = (cand * n).repeat(size, axis=0)
    at += pair_row[:, None]
    keys = cols.rank.ravel().take(at).astype(it, copy=False)
    segment = np.arange(0, (n_nodes * mf) << b, 1 << b, dtype=it).reshape(n_nodes, mf)
    keys |= segment.repeat(size, axis=0)
    keys = keys.ravel()
    keys.sort()
    # key - (segment << bits) + feature * n is the (feature, rank) index of order.
    seg_size, feature = size.repeat(mf), cand.ravel()
    at = (feature * n - segment.ravel()).repeat(seg_size)
    at += keys
    row = cols.order.ravel().take(at)
    at = (feature * cols.steps[1]).repeat(seg_size)
    at += row * cols.steps[0]
    value = cols.flat.take(at)
    del at
    # pos: each entry just left of a boundary between distinct values of a segment.
    end = seg_size.cumsum()
    step = value[1:] > value[:-1]
    step[end[:-1] - 1] = False
    pos = step.nonzero()[0]
    del step
    if not pos.size:
        return None
    at_seg = np.right_shift(keys.take(pos), b, dtype=np.intp)
    del keys
    node = (np.arange(n_nodes * mf) // mf).take(at_seg)
    # run[:, k]: the packed class weights of the chunk's first k entries. Left of a boundary
    # are its segment's entries up to and including pos; right of it, the rest of the segment.
    col = col_of.repeat(size * mf)
    col += row
    run = np.zeros((packed.shape[0], row.size + 1), np.uint64)
    packed.take(col, axis=1, out=run[:, 1:], mode="clip")
    del col
    run.cumsum(axis=1, out=run)
    edge = run.take(np.concatenate(([0], end)), axis=1)  # each segment's start, then its end
    cut = run.take(pos + 1, axis=1)
    del run
    words = np.empty((cut.shape[0], 2, pos.size), np.uint64)  # (words, left and right, boundaries)
    np.subtract(cut, edge.take(at_seg, axis=1), out=words[:, 0])
    np.subtract(edge.take(at_seg + 1, axis=1), cut, out=words[:, 1])
    del cut
    # The reference's Gini of each side, 1 - sum((class / total) ** 2) in class order; one
    # side at a time keeps each pass over the boundaries in cache.
    weighed = []
    for s in (0, 1):
        counts = cols.unpacked(words[:, s])
        side = counts.sum(axis=0)
        counts /= side
        np.square(counts, out=counts)
        gini = counts.sum(axis=0)
        del counts
        np.subtract(1.0, gini, out=gini)
        gini *= side
        weighed.append(gini)
    decrease = impurity.take(node) - (weighed[0] + weighed[1]) / total.take(node)
    del weighed, side, gini
    # Segmented first max: the lower feature, then the lower threshold, wins a tie.
    new = np.empty(node.size, dtype=bool)
    new[0] = True
    np.not_equal(node[1:], node[:-1], out=new[1:])
    starts = new.nonzero()[0]
    best = np.maximum.reduceat(decrease, starts)
    best_of = np.empty(n_nodes)
    best_of[node.take(starts)] = best
    hit = np.where(decrease == best_of.take(node), np.arange(pos.size), pos.size)
    first = np.minimum.reduceat(hit, starts)[best > 1e-15]
    at, at_seg = pos.take(first), at_seg.take(first)
    lo, hi = value.take(at), value.take(at + 1)
    # Between adjacent floats the midpoint can round up to hi: then use lo (same partition).
    mid = 0.5 * (lo + hi)
    threshold = np.where(mid >= hi, lo, mid)
    # The rows of each winning segment, in value order, are its node's left then right rows.
    won = np.zeros(seg_size.size, dtype=bool)
    won[at_seg] = True
    left = at + 1 - (end - seg_size).take(at_seg)
    child_size = np.array((left, end.take(at_seg) - at - 1)).T.ravel()
    child_counts = cols.unpacked(words[:, :, first]).T.reshape(-1, cols.n_classes)
    return (node.take(first), feature.take(at_seg), threshold, decrease.take(first),
            child_counts, row[won.repeat(seg_size)], child_size)


def _grow(task):
    """[(Tree, importance)] of trees ``indices``, grown together one depth level at a time
    in groups of at most ``_GROUP_BUDGET`` (tree, row) pairs; a level scans its frontier in
    chunks of about ``_ENTRY_BUDGET`` entries, never splitting a node across chunks."""
    cols, config, indices = task
    d, n = cols.order.shape
    group = max(1, _GROUP_BUDGET // n)
    if len(indices) > group:
        return [p for i in range(0, len(indices), group)
                for p in _grow((cols, config, indices[i:i + group]))]
    mf, n_trees = config.resolved_max_features(d), len(indices)
    rngs = [np.random.default_rng([config.seed, t]) for t in indices]
    weights = (np.array([np.bincount(r.integers(0, n, n), minlength=n) for r in rngs])
               if config.bootstrap else np.ones((n_trees, n), dtype=np.int64))
    # packed[:, t * n + r]: row r's weight in tree t, in its class's field.
    packed = (weights.astype(np.uint64)[:, :, None] * cols.row_word).reshape(n_trees * n, -1).T
    counts = (weights @ cols.one_hot).astype(np.float64)
    # The in-bag rows of each frontier node, node after node, and their number; roots first.
    rows, sizes = weights.nonzero()[1].astype(np.int32), np.count_nonzero(weights, axis=1)
    del weights
    node_tree, levels = np.arange(n_trees), []
    while True:
        # Each frontier node's total weight, Gini impurity and whether it may split.
        total = counts.sum(axis=1)
        impurity = 1.0 - ((counts / total[:, None]) ** 2).sum(axis=1)
        eligible = (total >= config.min_samples_split) & (impurity > 0.0)
        if config.max_depth is not None and len(levels) >= config.max_depth or not eligible.any():
            levels.append((node_tree, counts, total, None))
            break
        nodes = eligible.nonzero()[0]
        pair_row, size = rows[eligible.repeat(sizes)], sizes[eligible]
        # Each tree draws one uniform block for its eligible nodes, in frontier order; a
        # node's candidates are the mf features with the smallest draws, sorted.
        per_tree = np.bincount(node_tree[nodes], minlength=n_trees).tolist()
        draws = np.concatenate([r.random((c, d)) for r, c in zip(rngs, per_tree) if c])
        cand, col_of = np.sort(draws.argsort(axis=1)[:, :mf], axis=1), node_tree[nodes] * n
        if (pair_row.size - size[-1]) * mf < _ENTRY_BUDGET:  # one chunk: the usual case
            split = _scan(cols, packed, col_of, pair_row, size, total[nodes], impurity[nodes], cand)
        else:
            end = size.cumsum()
            chunk = (end - size) * mf // _ENTRY_BUDGET
            bounds = np.flatnonzero(np.concatenate(([True], chunk[1:] != chunk[:-1], [True])))
            found = []
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                sel = nodes[a:b]
                part = _scan(cols, packed, col_of[a:b], pair_row[end[a] - size[a]:end[b - 1]],
                             size[a:b], total[sel], impurity[sel], cand[a:b])
                if part is not None:
                    found.append((part[0] + a, *part[1:]))
            split = tuple(np.concatenate(c) for c in zip(*found)) if found else None
        if split is None:
            levels.append((node_tree, counts, total, None))
            break
        node, feature, threshold, decrease, child_counts, rows, sizes = split
        parent = nodes[node]
        levels.append((node_tree, counts, total, (parent, feature, threshold, decrease)))
        node_tree, counts = node_tree[parent].repeat(2), child_counts
    return _trees(levels, n_trees, d)


def _trees(levels, n_trees, d):
    """[(Tree, importance)] of a group's levels: (frontier trees, class counts and total
    weights, then the frontier index, feature, threshold and decrease of each split node, or
    None on the last level). A level's frontier is the children of the one before, two a split
    node, in order; a tree's nodes are numbered breadth-first."""
    node_tree = np.concatenate([lv[0] for lv in levels])
    offset = np.cumsum([0] + [lv[0].size for lv in levels]).tolist()
    splits = [(lv[3][0] + o, *lv[3][1:], lv[2][lv[3][0]]) for lv, o in zip(levels[:-1], offset)]
    parent, feature, threshold, decrease, total = (np.concatenate(c) for c in zip(*splits or [
        (np.empty(0, np.intp), np.empty(0, np.int32), np.empty(0), np.empty(0), np.empty(0))]))
    importance = np.zeros((n_trees, d))
    np.add.at(importance, (node_tree[parent], feature), total * decrease)
    by_tree, tree_size = node_tree.argsort(kind="stable"), np.bincount(node_tree, minlength=n_trees)
    tree_end = tree_size.cumsum()
    local = np.empty(node_tree.size, dtype=np.int32)
    local[by_tree] = np.arange(node_tree.size) - (tree_end - tree_size).repeat(tree_size)
    feat, left = np.full((2, node_tree.size), -1, dtype=np.int32)
    thr = np.zeros(node_tree.size)
    feat[parent], thr[parent] = feature, threshold
    # Each split node's left child is the next level's next node; its right child follows it.
    left[parent] = local[offset[1]::2]
    arrays = [a[by_tree] for a in (feat, thr, left, np.where(left < 0, -1, left + 1),
                                  np.concatenate([lv[1] for lv in levels]))]
    bounds = zip([0, *tree_end[:-1].tolist()], tree_end.tolist())
    return [(Tree(*(a[s:e] for a in arrays)), imp) for (s, e), imp in zip(bounds, importance)]


class RandomForest:
    """Trained ensemble; immutable and safely shareable across threads."""

    def __init__(self, trees, labels, feature_names, config, tree_seeds, importance_raw):
        self.trees, self.labels, self.feature_names = trees, np.asarray(labels), list(feature_names)
        self.config, self.tree_seeds, self._importance_raw = config, tree_seeds, importance_raw

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def _check(self, X) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)  # each tree's walk reads X.ravel()
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


def fit(X, y, config: ForestConfig, feature_names=None, jobs: int = 1) -> RandomForest:
    """Train a forest of CART trees on bootstrap samples (a single-class y gives a constant
    model). With jobs > 1, the trees are cut into up to jobs tasks that ``parallel_map`` grows on
    this process and forked children, with the same result."""
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
    size = -(-n_trees // max(jobs, 1))  # one task of trees a process
    tasks = [(cols, config, range(i, min(i + size, n_trees))) for i in range(0, n_trees, size)]
    trees, importance = zip(*(p for part in parallel.parallel_map(_grow, tasks, jobs) for p in part))
    return RandomForest(list(trees), labels, feature_names, config,
                        [(config.seed, i) for i in range(n_trees)], np.sum(importance, axis=0))
