"""Test oracle for the forest: the CART split search written one node at a time.

``fit`` grows every tree of a group together, one depth level at a time; the
tests check each node it builds against ``best_split`` on that node's rows and
candidate features, bit for bit.
"""

import numpy as np

from fundlens.errors import FundlensError


class DegenerateNode(FundlensError):
    """Class counts of no node: a negative count, or none at all."""


def gini(counts) -> float:
    """CART impurity 1 - sum((c_i / N)^2)."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.min() < 0 or counts.sum() < 1:
        raise DegenerateNode(f"bad class counts: {counts}")
    p = counts / counts.sum()
    return float(1.0 - (p * p).sum())


def scan_candidates(X, y_codes, rows, feats, n_classes, parent_impurity):
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
    return scan_candidates(X, y_codes, rows, feats, labels.size, parent)


def masked_leaf_proba(tree, X) -> np.ndarray:
    """A tree's leaf class frequencies for the rows of X, walking only the rows that are
    not at a leaf yet, one step at a time."""
    idx = np.zeros(X.shape[0], dtype=np.int32)
    active = tree.feature[idx] >= 0
    while active.any():
        cur = idx[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        idx[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        active = tree.feature[idx] >= 0
    cnt = tree.counts[idx]
    return cnt / cnt.sum(axis=1, keepdims=True)
