"""Factor screening: Pearson correlation, Student's t, Bonferroni thresholds.

The special functions are built here (regularized incomplete beta via a
modified Lentz continued fraction) so that p-values are reproducible and
testable against independent quadrature oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    DomainError,
    InsufficientData,
    InvalidDf,
    NonConvergence,
    ShapeError,
)

_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-12
_LENTZ_MAX_ITER = 300

#: Cells smaller than this are skipped by screen(); per-category correlations
#: on a handful of campaigns are meaningless.
MIN_CELL_N = 10


def _betacf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz iteration."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            return h
    raise NonConvergence(f"incomplete beta continued fraction did not converge (x={x}, a={a}, b={b})")


def incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0 or not (0.0 <= x <= 1.0) or not math.isfinite(x):
        raise DomainError(f"incomplete_beta domain: x={x}, a={a}, b={b}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the fraction on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1.0 - x, b, a) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t via the regularized incomplete beta."""
    if df < 1:
        raise InvalidDf(f"df must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * incomplete_beta(x, df / 2.0, 0.5)
    return 1.0 - tail if t > 0 else tail


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) = I_x(df/2, 1/2) with x = df / (df + t^2).

    Computed directly, not as 2 * (1 - cdf), so that small p-values keep
    their relative precision instead of cancelling to 0.
    """
    return incomplete_beta(df / (df + t * t), df / 2.0, 0.5)


def pearson_r(x, y) -> float:
    """Sample Pearson correlation, clipped to [-1, 1] against rounding."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"pearson_r needs equal-length vectors, got {x.shape} and {y.shape}")
    n = x.size
    if n < 3:
        raise InsufficientData(f"pearson_r needs n >= 3, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("zero variance input to pearson_r")
    r = float(dx @ dy) / (sx * sy)
    return max(-1.0, min(1.0, r))


def pearson_p(r: float, n: int) -> float:
    """Two-tailed p-value of the correlation against the null r = 0."""
    if n < 3:
        raise InsufficientData(f"pearson_p needs n >= 3, got {n}")
    if abs(r) > 1.0:
        raise DomainError(f"|r| > 1: {r}")
    if abs(r) == 1.0:
        return 0.0  # limit case, no division
    t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    return _t_two_sided_p(t, n - 2)


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int


def two_sample_t(a, b) -> TTestResult:
    """Pooled-variance two-sample Student's t-test, two-tailed.

    Zero pooled variance is a defined edge: equal means give t = 0, p = 1;
    separated constant groups give |t| = inf, p = 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise InsufficientData(f"two_sample_t needs >= 2 per group, got {a.size}, {b.size}")
    n1, n2 = a.size, b.size
    df = n1 + n2 - 2
    m1, m2 = float(a.mean()), float(b.mean())
    ss = float(((a - m1) ** 2).sum() + ((b - m2) ** 2).sum())
    pooled = ss / df
    if pooled == 0.0:
        if m1 == m2:
            return TTestResult(t=0.0, df=df, p=1.0, mean_a=m1, mean_b=m2, n_a=n1, n_b=n2)
        t = math.inf if m1 > m2 else -math.inf
        return TTestResult(t=t, df=df, p=0.0, mean_a=m1, mean_b=m2, n_a=n1, n_b=n2)
    se = math.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    t = (m1 - m2) / se
    p = _t_two_sided_p(t, df)
    return TTestResult(t=t, df=df, p=p, mean_a=m1, mean_b=m2, n_a=n1, n_b=n2)


def bonferroni_threshold(alpha: float, m: int) -> float:
    """Family-wise significance threshold alpha / m."""
    if m < 1:
        raise DomainError(f"family size must be >= 1, got {m}")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must be in [0, 1], got {alpha}")
    return alpha / m


@dataclass(frozen=True)
class SignificantFeature:
    """One screening-report row: the Mean / SD / r / p schema."""

    goal_band: str
    category: str
    feature: str
    mean: float
    sd: float
    r: float
    p: float
    n: int
    threshold: float


def screen(values: np.ndarray, feature_names, ratios, band: str, category: str,
           alpha: float = 0.05):
    """Screen one (band, category, modality) cell of features against the ratio.

    ``values`` is an (n_campaigns, n_features) matrix for the cell; NaN marks
    missing values, which are excluded pairwise per feature. The Bonferroni
    family size is the number of candidate features in the cell. Returns
    (retained rows sorted by (p, name), notes).
    """
    values = np.asarray(values, dtype=np.float64)
    ratios = np.asarray(ratios, dtype=np.float64)
    notes: list = []
    if values.ndim != 2 or values.shape[1] != len(feature_names):
        raise ShapeError("values must be (n, n_features) aligned with feature_names")
    if values.shape[0] != ratios.size:
        raise ShapeError("ratio vector must align with matrix rows")
    if values.shape[0] < MIN_CELL_N:
        notes.append(f"skipped cell {band}/{category}: n={values.shape[0]} < {MIN_CELL_N}")
        return [], notes
    m = len(feature_names)
    threshold = bonferroni_threshold(alpha, m)
    rows = []
    for j, name in enumerate(feature_names):
        col = values[:, j]
        mask = np.isfinite(col) & np.isfinite(ratios)
        n_eff = int(mask.sum())
        if n_eff < MIN_CELL_N:
            notes.append(f"skipped feature {name!r} in {band}/{category}: "
                         f"effective n={n_eff} < {MIN_CELL_N}")
            continue
        xj = col[mask]
        yj = ratios[mask]
        try:
            r = pearson_r(xj, yj)
        except DegenerateInput:
            notes.append(f"skipped degenerate feature {name!r} in {band}/{category}")
            continue
        p = pearson_p(r, n_eff)
        if p < threshold:
            rows.append(SignificantFeature(
                goal_band=band, category=category, feature=name,
                mean=float(xj.mean()), sd=float(xj.std(ddof=1)),
                r=r, p=p, n=n_eff, threshold=threshold,
            ))
    rows.sort(key=lambda row: (row.p, row.feature))
    return rows, notes
