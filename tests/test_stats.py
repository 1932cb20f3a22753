import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fundlens.errors import (
    DegenerateInput,
    DomainError,
    InsufficientData,
    InvalidDf,
    ShapeError,
)
from fundlens.stats import (
    bonferroni_threshold,
    incomplete_beta,
    pearson_p,
    pearson_r,
    screen,
    student_t_cdf,
    two_sample_t,
)

scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")


# ---------------------------------------------------------------------------
# incomplete beta
# ---------------------------------------------------------------------------

def test_incomplete_beta_closed_forms():
    # I_x(1, 1) = x (uniform CDF)
    for x in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)
    # I_x(1, b) = 1 - (1 - x)^b
    assert incomplete_beta(0.3, 1.0, 4.0) == pytest.approx(1 - 0.7**4, abs=1e-13)
    # symmetry point: I_{1/2}(a, a) = 1/2
    for a in (0.5, 2.0, 7.5):
        assert incomplete_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-13)


def test_incomplete_beta_matches_scipy_grid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(0.3, 40.0)
        b = rng.uniform(0.3, 40.0)
        x = rng.uniform(0.0, 1.0)
        assert incomplete_beta(x, a, b) == pytest.approx(
            float(scipy_special.betainc(a, b, x)), abs=1e-12
        )


def test_incomplete_beta_domain_errors():
    for bad in ((-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1), (0.5, 1, -2)):
        with pytest.raises(DomainError):
            incomplete_beta(*bad)


def test_incomplete_beta_reflection_identity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.uniform(0.4, 25.0)
        b = rng.uniform(0.4, 25.0)
        x = rng.uniform(0.01, 0.99)
        assert incomplete_beta(x, a, b) + incomplete_beta(1 - x, b, a) == pytest.approx(
            1.0, abs=1e-11
        )


# ---------------------------------------------------------------------------
# Student t CDF
# ---------------------------------------------------------------------------

def test_t_cdf_cauchy_closed_form():
    # df = 1 is the Cauchy distribution: F(t) = 1/2 + arctan(t)/pi
    for t in (-6.0, -1.0, -0.3, 0.0, 0.3, 1.0, 6.0):
        assert student_t_cdf(t, 1) == pytest.approx(
            0.5 + math.atan(t) / math.pi, abs=1e-12
        )


def test_t_cdf_hand_value():
    # F(1; df=1) = 3/4 exactly for the Cauchy
    assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)


def test_t_cdf_matches_scipy():
    for df in (1, 2, 4, 10, 30, 100):
        for t in np.linspace(-6, 6, 25):
            assert student_t_cdf(float(t), df) == pytest.approx(
                float(scipy_stats.t.cdf(t, df)), abs=1e-10
            )


def test_t_cdf_edge_cases():
    assert student_t_cdf(0.0, 5) == 0.5
    assert student_t_cdf(float("inf"), 5) == 1.0
    assert student_t_cdf(float("-inf"), 5) == 0.0
    with pytest.raises(InvalidDf):
        student_t_cdf(1.0, 0.5)


@given(
    st.floats(min_value=-8, max_value=8, allow_nan=False),
    st.integers(min_value=1, max_value=200),
)
def test_t_cdf_symmetry(t, df):
    assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=100))
def test_t_cdf_monotone_in_t(df):
    grid = [student_t_cdf(t, df) for t in np.linspace(-5, 5, 41)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))
    assert all(0.0 <= v <= 1.0 for v in grid)


# ---------------------------------------------------------------------------
# Pearson correlation and its p-value
# ---------------------------------------------------------------------------

def test_pearson_r_hand_value():
    # x = (1,2,3), y = (1,3,2): sum of products of deviations is 1,
    # both standard deviations are sqrt(2), so r = 1/2.
    assert pearson_r([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-15)


def test_pearson_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(5, 200))
        x = rng.normal(size=n)
        y = 0.4 * x + rng.normal(size=n)
        want_r, want_p = scipy_stats.pearsonr(x, y)
        r = pearson_r(x, y)
        assert r == pytest.approx(float(want_r), abs=1e-12)
        assert pearson_p(r, n) == pytest.approx(float(want_p), abs=1e-10)


def test_pearson_errors():
    with pytest.raises(InsufficientData):
        pearson_r([1, 2], [3, 4])
    with pytest.raises(ShapeError):
        pearson_r([1, 2, 3], [1, 2])
    with pytest.raises(DegenerateInput):
        pearson_r([1, 1, 1], [1, 2, 3])


def test_pearson_p_perfect_correlation():
    assert pearson_p(1.0, 10) == 0.0
    assert pearson_p(-1.0, 10) == 0.0
    assert pearson_p(0.0, 10) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n, r", [(1000, 0.25), (10_000, 0.1), (1000, 0.865)],
                         ids=["p-1e-15", "p-1e-23", "p-4e-301"])
def test_pearson_p_tail_matches_scipy(n, r):
    # 2 * (1 - cdf) cancels in the tail (8% off at 1e-15, 0 at 1e-23); the
    # direct upper tail keeps full relative precision down to ~1e-300.
    df = n - 2
    want = 2.0 * float(scipy_stats.t.sf(r * math.sqrt(df / (1.0 - r * r)), df))
    assert want > 0.0
    assert pearson_p(r, n) == pytest.approx(want, rel=1e-10, abs=0.0)
    assert pearson_p(-r, n) == pearson_p(r, n)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.01, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_pearson_affine_invariance(seed, scale, shift):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    r0 = pearson_r(x, y)
    assert pearson_r(scale * x + shift, y) == pytest.approx(r0, abs=1e-10)
    assert pearson_r(x, -scale * y + shift) == pytest.approx(-r0, abs=1e-10)


# ---------------------------------------------------------------------------
# Two-sample t-test
# ---------------------------------------------------------------------------

def test_two_sample_t_hand_value():
    # a = (1,2,3), b = (4,5,6): pooled variance 1, se = sqrt(2/3),
    # t = -3/sqrt(2/3) = -3.674235, df = 4.
    res = two_sample_t([1, 2, 3], [4, 5, 6])
    assert res.t == pytest.approx(-3.674235, abs=1e-4)
    assert res.df == 4
    want = scipy_stats.ttest_ind([1, 2, 3], [4, 5, 6])
    assert res.t == pytest.approx(float(want.statistic), abs=1e-12)
    assert res.p == pytest.approx(float(want.pvalue), abs=1e-12)


def test_two_sample_t_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(0, 1, size=int(rng.integers(3, 60)))
        b = rng.normal(0.5, 1, size=int(rng.integers(3, 60)))
        res = two_sample_t(a, b)
        want = scipy_stats.ttest_ind(a, b)
        assert res.t == pytest.approx(float(want.statistic), abs=1e-10)
        assert res.p == pytest.approx(float(want.pvalue), abs=1e-10)


@pytest.mark.parametrize("n, shift", [(200, 0.5), (500, 0.85)], ids=["p-6e-50", "p-2e-251"])
def test_two_sample_t_tail_matches_scipy(n, shift):
    a = np.linspace(0.0, 1.0, n)
    res = two_sample_t(a, a + shift)
    want = 2.0 * float(scipy_stats.t.sf(abs(res.t), res.df))
    assert want > 0.0
    assert res.p == pytest.approx(want, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# Bonferroni threshold and screening
# ---------------------------------------------------------------------------

def test_bonferroni_threshold_values():
    assert bonferroni_threshold(0.05, 2) == pytest.approx(0.025, abs=1e-15)
    thr = bonferroni_threshold(0.05, 92)
    assert f"{thr:.1E}" == "5.4E-04"


def test_screen_recovers_planted_feature():
    rng = np.random.default_rng(0)
    n, f = 300, 20
    values = rng.normal(size=(n, f))
    names = [f"feat_{i:02d}" for i in range(f)]
    ratios = np.clip(1.0 - 0.3 * values[:, 7] + rng.normal(0, 0.05, n), 0, 2.5)
    rows, notes = screen(values, names, ratios, band="B1", category="Other")
    assert rows, "planted feature not retained"
    assert rows[0].feature == "feat_07"
    assert rows[0].r < -0.5
    assert rows[0].p < rows[0].threshold
    assert rows[0].n == n


def test_screen_handles_missing_and_constant_columns():
    rng = np.random.default_rng(1)
    n = 60
    values = rng.normal(size=(n, 3))
    values[:, 1] = 1.0  # constant column: skipped, not fatal
    values[:30, 2] = np.nan  # missing values: pairwise exclusion
    ratios = np.clip(1.0 + 0.5 * values[:, 0], 0, 2.5)
    rows, notes = screen(values, ["a", "b", "c"], ratios, band="B2", category="Other")
    assert any(row.feature == "a" for row in rows)
    assert all(row.feature != "b" for row in rows)


def test_screen_small_cell_returns_note():
    values = np.ones((4, 2)) + np.arange(8).reshape(4, 2)
    rows, notes = screen(values, ["a", "b"], np.array([0.1, 0.2, 0.3, 0.4]),
                         band="B4", category="Other")
    assert rows == []
    assert notes


def test_screen_sorted_by_p_then_name():
    rng = np.random.default_rng(2)
    n = 200
    values = rng.normal(size=(n, 4))
    ratios = np.clip(
        1.0 + 0.4 * values[:, 0] - 0.4 * values[:, 2] + rng.normal(0, 0.05, n), 0, 2.5
    )
    rows, _ = screen(values, ["w", "x", "y", "z"], ratios, band="B1", category="Other")
    keys = [(row.p, row.feature) for row in rows]
    assert keys == sorted(keys)
