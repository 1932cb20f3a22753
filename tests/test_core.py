import dataclasses
import datetime
import json
import math

import pytest
from hypothesis import given, strategies as st

from fundlens.core import (
    GoalBand,
    LABEL_KEYS,
    MAX_GOAL,
    MAX_RATIO,
    SuccessClass,
    assign_binary_class,
    assign_goal_band,
    assign_success_class,
    Campaign,
    CategoryRegistry,
    compute_ratio,
)
from fundlens.errors import InvalidAmount, InvalidGoal, InvalidRatio, SchemaError


def test_compute_ratio_basic():
    assert compute_ratio(2500.0, 5000.0) == 0.5
    assert compute_ratio(0.0, 100.0) == 0.0


def test_compute_ratio_rejects_bad_inputs():
    with pytest.raises(InvalidGoal):
        compute_ratio(100.0, 0.0)
    with pytest.raises(InvalidGoal):
        compute_ratio(100.0, -5.0)
    with pytest.raises(InvalidAmount):
        compute_ratio(-1.0, 100.0)
    with pytest.raises(InvalidGoal):
        compute_ratio(1.0, float("nan"))


@pytest.mark.parametrize(
    "goal, band",
    [
        (1.0, GoalBand.B1),
        (8000.0, GoalBand.B1),
        (8000.01, GoalBand.B2),
        (40000.0, GoalBand.B2),
        (40000.01, GoalBand.B3),
        (68000.0, GoalBand.B3),
        (68000.01, GoalBand.B4),
        (100000.0, GoalBand.B4),
        (100000.01, None),
        (250000.0, None),
    ],
)
def test_goal_band_boundaries(goal, band):
    assert assign_goal_band(goal) is band


@pytest.mark.parametrize(
    "ratio, cls",
    [
        (0.0, SuccessClass.HIGHLY_UNSUCCESSFUL),
        (0.25, SuccessClass.HIGHLY_UNSUCCESSFUL),
        (0.5, SuccessClass.HIGHLY_UNSUCCESSFUL),
        (0.5 + 1e-9, SuccessClass.UNSUCCESSFUL),
        (1.0, SuccessClass.UNSUCCESSFUL),
        (1.0 + 1e-9, SuccessClass.SUCCESSFUL),
        (1.25, SuccessClass.SUCCESSFUL),
        (1.25 + 1e-9, SuccessClass.HIGHLY_SUCCESSFUL),
        (2.5, SuccessClass.HIGHLY_SUCCESSFUL),
        (2.5 + 1e-9, None),
    ],
)
def test_success_class_boundaries(ratio, cls):
    assert assign_success_class(ratio) is cls


def test_success_class_values():
    assert int(SuccessClass.HIGHLY_UNSUCCESSFUL) == -2
    assert int(SuccessClass.UNSUCCESSFUL) == -1
    assert int(SuccessClass.SUCCESSFUL) == 1
    assert int(SuccessClass.HIGHLY_SUCCESSFUL) == 2


@pytest.mark.parametrize(
    "ratio, cls",
    [(0.0, -2), (1.25, -2), (1.25 + 1e-9, 2), (2.5, 2), (2.51, None)],
)
def test_binary_class_boundaries(ratio, cls):
    assert assign_binary_class(ratio) == cls


def test_negative_ratio_rejected():
    with pytest.raises(InvalidRatio):
        assign_success_class(-0.1)
    with pytest.raises(InvalidRatio):
        assign_binary_class(-0.1)


@given(st.floats(min_value=0.01, max_value=MAX_GOAL, allow_nan=False))
def test_bands_cover_valid_goals(goal):
    band = assign_goal_band(goal)
    assert band is not None
    assert band.contains(goal)
    # bands are disjoint
    assert sum(b.contains(goal) for b in GoalBand) == 1


@given(st.floats(min_value=0.0, max_value=MAX_RATIO, allow_nan=False))
def test_classes_cover_valid_ratios(ratio):
    cls = assign_success_class(ratio)
    assert cls is not None
    two = assign_binary_class(ratio)
    # the binary split merges {-2,-1,+1} vs {+2}
    assert two == (2 if cls is SuccessClass.HIGHLY_SUCCESSFUL else -2)


def test_registry_has_19_categories(registry):
    assert len(registry.labels) == 19
    assert tuple(registry.labels) == tuple(sorted(registry.labels))
    assert "Medical, Illness & Healing" in registry
    assert "Other" in registry and "Other" in registry.labels


def test_registry_rejects_unknown_label(registry):
    assert "Not A Real Category" not in registry


def test_campaign_validate(registry, campaign_record):
    import datetime

    campaign = Campaign(
        id="x",
        launch_date=datetime.date(2019, 6, 1),
        city="Springfield",
        state="IL",
        country="US",
        title="t",
        description="d",
        category="Other",
        goal_amount=5000.0,
        raised_amount=100.0,
        num_followers=0,
        num_shares=0,
        num_donors=0,
    )
    campaign.validate(registry)
    assert campaign.ratio == pytest.approx(0.02)

    bad = Campaign(**{**campaign.__dict__, "category": "Nonsense"})
    with pytest.raises(SchemaError):
        bad.validate(registry)


def test_registry_load_rejects_duplicates(tmp_path):
    p = tmp_path / "cats.txt"
    p.write_text("A\nB\nA\n")
    with pytest.raises(SchemaError):
        CategoryRegistry.load(p)


_COUNTS = st.integers(min_value=0, max_value=10 ** 9)
_CAMPAIGNS = st.builds(
    Campaign,
    id=st.text(), launch_date=st.dates(), city=st.text(), state=st.text(min_size=2, max_size=2),
    country=st.text(max_size=3), title=st.text(), description=st.text(),
    category=st.sampled_from(CategoryRegistry.default().labels),
    goal_amount=st.floats(min_value=1e-3, max_value=1e9),
    raised_amount=st.floats(min_value=0.0, max_value=1e9),
    num_followers=_COUNTS, num_shares=_COUNTS, num_donors=_COUNTS,
    cover_image=st.none() | st.text(),
)


@given(_CAMPAIGNS)
def test_campaign_record_round_trips_through_json(registry, campaign):
    record = json.loads(json.dumps(campaign.to_record()))
    assert Campaign.from_record(record, registry) == campaign
    assert {k: record[k] for k in LABEL_KEYS} == campaign.labels()
    assert Campaign.from_record(record, registry).labels() == campaign.labels()


@pytest.mark.parametrize("form", ["snapshot", "dataset", "no-cover-image"])
def test_from_record_equals_the_keyword_built_campaign(registry, campaign_record, form):
    # from_record fills the frozen instance's __dict__ without __init__; it must
    # still behave as the Campaign its keyword constructor builds.
    fields = {**campaign_record, "launch_date": datetime.date(2019, 6, 1)}
    if form == "no-cover-image":
        del campaign_record["cover_image"]
        fields["cover_image"] = None
    built = Campaign(**fields)
    record = json.loads(json.dumps(built.to_record())) if form == "dataset" else campaign_record
    got = Campaign.from_record(record, registry)
    assert got == built and not got != built
    assert hash(got) == hash(built)
    assert repr(got) == repr(built)
    assert list(vars(got).items()) == list(vars(built).items())  # to_record's key order
    assert json.dumps(got.to_record()) == json.dumps(built.to_record())
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.goal_amount = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del got.title
    assert got.goal_amount == 5000.0
