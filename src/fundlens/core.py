"""Domain types, the success-ratio metric, and the goal/ratio binning schemes.

All types here are immutable value data and all operations are pure
functions, so everything is safe to use from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from enum import Enum, IntEnum
from importlib import resources
from pathlib import Path
from typing import Optional, get_type_hints

from .errors import InvalidAmount, InvalidGoal, InvalidRatio, ParseError, SchemaError, utf8_input

#: Drop campaigns whose raised/goal ratio exceeds this.
MAX_RATIO = 2.5

#: Goals above this are excluded from all per-band analysis.
MAX_GOAL = 100_000.0


class GoalBand(Enum):
    """Goal-amount bins, open-left / closed-right, in USD."""

    B1 = (0.0, 8_000.0)
    B2 = (8_000.0, 40_000.0)
    B3 = (40_000.0, 68_000.0)
    B4 = (68_000.0, 100_000.0)

    @property
    def low(self) -> float:
        return self.value[0]

    @property
    def high(self) -> float:
        return self.value[1]

    def contains(self, goal: float) -> bool:
        return self.low < goal <= self.high


#: The band names, in goal order: the order every per-band loop uses.
BANDS = tuple(GoalBand.__members__)
#: (high, band) in goal order; the bands tile (0, MAX_GOAL] without gaps.
_BAND_HIGHS = tuple((band.high, band) for band in GoalBand)

#: The label columns of a campaign record, in the order Campaign.labels gives them.
LABEL_KEYS = ("goal_band", "ratio", "class_two", "class_four")


class SuccessClass(IntEnum):
    """Four-way success labels over the raised/goal ratio."""

    HIGHLY_UNSUCCESSFUL = -2  # [0, 0.5]
    UNSUCCESSFUL = -1         # (0.5, 1]
    SUCCESSFUL = 1            # (1, 1.25]
    HIGHLY_SUCCESSFUL = 2     # (1.25, 2.5]


def compute_ratio(raised_amount: float, goal_amount: float) -> float:
    """Success ratio: money raised so far divided by the goal amount."""
    if not math.isfinite(goal_amount) or goal_amount <= 0:
        raise InvalidGoal(f"goal_amount must be a positive finite number, got {goal_amount}")
    if not math.isfinite(raised_amount) or raised_amount < 0:
        raise InvalidAmount(f"raised_amount must be non-negative and finite, got {raised_amount}")
    return raised_amount / goal_amount


def assign_goal_band(goal_amount: float) -> Optional[GoalBand]:
    """Map a goal to its band; None means the goal is above $100,000 (out of range)."""
    if not math.isfinite(goal_amount) or goal_amount <= 0:
        raise InvalidGoal(f"goal_amount must be a positive finite number, got {goal_amount}")
    for high, band in _BAND_HIGHS:
        if goal_amount <= high:
            return band
    return None


def assign_success_class(ratio: float) -> Optional[SuccessClass]:
    """Map a ratio to its four-way class; None means dropped (ratio > 2.5).

    A ratio of exactly 0 maps to -2: a campaign that raised nothing is the
    paradigm of highly unsuccessful, and dropping it would bias class balance.
    """
    if not math.isfinite(ratio) or ratio < 0:
        raise InvalidRatio(f"ratio must be non-negative and finite, got {ratio}")
    if ratio <= 0.5:
        return SuccessClass.HIGHLY_UNSUCCESSFUL
    if ratio <= 1.0:
        return SuccessClass.UNSUCCESSFUL
    if ratio <= 1.25:
        return SuccessClass.SUCCESSFUL
    if ratio <= MAX_RATIO:
        return SuccessClass.HIGHLY_SUCCESSFUL
    return None


def assign_binary_class(ratio: float) -> Optional[int]:
    """Two-way scheme: [0, 1.25] -> -2, (1.25, 2.5] -> +2, above 2.5 dropped."""
    if not math.isfinite(ratio) or ratio < 0:
        raise InvalidRatio(f"ratio must be non-negative and finite, got {ratio}")
    if ratio <= 1.25:
        return -2
    if ratio <= MAX_RATIO:
        return 2
    return None


class CategoryRegistry:
    """Bijection between the 19 canonical campaign category labels and indices 0..18."""

    def __init__(self, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise SchemaError("duplicate category labels in registry")
        self._labels = labels
        self._index = {label: i for i, label in enumerate(labels)}

    @classmethod
    def load(cls, path) -> "CategoryRegistry":
        with utf8_input(path):
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        labels = [ln.strip() for ln in lines if ln.strip()]
        if not labels:
            raise SchemaError(f"empty category registry: {path}")
        return cls(labels)

    @classmethod
    def default(cls) -> "CategoryRegistry":
        text = resources.files("fundlens.data").joinpath("categories.txt").read_text("utf-8")
        return cls([ln.strip() for ln in text.splitlines() if ln.strip()])

    @property
    def labels(self):
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise SchemaError(f"unknown category label: {label!r}") from None

    def label(self, index: int) -> str:
        return self._labels[index]


def _finite(v) -> float:
    v = float(v)  # OverflowError for an integer beyond the float range
    if not math.isfinite(v):
        raise ValueError(v)
    return v


def _iso_date(s: str) -> date:
    """A ``YYYY-MM-DD`` date. ``date.fromisoformat`` takes other ISO 8601 forms
    too from Python 3.11 on (``20190101``, ``2019W011``), so only a date that
    reads back as ``s`` is taken, on every interpreter."""
    d = date.fromisoformat(s)
    if d.isoformat() != s:
        raise ValueError(s)
    return d


#: Each declared Campaign field type -> (the JSON value types it takes, their
#: conversion, the reason a record is rejected for when either fails).
_READERS = {
    str: (str, None, "bad_string"),
    Optional[str]: ((str, type(None)), None, "bad_string"),
    float: ((int, float), _finite, "bad_number"),
    int: (int, None, "bad_count"),
    date: (str, _iso_date, "bad_date"),
}


@dataclass(frozen=True)
class Campaign:
    """One crawled fundraiser record. ``from_record`` and ``to_record`` are the
    only code that reads and writes its JSON lines (snapshot and dataset.jsonl)."""

    id: str
    launch_date: date
    city: str
    state: str
    country: str
    title: str
    description: str
    category: str
    goal_amount: float
    raised_amount: float
    num_followers: int = 0
    num_shares: int = 0
    num_donors: int = 0
    cover_image: Optional[str] = None

    def validate(self, registry: CategoryRegistry) -> None:
        """Raise the matching error when any invariant is violated."""
        if not math.isfinite(self.goal_amount) or self.goal_amount <= 0:
            raise InvalidGoal(f"campaign {self.id}: goal_amount {self.goal_amount}")
        if not math.isfinite(self.raised_amount) or self.raised_amount < 0:
            raise InvalidAmount(f"campaign {self.id}: raised_amount {self.raised_amount}")
        if not math.isfinite(self.raised_amount / self.goal_amount):
            raise InvalidRatio(f"campaign {self.id}: raised/goal overflows")
        if self.category not in registry:
            raise SchemaError(f"campaign {self.id}: unknown category {self.category!r}")
        for name in ("num_followers", "num_shares", "num_donors"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise SchemaError(f"campaign {self.id}: {name} must be a non-negative integer")
        if len(self.state) != 2:
            raise SchemaError(f"campaign {self.id}: state must be a 2-letter code, got {self.state!r}")

    @property
    def ratio(self) -> float:
        return compute_ratio(self.raised_amount, self.goal_amount)

    @classmethod
    def from_record(cls, obj, registry: CategoryRegistry) -> "Campaign":
        """The checked Campaign of one parsed JSON record; other keys are ignored.

        Each field is read by its declared type. A missing ``cover_image`` is
        None; any other missing field is a ``missing_key``. Every error raised
        carries its reject reason (``DataError.reason``).
        """
        if not isinstance(obj, dict):
            raise ParseError("record is not a JSON object", "not_an_object")
        if not _REQUIRED <= obj.keys():
            raise SchemaError(f"missing keys {sorted(_REQUIRED - obj.keys())}", "missing_key")
        values = {}
        for name, types, convert, reason in _CODEC:
            v = obj.get(name)
            try:
                if isinstance(v, bool) or not isinstance(v, types):
                    raise TypeError(type(v).__name__)
                values[name] = convert(v) if convert else v
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"{reason}: {name}", reason) from None
        campaign = cls(**values)
        campaign.validate(registry)
        return campaign

    def labels(self) -> dict:
        """The LABEL_KEYS of the record: goal band, ratio and both success classes."""
        ratio = self.ratio
        band = assign_goal_band(self.goal_amount)
        four = assign_success_class(ratio)  # None, like class_two, above MAX_RATIO
        return {"goal_band": band.name if band is not None else None, "ratio": ratio,
                "class_two": assign_binary_class(ratio),
                "class_four": int(four) if four is not None else None}

    def to_record(self) -> dict:
        """The ``dataset.jsonl`` record: every field, launch_date as ISO text, and the labels."""
        return {**vars(self), "launch_date": self.launch_date.isoformat(), **self.labels()}


#: (field, types, conversion, reject reason) for each Campaign field, in field order.
_CODEC = tuple((name, *_READERS[hint]) for name, hint in get_type_hints(Campaign).items())
#: The fields a record must have: a field that may be null may also be absent.
_REQUIRED = frozenset(name for name, types, *_ in _CODEC if not isinstance(None, types))
