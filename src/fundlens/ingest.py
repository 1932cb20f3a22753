"""Campaign snapshot parsing, validation, and the city-population table.

Snapshots are JSON-lines (one campaign per line). Malformed lines are
counted and skipped with reason codes; they never abort the batch.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import asdict, dataclass, field
from datetime import date
from pathlib import Path
from typing import Optional

from .core import Campaign, CategoryRegistry, MAX_GOAL, MAX_RATIO
from .errors import DataError, EmptyDataset, ParseError, SchemaError, utf8_input

_REQUIRED_KEYS = (
    "id", "launch_date", "city", "state", "country", "title", "description",
    "category", "goal_amount", "raised_amount",
    "num_followers", "num_shares", "num_donors",
)

_WS = re.compile(r"\s+")


@dataclass
class IngestReport:
    total_records: int = 0
    accepted: int = 0
    rejected: int = 0
    reasons: dict = field(default_factory=dict)
    dropped_ratio_gt_2_5: int = 0
    out_of_band: int = 0
    non_us: int = 0

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def as_dict(self) -> dict:
        return asdict(self)


def _parse_record(obj: dict, registry: CategoryRegistry) -> Campaign:
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise SchemaError(f"missing_key:{key}")
    try:
        launch = date.fromisoformat(str(obj["launch_date"]))
    except ValueError as exc:
        raise ParseError(f"bad_date:{obj['launch_date']}") from exc

    def _num(key):
        v = obj[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(float(v)):
            raise ParseError(f"bad_number:{key}")
        return float(v)

    def _count(key):
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParseError(f"bad_count:{key}")
        return v

    campaign = Campaign(
        id=str(obj["id"]),
        launch_date=launch,
        city=str(obj["city"]),
        state=str(obj["state"]),
        country=str(obj["country"]),
        title=str(obj["title"]),
        description=str(obj["description"]),
        category=str(obj["category"]),
        goal_amount=_num("goal_amount"),
        raised_amount=_num("raised_amount"),
        num_followers=_count("num_followers"),
        num_shares=_count("num_shares"),
        num_donors=_count("num_donors"),
        cover_image=obj.get("cover_image"),
    )
    campaign.validate(registry)
    return campaign


def load_campaigns(path, registry: Optional[CategoryRegistry] = None):
    """Parse a JSONL snapshot into validated Campaigns plus an IngestReport.

    Only US campaigns are kept. Records with ratio > 2.5 or goal > $100,000
    are accepted (they are valid data) but counted so downstream analysis
    can exclude them.
    """
    registry = registry or CategoryRegistry.default()
    path = Path(path)
    if not path.is_file():
        raise OSError(f"cannot read campaign snapshot: {path}")
    report = IngestReport()
    campaigns = []
    # A byte that is not UTF-8 reads as a lone surrogate, so that only its line is rejected.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            report.total_records += 1
            try:
                if not line.isascii():
                    line.encode("utf-8")  # UnicodeEncodeError on a lone surrogate
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ParseError("not_an_object")
                campaign = _parse_record(obj, registry)
            except UnicodeEncodeError:
                report.reject("bad_utf8")
                continue
            except json.JSONDecodeError:
                report.reject("bad_json")
                continue
            except (ParseError, SchemaError) as exc:
                msg = str(exc)
                code = msg.split(":")[0]
                report.reject(code if re.fullmatch(r"[a-z_]+", code) else exc.__class__.__name__)
                continue
            except DataError as exc:  # InvalidGoal / InvalidAmount from validate()
                report.reject(exc.__class__.__name__)
                continue
            if campaign.country != "US":
                report.non_us += 1
                report.reject("non_us")
                continue
            report.accepted += 1
            if campaign.ratio > MAX_RATIO:
                report.dropped_ratio_gt_2_5 += 1
            if campaign.goal_amount > MAX_GOAL:
                report.out_of_band += 1
            campaigns.append(campaign)
    if report.accepted == 0:
        raise EmptyDataset(f"no valid campaign records in {path}")
    return campaigns, report


def normalize_place(city: str, state: str):
    """Key normalization: lowercase, trim, collapse internal whitespace."""
    return (_WS.sub(" ", city.strip().lower()), _WS.sub(" ", state.strip().lower()))


@dataclass
class PopulationTable:
    """Lookup from normalized (city, state) to census population."""

    entries: dict

    def lookup(self, city: str, state: str) -> Optional[int]:
        return self.entries.get(normalize_place(city, state))


def load_population_table(path) -> PopulationTable:
    """Load a city,state,population CSV.

    Duplicate (city, state) keys keep the larger population: consolidated-city
    rows dominate their parts.
    """
    path = Path(path)
    entries: dict = {}
    with path.open("r", encoding="utf-8", newline="") as fh, utf8_input(path):
        reader = csv.DictReader(fh)
        cols = set(reader.fieldnames or [])
        for col in ("city", "state", "population"):
            if col not in cols:
                raise SchemaError(f"census file missing column {col!r}: {path}")
        for row in reader:
            try:
                pop = int(float(row["population"]))
            except (TypeError, ValueError) as exc:
                raise ParseError(f"non-numeric population: {row['population']!r}") from exc
            if pop <= 0:
                raise ParseError(f"population must be positive, got {pop}")
            key = normalize_place(row["city"], row["state"])
            if key not in entries or pop > entries[key]:
                entries[key] = pop
    return PopulationTable(entries=entries)

