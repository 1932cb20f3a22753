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
from pathlib import Path
from typing import Optional

from .core import Campaign, CategoryRegistry, MAX_GOAL, MAX_RATIO
from .errors import DataError, EmptyDataset, ParseError, SchemaError, utf8_input

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


#: The snapshot record parser (``Campaign.from_record``).
_parse_record = Campaign.from_record


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
                campaign = _parse_record(json.loads(line), registry)
            except UnicodeEncodeError:
                report.reject("bad_utf8")
                continue
            except DataError as exc:
                report.reject(exc.reason)
                continue
            except ValueError:  # not JSON, or an integer literal too long to convert
                report.reject("bad_json")
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

    A population is a positive whole number, written as an integer or as a
    float with no fractional part (``114230.0``); anything else is a
    ParseError naming the file and line. Duplicate (city, state) keys keep
    the larger population: consolidated-city rows dominate their parts.
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
            raw = row["population"]
            try:
                pop = float(raw)
                problem = ("must be finite" if not math.isfinite(pop) else
                           "must be positive" if pop <= 0 else
                           "must be a whole number" if not pop.is_integer() else None)
            except (TypeError, ValueError):
                problem = "must be a number"
            if problem:
                raise ParseError(f"{path}, line {reader.line_num}: population {problem}, got {raw!r}")
            pop = int(pop)
            key = normalize_place(row["city"], row["state"])
            if key not in entries or pop > entries[key]:
                entries[key] = pop
    return PopulationTable(entries=entries)

