import json

import pytest

from fundlens.cli import main
from fundlens.errors import EmptyDataset, ParseError, SchemaError
from fundlens.ingest import (
    load_campaigns,
    load_population_table,
    normalize_place,
)


def test_load_campaigns_happy_path(snapshot_file, campaign_record, registry):
    campaigns, report = load_campaigns(snapshot_file([campaign_record]), registry)
    assert report.total_records == 1
    assert report.accepted == 1
    assert report.rejected == 0
    assert campaigns[0].id == "c1"
    assert campaigns[0].ratio == pytest.approx(0.5)


def test_load_campaigns_reason_codes(snapshot_file, campaign_record, registry):
    records = [
        campaign_record,                                        # good
        "{not json",                                            # bad_json
        {**campaign_record, "id": "c2", "launch_date": "junk"},  # bad_date
        {k: v for k, v in campaign_record.items() if k != "goal_amount"},  # missing_key
        {**campaign_record, "id": "c3", "goal_amount": "lots"},  # bad_number
        {**campaign_record, "id": "c4", "num_donors": 1.5},      # bad_count
        {**campaign_record, "id": "c5", "country": "CA"},        # non_us
        {**campaign_record, "id": "c6", "goal_amount": -10.0},   # InvalidGoal
        {**campaign_record, "id": "c7", "category": "Bogus"},    # unknown category
    ]
    campaigns, report = load_campaigns(snapshot_file(records), registry)
    assert [c.id for c in campaigns] == ["c1"]
    assert report.total_records == 9
    assert report.accepted == 1
    assert report.rejected == 8
    assert report.non_us == 1
    assert report.reasons["bad_json"] == 1
    assert report.reasons["bad_date"] == 1
    assert report.reasons["missing_key"] == 1
    assert report.reasons["bad_number"] == 1
    assert report.reasons["bad_count"] == 1
    assert report.reasons["non_us"] == 1
    assert sum(report.reasons.values()) == 8


@pytest.mark.parametrize("bad, reason", [
    (lambda r: {**r, "title": None}, "bad_string"),
    (lambda r: {**r, "state": 12}, "bad_string"),
    (lambda r: {**r, "city": {"name": "Springfield"}}, "bad_string"),
    (lambda r: {**r, "id": 7}, "bad_string"),
    (lambda r: {**r, "cover_image": 5}, "bad_string"),
    (lambda r: {**r, "launch_date": 20190101}, "bad_date"),
    (lambda r: {**r, "launch_date": "20190101"}, "bad_date"),
    (lambda r: {**r, "launch_date": "2019W011"}, "bad_date"),
    (lambda r: {**r, "launch_date": "2019-W01-1"}, "bad_date"),
    (lambda r: {**r, "goal_amount": 10 ** 400}, "bad_number"),
    (lambda r: {**r, "goal_amount": 1e-300, "raised_amount": 1e10}, "InvalidRatio"),
    (lambda r: json.dumps(r)[:-1] + ', "note": 1' + "0" * 5000 + "}", "bad_json"),
], ids=["title-null", "state-int", "city-object", "id-int", "cover-image-int", "launch-date-int",
        "launch-date-compact", "launch-date-week", "launch-date-extended-week",
        "goal-401-digits", "ratio-overflows", "int-5001-digits"])
def test_ingest_rejects_an_off_type_line_and_goes_on(snapshot_file, campaign_record, tmp_path,
                                                     bad, reason):
    snapshot = snapshot_file([campaign_record, bad(campaign_record), {**campaign_record, "id": "c2"}])
    out = tmp_path / "out"
    assert main(["ingest", "--seed", "1", "--out", str(out), "--campaigns", str(snapshot)]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert (report["total_records"], report["accepted"], report["rejected"]) == (3, 2, 1)
    assert report["reasons"] == {reason: 1}
    written = [json.loads(line)["id"] for line in (out / "dataset.jsonl").read_text().splitlines()]
    assert written == ["c1", "c2"]


def test_outlier_records_accepted_but_counted(snapshot_file, campaign_record, registry):
    records = [
        campaign_record,
        {**campaign_record, "id": "big", "goal_amount": 500_000.0, "raised_amount": 100.0},
        {**campaign_record, "id": "viral", "goal_amount": 100.0, "raised_amount": 1000.0},
    ]
    campaigns, report = load_campaigns(snapshot_file(records), registry)
    assert report.accepted == 3
    assert report.out_of_band == 1
    assert report.dropped_ratio_gt_2_5 == 1
    assert {c.id for c in campaigns} == {"c1", "big", "viral"}


def test_empty_snapshot_raises(snapshot_file, registry):
    with pytest.raises(EmptyDataset):
        load_campaigns(snapshot_file(["{broken"]), registry)


def test_missing_file_raises_oserror(tmp_path, registry):
    with pytest.raises(OSError):
        load_campaigns(tmp_path / "nope.jsonl", registry)


def test_report_as_dict_roundtrips_through_json(snapshot_file, campaign_record, registry):
    _, report = load_campaigns(snapshot_file([campaign_record]), registry)
    assert json.loads(json.dumps(report.as_dict())) == report.as_dict()


# ---------------------------------------------------------------------------
# population join
# ---------------------------------------------------------------------------

def test_normalize_place():
    assert normalize_place("  New   York ", "ny") == ("new york", "ny")
    assert normalize_place("CHICAGO", "IL") == ("chicago", "il")


def _census(tmp_path, rows, header="city,state,population"):
    p = tmp_path / "census.csv"
    p.write_text(header + "\n" + "\n".join(rows) + "\n")
    return p


def test_population_table_lookup(tmp_path):
    table = load_population_table(
        _census(tmp_path, ["Springfield,IL,114230", "Portland,OR,653115", "Portland,ME,66882"])
    )
    assert table.lookup("springfield", "il") == 114230
    assert table.lookup(" SPRINGFIELD ", "IL") == 114230
    assert table.lookup("Portland", "ME") == 66882
    assert table.lookup("Nowhere", "KS") is None


def test_population_duplicates_keep_larger(tmp_path):
    table = load_population_table(
        _census(tmp_path, ["Springfield,IL,100", "Springfield,IL,999"])
    )
    assert table.lookup("Springfield", "IL") == 999


def test_population_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        load_population_table(_census(tmp_path, ["a,b"], header="city,state"))
    with pytest.raises(ParseError):
        load_population_table(_census(tmp_path, ["Springfield,IL,lots"]))
