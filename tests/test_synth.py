import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fundlens.core import Campaign, GoalBand, assign_goal_band
from fundlens.errors import SpecError
from fundlens.features import build_feature_matrix
from fundlens.images import StubFaceProvider, load_precomputed_quality, write_faces
from fundlens.ingest import load_campaigns, load_population_table
from fundlens.stats import pearson_r
from fundlens.synth import Cell, Interaction, PlantedEffect, SynthSpec, generate_dataset, write_dataset


def _spec(**kw):
    base = dict(
        cells=[Cell("B1", "Other", 150), Cell("B2", "Animals & Pets", 120)],
        effects=[
            PlantedEffect("insight", "text", -0.25),
            PlantedEffect("technical", "image_quality", 0.2),
            PlantedEffect("num_faces", "face", 0.15),
        ],
        noise_sigma=0.05,
    )
    base.update(kw)
    return SynthSpec(**base)


def test_spec_from_dict_roundtrip(registry, lexicon):
    payload = {
        "cells": [{"band": "B1", "category": "Other", "n": 10}],
        "effects": [{"feature": "we", "modality": "text", "slope": 0.1}],
        "interactions": [
            {"a_feature": "insight", "a_modality": "text",
             "b_feature": "technical", "b_modality": "image_quality",
             "magnitude": 0.5}
        ],
        "noise_sigma": 0.1,
    }
    spec = SynthSpec.from_dict(payload)
    spec.validate(registry, lexicon)
    assert spec.cells[0].n == 10
    assert spec.interactions[0].magnitude == 0.5


def test_spec_validation_errors(registry, lexicon):
    with pytest.raises(SpecError):
        _spec(cells=[Cell("B9", "Other", 5)]).validate(registry, lexicon)
    with pytest.raises(SpecError):
        _spec(cells=[Cell("B1", "Bogus", 5)]).validate(registry, lexicon)
    with pytest.raises(SpecError):
        _spec(effects=[PlantedEffect("notacategory", "text", 0.1)]).validate(registry, lexicon)
    with pytest.raises(SpecError):
        _spec(effects=[PlantedEffect("blur", "image_quality", 0.1)]).validate(registry, lexicon)
    with pytest.raises(SpecError):
        SynthSpec.from_dict({"cells": [{"band": "B1"}]})


def test_spec_scalars_convert_by_field_type():
    spec = SynthSpec.from_dict({"cells": [{"band": "B1", "category": "Other", "n": 10}],
                                "words_per_description": "40", "noise_sigma": 1, "base_ratio": "1.5"})
    assert (spec.words_per_description, spec.noise_sigma, spec.base_ratio) == (40, 1.0, 1.5)
    assert type(spec.noise_sigma) is float
    assert (spec.missing_city_rate, spec.background_poisson) == (0.05, 2.0)
    with pytest.raises(SpecError, match="noise_sigm"):
        SynthSpec.from_dict({"cells": [], "noise_sigm": 0.1})


@pytest.mark.parametrize("change", [
    {"cells": [Cell("B1", "Other", 5.0)]},
    {"cells": [Cell("B1", "Other", True)]},
    {"cells": [Cell(1, "Other", 5)]},
    {"effects": [PlantedEffect("insight", "text", float("nan"))]},
    {"effects": [PlantedEffect("insight", "text", 10 ** 400)]},
    {"effects": [PlantedEffect("insight", "text", None)]},
    {"effects": [PlantedEffect(5, "text", 0.1), PlantedEffect("insight", "text", 0.1)]},
    {"interactions": [Interaction("insight", "text", "age", "face", float("-inf"))]},
    {"interactions": [Interaction("insight", "text", "age", ["face"], 0.5)]},
], ids=["float-n", "bool-n", "int-band", "nan-slope", "huge-slope", "null-slope",
        "int-feature", "infinite-magnitude", "list-modality"])
def test_spec_rejects_fields_off_their_type(registry, lexicon, change):
    with pytest.raises(SpecError):
        _spec(**change).validate(registry, lexicon)


def test_spec_accepts_scalar_range_ends(registry, lexicon):
    _spec(noise_sigma=0.0, missing_city_rate=0.0, background_poisson=0.0,
          words_per_description=10, base_ratio=-3.0).validate(registry, lexicon)
    _spec(missing_city_rate=1.0).validate(registry, lexicon)


#: The small spec of test_write_dataset_is_pinned: every supported planted
#: feature (text, both image-quality scores, both face features, population)
#: and one text x face interaction. With seed 0 its last campaign has a
#: planted age and a num_faces that rounds to 0, so it gets one face.
_PINNED_SPEC = SynthSpec(
    cells=[Cell("B1", "Other", 4), Cell("B3", "Animals & Pets", 3)],
    effects=[
        PlantedEffect("insight", "text", -0.25),
        PlantedEffect("aesthetic", "image_quality", 0.1),
        PlantedEffect("technical", "image_quality", 0.2),
        PlantedEffect("num_faces", "face", 0.15),
        PlantedEffect("age", "face", -0.1),
        PlantedEffect("city_population", "population", 0.1),
    ],
    interactions=[Interaction("family", "text", "age", "face", 0.3)],
    words_per_description=40,
)


def _written_digests(ds, root) -> dict:
    """sha256 of every file write_dataset writes, by path relative to root."""
    write_dataset(ds, root)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_write_dataset_is_pinned(registry, lexicon, tmp_path):
    # Same spec and seed, same bytes, across versions of this package. The
    # digests follow NumPy's Generator streams, which NEP 19 lets a NumPy
    # release change: re-pin them only after a NumPy upgrade, with a note in
    # CHANGES.md.
    ds = generate_dataset(_PINNED_SPEC, seed=0, lexicon=lexicon, registry=registry)
    assert _written_digests(ds, tmp_path) == {
        "campaigns.jsonl": "a29ece5fc58f3b5de7888f77d0794a766bfd07f3021d2c05c2858d0044b23dcd",
        "census.csv": "93032fff06ff71ae2ae4a79fee93f2decf3f2247abc08df2105ca941894b980e",
        "faces.jsonl": "5bb84568ada11d7945d73b0a0e4794e7064dbc7de34eb9d46ee32f7a0359ca4a",
        "manifest.json": "924e7a8a3a89038aa999aeb44fe2a5355f6188eed1481251a0c59e904ef04cbf",
        "quality.csv": "a5ec55b728c0fdf75a71bbf5bcc497c54ac2d7f2e45b0173587d37d44c3d8c1b",
    }


#: Specs for the text and location paths _PINNED_SPEC misses, pinned at seed 1.
#: "filler-only": no background words (background_poisson 0), latents that only
#: interactions read, so all are bimodal, and ghost towns. "truncated": 10 words
#: leave room for 8, fewer than the planted and background words, so the
#: description is cut and holds no filler.
_EDGE_SPECS = {
    "filler-only": (SynthSpec(
        cells=[Cell("B2", "Other", 5)],
        interactions=[Interaction("insight", "text", "age", "face", 0.4),
                      Interaction("we", "text", "aesthetic", "image_quality", 0.2)],
        words_per_description=24, background_poisson=0.0, missing_city_rate=0.5,
    ), {
        "campaigns.jsonl": "cc6535243bcf1d570080d7fc55fd7e91ec52303eae1d5921ca71bc22a5ae5568",
        "census.csv": "21c4dab513d7c2661c378eb066b5f988b3aa5a1d8c1e89c9245c23b9a9a07f65",
        "faces.jsonl": "bc48b1de2b5685d38fc9da902425d207d80c0c35566ee3c453c498a4fbd1ffba",
        "manifest.json": "502bd8899c012580f07fd5420f20bf3c6395573caefb9036fb3eac0cc31a2893",
        "quality.csv": "03d287265734b31ae602ae8f419261cbd74a42fd050e2d999023b3165e12be0b",
    }),
    "truncated": (SynthSpec(
        cells=[Cell("B4", "Animals & Pets", 3)],
        effects=[PlantedEffect("we", "text", 0.3), PlantedEffect("technical", "image_quality", -0.1)],
        words_per_description=10, background_poisson=3.0, missing_city_rate=0.5,
    ), {
        "campaigns.jsonl": "dce6c1f2c7980a523473e2c8a4291ce9dcbef1e704ccc215cd12c3f7bc09ac1e",
        "census.csv": "21c4dab513d7c2661c378eb066b5f988b3aa5a1d8c1e89c9245c23b9a9a07f65",
        "faces.jsonl": "01b390fdcadb6c4869d4ef5262200ffefd1aca1b6c2c9c4c6e232add77e20833",
        "manifest.json": "88dc5f54ae6b18de9763bd8485760ae5f201a9e9679d47693441f64014d71f41",
        "quality.csv": "31ae5689f532230d74996a7fea5c213d7d8182d648f8cd5f28748a058c21875b",
    }),
}


@pytest.mark.parametrize("name", sorted(_EDGE_SPECS))
def test_write_dataset_is_pinned_on_edge_paths(registry, lexicon, tmp_path, name):
    spec, digests = _EDGE_SPECS[name]
    ds = generate_dataset(spec, seed=1, lexicon=lexicon, registry=registry)
    # the paths the spec is here for are taken
    cities = [c["city"].startswith("ghosttown") for c in ds.campaigns]
    assert any(cities) and not all(cities)
    if name == "truncated":
        assert all(len(words) == 8 and not any(w.startswith("zq") for w in words)
                   for words in (c["description"].split() for c in ds.campaigns))
    assert _written_digests(ds, tmp_path) == digests


# generate_dataset draws a list of k words with one sized integers call (k
# scalar calls when k < 4), picks an interaction latent's sign by indexing
# (-1.0, 1.0), calls poisson(0.0) when background_poisson is 0, and builds face
# emotions and clipped values without per-scalar NumPy calls. Its output keeps
# the digests pinned above only through the equivalences below, which NEP 19
# lets a NumPy release change: after a NumPy upgrade, a failure here tells why
# the pinned digests moved.
@pytest.mark.parametrize("n", [1, 2, 7, 500, 2 ** 33])
@pytest.mark.parametrize("k", [0, 1, 5, 301])
def test_batched_integers_take_the_scalar_stream(n, k):
    for skip in (0, 1):  # a fresh generator, and one with half a 64-bit word buffered
        batched, scalar = np.random.default_rng(n + k), np.random.default_rng(n + k)
        for rng in (batched, scalar):
            rng.integers(0, 3, size=skip)
        assert batched.integers(0, n, size=k).tolist() == [int(scalar.integers(0, n))
                                                           for _ in range(k)]
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert batched.random() == scalar.random()


def test_sign_by_index_takes_the_choice_stream():
    for seed in range(200):
        by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert by_choice.choice([-1.0, 1.0]) == (-1.0, 1.0)[by_index.integers(0, 2)]
        assert by_choice.bit_generator.state == by_index.bit_generator.state


def test_poisson_of_zero_draws_nothing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert [rng.poisson(0.0) for _ in range(20)] == [0] * 20
    assert rng.bit_generator.state == state


def test_scalar_free_formulas_match_numpy_bit_for_bit():
    rng = np.random.default_rng(0)
    for _ in range(500):
        raw = rng.gamma(2.0, 1.0, size=7)
        assert ([v.hex() for v in (100.0 * raw / raw.sum()).tolist()]
                == [float(100.0 * v / raw.sum()).hex() for v in raw])
    lo, hi = 0.0, 40.0
    for x in [*(10.0 + 30.0 * rng.standard_normal(500)).tolist(), lo, hi, -1e-300, 5e-324,
              40.000000000000007, float("inf"), float("-inf"), float("nan")]:
        assert min(max(x, lo), hi).hex() == float(np.clip(x, lo, hi)).hex()


def test_generate_respects_cells_and_bands(registry, lexicon):
    ds = generate_dataset(_spec(), seed=3, lexicon=lexicon, registry=registry)
    assert ds.manifest["n_campaigns"] == 270
    per_cell = {}
    for c in ds.campaigns:
        band = assign_goal_band(c["goal_amount"])
        per_cell[(band.name, c["category"])] = per_cell.get((band.name, c["category"]), 0) + 1
        assert 0.0 <= c["raised_amount"] / c["goal_amount"] <= 2.5 + 1e-9
    assert per_cell == {("B1", "Other"): 150, ("B2", "Animals & Pets"): 120}


def test_generated_campaigns_follow_the_campaign_schema(registry, lexicon):
    # Keys are exactly Campaign's fields, and each dict reads back to the same record.
    ds = generate_dataset(_spec(), 5, lexicon, registry)
    names = {f.name for f in fields(Campaign)}
    for c in ds.campaigns:
        assert set(c) == names
        campaign = Campaign.from_record(c, registry)
        assert campaign.to_record() == {**c, **campaign.labels()}


def test_generate_is_deterministic(registry, lexicon):
    a = generate_dataset(_spec(), seed=9, lexicon=lexicon, registry=registry)
    b = generate_dataset(_spec(), seed=9, lexicon=lexicon, registry=registry)
    assert a.campaigns == b.campaigns
    assert a.quality_rows == b.quality_rows
    c = generate_dataset(_spec(), seed=10, lexicon=lexicon, registry=registry)
    assert a.campaigns != c.campaigns


def test_manifest_records_expected_signs(registry, lexicon):
    ds = generate_dataset(_spec(), seed=1, lexicon=lexicon, registry=registry)
    assert ds.manifest["expected_signs"] == {
        "text/insight": -1,
        "image_quality/technical": 1,
        "face/num_faces": 1,
    }
    assert ds.manifest["seed"] == 1
    assert ds.manifest["spec"]["noise_sigma"] == 0.05


def test_planted_effects_visible_in_features(registry, lexicon, tmp_path):
    ds = generate_dataset(_spec(), seed=7, lexicon=lexicon, registry=registry)
    paths = write_dataset(ds, tmp_path)
    campaigns, report = load_campaigns(paths["campaigns"], registry)
    assert report.accepted == 270
    matrix = build_feature_matrix(
        campaigns, registry, lexicon,
        population_table=load_population_table(paths["census"]),
        quality_table=load_precomputed_quality(paths["quality"]),
        face_provider=StubFaceProvider(paths["sidecar_root"]),
    )
    ratios = np.array([c.ratio for c in campaigns])
    # each planted effect shows up with the manifest-recorded sign
    assert pearson_r(matrix.column("liwc_insight"), ratios) < -0.5
    assert pearson_r(matrix.column("technical_score"), ratios) > 0.5
    assert pearson_r(matrix.column("num_faces"), ratios) > 0.3
    # an unplanted text category stays near zero
    assert abs(pearson_r(matrix.column("liwc_family"), ratios)) < 0.25


def test_xor_interaction_hides_from_linear_screen(registry, lexicon, tmp_path):
    spec = SynthSpec(
        cells=[Cell("B1", "Other", 300)],
        interactions=[Interaction("insight", "text", "technical", "image_quality", 0.6)],
        base_ratio=1.25,
        noise_sigma=0.05,
    )
    ds = generate_dataset(spec, seed=5, lexicon=lexicon, registry=registry)
    paths = write_dataset(ds, tmp_path)
    campaigns, _ = load_campaigns(paths["campaigns"], registry)
    matrix = build_feature_matrix(
        campaigns, registry, lexicon,
        quality_table=load_precomputed_quality(paths["quality"]),
        face_provider=StubFaceProvider(paths["sidecar_root"]),
    )
    ratios = np.array([c.ratio for c in campaigns])
    # marginally the two interacting features are (nearly) uncorrelated with
    # the outcome, but their XOR determines it
    assert abs(pearson_r(matrix.column("liwc_insight"), ratios)) < 0.2
    assert abs(pearson_r(matrix.column("technical_score"), ratios)) < 0.2
    a = matrix.column("liwc_insight") > np.median(matrix.column("liwc_insight"))
    b = matrix.column("technical_score") > np.median(matrix.column("technical_score"))
    xor_corr = pearson_r((a ^ b).astype(float), ratios)
    assert abs(xor_corr) > 0.8


def test_write_dataset_outputs(registry, lexicon, tmp_path):
    ds = generate_dataset(_spec(cells=[Cell("B1", "Other", 20)]), seed=2,
                          lexicon=lexicon, registry=registry)
    paths = write_dataset(ds, tmp_path)
    for key in ("campaigns", "census", "quality", "faces", "manifest"):
        assert Path(paths[key]).exists()
    manifest = json.loads(Path(paths["manifest"]).read_text())
    assert manifest["n_campaigns"] == 20
    # every campaign with faces has a readable line in faces.jsonl
    provider = StubFaceProvider(paths["sidecar_root"])
    refs = [c["cover_image"] for c in ds.campaigns if c["cover_image"]]
    assert any(provider.analyze(ref) for ref in refs)


def test_faces_jsonl_round_trips_every_image(registry, lexicon, tmp_path):
    ds = generate_dataset(_spec(cells=[Cell("B1", "Other", 60)]), seed=3,
                          lexicon=lexicon, registry=registry)
    write_faces(tmp_path, ds.faces)
    assert any(ds.faces.values()) and not all(ds.faces.values())
    provider = StubFaceProvider(tmp_path)
    for ref, faces in ds.faces.items():
        assert provider.analyze(ref) == faces
    assert provider.analyze("images/unknown.ppm") == []


@pytest.mark.parametrize("n", [1, 40])
def test_write_dataset_writes_five_files_whatever_the_cohort_size(registry, lexicon, tmp_path, n):
    # The provider output is one faces.jsonl, not one file per image.
    ds = generate_dataset(_spec(cells=[Cell("B2", "Other", n)]), seed=1,
                          lexicon=lexicon, registry=registry)
    write_dataset(ds, tmp_path)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "campaigns.jsonl", "census.csv", "faces.jsonl", "manifest.json", "quality.csv"]
    assert len((tmp_path / "faces.jsonl").read_text(encoding="utf-8").splitlines()) == n


def test_emotions_sum_to_100(registry, lexicon):
    ds = generate_dataset(_spec(cells=[Cell("B1", "Other", 30)]), seed=4,
                          lexicon=lexicon, registry=registry)
    for faces in ds.faces.values():
        for face in faces:
            assert sum(face.emotion.values()) == pytest.approx(100.0, abs=0.5)
