"""Synthetic dataset generator with planted, manifest-recorded effects.

The real crawled dataset is not public, so every statistical claim in this
package is verified on generated data whose ground truth is known: each
campaign's success ratio is a clipped linear combination of planted feature
effects (plus optional multimodal interaction effects) and Gaussian noise,
and the manifest records every planted parameter for oracle checks.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import date, timedelta
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .core import CategoryRegistry, GoalBand, MAX_RATIO
from .errors import SpecError
from .images import EMOTION_KEYS, FACES_FILE, is_finite_number, write_faces
from .text import Lexicon

_STATES = ("NY", "CA", "TX", "IL", "WA", "OH", "FL", "PA", "GA", "MI")

# Latent-to-observable maps per supported planted feature: value = loc + scale * z.
_FEATURE_MAPS = {
    ("image_quality", "aesthetic"): (5.0, 0.8, 1.0, 10.0),
    ("image_quality", "technical"): (5.0, 0.8, 1.0, 10.0),
    ("face", "num_faces"): (2.0, 1.0, 0.0, 12.0),
    ("face", "age"): (30.0, 10.0, 1.0, 90.0),
    ("population", "city_population"): (11.0, 1.0, 6.0, 16.0),  # log scale
}
_TEXT_LOC, _TEXT_SCALE = 10.0, 3.0  # planted word-category percent = 10 + 3z

#: How a spec error names the declared type of a SynthSpec scalar or of a Cell,
#: PlantedEffect or Interaction field. A number is never a bool, and a float may
#: be an int but must be finite.
_KINDS = {str: "a string", int: "an integer", float: "a finite number"}

#: The closed range of each SynthSpec scalar that has one (base_ratio only needs
#: to be finite, which its type check already asks). The upper ends make a huge
#: length or Poisson mean a spec error rather than an error of NumPy's draws.
_SCALAR_RANGES = (
    ("noise_sigma", 0.0, math.inf),
    ("words_per_description", 10, 10_000),
    ("missing_city_rate", 0.0, 1.0),
    ("background_poisson", 0.0, 1_000.0),
)

#: Filler words pad every description to its length: zq0 .. zq499.
_FILLER = [f"zq{i}" for i in range(500)]


@dataclass(frozen=True)
class PlantedEffect:
    feature: str    # lexicon category, "aesthetic", "technical", "num_faces", "age", "city_population"
    modality: str   # text, image_quality, face, population
    slope: float


@dataclass(frozen=True)
class Interaction:
    """XOR-style multimodal effect invisible to per-feature linear screening."""

    a_feature: str
    a_modality: str
    b_feature: str
    b_modality: str
    magnitude: float


@dataclass(frozen=True)
class Cell:
    band: str
    category: str
    n: int


@dataclass
class SynthSpec:
    cells: list
    effects: list = field(default_factory=list)
    interactions: list = field(default_factory=list)
    base_ratio: float = 1.1
    noise_sigma: float = 0.35
    words_per_description: int = 120
    missing_city_rate: float = 0.05
    background_poisson: float = 2.0  # mean unplanted-category words per campaign

    @classmethod
    def from_dict(cls, payload: dict) -> "SynthSpec":
        """The spec of a JSON object; each optional scalar key is converted by its
        field's type. An unknown key, a bool, a float for an int field or a value
        that will not convert is a SpecError."""
        if not isinstance(payload, dict):
            raise SpecError("synthetic spec must be a JSON object")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise SpecError(f"unknown synthetic spec keys: {sorted(unknown)}")
        types = get_type_hints(cls)
        scalars = {f.name: payload[f.name] for f in fields(cls)
                   if f.default is not MISSING and f.name in payload}
        for name, value in scalars.items():
            if isinstance(value, bool) or types[name] is int and isinstance(value, float):
                raise SpecError(f"SynthSpec.{name} must be {_KINDS[types[name]]}, got {value!r}")
        try:
            return cls(
                cells=[Cell(**c) for c in payload["cells"]],
                effects=[PlantedEffect(**e) for e in payload.get("effects", [])],
                interactions=[Interaction(**i) for i in payload.get("interactions", [])],
                **{name: types[name](value) for name, value in scalars.items()},
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"malformed synthetic spec: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "SynthSpec":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SpecError(f"synthetic spec {path} is not UTF-8 JSON: {exc}") from None
        return cls.from_dict(payload)

    def interaction_keys(self) -> set:
        """The (modality, feature) keys the interactions read."""
        return {key for i in self.interactions
                for key in ((i.a_modality, i.a_feature), (i.b_modality, i.b_feature))}

    def planted_keys(self) -> list:
        """The sorted (modality, feature) keys of the effects and interactions."""
        return sorted({(e.modality, e.feature) for e in self.effects} | self.interaction_keys())

    def validate(self, registry: CategoryRegistry, lexicon: Lexicon) -> None:
        for record in [self, *self.cells, *self.effects, *self.interactions]:
            for name, kind in get_type_hints(type(record)).items():
                if kind not in _KINDS:  # the spec's record lists
                    continue
                value = getattr(record, name)
                if (not is_finite_number(value) if kind is float
                        else isinstance(value, bool) or not isinstance(value, kind)):
                    raise SpecError(f"{type(record).__name__}.{name} must be {_KINDS[kind]}, "
                                    f"got {value!r}")
        band_names = {b.name for b in GoalBand}
        for cell in self.cells:
            if cell.band not in band_names:
                raise SpecError(f"unknown band {cell.band!r}")
            if cell.category not in registry:
                raise SpecError(f"unknown category {cell.category!r}")
            if cell.n <= 0:
                raise SpecError(f"cell size must be positive, got {cell.n}")
        for modality, feature in self.planted_keys():
            if modality == "text":
                if feature not in lexicon.categories:
                    raise SpecError(f"planted text feature {feature!r} not a lexicon category")
            elif (modality, feature) not in _FEATURE_MAPS:
                raise SpecError(f"unsupported planted feature {modality}/{feature}")
        for name, lo, hi in _SCALAR_RANGES:
            if not lo <= getattr(self, name) <= hi:
                raise SpecError(f"{name} must be in [{lo}, {hi}], got {getattr(self, name)!r}")


def _exclusive_words(lexicon: Lexicon, category: str):
    """Entry patterns belonging to this category only, to keep plants clean."""
    idx = lexicon.category_index(category)
    words = [e.pattern for e in lexicon.entries if e.categories == frozenset({idx})]
    if not words:
        words = [e.pattern for e in lexicon.entries if idx in e.categories]
    if not words:
        raise SpecError(f"lexicon has no entries for category {category!r}")
    return words


@dataclass
class SynthDataset:
    campaigns: list        # JSON-serializable campaign dicts
    census_rows: list      # (city, state, population)
    quality_rows: list     # (image_ref, aesthetic, technical)
    faces: dict            # image_ref -> its faces.jsonl face objects
    manifest: dict


def _draw(rng, pool: list, k: int) -> list:
    """k words drawn uniformly from pool (none when k <= 0). One sized integers call
    takes the same stream as k scalar calls (tests/test_synth.py checks it) but
    costs about as much as four of them, so a short draw stays scalar."""
    if k < 4:
        return [pool[rng.integers(0, len(pool))] for _ in range(k)]
    return [pool[i] for i in rng.integers(0, len(pool), size=k).tolist()]


def _make_faces(rng, num_faces: int, mean_age: float) -> list:
    """num_faces face objects of the provider's faces.jsonl schema."""
    faces = []
    for _ in range(num_faces):
        raw = rng.gamma(2.0, 1.0, size=7)
        emotion = dict(zip(EMOTION_KEYS, (100.0 * raw / raw.sum()).tolist()))
        age = min(max(rng.normal(mean_age, 3.0), 0.0), 100.0)
        faces.append({
            "gender": "female" if rng.random() < 0.5 else "male",
            "age": age,
            "beauty": {"female_score": float(rng.uniform(20, 90)),
                       "male_score": float(rng.uniform(20, 90))},
            "smile": {"value": bool(rng.random() < 0.4)},
            "emotion": emotion,
        })
    return faces


def generate_dataset(spec: SynthSpec, seed: int, lexicon: Lexicon,
                     registry: CategoryRegistry = None) -> SynthDataset:
    """Deterministic (spec, seed) -> dataset with a ground-truth manifest."""
    registry = registry or CategoryRegistry.default()
    spec.validate(registry, lexicon)
    rng = np.random.default_rng(seed)

    latent_names = spec.planted_keys()
    interaction_feats = spec.interaction_keys()
    # Word pools with the wildcard stripped; a planted pattern of only "*" reads "word".
    word_pool = {feat: [w.rstrip("*") or "word" for w in _exclusive_words(lexicon, feat)]
                 for mod, feat in latent_names if mod == "text"}
    background_pools = [[w.rstrip("*") for w in _exclusive_words(lexicon, c)]
                        for c in lexicon.categories if c not in word_pool]

    # Fixed city pool for campaigns without a planted population effect.
    city_pool = [(f"baseville {i}", _STATES[i % len(_STATES)], int(2_000 * (i + 1) ** 2))
                 for i in range(40)]
    census_rows = list(city_pool)

    campaigns = []
    quality_rows = []
    faces_by_ref = {}
    epoch = date(2019, 1, 1)
    cid = 0
    L = spec.words_per_description

    for cell in spec.cells:
        band = GoalBand[cell.band]
        for _ in range(cell.n):
            cid += 1
            ident = f"c{cid:06d}"
            # Features driving an interaction get bimodal latents: two well
            # separated clusters per feature, so the planted XOR is learnable
            # by the forest while each marginal stays uninformative;
            # linear-effect latents stay standard normal.
            z = {key: (-1.0, 1.0)[rng.integers(0, 2)] + rng.normal(0.0, 0.25)
                 if key in interaction_feats else rng.standard_normal()
                 for key in latent_names}

            # Realize each latent once. The ratio reads z_hat, the standardized
            # observable: text enters as the whole-word count the description
            # holds; num_faces and city_population enter unrounded.
            z_hat = {}
            word_counts = {}
            observed = {}  # non-text feature -> its realized value
            for (mod, feat) in latent_names:
                if mod == "text":
                    v = min(max(_TEXT_LOC + _TEXT_SCALE * z[(mod, feat)], 0.0), 40.0)
                    cnt = int(round(v / 100.0 * L))
                    word_counts[feat] = cnt
                    z_hat[(mod, feat)] = (100.0 * cnt / L - _TEXT_LOC) / _TEXT_SCALE
                else:
                    loc, scale, lo, hi = _FEATURE_MAPS[(mod, feat)]
                    observed[feat] = min(max(loc + scale * z[(mod, feat)], lo), hi)
                    z_hat[(mod, feat)] = (observed[feat] - loc) / scale

            ratio = spec.base_ratio + rng.normal(0.0, spec.noise_sigma)
            for eff in spec.effects:
                ratio += eff.slope * z_hat[(eff.modality, eff.feature)]
            for inter in spec.interactions:
                xor = (z_hat[(inter.a_modality, inter.a_feature)] > 0.0) != (
                    z_hat[(inter.b_modality, inter.b_feature)] > 0.0)
                ratio += inter.magnitude if xor else -inter.magnitude
            ratio = min(max(ratio, 0.0), MAX_RATIO)

            # Text: planted counts first, then each background category's Poisson
            # count and its words (poisson(0.0) draws nothing), then filler up to
            # L - 2 words.
            tokens = []
            for feat, cnt in word_counts.items():
                tokens += _draw(rng, word_pool[feat], cnt)
            for pool in background_pools:
                tokens += _draw(rng, pool, rng.poisson(spec.background_poisson))
            tokens += _draw(rng, _FILLER, L - 2 - len(tokens))
            del tokens[L - 2:]
            rng.shuffle(tokens)
            title = f"zt{cid} zfiller"
            description = " ".join(tokens)

            # Image quality scores (precomputed table route); unplanted ones are drawn.
            ref = f"images/img_{ident}.ppm"
            aesthetic, technical = (
                observed[feat] if feat in observed else min(max(rng.normal(5.0, 0.8), 1.0), 10.0)
                for feat in ("aesthetic", "technical"))
            quality_rows.append((ref, aesthetic, technical))

            # Faces; a planted age needs at least one face.
            num_faces = (int(round(observed["num_faces"])) if "num_faces" in observed
                         else int(rng.poisson(1.2)))
            if "age" in observed:
                mean_age = observed["age"]
                num_faces = max(num_faces, 1)
            else:
                mean_age = float(rng.uniform(5, 70))
            faces_by_ref[ref] = _make_faces(rng, num_faces, mean_age)

            # Location / population.
            if "city_population" in observed:
                pop = max(1, int(round(math.exp(observed["city_population"]))))
                city, state = f"plantcity {ident}", _STATES[cid % len(_STATES)]
                census_rows.append((city, state, pop))
            elif rng.random() < spec.missing_city_rate:
                city, state = f"ghosttown {ident}", _STATES[cid % len(_STATES)]
            else:
                city, state, _ = city_pool[int(rng.integers(0, len(city_pool)))]

            goal = float(int(rng.uniform(band.low + 1.0, band.high)))
            campaigns.append({
                "id": ident,
                "launch_date": (epoch + timedelta(days=int(rng.integers(0, 322)))).isoformat(),
                "city": city,
                "state": state,
                "country": "US",
                "title": title,
                "description": description,
                "category": cell.category,
                "goal_amount": goal,
                "raised_amount": round(ratio * goal, 2),
                "num_followers": int(rng.poisson(20)),
                "num_shares": int(rng.poisson(40)),
                "num_donors": int(rng.poisson(15)),
                "cover_image": ref,
            })

    manifest = {
        "seed": seed,
        "spec": asdict(spec),
        "n_campaigns": len(campaigns),
        "expected_signs": {f"{e.modality}/{e.feature}": (1 if e.slope > 0 else -1)
                           for e in spec.effects if e.slope != 0},
    }
    return SynthDataset(
        campaigns=campaigns, census_rows=census_rows,
        quality_rows=quality_rows, faces=faces_by_ref, manifest=manifest,
    )


def write_dataset(ds: SynthDataset, outdir) -> dict:
    """Write campaigns.jsonl, census.csv, quality.csv, faces.jsonl and manifest.json."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "campaigns": outdir / "campaigns.jsonl",
        "census": outdir / "census.csv",
        "quality": outdir / "quality.csv",
        "faces": outdir / FACES_FILE,
        "manifest": outdir / "manifest.json",
        "sidecar_root": outdir,
    }
    with paths["campaigns"].open("w", encoding="utf-8") as fh:
        for c in ds.campaigns:
            fh.write(json.dumps(c, sort_keys=True) + "\n")
    with paths["census"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["city", "state", "population"])
        for city, state, pop in ds.census_rows:
            writer.writerow([city, state, pop])
    with paths["quality"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_ref", "aesthetic", "technical"])
        for ref, a, t in ds.quality_rows:
            writer.writerow([ref, f"{a:.6f}", f"{t:.6f}"])
    write_faces(outdir, ds.faces)
    paths["manifest"].write_text(json.dumps(ds.manifest, sort_keys=True, indent=1), encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}
