#!/usr/bin/env bash
# End-to-end demo: generate a synthetic cohort, then run the full analysis
# pipeline into ./out. Usage: scripts/run_pipeline.sh [seed]
set -euo pipefail

SEED="${1:-42}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
DATA="$ROOT/out/data"
OUT="$ROOT/out"
mkdir -p "$DATA"

SPEC="$DATA/synth_spec.json"
cat > "$SPEC" <<'JSON'
{
  "cells": [
    {"band": "B1", "category": "Other", "n": 400},
    {"band": "B2", "category": "Medical, Illness & Healing", "n": 400},
    {"band": "B3", "category": "Animals & Pets", "n": 300}
  ],
  "effects": [
    {"feature": "insight", "modality": "text", "slope": -0.25},
    {"feature": "technical", "modality": "image_quality", "slope": 0.2},
    {"feature": "num_faces", "modality": "face", "slope": 0.15}
  ],
  "noise_sigma": 0.2
}
JSON

COMMON=(
  --seed "$SEED"
  --out "$OUT"
  --campaigns "$DATA/campaigns.jsonl"
  --census "$DATA/census.csv"
  --quality-scores "$DATA/quality.csv"
  --sidecar-root "$DATA"
)

python3 -m fundlens.cli synth "${COMMON[@]}" --out "$DATA" "$SPEC"
python3 -m fundlens.cli ingest "${COMMON[@]}"
python3 -m fundlens.cli featurize "${COMMON[@]}"
python3 -m fundlens.cli screen "${COMMON[@]}"
# --jobs only schedules the forest fits on worker processes; outputs are identical.
python3 -m fundlens.cli evaluate "${COMMON[@]}" --trees 100 --max-depth 8 --cv-folds 5 --jobs 2
python3 -m fundlens.cli train "${COMMON[@]}" --trees 100 --max-depth 8 --jobs 2
# Serve the trained models on the cohort itself (any JSONL of campaigns works).
python3 -m fundlens.cli predict "${COMMON[@]}" "$DATA/campaigns.jsonl"
python3 -m fundlens.cli report "${COMMON[@]}"

echo
echo "Artifacts written to $OUT:"
ls -1 "$OUT" | grep -v '^data$'
