"""fundlens pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. One run generates the workload's inputs with
``fundlens synth`` three times (``setup_s`` is the median), then repeats the
pipeline ``ingest → featurize → screen → evaluate → train → predict →
report`` for about ``--seconds`` seconds in one client process, each pass
with a fresh output directory. On a shared host other tenants slow each
vCPU by 20-70%, on its own, for seconds to minutes at a time, often for a
whole run. So the client runs every stage pinned to one CPU (a stage that
starts a process pool on all of them) and times a fixed calibration piece
on the same CPUs just before and just after the stage. Every reported time
is the stage's time scaled by ``CALIBRATION_REF_S`` over the mean of its two
samples, in seconds at the reference machine speed; a stage's metric is the
median of its scaled times over the passes and ``pipeline_s`` is their sum.
The raw times are kept in the run record. With ``--trace 1`` the run sets
up once with every layer wrapped, alternates untraced and traced passes,
and reports the per-layer metrics of the first traced pass and the tracing
overhead instead, unscaled.
Every stage exit code, output check and determinism check is one operation
in ``attempted``/``failed``.

``--workload all`` runs every workload untraced and traced and exits
non-zero if any check fails; ``cv-sweep-jobs2`` then also checks its report
against the one ``cv-sweep`` wrote, through the shared digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything a run
leaves behind goes under ``.perfbench/`` in the repository root: the run
record (environment, drift, per-pass numbers, digests, problems) in
``runs/`` and digests for cross-run determinism checks in ``digests/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    check_predictions, check_report, check_screening, digests, load_fresh,
)
from client import CALIBRATION_REF_S  # noqa: E402
from layers import layer_metrics, per_layer_units  # noqa: E402
from tracer import read_spans, write_spans  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

#: Set-up repetitions per untraced run; ``setup_s`` is the median of their
#: scaled times.
SETUP_REPS = 3
#: Pipeline passes per run at the least, however long they take; a traced
#: run makes this many untraced and this many traced passes.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    **{f"{stage}_s": "s" for stage in STAGES if stage != "report"},
    "peak_rss_mb": "MiB",
    "fused_f1": "1",
    "serve_accuracy": "1",
}

#: BLAS and OpenMP pools pinned to one thread: parallelism comes only from
#: ``--jobs``.
_THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class Ops:
    """Operation counts: every stage call and every output check is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def check_problems(self, problems: list) -> bool:
        return self.check(not problems, "; ".join(problems))


def scaled_passes(passes: list, calibration: list) -> list:
    """Per pass, [(stage, seconds at the reference machine speed)]: each stage
    time scaled by ``CALIBRATION_REF_S`` over the mean of the two calibration
    samples the client took just before and just after the stage."""
    samples = iter(calibration)
    return [[(name, seconds * 2 * CALIBRATION_REF_S / (next(samples) + next(samples)))
             for name, _, seconds in stages] for stages in passes]


def code_digest() -> str:
    """sha256 over the program source and the benchmark source."""
    h = hashlib.sha256()
    files = sorted(p for p in (SRC / "fundlens").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    files += sorted(HERE.glob("*.py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "code_sha256": code_digest(),
    }


def run_client(work: Path, tag: str, stages: list, *, trace: bool, run_id: str,
               min_passes: int, seconds: float, timeout: float, alternate: bool = False,
               pool_stages: tuple = ()) -> dict:
    """Run passes of ``stages`` in one fresh client process and wait for it.

    Pass ``i`` writes to ``work/<tag><i>``. The stages in ``pool_stages``
    run on every CPU, the others on one. The client runs in its own
    process group, which is killed if it overruns ``timeout`` or if this
    process is interrupted, so no pool worker outlives the run.
    """
    job = {
        "src": str(SRC), "stages": stages, "out": str(work / f"{tag}{{i}}"),
        "min_passes": min_passes, "seconds": seconds, "trace": trace, "alternate": alternate,
        "pool_stages": list(pool_stages), "run_id": run_id,
        "result_path": str(work / f"{tag}.result.json"),
        "spans_path": str(work / f"{tag}.spans.jsonl"),
    }
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = {**os.environ, **_THREAD_ENV}
    with open(work / f"{tag}.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "client.py"), str(job_path)],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT),
                                start_new_session=True)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        except BaseException:  # SIGINT, or SIGTERM turned into SystemExit
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    result_path = Path(job["result_path"])
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / f"{tag}.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"passes": [], "traced": [], "calibration_s": [], "peak_rss_mb": 0.0,
                "error": f"client exit {proc.returncode}: {tail}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if trace:
        result["spans"] = read_spans(job["spans_path"])
    return result


def _count_stages(ops: Ops, stages: list, expected: list, tag: str) -> bool:
    """Every stage attempted counts; a missing or non-zero stage fails."""
    ok = True
    for name, rc, _ in stages:
        ok &= ops.check(rc == 0, f"{tag}: stage {name} exited {rc}")
    return ok and [name for name, _, _ in stages] == expected


class Run:
    """One benchmark run of one workload for one seed."""

    #: A run ends within this many seconds, whatever its clients do.
    DEADLINE_S = 170

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_id = f"{name}-s{seed}-t{int(trace)}-{os.getpid()}-{time.time_ns()}"
        self.work = STATE / "work" / self.run_id
        self.ops = Ops()
        self.record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
        self.started = time.monotonic()

    def _client(self, tag: str, stages: list, **kw) -> dict:
        remaining = self.DEADLINE_S - (time.monotonic() - self.started)
        result = run_client(self.work, tag, stages, run_id=self.run_id, timeout=remaining, **kw)
        if "error" in result:
            self.ops.check(False, f"{tag}: {result['error']}")
        return result

    # -- inputs -----------------------------------------------------------
    def _setup_stages(self) -> list:
        stages = []
        for kind, cells, seed in (("cohort", self.w.cells, self.seed),
                                  ("fresh", self.w.fresh_cells, self.seed + 1_000_003)):
            spec = self.work / f"{kind}_spec.json"
            spec.write_text(json.dumps(self.w.spec(cells)), encoding="utf-8")
            stages.append(("synth", ["synth", "--seed", str(seed), "--out", f"{{out}}/{kind}", str(spec)]))
        return stages

    def _pipeline_stages(self) -> list:
        data, fresh = self.work / "setup0" / "cohort", self.work / "setup0" / "fresh"

        def inputs(d):
            return ["--census", str(d / "census.csv"), "--quality-scores", str(d / "quality.csv"),
                    "--sidecar-root", str(d)]

        base = ["--seed", str(self.seed), "--out", "{out}",
                "--campaigns", str(data / "campaigns.jsonl"), *inputs(data)]
        argv = {
            "ingest": ["ingest", *base],
            "featurize": ["featurize", *base],
            "screen": ["screen", *base],
            "evaluate": ["evaluate", *base, *self.w.evaluate_flags, "--settings", ",".join(self.w.settings)],
            "train": ["train", *base, *self.w.train_flags],
            "predict": ["predict", "--seed", str(self.seed), "--out", "{out}", *inputs(fresh),
                        str(fresh / "campaigns.jsonl")],
            "report": ["report", *base],
        }
        return [(stage, argv[stage]) for stage in STAGES]

    # -- checks ---------------------------------------------------------------
    def _check_pass(self, tag: str, stages: list, fresh: list) -> dict:
        """Count the pass's stages, check its outputs, then delete them."""
        from fundlens.core import assign_binary_class, assign_goal_band

        out = self.work / tag
        p = {"stages": {name: s for name, _, s in stages}}
        p["ok"] = _count_stages(self.ops, stages, list(STAGES), tag)
        if p["ok"]:
            try:
                problems, p["fused_f1"] = check_report(out, self.w)
                self.ops.check_problems(problems)
                self.ops.check_problems(check_screening(out, self.w))
                problems, p["serve_accuracy"] = check_predictions(
                    out, fresh, self.w.trained_bands,
                    lambda goal: getattr(assign_goal_band(goal), "name", "OutOfRange"),
                    assign_binary_class)
                self.ops.check_problems(problems)
                p["digests"] = digests(out)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                # An artifact that is missing or cannot be parsed fails its check.
                p["ok"] = self.ops.check(False, f"{tag}: unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        return p

    def _check_determinism(self, passes: list) -> None:
        first = passes[0]["digests"]
        for p in passes[1:]:
            for artifact in sorted(set(first) | set(p["digests"])):
                self.ops.check(first.get(artifact) == p["digests"].get(artifact),
                               f"{artifact} differs between passes of one run")
        # Across runs for the same seed and code: the first run leaves its
        # digests behind and every later run compares against them.
        code = self.record["env"]["code_sha256"][:16]
        keys = {f"{self.w.name}-s{self.seed}-{code}": first}
        if self.w.name.startswith("cv-sweep"):
            # Serial and parallel evaluation write the same report body.
            keys[f"cv-sweep-report-body-s{self.seed}-{code}"] = {"report.csv body": first["report.csv body"]}
        ddir = STATE / "digests"
        ddir.mkdir(parents=True, exist_ok=True)
        for key, mine in keys.items():
            path = ddir / f"{key}.json"
            if path.exists():
                theirs = json.loads(path.read_text(encoding="utf-8"))
                for artifact in sorted(mine):
                    self.ops.check(theirs.get(artifact) == mine[artifact],
                                   f"{artifact} differs from an earlier run ({key})")
            else:
                tmp = path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(mine, sort_keys=True), encoding="utf-8")
                os.replace(tmp, path)

    # -- the run ------------------------------------------------------------
    def execute(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _execute(self) -> dict:
        self.record["env"] = environment()
        drift = self.record["drift"] = {"loadavg_before": os.getloadavg()}
        sys.path.insert(0, str(SRC))

        reps = 1 if self.trace else SETUP_REPS
        setup = self._client("setup", self._setup_stages(), trace=self.trace,
                             min_passes=reps, seconds=0.0)
        for i, stages in enumerate(setup["passes"]):
            _count_stages(self.ops, stages, ["synth", "synth"], f"setup{i}")
            if i:
                shutil.rmtree(self.work / f"setup{i}", ignore_errors=True)
        self.record["setup_raw_s"] = [sum(s for _, _, s in st) for st in setup["passes"]]
        if self.ops.failed or len(setup["passes"]) != reps:
            return self._finish({}, [])
        fresh = load_fresh(self.work / "setup0" / "fresh" / "campaigns.jsonl")

        # A traced run alternates untraced and traced passes in one client.
        min_passes = 2 * MIN_PASSES if self.trace else MIN_PASSES
        run = self._client("pass", self._pipeline_stages(), trace=self.trace, alternate=self.trace,
                           min_passes=min_passes, seconds=self.seconds, pool_stages=self.w.pool_stages)
        passes = [self._check_pass(f"pass{i}", st, fresh) for i, st in enumerate(run["passes"])]
        for p, on in zip(passes, run["traced"]):
            p["traced"] = on
        if self.ops.failed or len(passes) < min_passes:
            return self._finish({}, passes)
        self._check_determinism(passes)
        drift["loadavg_after"] = os.getloadavg()
        self.record["calibration_raw_s"] = {"setup": setup["calibration_s"], "pass": run["calibration_s"]}
        drift["calibration_s"] = {
            client: {"mean": statistics.mean(c), "min": min(c), "max": max(c), "n": len(c)}
            for client, c in (("setup", setup["calibration_s"]), ("pass", run["calibration_s"]))}

        traced = [p for p, on in zip(passes, run["traced"]) if on]
        untraced = [p for p, on in zip(passes, run["traced"]) if not on]
        if self.trace:
            spans = _merge(setup["spans"], run["spans"])
            runs = STATE / "runs"
            runs.mkdir(parents=True, exist_ok=True)
            write_spans(runs / f"{self.run_id}.spans.jsonl", spans, self.run_id)
            metrics = layer_metrics(spans)
            # The tracer's true cost is far below the noise of a pass: the
            # mean difference can come out negative, which reads as 0. The
            # run record keeps the raw difference.
            overhead = self.record["trace_overhead_raw_s"] = (
                statistics.mean(sum(p["stages"].values()) for p in traced)
                - statistics.mean(sum(p["stages"].values()) for p in untraced))
            metrics["trace.overhead_s"] = max(overhead, 0.0)
        else:
            self.record["stage_raw_s"] = {
                stage: statistics.median(p["stages"][stage] for p in untraced) for stage in STAGES}
            scaled = [dict(p) for p in scaled_passes(run["passes"], run["calibration_s"])]
            stage_s = {stage: statistics.median(p[stage] for p in scaled) for stage in STAGES}
            setup_s = [sum(s for _, s in p) for p in scaled_passes(setup["passes"], setup["calibration_s"])]
            metrics = {"setup_s": statistics.median(setup_s), "pipeline_s": sum(stage_s.values())}
            metrics.update({f"{stage}_s": stage_s[stage] for stage in STAGES if stage != "report"})
            metrics["peak_rss_mb"] = run["peak_rss_mb"]
            metrics["fused_f1"] = passes[0]["fused_f1"]
            metrics["serve_accuracy"] = passes[0]["serve_accuracy"]
        return self._finish(metrics, passes)

    def _finish(self, metrics: dict, passes: list) -> dict:
        self.record["passes"] = passes
        self.record["problems"] = self.ops.problems
        units = per_layer_units() if self.trace else END_TO_END_UNITS
        metrics = {k: v for k, v in metrics.items() if isinstance(v, (int, float)) and math.isfinite(v)}
        correct = self.ops.failed == 0 and set(metrics) == set(units)
        if not correct and not self.ops.problems:
            self.ops.problems.append("metrics missing: " + ", ".join(sorted(set(units) - set(metrics))))
        self.record["result"] = {
            "correct": correct, "attempted": max(self.ops.attempted, 1), "failed": self.ops.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        }
        runs = STATE / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        (runs / f"{self.run_id}.json").write_text(json.dumps(self.record, indent=1, default=str),
                                                   encoding="utf-8")
        return self.record


def _merge(*span_lists) -> list:
    """Concatenate span lists from separate processes, fixing parent indices."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for s in spans:
            if s.parent >= 0:
                s.parent += base
            merged.append(s)
    return merged


def print_record(record: dict) -> None:
    res = record["result"]
    env, drift = record.get("env", {}), record.get("drift", {})
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"python={env.get('python')} numpy={env.get('numpy')} nproc={env.get('nproc')} "
          f"commit={env.get('git_commit')} loadavg={drift.get('loadavg_before')}->{drift.get('loadavg_after')} "
          f"passes={len(record.get('passes', []))}")
    for client, c in drift.get("calibration_s", {}).items():
        print(f"# {client} calibration_s mean={c['mean']:.6f} min={c['min']:.6f} max={c['max']:.6f} "
              f"n={c['n']} (reference {CALIBRATION_REF_S})")
    if "stage_raw_s" in record:
        print("# raw stage seconds (median over passes): " + " ".join(f"{k}={v:.4f}" for k, v in record["stage_raw_s"].items()))
    for name, m in res["metrics"].items():
        print(f"{record['workload']:16s} {name:42s} {m['value']:14.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a waiting run kills its client first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fundlens" / "cli.py").is_file():
        print(f"fundlens source not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        record = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
        print_record(record)
        print(json.dumps(record["result"]))
        return 0 if record["result"]["correct"] else 1

    attempted = failed = 0
    for name in WORKLOADS:
        for trace in (False, True):
            record = Run(name, args.seed, args.seconds, trace).execute()
            print_record(record)
            res = record["result"]
            attempted += res["attempted"]
            # A run can be incorrect with no failed operation: a metric is missing.
            failed += res["failed"] or int(not res["correct"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
