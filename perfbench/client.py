"""Client process: runs passes of fundlens CLI stages in-process and times them.

Usage: python3 client.py JOB_JSON

The job names the source tree to import, the stage argument lists (``{out}``
in an argument is replaced by the pass's output directory), the output
directory pattern (``{i}`` is the pass number), how many passes to make at
least and for how many seconds to keep making them, whether to trace every
pass or alternate untraced and traced passes, which stages start a process
pool, and where to write the result and the spans of a traced run.

The client pins itself to one CPU for every stage that does not start a
process pool. Just before and just after every stage it times a fixed
piece of work that does not touch fundlens (``calibrate``) on the stage's
CPUs; the run scales each stage time by these two samples to the machine
speed at which the work takes ``CALIBRATION_REF_S``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


#: Seconds ``calibrate`` takes at the reference machine speed: its typical
#: time on a quiet vCPU of the 2-vCPU shared Xeon the benchmark was built on.
CALIBRATION_REF_S = 0.012

#: The calibration's input: 300 small JSON records with a short text each.
_CALIBRATION_DOC = json.dumps([{"id": i, "text": "word alpha beta " * 8, "value": i * 0.5}
                               for i in range(300)])


def _calibration_work(reps: int) -> float:
    """Seconds for a fixed piece of work that does not touch fundlens: parse
    JSON records, split and count their words, sort and serialise tuples,
    the kinds of interpreter work the pipeline does."""
    t0 = time.perf_counter()
    for _ in range(reps):
        records = json.loads(_CALIBRATION_DOC)
        words = [w for r in records for w in r["text"].split()]
        len(set(words))
        json.dumps(sorted(((r["value"], r["id"]) for r in records), reverse=True))
    return time.perf_counter() - t0


def calibrate(reps: int = 10) -> float:
    """Seconds for ``reps`` rounds of the calibration work, spread evenly
    over the CPUs this process may use: it runs pinned to each in turn, and
    the process's CPU set is restored after. On a shared host each vCPU
    slows and speeds up on its own; the calibration slows with the CPUs a
    stage runs on, so the ratio of the two cancels most of the host's
    drift."""
    cpus = sorted(os.sched_getaffinity(0))
    share = max(reps // len(cpus), 1)
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            total += _calibration_work(share)
    finally:
        os.sched_setaffinity(0, cpus)
    return total * reps / (share * len(cpus))


def run_stages(stages, tracer=None, calibration=None, cpus=None) -> list:
    """Call ``fundlens.cli.main`` once per stage; stop at the first failure.

    Returns [(name, exit_code, seconds)]. An exception escaping ``main`` is
    printed and recorded as exit code -1. With a ``calibration`` list, a
    ``calibrate`` sample is appended to it just before and just after every
    stage. With ``cpus`` (stage name to CPU set), the process runs each
    stage and its calibration on that stage's CPUs.
    """
    import fundlens.cli as cli

    results = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for name, argv in stages:
            if cpus is not None:
                os.sched_setaffinity(0, cpus[name])
            if calibration is not None:
                calibration.append(calibrate())
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(argv))
            except Exception:  # a traceback is a failed stage, not a crashed benchmark
                traceback.print_exc()
                rc = -1
            results.append((name, rc, time.perf_counter() - t0))
            if calibration is not None:
                calibration.append(calibrate())
            if rc != 0:
                break
    return results


def run_passes(stages, out: str, min_passes: int, seconds: float, tracer=None,
               alternate: bool = False, calibration=None, cpus=None) -> tuple:
    """Repeat ``stages`` with a fresh output directory per pass: at least
    ``min_passes`` times, then while another pass as long as the last one
    still ends within ``seconds``. Stops at the first failed stage.

    With a ``tracer`` every pass is traced, or with ``alternate`` passes go
    untraced and traced in turn, in the order U T T U U T ..., so that a
    steady drift in machine speed cancels out of the difference between the
    two kinds; the run then ends only after a whole pair. Only the spans of
    the first traced pass are kept. ``calibration`` and ``cpus`` go to
    ``run_stages``. Returns (passes, traced), where ``traced[i]`` tells
    whether pass ``i`` was traced.
    """
    passes, traced = [], []
    kept = None
    t0 = time.perf_counter()
    while True:
        i = len(passes)
        on = tracer is not None and (not alternate or i % 4 in (1, 2))
        t = time.perf_counter()
        results = run_stages([(name, [a.replace("{out}", out.format(i=i)) for a in argv])
                              for name, argv in stages], tracer if on else None, calibration, cpus)
        passes.append(results)
        traced.append(on)
        if on:
            if kept is None:
                kept = len(tracer.spans)
            else:
                del tracer.spans[kept:]
        now = time.perf_counter()
        if len(results) < len(stages) or results[-1][1] != 0:
            break
        if alternate and len(passes) % 2:
            continue
        if len(passes) >= min_passes and (now - t0) + (now - t) > seconds:
            break
    return passes, traced


def _peak_rss_mb() -> float:
    """Peak RSS of this process. Pool workers are forked from it and share
    its pages, so their peaks are not added."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import fundlens

    if src not in Path(fundlens.__file__).resolve().parents:
        print(f"fundlens imported from {fundlens.__file__}, not from {src}", file=sys.stderr)
        return 2
    # A stage that starts a process pool runs on every CPU; every other
    # stage is pinned to one, so that its calibration times the CPU it runs on.
    everywhere = os.sched_getaffinity(0)
    cpus = {name: everywhere if name in job["pool_stages"] else {max(everywhere)}
            for name, _ in job["stages"]}
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(job["run_id"])
    calibration: list = []
    passes, traced = run_passes(job["stages"], job["out"], job["min_passes"], job["seconds"],
                                tracer, job["alternate"], calibration, cpus)
    if tracer is not None:
        tracer.write(job["spans_path"])
    Path(job["result_path"]).write_text(json.dumps({
        "passes": passes,
        "traced": traced,
        "calibration_s": calibration,
        "peak_rss_mb": _peak_rss_mb(),
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
