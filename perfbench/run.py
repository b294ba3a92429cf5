"""Benchmark for greencurves: seeded scenario batches, verdict-gated timings.

Usage (from the repository root):

    python3 perfbench/run.py --workload green_grid --seed 1 --seconds 55 --trace 0

Each workload is a seeded batch of scenario documents (see scenarios.py),
run one after another through the public ``greencurves.cli.run_scenario``:
a closed loop with one client in one process.  The batch is repeated for
``--seconds``; a new pass starts only if the previous pass's time still fits.
Every run goes through an independent verdict gate (verdict.py); a run that
raises or fails its gate counts as failed and never stops the harness.

``--trace 0`` measures the end-to-end metrics with tracing off:

    setup_s          median wall time of fresh processes that import greencurves.cli
    wall_s           median over passes of the time to verdicts for the whole batch
    scenario_s.p50   median run_scenario time over every run of every pass
    peak_rss_mb      peak resident memory of this process
    accuracy.worst   largest residual/tolerance over every check of every run

``--trace 1`` alternates untraced and traced passes with ``GC_THREADS=1``,
reports the per-layer metrics of tracer.PER_LAYER (median over traced passes),
requires identical report.json bytes from both, and reports the tracing
overhead.  Spans of the last traced pass go to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
name every metric with its unit, plus the input digest and run metadata.
The scenario_s p90 is not reported: a run holds far fewer than the hundred
samples that would leave ten beyond it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

import scenarios
import tracer
import verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scenario_s.p50", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy.worst", "ratio"),
]
SETUP_SPAWNS = 7
SVG_WORKLOADS = ("localize_sweep",)


@dataclass
class Run:
    name: str
    seconds: float
    verdict: verdict.Verdict
    report: bytes


def run_pass(cli, batch, files, out_root: Path, svg: bool, verbose: bool = False) -> list:
    """One closed-loop pass over the batch; every run is judged, none aborts the pass."""
    runs = []
    for sc, path in zip(batch, files):
        out = out_root / sc.name
        (out / "report.json").unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            report, code = cli.run_scenario(str(path), out_dir=str(out), svg=svg, verbose=verbose)
            dt = time.perf_counter() - t0
            data = (out / "report.json").read_bytes()
        except Exception as exc:  # a crashing scenario is a failed verdict, not a harness error
            runs.append(Run(sc.name, time.perf_counter() - t0, verdict.crashed(exc), b""))
            continue
        runs.append(Run(sc.name, dt, verdict.judge(sc, report, code, data), data))
    return runs


def _import_seconds() -> float:
    """Seconds from spawning a fresh interpreter until it has imported greencurves.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    code = "import greencurves.cli; print('ready', flush=True)"
    t0 = time.perf_counter()
    # a blocking read, not a polled wait: Popen.wait(timeout) sleeps in 50 ms steps
    with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line != b"ready\n":
        raise RuntimeError(f"importing greencurves.cli in a fresh process failed ({proc.returncode})")
    return dt


def _resolved_threads() -> int:
    n = int(os.environ.get("GC_THREADS", "0") or "0")  # same rule as cli.run_scenario
    return n if n > 0 else min(4, os.cpu_count() or 1)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def metadata() -> dict:
    lines = 0
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        data = p.read_bytes()
        lines += data.count(b"\n")
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "gc_threads": _resolved_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_lines": lines,
        "src_sha256": h.hexdigest(),
    }


def _deadline_loop(seconds: float, step):
    """Call step() until the next call would end after ``seconds``; at least once."""
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - t0) > end:
            return


def _warm_up(cli, work: Path):
    bowtie = SRC / "greencurves" / "scenarios" / "bowtie_green.json"
    cli.run_scenario(str(bowtie), out_dir=str(work / "warmup"))


def timed(cli, batch, files, work: Path, seconds: float, svg: bool):
    setup = [_import_seconds() for _ in range(SETUP_SPAWNS)]
    _warm_up(cli, work)
    passes = []
    _deadline_loop(seconds, lambda: passes.append(run_pass(cli, batch, files, work / "out", svg)))
    runs = [r for p in passes for r in p]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r.seconds for r in p) for p in passes),
        "scenario_s.p50": statistics.median(r.seconds for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy.worst": max(r.verdict.worst for r in runs),
    }
    notes = {"passes": len(passes), "samples": len(runs), "setup_samples": setup}
    return runs, metrics, [], notes


def traced(cli, batch, files, work: Path, seconds: float, svg: bool):
    def verbose_pass(tr=None):
        err = StringIO()
        with redirect_stderr(err), (tr.installed() if tr else nullcontext()):
            runs = run_pass(cli, batch, files, work / "out", svg, verbose=True)
        return runs, err.getvalue()

    plain, traced_passes, layer, spans = [], [], [], []

    def pair():
        plain.append(verbose_pass()[0])
        tr = tracer.Tracer()
        runs, err = verbose_pass(tr)
        traced_passes.append(runs)
        m = tracer.layer_metrics(tr.spans)
        checks = tracer.check_seconds(err)
        for c in tracer.CHECKS:
            m[f"cli.check.{c}_s"] = checks.get(c, 0.0)
        m["cli.report_bytes"] = sum(len(r.report) for r in runs)
        layer.append(m)
        spans[:] = tr.spans

    saved = os.environ.get("GC_THREADS")
    os.environ["GC_THREADS"] = "1"  # spans nest through one stack
    try:
        _warm_up(cli, work)
        _deadline_loop(seconds, pair)
    finally:
        if saved is None:
            os.environ.pop("GC_THREADS", None)
        else:
            os.environ["GC_THREADS"] = saved

    mismatched = sorted({a.name for p, q in zip(plain, traced_passes) for a, b in zip(p, q)
                         if a.report != b.report})
    wall = [sum(r.seconds for r in p) for p in plain]
    wall_traced = [sum(r.seconds for r in p) for p in traced_passes]
    metrics = {name: statistics.median(m[name] for m in layer)
               for name, _ in tracer.PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = statistics.median(wall_traced) / statistics.median(wall)
    runs = [r for p in plain + traced_passes for r in p]
    notes = {"pairs": len(plain), "untraced_wall_s": wall, "traced_wall_s": wall_traced,
             "report_mismatch": mismatched}
    return runs, metrics, spans, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, default=scenarios.DEV_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "greencurves" / "cli.py").is_file():
        print(f"error: no greencurves sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from greencurves import cli

    if Path(cli.__file__).resolve().parent != SRC / "greencurves":
        print(f"error: imported greencurves from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "scenarios").mkdir(parents=True)
    batch = scenarios.make_batch(args.workload, args.seed, SRC / "greencurves" / "scenarios")
    files = []
    for sc in batch:
        path = work / "scenarios" / f"{sc.name}.json"
        path.write_bytes(sc.data)
        files.append(path)
    digest = scenarios.batch_digest(batch)
    meta = metadata()
    if args.trace:
        meta["gc_threads"] = 1
    svg = args.workload in SVG_WORKLOADS

    measure = traced if args.trace else timed
    runs, metrics, spans, notes = measure(cli, batch, files, work, args.seconds, svg)
    failed = [r for r in runs if not r.verdict.ok]
    correct = not failed and not notes.get("report_mismatch")
    units = dict(tracer.PER_LAYER if args.trace else END_TO_END)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_sha256": digest, "scenarios": [sc.name for sc in batch],
        "metadata": meta, "notes": notes, "metrics": metrics,
        "runs": [{"name": r.name, "seconds": r.seconds, "ok": r.verdict.ok,
                  "reasons": r.verdict.reasons, "ratios": r.verdict.ratios} for r in runs],
    }
    shutil.rmtree(work, ignore_errors=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {digest}")
    print("metadata " + json.dumps(meta, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for r in failed:
        print(f"FAILED {r.name}: {'; '.join(r.verdict.reasons)}")
    if notes.get("report_mismatch"):
        print("FAILED traced report.json bytes differ: " + ", ".join(notes["report_mismatch"]))
    counts = {"wall_s": f"({notes.get('passes')} passes)",
              "scenario_s.p50": f"({notes.get('samples')} samples)",
              "setup_s": f"({SETUP_SPAWNS} processes)"} if not args.trace else {}
    print(f"  {'fail_frac':48s} {len(failed) / len(runs):.6g} ratio  ({len(failed)}/{len(runs)} runs)")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:.6g} {unit}  {counts.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
