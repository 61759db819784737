"""Benchmark of `cdeoh run`, end to end and layer by layer.

Usage (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload obp-evolve --seed 1 --seconds 30 --trace 0

It writes a seeded transcript and config for the workload (inputs.py), checks
the fitness checksum of the reference programs on the default suites, then
runs `cdeoh run` on them again and again, each time in a fresh interpreter
(child.py), for --seconds (and at least MIN_RUNS runs).
Every run's outputs are checked against goldens (check.py).

--trace 0 reports the end-to-end metrics, medians over the runs.  --trace 1
alternates untraced and traced runs and reports the per-layer metrics of the
traced runs (layers.py); the untraced runs give the tracing overhead.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The command exits 1 when any
output check fails and 2 when the checkout holds no cdeoh sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

import check
import inputs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_RUNS = 2
RUN_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("candidates_per_s", "1/s"),
    ("sample_ms_p50", "ms"), ("sample_ms_p95", "ms"), ("peak_rss_mb", "MB"),
)


@dataclass
class Run:
    traced: bool
    rc: int
    wall_s: float
    rss_mb: float
    marks: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    events_bytes: int = 0
    best: dict | None = None
    errors: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.errors

    @property
    def operations(self) -> int:
        """Provider calls (generation samples plus one category induction per
        added candidate) and evaluation attempts."""
        samples = sum(1 for e in self.events if e["event"] == "sample")
        evaluations = [e for e in self.events if e["event"] == "evaluation"]
        added = sum(1 for e in evaluations if "candidate_id" in e["payload"])
        return max(1, samples + added + len(evaluations))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # numpy's thread pools would be extra threads
    return env


def spawn(spec: dict, directory: Path) -> tuple[int, float, float, float]:
    """Run child.py on `spec` in `directory`; return its exit code, start time
    (time.monotonic), wall time in s and peak RSS in MB."""
    directory.mkdir(parents=True, exist_ok=True)
    spec_path = directory / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with (directory / "child.log").open("w") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                cwd=directory, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(RUN_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_maxrss / 1024.0


def run_once(workload: inputs.Workload, seed: int, config: Path, directory: Path,
             traced: bool) -> Run:
    spec = {"mode": "run", "config": str(config), "src": str(SRC), "trace": traced,
            "result": str(directory / "result.json"), "spans": str(directory / "spans.npz"),
            "latency": dict(workload.latency, seed=seed) if workload.latency else None}
    rc, start, wall, rss = spawn(spec, directory)
    run = Run(traced=traced, rc=rc, wall_s=wall, rss_mb=rss)
    if rc != 0:
        last = (directory / "child.log").read_text(errors="replace").strip().splitlines()[-1:]
        run.errors.append(f"cdeoh run exited {rc}: {' '.join(last)}")
        return run
    result = json.loads((directory / "result.json").read_text())
    run.marks = {k: v - start for k, v in result["marks"].items()}
    (run_dir,) = (directory / "runs").iterdir()
    events_path = run_dir / "events.jsonl"
    run.events_bytes = events_path.stat().st_size
    run.events = [json.loads(line) for line in events_path.read_text().splitlines() if line]
    run.best = json.loads((run_dir / "best.json").read_text())
    return run


def sample_gaps_ms(events: list[dict]) -> list[float]:
    """Time per provider generation call as the user sees it: the gap between
    consecutive `sample` events, the last one running to the final summary."""
    ts = [datetime.fromisoformat(e["ts"]).timestamp() for e in events if e["event"] == "sample"]
    ends = [datetime.fromisoformat(e["ts"]).timestamp()
            for e in events if e["event"] == "generation-summary"]
    stamps = ts + ends[-1:]
    return [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]


def end_to_end(run: Run) -> dict[str, float]:
    loop = run.marks["run_exit"] - run.marks["run_enter"]
    gaps = sample_gaps_ms(run.events)
    cuts = statistics.quantiles(gaps, n=100)
    return {
        "wall_s": run.wall_s,
        "setup_s": run.marks["run_enter"],
        "candidates_per_s": sum(1 for e in run.events if e["event"] == "evaluation") / loop,
        "sample_ms_p50": statistics.median(gaps),
        "sample_ms_p95": cuts[94],
        "peak_rss_mb": run.rss_mb,
        "samples": len(gaps),
    }


def machine() -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"
            f" numpy={np.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "cdeoh" / "__init__.py").is_file():
        print(f"error: no cdeoh sources under {SRC}", file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    goldens = check.load_goldens()
    work = HERE / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(workload, args.seed, args.seconds, bool(args.trace), goldens, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload: inputs.Workload, seed: int, seconds: float, trace: bool,
            goldens: dict, work: Path) -> int:
    print(f"machine: {machine()}")
    print(f"workload {workload.name} seed {seed}: suite {json.dumps(workload.suite)},"
          f" latency {workload.latency}")
    config, entries = inputs.write_inputs(workload, seed, work / "inputs")
    mismatches: list[str] = []

    spec = {"mode": "checksum", "src": str(SRC), "result": str(work / "checksum" / "result.json")}
    rc, _, wall, _ = spawn(spec, work / "checksum")
    if rc != 0:
        mismatches.append(f"checksum run exited {rc}")
    else:
        fitness = json.loads(Path(spec["result"]).read_text())["fitness"]
        for key, want in goldens["checksum"].items():
            if fitness.get(key) != want:
                mismatches.append(f"checksum {key}: {fitness.get(key)} != golden {want}")
    print(f"checksum of the reference programs on the default suites: {wall:.1f} s,"
          f" {'mismatch' if mismatches else 'ok'}")

    runs: list[Run] = []
    begin = time.monotonic()
    # Start another run only if a run of median length still ends within the window.
    while len(runs) < MIN_RUNS or (time.monotonic() - begin
                                   + statistics.median(r.wall_s for r in runs) <= seconds):
        traced = trace and len(runs) % 2 == 1
        directory = work / f"run{len(runs):02d}"
        run = run_once(workload, seed, config, directory, traced)
        if run.rc == 0:
            run.errors += check.check_run(run.events, run.best, entries,
                                          goldens["fitness"][workload.name])
        if run.ok and traced:
            spans = layers.Spans(directory / "spans.npz")
            run.layer = layers.layer_metrics(spans, run.events, run.events_bytes)
            print(f"run {len(runs)} (traced) largest self times in EvolutionEngine.run: "
                  + ", ".join(f"{name} {share:.1%}" for name, share in layers.top_spans(spans)))
        runs.append(run)
        shutil.rmtree(directory / "runs", ignore_errors=True)
    measured = time.monotonic() - begin

    digests = {check.digest(r.events, r.best) for r in runs if r.ok}
    want = goldens["digests"].get(workload.name, {}).get(str(seed))
    if len(digests) > 1:
        mismatches.append(f"runs of one seed disagree: {len(digests)} different output digests")
    if want is not None and digests and digests != {want}:
        mismatches.append(f"output digest differs from the golden of seed {seed}")
    for i, r in enumerate(runs):
        for error in r.errors[:5]:
            print(f"run {i}: {error}", file=sys.stderr)
    for mismatch in mismatches:
        print(f"error: {mismatch}", file=sys.stderr)

    attempted = sum(r.operations for r in runs)
    failed = attempted if mismatches else sum(r.operations for r in runs if not r.ok)
    correct = not mismatches and all(r.ok for r in runs)
    print(f"{len(runs)} runs in {measured:.1f} s; output check "
          f"{'ok' if correct else 'FAILED'}; digest golden "
          f"{'compared' if want else 'not recorded for this seed'}")
    print(f"ops_failed_frac = {failed / attempted:.4f} ({failed} of {attempted} provider calls"
          " and evaluations)")

    print("wall_s per run: " + ", ".join(f"{r.wall_s:.3f}{' (traced)' if r.traced else ''}"
                                         for r in runs))
    plain = [end_to_end(r) for r in runs if r.ok and not r.traced]
    summary = {name: statistics.median(m[name] for m in plain) for name, _ in END_TO_END} \
        if plain else {}
    for name, unit in END_TO_END:
        if name in summary:
            detail = f" (n={plain[0]['samples']} samples per run)" if name.startswith("sample_") else ""
            print(f"{name} = {summary[name]:.6g} {unit}, median of {len(plain)} runs{detail}")

    if trace:
        traced_runs = [r.layer for r in runs if r.layer]
        metrics = {name: statistics.median(m[name] for m in traced_runs)
                   for name, _ in layers.METRICS if name != "trace.overhead_frac"} \
            if traced_runs else {}
        if traced_runs and plain:
            traced_wall = statistics.median(r.wall_s for r in runs if r.layer)
            metrics["trace.overhead_frac"] = (traced_wall - summary["wall_s"]) / summary["wall_s"]
        units = dict(layers.METRICS)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    else:
        metrics, units = summary, dict(END_TO_END)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
