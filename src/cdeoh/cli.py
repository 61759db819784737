"""Operational shell: config loading, run persistence, baselines,
deterministic replay and report generation.

Run directories contain: config.json (verbatim snapshot), transcript.jsonl
(copied for scripted runs), events.jsonl (append-only event stream),
population_gen*.json snapshots, best.json and summary.csv; `cdeoh report`
adds report.csv and report.md.  The snapshots, best.json, summary.csv and
report.* are all written from `RunState.from_events` over events.jsonl, the
fold the engine also keeps while it runs; `EvolutionEngine.run()` returns
the best Candidate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import shutil
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TextIO, get_type_hints

import numpy as np

from cdeoh import dsl, jsonio, llm, problems
from cdeoh.evolution import (PAYLOADS, BudgetExhaustedError, EvolutionConfig, EvolutionEngine,
                             RunState, check_payload)
from cdeoh.llm import ProviderConfig, ProviderError
from cdeoh.problems import BenchmarkSuite, CandidateFailure


class ConfigError(Exception):
    pass


# --------------------------------------------------------------------------
# Config loading (unknown keys are hard errors)
# --------------------------------------------------------------------------

_TOP_KEYS = {"task", "suite", "evolution", "provider", "output_dir"}
_JSON_KEYS = {"lambda_weight": "lambda"}  # field name -> config key, where they differ


@dataclass(frozen=True)
class ObpSuiteConfig:
    sizes: tuple[int, ...] = (1000,)
    capacities: tuple[int, ...] = (100,)
    seeds: tuple[int, ...] = problems.DEFAULT_OBP_SEEDS
    weibull_shape: float = 3.0
    weibull_scale: float = 45.0

    def build(self) -> BenchmarkSuite:
        return problems.make_obp_suite(self.sizes, self.capacities, self.seeds,
                                       self.weibull_shape, self.weibull_scale)


@dataclass(frozen=True)
class TspSuiteConfig:
    sizes: tuple[int, ...] = (50,)
    seeds: tuple[int, ...] = problems.DEFAULT_TSP_SEEDS
    mode: str = "uniform"

    def build(self) -> BenchmarkSuite:
        return problems.make_tsp_suite(self.sizes, self.seeds, self.mode)


_SUITE_CONFIGS = {"obp": ObpSuiteConfig, "tsp": TspSuiteConfig}


def _typed_section(cls, name: str, section):
    """`cls` built from a config object whose keys and value types are its fields'."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    fields = {_JSON_KEYS.get(f, f): (f, hint) for f, hint in get_type_hints(cls).items()}
    unknown = set(section) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, value in section.items():
        field, hint = fields[key]
        if not jsonio.has_type(hint, value):
            raise ConfigError(f"{name}.{key} must be {jsonio.type_name(hint)}")
        kwargs[field] = tuple(value) if type(value) is list else value
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"invalid {name} config: {e}") from e


@dataclass
class RunConfig:
    task: str
    suite: ObpSuiteConfig | TspSuiteConfig
    evolution: EvolutionConfig
    provider: ProviderConfig
    output_dir: str
    raw: dict  # the parsed file, snapshotted verbatim into the run dir


def build_suite(task: str, section: dict) -> BenchmarkSuite:
    """The suite a config's `suite` object describes for `task`."""
    return _typed_section(_SUITE_CONFIGS[task], "suite", section).build()


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = jsonio.read_object(path, "config file")
    except ValueError as e:
        raise ConfigError(str(e)) from None
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown key(s) in config: {', '.join(sorted(unknown))}")

    task = data.get("task")
    if task not in problems.TASKS:
        raise ConfigError(f"task must be one of {problems.TASKS}, got {task!r}")
    suite = _typed_section(_SUITE_CONFIGS[task], "suite", data.get("suite", {}))
    evolution = _typed_section(EvolutionConfig, "evolution", data.get("evolution", {}))
    provider = _typed_section(ProviderConfig, "provider", data.get("provider", {}))
    if provider.provider == "scripted":
        # transcript paths are resolved relative to the config file
        provider.transcript_path = str(path.parent / provider.transcript_path)

    output_dir = data.get("output_dir", "runs")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    return RunConfig(task=task, suite=suite, evolution=evolution, provider=provider,
                     output_dir=output_dir, raw=data)


# --------------------------------------------------------------------------
# Run log
# --------------------------------------------------------------------------

class RunLogWriter:
    """Single serialized writer of the event stream; replay leaves out `ts`."""

    def __init__(self, fh: TextIO, timestamps: bool = True):
        self.seq = 0
        self._fh = fh
        self._timestamps = timestamps

    def emit(self, event: str, payload: dict) -> None:
        assert event in PAYLOADS, event
        record = {"seq": self.seq, "event": event, "payload": payload}
        if self._timestamps:
            record["ts"] = datetime.now(timezone.utc).isoformat()
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self.seq += 1


def parse_events(text: str, source: str) -> list[dict]:
    """The events of `text`, each checked against its declared payload
    (`evolution.PAYLOADS`) and by folding it; ValueError naming the line."""
    events = []
    state = RunState()
    for where, event in jsonio.json_lines(text, source):
        if not (isinstance(event, dict) and isinstance(event.get("event"), str)
                and event["event"] in PAYLOADS and isinstance(event.get("payload"), dict)):
            raise ValueError(f"{where}: not an event: want an object with an"
                             f" `event` of {', '.join(PAYLOADS)} and an object `payload`")
        try:
            check_payload(event["event"], event["payload"])
            state.apply(event["event"], event["payload"])
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        events.append(event)
    return events


def read_events(path: Path) -> list[dict]:
    return parse_events(jsonio.read_text(path, "events file"), str(path))


def strip_timestamps(events) -> list[dict]:
    return [{k: v for k, v in e.items() if k != "ts"} for e in events]


# --------------------------------------------------------------------------
# Summary derivation (pure function of the event stream's fold)
# --------------------------------------------------------------------------

SUMMARY_COLUMNS = ("generation", "samples_used", "cumulative_samples", "offspring_added",
                   "best_fitness", "best_gap_percent", "new_categories", "category_histogram")


def summary_rows(state: RunState) -> list[dict]:
    rows = []
    for p in state.summaries:
        rows.append({
            "generation": p["generation"],
            "samples_used": p["samples_used"],
            "cumulative_samples": p["cumulative_samples"],
            "offspring_added": p["offspring_added"],
            "best_fitness": repr(float(p["best_fitness"])),
            "best_gap_percent": repr(-float(p["best_fitness"])),
            "new_categories": ";".join(p["new_categories"]),
            "category_histogram": json.dumps(p["category_histogram"], sort_keys=True),
        })
    return rows


def write_summary_csv(path: Path, state: RunState) -> None:
    with path.open("w", newline="", errors="replace") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(summary_rows(state))


# --------------------------------------------------------------------------
# cdeoh run
# --------------------------------------------------------------------------

def _fresh_run_dir(output_dir: Path) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d_%H%M%S")
    base = output_dir / f"run_{stamp}"
    path, n = base, 1
    while path.exists():
        n += 1
        path = Path(f"{base}_{n}")
    try:
        path.mkdir(parents=True)
    except OSError as e:
        raise ValueError(f"cannot create run directory under {output_dir}:"
                         f" {e.strerror or e}") from None
    return path


def _write_results(run_dir: Path) -> RunState:
    """Population snapshots of every completed generation, best.json when a
    candidate exists, and summary.csv: the fold of the events written so far."""
    state = RunState.from_events(read_events(run_dir / "events.jsonl"))
    for gen, members in enumerate(state.populations):
        snapshot = [c.__dict__ for c in members]
        (run_dir / f"population_gen{gen:03d}.json").write_text(
            json.dumps(snapshot, indent=2, sort_keys=True))
    best = state.best
    if best is not None:
        (run_dir / "best.json").write_text(json.dumps(
            {"thought": best.thought, "code": best.code,
             "category": best.category, "fitness": best.fitness},
            indent=2, sort_keys=True))
    write_summary_csv(run_dir / "summary.csv", state)
    return state


def cmd_run(config_path: str) -> int:
    try:
        cfg = load_run_config(config_path)
        suite = cfg.suite.build()
        provider = llm.make_provider(cfg.provider)
        run_dir = _fresh_run_dir(Path(cfg.output_dir))
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    (run_dir / "config.json").write_text(json.dumps(cfg.raw, indent=2, sort_keys=True))
    if cfg.provider.provider == "scripted":
        shutil.copy(cfg.provider.transcript_path, run_dir / "transcript.jsonl")

    try:
        with (run_dir / "events.jsonl").open("w") as fh:
            EvolutionEngine(cfg.evolution, provider, suite, log=RunLogWriter(fh).emit).run()
    except (BudgetExhaustedError, ProviderError, ValueError) as e:
        # An aborted run still leaves what it evaluated before the error.
        _write_results(run_dir)
        print(f"run dir: {run_dir}")
        print(f"error: {e}", file=sys.stderr)
        return 1

    state = _write_results(run_dir)
    best = state.best
    print(f"run dir: {run_dir}")
    print(f"samples used: {state.samples}")
    fitness, gap = best.fitness + 0.0, -best.fitness + 0.0  # + 0.0 turns -0.0 into 0.0
    print(f"best fitness: {fitness:.6f} (gap {gap:.6f}%) category: {best.category}")
    return 0


# --------------------------------------------------------------------------
# cdeoh evaluate / bench
# --------------------------------------------------------------------------

def _suite_from_args(args) -> BenchmarkSuite:
    if args.suite_file:
        return problems.load_suite(args.suite_file)
    if args.task is None:
        raise ConfigError("--task obp|tsp is required (or --suite-file)")
    options = {"sizes": args.sizes, "capacities": args.capacities,
               "seeds": args.seeds, "mode": args.mode}
    return build_suite(args.task, {k: v for k, v in options.items() if v is not None})


def _load_heuristic_code(path: Path) -> str:
    """The `code` of a best.json-shaped file, else the file's text."""
    text = jsonio.read_text(path, "heuristic file")
    try:
        data = jsonio.decode(text, str(path))
    except ValueError:
        return text
    if not (isinstance(data, dict) and "code" in data):
        return text
    jsonio.check_fields(data, {"code": str}, str(path))
    return data["code"]


def _format_table(headers, rows) -> str:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def cmd_evaluate(args) -> int:
    try:
        code = _load_heuristic_code(Path(args.heuristic))
        suite = _suite_from_args(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        program = dsl.parse(code, problems.input_signature(suite.task))
    except dsl.ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        report = problems.evaluate_candidate(suite, program)
    except CandidateFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    rows = [(label, f"{r.raw_metric:.6g}", f"{r.reference:.6g}", f"{r.gap_percent:.4f}")
            for label, r in zip(suite.labels, report.per_instance)]
    rows.append(("mean", f"{report.raw_metric:.6g}", f"{report.reference:.6g}",
                 f"{report.gap_percent:.4f}"))
    print(_format_table(("instance", "metric", "reference", "gap_percent"), rows))
    print()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("instance", "metric", "reference", "gap_percent"))
    writer.writerows(rows)
    print(buf.getvalue().rstrip("\n"))
    return 0


def cmd_bench(args) -> int:
    try:
        suite = _suite_from_args(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if suite.task == "obp":
        baselines = {
            "first-fit": lambda inst: problems.first_fit_bin_count(inst.items, inst.capacity),
            "best-fit": lambda inst: problems.best_fit_bin_count(inst.items, inst.capacity),
        }
        reference = problems.obp_lower_bound
    else:
        baselines = {
            "nearest-neighbor": lambda inst: problems.tour_length(
                inst, problems.nearest_neighbor_tour(inst)),
            "nn+2opt (reference)": lambda inst: problems.tsp_reference(inst),
        }
        reference = problems.tsp_reference

    settings = sorted(set(suite.labels), key=suite.labels.index)
    rows = []
    for name, run in baselines.items():
        gaps_by_setting = {s: [] for s in settings}
        for inst, label in zip(suite.instances, suite.labels):
            ref = reference(inst)
            gaps_by_setting[label].append(100.0 * (run(inst) - ref) / ref)
        rows.append([name] + [f"{np.mean(gaps_by_setting[s]):.4f}" for s in settings])
    print(_format_table(["baseline"] + [f"{s} gap%" for s in settings], rows))
    return 0


# --------------------------------------------------------------------------
# cdeoh replay / report
# --------------------------------------------------------------------------

def _replay_events(run_dir: Path) -> list[dict]:
    cfg = load_run_config(run_dir / "config.json")
    transcript = run_dir / "transcript.jsonl"
    if cfg.provider.provider != "scripted":
        raise ConfigError("replay requires a scripted-provider run")
    if transcript.exists():
        cfg.provider.transcript_path = str(transcript)
    buf = io.StringIO()
    provider = llm.make_provider(cfg.provider)
    engine = EvolutionEngine(cfg.evolution, provider, cfg.suite.build(),
                             log=RunLogWriter(buf, timestamps=False).emit)
    engine.run()
    return parse_events(buf.getvalue(), "replayed events")


def cmd_replay(run_dir_arg: str) -> int:
    run_dir = Path(run_dir_arg)
    try:
        recorded = strip_timestamps(read_events(run_dir / "events.jsonl"))
        replayed = _replay_events(run_dir)
    except (ConfigError, BudgetExhaustedError, ProviderError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for i, (a, b) in enumerate(zip(recorded, replayed)):
        if a != b:
            print(f"divergence at seq {i}", file=sys.stderr)
            return 1
    if len(recorded) != len(replayed):
        print(f"divergence at seq {min(len(recorded), len(replayed))}", file=sys.stderr)
        return 1
    print(f"replay ok: {len(recorded)} events match")
    return 0


def cmd_report(run_dir_arg: str) -> int:
    run_dir = Path(run_dir_arg)
    try:
        state = RunState.from_events(read_events(run_dir / "events.jsonl"))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not state.summaries:
        print("error: incomplete run: no generation summaries logged", file=sys.stderr)
        return 2
    write_summary_csv(run_dir / "report.csv", state)

    best = state.best
    lines = [
        "# Run report",
        "",
        f"Best candidate: id {best.id}, category `{best.category}`,"
        f" fitness {best.fitness:.6f} (mean gap {-best.fitness:.6f}%)",
        "",
        "## Thought",
        "",
        best.thought,
        "",
        "## Code",
        "",
        "```",
        best.code,
        "```",
        "",
        "## Per-setting gaps of the best candidate",
        "",
    ]
    try:
        labels = load_run_config(run_dir / "config.json").suite.build().labels
    except (ConfigError, ValueError):  # no config, or one whose suite does not build
        labels = None
    gaps = state.instance_gaps[best.id]
    if labels and len(labels) == len(gaps):
        per_setting: dict[str, list[float]] = {}
        for label, gap in zip(labels, gaps):
            per_setting.setdefault(label, []).append(gap)
        for label in dict.fromkeys(labels):
            lines.append(f"- {label}: {np.mean(per_setting[label]):.4f}%")
    else:
        for i, gap in enumerate(gaps):
            lines.append(f"- instance {i}: {gap:.4f}%")
    lines += ["", "## Best-gap trajectory", ""]
    for row in summary_rows(state):
        lines.append(f"- generation {row['generation']}: best gap {row['best_gap_percent']}%"
                     f" ({row['cumulative_samples']} samples)")
    (run_dir / "report.md").write_text("\n".join(lines) + "\n", errors="replace")
    print(f"wrote {run_dir / 'report.csv'} and {run_dir / 'report.md'}")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _add_suite_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", choices=problems.TASKS)
    parser.add_argument("--sizes", type=int, nargs="+",
                        help="OBP item counts / TSP city counts")
    parser.add_argument("--capacities", type=int, nargs="+", help="OBP bin capacities")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--mode", choices=("uniform", "gaussian-mixture"),
                        help="TSP coordinate distribution")
    parser.add_argument("--suite-file", help="JSON suite file (overrides generated instances)")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdeoh",
        description="Evolve priority-function heuristics with category-diverse selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an evolution from a JSON config")
    p_run.add_argument("config")

    p_eval = sub.add_parser("evaluate", help="evaluate a heuristic file on a suite")
    p_eval.add_argument("heuristic", help="best.json-shaped file or raw program text")
    _add_suite_args(p_eval)

    p_bench = sub.add_parser("bench", help="print baseline gap tables")
    _add_suite_args(p_bench)

    p_replay = sub.add_parser("replay", help="re-execute a scripted run and compare events")
    p_replay.add_argument("run_dir")

    p_report = sub.add_parser("report", help="write report.csv and report.md for a run")
    p_report.add_argument("run_dir")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "evaluate":
        return cmd_evaluate(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "replay":
        return cmd_replay(args.run_dir)
    if args.command == "report":
        return cmd_report(args.run_dir)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
