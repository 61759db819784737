import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from cdeoh import cli, dsl, evolution, llm, problems
from cdeoh.cli import (
    SUMMARY_COLUMNS,
    ConfigError,
    ObpSuiteConfig,
    load_run_config,
    main,
    read_events,
    strip_timestamps,
    summary_rows,
)
from cdeoh.evolution import RunState
from cdeoh.llm import wrap_generation

from conftest import (
    BROKEN_CODE_RESPONSE,
    LADDER_CAPACITY,
    LADDER_ITEMS,
    TranscriptBuilder,
    ladder_response,
)
from test_evolution import three_gen_transcript
from test_llm import MALFORMED_TRANSCRIPT_LINES


def write_run_config(tmp_path: Path, transcript: TranscriptBuilder, **overrides) -> Path:
    transcript.write(tmp_path / "transcript.jsonl")
    cfg = {
        "task": "obp",
        # one tiny deterministic instance: unit items, capacity 6
        "suite": {"sizes": [LADDER_ITEMS], "capacities": [LADDER_CAPACITY], "seeds": [1]},
        "evolution": {"population_size": 2, "elite_categories": 2, "lambda": 0.7,
                      "max_samples": 100, "max_generations": 3, "rng_seed": 0},
        "provider": {"provider": "scripted", "transcript_path": "transcript.jsonl"},
        "output_dir": str(tmp_path / "runs"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key] = {**cfg.get(key, {}), **value}
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def single_run_dir(tmp_path: Path) -> Path:
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) >= 1
    return runs[-1]


# ---------------------------------------------------------------- config

def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"task": "obp", "lamda": 0.7}))
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(p)
    p.write_text(json.dumps({"task": "obp", "evolution": {"lamda": 0.7}}))
    with pytest.raises(ConfigError, match="lamda"):
        load_run_config(p)


def test_config_invalid_lambda_fails_before_any_provider(tmp_path):
    cfg_path = write_run_config(tmp_path, three_gen_transcript(),
                                evolution={"lambda": -1})
    # break the transcript so any provider construction would explode
    (tmp_path / "transcript.jsonl").unlink()
    assert main(["run", str(cfg_path)]) == 2
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("section", ["evolution", "provider", "suite"])
@pytest.mark.parametrize("value", [5, "ab", [["population_size", 3]]])
def test_config_section_must_be_an_object(tmp_path, section, value):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    cfg = json.loads(cfg_path.read_text())
    cfg[section] = value
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=f"^{section} must be an object$"):
        load_run_config(cfg_path)
    assert main(["run", str(cfg_path)]) == 2
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("task, section, key, value, message", [
    ("obp", "suite", "sizes", 5, "suite.sizes must be a non-empty list of integers"),
    ("obp", "suite", "capacities", ["x"], "suite.capacities must be a non-empty list of integers"),
    ("obp", "suite", "seeds", [1.5], "suite.seeds must be a non-empty list of integers"),
    ("obp", "suite", "seeds", [], "suite.seeds must be a non-empty list of integers"),
    ("obp", "suite", "sizes", [True], "suite.sizes must be a non-empty list of integers"),
    ("obp", "suite", "weibull_shape", "3", "suite.weibull_shape must be a number"),
    ("obp", "suite", "weibull_scale", None, "suite.weibull_scale must be a number"),
    ("tsp", "suite", "mode", 1, "suite.mode must be a string"),
    ("obp", "provider", "max_prompt_bytes", 10,
     "invalid provider config: max_prompt_bytes must be >= 256"),
    ("obp", "provider", "retry_backoff_s", -1,
     "invalid provider config: retry_backoff_s must be >= 0"),
    ("obp", "evolution", "rng_seed", "x", "evolution.rng_seed must be an integer"),
    ("obp", "evolution", "enable_reflection", "no", "evolution.enable_reflection must be a boolean"),
    ("obp", "evolution", "max_samples", 1.5, "evolution.max_samples must be an integer"),
    ("obp", "evolution", "max_generations", 2.5,
     "evolution.max_generations must be an integer or null"),
    ("obp", "evolution", "population_size", True, "evolution.population_size must be an integer"),
    ("obp", "evolution", "lambda", float("nan"), "evolution.lambda must be a number"),
    ("obp", "provider", "transcript_path", 5, "provider.transcript_path must be a string or null"),
    ("obp", "provider", "temperature", "hot", "provider.temperature must be a number"),
    ("obp", "provider", "max_retries", 2.5, "provider.max_retries must be an integer"),
    ("obp", "suite", "weibull_scale", float("inf"), "suite.weibull_scale must be a number"),
])
def test_config_value_that_breaks_callers_exits_2(tmp_path, capsys, task, section, key, value,
                                                  message):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    cfg = json.loads(cfg_path.read_text())
    cfg["task"] = task
    if section == "suite":
        cfg["suite"] = {"sizes": [10], "seeds": [1]}
    cfg[section][key] = value
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_run_config(cfg_path)
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("capacity", [2**53 + 1, 10**400])
def test_suite_that_cannot_be_generated_exits_2(tmp_path, capsys, capacity):
    cfg_path = write_run_config(tmp_path, three_gen_transcript(), suite={"capacities": [capacity]})
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: capacity must lie in [2, {2**53}]\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config file {path}: Is a directory"),
    ("[" * 100_000, "config file {path} is not valid JSON: maximum recursion depth exceeded"),
    (b'{"task": "obp\xff"}', "config file {path} is not UTF-8 text"),
], ids=["directory", "nested-too-deep", "not-utf-8"])
def test_unreadable_config_is_one_line_and_exit_2(tmp_path, capsys, content, message):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    for path in (cfg_path, run_dir / "config.json"):
        path.unlink()
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(ConfigError, match=f"^{re.escape(message.format(path=path))}"):
            load_run_config(path)
    capsys.readouterr()
    for command, arg in (("run", cfg_path), ("replay", run_dir)):
        assert main([command, str(arg)]) == 2
        err = capsys.readouterr().err
        want = message.format(path=arg if command == "run" else run_dir / "config.json")
        assert err.startswith(f"error: {want}") and err.count("\n") == 1, (command, err)
    assert main(["report", str(run_dir)]) == 0  # the report lists gaps per instance instead


def test_config_bad_task(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"task": "sudoku"}))
    with pytest.raises(ConfigError, match="task"):
        load_run_config(p)


def test_config_relative_transcript_resolved(tmp_path):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    cfg = load_run_config(cfg_path)
    assert Path(cfg.provider.transcript_path).is_absolute()
    assert Path(cfg.provider.transcript_path).exists()


# ---------------------------------------------------------------- run

def test_cmd_run_writes_all_artifacts(tmp_path, capsys):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    assert "best fitness: 0.000000 (gap 0.000000%)" in capsys.readouterr().out
    run_dir = single_run_dir(tmp_path)
    for name in ("config.json", "events.jsonl", "best.json", "summary.csv",
                 "transcript.jsonl", "population_gen000.json", "population_gen003.json"):
        assert (run_dir / name).exists(), name
    best = json.loads((run_dir / "best.json").read_text())
    assert set(best) == {"thought", "code", "category", "fitness"}
    assert best["fitness"] == 0.0  # the T0 ladder program reaches the lower bound


def test_cmd_run_rerun_is_byte_identical_modulo_timestamps(tmp_path):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path)]) == 0
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == 2
    ev1 = strip_timestamps(read_events(runs[0] / "events.jsonl"))
    ev2 = strip_timestamps(read_events(runs[1] / "events.jsonl"))
    assert ev1 == ev2
    assert (runs[0] / "summary.csv").read_text() == (runs[1] / "summary.csv").read_text()
    assert (runs[0] / "best.json").read_text() == (runs[1] / "best.json").read_text()


# With vectors capped at 8, the always-new-bin program fails on instance 1 (at
# 11 feasible bins) and on instance 2 (at 9); the late one only on instance 2.
ALWAYS_NEW_BIN = "return log(0 - cap_remaining)"
NEW_BIN_FOR_SMALL_ITEMS = "return where((item < 5), log(0 - cap_remaining), 0 - bin_index)"
SCALAR_PRIORITY = "return item - 1"  # parses, but `bind` rejects a scalar priority


def artifacts_on_any_workers(tmp_path: Path, monkeypatch, cfg_path: Path, largest: int) -> dict:
    """The artifacts of `cdeoh run` on `cfg_path`, whose suite's largest instance
    has `largest` steps: scored on the caller, and the same on 1, the default
    and 3 simulation workers.  Artifacts are the events minus `ts`, best.json,
    summary.csv and the population snapshots."""
    fork, forks = os.fork, []

    def counting_fork():
        forks.append(None)
        return fork()

    def artifacts(workers: int) -> dict:
        forks.clear()
        assert main(["run", str(cfg_path)]) == 0
        assert len(forks) == workers  # the worker processes, forked or not
        run_dir = single_run_dir(tmp_path)
        files = {p.name: p.read_text() for p in run_dir.iterdir()
                 if p.name in ("best.json", "summary.csv") or p.name.startswith("population_gen")}
        assert len(files) == 5  # best.json, summary.csv and generations 0-2
        return {"events": strip_timestamps(read_events(run_dir / "events.jsonl")), **files}

    monkeypatch.setattr(os, "fork", counting_fork)
    assert largest < evolution.WORKER_MIN_STEPS
    want = artifacts(0)
    monkeypatch.setattr(evolution, "WORKER_MIN_STEPS", largest)  # now simulated on workers
    for workers in (1, evolution.SIM_WORKERS, 3):
        monkeypatch.setattr(evolution, "SIM_WORKERS", workers)
        assert artifacts(workers) == want, workers
    return want


def evaluations(events: list[dict]) -> tuple[list[str], dict[str, float]]:
    """The error of each failed evaluation, and the fitness of each code evaluated."""
    payloads = [e["payload"] for e in events if e["event"] == "evaluation"]
    return ([p["error"] for p in payloads if "error" in p],
            {p["code"]: p["fitness"] for p in payloads if "code" in p})


def test_cmd_run_artifacts_do_not_depend_on_the_number_of_simulation_workers(
        tmp_path, monkeypatch):
    suite = problems.BenchmarkSuite("obp", (
        problems.ObpInstance(capacity=6, items=(1,) * 5),
        problems.ObpInstance(capacity=10, items=(7, 7, 3) * 6),
        problems.ObpInstance(capacity=10, items=(3,) * 10)), ("small", "773", "3s"))
    monkeypatch.setattr(dsl, "MAX_VECTOR_LENGTH", 8)
    monkeypatch.setattr(ObpSuiteConfig, "build", lambda self: suite)
    sig = problems.input_signature("obp")
    failures = {}
    for code in (ALWAYS_NEW_BIN, NEW_BIN_FOR_SMALL_ITEMS, SCALAR_PRIORITY):
        with pytest.raises(problems.CandidateFailure) as e:
            problems.evaluate_candidate(suite, dsl.parse(code, sig))
        failures[code] = str(e.value)
    assert "length 11" in failures[ALWAYS_NEW_BIN]  # the text of instance 1, not of 2
    assert "length 9" in failures[NEW_BIN_FOR_SMALL_ITEMS]
    assert "got a scalar" in failures[SCALAR_PRIORITY]  # fails at `bind`

    tb = TranscriptBuilder()
    tb.add_many("initialization", [ladder_response(0), wrap_generation("late", NEW_BIN_FOR_SMALL_ITEMS),
                                   wrap_generation("new", ALWAYS_NEW_BIN)])
    tb.add_many("refinement", [ladder_response(0, thought="again"), BROKEN_CODE_RESPONSE,
                               ladder_response(3), wrap_generation("new", ALWAYS_NEW_BIN),
                               ladder_response(1), ladder_response(4)])
    tb.add_many("innovation", [wrap_generation("wf", "return cap_remaining - item"),
                               wrap_generation("late", NEW_BIN_FOR_SMALL_ITEMS),
                               ladder_response(5), wrap_generation("scalar", SCALAR_PRIORITY),
                               wrap_generation("ff", "return 0 - bin_index"), BROKEN_CODE_RESPONSE])
    tb.add_many("reflection", [ladder_response(2), BROKEN_CODE_RESPONSE,
                               wrap_generation("ff", "return   0 - bin_index"),
                               wrap_generation("new", ALWAYS_NEW_BIN), ladder_response(1)] * 4)
    tb.add_many("category-induction", ["greedy", "scan", "threshold", "spread"] * 10)
    cfg_path = write_run_config(tmp_path, tb, evolution={
        "population_size": 3, "elite_categories": 2, "max_generations": 2,
        "reflection_budget": 2})

    want = artifacts_on_any_workers(tmp_path, monkeypatch, cfg_path, largest=18)
    errors, fitness = evaluations(want["events"])
    assert set(failures.values()) <= set(errors)
    assert fitness["return 0 - bin_index"] == fitness["return   0 - bin_index"]
    outcomes = [e["payload"]["outcome"] for e in want["events"] if e["event"] == "reflection"]
    assert {"repaired", "failed"} <= set(outcomes)


def test_cmd_run_tsp_artifacts_do_not_depend_on_the_number_of_simulation_workers(
        tmp_path, monkeypatch):
    nearest = "return 0 - dist_to_current"
    tb = TranscriptBuilder()
    tb.add_many("initialization", [wrap_generation("nn", nearest),
                                   wrap_generation("frac", "return visited_fraction"),
                                   wrap_generation("home", "return dist_to_start - dist_to_current")])
    tb.add_many("refinement", [wrap_generation("nn", "return 0-dist_to_current"), BROKEN_CODE_RESPONSE,
                               wrap_generation("mean", "return mean_dist_remaining - dist_to_current"),
                               wrap_generation("nn", "return  0 -  dist_to_current")] * 2)
    tb.add_many("innovation", [wrap_generation("far", "return dist_to_current"),
                               wrap_generation("frac", "return visited_fraction * 2"),
                               wrap_generation("mix", "return 0 - dist_to_current * visited_fraction")] * 2)
    tb.add_many("reflection", [BROKEN_CODE_RESPONSE, wrap_generation("nn", nearest),
                               wrap_generation("frac", "return visited_fraction")] * 6)
    tb.add_many("category-induction", ["greedy", "scan", "threshold", "spread"] * 10)
    cfg_path = write_run_config(tmp_path, tb, task="tsp", evolution={
        "population_size": 3, "elite_categories": 2, "max_generations": 2,
        "reflection_budget": 2})
    cfg = json.loads(cfg_path.read_text())
    cfg_path.write_text(json.dumps({**cfg, "suite": {"sizes": [8, 12], "seeds": [1, 2]}}))

    want = artifacts_on_any_workers(tmp_path, monkeypatch, cfg_path, largest=12)
    errors, fitness = evaluations(want["events"])
    assert any("got a scalar" in error for error in errors)  # fails at `bind`
    assert any(error.startswith("parse error") for error in errors)
    outcomes = [e["payload"]["outcome"] for e in want["events"] if e["event"] == "reflection"]
    assert {"repaired", "failed"} <= set(outcomes)
    assert fitness[nearest] == fitness["return 0-dist_to_current"] == fitness[
        "return  0 -  dist_to_current"]


def test_cmd_run_budget_exhausted_is_nonzero(tmp_path):
    tb = TranscriptBuilder()  # empty transcript: first init call misses
    cfg_path = write_run_config(tmp_path, tb, evolution={"max_samples": 3})
    (tmp_path / "transcript.jsonl").write_text("")
    assert main(["run", str(cfg_path)]) == 1


def test_cmd_run_aborted_by_provider_error_writes_what_exists(tmp_path, capsys):
    # The initial population is evaluated and labelled, then the first
    # refinement call finds no transcript entry and ends the run.
    tb = TranscriptBuilder()
    tb.add_many("initialization", [ladder_response(3), ladder_response(4)])
    tb.add_many("category-induction", ["cat-a", "cat-b"])
    cfg_path = write_run_config(tmp_path, tb)
    assert main(["run", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: provider error [transcript-miss]")
    assert "kind='refinement' index=0" in err and len(err.splitlines()) == 1
    run_dir = single_run_dir(tmp_path)
    assert f"run dir: {run_dir}" in out
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "best.json", "config.json", "events.jsonl", "population_gen000.json",
        "summary.csv", "transcript.jsonl"]
    events = read_events(run_dir / "events.jsonl")
    population = json.loads((run_dir / "population_gen000.json").read_text())
    assert sorted(c["id"] for c in population) == [1, 2]
    want = RunState.from_events(events).best
    best = json.loads((run_dir / "best.json").read_text())
    assert best == {k: getattr(want, k) for k in ("thought", "code", "category", "fitness")}
    with (run_dir / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["generation"] for r in rows] == ["0"]
    assert rows[0]["best_fitness"] == repr(float(want.fitness))


def _reflecting_transcript() -> TranscriptBuilder:
    """three_gen_transcript with generation 2's first refinement broken and
    repaired by the second reflection."""
    tb = TranscriptBuilder()
    for kind, index, response in three_gen_transcript().entries:
        tb.add(kind, BROKEN_CODE_RESPONSE if (kind, index) == ("refinement", 2) else response)
    return tb.add_many("reflection", [BROKEN_CODE_RESPONSE, ladder_response(1)])


@pytest.mark.parametrize("missing, completed", [
    pytest.param(("initialization", 1), [], id="initialization"),
    pytest.param(("refinement", 1), [0], id="mid-generation"),
    pytest.param(("reflection", 1), [0, 1], id="reflection-loop"),
])
def test_aborted_run_artifacts_are_the_fold_of_its_events(tmp_path, capsys, missing,
                                                          completed):
    tb = _reflecting_transcript()
    tb.entries = [e for e in tb.entries if e[:2] != missing]  # later indices stay as they were
    assert main(["run", str(write_run_config(tmp_path, tb))]) == 1
    assert capsys.readouterr().err.startswith("error: provider error [transcript-miss]")
    run_dir = single_run_dir(tmp_path)
    events = read_events(run_dir / "events.jsonl")
    state = RunState.from_events(events)
    assert [s["generation"] for s in state.summaries] == completed
    assert (events[-1]["event"], events[-1]["payload"]["kind"]) == ("sample", missing[0])
    assert state.best is not None
    snapshots = sorted(run_dir.glob("population_gen*.json"))
    assert [p.name for p in snapshots] == [f"population_gen{s['generation']:03d}.json"
                                           for s in state.summaries]
    for path, members in zip(snapshots, state.populations):
        assert json.loads(path.read_text()) == [c.__dict__ for c in members]
    best = json.loads((run_dir / "best.json").read_text())
    assert best == {k: getattr(state.best, k) for k in ("thought", "code", "category", "fitness")}
    if state.summaries:
        assert main(["report", str(run_dir)]) == 0
        assert (run_dir / "report.csv").read_text() == (run_dir / "summary.csv").read_text()
    else:  # aborted during initialization: no generation to report
        assert main(["report", str(run_dir)]) == 2
        assert (run_dir / "summary.csv").read_text().splitlines() == [",".join(SUMMARY_COLUMNS)]
    capsys.readouterr()


def test_lone_surrogate_in_a_response_does_not_end_the_run(tmp_path, capsys):
    # Valid JSON can carry a lone surrogate; the prompts that quote the
    # response must still render, so the run samples on.
    tb = TranscriptBuilder()
    tb.add_many("initialization", [wrap_generation("idea", "return 0 - item # \ud800"),
                                   ladder_response(1)])
    tb.add_many("refinement", [ladder_response(2)] * 2)
    tb.add_many("innovation", [ladder_response(3)] * 2)
    tb.add_many("category-induction", ["greedy \ud800 scan"] + ["greedy"] * 5)
    cfg_path = write_run_config(tmp_path, tb, evolution={"max_generations": 1, "max_samples": 6})
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    events = read_events(run_dir / "events.jsonl")
    first = next(e for e in events if e["event"] == "evaluation")["payload"]
    assert first["code"] == "return 0 - item # \ud800" and first["category"] == "greedy ? scan"
    assert sum(e["event"] == "sample" for e in events) == 6
    assert main(["replay", str(run_dir)]) == 0
    assert main(["report", str(run_dir)]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------- replay

def test_cmd_replay_untouched_run(tmp_path):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    assert main(["replay", str(run_dir)]) == 0


def test_cmd_replay_detects_edited_fitness(tmp_path, capsys):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    edited = []
    target_seq = None
    for line in lines:
        obj = json.loads(line)
        if target_seq is None and obj["event"] == "evaluation" and "fitness" in obj["payload"]:
            obj["payload"]["fitness"] = obj["payload"]["fitness"] - 1.0
            target_seq = obj["seq"]
        edited.append(json.dumps(obj, sort_keys=True))
    (run_dir / "events.jsonl").write_text("\n".join(edited) + "\n")
    assert main(["replay", str(run_dir)]) == 1
    assert f"divergence at seq {target_seq}" in capsys.readouterr().err


def test_cmd_replay_missing_transcript(tmp_path):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    (run_dir / "transcript.jsonl").unlink()
    (tmp_path / "transcript.jsonl").unlink()
    assert main(["replay", str(run_dir)]) == 2


def test_replay_whose_transcript_lost_a_kind_is_one_line_and_exit_2(tmp_path, capsys):
    """A replay the scripted provider cannot answer is an unusable input (exit 2),
    not a divergence (exit 1)."""
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    transcript = run_dir / "transcript.jsonl"
    lines = transcript.read_text().splitlines()
    kept = [line for line in lines if json.loads(line)["kind"] != "initialization"]
    assert 0 < len(kept) < len(lines)
    transcript.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    assert main(["replay", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: provider error [transcript-miss]") and err.count("\n") == 1, err


@pytest.mark.parametrize("line, message", MALFORMED_TRANSCRIPT_LINES)
def test_malformed_transcript_line_is_one_line_and_exit_2(tmp_path, capsys, line, message):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    transcript = tmp_path / "transcript.jsonl"
    good = transcript.read_text()
    where = f"{len(good.splitlines()) + 1}: {message}"
    transcript.write_text(good + line + "\n")
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {transcript}:{where}") and err.count("\n") == 1, err
    assert not (tmp_path / "runs").exists()

    transcript.write_text(good)
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    (run_dir / "transcript.jsonl").write_text(good + line + "\n")
    capsys.readouterr()
    assert main(["replay", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_dir / 'transcript.jsonl'}:{where}") and err.count("\n") == 1, err


def test_cmd_replay_missing_events(tmp_path):
    assert main(["replay", str(tmp_path)]) == 2


_EVALUATION = {"generation": 0, "candidate_id": 1, "origin": "init", "parent_id": None,
               "category": "a", "fitness": -1.0, "gap_percent": 1.0, "instance_gaps": [1.0],
               "reflection_attempts": 0, "thought": "t", "code": "return item"}
_SUMMARY = {"generation": 0, "samples_used": 1, "cumulative_samples": 1, "offspring_added": 1,
            "best_fitness": -1.0, "best_candidate_id": 1, "new_categories": ["a"],
            "category_histogram": {"a": 1}}


def _event_line(event: str, payload: dict) -> str:
    return json.dumps({"seq": 0, "event": event, "payload": payload})


_NOT_AN_EVENT = {"number": "5", "list": "[]", "empty": "{}",
                 "unknown-event": '{"event": "nope", "payload": {}}',
                 "payload-not-object": '{"event": "sample", "payload": 5}',
                 "event-not-string": '{"event": ["sample"], "payload": {}}',
                 "evaluation-lacks-keys":
                     '{"seq": 0, "event": "evaluation", "payload": {"candidate_id": 1}}',
                 "summary-lacks-keys":
                     '{"seq": 0, "event": "generation-summary", "payload": {"generation": 0}}',
                 # A field of the wrong type.
                 "label-a-list": _event_line("category-new", {"label": ["a"], "generation": 0}),
                 "category-a-list": _event_line("evaluation", {**_EVALUATION, "category": ["a"]}),
                 "category-a-dict": _event_line("evaluation",
                                                {**_EVALUATION, "category": {"a": 1}}),
                 "candidate-id-a-string": _event_line("evaluation",
                                                      {**_EVALUATION, "candidate_id": "1"}),
                 "candidate-id-null": _event_line("evaluation",
                                                  {**_EVALUATION, "candidate_id": None}),
                 "thought-not-a-string": _event_line("evaluation", {**_EVALUATION, "thought": 5}),
                 "code-not-a-string": _event_line("evaluation",
                                                  {**_EVALUATION, "code": ["return item"]}),
                 "new-categories-a-number": _event_line("generation-summary",
                                                        {**_SUMMARY, "new_categories": 5}),
                 "summary-generation-a-string": _event_line("generation-summary",
                                                            {**_SUMMARY, "generation": "x"}),
                 "histogram-a-list": _event_line("generation-summary",
                                                 {**_SUMMARY, "category_histogram": [1]})}


@pytest.mark.parametrize("command, line, problem", [
    *(pytest.param(command, None, "invalid JSON", id=command) for command in ("replay", "report")),
    *(pytest.param(command, "[" * 100_000, "invalid JSON", id=f"{command}-nested-too-deep")
      for command in ("replay", "report")),
    *(pytest.param(command, line, "not an event", id=f"{command}-{name}")
      for command in ("replay", "report") for name, line in _NOT_AN_EVENT.items()),
])
def test_truncated_events_line_is_one_line_and_exit_2(tmp_path, capsys, command, line, problem):
    """A line cut short by a crash (line None), nested too deep for the JSON
    parser, or valid JSON that is not an event."""
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    events = single_run_dir(tmp_path) / "events.jsonl"
    text = events.read_text()
    if line is None:
        events.write_text(text[:-20])  # a run that crashed mid-line
        where = f"{events}:{text.count(chr(10))}: {problem}: "
    else:
        events.write_text(text + line + "\n")
        where = f"{events}:{text.count(chr(10)) + 1}: {problem}: "
    capsys.readouterr()
    assert main([command, str(events.parent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and err.count("\n") == 1, err


# Events that contradict the run before them (here: nothing), or whose
# fields break what the run before them folds to.
_INCONSISTENT_EVENT = {
    "lone-summary": {"event": "generation-summary", "payload": _SUMMARY},
    "selection-of-unknown-id": {"event": "selection",
                                "payload": {"generation": 1, "candidate_ids": [7],
                                            "selected_ids": [7]}},
    "fitness-not-a-number": {"event": "evaluation", "payload": {**_EVALUATION, "fitness": "x"}},
    "instance-gap-not-a-number": {"event": "evaluation",
                                  "payload": {**_EVALUATION, "instance_gaps": ["x", 1.0]}},
    # A list of events: the last one contradicts the ones before it.
    "best-fitness-not-a-number": [{"event": "evaluation", "payload": _EVALUATION},
                                  {"event": "generation-summary",
                                   "payload": {**_SUMMARY, "best_fitness": "x"}}],
    "unhashable-label": {"event": "category-new", "payload": {"label": ["a"], "generation": 0}},
    "best-thought-not-a-string": {"event": "evaluation", "payload": {**_EVALUATION, "thought": 5}},
    "candidate-id-beside-an-integer": [{"event": "evaluation", "payload": _EVALUATION},
                                       {"event": "evaluation",
                                        "payload": {**_EVALUATION, "candidate_id": "2"}}],
    "new-categories-not-a-list": [{"event": "evaluation", "payload": _EVALUATION},
                                  {"event": "generation-summary",
                                   "payload": {**_SUMMARY, "new_categories": 5}}],
}


@pytest.mark.parametrize("command, event", [
    pytest.param(command, event, id=f"{command}-{name}")
    for command in ("replay", "report") for name, event in _INCONSISTENT_EVENT.items()])
def test_event_that_contradicts_the_run_is_one_line_and_exit_2(tmp_path, capsys, command,
                                                              event):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    events = single_run_dir(tmp_path) / "events.jsonl"
    lines = [json.dumps({"seq": seq, **e})
             for seq, e in enumerate(event if isinstance(event, list) else [event])]
    events.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, str(events.parent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {events}:{len(lines)}: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------- report

def test_cmd_report_outputs(tmp_path):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    assert main(["report", str(run_dir)]) == 0

    report_md = (run_dir / "report.md").read_text()
    best = json.loads((run_dir / "best.json").read_text())
    assert best["code"] in report_md
    assert best["category"] in report_md
    # a zero-gap best has fitness -0.0; the report prints it as `cdeoh run` does
    assert "fitness 0.000000 (mean gap 0.000000%)" in report_md

    # report.csv recomputed from events matches summary.csv exactly
    assert (run_dir / "report.csv").read_text() == (run_dir / "summary.csv").read_text()

    with (run_dir / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    gaps = [float(r["best_gap_percent"]) for r in rows]
    assert gaps == sorted(gaps, reverse=True)  # non-increasing gap trajectory
    fits = [float(r["best_fitness"]) for r in rows]
    assert fits == sorted(fits)


def test_summary_recomputable_from_events_alone(tmp_path):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    events = read_events(run_dir / "events.jsonl")
    rows = summary_rows(RunState.from_events(events))
    with (run_dir / "summary.csv").open() as fh:
        on_disk = list(csv.DictReader(fh))
    assert [dict(r) for r in on_disk] == [{k: str(v) for k, v in row.items()} for row in rows]

    # cross-check: trajectory equals the running max over evaluation events
    best = None
    trajectory = []
    it = iter(events)
    for e in events:
        if e["event"] == "evaluation" and "fitness" in e["payload"]:
            f = e["payload"]["fitness"]
            best = f if best is None else max(best, f)
        if e["event"] == "generation-summary":
            trajectory.append((e["payload"]["generation"], best))
    for (gen, running_best), row in zip(trajectory, rows):
        assert float(row["best_fitness"]) == running_best


def test_cmd_report_per_instance_gaps_when_config_suite_does_not_build(tmp_path):
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert main(["run", str(cfg_path)]) == 0
    run_dir = single_run_dir(tmp_path)
    config = json.loads((run_dir / "config.json").read_text())
    config["suite"]["sizes"] = [0]
    (run_dir / "config.json").write_text(json.dumps(config))
    assert main(["report", str(run_dir)]) == 0
    assert "- instance 0: " in (run_dir / "report.md").read_text()


def test_cmd_report_incomplete_run(tmp_path):
    (tmp_path / "events.jsonl").write_text("")
    assert main(["report", str(tmp_path)]) == 2


# ---------------------------------------------------------------- evaluate

def test_cmd_evaluate_best_fit_table(tmp_path, capsys):
    heuristic = tmp_path / "bf.txt"
    heuristic.write_text(problems.BEST_FIT_PROGRAM)
    rc = main(["evaluate", str(heuristic), "--task", "obp",
               "--sizes", "200", "--capacities", "100", "--seeds", "1", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gap_percent" in out
    assert "mean" in out
    assert "200C100" in out


def test_cmd_evaluate_accepts_best_json(tmp_path, capsys):
    heuristic = tmp_path / "best.json"
    heuristic.write_text(json.dumps({"thought": "nn", "code": problems.NEAREST_NEIGHBOR_PROGRAM,
                                     "category": "greedy", "fitness": 0.0}))
    rc = main(["evaluate", str(heuristic), "--task", "tsp", "--sizes", "10", "--seeds", "1"])
    assert rc == 0
    assert "size10" in capsys.readouterr().out


def test_cmd_evaluate_malformed_dsl(tmp_path, capsys):
    heuristic = tmp_path / "bad.txt"
    heuristic.write_text("return frobnicate(item)")
    rc = main(["evaluate", str(heuristic), "--task", "obp",
               "--sizes", "20", "--capacities", "50", "--seeds", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "frobnicate" in err
    assert "line 1" in err


def test_cmd_evaluate_deeply_nested_json_is_read_as_dsl_text(tmp_path, capsys):
    heuristic = tmp_path / "deep.json"
    heuristic.write_text("[" * 100_000)
    rc = main(["evaluate", str(heuristic), "--task", "obp",
               "--sizes", "20", "--capacities", "50", "--seeds", "1"])
    assert rc == 1  # like any text that is not a best.json: a DSL parse error
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    ('{"code": 5}', "'code' must be a string"),
    ('{"code": ["return item"]}', "'code' must be a string"),
    (None, "Is a directory"),
    (b"return item \xff", "is not UTF-8 text"),
])
def test_cmd_evaluate_bad_heuristic_file_is_one_line_and_exit_2(tmp_path, capsys, content,
                                                                message):
    heuristic = tmp_path / "heuristic"
    if content is None:
        heuristic.mkdir()
    elif isinstance(content, bytes):
        heuristic.write_bytes(content)
    else:
        heuristic.write_text(content)
    rc = main(["evaluate", str(heuristic), "--task", "obp",
               "--sizes", "20", "--capacities", "50", "--seeds", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(heuristic) in err and message in err


def test_cmd_evaluate_deterministic(tmp_path, capsys):
    heuristic = tmp_path / "bf.txt"
    heuristic.write_text(problems.BEST_FIT_PROGRAM)
    args = ["evaluate", str(heuristic), "--task", "obp",
            "--sizes", "100", "--capacities", "100", "--seeds", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cmd_evaluate_suite_file(tmp_path, capsys):
    suite = problems.make_obp_suite([30], [50], seeds=[1, 2])
    problems.save_suite(tmp_path / "suite.json", suite, tmp_path / "inst")
    heuristic = tmp_path / "bf.txt"
    heuristic.write_text(problems.BEST_FIT_PROGRAM)
    rc = main(["evaluate", str(heuristic), "--suite-file", str(tmp_path / "suite.json")])
    assert rc == 0
    assert "30C50" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
@pytest.mark.parametrize("command", ["evaluate", "bench"])
def test_malformed_suite_file_is_one_line_and_exit_2(tmp_path, capsys, command):
    heuristic = tmp_path / "bf.txt"
    heuristic.write_text(problems.BEST_FIT_PROGRAM)
    args = [str(heuristic)] if command == "evaluate" else []
    no_task = tmp_path / "no_task.json"
    no_task.write_text(json.dumps({"instances": []}))
    missing_instance = tmp_path / "missing_instance.json"
    missing_instance.write_text(json.dumps({"task": "obp", "instances": ["gone.json"]}))
    (tmp_path / "flat.json").write_text(json.dumps({"coords": [0.1, 0.2, 0.3]}))
    bad_coords = tmp_path / "bad_coords.json"
    bad_coords.write_text(json.dumps({"task": "tsp", "instances": ["flat.json"]}))
    (tmp_path / "obp.json").write_text(json.dumps({"capacity": 10, "items": [1, 2]}))
    unknown_task = tmp_path / "unknown_task.json"
    unknown_task.write_text(json.dumps({"task": "nope", "instances": ["obp.json"]}))
    one_label = tmp_path / "one_label.json"
    one_label.write_text(json.dumps(
        {"task": "obp", "instances": ["obp.json", "obp.json"], "labels": ["a"]}))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    bad_files = []
    # Instance files whose values are of the wrong JSON type.
    for name, task, instance, named in (
            ("fractional_item", "obp", '{"capacity": 100, "items": [7.9, 50]}',
             "'items' must be a non-empty list of integers"),
            ("true_item", "obp", '{"capacity": 100, "items": [true, 50]}',
             "'items' must be a non-empty list of integers"),
            ("fractional_capacity", "obp", '{"capacity": 100.9, "items": [7, 50]}',
             "'capacity' must be an integer"),
            ("string_capacity", "obp", '{"capacity": "100", "items": [7, 50]}',
             "'capacity' must be an integer"),
            ("nan_coordinate", "tsp", '{"coords": [[NaN, 0.5], [0.1, 0.2], [0.3, 0.4]]}',
             "'coords' must be a list of lists of numbers"),
            # Finite numbers, but every tour has length 0 or overflows.
            ("coincident_cities", "tsp", '{"coords": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]}',
             "all cities coincide"),
            ("huge_coordinates", "tsp", '{"coords": [[1e200, 0], [-1e200, 0], [0, 1e200]]}',
             "city distances must be finite")):
        (tmp_path / f"{name}_instance.json").write_text(instance)
        bad_files.append((tmp_path / f"{name}.json",
                          (f"instance file {tmp_path / f'{name}_instance.json'}: {named}",)))
        bad_files[-1][0].write_text(json.dumps({"task": task,
                                                "instances": [f"{name}_instance.json"]}))
    for name, key, value in (("int_instance", "instances", [5]),
                             ("list_label", "labels", [[1], "b"]),
                             ("string_labels", "labels", "ab")):
        bad_files.append((tmp_path / f"{name}.json", (str(tmp_path / f"{name}.json"), repr(key))))
        bad_files[-1][0].write_text(json.dumps(
            {"task": "obp", "instances": ["obp.json", "obp.json"], key: value}))
    for suite_file, named in ((no_task, (str(no_task), "'task'")),
                              (missing_instance, (str(tmp_path / "gone.json"),)),
                              (bad_coords, (str(tmp_path / "flat.json"), "coords")),
                              (unknown_task, (f"suite file {unknown_task}:", "'nope'")),
                              (one_label, (f"suite file {one_label}:", "one label")),
                              (deep, (str(deep), "not valid JSON")),
                              *bad_files):
        assert main([command, *args, "--suite-file", str(suite_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for text in named:
            assert text in err


# ---------------------------------------------------------------- bench

def test_cmd_bench_obp_best_fit_beats_first_fit(capsys):
    rc = main(["bench", "--task", "obp", "--sizes", "1000",
               "--capacities", "100", "--seeds", "1", "2", "3", "4", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    table = {line.split()[0]: float(line.split()[1])
             for line in out.splitlines() if line.startswith(("first-fit", "best-fit"))}
    assert table["best-fit"] <= table["first-fit"]
    # frozen goldens for the Weibull 1kC100 suite, seeds 1-5
    assert table["first-fit"] == pytest.approx(5.3673, abs=1e-4)
    assert table["best-fit"] == pytest.approx(4.9728, abs=1e-4)


def test_cmd_bench_tsp_nn_gap_nonnegative(capsys):
    rc = main(["bench", "--task", "tsp", "--sizes", "50", "--seeds", "1", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    nn_row = [line for line in out.splitlines() if line.startswith("nearest-neighbor")][0]
    assert float(nn_row.split()[-1]) >= 0.0
    ref_row = [line for line in out.splitlines() if "reference" in line][0]
    assert float(ref_row.split()[-1]) == 0.0


@pytest.mark.parametrize("command", ["evaluate", "bench"])
@pytest.mark.parametrize("flags, named", [
    (["--task", "tsp", "--sizes", "10", "--capacities", "50"], "capacities"),
    (["--task", "obp", "--sizes", "10", "--mode", "uniform"], "mode"),
])
def test_flag_the_task_does_not_take_exits_2(tmp_path, capsys, command, flags, named):
    heuristic = tmp_path / "h.txt"
    heuristic.write_text(problems.NEAREST_NEIGHBOR_PROGRAM)
    args = [str(heuristic)] if command == "evaluate" else []
    assert main([command, *args, *flags]) == 2
    assert capsys.readouterr().err == f"error: unknown key(s) in suite: {named}\n"


def test_cmd_bench_requires_task(capsys):
    assert main(["bench"]) == 2


def test_cmd_bench_empty_seeds():
    with pytest.raises(SystemExit) as ei:
        main(["bench", "--task", "obp", "--sizes", "10", "--capacities", "50", "--seeds"])
    assert ei.value.code == 2


# ---------------------------------------------------------------- every input file

def _input_file(tmp_path: Path, kind: str, command: str) -> tuple[Path, list[str]]:
    """A file of `kind` that `command` reads, and the command line that reads it."""
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    if command == "run":
        path = cfg_path if kind == "config" else tmp_path / "transcript.jsonl"
        return path, ["run", str(cfg_path)]
    if kind in ("config", "events"):
        assert main(["run", str(cfg_path)]) == 0
        run_dir = single_run_dir(tmp_path)
        name = "config.json" if kind == "config" else "events.jsonl"
        return run_dir / name, [command, str(run_dir)]
    heuristic = tmp_path / "bf.txt"
    heuristic.write_text(problems.BEST_FIT_PROGRAM)
    if kind == "heuristic":
        return heuristic, ["evaluate", str(heuristic), "--task", "obp", "--sizes", "20",
                           "--capacities", "50", "--seeds", "1"]
    suite_file = tmp_path / "suite.json"
    problems.save_suite(suite_file, problems.make_obp_suite([20], [50], seeds=[1]))
    args = [str(heuristic)] if command == "evaluate" else []
    path = suite_file if kind == "suite" else next(tmp_path.glob("obp_*.json"))
    return path, [command, *args, "--suite-file", str(suite_file)]


_READERS = [("config", "run"), ("config", "replay"), ("transcript", "run"),
            ("events", "report"), ("events", "replay"), ("suite", "bench"),
            ("suite", "evaluate"), ("instance", "bench"), ("instance", "evaluate"),
            ("heuristic", "evaluate")]
_UNREADABLE = ("missing", "directory", "not-utf-8", "nested-too-deep", "too-many-digits")


@pytest.mark.parametrize("kind, command, problem", [
    pytest.param(kind, command, problem, id=f"{kind}-{command}-{problem}")
    for kind, command in _READERS for problem in _UNREADABLE
    # A heuristic file that is not JSON is program text (a DSL parse error).
    if not (kind == "heuristic" and problem in ("nested-too-deep", "too-many-digits"))])
def test_unreadable_input_file_is_one_line_naming_it_and_exit_2(tmp_path, capsys, kind, command,
                                                                problem):
    """Every file a command reads: missing, a directory, not UTF-8, nested too
    deep to parse, or holding an integer too long for Python to convert."""
    path, argv = _input_file(tmp_path, kind, command)
    path.unlink()
    if problem == "directory":
        path.mkdir()
    elif problem == "not-utf-8":
        path.write_bytes(b'{"a": "\xff"}\n')
    elif problem == "nested-too-deep":
        path.write_text("[" * 100_000)
    elif problem == "too-many-digits":
        path.write_text('{"a": ' + "1" * 5000 + "}\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err, err


def test_run_dir_under_a_regular_file_is_one_line_and_exit_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    output_dir = tmp_path / "file" / "runs"
    cfg_path = write_run_config(tmp_path, three_gen_transcript(), output_dir=str(output_dir))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (f"error: cannot create run directory under {output_dir}:"
                                       " Not a directory\n")


@pytest.mark.parametrize("link", ["output_dir", "its parent"])
def test_run_dir_under_a_dangling_symlink_is_one_line_and_exit_2(tmp_path, capsys, link):
    # A link to an unmounted volume: mkdir meets EEXIST on a name that is no directory.
    output_dir = tmp_path / "parent" / "runs"
    dangling = output_dir if link == "output_dir" else output_dir.parent
    dangling.parent.mkdir(parents=True, exist_ok=True)
    dangling.symlink_to(tmp_path / "missing")
    cfg_path = write_run_config(tmp_path, three_gen_transcript(), output_dir=str(output_dir))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (f"error: cannot create run directory under {output_dir}:"
                                       " File exists\n")


def test_run_dir_takes_the_next_suffix_when_mkdir_finds_the_name_taken(tmp_path, monkeypatch):
    # As when another run took the name between an existence check and mkdir.
    stamp = cli.datetime(2026, 1, 2, 3, 4, 5, tzinfo=cli.timezone.utc)
    monkeypatch.setattr(cli, "datetime", mock.Mock(now=lambda tz: stamp))
    (tmp_path / "run_20260102_030405").mkdir()
    (tmp_path / "run_20260102_030405_2").mkdir()
    monkeypatch.setattr(Path, "exists", lambda self: False)
    assert cli._fresh_run_dir(tmp_path) == tmp_path / "run_20260102_030405_3"
    assert (tmp_path / "run_20260102_030405_3").is_dir()


# ---------------------------------------------------------------- the whole loop, fuzzed

_DROP = object()
_RETYPED = (True, 0, 1.5, "x", None, [3], {"a": 1})  # one value of each JSON type
# In-range values at the edges; out-of-range ones have their own tests above.
_EXTREMES = {
    ("evolution", "population_size"): (1, 10**400),
    ("evolution", "elite_categories"): (0, 2),
    ("evolution", "lambda"): (0, 5e-324, 1e308),
    ("evolution", "reflection_budget"): (0, 10**400),
    ("evolution", "max_samples"): (1, 10**400),
    ("evolution", "max_generations"): (None, 1, 10**400),
    ("evolution", "rng_seed"): (-(10**400), 10**400),
    ("provider", "max_prompt_bytes"): (256, 10**400),
    ("provider", "temperature"): (-1e308, 1e308),
    ("provider", "max_retries"): (1, 10**400),
    ("provider", "retry_backoff_s"): (0, 1e308),
    ("suite", "capacities"): ([2], [2**53]),
    ("suite", "seeds"): ([0], [10**400]),
    ("suite", "weibull_shape"): (5e-324, 1e308),
    ("suite", "weibull_scale"): (5e-324, 1e308),
}
# Every settable key but `suite.sizes`, whose default is 1000-item instances.
_MUTABLE = ([("suite", k) for k in ("capacities", "seeds", "weibull_shape",
                                    "weibull_scale", "mode")]
            + [("evolution", k) for k in ("population_size", "elite_categories", "lambda",
                                          "reflection_budget", "max_samples", "max_generations",
                                          "enable_categories", "enable_reflection", "rng_seed")]
            + [("provider", k) for k in ("provider", "base_url", "model", "temperature",
                                         "max_retries", "transcript_path", "max_prompt_bytes",
                                         "retry_backoff_s")])


def _change(path):
    return st.tuples(st.just(path), st.sampled_from(_EXTREMES.get(path, ()) + (_DROP,)))


def _sum_program(terms: int) -> str:
    return wrap_generation(f"{terms} terms", "return " + " + ".join(["cap_remaining"] * terms))


_NODE_BUDGET = 39  # the nodes of _sum_program(20); one more term is over budget
_ODD_RESPONSES = (
    "", "{", "}{", "```", "{idea}\n```\nreturn item", "{" * 40 + "```" * 3,
    wrap_generation("deep", "return " + "(" * 5000 + "item" + ")" * 5000),
    wrap_generation("overflow", "return 1e309 * item"),
    wrap_generation("surrogate \ud800", "return 0 - item # \ud800"),
    "{\ud800}\n```\n\ud800\n```",
)
_responses = st.one_of(
    st.text(max_size=60),
    st.builds(wrap_generation, st.text(max_size=20), st.text(max_size=40)),
    st.builds(_sum_program, st.integers(_NODE_BUDGET // 2, _NODE_BUDGET // 2 + 2)),
    st.builds(ladder_response, st.integers(0, 5)),
)


def _checked_run(tmp_path: Path, transcript: TranscriptBuilder, mutations) -> Path | None:
    """`cdeoh run` on the ladder config with `mutations` applied; checks the
    exit code, stderr and evaluation events, and returns the run dir of a
    run that exited 0."""
    tmp_path.mkdir()
    cfg_path = write_run_config(tmp_path, transcript, evolution={"max_generations": 1})
    cfg = json.loads(cfg_path.read_text())
    for (section, key), value in mutations:
        if value is _DROP:
            cfg[section].pop(key, None)
        else:
            cfg[section][key] = copy.deepcopy(value)
    cfg_path.write_text(json.dumps(cfg))

    # strict UTF-8, like a terminal: printing a lone surrogate fails here
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["run", str(cfg_path)])
    stderr = err.buffer.getvalue().decode()
    assert rc in (0, 1, 2)
    assert sum(line.startswith("error:") for line in stderr.splitlines()) <= 1, stderr
    assert "Traceback" not in stderr
    if rc == 2:
        assert not (tmp_path / "runs").exists()
        return None
    if rc == 1:  # a scripted run stops early only when the transcript or the budget ends
        assert stderr.startswith(("error: provider error [transcript-miss]",
                                  "error: sample budget")), stderr
    run_dir = single_run_dir(tmp_path)
    events = read_events(run_dir / "events.jsonl")
    for event in events:
        payload = event["payload"]
        if event["event"] == "evaluation":
            assert (math.isfinite(payload["fitness"]) if "fitness" in payload
                    else "\n" not in payload["error"]), payload
    # the artifacts are the fold of the events, finished run or aborted
    assert (len(list(run_dir.glob("population_gen*.json")))
            == sum(e["event"] == "generation-summary" for e in events))
    assert (run_dir / "best.json").exists() == any(
        e["event"] == "evaluation" and "candidate_id" in e["payload"] for e in events)
    return run_dir if rc == 0 else None


@given(changed=st.lists(st.sampled_from(_MUTABLE).flatmap(_change), max_size=3),
       replaced=st.dictionaries(st.integers(0, 11), _responses, max_size=4),
       dropped=st.sets(st.integers(0, 11), max_size=2),
       extra=st.lists(st.tuples(st.sampled_from([k.value for k in llm.PromptKind]), _responses),
                      max_size=4))
@settings(max_examples=150, deadline=None)
def test_cmd_run_on_fuzzed_configs_and_transcripts(changed, replaced, dropped, extra):
    """Any config and transcript: exit 0, 1 or 2 with at most one error line,
    no run dir on exit 2 and exit 1 only when the transcript or the budget
    ends; every evaluation has a finite fitness or a one-line error; a run
    that exits 0 replays."""
    # Hypothesis' own choices cluster on the first few elements of a list,
    # so the odd responses and the retyped (key, value) pairs are drawn from
    # a generator seeded by the example instead.
    rng = random.Random(repr((changed, replaced, dropped, extra)))
    if rng.random() < 0.5:
        entry, odd = rng.randrange(12), rng.randrange(len(_ODD_RESPONSES))
        note(f"entry {entry} is _ODD_RESPONSES[{odd}]")
        replaced = {**replaced, entry: _ODD_RESPONSES[odd]}
    tb = TranscriptBuilder()
    for i, (kind, _, response) in enumerate(three_gen_transcript().entries[:12]):
        if i not in dropped:
            tb.add(kind, replaced.get(i, response))
    for kind, response in extra:
        tb.add(kind, response)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dsl, "MAX_PROGRAM_NODES", _NODE_BUDGET):
        # One retyped key per run, each on an empty transcript, so that no
        # other bad value hides it and a config that passes ends at the
        # first provider call.
        for i in range(3):
            retype = (rng.choice(_MUTABLE), rng.choice(_RETYPED))
            note(f"retyped {retype}")
            _checked_run(Path(tmp) / f"retyped{i}", TranscriptBuilder(), changed + [retype])
        run_dir = _checked_run(Path(tmp) / "run", tb, changed)
        if run_dir is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["replay", str(run_dir)]) == 0


# ---------------------------------------------------------------- recorded events, edited

@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory) -> Path:
    """A finished scripted run with failed, reflected and repaired candidates."""
    tmp_path = tmp_path_factory.mktemp("recorded")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(write_run_config(tmp_path, _reflecting_transcript()))]) == 0
    return single_run_dir(tmp_path)


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                     lambda inner: (st.lists(inner, max_size=3)
                                    | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
                     max_leaves=6)
_EDITS = st.one_of(st.sampled_from((_DROP, [], {}, False, "", "\ud800", ["\ud800"], [[]], -1,
                                    2**64, float("nan"), float("inf")) + _RETYPED),
                   _JSON)


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_report_and_replay_of_one_edited_field(recorded_run, data):
    """A recorded run with one payload field dropped, retyped or replaced:
    `report` and `replay` exit 0, 1 or 2 with at most one error line and no
    traceback."""
    lines = (recorded_run / "events.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    # Each field of each event kind is as likely, however rare the kind.
    kind, key = data.draw(st.sampled_from(sorted({(e["event"], k) for e in events
                                                  for k in e["payload"]})), label="field")
    i = data.draw(st.sampled_from([i for i, e in enumerate(events)
                                   if e["event"] == kind and key in e["payload"]]), label="line")
    value = data.draw(_EDITS, label="value")
    if value is _DROP:
        del events[i]["payload"][key]
    else:
        events[i]["payload"][key] = value
    lines[i] = json.dumps(events[i], sort_keys=True)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        for name in ("config.json", "transcript.jsonl"):
            shutil.copy(recorded_run / name, run_dir)
        (run_dir / "events.jsonl").write_text("\n".join(lines) + "\n")
        for command in ("report", "replay"):
            # strict UTF-8, like a terminal: printing a lone surrogate fails here
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
            err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([command, str(run_dir)])  # an exception here is a traceback
            stderr = err.buffer.getvalue().decode()
            assert rc in (0, 1, 2)
            assert "Traceback" not in stderr
            assert sum(line.startswith("error:") for line in stderr.splitlines()) <= 1, stderr
