"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import json
import random
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from cdeoh import cli, evolution  # noqa: E402


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    workload = inputs.WORKLOADS[name]
    files = ("transcript.jsonl", "config.json")
    inputs.write_inputs(workload, 7, tmp_path / "a")
    inputs.write_inputs(workload, 7, tmp_path / "b")
    inputs.write_inputs(workload, 8, tmp_path / "c")
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / files[0]).read_bytes() != (tmp_path / "c" / files[0]).read_bytes()
    assert "max_in_flight" not in (tmp_path / "a" / files[1]).read_text()


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_transcript_cannot_miss_and_holds_every_failure_class(name):
    workload = inputs.WORKLOADS[name]
    entries = inputs.transcript(workload, 3)
    per_kind = Counter(e.kind for e in entries)
    n = inputs.EVOLUTION["max_samples"]
    for kind in inputs.GENERATION_KINDS:
        assert per_kind[kind] >= n
        broken = [e for e in entries if e.kind == kind and e.broken]
        assert len(broken) == n * inputs.BROKEN_PER_BLOCK // inputs.BLOCK
        assert {e.broken for e in broken} == {cls for cls, _, _ in workload.broken}
    assert per_kind[inputs.CATEGORY_KIND] >= 2 * n
    codes = {code for _, code in inputs.catalog(workload)}
    assert all(e.code in codes for e in entries if e.code and not e.broken)


@pytest.fixture(scope="module")
def scripted_run(tmp_path_factory):
    """One llm-latency run in process, without the latency."""
    work = tmp_path_factory.mktemp("run")
    workload = inputs.WORKLOADS["llm-latency"]
    config, entries = inputs.write_inputs(workload, 5, work)
    cfg = json.loads(config.read_text())
    cfg["output_dir"] = str(work / "runs")
    config.write_text(json.dumps(cfg))
    assert cli.main(["run", str(config)]) == 0
    (run_dir,) = (work / "runs").iterdir()
    events = cli.read_events(run_dir / "events.jsonl")
    best = json.loads((run_dir / "best.json").read_text())
    return events, best, entries, check.load_goldens()["fitness"][workload.name]


def test_check_passes_on_a_correct_run(scripted_run):
    events, best, entries, golden = scripted_run
    assert check.check_run(events, best, entries, golden) == []


def test_golden_with_one_perturbed_fitness_bit_is_caught(scripted_run):
    events, best, entries, golden = scripted_run
    code = next(e["payload"]["code"] for e in events
                if e["event"] == "evaluation" and "candidate_id" in e["payload"])
    bits = np.float64(float.fromhex(golden[code])).view(np.uint64) ^ np.uint64(1)
    perturbed = dict(golden, **{code: float(bits.view(np.float64)).hex()})
    errors = check.check_run(events, best, entries, perturbed)
    assert any("fitness" in e for e in errors)


def test_digest_ignores_timestamps_and_error_text_but_not_fitness(scripted_run):
    events, best, _, _ = scripted_run
    base = check.digest(events, best)
    relabelled = [dict(e, ts="x", payload=dict(e["payload"], error="other", duration_ms=1.0))
                  for e in events]
    assert check.digest(relabelled, best) == base
    i = next(i for i, e in enumerate(events) if "candidate_id" in e["payload"])
    changed = list(events)
    changed[i] = dict(events[i], payload=dict(events[i]["payload"],
                                              fitness=np.nextafter(events[i]["payload"]["fitness"], 1.0)))
    assert check.digest(changed, best) != base


def test_reference_selection_matches_the_engine():
    rng = random.Random(0)
    config = evolution.EvolutionConfig()
    for _ in range(200):
        cands = [evolution.Candidate(id=i, thought="t", code="c",
                                     category=rng.choice("abcdef"),
                                     fitness=-float(rng.choice((1, 2, 3, rng.random()))),
                                     origin="init", generation_born=0)
                 for i in range(1, rng.randint(2, 30))]
        engine = evolution.select_next_generation(cands, config)
        ref = check.reference_selection([(c.id, c.fitness, c.category) for c in cands],
                                        config.population_size, config.elite_categories,
                                        config.lambda_weight)
        assert [c.id for c in engine.members] == ref


class _Echo:
    config = object()

    def complete(self, prompt, seed=0, temperature=None):
        return prompt


def test_latency_depends_on_kind_and_index_only_and_counts_per_thread_safely(monkeypatch):
    delays = []
    monkeypatch.setattr(child.time, "sleep", delays.append)
    provider = child.LatencyProvider(_Echo(), seed=1, median_ms=10.0, sigma=0.3)
    prompts = [f"[prompt-kind: {k}] [variation-seed: 0]\n" for k in ("reflection", "innovation")]
    threads = [threading.Thread(target=lambda p=p: [provider.complete(p) for _ in range(50)])
               for p in prompts * 4]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert provider._counters == {"reflection": 200, "innovation": 200}
    want = [provider.delay_s(k, i) for k in ("reflection", "innovation") for i in range(200)]
    assert sorted(delays) == sorted(want)
    other = child.LatencyProvider(_Echo(), seed=1, median_ms=10.0, sigma=0.3)
    assert other.delay_s("reflection", 5) == provider.delay_s("reflection", 5)


def test_self_time_excludes_child_spans(tmp_path, monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])  # outer start, two inner spans, outer end
    monkeypatch.setattr(child.time, "perf_counter", lambda: next(clock))
    tracer = child.Tracer()
    inner = tracer.wrap(lambda: None, "dsl.evaluate")
    outer = tracer.wrap(lambda: (inner(), inner()), "evolution.run")
    outer()
    tracer.save(tmp_path / "spans.npz")
    spans = layers.Spans(tmp_path / "spans.npz")
    assert spans.self_by_name(np.ones(3, dtype=bool)) == {"dsl.evaluate": 4.0,
                                                          "evolution.run": 6.0}


def test_a_missing_hook_target_ends_the_run():
    with pytest.raises(SystemExit, match="evolution.pack_online is missing"):
        child.Tracer().patch(evolution, "pack_online", "problems.pack_online")
