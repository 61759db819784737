"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import os
import random
import time

import pytest

from cdeoh import cli, dsl, llm, problems
from cdeoh.evolution import (
    BudgetExhaustedError,
    Candidate,
    EvolutionConfig,
    EvolutionEngine,
    joint_score,
    select_next_generation,
)

from conftest import (
    BROKEN_CODE_RESPONSE,
    TranscriptBuilder,
    ladder_response,
    ladder_suite,
)
from oracles import (
    exhaustive_bin_packing,
    held_karp_cycle,
    simple_best_fit,
    top_n_by_fitness,
)
from test_cli import write_run_config
from test_evolution import three_gen_transcript


def _pass(name: str, t0: float, limit: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"{name}: {elapsed:.2f}s exceeded the {limit}s budget"
    print(f"PASS: {name} ({elapsed:.2f}s < {limit:.0f}s)")


def cand(i, fitness, category):
    return Candidate(id=i, thought=f"t{i}", code="return 0 - bin_index",
                     category=category, fitness=float(fitness), origin="init",
                     generation_born=0)


# --------------------------------------------------------------------------
# Selection correctness
# --------------------------------------------------------------------------

def test_acceptance_selection_correctness():
    t0 = time.monotonic()
    rng = random.Random(1234)
    for trial in range(500):
        n_cands = rng.randint(1, 20)
        cands = [cand(i, rng.uniform(-100, 100), f"c{rng.randint(0, 5)}")
                 for i in range(n_cands)]
        pop_n = rng.randint(1, 10)

        flat = EvolutionConfig(population_size=pop_n, elite_categories=0,
                               lambda_weight=0.0, max_samples=10)
        got = [c.id for c in select_next_generation(cands, flat).members]
        assert got == [c.id for c in top_n_by_fitness(cands, pop_n)], trial

        k = rng.randint(1, min(4, pop_n))
        diverse = EvolutionConfig(population_size=pop_n, elite_categories=k,
                                  lambda_weight=0.7, max_samples=10)
        selected = {c.id for c in select_next_generation(cands, diverse).members}
        by_cat = {}
        for c in sorted(cands, key=lambda c: (-c.fitness, c.id)):
            by_cat.setdefault(c.category, c)
        top_k = sorted(by_cat.values(), key=lambda c: (-c.fitness, c.id))[:k]
        for elite in top_k:
            assert elite.id in selected, trial

    # hand-enumerated examples, exact
    cs = [cand(1, 30, "B"), cand(2, 20, "A"), cand(3, 10, "A")]
    cfg = EvolutionConfig(population_size=2, elite_categories=1,
                          lambda_weight=0.7, max_samples=10)
    assert [c.id for c in select_next_generation(cs, cfg).members] == [1, 2]
    assert joint_score(cs[1], 10, 30, 2, 0.7) == 0.5 + 0.35
    assert joint_score(cs[2], 10, 30, 2, 0.7) == 0.0 + 0.35

    cs = [cand(1, 30, "A"), cand(2, 29, "A"), cand(3, 28, "A"), cand(4, 5, "B")]
    cfg = EvolutionConfig(population_size=2, elite_categories=2,
                          lambda_weight=0.7, max_samples=10)
    assert {c.id for c in select_next_generation(cs, cfg).members} == {1, 4}
    _pass("selection correctness vs exhaustive oracle (500 random sets)", t0, 5.0)


# --------------------------------------------------------------------------
# Joint-score formula
# --------------------------------------------------------------------------

def test_acceptance_joint_score_formula():
    t0 = time.monotonic()
    rng = random.Random(99)
    probe = cand(0, 0.0, "x")
    for _ in range(10_000):
        f_min = rng.uniform(-1000, 1000)
        f_max = f_min if rng.random() < 0.1 else f_min + rng.uniform(0, 2000)
        f = rng.uniform(f_min, f_max) if f_max > f_min else f_min
        count = rng.randint(1, 50)
        lam = rng.choice([0.0, 0.7, rng.uniform(0, 5)])
        c = cand(0, f, "x")
        got = joint_score(c, f_min, f_max, count, lam)
        if f_max > f_min:
            expect = (f - f_min) / (f_max - f_min) + lam / count
        else:
            expect = lam / count
        assert abs(got - expect) <= 1e-12
    assert joint_score(probe, 3.0, 3.0, 4, 0.7) == 0.7 / 4
    _pass("joint-score formula on 10,000 random tuples (tol 1e-12)", t0, 1.0)


# --------------------------------------------------------------------------
# OBP validity
# --------------------------------------------------------------------------

def _random_obp_program(rng: random.Random) -> str:
    vectors = ("cap_remaining", "bin_index")

    def expr(depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(["item", "cap_remaining", "bin_index",
                               f"{rng.uniform(0.1, 10):.3f}"])
        kind = rng.choice(["bin", "call1", "call2", "where", "neg", "reduce"])
        if kind == "bin":
            return f"({expr(depth - 1)} {rng.choice('+-*/')} {expr(depth - 1)})"
        if kind == "call1":
            fn = rng.choice(["abs", "sqrt", "log", "exp", "floor", "ceil"])
            return f"{fn}({expr(depth - 1)})"
        if kind == "call2":
            fn = rng.choice(["min", "max", "pow"])
            return f"{fn}({expr(depth - 1)}, {expr(depth - 1)})"
        if kind == "where":
            op = rng.choice(["<", ">", "<=", ">="])
            return (f"where(({expr(depth - 1)} {op} {expr(depth - 1)}), "
                    f"{expr(depth - 1)}, {expr(depth - 1)})")
        if kind == "reduce":
            fn = rng.choice(["sum", "mean", "minval", "maxval", "len"])
            return f"{fn}({rng.choice(vectors)})"
        return f"-({expr(depth - 1)})"

    # the trailing term forces a vector-shaped result
    return f"return ({expr(3)}) + 0 * cap_remaining"


def test_acceptance_obp_validity():
    t0 = time.monotonic()
    rng = random.Random(7)
    programs = [
        dsl.parse(problems.FIRST_FIT_PROGRAM, problems.OBP_INPUTS),
        dsl.parse(problems.BEST_FIT_PROGRAM, problems.OBP_INPUTS),
    ]
    programs += [dsl.parse(_random_obp_program(rng), problems.OBP_INPUTS)
                 for _ in range(20)]
    for _ in range(200):
        cap = rng.choice((50, 100, 500))
        n = rng.randint(20, 120)
        items = tuple(rng.randint(1, cap) for _ in range(n))
        inst = problems.ObpInstance(capacity=cap, items=items)
        lb = problems.obp_lower_bound(inst)
        for prog in programs:
            loads = problems.pack_online(inst, prog)
            assert all(0 < load <= cap for load in loads)
            assert sum(loads) == sum(items)
            assert len(loads) >= lb
    _pass("OBP validity: 200 instances x 22 programs, no overfill, bins >= LB", t0, 30.0)


# --------------------------------------------------------------------------
# Lower-bound soundness
# --------------------------------------------------------------------------

def test_acceptance_lower_bound_soundness():
    t0 = time.monotonic()
    rng = random.Random(20260810)
    for _ in range(30):
        cap = rng.choice((10, 17, 50, 100, 500))
        n = rng.randint(1, 10)
        items = tuple(rng.randint(1, cap) for _ in range(n))
        inst = problems.ObpInstance(capacity=cap, items=items)
        lb = problems.obp_lower_bound(inst)
        opt = exhaustive_bin_packing(items, cap)
        assert lb <= opt
        assert lb >= math.ceil(sum(items) / cap)
    _pass("lower-bound soundness vs branch-and-bound on 30 instances", t0, 10.0)


# --------------------------------------------------------------------------
# Best-fit oracle equivalence
# --------------------------------------------------------------------------

def test_acceptance_best_fit_oracle_equivalence():
    t0 = time.monotonic()
    prog = dsl.parse("return -(cap_remaining - item)", problems.OBP_INPUTS)
    for seed in range(100, 200):
        inst = problems.gen_obp(seed, 1000, 100)
        bins = len(problems.pack_online(inst, prog))
        assert bins == problems.best_fit_bin_count(inst.items, 100), seed
        if seed < 110:  # the naive scan oracle is slow; spot-check a tenth
            assert bins == simple_best_fit(inst.items, 100), seed
    _pass("best-fit DSL == hand-coded best-fit on 100 instances (1k items, C100)", t0, 10.0)


# --------------------------------------------------------------------------
# TSP validity and optimality bounds
# --------------------------------------------------------------------------

def test_acceptance_tsp_validity_and_bounds():
    t0 = time.monotonic()
    nn = dsl.parse(problems.NEAREST_NEIGHBOR_PROGRAM, problems.TSP_INPUTS)
    others = [
        dsl.parse("return 0 - dist_to_current - 0.3 * mean_dist_remaining", problems.TSP_INPUTS),
        dsl.parse("return 0 - dist_to_current * (1 - visited_fraction) - dist_to_start * visited_fraction",
                  problems.TSP_INPUTS),
    ]
    for seed in range(20):
        inst = problems.gen_tsp(seed + 1, 10)
        hk = held_karp_cycle(inst.dist.tolist())
        for prog in [nn] + others:
            tour = problems.construct_tour(inst, prog)
            assert sorted(tour) == list(range(10))
            assert problems.tour_length(inst, tour) >= hk - 1e-9
        nn_len = problems.tour_length(inst, problems.nearest_neighbor_tour(inst))
        ref = problems.tsp_reference(inst)
        assert hk - 1e-9 <= ref <= nn_len + 1e-9
    _pass("TSP validity + Held-Karp/NN bounds on 20 instances (n=10)", t0, 20.0)


# --------------------------------------------------------------------------
# Reflection loop
# --------------------------------------------------------------------------

def _reflection_transcript() -> TranscriptBuilder:
    tb = TranscriptBuilder()
    tb.add("initialization", BROKEN_CODE_RESPONSE)
    tb.add("reflection", ladder_response(1, thought="repaired"))
    tb.add("initialization", ladder_response(0))
    tb.add_many("category-induction", ["greedy", "threshold"])
    return tb


def test_acceptance_reflection_loop(tmp_path):
    t0 = time.monotonic()
    cfg = EvolutionConfig(population_size=2, elite_categories=2, max_samples=50,
                          max_generations=1, reflection_budget=3)
    provider = _reflection_transcript().provider(tmp_path)
    engine = EvolutionEngine(cfg, provider, ladder_suite())
    pop = engine.initialize()
    repaired = [c for c in pop.members if c.origin == "reflection-repair"]
    assert len(repaired) == 1
    assert repaired[0].reflection_attempts == 1

    # noreflection semantics: same transcript, repair disabled
    d = tmp_path / "noreflect"
    d.mkdir()
    cfg_off = EvolutionConfig(population_size=1, elite_categories=1, max_samples=50,
                              max_generations=1, enable_reflection=False)
    provider2 = _reflection_transcript().provider(d)
    engine2 = EvolutionEngine(cfg_off, provider2, ladder_suite())
    pop2 = engine2.initialize()
    assert provider2.calls_made("reflection") == 0
    assert all(c.origin == "init" for c in pop2.members)
    assert engine2.state.samples == 2  # broken attempt abandoned, then one viable
    _pass("reflection loop: repair attribution and noreflection ablation", t0, 5.0)


# --------------------------------------------------------------------------
# Category-pool growth and nocategory ablation
# --------------------------------------------------------------------------

def _five_category_transcript() -> TranscriptBuilder:
    """4-member population, 3 generations, offspring spanning 5 categories."""
    tb = TranscriptBuilder()
    tb.add_many("initialization", [ladder_response(t) for t in (2, 3, 4, 5)])
    tb.add_many("category-induction", ["alpha", "beta", "alpha", "beta"])
    generations = [
        [(1, "gamma"), (2, "alpha"), (3, "beta"), (4, "gamma"),
         (5, "alpha"), (3, "beta"), (2, "gamma"), (4, "alpha")],
        [(0, "delta"), (1, "alpha"), (2, "beta"), (5, "delta"),
         (3, "gamma"), (1, "alpha"), (4, "beta"), (2, "gamma")],
        [(0, "epsilon"), (1, "delta"), (2, "alpha"), (3, "beta"),
         (0, "gamma"), (2, "epsilon"), (1, "delta"), (5, "alpha")],
    ]
    for offspring in generations:
        # offspring come in (refinement, innovation) pairs per parent
        for i, (t, _) in enumerate(offspring):
            tb.add("refinement" if i % 2 == 0 else "innovation", ladder_response(t))
        tb.add_many("category-induction", [c for _, c in offspring])
    return tb


def test_acceptance_category_pool_growth_and_ablation(tmp_path):
    t0 = time.monotonic()
    cfg = EvolutionConfig(population_size=4, elite_categories=4, lambda_weight=0.7,
                          max_samples=200, max_generations=3)
    events = []
    provider = _five_category_transcript().provider(tmp_path)
    engine = EvolutionEngine(cfg, provider, ladder_suite(),
                             log=lambda e, p: events.append((e, p)))
    engine.run()
    assert set(engine.state.category_counts) == {"alpha", "beta", "gamma", "delta", "epsilon"}

    # every post-selection population retains the top-4 categories' elites,
    # recomputed independently from the logged candidate sets
    by_id = {p["candidate_id"]: p for e, p in events
             if e == "evaluation" and "candidate_id" in p}
    for sel in (p for e, p in events if e == "selection"):
        cands = [by_id[i] for i in sel["candidate_ids"]]
        best_per_cat = {}
        for c in sorted(cands, key=lambda c: (-c["fitness"], c["candidate_id"])):
            best_per_cat.setdefault(c["category"], c)
        top4 = sorted(best_per_cat.values(),
                      key=lambda c: (-c["fitness"], c["candidate_id"]))[:4]
        for elite in top4:
            assert elite["candidate_id"] in sel["selected_ids"]

    # nocategory ablation over the same transcript: pure fitness selection
    d = tmp_path / "nocat"
    d.mkdir()
    cfg_off = EvolutionConfig(population_size=4, elite_categories=4, lambda_weight=0.7,
                              max_samples=200, max_generations=3, enable_categories=False)
    events2 = []
    provider2 = _five_category_transcript().provider(d)
    engine2 = EvolutionEngine(cfg_off, provider2, ladder_suite(),
                              log=lambda e, p: events2.append((e, p)))
    engine2.run()
    assert provider2.calls_made("category-induction") == 0
    by_id2 = {p["candidate_id"]: p["fitness"] for e, p in events2
              if e == "evaluation" and "candidate_id" in p}
    sel_events = [p for e, p in events2 if e == "selection"]
    assert sel_events
    for sel in sel_events:
        cands = [cand(i, by_id2[i], "all") for i in sel["candidate_ids"]]
        assert sel["selected_ids"] == [c.id for c in top_n_by_fitness(cands, 4)]
    _pass("category-pool growth to 5 labels + nocategory ablation", t0, 10.0)


# --------------------------------------------------------------------------
# End-to-end replay determinism
# --------------------------------------------------------------------------

def test_acceptance_replay_determinism(tmp_path):
    t0 = time.monotonic()
    cfg_path = write_run_config(tmp_path, three_gen_transcript())
    assert cli.main(["run", str(cfg_path)]) == 0
    assert cli.main(["run", str(cfg_path)]) == 0
    runs = sorted((tmp_path / "runs").iterdir())
    streams = []
    for run in runs:
        events = cli.strip_timestamps(cli.read_events(run / "events.jsonl"))
        streams.append(events)
    assert streams[0] == streams[1]
    assert cli.main(["replay", str(runs[0])]) == 0
    _pass("end-to-end scripted replay determinism (events equal, replay exit 0)", t0, 20.0)


# --------------------------------------------------------------------------
# Monotone best
# --------------------------------------------------------------------------

def test_acceptance_monotone_best(tmp_path):
    t0 = time.monotonic()
    scripted_runs = {
        "three-gen": (three_gen_transcript(),
                      dict(population_size=2, elite_categories=2,
                           max_samples=100, max_generations=3)),
        "five-cat": (_five_category_transcript(),
                     dict(population_size=4, elite_categories=4,
                          max_samples=200, max_generations=3)),
    }
    for name, (tb, cfg_kw) in scripted_runs.items():
        d = tmp_path / name
        d.mkdir()
        provider = tb.provider(d)
        engine = EvolutionEngine(EvolutionConfig(**cfg_kw), provider, ladder_suite())
        engine.run()
        fits = [s["best_fitness"] for s in engine.state.summaries]
        assert fits == sorted(fits), name
    _pass("monotone best-fitness trajectory across all scripted runs", t0, 10.0)


# --------------------------------------------------------------------------
# Optional live smoke (needs CDEOH_API_KEY)
# --------------------------------------------------------------------------

@pytest.mark.skipif(
    not (os.environ.get(llm.API_KEY_ENV) and os.environ.get(llm.BASE_URL_ENV)),
    reason="live smoke needs CDEOH_API_KEY and CDEOH_BASE_URL")
def test_acceptance_live_smoke():
    t0 = time.monotonic()
    provider = llm.make_provider(llm.ProviderConfig(
        provider="http",
        base_url=os.environ[llm.BASE_URL_ENV],
        model=os.environ.get("CDEOH_MODEL", "default"),
    ))
    suite = problems.make_obp_suite([1000], [100], seeds=[1])
    cfg = EvolutionConfig(population_size=3, elite_categories=3, max_samples=20)
    engine = EvolutionEngine(cfg, provider, suite)
    try:
        engine.run()
    except BudgetExhaustedError:
        pass  # some candidates may be invalid; the smoke only needs one survivor
    assert engine.state.best is not None
    assert math.isfinite(engine.state.best.fitness)
    print(f"live smoke best gap: {-engine.state.best.fitness:.3f}%")
    _pass("live smoke (20 samples, 1kC100)", t0, 600.0)
