import contextlib
import json
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures.process import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdeoh import cli, dsl, evolution, llm, problems
from cdeoh.evolution import (
    BudgetExhaustedError,
    Candidate,
    EvolutionConfig,
    EvolutionEngine,
    Population,
    RunState,
    joint_score,
    select_next_generation,
)
from cdeoh.llm import PromptKind, ProviderError, ScriptedProvider, wrap_generation
from cdeoh.problems import CandidateFailure

from conftest import (
    BROKEN_CODE_RESPONSE,
    NO_CODE_RESPONSE,
    TranscriptBuilder,
    ladder_fitness,
    ladder_instance,
    ladder_program,
    ladder_response,
    ladder_suite,
)
from oracles import top_n_by_fitness


def cand(i, fitness, category="a", **kw):
    defaults = dict(thought=f"t{i}", code="return 0 - bin_index", origin="init",
                    generation_born=0)
    defaults.update(kw)
    return Candidate(id=i, fitness=float(fitness), category=category, **defaults)


def config(**kw):
    defaults = dict(population_size=3, elite_categories=2, lambda_weight=0.7,
                    reflection_budget=3, max_samples=100, max_generations=3)
    defaults.update(kw)
    defaults["elite_categories"] = min(defaults["elite_categories"], defaults["population_size"])
    return EvolutionConfig(**defaults)


# ---------------------------------------------------------------- joint score

def test_joint_score_hand_values():
    assert joint_score(cand(1, 30), 10, 30, 1, 0.7) == 1.0 + 0.7
    assert joint_score(cand(1, 10), 10, 30, 2, 0.7) == 0.0 + 0.35


def test_joint_score_lambda_zero_is_pure_normalized_fitness():
    for count in (1, 3, 9):
        assert joint_score(cand(1, 25), 10, 30, count, 0.0) == 0.75


def test_joint_score_degenerate_range():
    assert joint_score(cand(1, 5), 5, 5, 4, 0.7) == 0.7 / 4


def test_joint_score_validates():
    with pytest.raises(ValueError):
        joint_score(cand(1, 5), 0, 10, 0, 0.7)
    with pytest.raises(ValueError):
        joint_score(cand(1, 5), 10, 0, 1, 0.7)


# ---------------------------------------------------------------- selection

def test_selection_hand_example_one_elite():
    cs = [cand(1, 30, "B"), cand(2, 20, "A"), cand(3, 10, "A")]
    pop = select_next_generation(cs, config(population_size=2, elite_categories=1))
    assert [c.id for c in pop.members] == [1, 2]


def test_selection_hand_example_diversity_preserved():
    cs = [cand(1, 30, "A"), cand(2, 29, "A"), cand(3, 28, "A"), cand(4, 5, "B")]
    pop = select_next_generation(cs, config(population_size=2, elite_categories=2))
    assert {c.id for c in pop.members} == {1, 4}


def test_selection_k0_lambda0_is_pure_fitness():
    cs = [cand(i, f, c) for i, (f, c) in enumerate([(5, "a"), (9, "b"), (9, "b"), (1, "c")])]
    pop = select_next_generation(cs, config(population_size=2, elite_categories=0,
                                            lambda_weight=0.0))
    assert [c.id for c in pop.members] == [c.id for c in top_n_by_fitness(cs, 2)]


def test_selection_keeps_all_when_fewer_than_capacity():
    cs = [cand(1, 3, "a"), cand(2, 1, "b")]
    pop = select_next_generation(cs, config(population_size=5, elite_categories=2))
    assert len(pop.members) == 2


def test_selection_tie_breaks_to_lowest_id():
    cs = [cand(1, 7, "a"), cand(2, 7, "a"), cand(3, 7, "b")]
    pop = select_next_generation(cs, config(population_size=2, elite_categories=0))
    # equal fitness and equal crowding-by-lambda? categories differ: |a|=2, |b|=1,
    # so id 3 has the higher diversity term; then lowest id among "a".
    assert pop.members[0].id in (1, 3)
    cs = [cand(1, 7, "a"), cand(2, 7, "a")]
    pop = select_next_generation(cs, config(population_size=1, elite_categories=0))
    assert [c.id for c in pop.members] == [1]


def _random_candidates(rng, max_n=20, max_cats=6):
    n = rng.randint(1, max_n)
    return [
        cand(i, rng.choice([rng.uniform(-100, 100), rng.randint(-5, 5)]),
             f"c{rng.randint(0, max_cats - 1)}")
        for i in range(n)
    ]


def test_selection_degeneracy_matches_oracle_on_random_sets():
    rng = random.Random(42)
    cfg = config(population_size=5, elite_categories=0, lambda_weight=0.0)
    for _ in range(300):
        cs = _random_candidates(rng)
        pop = select_next_generation(cs, cfg)
        assert [c.id for c in pop.members] == [c.id for c in top_n_by_fitness(cs, 5)]


def test_selection_elitism_invariant_random_sets():
    rng = random.Random(7)
    cfg = config(population_size=6, elite_categories=3)
    for _ in range(200):
        cs = _random_candidates(rng)
        pop = select_next_generation(cs, cfg)
        by_cat = {}
        for c in sorted(cs, key=lambda c: (-c.fitness, c.id)):
            by_cat.setdefault(c.category, c)
        top_cats = sorted(by_cat.values(), key=lambda c: (-c.fitness, c.id))[:3]
        selected = {c.id for c in pop.members}
        for elite in top_cats:
            assert elite.id in selected


@given(
    fitness_quarters=st.lists(st.integers(-400, 400), min_size=1, max_size=20),
    shift_quarters=st.integers(-4000, 4000),
    cats=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_selection_invariant_under_fitness_shift(fitness_quarters, shift_quarters, cats):
    # Quarter-integer fitness keeps the normalized scores bitwise stable
    # under shifts, so the selected id set must not change.
    labels = cats.draw(st.lists(st.sampled_from("abc"), min_size=len(fitness_quarters),
                                max_size=len(fitness_quarters)))
    cfg = config(population_size=4, elite_categories=2)
    base = [cand(i, q / 4.0, labels[i]) for i, q in enumerate(fitness_quarters)]
    shifted = [cand(i, q / 4.0 + shift_quarters / 4.0, labels[i])
               for i, q in enumerate(fitness_quarters)]
    ids_a = [c.id for c in select_next_generation(base, cfg).members]
    ids_b = [c.id for c in select_next_generation(shifted, cfg).members]
    assert ids_a == ids_b


def test_population_invariants():
    with pytest.raises(ValueError):
        Population(members=(cand(1, 1), cand(2, 2)), capacity=1)
    with pytest.raises(ValueError):
        Population(members=(cand(1, 1), cand(2, 2)), capacity=5)  # unsorted
    pop = Population.ranked([cand(1, 1), cand(2, 2)], capacity=5)
    assert [c.id for c in pop.members] == [2, 1]


def test_candidate_invariants():
    with pytest.raises(ValueError):
        cand(1, math.inf)
    with pytest.raises(ValueError):
        cand(1, 0.0, category="")


def evaluation(i, category, generation=0, fitness=-1.0):
    return ("evaluation", {"generation": generation, "candidate_id": i, "origin": "init",
                           "parent_id": None, "category": category, "fitness": fitness,
                           "gap_percent": -fitness, "instance_gaps": [-fitness],
                           "reflection_attempts": 0, "thought": f"t{i}", "code": "return 0"})


def test_category_pool_append_only():
    events = [("category-new", {"label": "greedy", "generation": 0}),
              evaluation(1, "greedy"),
              evaluation(2, "greedy"),
              ("category-new", {"label": "dp", "generation": 1}),
              evaluation(3, "dp", generation=1)]
    states = [RunState.from_events({"event": e, "payload": p} for e, p in events[:k])
              for k in range(len(events) + 1)]
    for before, after in zip(states, states[1:]):  # labels are only ever added
        assert set(before.category_counts) <= set(after.category_counts)
        assert before.category_generation.items() <= after.category_generation.items()
    state = states[-1]
    assert state.category_counts == {"greedy": 2, "dp": 1}
    assert state.category_generation == {"greedy": 0, "dp": 1}


def test_run_state_fold_of_a_hand_written_run():
    events = [("sample", {}), evaluation(1, "a", fitness=-3.0),
              ("sample", {}), ("evaluation", {"generation": 0, "error": "bad"}),
              ("sample", {}), evaluation(2, "b", fitness=-2.0),
              ("generation-summary", {"generation": 0}),
              ("sample", {}), evaluation(3, "a", generation=1, fitness=-2.0),
              ("selection", {"generation": 1, "candidate_ids": [2, 1, 3],
                             "selected_ids": [2, 3]}),
              ("generation-summary", {"generation": 1})]
    state = RunState.from_events({"event": e, "payload": p} for e, p in events)
    assert state.samples == 4
    assert sorted(state.candidates) == [1, 2, 3]
    assert [[c.id for c in members] for members in state.populations] == [[2, 1], [2, 3]]
    assert state.best.id == 2  # ties on fitness go to the lower id
    assert state.instance_gaps[3] == [2.0]
    assert state.summaries == [{"generation": 0}, {"generation": 1}]


def test_config_defaults_and_validation():
    cfg = EvolutionConfig()
    assert cfg.population_size == 10
    assert cfg.elite_categories == 4
    assert cfg.lambda_weight == 0.7
    assert cfg.max_samples == 200
    assert cfg.max_generations == 10  # ceil(200 / 20)
    with pytest.raises(ValueError):
        EvolutionConfig(lambda_weight=-1)
    with pytest.raises(ValueError):
        EvolutionConfig(population_size=2, elite_categories=3)


# ---------------------------------------------------------------- engine: init

def init_transcript(n=3, cats=("greedy", "balance", "threshold")):
    tb = TranscriptBuilder()
    tb.add_many("initialization", [ladder_response(t) for t in range(n)])
    tb.add_many("category-induction", list(cats))
    return tb


def test_initialize_scripted_population(scripted):
    provider = scripted(init_transcript())
    engine = EvolutionEngine(config(), provider, ladder_suite())
    pop = engine.initialize()
    assert len(pop.members) == 3
    assert pop.members[0].fitness == ladder_fitness(0)
    assert {c.category for c in pop.members} == {"greedy", "balance", "threshold"}
    assert all(c.origin == "init" for c in pop.members)
    assert engine.state.samples == 3


def test_category_induction_lists_known_labels_sorted(scripted):
    # The known labels are fixed at the start of each wave: the initial
    # population's category calls see none, generation 1's see its three.
    tb = init_transcript(cats=("greedy", "dp", "threshold"))
    tb.add_many("refinement", [ladder_response(t) for t in (3, 4, 5)])
    tb.add_many("innovation", [ladder_response(t) for t in (1, 2, 3)])
    tb.add_many("category-induction", ["greedy"] * 6)
    provider = scripted(tb)
    prompts = {}
    complete = provider.complete

    def recording_complete(prompt, **kw):
        prompts[llm.prompt_key_of(prompt)] = prompt
        return complete(prompt, **kw)

    provider.complete = recording_complete
    EvolutionEngine(config(max_generations=1), provider, ladder_suite()).run()
    induction = [prompts[(PromptKind.CATEGORY_INDUCTION, i)] for i in range(9)]
    assert all("Known categories so far:\n  (none yet)\n" in p for p in induction[:3])
    # labels arrived as greedy, dp, threshold; the prompt lists them sorted
    assert all("Known categories so far:\n  - dp\n  - greedy\n  - threshold\n" in p
               for p in induction[3:])


def test_initialize_default_population_of_ten(scripted):
    tb = TranscriptBuilder()
    tb.add_many("initialization", [ladder_response(t % 6) for t in range(10)])
    tb.add_many("category-induction", [f"cat-{t % 4}" for t in range(10)])
    provider = scripted(tb)
    engine = EvolutionEngine(EvolutionConfig(), provider, ladder_suite())
    pop = engine.initialize()
    assert len(pop.members) == 10
    assert all(c.category and c.fitness <= 0.0 for c in pop.members)
    fits = [c.fitness for c in pop.members]
    assert fits == sorted(fits, reverse=True)


def test_initialize_with_reflection_repair(scripted):
    tb = TranscriptBuilder()
    tb.add("initialization", ladder_response(0))
    tb.add("initialization", ladder_response(1))
    tb.add("initialization", BROKEN_CODE_RESPONSE)  # unknown function
    tb.add("reflection", ladder_response(2, thought="repaired"))
    tb.add_many("category-induction", ["a", "b", "c"])
    provider = scripted(tb)
    engine = EvolutionEngine(config(), provider, ladder_suite())
    pop = engine.initialize()
    assert len(pop.members) == 3
    repaired = [c for c in pop.members if c.origin == "reflection-repair"]
    assert len(repaired) == 1
    assert repaired[0].reflection_attempts == 1
    assert repaired[0].thought == "repaired"
    assert engine.state.samples == 4  # 3 init samples + 1 reflection sample


def test_initialize_budget_exhausted_on_broken_transcript(scripted):
    tb = TranscriptBuilder()
    tb.add_many("initialization", [BROKEN_CODE_RESPONSE] * 5)
    provider = scripted(tb)
    engine = EvolutionEngine(config(reflection_budget=0, max_samples=5), provider, ladder_suite())
    with pytest.raises(BudgetExhaustedError):
        engine.initialize()
    assert engine.state.samples == 5


def test_initialize_max_samples_one(scripted):
    provider = scripted(init_transcript())
    engine = EvolutionEngine(config(max_samples=1), provider, ladder_suite())
    with pytest.raises(BudgetExhaustedError):
        engine.initialize()


# ---------------------------------------------------------------- engine: offspring

def seeded_engine(scripted, tb, **cfg):
    provider = scripted(tb)
    engine = EvolutionEngine(config(**cfg), provider, ladder_suite())
    return engine, provider


def offspring_of_one_generation(engine):
    """Run `engine` (one parent, one generation); the parent and its offspring."""
    engine.run()
    parent, *kids = engine.state.candidates.values()
    assert parent.generation_born == 0 and all(k.generation_born == 1 for k in kids)
    return parent, kids


def test_sample_offspring_both_valid(scripted):
    tb = init_transcript(1, cats=("greedy",))
    tb.add("refinement", ladder_response(1))
    tb.add("innovation", ladder_response(2))
    tb.add_many("category-induction", ["greedy", "novel"])
    engine, _ = seeded_engine(scripted, tb, population_size=1, max_generations=1)
    parent, kids = offspring_of_one_generation(engine)
    assert len(kids) == 2
    assert all(k.parent_id == parent.id for k in kids)
    assert [k.origin for k in kids] == ["refinement", "innovation"]
    assert engine.state.samples == 3


def test_sample_offspring_repair_counts_attempts(scripted):
    tb = init_transcript(1, cats=("greedy",))
    tb.add("refinement", ladder_response(1))
    tb.add("innovation", BROKEN_CODE_RESPONSE)
    tb.add("reflection", BROKEN_CODE_RESPONSE)       # attempt 1 fails
    tb.add("reflection", ladder_response(3))         # attempt 2 repairs
    tb.add_many("category-induction", ["greedy", "x", "y"])
    engine, _ = seeded_engine(scripted, tb, population_size=1, max_generations=1)
    _, kids = offspring_of_one_generation(engine)
    assert len(kids) == 2
    repaired = kids[1]
    assert repaired.origin == "reflection-repair"
    assert repaired.reflection_attempts == 2
    # 1 init + refinement + innovation + 2 reflections
    assert engine.state.samples == 5


def test_sample_offspring_abandoned_beyond_budget(scripted):
    b = 3
    tb = init_transcript(1, cats=("greedy",))
    tb.add("refinement", BROKEN_CODE_RESPONSE)
    tb.add("innovation", BROKEN_CODE_RESPONSE)
    tb.add_many("reflection", [BROKEN_CODE_RESPONSE] * (2 * b))
    engine, provider = seeded_engine(scripted, tb, population_size=1, max_generations=1,
                                     reflection_budget=b)
    _, kids = offspring_of_one_generation(engine)
    assert kids == []
    # 2 + 2B samples consumed by the failed pair, plus the single init sample
    assert engine.state.samples == 1 + 2 + 2 * b
    assert provider.calls_made("reflection") == 2 * b


def test_reflection_disabled_consumes_nothing(scripted):
    tb = init_transcript(1, cats=("greedy",))
    tb.add("refinement", BROKEN_CODE_RESPONSE)
    tb.add("innovation", BROKEN_CODE_RESPONSE)
    engine, provider = seeded_engine(scripted, tb, population_size=1, max_generations=1,
                                     enable_reflection=False)
    _, kids = offspring_of_one_generation(engine)
    assert kids == []  # neither failed offspring is repaired
    assert engine.state.samples == 3  # the init and the two offspring calls only
    assert provider.calls_made("reflection") == 0


def test_no_code_response_goes_to_reflection(scripted):
    tb = TranscriptBuilder()
    tb.add("initialization", NO_CODE_RESPONSE)
    tb.add("reflection", ladder_response(0))
    tb.add("initialization", ladder_response(1))
    tb.add_many("category-induction", ["a", "b"])
    engine, _ = seeded_engine(scripted, tb, population_size=2)
    pop = engine.initialize()
    assert {c.origin for c in pop.members} == {"init", "reflection-repair"}


# ---------------------------------------------------------------- engine: full runs

def three_gen_transcript(n=2):
    """n-member population, 3 generations, categories spread over 5 labels."""
    tb = TranscriptBuilder()
    tb.add_many("initialization", [ladder_response(3), ladder_response(4)])
    tb.add_many("category-induction", ["cat-a", "cat-b"])
    # gen 1: parents are T3 (fit -100) then T4 (-200)
    tb.add("refinement", ladder_response(2))   # parent 1
    tb.add("innovation", ladder_response(5))
    tb.add("refinement", ladder_response(4))   # parent 2
    tb.add("innovation", ladder_response(3))
    tb.add_many("category-induction", ["cat-c", "cat-a", "cat-b", "cat-b"])
    # gen 2
    tb.add("refinement", ladder_response(1))
    tb.add("innovation", ladder_response(5))
    tb.add("refinement", ladder_response(2))
    tb.add("innovation", ladder_response(4))
    tb.add_many("category-induction", ["cat-d", "cat-a", "cat-c", "cat-b"])
    # gen 3
    tb.add("refinement", ladder_response(0))
    tb.add("innovation", ladder_response(2))
    tb.add("refinement", ladder_response(3))
    tb.add("innovation", ladder_response(1))
    tb.add_many("category-induction", ["cat-e", "cat-c", "cat-a", "cat-d"])
    return tb


def test_run_evolution_three_generations(scripted):
    events = []
    provider = scripted(three_gen_transcript())
    cfg = config(population_size=2, elite_categories=2, max_generations=3, max_samples=100)
    engine = EvolutionEngine(cfg, provider, ladder_suite(),
                             log=lambda e, p: events.append((e, p)))
    best = engine.run()
    stats = engine.state.summaries
    assert best.fitness == ladder_fitness(0)
    assert best == engine.state.best
    assert len(stats) == 4  # init + 3 generations
    assert [s["generation"] for s in stats] == [0, 1, 2, 3]
    # monotone best
    fits = [s["best_fitness"] for s in stats]
    assert fits == sorted(fits)
    # offspring cap
    for s in stats[1:]:
        assert s["offspring_added"] <= 2 * cfg.population_size
    # budget accounting: generation calls == sum of samples_used
    n_samples = sum(1 for e, _ in events if e == "sample")
    assert n_samples == sum(s["samples_used"] for s in stats) == engine.state.samples
    assert n_samples <= cfg.max_samples + 1


def test_run_evolution_is_deterministic(scripted, tmp_path):
    cfg = config(population_size=2, elite_categories=2, max_generations=3, max_samples=100)

    def one_run(subdir):
        d = tmp_path / subdir
        d.mkdir()
        provider = three_gen_transcript().provider(d)
        events = []
        engine = EvolutionEngine(cfg, provider, ladder_suite(),
                                 log=lambda e, p: events.append((e, p)))
        best = engine.run()
        return best, engine.state.summaries, events

    best1, stats1, ev1 = one_run("a")
    best2, stats2, ev2 = one_run("b")
    assert best1 == best2
    assert stats1 == stats2
    assert ev1 == ev2


def test_run_evolution_category_pool_growth(scripted):
    provider = scripted(three_gen_transcript())
    cfg = config(population_size=2, elite_categories=2, max_generations=3, max_samples=100)
    engine = EvolutionEngine(cfg, provider, ladder_suite())
    engine.run()
    labels = set(engine.state.category_counts)
    assert labels == {"cat-a", "cat-b", "cat-c", "cat-d", "cat-e"}
    # pool is append-only: every generation's new categories are disjoint
    seen = set()
    for s in engine.state.summaries:
        assert not (set(s["new_categories"]) & seen)
        seen |= set(s["new_categories"])
    assert seen == labels


def test_run_evolution_nocategory_reduces_to_pure_fitness(scripted, tmp_path):
    cfg = config(population_size=2, elite_categories=2, max_generations=3,
                 max_samples=100, enable_categories=False)
    d = tmp_path / "nocat"
    d.mkdir()
    provider = three_gen_transcript().provider(d)
    events = []
    engine = EvolutionEngine(cfg, provider, ladder_suite(),
                             log=lambda e, p: events.append((e, p)))
    engine.run()
    assert provider.calls_made("category-induction") == 0
    assert engine.state.populations
    assert all(c.category == "all" for members in engine.state.populations for c in members)
    # every selection equals the top-N oracle over its candidate set
    by_id = {}
    for e, p in events:
        if e == "evaluation" and "candidate_id" in p:
            by_id[p["candidate_id"]] = p["fitness"]
    sel_events = [p for e, p in events if e == "selection"]
    assert sel_events
    for sel in sel_events:
        cands = [cand(i, by_id[i], "all") for i in sel["candidate_ids"]]
        expect = [c.id for c in top_n_by_fitness(cands, cfg.population_size)]
        assert sel["selected_ids"] == expect


def test_run_evolution_budget_cuts_generation(scripted):
    cfg = config(population_size=2, elite_categories=2, max_generations=3, max_samples=4)
    provider = scripted(three_gen_transcript())
    engine = EvolutionEngine(cfg, provider, ladder_suite())
    engine.run()
    stats = engine.state.summaries
    # 2 init samples + 2 offspring samples, then the budget stops everything
    assert sum(s["samples_used"] for s in stats) == 4
    assert stats[-1]["generation"] <= 3


def test_run_evolution_reuses_cached_fitness(scripted):
    # Parents are never re-evaluated: with 3 generations and 2 members the
    # provider sees exactly 2 + 3*4 = 14 generation calls.
    provider = scripted(three_gen_transcript())
    cfg = config(population_size=2, elite_categories=2, max_generations=3, max_samples=100)
    EvolutionEngine(cfg, provider, ladder_suite()).run()
    total = (provider.calls_made("initialization") + provider.calls_made("refinement")
             + provider.calls_made("innovation") + provider.calls_made("reflection"))
    assert total == 14


def test_run_scores_each_distinct_tree_once_and_as_a_fresh_evaluation(scripted, monkeypatch):
    ladder_1 = ladder_program(1)
    ladder_1_spaced = ("return where( ( cap_remaining>1 ),0-(cap_remaining -item) ,"
                       "\n  log( 0-cap_remaining ) )")
    commits = [  # (kind, thought, code) in the order the engine commits them
        ("initialization", "a", ladder_1),
        ("initialization", "a, spaced", ladder_1_spaced),
        # generation 1, parent 1
        ("refinement", "scalar", "return item"),  # CandidateFailure
        ("reflection", "scalar again", "return   item"),
        ("reflection", "worst fit", "return cap_remaining + item"),
        ("innovation", "worst fit, swapped", "return item + cap_remaining"),
        # generation 1, parent 2
        ("refinement", "scalar", "return item"),
        ("reflection", "back to a", ladder_1),
        ("innovation", "b", ladder_program(2)),
    ]
    tb = TranscriptBuilder()
    for kind, thought, code in commits:
        tb.add(kind, wrap_generation(thought, code))
    tb.add_many("category-induction", ["x", "y", "x", "z", "y", "x"])
    provider = scripted(tb)
    suite = problems.BenchmarkSuite("obp", (ladder_instance(), problems.gen_obp(1, 40, 50)),
                                    ("ladder", "40C50"))

    parse, submit = dsl.parse, ProcessPoolExecutor.submit
    sig = problems.input_signature("obp")
    parsed, simulated = [], []  # codes the engine parsed; (instance, tree) it sent to a worker

    def recording_parse(code, inputs=None):
        parsed.append(code)
        return parse(code, inputs)

    def counting_submit(pool, fn, *args, **kwargs):
        if fn is evolution._simulate:
            index, code = args
            simulated.append((index, dsl.pretty_print(parse(code, sig))))
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(dsl, "parse", recording_parse)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    events = []
    cfg = config(population_size=2, elite_categories=2, max_generations=1, max_samples=100)
    EvolutionEngine(cfg, provider, suite, log=lambda e, p: events.append((e, p))).run()
    monkeypatch.undo()

    assert sorted(parsed) == sorted(code for *_, code in commits)  # each response once
    keys = {dsl.pretty_print(dsl.parse(code, sig)) for code in parsed}
    assert len(keys) == 5  # ladder 1 (3 copies), `item` (3), both sums, ladder 2
    # each distinct tree simulated once on each instance
    assert sorted(simulated) == sorted((i, key) for key in keys for i in (0, 1))
    assert provider.calls_made("category-induction") == 6  # every success is labelled
    evaluations = [p for e, p in events if e == "evaluation"]
    assert len(evaluations) == len(commits)
    for (*_, code), payload in zip(commits, evaluations):
        try:
            want = problems.evaluate_candidate(suite, dsl.parse(code, sig))
        except CandidateFailure as e:
            assert payload["error"] == str(e)
            continue
        assert "error" not in payload
        assert payload["fitness"].hex() == want.fitness.hex()
        assert payload["gap_percent"].hex() == want.gap_percent.hex()
        assert ([g.hex() for g in payload["instance_gaps"]]
                == [r.gap_percent.hex() for r in want.per_instance])
    assert sum("error" in p for p in evaluations) == 3


@pytest.mark.parametrize("code", [ladder_program(1), "return item"])  # passes; CandidateFailure
def test_worker_parses_each_program_once_for_all_its_instances(code, monkeypatch):
    suite = problems.BenchmarkSuite("obp", (ladder_instance(), problems.gen_obp(1, 40, 50)),
                                    ("ladder", "40C50"))
    parse = dsl.parse
    parsed = []

    def recording_parse(code, inputs=None):
        parsed.append(code)
        return parse(code, inputs)

    evolution._program.cache_clear()
    monkeypatch.setattr(evolution, "_worker_suite", suite)  # as a worker after `_start_worker`
    monkeypatch.setattr(dsl, "parse", recording_parse)
    try:
        results = [evolution._simulate(i, code) for _ in range(2) for i in (0, 1)]
    finally:
        evolution._program.cache_clear()
    monkeypatch.undo()

    assert parsed == [code]
    for index, got in zip((0, 1, 0, 1), results):
        try:
            want = problems.simulate_instance(suite, index, parse(code, problems.OBP_INPUTS))
        except CandidateFailure as e:
            want = str(e)
        assert got == want
    assert isinstance(results[0], str) == (code == "return item")


# ---------------------------------------------------------------- engine: concurrent waves

WAIT_S = 5.0  # bounds every wait between two provider calls, so a serial engine fails, not hangs


def mixed_transcript() -> TranscriptBuilder:
    """Two generations of 2 with parse failures, repairs, a repeated program and
    a reflection loop that gives up."""
    tb = TranscriptBuilder()
    tb.add("initialization", ladder_response(3))
    tb.add("initialization", NO_CODE_RESPONSE)
    tb.add("reflection", ladder_response(4, thought="repaired"))
    # generation 1
    tb.add("refinement", ladder_response(2))
    tb.add("innovation", BROKEN_CODE_RESPONSE)
    tb.add("reflection", BROKEN_CODE_RESPONSE)
    tb.add("reflection", ladder_response(1))
    tb.add("refinement", ladder_response(5))
    tb.add("innovation", ladder_response(0))
    # generation 2
    tb.add("refinement", ladder_response(1))
    tb.add("innovation", BROKEN_CODE_RESPONSE)
    tb.add_many("reflection", [BROKEN_CODE_RESPONSE] * 2)
    tb.add("refinement", ladder_response(2))
    tb.add("innovation", ladder_response(3))
    tb.add_many("category-induction", ["greedy", "balance", "greedy", "threshold", "x",
                                       "balance", "y", "greedy", "z", "threshold"])
    return tb


def mixed_config(**kw) -> EvolutionConfig:
    return config(population_size=2, elite_categories=2, max_generations=2,
                  reflection_budget=2, **kw)


class ThreadedProvider(ScriptedProvider):
    """A scripted provider that records what a concurrent engine does to it.

    With `delay_seed` set, each call first sleeps a delay drawn from
    (seed, kind, call index), so it depends on the call, not on its timing;
    some delays fall below POOL_MIN_S and some above.  `delay_s` fixes the
    delay instead, and `delays` fixes it for the calls it names by (kind,
    call index, variation seed).  With `answers` set, a prompt not in it
    misses the transcript.
    """

    def __init__(self, path, delay_seed: int | None = None, delay_s: float | None = None,
                 delays: dict[tuple[str, int, int], float] | None = None,
                 answers: set[str] | None = None):
        super().__init__(path)
        self.delay_seed = delay_seed
        self.delay_s = delay_s
        self.delays = delays or {}
        self.answers = answers
        self.caller = threading.current_thread()
        # (kind, index, prompt, seed, temperature) of each call, in the order made
        self.calls: list[tuple[str, int, str, int, float | None]] = []
        self.pool_calls: list[tuple[str, int]] = []  # (kind, index) of each call made on the pool
        # ("start" or "end", kind, call index, variation seed) of each call, in order
        self.order: list[tuple[str, str, int, int]] = []
        self.thread_names: set[str] = set()
        self.in_flight: list[tuple[str, bool]] = []  # (kind, made on the pool) per call
        self.max_in_flight = self.max_on_pool = 0
        self.same_kind_overlaps = 0
        self._lock = threading.Lock()

    def complete(self, prompt, seed=0, temperature=None):
        kind, index = llm.prompt_key_of(prompt)
        call = (kind.value, threading.current_thread() is not self.caller)
        with self._lock:
            self.same_kind_overlaps += any(k == kind.value for k, _ in self.in_flight)
            self.in_flight.append(call)
            self.max_in_flight = max(self.max_in_flight, len(self.in_flight))
            self.max_on_pool = max(self.max_on_pool, sum(pool for _, pool in self.in_flight))
            self.calls.append((kind.value, index, prompt, seed, temperature))
            self.order.append(("start", kind.value, index, seed))
            if call[1]:
                self.pool_calls.append((kind.value, index))
            self.thread_names.add(threading.current_thread().name)
        try:
            delay = self.delays.get((kind.value, index, seed), self.delay_s)
            if delay is not None:
                time.sleep(delay)
            elif self.delay_seed is not None:
                rng = random.Random(f"{self.delay_seed}:{kind.value}:{index}")
                time.sleep(rng.uniform(evolution.POOL_MIN_S / 2, 6 * evolution.POOL_MIN_S))
            if self.answers is not None and prompt not in self.answers:
                raise ProviderError("transcript-miss", f"no answer for this {kind.value} prompt")
            return super().complete(prompt, seed=seed, temperature=temperature)
        finally:
            with self._lock:
                self.in_flight.remove(call)
                self.order.append(("end", kind.value, index, seed))

    def started_before_end(self, call: tuple[str, int, int], other: tuple[str, int, int]) -> bool:
        """Whether the call `call` (kind, call index, variation seed) started
        before the call `other` returned."""
        return self.order.index(("start", *call)) < self.order.index(("end", *other))


def uncommitted_calls(events, serial: ThreadedProvider, delayed: ThreadedProvider) -> list:
    """The calls of `delayed` whose responses its run did not commit, once it is
    checked that `delayed` made each call that `serial` committed, with the same
    prompt, seed and temperature, and each of those prompts once.  `events` is
    the event stream of both runs."""
    used = Counter(p["kind"] for e, p in events if e == "sample")
    used["category-induction"] = sum(e == "evaluation" and "candidate_id" in p for e, p in events)
    committed = Counter(call for call in serial.calls if call[1] < used[call[0]])
    assert not committed - Counter(delayed.calls)
    extra = list((Counter(delayed.calls) - committed).elements())
    prompts = {prompt for _, _, prompt, *_ in committed}
    for kind, index, prompt, *_ in extra:
        assert prompt not in prompts, (kind, index)
        # a guessed reflection, or a request past the point where the budget ran out
        assert kind == "reflection" or index >= used[kind], (kind, index)
    return extra


def logged_run(provider, cfg) -> list[tuple[str, dict]]:
    events = []
    EvolutionEngine(cfg, provider, ladder_suite(), log=lambda e, p: events.append((e, p))).run()
    return events


def test_category_call_overlaps_the_next_generation_call(tmp_path):
    class FirstCategoryWaitsForGeneration(ScriptedProvider):
        """The first category call returns once the second initialization call
        has started; that call waits until the category call has started.
        Generation calls are slow enough to go to the pool."""
        overlapped = None

        def complete(self, prompt, seed=0, temperature=None):
            key = llm.prompt_key_of(prompt)
            if key == (PromptKind.CATEGORY_INDUCTION, 0):
                category_started.set()
                self.overlapped = generation_started.wait(WAIT_S)
            elif key[0] is not PromptKind.CATEGORY_INDUCTION:
                if key == (PromptKind.INITIALIZATION, 1):
                    generation_started.set()
                    category_started.wait(WAIT_S)
                time.sleep(2 * evolution.POOL_MIN_S)
            return super().complete(prompt, seed=seed, temperature=temperature)

    category_started, generation_started = threading.Event(), threading.Event()
    provider = FirstCategoryWaitsForGeneration(three_gen_transcript().write(tmp_path / "t.jsonl"))
    cfg = config(population_size=2, elite_categories=2, max_generations=3, max_samples=100)
    start = time.monotonic()
    EvolutionEngine(cfg, provider, ladder_suite()).run()
    assert provider.overlapped is True
    assert time.monotonic() - start < WAIT_S


def wide_transcript(n: int) -> TranscriptBuilder:
    """A population of n and one generation of valid responses."""
    tb = TranscriptBuilder()
    for kind in ("initialization", "refinement", "innovation"):
        tb.add_many(kind, [ladder_response(t % 6) for t in range(n)])
    tb.add_many("category-induction", [f"cat-{t % 4}" for t in range(3 * n)])
    return tb


@pytest.mark.parametrize("limit", [3, evolution.MAX_IN_FLIGHT])
def test_calls_of_one_kind_overlap_and_at_most_max_in_flight_run_on_the_pool(
        tmp_path, monkeypatch, limit):
    monkeypatch.setattr(evolution, "MAX_IN_FLIGHT", limit)
    n = 9  # 18 requests in generation 1, more than either limit
    provider = ThreadedProvider(wide_transcript(n).write(tmp_path / "t.jsonl"), delay_s=0.1)
    logged_run(provider, config(population_size=n, max_generations=1))
    assert provider.same_kind_overlaps > 0
    assert provider.max_on_pool == limit  # every call is slow enough to fill the pool
    assert provider.max_in_flight == limit  # no reflection on the caller's thread here


@pytest.mark.parametrize("delay_seed", [1, 2, 3])
def test_random_call_delays_leave_events_and_prompts_unchanged(tmp_path, monkeypatch,
                                                                delay_seed):
    path = mixed_transcript().write(tmp_path / "t.jsonl")
    monkeypatch.setattr(evolution, "MAX_IN_FLIGHT", 1)
    instant = ThreadedProvider(path)
    want = logged_run(instant, mixed_config())
    assert uncommitted_calls(want, instant, instant) == []  # the budget never runs out
    for limit in (1, 2, 8, 16):
        monkeypatch.setattr(evolution, "MAX_IN_FLIGHT", limit)
        delayed = ThreadedProvider(path, delay_seed)
        assert logged_run(delayed, mixed_config()) == want, limit
        # Every call of the instant run, and besides them only guessed reflections.
        extra = uncommitted_calls(want, instant, delayed)
        assert [kind for kind, *_ in extra] == ["reflection"] * len(extra), limit
        assert sum(map(delayed.calls_made, PromptKind)) == len(delayed.calls)  # none lost
    assert {"repaired", "abandoned"} <= {p["outcome"] for e, p in want if e == "reflection"}


def calls_the_events_give(events, cfg: EvolutionConfig, temperature: float) -> list:
    """The (kind, index, seed, temperature, code shown) of each committed call,
    worked out from the events alone; the code is that of a category call's
    candidate, else None.

    A call's index counts the samples of its kind before it, and a category
    call's is its candidate's id minus 1.  A reflection's seed is `rng_seed`
    plus its sample index, a category call's `rng_seed` plus the samples
    before its evaluation, and a wave request's `rng_seed` plus the samples
    before its wave plus its position in the wave.  A wave is the initial
    requests still missing, or a generation's 2N offspring requests."""
    calls, per_kind, n = [], Counter(), cfg.population_size
    samples = born = wave_left = position = wave_start = 0
    wave_generation = None
    for event, p in events:
        if event == "sample":
            kind = p["kind"]
            if kind == "reflection":
                seed, called_at = cfg.rng_seed + p["sample_index"], llm.DETERMINISTIC_TEMPERATURE
            else:
                if wave_left == 0 or p["generation"] != wave_generation:
                    wave_generation, wave_start, position = p["generation"], samples, 0
                    wave_left = n - born if p["generation"] == 0 else 2 * n
                seed, called_at = cfg.rng_seed + wave_start + position, temperature
                position, wave_left = position + 1, wave_left - 1
            calls.append((kind, per_kind[kind], seed, called_at, None))
            per_kind[kind] += 1
            samples += 1
        elif event == "evaluation" and "candidate_id" in p:
            born += p["generation"] == 0
            calls.append(("category-induction", p["candidate_id"] - 1, cfg.rng_seed + samples,
                          llm.DETERMINISTIC_TEMPERATURE, p["code"]))
    return calls


@pytest.mark.parametrize("limit", [1, evolution.MAX_IN_FLIGHT])
def test_each_committed_call_has_the_key_the_events_give(tmp_path, monkeypatch, limit):
    """Checked against the events, not against a second run of the same code, so
    a change of the rule on both sides shows too."""
    monkeypatch.setattr(evolution, "MAX_IN_FLIGHT", limit)
    provider = ThreadedProvider(mixed_transcript().write(tmp_path / "t.jsonl"), delay_seed=1)
    provider.config.temperature = 0.7
    cfg = mixed_config()
    events = logged_run(provider, cfg)
    made = {}  # (kind, index, seed) -> [(prompt, temperature)] of each call made
    for kind, index, prompt, seed, temperature in provider.calls:
        made.setdefault((kind, index, seed), []).append((prompt, temperature))
    want = calls_the_events_give(events, cfg, 0.7)
    assert Counter(kind for kind, *_ in want) == {
        "initialization": 2, "refinement": 4, "innovation": 4, "reflection": 5,
        "category-induction": 9}
    for kind, index, seed, temperature, code in want:
        (prompt, called_at), = made[kind, index, seed]
        assert called_at == temperature, (kind, index)
        if code is not None:
            assert f"Current algorithm code:\n```\n{code}\n```" in prompt, index


@pytest.mark.parametrize("limit", [1, 8])
def test_budget_spent_mid_wave_on_an_exact_length_transcript_ends_normally(
        tmp_path, monkeypatch, limit):
    # 12 samples: generation 2 plans 3 requests, but the innovation's
    # reflections spend the budget before the third is committed.
    cfg = mixed_config(max_samples=12)
    full = mixed_transcript()
    monkeypatch.setattr(evolution, "MAX_IN_FLIGHT", 1)
    want = logged_run(ScriptedProvider(full.write(tmp_path / "full.jsonl")), cfg)
    used = Counter(p["kind"] for e, p in want if e == "sample")
    used["category-induction"] = sum(e == "evaluation" and "candidate_id" in p for e, p in want)
    exact = TranscriptBuilder()
    exact.entries = [e for e in full.entries if e[1] < used[e[0]]]
    dropped = {e[:2] for e in full.entries} - {e[:2] for e in exact.entries}
    assert ("refinement", 3) in dropped  # planned in generation 2, never committed
    monkeypatch.setattr(evolution, "MAX_IN_FLIGHT", limit)
    provider = ThreadedProvider(exact.write(tmp_path / "exact.jsonl"))
    assert logged_run(provider, cfg) == want
    assert want[-1][0] == "generation-summary" and want[-1][1]["cumulative_samples"] == 12


def two_failures_transcript(b_reflections=(BROKEN_CODE_RESPONSE, ladder_response(1))
                            ) -> TranscriptBuilder:
    """A population of 2 whose generation 1 plans A, B, C, D: B fails and is
    repaired by the last of `b_reflections`, C fails and is repaired by its
    first.  Every entry is used by a run of 100 samples and a reflection
    budget of len(b_reflections)."""
    tb = TranscriptBuilder()
    tb.add_many("initialization", [ladder_response(3), ladder_response(4)])
    tb.add("refinement", ladder_response(2))  # A
    tb.add("innovation", BROKEN_CODE_RESPONSE)  # B
    tb.add("refinement", BROKEN_CODE_RESPONSE)  # C
    tb.add("innovation", ladder_response(0))  # D
    tb.add_many("reflection", [*b_reflections, ladder_response(5)])
    tb.add_many("category-induction", ["greedy", "balance", "greedy", "x", "y", "threshold"])
    return tb


TWO_FAILURES_CONFIG = dict(population_size=2, elite_categories=2, max_generations=1,
                           reflection_budget=2, max_samples=100)

# Calls by (kind, index, variation seed).  A and B's first reflection are slow,
# so the walk made while the caller waits for A finds B and C failed while B's
# reflection is in flight.  It counts B's chain as one call and sends C's first
# reflection as call 1 at seed 7; a run making one call at a time sends it as
# call 2 at seed 8, after B's second reflection (call 1, seed 6).
A_CALL, B_FIRST_REFLECTION, C_GUESS = ("refinement", 0, 2), ("reflection", 0, 5), ("reflection", 1, 7)
SLOW_CALLS = {A_CALL: 0.06, B_FIRST_REFLECTION: 0.06}


def cli_run(run_dir, monkeypatch, capsys, provider, evolution_config: dict) -> dict:
    """`cdeoh run` of the ladder suite answered by `provider`: its exit code,
    error output, events minus `ts` and best.json."""
    monkeypatch.setattr(llm, "make_provider", lambda config: provider)
    monkeypatch.setattr(cli.ObpSuiteConfig, "build", lambda self: ladder_suite())
    run_dir.mkdir()
    config = run_dir / "config.json"
    config.write_text(json.dumps({
        "task": "obp", "evolution": evolution_config, "output_dir": str(run_dir / "runs"),
        "provider": {"provider": "scripted", "transcript_path": provider.config.transcript_path}}))
    capsys.readouterr()
    code = cli.main(["run", str(config)])
    (out,) = (run_dir / "runs").iterdir()
    best = out / "best.json"
    return {"exit": code, "error": capsys.readouterr().err,
            "events": cli.strip_timestamps(cli.read_events(out / "events.jsonl")),
            "best.json": best.read_text() if best.exists() else None}


def serial_and_delayed_runs(tmp_path, monkeypatch, capsys, tb: TranscriptBuilder, cfg: dict,
                            delays: dict, exact: bool = False):
    """`cli_run` of `tb` at MAX_IN_FLIGHT 1 on an instant provider, and at the
    default on one that waits `delays` (2 * POOL_MIN_S for other calls) and,
    if `exact`, answers only the prompts of the first run; checked equal.  The
    first run's result and events, the second provider and the calls it was
    sent that its run did not commit."""
    path = tb.write(tmp_path / "t.jsonl")
    default = evolution.MAX_IN_FLIGHT
    monkeypatch.setattr(evolution, "MAX_IN_FLIGHT", 1)
    serial = ThreadedProvider(path)
    want = cli_run(tmp_path / "serial", monkeypatch, capsys, serial, cfg)
    monkeypatch.setattr(evolution, "MAX_IN_FLIGHT", default)
    answers = {prompt for _, _, prompt, *_ in serial.calls} if exact else None
    delayed = ThreadedProvider(path, delay_s=2 * evolution.POOL_MIN_S, delays=delays,
                               answers=answers)
    assert cli_run(tmp_path / "delayed", monkeypatch, capsys, delayed, cfg) == want
    events = [(e["event"], e["payload"]) for e in want["events"]]
    return want, events, delayed, uncommitted_calls(events, serial, delayed)


PREFETCH_CASES = {
    # C's guess is dropped, and C's first reflection is sent again when it is known
    "wrong-guess": {},
    # the budget runs out inside B's chain (4, 5), at C (6), inside C's chain (7)
    # and at D (8)
    **{f"budget-{n}": {"max_samples": n} for n in range(4, 9)},
    # C's guess misses a provider that answers only the prompts of a serial run
    "exact-prompts": {"exact": True},
    # B's first reflection, prefetched and used, misses the transcript and ends the run
    "used-prefetch-raises": {"missing": ("reflection", 0)},
}


@pytest.mark.parametrize("case", PREFETCH_CASES)
def test_wrongly_guessed_or_failing_prefetches_leave_the_run_of_one_call_at_a_time(
        tmp_path, monkeypatch, capsys, case):
    opts = PREFETCH_CASES[case]
    tb = two_failures_transcript()
    tb.entries = [e for e in tb.entries if e[:2] != opts.get("missing")]
    cfg = {**TWO_FAILURES_CONFIG, "max_samples": opts.get("max_samples", 100)}
    want, events, delayed, extra = serial_and_delayed_runs(
        tmp_path, monkeypatch, capsys, tb, cfg, SLOW_CALLS, opts.get("exact", False))
    guesses = [(kind, index, seed) for kind, index, _, seed, _ in extra if kind == "reflection"]
    if case != "budget-4":  # B's chain ends before its first reflection there
        assert ("reflection", 0) in delayed.pool_calls  # B's first reflection was prefetched
    # the walk stops where the budget would be spent, so it guesses for C only from 7 on
    assert guesses == ([C_GUESS] if cfg["max_samples"] >= 7 else [])
    if case in ("wrong-guess", "exact-prompts"):
        assert want["exit"] == 0 and want["best.json"] is not None
        assert ("reflection", 2) in delayed.pool_calls  # C's first reflection, sent again
    elif case == "used-prefetch-raises":
        assert want["exit"] == 1
        assert "no transcript entry for kind='reflection' index=0" in want["error"]
    else:
        assert events[-1][1]["cumulative_samples"] == opts["max_samples"]


# B's first reflection fails, its second gives no code (so the third prompt
# still shows the first one's program) and its third repairs: samples 5, 6 and 7 at seeds 5, 6
# and 7.  C is sample 8 and its reflection, call 3, sample 9.
DEEP_CHAIN_CASES = {
    "deep-chain": {},
    # C's guesses miss a provider that answers only the prompts of a serial run
    "deep-chain-exact-prompts": {"exact": True},
    # the budget runs out inside B's chain (5, 6), at its repair (7), at C (8)
    # and at C's repair (9)
    **{f"deep-chain-budget-{n}": {"max_samples": n} for n in range(5, 10)},
}


@pytest.mark.parametrize("case", DEEP_CHAIN_CASES)
def test_reflection_chains_are_sent_ahead_attempt_by_attempt(tmp_path, monkeypatch, capsys,
                                                             case):
    """While the caller waits for A's slow response, each of B's attempts is
    sent as soon as the one before it has failed; the run stays that of one
    call at a time."""
    opts = DEEP_CHAIN_CASES[case]
    tb = two_failures_transcript(b_reflections=(BROKEN_CODE_RESPONSE, NO_CODE_RESPONSE,
                                                ladder_response(1)))
    cfg = {**TWO_FAILURES_CONFIG, "reflection_budget": 3,
           "max_samples": opts.get("max_samples", 100)}
    want, events, delayed, extra = serial_and_delayed_runs(
        tmp_path, monkeypatch, capsys, tb, cfg, {A_CALL: 0.3}, opts.get("exact", False))
    assert want["exit"] == 0 and want["best.json"] is not None
    reflections = [p for e, p in events if e == "reflection"]
    b_attempts = min(3, cfg["max_samples"] - 4)
    assert [p["outcome"] for p in reflections[:b_attempts]] == [
        "failed", "failed", "repaired"][:b_attempts]
    for attempt in range(b_attempts):
        call = ("reflection", attempt, 5 + attempt)
        assert ("reflection", attempt) in delayed.pool_calls
        assert delayed.started_before_end(call, A_CALL), call
    # besides the requests past the budget, only guesses of C's reflection made
    # before B's chain was known
    guesses = {(kind, index) for kind, index, *_ in extra if kind == "reflection"}
    assert guesses <= {("reflection", 1), ("reflection", 2)}


def test_arrivals_are_served_while_the_caller_waits(tmp_path, monkeypatch):
    """A fails and its reflection is slow; C's response arrives only while the
    caller waits for that reflection.  C's first reflection is sent before A's
    reflection returns, so before A's chain is committed."""
    tb = TranscriptBuilder()
    tb.add_many("initialization", [ladder_response(3), ladder_response(4)])
    tb.add("refinement", BROKEN_CODE_RESPONSE)  # A
    tb.add("innovation", ladder_response(2))  # B
    tb.add("refinement", BROKEN_CODE_RESPONSE)  # C
    tb.add("innovation", ladder_response(0))  # D
    tb.add_many("reflection", [ladder_response(1), ladder_response(5)])
    tb.add_many("category-induction", ["greedy", "balance", "greedy", "x", "y", "threshold"])
    path = tb.write(tmp_path / "t.jsonl")
    cfg = config(**TWO_FAILURES_CONFIG)
    # samples: A 3, A's reflection 4, B 5, C 6 and C's reflection 7
    a_reflection, c_call, c_reflection = ("reflection", 0, 4), ("refinement", 1, 4), ("reflection", 1, 7)
    monkeypatch.setattr(evolution, "MAX_IN_FLIGHT", 1)
    want = logged_run(ThreadedProvider(path), cfg)
    monkeypatch.undo()
    delayed = ThreadedProvider(path, delay_s=2 * evolution.POOL_MIN_S,
                               delays={a_reflection: 0.5, c_call: 0.1})
    assert logged_run(delayed, cfg) == want
    # C arrived after A's reflection was sent, so only a walk made in the wait can see it
    assert delayed.order.index(("start", *a_reflection)) < delayed.order.index(("end", *c_call))
    assert delayed.started_before_end(c_reflection, a_reflection)


def test_the_caller_sleeps_while_it_waits(tmp_path):
    """No busy wait: with every call taking 30 ms, the caller's thread is on a
    CPU for under a fifth of the run."""
    provider = ThreadedProvider(mixed_transcript().write(tmp_path / "t.jsonl"), delay_s=0.03)
    wall, cpu = time.perf_counter(), time.thread_time()
    logged_run(provider, mixed_config())
    wall, cpu = time.perf_counter() - wall, time.thread_time() - cpu
    assert cpu < 0.2 * wall, (cpu, wall)


def test_instant_provider_makes_every_category_call_on_the_callers_thread(tmp_path,
                                                                          monkeypatch):
    # A scripted call takes microseconds, but a pause of the process can stretch
    # one past 1 ms (seen in about 1 run in 300); a wide threshold keeps every
    # call below it, so every call is made on the caller's thread.
    monkeypatch.setattr(evolution, "POOL_MIN_S", 1.0)
    provider = ThreadedProvider(mixed_transcript().write(tmp_path / "t.jsonl"))
    logged_run(provider, mixed_config())
    assert sum(kind == "category-induction" for kind, *_ in provider.calls) == 9
    assert provider.thread_names == {threading.current_thread().name}


def _worker_threads() -> list[threading.Thread]:
    # The executor names its threads with this prefix, e.g. "cdeoh-call_0".
    return [t for t in threading.enumerate() if t.name.startswith("cdeoh-")]


def test_instant_provider_run_starts_no_worker_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(evolution, "POOL_MIN_S", 1.0)  # as in the test above

    class WorkerWatcher(ThreadedProvider):
        def complete(self, prompt, seed=0, temperature=None):
            workers_seen.extend(_worker_threads())
            return super().complete(prompt, seed=seed, temperature=temperature)

    workers_seen: list[threading.Thread] = []
    provider = WorkerWatcher(mixed_transcript().write(tmp_path / "t.jsonl"))
    logged_run(provider, mixed_config())
    assert len(provider.calls) > 0
    assert workers_seen == []


def test_no_worker_thread_outlives_run(tmp_path, monkeypatch):
    """No thread or simulation worker of the engine outlives `run` or
    `initialize`, whether it returns or raises, also while prefetched
    reflection calls are in flight, and every worker is forked while no thread
    of the engine is alive."""
    fork, forks = os.fork, []  # the names of the threads alive at each fork

    def recording_fork():
        forks.append([t.name for t in threading.enumerate()])
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    baseline = threading.active_count()
    tb = mixed_transcript()
    missing_innovation = TranscriptBuilder()
    missing_innovation.entries = [e for e in tb.entries if e[:2] != ("innovation", 1)]
    broken = TranscriptBuilder().add_many("initialization", [BROKEN_CODE_RESPONSE] * 4)
    broken.add_many("reflection", [BROKEN_CODE_RESPONSE] * 12)
    two_failures = two_failures_transcript()
    missing_reflection = TranscriptBuilder()
    missing_reflection.entries = [e for e in two_failures.entries if e[:2] != ("reflection", 0)]
    # C's guess outlasts the run, which B's missing reflection may end.
    guess_in_flight = {**SLOW_CALLS, C_GUESS: 0.5}
    # Three failing initializations, reflection budget 2 and 7 samples: the walk
    # before the second's commit sends the third's first reflection as call 3
    # at seed 7; the second's chain takes call 3 at seed 6, and the budget ends
    # before the third's chain.
    init_guess_in_flight = {("reflection", 0, 2): 0.06, ("reflection", 2, 5): 0.06,
                            ("reflection", 3, 7): 0.5}
    cases = (  # transcript, config, delays (None: random), error, entry point
        (tb, mixed_config(), None, None, EvolutionEngine.run),
        (missing_innovation, mixed_config(), None, ProviderError, EvolutionEngine.run),
        (broken, mixed_config(max_samples=8), None, BudgetExhaustedError,
         EvolutionEngine.initialize),
        (two_failures, config(**TWO_FAILURES_CONFIG), guess_in_flight, None, EvolutionEngine.run),
        (missing_reflection, config(**TWO_FAILURES_CONFIG), guess_in_flight, ProviderError,
         EvolutionEngine.run),
        (broken, config(population_size=3, reflection_budget=2, max_samples=7),
         init_guess_in_flight, BudgetExhaustedError, EvolutionEngine.initialize))
    for transcript, cfg, delays, error, start in cases:
        forks.clear()
        path = transcript.write(tmp_path / "t.jsonl")
        if delays is None:
            provider = ThreadedProvider(path, delay_seed=1)
        else:
            provider = ThreadedProvider(path, delay_s=2 * evolution.POOL_MIN_S, delays=delays)
        in_flight = []  # the calls in flight at each event
        engine = EvolutionEngine(cfg, provider, ladder_suite(),
                                 log=lambda e, p: in_flight.append(list(provider.in_flight)))
        with pytest.raises(error) if error else contextlib.nullcontext():
            start(engine)
        if delays is not None:  # a prefetched reflection was in flight when it ended
            assert ("reflection", True) in in_flight[-1], error
        assert any(name.startswith("cdeoh-call") for name in provider.thread_names), error
        assert len(forks) == evolution.SIM_WORKERS, error
        assert not [name for names in forks for name in names if name.startswith("cdeoh-")]
        assert multiprocessing.active_children() == [], error
        assert threading.active_count() == baseline, error
        assert _worker_threads() == [], error


_KILLED_RUN = """
import multiprocessing, sys, time
from cdeoh import evolution, llm, problems

class Blocking:
    config = llm.ProviderConfig(transcript_path="unused")

    def complete(self, prompt, seed=0, temperature=None):
        print(*[p.pid for p in multiprocessing.active_children()], flush=True)
        time.sleep(60)

suite = problems.make_obp_suite([20], [50], [1])
evolution.EvolutionEngine(evolution.EvolutionConfig(), Blocking(), suite).run()
"""


def test_no_worker_outlives_a_killed_run(tmp_path):
    """A run killed before it can join its workers still leaves none running:
    each dies (a zombie until reaped) with the thread that forked it."""
    src = os.path.dirname(os.path.dirname(evolution.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-c", _KILLED_RUN], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, text=True) as run:
        try:
            workers = [int(pid) for pid in run.stdout.readline().split()]
        finally:
            run.kill()
            run.wait(WAIT_S)
    assert len(workers) == evolution.SIM_WORKERS

    def running(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + WAIT_S
    while any(map(running, workers)) and time.monotonic() < deadline:
        time.sleep(0.01)
    survivors = [pid for pid in workers if running(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == []


def test_generation_error_while_a_category_call_is_in_flight_keeps_its_events(tmp_path):
    """The failing call raises while the refinement child's category call is
    still running; that child's events still precede the failing `sample`."""

    class SlowCategoryThenMissingInnovation(ScriptedProvider):
        def complete(self, prompt, seed=0, temperature=None):
            kind, index = llm.prompt_key_of(prompt)
            if kind is PromptKind.CATEGORY_INDUCTION and index == 2:
                category_started.set()
                time.sleep(0.05)
            elif kind is PromptKind.REFINEMENT:
                time.sleep(2 * evolution.POOL_MIN_S)  # slow enough to go to the pool
            elif kind is PromptKind.INNOVATION:
                category_started.wait(WAIT_S)
            return super().complete(prompt, seed=seed, temperature=temperature)

    category_started = threading.Event()
    tb = three_gen_transcript()
    tb.entries = [e for e in tb.entries if e[0] != "innovation"]
    path = tb.write(tmp_path / "t.jsonl")
    runs = []
    for provider in (ScriptedProvider(path), SlowCategoryThenMissingInnovation(path)):
        events = []
        engine = EvolutionEngine(config(population_size=2, elite_categories=2), provider,
                                 ladder_suite(), log=lambda e, p: events.append((e, p)))
        with pytest.raises(ProviderError, match="kind='innovation' index=0"):
            engine.run()
        runs.append(events)
    assert category_started.is_set()
    assert runs[1] == runs[0]
    tail = [(e, p.get("kind", p.get("candidate_id"))) for e, p in runs[1][-4:]]
    assert tail == [("sample", "refinement"), ("category-new", None), ("evaluation", 3),
                    ("sample", "innovation")]
