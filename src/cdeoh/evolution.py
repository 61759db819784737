"""The category-diverse evolution loop.

Each generation asks the text-generation provider for one refinement and
one innovation per population member, repairs failing candidates through
bounded reflection, labels survivors with an induced algorithm-paradigm
category, and forms the next population with a two-stage selection:
category-wise elites first, then a joint performance/diversity score over
the rest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from cdeoh import dsl, llm, problems
from cdeoh.dsl import ParseError
from cdeoh.llm import ParseFailure, PromptContext, PromptKind
from cdeoh.problems import BenchmarkSuite, CandidateFailure

ORIGINS = ("init", "refinement", "innovation", "reflection-repair")

UNCATEGORIZED = "uncategorized"
NO_CATEGORY_LABEL = "all"  # used when category induction is disabled

LogFn = Callable[[str, dict], None]


class BudgetExhaustedError(RuntimeError):
    """max_samples was consumed before a full initial population existed."""


@dataclass(frozen=True)
class Candidate:
    id: int
    thought: str
    code: str
    category: str
    fitness: float
    origin: str
    generation_born: int
    parent_id: int | None = None
    reflection_attempts: int = 0

    def __post_init__(self):
        if not math.isfinite(self.fitness):
            raise ValueError("candidate fitness must be finite")
        if not self.category:
            raise ValueError("candidate category must be nonempty")
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")


def _rank_key(c: Candidate):
    return (-c.fitness, c.id)


@dataclass(frozen=True)
class Population:
    members: tuple[Candidate, ...]
    capacity: int

    def __post_init__(self):
        if len(self.members) > self.capacity:
            raise ValueError("population exceeds capacity")
        if list(self.members) != sorted(self.members, key=_rank_key):
            raise ValueError("members must be sorted by fitness desc, id asc")

    @staticmethod
    def ranked(members: Iterable[Candidate], capacity: int) -> "Population":
        return Population(tuple(sorted(members, key=_rank_key)), capacity)


class CategoryPool:
    """Append-only set of discovered category labels with all-time counts."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    @property
    def labels(self) -> set[str]:
        return set(self.counts)

    def add(self, label: str) -> bool:
        """Record one more member of `label`; True if the label is new."""
        new = label not in self.counts
        self.counts[label] = self.counts.get(label, 0) + 1
        return new

    def sorted_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.counts))


@dataclass
class EvolutionConfig:
    population_size: int = 10
    elite_categories: int = 4
    lambda_weight: float = 0.7
    reflection_budget: int = 3
    max_samples: int = 200
    max_generations: int | None = None  # default: ceil(max_samples / 2N)
    enable_categories: bool = True
    enable_reflection: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not 0 <= self.elite_categories <= self.population_size:
            raise ValueError("elite_categories must lie in [0, population_size]")
        if self.lambda_weight < 0:
            raise ValueError("lambda must be >= 0")
        if self.reflection_budget < 0:
            raise ValueError("reflection_budget must be >= 0")
        if self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        if self.max_generations is None:
            self.max_generations = -(-self.max_samples // (2 * self.population_size))  # ceil
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


@dataclass(frozen=True)
class GenerationStats:
    generation: int            # 0 is initialization
    samples_used: int          # provider generation calls in this phase
    offspring_added: int       # evaluated candidates added (<= 2N per generation)
    best_fitness: float        # all-time best, never decreases
    category_histogram: dict[str, int]
    new_categories: tuple[str, ...]


class SampleBudget:
    """Counter of candidate-producing provider calls."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def try_consume(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


# --------------------------------------------------------------------------
# Selection
# --------------------------------------------------------------------------

def joint_score(candidate: Candidate, pool_f_min: float, pool_f_max: float,
                category_count: int, lam: float) -> float:
    """Normalized fitness plus lam / category crowding.

    With pool_f_max == pool_f_min the normalized term is defined as 0, so
    ranking falls back to the diversity term alone.
    """
    if category_count < 1:
        raise ValueError("category_count must be >= 1")
    if pool_f_max < pool_f_min:
        raise ValueError("pool_f_max must be >= pool_f_min")
    if pool_f_max > pool_f_min:
        norm = (candidate.fitness - pool_f_min) / (pool_f_max - pool_f_min)
    else:
        norm = 0.0
    return norm + lam / category_count


def select_next_generation(candidates: Sequence[Candidate],
                           config: EvolutionConfig) -> Population:
    """Two-stage selection over previous members plus this generation's offspring.

    Stage I keeps the fitness-best candidate of each of the top-k categories
    (categories ranked by their best member).  Stage II ranks everyone else
    by joint_score, with min/max fitness and category crowding taken over
    the full candidate set, and fills the population to size N.
    """
    n = config.population_size
    cands = sorted(candidates, key=_rank_key)
    k = config.elite_categories if config.enable_categories else 0

    elites: list[Candidate] = []
    if k > 0:
        best_per_cat: dict[str, Candidate] = {}
        for c in cands:  # cands already ranked, first hit per category wins
            if c.category not in best_per_cat:
                best_per_cat[c.category] = c
        ranked_elites = sorted(best_per_cat.values(), key=_rank_key)
        elites = ranked_elites[:min(k, len(ranked_elites))]

    elite_ids = {c.id for c in elites}
    rest = [c for c in cands if c.id not in elite_ids]
    slots = max(0, n - len(elites))
    if rest and slots > 0:
        f_values = [c.fitness for c in cands]
        f_min, f_max = min(f_values), max(f_values)
        crowd: dict[str, int] = {}
        for c in cands:
            crowd[c.category] = crowd.get(c.category, 0) + 1
        scored = sorted(
            rest,
            key=lambda c: (-joint_score(c, f_min, f_max, crowd[c.category], config.lambda_weight), c.id),
        )
        chosen = elites + scored[:slots]
    else:
        chosen = elites
    return Population.ranked(chosen, capacity=n)


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------

class EvolutionEngine:
    def __init__(self, config: EvolutionConfig, provider, suite: BenchmarkSuite,
                 log: LogFn | None = None):
        self.config = config
        self.provider = provider
        self.suite = suite
        self.signature = problems.input_signature(suite.task)
        self.base_ctx = dict(
            task_description=problems.task_description(suite.task),
            dsl_grammar=dsl.render_grammar(),
        )
        self.budget = SampleBudget(config.max_samples)
        self.pool = CategoryPool()
        self._log = log or (lambda event, payload: None)
        self._ids = itertools.count(1)
        self._gen_new_categories: list[str] = []
        self.populations: list[Population] = []  # one per generation, 0 = init
        self.best: Candidate | None = None

    # ------------------------------------------------------------- plumbing

    def _ctx(self, **kw) -> PromptContext:
        return PromptContext(**self.base_ctx, **kw)

    def _seed(self) -> int:
        return self.config.rng_seed + self.budget.used

    def _categorize(self, thought: str, code: str) -> str:
        if not self.config.enable_categories:
            return NO_CATEGORY_LABEL
        ctx = self._ctx(parent_thought=thought, parent_code=code,
                        known_categories=self.pool.sorted_labels(), seed=self._seed())
        try:
            return llm.induce_category(self.provider, ctx)
        except llm.ProviderError:
            return UNCATEGORIZED

    def _note_category(self, label: str, generation: int) -> None:
        if self.pool.add(label):
            self._gen_new_categories.append(label)
            self._log("category-new", {"label": label, "generation": generation})

    def _track_best(self, candidate: Candidate) -> None:
        if self.best is None or _rank_key(candidate) < _rank_key(self.best):
            self.best = candidate

    # ------------------------------------------------------------- pipeline

    def _attempt(self, thought: str, code: str, origin: str, parent_id: int | None,
                 generation: int, reflection_attempts: int = 0) -> Candidate | str:
        """Compile + evaluate + categorize; returns the Candidate or an error string."""
        try:
            program = dsl.parse(code, self.signature)
        except ParseError as e:
            self._log("evaluation", {"generation": generation, "parent_id": parent_id,
                                     "origin": origin, "error": str(e)})
            return str(e)
        try:
            report = problems.evaluate_candidate(self.suite, program)
        except CandidateFailure as e:
            self._log("evaluation", {"generation": generation, "parent_id": parent_id,
                                     "origin": origin, "error": str(e)})
            return str(e)
        category = self._categorize(thought, code)
        candidate = Candidate(
            id=next(self._ids), thought=thought, code=code, category=category,
            fitness=report.fitness, origin=origin, generation_born=generation,
            parent_id=parent_id, reflection_attempts=reflection_attempts,
        )
        self._note_category(category, generation)
        self._log("evaluation", {
            "generation": generation, "candidate_id": candidate.id, "origin": origin,
            "parent_id": parent_id, "category": category, "fitness": report.fitness,
            "gap_percent": report.gap_percent,
            "instance_gaps": [r.gap_percent for r in report.per_instance],
            "reflection_attempts": reflection_attempts,
            "thought": thought, "code": code,
        })
        self._track_best(candidate)
        return candidate

    def _sample(self, kind: PromptKind, ctx: PromptContext, origin: str,
                parent_id: int | None, generation: int) -> Candidate | None:
        """One generation call plus, on failure, the reflection loop."""
        if not self.budget.try_consume():
            return None
        self._log("sample", {"kind": kind.value, "sample_index": self.budget.used,
                             "parent_id": parent_id, "generation": generation})
        prompt = llm.render_prompt(kind, ctx, self.provider.config.max_prompt_bytes)
        raw = self.provider.complete(prompt, seed=ctx.seed,
                                     temperature=self.provider.config.temperature)
        try:
            thought, code = llm.parse_generation(raw)
        except ParseFailure as e:
            # Give reflection whatever there is to work with.
            thought = e.thought or "(no thought block provided)"
            code = e.code or raw
            self._log("evaluation", {"generation": generation, "parent_id": parent_id,
                                     "origin": origin, "error": str(e)})
            return self.try_reflect(thought, code, str(e), parent_id, generation)
        result = self._attempt(thought, code, origin, parent_id, generation)
        if isinstance(result, Candidate):
            return result
        return self.try_reflect(thought, code, result, parent_id, generation)

    def try_reflect(self, thought: str, code: str, error: str,
                    parent_id: int | None = None, generation: int = 0) -> Candidate | None:
        """Up to `reflection_budget` repair calls; the repaired Candidate or None."""
        budget_b = self.config.reflection_budget
        if not self.config.enable_reflection or budget_b < 1:
            self._log("reflection", {"generation": generation, "parent_id": parent_id,
                                     "attempt": 0, "outcome": "disabled", "error": error})
            return None
        for attempt in range(1, budget_b + 1):
            if not self.budget.try_consume():
                self._log("reflection", {"generation": generation, "parent_id": parent_id,
                                         "attempt": attempt, "outcome": "abandoned",
                                         "error": "sample budget exhausted"})
                return None
            self._log("sample", {"kind": PromptKind.REFLECTION.value,
                                 "sample_index": self.budget.used,
                                 "parent_id": parent_id, "generation": generation})
            ctx = self._ctx(parent_thought=thought, parent_code=code,
                            error_message=error, seed=self._seed())
            try:
                thought, code = llm.reflect(self.provider, ctx)
            except ParseFailure as e:
                error = str(e)
                self._log("reflection", {"generation": generation, "parent_id": parent_id,
                                         "attempt": attempt, "outcome": "failed", "error": error})
                continue
            result = self._attempt(thought, code, "reflection-repair", parent_id,
                                   generation, reflection_attempts=attempt)
            if isinstance(result, Candidate):
                self._log("reflection", {"generation": generation, "parent_id": parent_id,
                                         "attempt": attempt, "outcome": "repaired",
                                         "candidate_id": result.id})
                return result
            error = result
            self._log("reflection", {"generation": generation, "parent_id": parent_id,
                                     "attempt": attempt, "outcome": "failed", "error": error})
        self._log("reflection", {"generation": generation, "parent_id": parent_id,
                                 "attempt": budget_b, "outcome": "abandoned", "error": error})
        return None

    # ------------------------------------------------------------- spec ops

    def initialize(self) -> Population:
        """Sample initialization prompts until N viable candidates exist."""
        n = self.config.population_size
        members: list[Candidate] = []
        while len(members) < n:
            if self.budget.exhausted:
                raise BudgetExhaustedError(
                    f"sample budget ({self.budget.limit}) exhausted with only "
                    f"{len(members)} of {n} initial candidates")
            candidate = self._sample(PromptKind.INITIALIZATION, self._ctx(seed=self._seed()),
                                     origin="init", parent_id=None, generation=0)
            if candidate is not None:
                members.append(candidate)
        population = Population.ranked(members, capacity=n)
        self.populations.append(population)
        return population

    def sample_offspring(self, parent: Candidate, generation: int) -> list[Candidate]:
        """One refinement and one innovation from `parent`; 0..2 survivors."""
        out: list[Candidate] = []
        for kind, origin in ((PromptKind.REFINEMENT, "refinement"),
                             (PromptKind.INNOVATION, "innovation")):
            ctx = self._ctx(parent_thought=parent.thought, parent_code=parent.code,
                            seed=self._seed())
            candidate = self._sample(kind, ctx, origin=origin,
                                     parent_id=parent.id, generation=generation)
            if candidate is not None:
                out.append(candidate)
        return out

    def run(self) -> tuple[Candidate, list[GenerationStats]]:
        cfg = self.config
        stats: list[GenerationStats] = []
        self._gen_new_categories = []
        population = self.initialize()
        stats.append(self._summarize(0, samples_before=0, offspring=len(population.members),
                                     population=population))
        generation = 0
        while not self.budget.exhausted and generation < cfg.max_generations:
            generation += 1
            samples_before = self.budget.used
            self._gen_new_categories = []
            offspring: list[Candidate] = []
            for parent in population.members:
                if self.budget.exhausted:
                    break
                offspring.extend(self.sample_offspring(parent, generation))
            candidates = list(population.members) + offspring
            population = select_next_generation(candidates, cfg)
            self.populations.append(population)
            self._log("selection", {
                "generation": generation,
                "candidate_ids": [c.id for c in candidates],
                "selected_ids": [c.id for c in population.members],
            })
            stats.append(self._summarize(generation, samples_before, len(offspring), population))
        assert self.best is not None
        return self.best, stats

    def _summarize(self, generation: int, samples_before: int, offspring: int,
                   population: Population) -> GenerationStats:
        histogram: dict[str, int] = {}
        for c in population.members:
            histogram[c.category] = histogram.get(c.category, 0) + 1
        assert self.best is not None
        gs = GenerationStats(
            generation=generation,
            samples_used=self.budget.used - samples_before,
            offspring_added=offspring,
            best_fitness=self.best.fitness,
            category_histogram=histogram,
            new_categories=tuple(self._gen_new_categories),
        )
        self._log("generation-summary", {
            "generation": gs.generation,
            "samples_used": gs.samples_used,
            "cumulative_samples": self.budget.used,
            "offspring_added": gs.offspring_added,
            "best_fitness": gs.best_fitness,
            "best_candidate_id": self.best.id,
            "category_histogram": gs.category_histogram,
            "new_categories": list(gs.new_categories),
        })
        return gs

