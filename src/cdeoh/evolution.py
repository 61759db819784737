"""The category-diverse evolution loop.

Each generation asks the text-generation provider for one refinement and
one innovation per population member, repairs failing candidates through
bounded reflection, labels survivors with an induced algorithm-paradigm
category, and forms the next population with a two-stage selection:
category-wise elites first, then a joint performance/diversity score over
the rest.
"""

from __future__ import annotations

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


class RunState:
    """A run as a fold over its event stream: `apply` each event in order.

    The engine folds the events it emits, and the CLI folds `events.jsonl`,
    so a running, finished, aborted or recorded run gives the same state.
    It keeps every evaluated candidate until the run ends, so its memory
    grows with the samples drawn (about 0.5 KB each), not with the population.
    """

    def __init__(self):
        self.candidates: dict[int, Candidate] = {}
        self.instance_gaps: dict[int, list[float]] = {}
        self.populations: list[tuple[Candidate, ...]] = []  # per completed generation, 0 = init
        self.best: Candidate | None = None
        self.category_counts: dict[str, int] = {}  # all-time members per label
        self.category_generation: dict[str, int] = {}  # label -> generation it was first seen
        self.samples = 0
        self.summaries: list[dict] = []  # generation-summary payloads
        self._selected: list[int] = []  # the last selection, committed at its summary

    @classmethod
    def from_events(cls, events: Iterable[dict]) -> "RunState":
        state = cls()
        for e in events:
            state.apply(e["event"], e["payload"])
        return state

    def apply(self, event: str, payload: dict) -> None:
        if event == "sample":
            self.samples += 1
        elif event == "category-new":
            self.category_generation[payload["label"]] = payload["generation"]
        elif event == "evaluation" and "candidate_id" in payload:
            c = Candidate(
                id=payload["candidate_id"], thought=payload["thought"], code=payload["code"],
                category=payload["category"], fitness=payload["fitness"],
                origin=payload["origin"], generation_born=payload["generation"],
                parent_id=payload["parent_id"],
                reflection_attempts=payload["reflection_attempts"],
            )
            self.candidates[c.id] = c
            self.instance_gaps[c.id] = payload["instance_gaps"]
            self.category_counts[c.category] = self.category_counts.get(c.category, 0) + 1
            if self.best is None or _rank_key(c) < _rank_key(self.best):
                self.best = c
        elif event == "selection":
            self._selected = payload["selected_ids"]
        elif event == "generation-summary":
            if payload["generation"] == 0:  # the initial population: every gen-0 survivor
                members = [c for c in self.candidates.values() if c.generation_born == 0]
            else:
                members = [self.candidates[i] for i in self._selected]
            self.populations.append(tuple(sorted(members, key=_rank_key)))
            self.summaries.append(payload)


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
        self.state = RunState()
        self._emit = log or (lambda event, payload: None)

    # ------------------------------------------------------------- plumbing

    def _ctx(self, **kw) -> PromptContext:
        return PromptContext(**self.base_ctx, **kw)

    def _log(self, event: str, payload: dict) -> None:
        self.state.apply(event, payload)
        self._emit(event, payload)

    def _seed(self) -> int:
        return self.config.rng_seed + self.state.samples

    def _budget_spent(self) -> bool:
        return self.state.samples >= self.config.max_samples

    def _take_sample(self, kind: PromptKind, parent_id: int | None, generation: int) -> bool:
        """Log one budgeted provider call; False, logging nothing, once the budget is spent."""
        if self._budget_spent():
            return False
        self._log("sample", {"kind": kind.value, "sample_index": self.state.samples + 1,
                             "parent_id": parent_id, "generation": generation})
        return True

    def _categorize(self, thought: str, code: str) -> str:
        if not self.config.enable_categories:
            return NO_CATEGORY_LABEL
        ctx = self._ctx(parent_thought=thought, parent_code=code,
                        known_categories=tuple(sorted(self.state.category_counts)),
                        seed=self._seed())
        try:
            return llm.induce_category(self.provider, ctx)
        except llm.ProviderError:
            return UNCATEGORIZED

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
        if category not in self.state.category_counts:
            self._log("category-new", {"label": category, "generation": generation})
        candidate_id = len(self.state.candidates) + 1
        self._log("evaluation", {
            "generation": generation, "candidate_id": candidate_id, "origin": origin,
            "parent_id": parent_id, "category": category, "fitness": report.fitness,
            "gap_percent": report.gap_percent,
            "instance_gaps": [r.gap_percent for r in report.per_instance],
            "reflection_attempts": reflection_attempts,
            "thought": thought, "code": code,
        })
        return self.state.candidates[candidate_id]

    def _sample(self, kind: PromptKind, ctx: PromptContext, origin: str,
                parent_id: int | None, generation: int) -> Candidate | None:
        """One generation call plus, on failure, the reflection loop."""
        if not self._take_sample(kind, parent_id, generation):
            return None
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
            if not self._take_sample(PromptKind.REFLECTION, parent_id, generation):
                self._log("reflection", {"generation": generation, "parent_id": parent_id,
                                         "attempt": attempt, "outcome": "abandoned",
                                         "error": "sample budget exhausted"})
                return None
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
            if self._budget_spent():
                raise BudgetExhaustedError(
                    f"sample budget ({self.config.max_samples}) exhausted with only "
                    f"{len(members)} of {n} initial candidates")
            candidate = self._sample(PromptKind.INITIALIZATION, self._ctx(seed=self._seed()),
                                     origin="init", parent_id=None, generation=0)
            if candidate is not None:
                members.append(candidate)
        return Population.ranked(members, capacity=n)

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

    def run(self) -> Candidate:
        """Initialize, then evolve until the budget or `max_generations` ends; the best Candidate."""
        cfg = self.config
        population = self.initialize()
        self._summarize(0, len(population.members), population)
        generation = 0
        while not self._budget_spent() and generation < cfg.max_generations:
            generation += 1
            offspring: list[Candidate] = []
            for parent in population.members:
                if self._budget_spent():
                    break
                offspring.extend(self.sample_offspring(parent, generation))
            candidates = list(population.members) + offspring
            population = select_next_generation(candidates, cfg)
            self._log("selection", {
                "generation": generation,
                "candidate_ids": [c.id for c in candidates],
                "selected_ids": [c.id for c in population.members],
            })
            self._summarize(generation, len(offspring), population)
        return self.state.best

    def _summarize(self, generation: int, offspring: int, population: Population) -> None:
        state = self.state
        histogram: dict[str, int] = {}
        for c in population.members:
            histogram[c.category] = histogram.get(c.category, 0) + 1
        samples_before = state.summaries[-1]["cumulative_samples"] if state.summaries else 0
        self._log("generation-summary", {
            "generation": generation,
            "samples_used": state.samples - samples_before,
            "cumulative_samples": state.samples,
            "offspring_added": offspring,
            "best_fitness": state.best.fitness,
            "best_candidate_id": state.best.id,
            "category_histogram": histogram,
            "new_categories": [label for label, g in state.category_generation.items()
                               if g == generation],
        })
