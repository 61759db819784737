"""The category-diverse evolution loop.

Each generation asks the text-generation provider for one refinement and
one innovation per population member, repairs failing candidates through
bounded reflection, labels survivors with an induced algorithm-paradigm
category, and forms the next population with a two-stage selection:
category-wise elites first, then a joint performance/diversity score over
the rest.
"""

from __future__ import annotations

import functools
import math
import queue
import threading
import time
from concurrent.futures import Future
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

# A category call goes to the worker thread only behind a generation call at
# least this slow: waking the worker costs about 0.06 ms of the caller's time
# on 2 vCPU even when the caller then claims the call back, about a tenth of
# a sample on the scripted provider.
HANDOFF_MIN_S = 0.001


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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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

    # The payload keys that `apply` and the summary rows read, per event; an
    # `evaluation` without a `candidate_id` (a failure) is read for nothing.
    PAYLOAD_KEYS = {
        "category-new": ("label", "generation"),
        "evaluation": ("generation", "origin", "parent_id", "category", "fitness",
                       "instance_gaps", "reflection_attempts", "thought", "code"),
        "selection": ("selected_ids",),
        "generation-summary": ("generation", "samples_used", "cumulative_samples",
                               "offspring_added", "best_fitness", "new_categories",
                               "category_histogram"),
    }

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
    def missing_keys(cls, event: str, payload: dict) -> list[str]:
        if event == "evaluation" and "candidate_id" not in payload:
            return []
        return [k for k in cls.PAYLOAD_KEYS.get(event, ()) if k not in payload]

    @classmethod
    def from_events(cls, events: Iterable[dict]) -> "RunState":
        state = cls()
        for e in events:
            state.apply(e["event"], e["payload"])
        return state

    def apply(self, event: str, payload: dict) -> None:
        """Fold one event whose payload has `PAYLOAD_KEYS`; ValueError if it
        contradicts the run so far."""
        if event == "sample":
            self.samples += 1
        elif event == "category-new":
            self.category_generation[payload["label"]] = payload["generation"]
        elif event == "evaluation" and "candidate_id" in payload:
            which = f"evaluation of candidate {payload['candidate_id']!r}"
            if not _is_number(payload["fitness"]):
                raise ValueError(f"{which}: fitness {payload['fitness']!r} is not a number")
            gaps = payload["instance_gaps"]
            if not (isinstance(gaps, list) and all(_is_number(g) for g in gaps)):
                raise ValueError(f"{which}: instance_gaps {gaps!r} is not a list of numbers")
            try:
                c = Candidate(
                    id=payload["candidate_id"], thought=payload["thought"], code=payload["code"],
                    category=payload["category"], fitness=payload["fitness"],
                    origin=payload["origin"], generation_born=payload["generation"],
                    parent_id=payload["parent_id"],
                    reflection_attempts=payload["reflection_attempts"],
                )
            except (TypeError, ValueError) as e:  # e.g. a fitness that is not finite
                raise ValueError(f"{which}: {e}") from None
            self.candidates[c.id] = c
            self.instance_gaps[c.id] = gaps
            self.category_counts[c.category] = self.category_counts.get(c.category, 0) + 1
            if self.best is None or _rank_key(c) < _rank_key(self.best):
                self.best = c
        elif event == "selection":
            ids = payload["selected_ids"]
            if not (isinstance(ids, list)
                    and all(type(i) is int and i in self.candidates for i in ids)):
                raise ValueError(f"selection of candidates never evaluated: {ids!r}")
            self._selected = ids
        elif event == "generation-summary":
            if self.best is None:
                raise ValueError("generation-summary before any evaluated candidate")
            # Only the summary rows read it, so a hand-built fold may leave it out.
            if "best_fitness" in payload and not _is_number(payload["best_fitness"]):
                raise ValueError(f"generation-summary: best_fitness {payload['best_fitness']!r}"
                                 " is not a number")
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

@dataclass
class _Pending:
    """A scored candidate whose category call may still be in flight."""
    label: Future
    call: Callable[[], str]  # the category call, for the caller to claim
    evaluation: dict  # its `evaluation` payload, short of the category
    after: list[tuple[str, dict]]  # events that wait behind that evaluation


def _work(jobs: queue.SimpleQueue) -> None:
    """Run handed-off calls until a None arrives; skip any the caller claimed first."""
    while (job := jobs.get()) is not None:
        future, call = job
        if future.set_running_or_notify_cancel():
            try:
                future.set_result(call())
            except BaseException as e:  # handed to whoever reads the future
                future.set_exception(e)


class EvolutionEngine:
    """The loop, with each category-induction call hidden behind the next generation call.

    `_attempt` scores a candidate, starts its category call and returns its id;
    the candidate's events wait in `_pending` (at most one) until the next
    `_log` materializes them, so the event stream is that of a serial run.
    Inside `run`, when the last generation call took `HANDOFF_MIN_S` or more,
    one worker thread takes the category call while the caller makes its next
    generation call; a call the worker has not started yet is claimed back and
    made on the caller's thread.  Calls of one kind never overlap, so a
    provider that numbers the calls of each kind stays in order.
    """

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
        # Each distinct tree is simulated once per run: its EvalReport or
        # CandidateFailure text, keyed by the exact `dsl.pretty_print` (no
        # algebra is normalised: IEEE arithmetic is not associative).  Memory:
        # one EvalReport (one gap per instance) or message per distinct program.
        self._scores: dict[str, problems.EvalReport | str] = {}
        self._emit = log or (lambda event, payload: None)
        self._pending: _Pending | None = None
        self._jobs: queue.SimpleQueue | None = None  # the worker's inbox while `run` runs
        self._hand_off = False  # the last generation call took HANDOFF_MIN_S or more

    # ------------------------------------------------------------- plumbing

    def _ctx(self, **kw) -> PromptContext:
        return PromptContext(**self.base_ctx, **kw)

    def _log(self, event: str, payload: dict) -> None:
        self._materialize()
        self.state.apply(event, payload)
        self._emit(event, payload)

    def _materialize(self) -> None:
        """Log the pending candidate: claim its category call if the worker has
        not started it, else wait for its label."""
        if self._pending is None:
            return
        pending, self._pending = self._pending, None
        category = pending.call() if pending.label.cancel() else pending.label.result()
        if category not in self.state.category_counts:
            self._log("category-new", {"label": category,
                                       "generation": pending.evaluation["generation"]})
        self._log("evaluation", {**pending.evaluation, "category": category})
        for event, payload in pending.after:
            self._log(event, payload)

    def _seed(self) -> int:
        return self.config.rng_seed + self.state.samples

    def _budget_spent(self) -> bool:
        return self.state.samples >= self.config.max_samples

    def _sample_payload(self, kind: PromptKind, parent_id: int | None, generation: int) -> dict:
        return {"kind": kind.value, "sample_index": self.state.samples + 1,
                "parent_id": parent_id, "generation": generation}

    def _categorize(self, thought: str, code: str, known: tuple[str, ...], seed: int) -> str:
        if not self.config.enable_categories:
            return NO_CATEGORY_LABEL
        ctx = self._ctx(parent_thought=thought, parent_code=code,
                        known_categories=known, seed=seed)
        try:
            return llm.induce_category(self.provider, ctx)
        except llm.ProviderError:
            return UNCATEGORIZED

    def _candidates(self, ids: Iterable[int]) -> list[Candidate]:
        self._materialize()
        return [self.state.candidates[i] for i in ids]

    # ------------------------------------------------------------- pipeline

    def _attempt(self, thought: str, code: str, origin: str, parent_id: int | None,
                 generation: int, reflection_attempts: int = 0) -> int | str:
        """Compile + score (once per distinct tree) + start the category call;
        the candidate id or an error."""
        try:
            program = dsl.parse(code, self.signature)
        except ParseError as e:
            self._log("evaluation", {"generation": generation, "parent_id": parent_id,
                                     "origin": origin, "error": str(e)})
            return str(e)
        key = dsl.pretty_print(program)
        report = self._scores.get(key)
        if report is None:
            try:
                report = problems.evaluate_candidate(self.suite, program)
            except CandidateFailure as e:
                report = str(e)
            self._scores[key] = report
        if isinstance(report, str):
            self._log("evaluation", {"generation": generation, "parent_id": parent_id,
                                     "origin": origin, "error": report})
            return report
        # Every path here logged this candidate's sample, so nothing is pending
        # and the known labels include the previous candidate's.
        assert self._pending is None
        candidate_id = len(self.state.candidates) + 1
        call = functools.partial(self._categorize, thought, code,
                                 tuple(sorted(self.state.category_counts)), self._seed())
        label: Future = Future()
        if self._jobs is not None and self._hand_off:
            self._jobs.put((label, call))
        self._pending = _Pending(label, call, {
            "generation": generation, "candidate_id": candidate_id, "origin": origin,
            "parent_id": parent_id, "fitness": report.fitness,
            "gap_percent": report.gap_percent,
            "instance_gaps": [r.gap_percent for r in report.per_instance],
            "reflection_attempts": reflection_attempts,
            "thought": thought, "code": code,
        }, [])
        return candidate_id

    def _sample(self, kind: PromptKind, ctx: PromptContext, origin: str,
                parent_id: int | None, generation: int) -> int | None:
        """One generation call plus, on failure, the reflection loop; a candidate id or None.

        The call is made before its `sample` event is logged, so a pending
        category call runs behind it.
        """
        if self._budget_spent():
            return None
        sample = self._sample_payload(kind, parent_id, generation)
        try:
            prompt = llm.render_prompt(kind, ctx, self.provider.config.max_prompt_bytes)
            start = time.perf_counter()
            raw = self.provider.complete(prompt, seed=ctx.seed,
                                         temperature=self.provider.config.temperature)
            self._hand_off = time.perf_counter() - start >= HANDOFF_MIN_S
        finally:
            self._log("sample", sample)
        try:
            thought, code = llm.parse_generation(raw)
        except ParseFailure as e:
            # Give reflection whatever there is to work with.
            thought = e.thought or "(no thought block provided)"
            code = e.code or raw
            self._log("evaluation", {"generation": generation, "parent_id": parent_id,
                                     "origin": origin, "error": str(e)})
            return self._reflect(thought, code, str(e), parent_id, generation)
        result = self._attempt(thought, code, origin, parent_id, generation)
        if isinstance(result, int):
            return result
        return self._reflect(thought, code, result, parent_id, generation)

    def try_reflect(self, thought: str, code: str, error: str,
                    parent_id: int | None = None, generation: int = 0) -> Candidate | None:
        """Up to `reflection_budget` repair calls; the repaired Candidate or None."""
        repaired = self._reflect(thought, code, error, parent_id, generation)
        self._materialize()
        return None if repaired is None else self.state.candidates[repaired]

    def _reflect(self, thought: str, code: str, error: str,
                 parent_id: int | None, generation: int) -> int | None:
        budget_b = self.config.reflection_budget
        if not self.config.enable_reflection or budget_b < 1:
            self._log("reflection", {"generation": generation, "parent_id": parent_id,
                                     "attempt": 0, "outcome": "disabled", "error": error})
            return None
        for attempt in range(1, budget_b + 1):
            if self._budget_spent():
                self._log("reflection", {"generation": generation, "parent_id": parent_id,
                                         "attempt": attempt, "outcome": "abandoned",
                                         "error": "sample budget exhausted"})
                return None
            self._log("sample", self._sample_payload(PromptKind.REFLECTION, parent_id, generation))
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
            if isinstance(result, int):
                # Reads no state, so it waits behind the candidate's evaluation.
                self._pending.after.append(("reflection", {
                    "generation": generation, "parent_id": parent_id, "attempt": attempt,
                    "outcome": "repaired", "candidate_id": result}))
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
        ids: list[int] = []
        while len(ids) < n:
            if self._budget_spent():
                self._materialize()
                raise BudgetExhaustedError(
                    f"sample budget ({self.config.max_samples}) exhausted with only "
                    f"{len(ids)} of {n} initial candidates")
            candidate_id = self._sample(PromptKind.INITIALIZATION, self._ctx(seed=self._seed()),
                                        origin="init", parent_id=None, generation=0)
            if candidate_id is not None:
                ids.append(candidate_id)
        return Population.ranked(self._candidates(ids), capacity=n)

    def sample_offspring(self, parent: Candidate, generation: int) -> list[Candidate]:
        """One refinement and one innovation from `parent`; 0..2 survivors."""
        return self._candidates(self._offspring(parent, generation))

    def _offspring(self, parent: Candidate, generation: int) -> list[int]:
        ids: list[int] = []
        for kind, origin in ((PromptKind.REFINEMENT, "refinement"),
                             (PromptKind.INNOVATION, "innovation")):
            ctx = self._ctx(parent_thought=parent.thought, parent_code=parent.code,
                            seed=self._seed())
            candidate_id = self._sample(kind, ctx, origin=origin,
                                        parent_id=parent.id, generation=generation)
            if candidate_id is not None:
                ids.append(candidate_id)
        return ids

    def run(self) -> Candidate:
        """Initialize, then evolve until the budget or `max_generations` ends; the best Candidate.

        A raised error still logs the pending candidate; the worker thread
        ends before `run` returns or raises.
        """
        cfg = self.config
        self._jobs = queue.SimpleQueue()
        worker = threading.Thread(target=_work, args=(self._jobs,),
                                  name="cdeoh-category-induction", daemon=True)
        worker.start()
        try:
            population = self.initialize()
            self._summarize(0, len(population.members), population)
            generation = 0
            while not self._budget_spent() and generation < cfg.max_generations:
                generation += 1
                offspring: list[int] = []
                for parent in population.members:
                    if self._budget_spent():
                        break
                    offspring.extend(self._offspring(parent, generation))
                candidates = list(population.members) + self._candidates(offspring)
                population = select_next_generation(candidates, cfg)
                self._log("selection", {
                    "generation": generation,
                    "candidate_ids": [c.id for c in candidates],
                    "selected_ids": [c.id for c in population.members],
                })
                self._summarize(generation, len(offspring), population)
            return self.state.best
        finally:
            try:
                self._materialize()
            finally:
                self._jobs.put(None)
                self._jobs = None
                worker.join()

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
