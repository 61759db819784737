"""The category-diverse evolution loop.

Each generation asks the text-generation provider for one refinement and
one innovation per population member, repairs failing candidates through
bounded reflection, labels survivors with an induced algorithm-paradigm
category, and forms the next population with a two-stage selection:
category-wise elites first, then a joint performance/diversity score over
the rest.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import time
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from cdeoh import dsl, llm, problems
from cdeoh.dsl import ParseError
from cdeoh.jsonio import has_type, type_name
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


# --------------------------------------------------------------------------
# The event schema
# --------------------------------------------------------------------------

# Each event's payload: its fields and their JSON types.  An `evaluation` or
# `reflection` either names the candidate it produced (`candidate_id`, the
# last form) or says why there is none (`error`, the first form).
_STEP = {"generation": int, "parent_id": int | None}
PAYLOADS: dict[str, tuple[dict, ...]] = {
    "sample": ({**_STEP, "kind": str, "sample_index": int},),
    "evaluation": (
        {**_STEP, "origin": str, "error": str},
        {**_STEP, "origin": str, "candidate_id": int, "category": str, "fitness": float,
         "gap_percent": float, "instance_gaps": list[float], "reflection_attempts": int,
         "thought": str, "code": str},
    ),
    "reflection": ({**_STEP, "attempt": int, "outcome": str, "error": str},
                   {**_STEP, "attempt": int, "outcome": str, "candidate_id": int}),
    "category-new": ({"label": str, "generation": int},),
    "selection": ({"generation": int, "candidate_ids": list[int], "selected_ids": list[int]},),
    "generation-summary": ({"generation": int, "samples_used": int, "cumulative_samples": int,
                            "offspring_added": int, "best_fitness": float,
                            "best_candidate_id": int, "category_histogram": dict[str, int],
                            "new_categories": list[str]},),
}


def payload_fields(event: str, payload: dict) -> dict:
    """The declared fields of the form of `event` that `payload` takes."""
    forms = PAYLOADS[event]
    return forms[-1] if "candidate_id" in payload else forms[0]


def check_payload(event: str, payload: dict) -> None:
    """ValueError unless `payload` has exactly the fields and types of a declared
    `event` payload; O(fields), and O(items) for a list or an object."""
    fields = payload_fields(event, payload)
    missing = [k for k in fields if k not in payload]
    if missing:
        raise ValueError(f"not an event: {event} payload lacks {', '.join(missing)}")
    for key, value in payload.items():
        if key not in fields:
            raise ValueError(f"not an event: {event} payload has unknown field {key}")
        if not has_type(fields[key], value):
            raise ValueError(f"not an event: {event} payload field {key} must be"
                             f" {type_name(fields[key])}")


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
        """Fold one event whose payload has the fields and types of `PAYLOADS`
        (`cli.parse_events` checks them); ValueError if it contradicts the run
        so far or its candidate is invalid."""
        if event == "sample":
            self.samples += 1
        elif event == "category-new":
            self.category_generation[payload["label"]] = payload["generation"]
        elif event == "evaluation" and "candidate_id" in payload:
            try:
                c = Candidate(id=payload["candidate_id"], thought=payload["thought"],
                              code=payload["code"], category=payload["category"],
                              fitness=payload["fitness"], origin=payload["origin"],
                              generation_born=payload["generation"], parent_id=payload["parent_id"],
                              reflection_attempts=payload["reflection_attempts"])
            except ValueError as e:  # e.g. an empty category
                which = f"evaluation of candidate {payload['candidate_id']}"
                raise ValueError(f"{which}: {e}") from None
            self.candidates[c.id] = c
            self.instance_gaps[c.id] = payload["instance_gaps"]
            self.category_counts[c.category] = self.category_counts.get(c.category, 0) + 1
            if self.best is None or _rank_key(c) < _rank_key(self.best):
                self.best = c
        elif event == "selection":
            ids = payload["selected_ids"]
            if not all(i in self.candidates for i in ids):
                raise ValueError(f"selection of candidates never evaluated: {ids!r}")
            self._selected = ids
        elif event == "generation-summary":
            if self.best is None:
                raise ValueError("generation-summary before any evaluated candidate")
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

# Threads of a run's call pool, and requests of a wave sent ahead of the one
# being committed.  The pool also makes the category calls, so at most this
# many calls run on it; the caller's thread makes at most one more.
MAX_IN_FLIGHT = 8

# A call goes to the pool only after the provider's last call took this long;
# until then it is made on the caller's thread.  A pool thread must take the
# GIL from a caller that is simulating, which cost the caller about 2 ms per
# call on 2 vCPU: far more than a scripted call takes (tens of microseconds).
POOL_MIN_S = 0.001

_OFFSPRING = ((PromptKind.REFINEMENT, "refinement"), (PromptKind.INNOVATION, "innovation"))


class _Made:
    """A call made at once on the caller's thread, read like the Future of a
    call on the pool (a Future costs about 10 us more per call)."""

    def __init__(self, fn: Callable, *args, **kwargs):
        self._error: Exception | None = None
        try:
            self._value = fn(*args, **kwargs)
        except Exception as e:  # raised by `result` only, if the call is committed
            self._error = e

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False


class EvolutionEngine:
    """The loop, with the provider calls of each wave in flight together.

    A wave is the initialization requests still needed, or one refinement and
    one innovation per population member.  `_wave` renders each request with
    its (kind, call index, seed) and keeps the `MAX_IN_FLIGHT` requests after
    the one it commits in flight on a pool of as many threads.  It commits the
    responses on the caller's thread in plan order: it logs the sample, scores
    the candidate, runs a failure's reflection chain on the caller's thread and
    sends a success's category call.  Events wait in `_queue` behind the first
    candidate whose label has not arrived, so the event stream is that of a
    run that makes one call at a time.  Requests past the point where the
    sample budget runs out are never committed: their responses and errors
    are dropped.  While the provider answers within `POOL_MIN_S`, each call is
    made on the caller's thread when it is sent, which changes only where it
    runs.
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
        # Events logged but not yet folded; an evaluation's category may still
        # be the Future of its category call.
        self._queue: deque[tuple[str, dict]] = deque()
        self._samples = 0  # sample events logged, queued or folded
        self._last_id = 0  # candidate ids handed out, queued or folded
        self._calls: Counter[PromptKind] = Counter()  # calls of each kind committed
        self._known_labels: tuple[str, ...] = ()  # as of the start of the wave
        self._pool: ThreadPoolExecutor | None = None  # open inside `run` and `initialize`
        self._slow = False  # the provider's last call took POOL_MIN_S or more

    # ------------------------------------------------------------- plumbing

    def _ctx(self, **kw) -> PromptContext:
        return PromptContext(**self.base_ctx, **kw)

    def _log(self, event: str, **payload) -> None:
        """Queue an event, then fold and emit every queued event that is ready."""
        self._samples += event == "sample"
        self._queue.append((event, payload))
        self._drain(wait=False)

    def _drain(self, wait: bool = True) -> None:
        """Fold and emit the queued events in order, a new label's `category-new`
        before its candidate; without `wait`, stop at a label still in flight."""
        while self._queue:
            event, payload = self._queue[0]
            category = payload.get("category")
            if isinstance(category, (Future, _Made)):
                if not (wait or category.done()):
                    return
                payload["category"] = category = category.result()
            self._queue.popleft()
            if category is not None and category not in self.state.category_counts:
                self._fold("category-new", {"label": category,
                                            "generation": payload["generation"]})
            self._fold(event, payload)

    def _fold(self, event: str, payload: dict) -> None:
        assert payload.keys() == payload_fields(event, payload).keys(), (event, sorted(payload))
        self.state.apply(event, payload)
        self._emit(event, payload)

    @contextlib.contextmanager
    def _open_pool(self):
        """The call pool while the body runs.  On exit, also when the body raised,
        the queued events are logged, calls not yet started are cancelled and
        every thread is joined."""
        self._pool = ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT, thread_name_prefix="cdeoh-call")
        try:
            yield
        finally:
            try:
                self._drain()
            finally:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None

    def _call(self, fn: Callable, *args, **kwargs) -> Future | _Made:
        """`fn(*args, **kwargs)`, a provider call: on the pool while the provider
        is slow, else made now."""
        if self._slow:
            return self._pool.submit(self._timed, fn, *args, **kwargs)
        return _Made(self._timed, fn, *args, **kwargs)

    def _timed(self, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._slow = time.perf_counter() - start >= POOL_MIN_S

    def _seed(self) -> int:
        return self.config.rng_seed + self._samples

    def _budget_spent(self) -> bool:
        return self._samples >= self.config.max_samples

    def _log_sample(self, kind: PromptKind, parent_id: int | None, generation: int) -> None:
        self._log("sample", kind=kind.value, sample_index=self._samples + 1,
                  parent_id=parent_id, generation=generation)

    def _categorize(self, ctx: PromptContext) -> str:
        try:
            return llm.induce_category(self.provider, ctx)
        except llm.ProviderError:
            return UNCATEGORIZED

    def _candidates(self, ids: Iterable[int]) -> list[Candidate]:
        self._drain()
        return [self.state.candidates[i] for i in ids]

    # ------------------------------------------------------------- pipeline

    def _wave(self, plan: Iterable[tuple[PromptKind, str, Candidate | None]],
              generation: int) -> list[int]:
        """Commit the requests (kind, origin, parent) of `plan` in plan order,
        while up to MAX_IN_FLIGHT requests after the one being committed are in
        flight; the ids of the candidates they produced."""
        self._drain()
        self._known_labels = tuple(sorted(self.state.category_counts))
        requests = self._send(plan)
        window = deque(itertools.islice(requests, MAX_IN_FLIGHT))
        ids: list[int] = []
        try:
            while window and not self._budget_spent():
                kind, origin, parent_id, response = window.popleft()
                window.extend(itertools.islice(requests, 1))
                self._calls[kind] += 1
                candidate_id = self._commit(kind, origin, parent_id, generation, response)
                if candidate_id is not None:
                    ids.append(candidate_id)
        finally:
            for *_, response in window:
                response.cancel()  # never committed; dropped if it has started
        return ids

    def _send(self, plan: Iterable[tuple[PromptKind, str, Candidate | None]]
              ) -> Iterator[tuple[PromptKind, str, int | None, Future | _Made]]:
        """Render and send each request of `plan` as it is pulled, up to the
        sample budget left at the first pull.

        Its index counts the calls of its kind committed before the wave plus
        those ahead of it in the plan, and its seed is the sample count at the
        wave's start plus its position.  Only the tail of a wave goes
        uncommitted, so the index is that of a run making one call at a time.
        """
        samples, committed, ahead = self._samples, Counter(self._calls), Counter()
        for position, (kind, origin, parent) in enumerate(plan):
            if samples + position >= self.config.max_samples:
                return
            parent_ctx = {} if parent is None else dict(parent_thought=parent.thought,
                                                        parent_code=parent.code)
            ctx = self._ctx(**parent_ctx, seed=self.config.rng_seed + samples + position,
                            index=committed[kind] + ahead[kind])
            ahead[kind] += 1
            prompt = llm.render_prompt(kind, ctx, self.provider.config.max_prompt_bytes)
            yield kind, origin, None if parent is None else parent.id, self._call(
                self.provider.complete, prompt, seed=ctx.seed,
                temperature=self.provider.config.temperature)

    def _commit(self, kind: PromptKind, origin: str, parent_id: int | None, generation: int,
                response: Future | _Made) -> int | None:
        """One generation call's sample plus, on failure, the reflection loop; a
        candidate id or None.  A ProviderError of the call is raised after its
        `sample` event is logged."""
        try:
            raw = response.result()
        finally:
            self._log_sample(kind, parent_id, generation)
        try:
            thought, code = llm.parse_generation(raw)
        except ParseFailure as e:
            # Give reflection whatever there is to work with.
            thought = e.thought or "(no thought block provided)"
            code = e.code or raw
            self._log("evaluation", generation=generation, parent_id=parent_id, origin=origin,
                      error=str(e))
            return self._reflect(thought, code, str(e), parent_id, generation)
        result = self._attempt(thought, code, origin, parent_id, generation)
        if isinstance(result, int):
            return result
        return self._reflect(thought, code, result, parent_id, generation)

    def _attempt(self, thought: str, code: str, origin: str, parent_id: int | None,
                 generation: int, reflection_attempts: int = 0) -> int | str:
        """Compile + score (once per distinct tree) + send the category call;
        the candidate id or an error."""
        try:
            program = dsl.parse(code, self.signature)
        except ParseError as e:
            report = str(e)
        else:
            key = dsl.pretty_print(program)
            report = self._scores.get(key)
            if report is None:
                try:
                    report = problems.evaluate_candidate(self.suite, program)
                except CandidateFailure as e:
                    report = str(e)
                self._scores[key] = report
        if isinstance(report, str):
            self._log("evaluation", generation=generation, parent_id=parent_id, origin=origin,
                      error=report)
            return report
        self._last_id += 1
        if self.config.enable_categories:
            kind = PromptKind.CATEGORY_INDUCTION
            ctx = self._ctx(parent_thought=thought, parent_code=code,
                            known_categories=self._known_labels, seed=self._seed(),
                            index=self._calls[kind])
            self._calls[kind] += 1
            category = self._call(self._categorize, ctx)
        else:
            category = NO_CATEGORY_LABEL
        self._log("evaluation", generation=generation, candidate_id=self._last_id, origin=origin,
                  parent_id=parent_id, category=category, fitness=report.fitness,
                  gap_percent=report.gap_percent,
                  instance_gaps=[r.gap_percent for r in report.per_instance],
                  reflection_attempts=reflection_attempts, thought=thought, code=code)
        return self._last_id

    def _reflect(self, thought: str, code: str, error: str,
                 parent_id: int | None, generation: int) -> int | None:
        """The reflection chain, on the caller's thread: each attempt's index and
        prompt depend on the outcome of the one before."""
        budget_b = self.config.reflection_budget
        step = {"generation": generation, "parent_id": parent_id}
        if not self.config.enable_reflection or budget_b < 1:
            self._log("reflection", **step, attempt=0, outcome="disabled", error=error)
            return None
        for attempt in range(1, budget_b + 1):
            if self._budget_spent():
                self._log("reflection", **step, attempt=attempt, outcome="abandoned",
                          error="sample budget exhausted")
                return None
            self._log_sample(PromptKind.REFLECTION, parent_id, generation)
            ctx = self._ctx(parent_thought=thought, parent_code=code, error_message=error,
                            seed=self._seed(), index=self._calls[PromptKind.REFLECTION])
            self._calls[PromptKind.REFLECTION] += 1
            try:
                thought, code = llm.reflect(self.provider, ctx)
            except ParseFailure as e:
                error = str(e)
            else:
                result = self._attempt(thought, code, "reflection-repair", parent_id,
                                       generation, reflection_attempts=attempt)
                if isinstance(result, int):
                    self._log("reflection", **step, attempt=attempt, outcome="repaired",
                              candidate_id=result)
                    return result
                error = result
            self._log("reflection", **step, attempt=attempt, outcome="failed", error=error)
        self._log("reflection", **step, attempt=budget_b, outcome="abandoned", error=error)
        return None

    # ------------------------------------------------------------- spec ops

    def initialize(self) -> Population:
        """Sample initialization prompts until N viable candidates exist."""
        with self._open_pool():
            return self._initialize()

    def _initialize(self) -> Population:
        # Each request gives at most one viable candidate, so a wave of the
        # ones still missing makes exactly the requests of a one-at-a-time run.
        n = self.config.population_size
        ids: list[int] = []
        while len(ids) < n:
            if self._budget_spent():
                raise BudgetExhaustedError(
                    f"sample budget ({self.config.max_samples}) exhausted with only "
                    f"{len(ids)} of {n} initial candidates")
            ids += self._wave(((PromptKind.INITIALIZATION, "init", None)
                               for _ in range(n - len(ids))), generation=0)
        return Population.ranked(self._candidates(ids), capacity=n)

    def run(self) -> Candidate:
        """Initialize, then evolve until the budget or `max_generations` ends; the best Candidate.

        A raised error still logs the events before it, and no thread of the
        call pool outlives `run`.
        """
        cfg = self.config
        with self._open_pool():
            population = self._initialize()
            self._summarize(0, len(population.members), population)
            generation = 0
            while not self._budget_spent() and generation < cfg.max_generations:
                generation += 1
                offspring = self._wave(((kind, origin, parent) for parent in population.members
                                        for kind, origin in _OFFSPRING), generation)
                candidates = list(population.members) + self._candidates(offspring)
                population = select_next_generation(candidates, cfg)
                self._log("selection", generation=generation,
                          candidate_ids=[c.id for c in candidates],
                          selected_ids=[c.id for c in population.members])
                self._summarize(generation, len(offspring), population)
            return self.state.best

    def _summarize(self, generation: int, offspring: int, population: Population) -> None:
        state = self.state
        histogram: dict[str, int] = {}
        for c in population.members:
            histogram[c.category] = histogram.get(c.category, 0) + 1
        samples_before = state.summaries[-1]["cumulative_samples"] if state.summaries else 0
        self._log("generation-summary", generation=generation,
                  samples_used=state.samples - samples_before,
                  cumulative_samples=state.samples, offspring_added=offspring,
                  best_fitness=state.best.fitness, best_candidate_id=state.best.id,
                  category_histogram=histogram,
                  new_categories=[label for label, g in state.category_generation.items()
                                  if g == generation])
