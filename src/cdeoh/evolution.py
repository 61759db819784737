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
import functools
import itertools
import math
import os
import time
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from cdeoh import dsl, llm, problems
from cdeoh.dsl import ParseError
from cdeoh.jsonio import has_type, type_name
from cdeoh.llm import ParseFailure, PromptContext, PromptKind
from cdeoh.problems import BenchmarkSuite, CandidateFailure

# The origin of a candidate, by the kind of the call that produced it.
ORIGINS = {PromptKind.INITIALIZATION: "init", PromptKind.REFINEMENT: "refinement",
           PromptKind.INNOVATION: "innovation", PromptKind.REFLECTION: "reflection-repair"}

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
        if self.origin not in ORIGINS.values():
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
        if not self.lambda_weight >= 0:  # NaN too
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
# being committed.  While the provider is slow, the pool makes every call: the
# wave's requests, the category calls and each reflection attempt, sent ahead
# or not.  At 8, reflections sent ahead waited in the pool's queue behind a
# generation's calls (2N = 20 at the default population); 32 gained llm-latency
# at most 6% and cost tsp-evolve peak memory.
MAX_IN_FLIGHT = 16

# A call goes to the pool only after the provider's last call took this long;
# until then it is made on the caller's thread.  A pool thread must take the
# GIL from a caller that is simulating, which cost the caller about 2 ms per
# call on 2 vCPU: far more than a scripted call takes (tens of microseconds).
POOL_MIN_S = 0.001

# Worker processes that simulate a run's candidates: one per CPU this process
# may run on, and no more than a wave's window can keep busy.
SIM_WORKERS = min(len(os.sched_getaffinity(0)), MAX_IN_FLIGHT)

_OFFSPRING = (PromptKind.REFINEMENT, PromptKind.INNOVATION)

# The suite of a simulation worker process, set by `_start_worker` when the
# worker starts; never set in the engine's own process.
_worker_suite: BenchmarkSuite | None = None

_PR_SET_PDEATHSIG = 1  # prctl(2) option: a signal sent when the forking thread ends


def _start_worker(suite: BenchmarkSuite, engine_pid: int) -> None:
    import ctypes  # only a worker needs these
    import signal

    global _worker_suite
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the engine's to handle
    # The kernel kills the worker when the engine's thread ends, so no worker
    # outlives an engine that is killed before it can join its workers.
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != engine_pid:  # the engine ended before prctl took effect
        os._exit(1)
    _worker_suite = suite


# The engine sends a program's tasks one after another, so a worker needs
# only its latest few programs.
@functools.lru_cache(maxsize=MAX_IN_FLIGHT)
def _program(code: str, task: str) -> dsl.Program:
    """The worker's parsed program of `code`: parsed once, and its function
    generated on its first instance, for all the instances of the suite."""
    return dsl.parse(code, problems.input_signature(task))


def _simulate(index: int, code: str) -> problems.EvalReport | str:
    """Instance `index` of the worker's suite under the program `code`, which
    parses: its EvalReport or CandidateFailure text.  The code is sent, not the
    tree, because a tree's generated function does not pickle; each worker
    parses each text once (`_program`), since the engine sends one task per
    instance of each program."""
    program = _program(code, _worker_suite.task)
    try:
        return problems.simulate_instance(_worker_suite, index, program)
    except CandidateFailure as e:
        return str(e)


class _Made:
    """A call made at once on the caller's thread, read like the Future of a
    call on the pool.  A completed Future in its place made obp-evolve's median
    sample gap 9% longer (0.291 to 0.316 ms, 12 runs per side on 2 vCPU)."""

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

    def exception(self) -> Exception | None:
        return self._error

    def cancel(self) -> bool:
        return False


@dataclass
class _Request:
    """A sent generation or reflection call.  `parsed` is set once its response
    has arrived: the (thought, code) of the program, whose code is its key in
    the engine's scores, or the ParseFailure of the response."""
    kind: PromptKind
    parent_id: int | None
    response: Future | _Made
    parsed: tuple[str, str] | ParseFailure | None = None


def _next_failure(failure: tuple[str, str, str], attempt: _Request,
                  outcome: tuple[str, str, str]) -> tuple[str, str, str]:
    """What the next reflection prompt on `failure` shows once `attempt` failed
    with `outcome`: a response that does not parse keeps the last program."""
    return (*failure[:2], outcome[2]) if isinstance(attempt.parsed, ParseFailure) else outcome


class EvolutionEngine:
    """The loop, with the provider calls of each wave in flight together.

    A wave is the initialization requests still needed, or one refinement and
    one innovation per population member.  Every generation and reflection
    call is a `_Request`, rendered and sent by `_request` with its (kind, call
    index, seed).  A call's index counts the `sample` events of its kind
    before it in a run that makes one call at a time, as `_log` counts them
    (a category call's index is its candidate's id minus 1), and its seed is
    `rng_seed` plus the samples before it.

    `_wave` keeps the `MAX_IN_FLIGHT` requests after the one it commits in
    flight on a pool of as many threads (16).  It commits the responses on
    the caller's thread in plan order: it logs the sample, reads the
    request's outcome, runs a failure's reflection chain one attempt after
    another and sends a success's category call.  Events wait in `_queue`
    behind the first candidate whose label has not arrived, so the event
    stream is that of a run that makes one call at a time.  Requests past the
    point where the sample budget runs out are never committed: up to 16 may
    have been sent, and their responses and errors are dropped.  While the
    provider answers within `POOL_MIN_S`, each call is made on the caller's
    thread when it is sent, which changes only where it runs.

    While the provider is slow, `_prefetch` also sends reflection requests
    ahead.  It walks the window as a run making one call at a time would,
    and for each request that has failed sends the attempt that run would
    make next, attempt k + 1 once attempt k has failed.  Each attempt of
    `_reflect` is the request sent ahead with its exact prompt, else one sent
    then, so the events cannot change; a wrong guess is a dropped call, which
    no event records.  Where the caller must wait, for a committed response,
    a simulation or a reflection attempt, `_wait` parses each response of
    the window as it arrives and walks again.

    Candidates are simulated on `SIM_WORKERS` forked worker processes (one
    per CPU, at most `MAX_IN_FLIGHT`), one task per (program, instance).
    Before each commit, and in `_wait`, the caller parses every response of
    the window that has arrived and sends the simulations of each tree not
    yet scored, so the workers score ahead of the commits; the commit reads
    the results in instance order.  Scores are pure functions of the tree,
    so where and when they are computed changes no event.
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
        # The score of each code text, parsed once per run: its EvalReport,
        # its ParseError or CandidateFailure text, or the Futures of its
        # simulations, one per instance, until they are read.  A text takes
        # the entry of the first text with its tree (`_trees`: (bindings,
        # result) -> first text), so each tree is simulated once; no algebra
        # is normalised, as IEEE arithmetic is not associative.
        # Memory: one EvalReport (one gap per instance) or message per text.
        self._scores: dict[str, problems.EvalReport | str | list[Future]] = {}
        self._trees: dict[tuple, str] = {}
        self._emit = log or (lambda event, payload: None)
        # Events logged but not yet folded; an evaluation's category may still
        # be the Future of its category call.
        self._queue: deque[tuple[str, dict]] = deque()
        self._sampled: Counter[str] = Counter()  # sample events logged, queued or folded, by kind
        self._last_id = 0  # candidate ids handed out, queued or folded
        self._known_labels: tuple[str, ...] = ()  # as of the start of the wave
        self._pool: ThreadPoolExecutor | None = None  # open inside `run` and `initialize`
        self._sims = None  # the ProcessPoolExecutor of the simulations, open with `_pool`
        self._slow = False  # the provider's last call took POOL_MIN_S or more
        # The requests in flight after the one `_wave` commits, and the
        # reflection requests `_prefetch` sent in the current wave, by prompt.
        self._window: deque[_Request] = deque()
        self._prefetched: dict[str, _Request] = {}

    # ------------------------------------------------------------- plumbing

    def _ctx(self, **kw) -> PromptContext:
        return PromptContext(**self.base_ctx, **kw)

    def _log(self, event: str, **payload) -> None:
        """Queue an event, then fold and emit every queued event that is ready."""
        if event == "sample":
            self._sampled[payload["kind"]] += 1
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
        """The simulation workers and the call pool while the body runs.  On exit,
        also when the body raised, the queued events are logged, calls and
        simulations not yet started are cancelled, and every thread and worker
        process is joined."""
        import multiprocessing  # imported by a run only, so other commands start faster
        from concurrent.futures.process import ProcessPoolExecutor

        # References are cached on the instances, so forked workers inherit them.
        reference = problems.obp_lower_bound if self.suite.task == "obp" else problems.tsp_reference
        for instance in self.suite.instances:
            reference(instance)
        # Forked workers inherit the suite instead of unpickling it.  A fork
        # copies only the forking thread, so every worker is forked (by the
        # first submit) before this engine starts a thread.
        self._sims = ProcessPoolExecutor(SIM_WORKERS, multiprocessing.get_context("fork"),
                                         initializer=_start_worker, initargs=(self.suite, os.getpid()))
        try:
            self._sims.submit(int)
            self._pool = ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT,
                                            thread_name_prefix="cdeoh-call")
            try:
                yield
            finally:
                # No simulation is read after the body, so the workers are
                # joined while the last category calls are still in flight.
                self._sims.shutdown(wait=True, cancel_futures=True)
                try:
                    self._drain()
                finally:
                    self._pool.shutdown(wait=True, cancel_futures=True)
                    self._pool = None
        finally:
            self._sims.shutdown(wait=True, cancel_futures=True)  # done already, unless a fork failed
            self._sims = None
            # Simulations not yet read may have been cancelled.
            self._scores = {key: score for key, score in self._scores.items()
                            if not isinstance(score, list)}

    def _call(self, fn: Callable, *args, **kwargs) -> Future | _Made:
        """`fn(*args, **kwargs)`: on the pool while the provider is slow, else
        made now."""
        return (self._pool.submit if self._slow else _Made)(fn, *args, **kwargs)

    def _timed(self, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._slow = time.perf_counter() - start >= POOL_MIN_S

    @property
    def _samples(self) -> int:
        return self._sampled.total()

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

    def _wave(self, plan: Iterable[tuple[PromptKind, Candidate | None]],
              generation: int) -> list[int]:
        """Commit the requests (kind, parent) of `plan` in plan order, while up
        to MAX_IN_FLIGHT requests after the one being committed are in flight;
        the ids of the candidates they produced."""
        self._drain()
        self._known_labels = tuple(sorted(self.state.category_counts))
        requests = self._send(plan)
        window = self._window = deque(itertools.islice(requests, MAX_IN_FLIGHT))
        ids: list[int] = []
        try:
            while window and not self._budget_spent():
                request = window.popleft()
                window.extend(itertools.islice(requests, 1))
                for arrived in (request, *window):  # score ahead, in plan order
                    self._arrived(arrived)
                if self._slow:
                    self._prefetch((request, *window), self._samples)
                candidate_id = self._commit(request, generation)
                if candidate_id is not None:
                    ids.append(candidate_id)
        finally:
            for request in (*window, *self._prefetched.values()):
                request.response.cancel()  # never committed or used; dropped if it has started
            window.clear()
            self._prefetched.clear()
        return ids

    def _send(self, plan: Iterable[tuple[PromptKind, Candidate | None]]) -> Iterator[_Request]:
        """Send each request of `plan` as it is pulled, up to the sample budget
        left at the first pull.

        Its index is the count of `sample` events of its kind at the first
        pull plus the requests of that kind ahead of it in the plan, and its
        seed is the sample count then plus its position.  Only the tail of a
        wave goes uncommitted, so both are those of a run making one call at
        a time.
        """
        samples, index = self._samples, Counter(self._sampled)
        for position, (kind, parent) in enumerate(plan):
            if samples + position >= self.config.max_samples:
                return
            parent_ctx = {} if parent is None else dict(parent_thought=parent.thought,
                                                        parent_code=parent.code)
            ctx = self._ctx(**parent_ctx, seed=self.config.rng_seed + samples + position,
                            index=index[kind.value])
            index[kind.value] += 1
            yield self._request(self._call, kind, None if parent is None else parent.id, ctx)

    def _request(self, send: Callable, kind: PromptKind, parent_id: int | None,
                 ctx: PromptContext, prompt: str | None = None) -> _Request:
        """The call of `kind` on `ctx`, whose rendered `prompt` may be given,
        sent by `send(fn, *args, **kwargs)`: a reflection at the deterministic
        temperature, any other kind at the provider's."""
        if prompt is None:
            prompt = llm.render_prompt(kind, ctx, self.provider.config.max_prompt_bytes)
        temperature = (llm.DETERMINISTIC_TEMPERATURE if kind is PromptKind.REFLECTION
                       else self.provider.config.temperature)
        return _Request(kind, parent_id, send(self._timed, self.provider.complete, prompt,
                                             seed=ctx.seed, temperature=temperature))

    def _reflection_prompt(self, failure: tuple[str, str, str], samples: int,
                           index: int) -> tuple[PromptContext, str]:
        """The context and prompt of reflection call `index` on `failure`
        (thought, code, error), made as sample number `samples`."""
        thought, code, error = failure
        ctx = self._ctx(parent_thought=thought, parent_code=code, error_message=error,
                        seed=self.config.rng_seed + samples, index=index)
        return ctx, llm.render_prompt(PromptKind.REFLECTION, ctx,
                                      self.provider.config.max_prompt_bytes)

    def _prefetch(self, requests: Iterable[_Request], samples: int) -> None:
        """Send ahead the reflection calls of the failed requests of `requests`,
        requests of the window in plan order that a run making one call at a
        time would commit from sample `samples` + 1 on; a call whose prompt was
        sent in this wave already is not sent again.

        The walk counts samples and reflection calls as that run would.  It
        follows each chain as `_reflect` does: attempt k + 1 is rendered from
        attempt k's outcome once that has arrived and failed, and a chain whose
        attempts all failed counts `reflection_budget` samples.  It stops at a
        response that has not arrived or raised and where the sample budget
        would be spent.  A program still being simulated counts as a success,
        and a chain whose latest attempt has not arrived as repaired by it.
        """
        cfg = self.config
        if not cfg.enable_reflection:
            return
        index = self._sampled[PromptKind.REFLECTION.value]
        for request in requests:
            if samples >= cfg.max_samples or not self._arrived(request):
                return
            samples += 1
            failure = self._failure(request)
            for _ in range(cfg.reflection_budget if failure is not None else 0):
                if samples >= cfg.max_samples:
                    return
                samples += 1
                ctx, prompt = self._reflection_prompt(failure, samples, index)
                index += 1
                attempt = self._prefetched.get(prompt)
                if attempt is None:
                    attempt = self._prefetched[prompt] = self._request(
                        self._pool.submit, PromptKind.REFLECTION, request.parent_id, ctx, prompt)
                if not attempt.response.done():
                    break
                if not self._arrived(attempt):
                    return
                outcome = self._failure(attempt)
                if outcome is None:
                    break
                failure = _next_failure(failure, attempt, outcome)

    def _arrived(self, request: _Request) -> bool:
        """Whether the response of `request` has arrived without an error; if so,
        it is parsed."""
        response = request.response
        if request.parsed is None and response.done() and response.exception() is None:
            self._parse(request)
        return request.parsed is not None

    def _wait(self, future: Future | _Made, unlogged: int = 0):
        """`future.result()`, waiting as long as it takes.

        While the provider is slow and `future` is pending, the caller parses
        the window's responses that have arrived and runs the walk of
        `_prefetch` from the window, after the request being committed: that
        request, whose `unlogged` samples are still to be logged, counts as a
        success, or its chain as repaired by the attempt in flight.  Then it
        waits for `future` or for any response of the window or of the
        reflections sent ahead that was not done before the walk, and walks
        again.
        """
        while self._slow and not future.done():
            seen = {r.response for r in (*self._window, *self._prefetched.values())
                    if r.response.done()}
            for request in self._window:
                self._arrived(request)
            self._prefetch(self._window, self._samples + unlogged)
            wait([future, *(r.response for r in (*self._window, *self._prefetched.values())
                            if r.response not in seen)], return_when=FIRST_COMPLETED)
        return future.result()

    def _failure(self, request: _Request) -> tuple[str, str, str] | None:
        """The outcome of the arrived `request` if it failed, or None if its
        program succeeds or is still being simulated."""
        outcome = self._outcome(request, wait=False)
        return outcome if outcome is not None and isinstance(outcome[2], str) else None

    def _parse(self, request: _Request) -> None:
        """Read the arrived response of `request`, once, and compile its code."""
        if request.parsed is None:
            try:
                thought, code = llm.parse_generation(self._wait(request.response))
            except ParseFailure as e:
                request.parsed = e
            else:
                self._compile(code)
                request.parsed = (thought, code)

    def _compile(self, code: str) -> None:
        """Give `code` its entry in `_scores` unless it has one: its ParseError
        text if it does not parse, else the entry of the first text with the
        same tree, else the Futures of its simulations, sent to the workers now.
        A tree whose unread simulations `_open_pool` dropped is sent again."""
        if code in self._scores:
            return
        try:
            program = dsl.parse(code, self.signature)
        except ParseError as e:
            self._scores[code] = str(e)
            return
        tree = program.bindings, program.result
        first = self._trees.get(tree)
        if first in self._scores:
            self._scores[code] = self._scores[first]
        else:
            self._trees[tree] = code
            self._scores[code] = [self._sims.submit(_simulate, i, code)
                                  for i in range(len(self.suite.instances))]

    def _score(self, code: str, wait: bool = False) -> problems.EvalReport | str | None:
        """The score of a compiled text; without `wait`, None if reading it would
        wait for a simulation or raise its error.  Its simulations are read in
        instance order, and the first failure's text is its score, as
        `evaluate_candidate` fails fast; the later ones are cancelled if they
        have not started."""
        score = self._scores[code]
        if isinstance(score, list):
            reports = []
            for simulation in score:
                if not (wait or simulation.done() and simulation.exception() is None):
                    return None
                result = self._wait(simulation)
                if isinstance(result, str):
                    for later in score:
                        later.cancel()
                    break
                reports.append(result)
            else:
                result = problems.mean_report(reports)
            self._scores[code] = score = result
        return score

    def _outcome(self, request: _Request, wait: bool
                 ) -> tuple[str, str, problems.EvalReport | str] | None:
        """The (thought, code, EvalReport or error text) of `request`, whose
        response has arrived unless `wait`; a ProviderError of its call is
        raised.  For a response missing its thought or code block, the thought
        and code are whatever there is for a reflection prompt to show; a
        program that does not parse has its ParseError text as its score.
        Without `wait`, None while the program's score is not known."""
        self._parse(request)
        parsed = request.parsed
        if isinstance(parsed, ParseFailure):
            return (parsed.thought or "(no thought block provided)",
                    parsed.code or request.response.result(), str(parsed))
        thought, code = parsed
        score = self._score(code, wait)
        return None if score is None else (thought, code, score)

    def _commit(self, request: _Request, generation: int) -> int | None:
        """One generation call's sample plus, on failure, the reflection loop; a
        candidate id or None.  A ProviderError of the call is raised after its
        `sample` event is logged."""
        try:
            self._wait(request.response, unlogged=1)
        finally:
            self._log_sample(request.kind, request.parent_id, generation)
        outcome = self._outcome(request, wait=True)
        candidate_id = self._attempt(outcome, request.kind, request.parent_id, generation)
        if candidate_id is None:
            return self._reflect(outcome, request.parent_id, generation)
        return candidate_id

    def _attempt(self, outcome: tuple[str, str, problems.EvalReport | str], kind: PromptKind,
                 parent_id: int | None, generation: int,
                 reflection_attempts: int = 0) -> int | None:
        """Log the evaluation of `outcome`, from a call of `kind`, and send a
        success's category call; the candidate id or None."""
        thought, code, report = outcome
        if isinstance(report, str):
            self._log("evaluation", generation=generation, parent_id=parent_id,
                      origin=ORIGINS[kind], error=report)
            return None
        self._last_id += 1
        if self.config.enable_categories:  # one call per candidate, in id order
            ctx = self._ctx(parent_thought=thought, parent_code=code,
                            known_categories=self._known_labels, seed=self._seed(),
                            index=self._last_id - 1)
            category = self._call(self._timed, self._categorize, ctx)
        else:
            category = NO_CATEGORY_LABEL
        self._log("evaluation", generation=generation, candidate_id=self._last_id,
                  origin=ORIGINS[kind], parent_id=parent_id, category=category,
                  fitness=report.fitness, gap_percent=report.gap_percent,
                  instance_gaps=[r.gap_percent for r in report.per_instance],
                  reflection_attempts=reflection_attempts, thought=thought, code=code)
        return self._last_id

    def _reflect(self, failure: tuple[str, str, str], parent_id: int | None,
                 generation: int) -> int | None:
        """The reflection chain of `failure` (thought, code, error): each
        attempt's index and prompt depend on the outcome of the one before.  An
        attempt is the request sent ahead with its prompt, else one sent now by
        `_call`; a ProviderError of either is raised."""
        budget_b = self.config.reflection_budget
        step = {"generation": generation, "parent_id": parent_id}
        if not self.config.enable_reflection or budget_b < 1:
            self._log("reflection", **step, attempt=0, outcome="disabled", error=failure[2])
            return None
        for attempt in range(1, budget_b + 1):
            if self._budget_spent():
                self._log("reflection", **step, attempt=attempt, outcome="abandoned",
                          error="sample budget exhausted")
                return None
            self._log_sample(PromptKind.REFLECTION, parent_id, generation)
            ctx, prompt = self._reflection_prompt(
                failure, self._samples, self._sampled[PromptKind.REFLECTION.value] - 1)
            request = self._prefetched.get(prompt) or self._request(
                self._call, PromptKind.REFLECTION, parent_id, ctx, prompt)
            outcome = self._outcome(request, wait=True)
            if not isinstance(request.parsed, ParseFailure):  # else logged as no evaluation
                candidate_id = self._attempt(outcome, PromptKind.REFLECTION, parent_id,
                                             generation, reflection_attempts=attempt)
                if candidate_id is not None:
                    self._log("reflection", **step, attempt=attempt, outcome="repaired",
                              candidate_id=candidate_id)
                    return candidate_id
            failure = _next_failure(failure, request, outcome)
            self._log("reflection", **step, attempt=attempt, outcome="failed", error=failure[2])
        self._log("reflection", **step, attempt=budget_b, outcome="abandoned", error=failure[2])
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
            ids += self._wave(((PromptKind.INITIALIZATION, None) for _ in range(n - len(ids))),
                              generation=0)
        return Population.ranked(self._candidates(ids), capacity=n)

    def run(self) -> Candidate:
        """Initialize, then evolve until the budget or `max_generations` ends; the best Candidate.

        A raised error still logs the events before it, and no thread of the
        call pool and no simulation worker outlives `run`.
        """
        cfg = self.config
        with self._open_pool():
            population = self._initialize()
            self._summarize(0, len(population.members), population)
            generation = 0
            while not self._budget_spent() and generation < cfg.max_generations:
                generation += 1
                offspring = self._wave(((kind, parent) for parent in population.members
                                        for kind in _OFFSPRING), generation)
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
