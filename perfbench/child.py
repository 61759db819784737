"""One `cdeoh run` in a fresh interpreter, instrumented from outside.

Usage: python3 perfbench/child.py SPEC.json

SPEC is written by run.py.  Its keys:
  mode     "run" (run the user command) or "checksum" (fitness of the
           reference programs on the default suites)
  config   path of the run config (mode "run")
  result   path where this process writes its JSON result
  src      directory the cdeoh package must be imported from
  trace    record spans around the public functions of every layer
  spans    path of the span file written when the run ends (trace only)
  latency  {"seed", "median_ms", "sigma"} to put a LatencyProvider in front
           of the scripted provider, or null

Nothing under src/ is changed: every hook is installed by replacing a name
where its caller looks it up.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import sys
import threading
import time
from pathlib import Path

import numpy as np


class LatencyProvider:
    """A provider that waits a seeded lognormal latency, then answers from the wrapped one.

    The wait of a call depends only on (seed, prompt kind, per-kind index), not
    on call order, so it is the same in every run and stays valid if calls are
    dispatched concurrently.  time.sleep releases the GIL.
    """

    def __init__(self, inner, seed: int, median_ms: float, sigma: float):
        from cdeoh import llm

        self._kind_of = llm.prompt_kind_of
        self.inner = inner
        self.config = inner.config
        self._seed = seed
        self._mu = math.log(median_ms / 1000.0)
        self._sigma = sigma
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()

    def delay_s(self, kind: str, index: int) -> float:
        rng = random.Random(f"latency:{self._seed}:{kind}:{index}")
        return rng.lognormvariate(self._mu, self._sigma)

    def complete(self, prompt: str, seed: int = 0, temperature: float | None = None) -> str:
        kind = self._kind_of(prompt).value
        with self._lock:
            index = self._counters.get(kind, 0)
            self._counters[kind] = index + 1
        time.sleep(self.delay_s(kind, index))
        return self.inner.complete(prompt, seed=seed, temperature=temperature)


FIELDS = ("sid", "parent", "name", "start", "end", "size", "error")


class Tracer:
    """Spans (id, parent, name, start, end, size, error) kept in memory as tuples.

    `size` is a per-span quantity chosen by the hook (input vector length,
    prompt bytes).  Parents come from a per-thread stack of open spans.
    list.append and the id counter are atomic, so hooks need no lock.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._next_id = itertools.count().__next__
        self._local = threading.local()

    def wrap(self, fn, name: str, size=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        record, local, next_id, clock = self.spans.append, self._local, self._next_id, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = [-1]
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            error, amount = 0, 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    amount = size(args, result)
                return result
            except BaseException:
                error = 1
                raise
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, nid, start, end, amount, error))
        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        """Replace owner.attr by its traced version.

        A name the program no longer has ends the run: skipping it would report
        its layer as taking no time.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            raise SystemExit(f"trace hook target {getattr(owner, '__name__', owner)}.{attr}"
                             f" is missing; update install_tracer in perfbench/child.py")
        setattr(owner, attr, self.wrap(fn, name, size))

    def save(self, path: Path) -> None:
        """Write the names and one float64 row per span (the fields in FIELDS order)."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 spans=np.array(self.spans, dtype=np.float64).reshape(-1, len(FIELDS)))


def _vector_length(args, result) -> int:
    for value in args[1].values():
        if type(value) is np.ndarray:
            return value.shape[0]
    return 0


def _text_bytes(args, result) -> int:
    return len(result.encode("utf-8"))


def install_tracer(tracer: Tracer) -> None:
    from cdeoh import cli, dsl, evolution, llm, problems

    tracer.patch(cli, "cmd_run", "cli.cmd_run")
    tracer.patch(cli.RunLogWriter, "emit", "cli.emit")
    # problems binds `evaluate` at import (from cdeoh.dsl import evaluate), so
    # the simulators only see a hook installed in problems' namespace.
    tracer.patch(problems, "evaluate", "dsl.evaluate", _vector_length)
    tracer.patch(dsl, "evaluate", "dsl.evaluate", _vector_length)
    tracer.patch(dsl, "parse", "dsl.parse")
    for attr in ("evaluate_candidate", "pack_online", "construct_tour",
                 "obp_lower_bound", "tsp_reference"):
        tracer.patch(problems, attr, f"problems.{attr}")
    tracer.patch(problems, "make_obp_suite", "problems.make_suite")
    tracer.patch(problems, "make_tsp_suite", "problems.make_suite")
    tracer.patch(evolution.EvolutionEngine, "run", "evolution.run")
    tracer.patch(evolution, "select_next_generation", "evolution.select_next_generation")
    tracer.patch(llm, "render_prompt", "llm.render_prompt", _text_bytes)
    for attr in ("parse_generation", "induce_category", "reflect"):
        tracer.patch(llm, attr, f"llm.{attr}")


def run(spec: dict) -> int:
    from cdeoh import cli, evolution, llm

    marks: dict[str, float] = {}
    tracer = Tracer() if spec["trace"] else None

    engine_run = evolution.EvolutionEngine.run

    @functools.wraps(engine_run)
    def timed_run(self):
        marks["run_enter"] = time.monotonic()
        try:
            return engine_run(self)
        finally:
            marks["run_exit"] = time.monotonic()

    evolution.EvolutionEngine.run = timed_run

    make_provider = llm.make_provider

    def benchmark_provider(config):
        provider = make_provider(config)
        if spec["latency"]:
            provider = LatencyProvider(provider, **spec["latency"])
        if tracer is not None:
            tracer.patch(provider, "complete", "llm.complete")
        return provider

    llm.make_provider = benchmark_provider
    if tracer is not None:
        install_tracer(tracer)

    rc = cli.main(["run", spec["config"]])
    if tracer is not None:
        tracer.save(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps({"marks": marks}))
    return rc


# Reference programs of ROADMAP item 1's checksum (problems.BEST_FIT_PROGRAM and
# problems.NEAREST_NEIGHBOR_PROGRAM at the time the goldens were recorded).
BEST_FIT_PROGRAM = "return -(cap_remaining - item)"
NEAREST_NEIGHBOR_PROGRAM = "return 0 - dist_to_current"


def checksum(spec: dict) -> int:
    """Fitness bits of best fit on the default OBP suite (6 settings x 5 seeds)
    and of nearest neighbor on the default TSP suite (4 sizes x 4 seeds)."""
    from cdeoh import dsl, problems

    suites = {
        "obp_best_fit": (problems.make_obp_suite([1000, 5000, 10000], [100, 500], [1, 2, 3, 4, 5]),
                         BEST_FIT_PROGRAM),
        "tsp_nearest_neighbor": (problems.make_tsp_suite([50, 100, 200, 500], [1, 2, 3, 4]),
                                 NEAREST_NEIGHBOR_PROGRAM),
    }
    fitness = {}
    for key, (suite, code) in suites.items():
        program = dsl.parse(code, problems.input_signature(suite.task))
        fitness[key] = problems.evaluate_candidate(suite, program).fitness.hex()
    Path(spec["result"]).write_text(json.dumps({"fitness": fitness}))
    return 0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import cdeoh
    src = Path(spec["src"]).resolve()
    if src not in Path(cdeoh.__file__).resolve().parents:
        print(f"cdeoh imported from {cdeoh.__file__}, not from {src}", file=sys.stderr)
        return 2
    return checksum(spec) if spec["mode"] == "checksum" else run(spec)


if __name__ == "__main__":
    sys.exit(main())
