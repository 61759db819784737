"""Seeded inputs of the benchmark workloads: a scripted transcript and a run config.

The workload seed decides which programs the transcript holds and in what
order, their constants, where the broken responses sit, the category labels
and, on llm-latency, the provider latency of each call.  The problem suite of
each workload is fixed, so the fitness of every program a transcript can hold
is a seed-independent golden (see goldens.json).

Why each workload exists:

- obp-evolve: the paper's OBP loop on 1k-item Weibull instances at capacities
  100 and 500.  Time goes to one `dsl.evaluate` call per item on vectors of
  a few feasible bins (about 2 on average), so per-call DSL dispatch
  dominates.  Compile-once and lockstep evaluation must show here.
- tsp-evolve: the same loop on uniform TSP (n = 100 and 200, two instances
  each).  It makes few `dsl.evaluate` calls on ~80-long vectors and spends
  most of its time building the per-step inputs in `construct_tour`.  A
  change that speeds up OBP's many short calls but costs long vectors or
  padding shows here.
- llm-latency: the OBP loop on a tiny suite behind a provider that waits a
  seeded per-call latency, standing in for a live model.  Provider wait is
  the loop, so provider concurrency must show here, and DSL or simulator
  changes must stay flat.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GENERATION_KINDS = ("initialization", "refinement", "innovation", "reflection")
CATEGORY_KIND = "category-induction"

# Paper defaults: N=10, k=4, lambda=0.7, B=3, 200 samples.
EVOLUTION = {"population_size": 10, "elite_categories": 4, "lambda": 0.7,
             "reflection_budget": 3, "max_samples": 200}

BROKEN_PER_BLOCK = 3  # of every BLOCK generation responses (15%)
BLOCK = 20

A_VALUES = ("0.5", "2", "5", "12")
B_VALUES = ("3", "50", "400")

# (thought, code); the catalog holds each template with every
# value of A_VALUES for {a} and of B_VALUES for {b}.
OBP_TEMPLATES = (
    ("use the most recently opened bin that fits", "return bin_index"),
    ("use the earliest opened bin that fits", "return -bin_index"),
    ("put the item where it leaves the least slack",
     "return -(cap_remaining - item)"),
    ("prefer the emptiest feasible bin", "return cap_remaining - item"),
    ("prefer near-exact fits, else pack tightly",
     "let slack = cap_remaining - item; return where((slack < {a}), {b} - slack, -slack)"),
    ("score bins by inverse slack",
     "return 1 / (cap_remaining - item + {a})"),
    ("tight fit with a small pull toward old bins",
     "return -(cap_remaining - item) - {a} * bin_index"),
    ("rank bins by fullness against the mean",
     "return mean(cap_remaining) - cap_remaining"),
    ("log-scaled tight fit",
     "return 0 - log(cap_remaining - item + {a})"),
    ("prefer bins holding a near-multiple of the item",
     "let ratio = cap_remaining / item; return 0 - abs(ratio - floor(ratio) - 0.5) * {a}"),
    ("soft best fit with exponential decay on slack",
     "return exp(0 - (cap_remaining - item) / {a})"),
    ("first fit among tight bins only",
     "let slack = cap_remaining - item; return where((slack < {a}), 0 - bin_index, 0 - 1000 - slack)"),
    ("reward nearly full bins relative to the largest gap",
     "let slack = cap_remaining - item; let full = (slack <= {a});"
     " return full * {b} - slack / maxval(cap_remaining)"),
    ("best fit when many bins are open, else first fit",
     "let n = len(cap_remaining); let slack = cap_remaining - item;"
     " return where((n > {b}), -slack, -bin_index)"),
    ("split bins at the mean slack",
     "let s = cap_remaining - item; let m = mean(s);"
     " return where((s > m), -s * {a}, {b} - s) - 0.001 * bin_index"),
    ("bounded inverse slack",
     "return min({b}, 1 / (cap_remaining - item + 0.2))"),
    ("quadratic slack penalty",
     "let slack = cap_remaining - item; return 0 - slack * slack - {a} * bin_index"),
    ("tight bins first, scaled by the emptiest bin",
     "let slack = cap_remaining - item; let frac = slack / (maxval(cap_remaining) + 1);"
     " let tight = (frac < 0.1 * {a}); return where(tight, {b} - frac,"
     " 0 - frac - bin_index / (len(cap_remaining) + 1))"),
    ("power-law decay of slack",
     "return pow(cap_remaining - item + 1, 0 - {a})"),
    ("exact fits first, then square-root slack",
     "let slack = cap_remaining - item; return where((slack == 0), {b}, sqrt(slack) * (0 - 1))"),
)

TSP_TEMPLATES = (
    ("visit the cities far from the start first", "return dist_to_start"),
    ("go to the nearest unvisited city", "return 0 - dist_to_current"),
    ("nearest city, pulled toward the start",
     "return 0 - dist_to_current - {a} * 0.1 * dist_to_start"),
    ("nearest city, preferring remote clusters",
     "return 0 - dist_to_current + {a} * 0.1 * mean_dist_remaining"),
    ("near cities by distance, far ones also by distance home",
     "let d = dist_to_current; return where((d < {a} * mean(d)), 0 - d, 0 - d - dist_to_start)"),
    ("distance relative to local density",
     "return 0 - dist_to_current / (mean_dist_remaining + {a})"),
    ("weigh the way home more as the tour fills",
     "let w = visited_fraction; return 0 - dist_to_current - w * {a} * dist_to_start"),
    ("powered distance with a density term",
     "return 0 - pow(dist_to_current, {a}) - 0.01 * {b} * mean_dist_remaining"),
    ("normalized closeness minus distance home",
     "let d = dist_to_current; let m = maxval(d);"
     " return (m - d) / (m + {a}) - 0.001 * {b} * dist_to_start"),
    ("log-scaled nearest neighbor",
     "return 0 - log(dist_to_current + {a})"),
    ("among near cities, stay close to home",
     "let d = dist_to_current; let near = (d < minval(d) * {a});"
     " return where(near, 0 - dist_to_start, 0 - d * 10)"),
    ("nearest city early, homeward late",
     "let d = dist_to_current; let n = len(d); return where((n > {b}), 0 - d, 0 - d - dist_to_start)"),
    ("distance growing with progress, density bonus",
     "return 0 - dist_to_current * (1 + {a} * visited_fraction) + 0.01 * {b} * mean_dist_remaining"),
    ("distance corrected by the centered distance home",
     "let d = dist_to_current; let s = dist_to_start;"
     " let score = d - 0.1 * {a} * (s - mean(s)); return 0 - score"),
    ("exponential closeness", "return exp(0 - dist_to_current * {a})"),
    ("close cities by density, far ones by progress",
     "let d = dist_to_current; let s = dist_to_start; let m = mean_dist_remaining;"
     " let close = (d <= {a} * mean(d)); return where(close, 0 - d - 0.01 * {b} * m,"
     " 0 - 2 * d + visited_fraction * s)"),
)

# One response of each failure class the engine must reject: ParseError
# (unknown function, syntax error), an evaluation kind error, a scalar
# result (CandidateFailure) and a response with no code fence (ParseFailure).
OBP_BROKEN = (
    ("unknown-function", "squeeze items with a helper", "return squeeze(cap_remaining, item)"),
    ("reduction-of-scalar", "subtract the item total", "return cap_remaining - sum(item)"),
    ("scalar-return", "score by item size alone", "return item * 2"),
    ("syntax-error", "tight fit, unbalanced", "return (cap_remaining - item"),
    ("missing-fence", "tight fit without a fence", "return -(cap_remaining - item)"),
)
TSP_BROKEN = (
    ("unknown-function", "nearest by a helper", "return nearest(dist_to_current)"),
    ("reduction-of-scalar", "subtract total progress", "return dist_to_current - sum(visited_fraction)"),
    ("scalar-return", "score by progress alone", "return visited_fraction"),
    ("syntax-error", "nearest, unbalanced", "return (0 - dist_to_current"),
    ("missing-fence", "nearest without a fence", "return 0 - dist_to_current"),
)
# Failure classes that stop before an evaluation event in a reflection call.
NO_EVALUATION_IN_REFLECTION = ("missing-fence",)

CATEGORY_LABELS = ("greedy tightest fit", "sequential scan", "load balancing", "threshold rule",
                   "nonlinear scoring", "statistical scoring", "adaptive rule", "lookahead")


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    suite: dict
    latency: dict | None = None  # {"median_ms", "sigma"} of the per-call provider wait

    @property
    def templates(self):
        return OBP_TEMPLATES if self.task == "obp" else TSP_TEMPLATES

    @property
    def broken(self):
        return OBP_BROKEN if self.task == "obp" else TSP_BROKEN


WORKLOADS = {
    w.name: w for w in (
        Workload("obp-evolve", "obp", {"sizes": [1000], "capacities": [100, 500], "seeds": [1]}),
        Workload("tsp-evolve", "tsp", {"sizes": [100, 200], "seeds": [1, 2], "mode": "uniform"}),
        Workload("llm-latency", "obp", {"sizes": [25], "capacities": [100], "seeds": [1]},
                 latency={"median_ms": 10.0, "sigma": 0.3}),
    )
}


@dataclass(frozen=True)
class Entry:
    kind: str
    index: int
    response: str
    code: str | None = None      # program text, None for category labels
    broken: str | None = None    # failure class of a deliberately broken response


def _fill(code: str, a: str, b: str) -> str:
    return code.replace("{a}", a).replace("{b}", b)


def catalog(workload: Workload) -> list[tuple[str, str]]:
    """(thought, code) of every valid program a transcript of this workload can hold."""
    programs = {}
    for thought, code in workload.templates:
        for a in (A_VALUES if "{a}" in code else ("",)):
            for b in (B_VALUES if "{b}" in code else ("",)):
                programs.setdefault(_fill(code, a, b), thought)
    return [(thought, code) for code, thought in programs.items()]


def _response(thought: str, code: str, fenced: bool = True) -> str:
    if not fenced:
        return f"{{{thought}}}\n{code}"
    return f"{{{thought}}}\n```\n{code}\n```"


def _generation_entries(workload: Workload, kind: str, count: int,
                        rng: random.Random) -> list[Entry]:
    """Stratified: every BLOCK responses hold BROKEN_PER_BLOCK broken ones, and the
    valid ones walk through seeded permutations of the whole catalog.  A run
    consumes close to one catalog's worth of refinements and of innovations,
    so the work in a run hardly depends on the seed."""
    programs = catalog(workload)
    valid: list[tuple[str, str]] = []
    classes: list[tuple[str, str, str]] = []
    out: list[Entry] = []
    for index in range(count):
        if index % BLOCK == 0:
            broken_at = set(rng.sample(range(BLOCK), BROKEN_PER_BLOCK))
        if index % BLOCK in broken_at:
            if not classes:
                classes = rng.sample(workload.broken, len(workload.broken))
            cls, thought, code = classes.pop()
            out.append(Entry(kind, index, _response(thought, code, cls != "missing-fence"),
                             code, cls))
            continue
        if not valid:
            valid = rng.sample(programs, len(programs))
        thought, code = valid.pop()
        out.append(Entry(kind, index, _response(thought, code), code))
    return out


def transcript(workload: Workload, seed: int) -> list[Entry]:
    """All transcript entries for one seed.  Each generation kind gets max_samples
    responses and category induction twice that, so no call can miss."""
    rng = random.Random(f"{workload.name}:{seed}")
    n = EVOLUTION["max_samples"]
    entries: list[Entry] = []
    for kind in GENERATION_KINDS:
        entries += _generation_entries(workload, kind, n, rng)
    entries += [Entry(CATEGORY_KIND, i, rng.choice(CATEGORY_LABELS)) for i in range(2 * n)]
    return entries


def config(workload: Workload) -> dict:
    return {
        "task": workload.task,
        "suite": workload.suite,
        "evolution": EVOLUTION,
        "provider": {"provider": "scripted", "transcript_path": "transcript.jsonl"},
        "output_dir": "runs",
    }


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, list[Entry]]:
    """Write transcript.jsonl and config.json; return the config path and the entries."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = transcript(workload, seed)
    lines = [json.dumps({"kind": e.kind, "index": e.index, "response": e.response})
             for e in entries]
    (directory / "transcript.jsonl").write_text("\n".join(lines) + "\n")
    path = directory / "config.json"
    path.write_text(json.dumps(config(workload), indent=2, sort_keys=True) + "\n")
    return path, entries
