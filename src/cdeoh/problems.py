"""Benchmark tasks: online bin packing and constructive TSP.

Instances are generated deterministically from seeds, candidate priority
functions are run through online/constructive simulations, and fitness is
the negated mean relative gap to a reference (a Martello-Toth lower bound
for OBP, a nearest-neighbor + 2-opt tour for TSP), so larger fitness is
better.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from cdeoh import dsl, jsonio
from cdeoh.dsl import EvalError, Program, bind
from cdeoh.dsl import evaluate  # noqa: F401  (the benchmark's tracer hooks problems.evaluate)

OBP_INPUTS: Mapping[str, dsl.Kind] = {
    "item": "scalar",
    "cap_remaining": "vector",
    "bin_index": "vector",
}

TSP_INPUTS: Mapping[str, dsl.Kind] = {
    "dist_to_current": "vector",
    "dist_to_start": "vector",
    "mean_dist_remaining": "vector",
    "visited_fraction": "scalar",
}

TASKS = ("obp", "tsp")
MAX_CAPACITY = 2**53  # bin loads are float64 in the simulator, exact up to here


class CandidateFailure(Exception):
    """A candidate program failed during simulation.

    The message is self-contained (error kind, position, shape details) so
    it can be pasted into a repair prompt.
    """


def input_signature(task: str) -> Mapping[str, dsl.Kind]:
    if task == "obp":
        return dict(OBP_INPUTS)
    if task == "tsp":
        return dict(TSP_INPUTS)
    raise ValueError(f"unknown task {task!r}")


_OBP_TASK_TEXT = """\
Online bin packing. Items arrive one at a time and each must be placed
immediately into a bin of fixed capacity; the goal is to use as few bins
as possible. You write a priority function that scores every currently
feasible bin (bins whose remaining capacity fits the item). Inputs:
  item           (scalar) size of the arriving item
  cap_remaining  (vector) remaining capacity of each feasible bin
  bin_index      (vector) original index of each feasible bin
The item is placed into the feasible bin with the highest priority
(ties go to the lowest bin index). A NaN priority means "never use this
bin"; if every priority is NaN a fresh bin is opened. Lower final bin
counts score better."""

_TSP_TASK_TEXT = """\
Traveling salesman, constructive. Starting from city 0, the tour is built
by repeatedly moving to one unvisited city until all are visited, then
returning to the start; the goal is a short tour. You write a priority
function scored over the unvisited cities. Inputs:
  dist_to_current     (vector) distance from the current city to each unvisited city
  dist_to_start       (vector) distance from the start city to each unvisited city
  mean_dist_remaining (vector) mean distance from each unvisited city to the other unvisited cities
  visited_fraction    (scalar) fraction of cities already visited
The tour moves to the unvisited city with the highest priority (ties go
to the lowest city index; NaN never wins). Shorter tours score better."""


def task_description(task: str) -> str:
    if task == "obp":
        return _OBP_TASK_TEXT
    if task == "tsp":
        return _TSP_TASK_TEXT
    raise ValueError(f"unknown task {task!r}")


# --------------------------------------------------------------------------
# Instances
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ObpInstance:
    capacity: int
    items: tuple[int, ...]
    _lower_bound: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= self.capacity <= MAX_CAPACITY:
            raise ValueError(f"capacity must lie in [2, {MAX_CAPACITY}]")
        if not self.items:
            raise ValueError("items must be non-empty")
        if any(x < 1 or x > self.capacity for x in self.items):
            raise ValueError("every item must lie in [1, capacity]")


@dataclass(eq=False)
class TspInstance:
    coords: np.ndarray  # (n, 2) in [0, 1]^2
    dist: np.ndarray = field(init=False, repr=False)  # (n, n) Euclidean distances
    _reference: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 2:
            raise ValueError("coords must be a list of [x, y] pairs")
        if self.coords.shape[0] < 3:
            raise ValueError("need at least 3 cities")
        # Cities too far apart give inf (and infinite coordinates NaN), rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            delta = self.coords[:, None, :] - self.coords[None, :, :]
            self.dist = np.sqrt((delta ** 2).sum(axis=-1))
            total = self.dist.sum()  # bounds every tour length
        if not np.isfinite(total):
            raise ValueError("city distances must be finite; the coordinates are too large")
        if total == 0:
            raise ValueError("all cities coincide, so every tour has length 0")

    @property
    def n_cities(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class EvalReport:
    raw_metric: float       # OBP: bins used; TSP: tour length
    reference: float        # OBP: lower bound; TSP: reference tour length
    gap_percent: float      # 100 * (raw - reference) / reference
    fitness: float          # -gap_percent; the engine maximizes
    per_instance: tuple["EvalReport", ...] = ()


def _make_report(raw: float, reference: float) -> EvalReport:
    gap = 100.0 * (raw - reference) / reference
    return EvalReport(raw_metric=float(raw), reference=float(reference), gap_percent=gap, fitness=-gap)


@dataclass(frozen=True)
class BenchmarkSuite:
    task: str
    instances: tuple
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if not self.instances:
            raise ValueError("suite must contain at least one instance")
        if len(self.labels) != len(self.instances):
            raise ValueError("one label per instance required")


# --------------------------------------------------------------------------
# OBP generation and lower bound
# --------------------------------------------------------------------------

def gen_obp(seed: int, n_items: int, capacity: int,
            shape: float = 3.0, scale: float = 45.0) -> ObpInstance:
    """Weibull-distributed item sizes, rounded up and clamped to [1, capacity]."""
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if not 2 <= capacity <= MAX_CAPACITY:
        raise ValueError(f"capacity must lie in [2, {MAX_CAPACITY}]")
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # a huge scale gives inf, clipped to capacity below
        raw = rng.weibull(shape, n_items) * scale
    items = np.clip(np.ceil(raw), 1, capacity).astype(int)
    return ObpInstance(capacity=capacity, items=tuple(int(x) for x in items))


def obp_lower_bound(instance: ObpInstance) -> int:
    """Martello-Toth L2 bound, maximized over item-size thresholds.

    Always >= ceil(sum/capacity) (the threshold-0 case) and never exceeds
    the optimal bin count.  Computed once per instance.
    """
    if instance._lower_bound is None:
        object.__setattr__(instance, "_lower_bound", _martello_toth_l2(instance))
    return instance._lower_bound


def _martello_toth_l2(instance: ObpInstance) -> int:
    c = instance.capacity
    sizes = sorted(instance.items)
    n = len(sizes)
    prefix = [0] * (n + 1)
    for i, s in enumerate(sizes):
        prefix[i + 1] = prefix[i] + s
    half = c / 2.0
    idx_half = bisect.bisect_right(sizes, half)  # sizes[idx_half:] are > c/2

    # L(alpha) is piecewise constant in the threshold; evaluating at 0 and
    # at every breakpoint covers all pieces.
    candidates = {0}
    for s in set(sizes):
        for a in (s, s + 1, c - s, c - s + 1):
            if 0 <= a <= c // 2:
                candidates.add(a)

    best = 1
    for alpha in candidates:
        # J1: sizes > c - alpha; J2: c/2 < sizes <= c - alpha; J3: alpha <= sizes <= c/2
        idx_c_minus_a = bisect.bisect_right(sizes, c - alpha)
        n1 = n - idx_c_minus_a
        n2 = idx_c_minus_a - idx_half
        sum2 = prefix[idx_c_minus_a] - prefix[idx_half]
        idx_alpha = bisect.bisect_left(sizes, alpha)
        sum3 = prefix[idx_half] - prefix[min(idx_alpha, idx_half)]
        spare = n2 * c - sum2
        extra = max(0, -((-(sum3 - spare)) // c))  # ceil for ints
        best = max(best, n1 + n2 + extra)
    return int(best)


# --------------------------------------------------------------------------
# OBP online simulation
# --------------------------------------------------------------------------

def _bind(program: Program, signature: Mapping[str, dsl.Kind], length: int, over: str):
    """`dsl.bind` for a simulator: the program's generated function and the
    inputs it reads, or the CandidateFailure an evaluate call of that length
    would end in."""
    try:
        run, kind, reads = bind(program, signature, length)
    except EvalError as e:
        raise CandidateFailure(str(e)) from e
    if kind != "vector":
        raise CandidateFailure(
            f"priority function must return a vector over the {over}, got a scalar")
    return run, reads


def _first_max(prio: np.ndarray) -> tuple[int, np.float64]:
    """The index and value of the first maximum of `prio`, where NaN counts as -inf."""
    best = prio.argmax()  # the first NaN, if there is one
    top = prio[best]
    if top != top:
        prio = np.fmax(prio, -np.inf)
        best = prio.argmax()
        top = prio[best]
    return int(best), top


def pack_online(instance: ObpInstance, program: Program) -> list[int]:
    """Run the online packing simulation; returns the final bin loads.

    Raises CandidateFailure on any evaluation error or wrong-shape result.
    """
    cap = instance.capacity
    n = len(instance.items)
    # Items and loads per open bin are float64, so the program inputs need no
    # conversion.  They are integers <= capacity, so every value stays exact.
    remaining = np.empty(n, dtype=np.float64)
    n_open = 0
    live = remaining[:n_open]  # the open bins
    checked = 0  # calls with up to this many feasible bins pass `bind`'s checks
    with np.errstate(all="ignore"):
        for item in np.asarray(instance.items, dtype=np.float64):
            feasible = (live >= item).nonzero()[0]
            k = feasible.size
            place_at = -1
            if k > 0:
                if k > checked:
                    run, reads = _bind(program, OBP_INPUTS, k, "feasible bins")
                    checked = k
                env = {}
                if "item" in reads:
                    env["item"] = item
                if "cap_remaining" in reads:
                    env["cap_remaining"] = live[feasible]
                if "bin_index" in reads:
                    env["bin_index"] = feasible.astype(np.float64)
                best, top = _first_max(run(env))  # first max <=> lowest bin_index
                if top != -np.inf:
                    place_at = int(feasible[best])
            if place_at < 0:
                place_at = n_open
                remaining[place_at] = cap
                n_open += 1
                live = remaining[:n_open]
            left = remaining[place_at] - item
            assert left >= 0, "bin overfilled"
            remaining[place_at] = left
    loads = cap - remaining[:n_open]
    return [int(x) for x in loads]


def simulate_obp(instance: ObpInstance, program: Program) -> EvalReport:
    loads = pack_online(instance, program)
    return _make_report(len(loads), obp_lower_bound(instance))


# --------------------------------------------------------------------------
# OBP baselines (independent of the expression-language path)
# --------------------------------------------------------------------------

def first_fit_bin_count(items: Sequence[int], capacity: int) -> int:
    remaining = np.empty(len(items), dtype=np.int64)
    n_open = 0
    for item in items:
        fit = np.nonzero(remaining[:n_open] >= item)[0]
        if fit.size:
            remaining[fit[0]] -= item
        else:
            remaining[n_open] = capacity - item
            n_open += 1
    return n_open


def best_fit_bin_count(items: Sequence[int], capacity: int) -> int:
    # Sorted remaining capacities; best fit = tightest bin that still fits.
    remaining: list[int] = []
    for item in items:
        i = bisect.bisect_left(remaining, item)
        if i == len(remaining):
            bisect.insort(remaining, capacity - item)
        else:
            r = remaining.pop(i)
            bisect.insort(remaining, r - item)
    return len(remaining)


BEST_FIT_PROGRAM = "return -(cap_remaining - item)"
FIRST_FIT_PROGRAM = "return -bin_index"


# --------------------------------------------------------------------------
# TSP generation
# --------------------------------------------------------------------------

def gen_tsp(seed: int, n_cities: int, mode: str = "uniform") -> TspInstance:
    """Uniform coordinates in [0,1]^2, or a rescaled 3-cluster Gaussian mixture."""
    if n_cities < 3:
        raise ValueError("n_cities must be >= 3")
    rng = np.random.default_rng(seed)
    if mode == "uniform":
        coords = rng.random((n_cities, 2))
    elif mode == "gaussian-mixture":
        k = 3
        centers = 0.2 + 0.6 * rng.random((k, 2))
        which = rng.integers(0, k, size=n_cities)
        coords = centers[which] + rng.normal(0.0, 0.05, size=(n_cities, 2))
        lo = coords.min(axis=0)
        span = coords.max(axis=0) - lo
        span[span == 0.0] = 1.0
        coords = (coords - lo) / span
    else:
        raise ValueError(f"unknown mode {mode!r} (expected 'uniform' or 'gaussian-mixture')")
    return TspInstance(coords)


def tour_length(instance: TspInstance, tour: Sequence[int]) -> float:
    d = instance.dist
    total = 0.0
    for a, b in zip(tour, tour[1:]):
        total += d[a, b]
    total += d[tour[-1], tour[0]]
    return float(total)


def nearest_neighbor_tour(instance: TspInstance) -> list[int]:
    d = instance.dist
    n = instance.n_cities
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    tour = [0]
    cur = 0
    for _ in range(n - 1):
        row = np.where(visited, np.inf, d[cur])
        cur = int(np.argmin(row))  # first min <=> lowest index
        visited[cur] = True
        tour.append(cur)
    return tour


def two_opt(instance: TspInstance, tour: Sequence[int]) -> list[int]:
    """First-improvement 2-opt: while some move shortens the tour by more than
    `1e-10 * min(1, longest distance)`, reverse positions i..j of the first
    such move (i, j), 1 <= i < j, in row-major order.  Its gain is
    `((d[p,x] + d[y,q]) - d[p,y]) - d[x,q]` for p, y = t[i-1], t[i] and
    x, q = t[j], t[j+1], t[n] being t[0].

    The improving moves are kept as a mask.  A reversal of i..j changes only
    the gains of rows i..j+1 and columns i-1..j, so only those are computed
    again, from `w`, the distances in tour order, whose rows and columns are
    reversed with the tour.  Each gain has the bits of a full recomputation
    (`tests/oracles.py` keeps one), so the tours are the same."""
    d = instance.dist
    t = np.asarray(tour, dtype=np.int64)
    n = t.shape[0]
    if n < 4:
        return [int(x) for x in t]
    eps = 1e-10 * min(1.0, float(d.max()))  # relative, so the tour does not depend on the units
    w = np.empty((n, n + 1))  # w[a, b] = d[t[a], t[b]]; column n repeats column 0
    w[:, :n] = d[t[:, None], t[None, :]]
    w[:, n] = w[:, 0]
    edge = np.diagonal(w, 1)  # a view: edge[b] = d[t[b], t[b+1]]
    allowed = np.triu(np.ones((n, n), dtype=bool), 1)
    allowed[0] = False  # an i = 0 move is the (j+1, n-1) move
    improving = np.zeros((n, n), dtype=bool)

    def recompute(rows: slice, cols: slice) -> None:
        p, y = slice(rows.start - 1, rows.stop - 1), rows
        x, q = cols, slice(cols.start + 1, cols.stop + 1)
        gain = ((w[p, x] + w[y, q]) - edge[p, None]) - edge[None, x]
        improving[rows, cols] = (gain < -eps) & allowed[rows, cols]

    recompute(slice(1, n), slice(0, n))
    while True:
        i, j = divmod(int(np.argmax(improving)), n)  # the first True, if any
        if not improving[i, j]:
            return [int(x) for x in t]
        t[i:j + 1] = t[i:j + 1][::-1]
        w[i:j + 1] = w[i:j + 1][::-1]
        w[:, i:j + 1] = w[:, i:j + 1][:, ::-1]
        recompute(slice(i, min(j + 2, n)), slice(0, n))
        recompute(slice(1, n), slice(i - 1, j + 1))


def tsp_reference(instance: TspInstance) -> float:
    """Deterministic reference tour length: nearest neighbor then 2-opt."""
    if instance._reference is None:
        nn = nearest_neighbor_tour(instance)
        improved = two_opt(instance, nn)
        instance._reference = tour_length(instance, improved)
    return instance._reference


def construct_tour(instance: TspInstance, program: Program) -> list[int]:
    """Build a tour by the candidate's priorities; always a permutation."""
    d = instance.dist
    n = instance.n_cities
    # Bound for the first step; later steps have fewer cities, so pass the same checks.
    run, reads = _bind(program, TSP_INPUTS, n - 1, "unvisited cities")
    # The unvisited cities in increasing order, u[:m].  A program that reads
    # mean_dist_remaining also gets their distances among each other,
    # sub[:m, :m] == d[np.ix_(u[:m], u[:m])].  Picking a city copies the four
    # blocks around its row and column into the same places of a second
    # buffer, less one row and column, and the buffers swap.  The order is
    # kept, and each row of the live block sums exactly as a fresh gather would.
    u = np.arange(1, n, dtype=np.int64)
    means = "mean_dist_remaining" in reads
    sub = d[1:, 1:].copy() if means else None
    spare = np.empty_like(sub) if means else None
    tour = [0]
    cur = 0
    with np.errstate(all="ignore"):
        for m in range(n - 1, 0, -1):
            env = {}
            # A gather from a row view is faster than one with a row index.
            if "dist_to_current" in reads:
                env["dist_to_current"] = d[cur][u[:m]]
            if "dist_to_start" in reads:
                env["dist_to_start"] = d[0][u[:m]]
            if means:
                env["mean_dist_remaining"] = (sub[:m, :m].sum(axis=1) / (m - 1) if m > 1
                                              else np.zeros(1))
            if "visited_fraction" in reads:
                env["visited_fraction"] = np.float64((n - m) / n)
            pick, _ = _first_max(run(env))  # first max <=> lowest city index; all -inf picks 0
            cur = int(u[pick])
            tour.append(cur)
            u[pick:m - 1] = u[pick + 1:m]
            if means:
                spare[:pick, :pick] = sub[:pick, :pick]
                spare[:pick, pick:m - 1] = sub[:pick, pick + 1:m]
                spare[pick:m - 1, :pick] = sub[pick + 1:m, :pick]
                spare[pick:m - 1, pick:m - 1] = sub[pick + 1:m, pick + 1:m]
                sub, spare = spare, sub
    assert sorted(tour) == list(range(n)), "tour is not a permutation"
    return tour


def simulate_tsp(instance: TspInstance, program: Program) -> EvalReport:
    tour = construct_tour(instance, program)
    return _make_report(tour_length(instance, tour), tsp_reference(instance))


NEAREST_NEIGHBOR_PROGRAM = "return 0 - dist_to_current"


# --------------------------------------------------------------------------
# Suites and aggregate evaluation
# --------------------------------------------------------------------------

def simulate_instance(suite: BenchmarkSuite, index: int, program: Program) -> EvalReport:
    """The report of instance `index` of `suite`; CandidateFailure as its simulator."""
    simulate = simulate_obp if suite.task == "obp" else simulate_tsp
    return simulate(suite.instances[index], program)


def evaluate_candidate(suite: BenchmarkSuite, program: Program) -> EvalReport:
    """Mean gap over the suite; fails fast on the first CandidateFailure."""
    return mean_report([simulate_instance(suite, i, program) for i in range(len(suite.instances))])


def mean_report(reports: Sequence[EvalReport]) -> EvalReport:
    """A suite's report from its instances' reports, in instance order."""
    gap = float(np.mean([r.gap_percent for r in reports]))
    return EvalReport(
        raw_metric=float(np.mean([r.raw_metric for r in reports])),
        reference=float(np.mean([r.reference for r in reports])),
        gap_percent=gap,
        fitness=-gap,
        per_instance=tuple(reports),
    )


def obp_setting_label(n_items: int, capacity: int) -> str:
    if n_items % 1000 == 0:
        return f"{n_items // 1000}kC{capacity}"
    return f"{n_items}C{capacity}"


DEFAULT_OBP_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_TSP_SEEDS = (1, 2, 3, 4)


def make_obp_suite(sizes: Iterable[int], capacities: Iterable[int],
                   seeds: Iterable[int] = DEFAULT_OBP_SEEDS,
                   shape: float = 3.0, scale: float = 45.0) -> BenchmarkSuite:
    instances, labels = [], []
    for n in sizes:
        for cap in capacities:
            for seed in seeds:
                instances.append(gen_obp(seed, n, cap, shape, scale))
                labels.append(obp_setting_label(n, cap))
    return BenchmarkSuite(task="obp", instances=tuple(instances), labels=tuple(labels))


def make_tsp_suite(sizes: Iterable[int], seeds: Iterable[int] = DEFAULT_TSP_SEEDS,
                   mode: str = "uniform") -> BenchmarkSuite:
    instances, labels = [], []
    for n in sizes:
        for seed in seeds:
            instances.append(gen_tsp(seed, n, mode))
            labels.append(f"size{n}")
    return BenchmarkSuite(task="tsp", instances=tuple(instances), labels=tuple(labels))


# --------------------------------------------------------------------------
# Instance / suite files
# --------------------------------------------------------------------------

# The fields of an instance file of each task and of a suite file (`labels` optional).
INSTANCE_FIELDS = {"obp": {"capacity": int, "items": tuple[int, ...]},
                   "tsp": {"coords": list[list[float]]}}
SUITE_FIELDS = {"task": str, "instances": list[str], "labels": list[str]}


def save_instance(path: str | Path, instance: ObpInstance | TspInstance) -> None:
    path = Path(path)
    if isinstance(instance, ObpInstance):
        payload = {"capacity": instance.capacity, "items": list(instance.items)}
    else:
        payload = {"coords": [[float(x), float(y)] for x, y in instance.coords]}
    path.write_text(json.dumps(payload))


def load_instance(path: str | Path, task: str) -> ObpInstance | TspInstance:
    path = Path(path)
    data = jsonio.read_object(path, "instance file")
    jsonio.check_fields(data, INSTANCE_FIELDS[task], f"instance file {path}")
    try:
        if task == "obp":
            return ObpInstance(capacity=data["capacity"], items=tuple(data["items"]))
        return TspInstance(data["coords"])
    except ValueError as e:
        raise ValueError(f"instance file {path}: {e}") from None


def save_suite(path: str | Path, suite: BenchmarkSuite, instance_dir: str | Path | None = None) -> None:
    """Write the suite as a task kind plus a list of instance file paths."""
    path = Path(path)
    instance_dir = Path(instance_dir) if instance_dir else path.parent
    instance_dir.mkdir(parents=True, exist_ok=True)
    rel_paths = []
    for i, (inst, label) in enumerate(zip(suite.instances, suite.labels)):
        name = f"{suite.task}_{label}_{i:03d}.json"
        save_instance(instance_dir / name, inst)
        rel_paths.append(str((instance_dir / name).relative_to(path.parent)))
    path.write_text(json.dumps({"task": suite.task, "instances": rel_paths, "labels": list(suite.labels)}))


def load_suite(path: str | Path) -> BenchmarkSuite:
    """Read a suite file written by save_suite.

    Raises ValueError naming the file and what is wrong with it: unreadable
    or not JSON, a missing or mistyped key, or a bad instance file.
    """
    path = Path(path)
    data = jsonio.read_object(path, "suite file")
    jsonio.check_fields({"labels": [], **data}, SUITE_FIELDS, f"suite file {path}")
    task = data["task"]
    if task not in TASKS:
        raise ValueError(f"suite file {path}: unknown task {task!r}")
    instances = tuple(load_instance(path.parent / p, task) for p in data["instances"])
    labels = tuple(data.get("labels") or (f"inst{i}" for i in range(len(instances))))
    try:
        return BenchmarkSuite(task=task, instances=instances, labels=labels)
    except ValueError as e:
        raise ValueError(f"suite file {path}: {e}") from None
