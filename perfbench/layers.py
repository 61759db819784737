"""Per-layer metrics from the spans of one traced run.

A span's self time is its duration minus the time its child spans cover.
Layer shares are the self time of each layer's spans inside
EvolutionEngine.run, over the duration of that call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

LAYERS = ("dsl", "problems", "evolution", "llm", "cli")

# (name, unit) of every per-layer metric, in the order they are printed.
METRICS = (
    ("dsl.evaluate.calls", "count"), ("dsl.evaluate.self_s", "s"),
    ("dsl.evaluate.us_per_call", "us"), ("dsl.evaluate.mean_len", "items"),
    ("dsl.evaluate.errors", "count"),
    ("dsl.parse.calls", "count"), ("dsl.parse.self_s", "s"), ("dsl.parse.errors", "count"),
    ("problems.pack_online.self_s", "s"), ("problems.construct_tour.self_s", "s"),
    ("problems.obp_lower_bound.calls", "count"), ("problems.obp_lower_bound.self_s", "s"),
    ("problems.tsp_reference.calls", "count"), ("problems.tsp_reference.self_s", "s"),
    ("problems.evaluate_candidate.calls", "count"),
    ("problems.evaluate_candidate.failures", "count"),
    ("problems.evaluate_candidate.failed_s", "s"), ("problems.make_suite.self_s", "s"),
    ("evolution.run.self_s", "s"), ("evolution.select_next_generation.calls", "count"),
    ("evolution.select_next_generation.self_s", "s"), ("evolution.useful_sample_frac", "ratio"),
    ("llm.complete.calls", "count"), ("llm.complete.self_s", "s"),
    ("llm.complete.share", "ratio"), ("llm.complete.errors", "count"),
    ("llm.render_prompt.self_s", "s"), ("llm.render_prompt.bytes", "B"),
    ("llm.parse_generation.failures", "count"), ("llm.reflect.repair_frac", "ratio"),
    ("cli.emit.calls", "count"), ("cli.emit.self_s", "s"), ("cli.emit.bytes", "B"),
    ("cli.persist.self_s", "s"),
) + tuple((f"layer.{layer}.share", "ratio") for layer in LAYERS) + (
    ("trace.coverage_frac", "ratio"), ("trace.overhead_frac", "ratio"),
)


class Spans:
    def __init__(self, path: Path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            rows = data["spans"]
        n = rows.shape[0]
        rows = rows[np.argsort(rows[:, 0])]  # row i is span i
        if not np.array_equal(rows[:, 0], np.arange(n)):
            raise ValueError(f"{path}: span ids are not 0..{n - 1}")
        self.parent = rows[:, 1].astype(np.int64)
        self.name_id = rows[:, 2].astype(np.int64)
        self.start, self.end, self.size = rows[:, 3], rows[:, 4], rows[:, 5]
        self.error = rows[:, 6] != 0
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                            minlength=n)
        self.self_time = self.duration - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.shape[0], dtype=bool)
        return self.name_id == self.names.index(name)

    def only(self, name: str) -> int:
        (index,) = np.nonzero(self.mask(name))[0]
        return int(index)

    def loop(self) -> tuple[int, float, np.ndarray]:
        """The EvolutionEngine.run span, its duration and the mask of spans inside it."""
        run = self.only("evolution.run")
        inside = (self.start >= self.start[run]) & (self.end <= self.end[run])
        return run, float(self.duration[run]), inside

    def self_by_name(self, inside: np.ndarray) -> dict[str, float]:
        totals = np.bincount(self.name_id[inside], weights=self.self_time[inside],
                             minlength=len(self.names))
        return dict(zip(self.names, totals.tolist()))


def layer_metrics(spans: Spans, events: list[dict], events_bytes: int) -> dict[str, float]:
    run, loop, inside = spans.loop()
    self_inside = spans.self_by_name(inside)

    out: dict[str, float] = {}

    def stats(name: str) -> np.ndarray:
        m = spans.mask(name)
        out[f"{name}.calls"] = float(m.sum())
        out[f"{name}.self_s"] = float(spans.self_time[m].sum())
        return m

    m = stats("dsl.evaluate")
    out["dsl.evaluate.us_per_call"] = 1e6 * out["dsl.evaluate.self_s"] / max(1.0, m.sum())
    out["dsl.evaluate.mean_len"] = float(spans.size[m & ~spans.error].mean()) if m.any() else 0.0
    out["dsl.evaluate.errors"] = float((m & spans.error).sum())
    m = stats("dsl.parse")
    out["dsl.parse.errors"] = float((m & spans.error).sum())
    for name in ("problems.pack_online", "problems.construct_tour", "problems.obp_lower_bound",
                 "problems.tsp_reference", "problems.make_suite", "evolution.run",
                 "evolution.select_next_generation", "llm.render_prompt"):
        stats(name)
    m = stats("problems.evaluate_candidate")
    out["problems.evaluate_candidate.failures"] = float((m & spans.error).sum())
    out["problems.evaluate_candidate.failed_s"] = float(spans.duration[m & spans.error].sum())
    m = stats("llm.complete")
    out["llm.complete.errors"] = float((m & spans.error).sum())
    out["llm.complete.share"] = self_inside.get("llm.complete", 0.0) / loop
    out["llm.render_prompt.bytes"] = float(spans.size[spans.mask("llm.render_prompt")].sum())
    out["llm.parse_generation.failures"] = float(
        (spans.mask("llm.parse_generation") & spans.error).sum())
    stats("cli.emit")
    out["cli.emit.bytes"] = float(events_bytes)
    cmd_run = spans.end[spans.mask("cli.cmd_run")]
    out["cli.persist.self_s"] = float(cmd_run.max() - spans.end[run]) if cmd_run.size else 0.0

    samples = sum(1 for e in events if e["event"] == "sample")
    added = sum(1 for e in events if e["event"] == "evaluation" and "candidate_id" in e["payload"])
    out["evolution.useful_sample_frac"] = added / max(1, samples)
    outcomes = [e["payload"]["outcome"] for e in events if e["event"] == "reflection"]
    repaired = outcomes.count("repaired")
    out["llm.reflect.repair_frac"] = repaired / max(1, repaired + outcomes.count("failed"))

    for layer in LAYERS:
        out[f"layer.{layer}.share"] = sum(
            t for name, t in self_inside.items() if name.split(".", 1)[0] == layer) / loop
    out["trace.coverage_frac"] = (sum(self_inside.values()) - spans.self_time[run]) / loop
    return out


def top_spans(spans: Spans, count: int = 8) -> list[tuple[str, float]]:
    """Span names with the largest self time inside EvolutionEngine.run, as shares of it."""
    _, loop, inside = spans.loop()
    ranked = sorted(spans.self_by_name(inside).items(), key=lambda kv: -kv[1])
    return [(name, t / loop) for name, t in ranked[:count]]
