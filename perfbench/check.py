"""Output check of a benchmark run against goldens recorded before any optimisation.

goldens.json holds, per workload, the fitness bits (float.hex) of every program
its transcripts can contain on its fixed suite, the checksum fitness of the
reference programs on the default suites, and full-run digests for a few
seeds.  The check reads only events.jsonl and best.json and ignores error
text, `ts` and any field or event it does not know, so the event schema can
grow without breaking it.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from inputs import CATEGORY_KIND, EVOLUTION, NO_EVALUATION_IN_REFLECTION, Entry

GOLDENS = Path(__file__).with_name("goldens.json")


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def digest(events: list[dict], best: dict) -> str:
    """sha256 over every evaluation's (candidate_id, fitness bits), every
    selection's selected_ids and the best fitness bits."""
    evaluations = [(e["payload"]["candidate_id"], float(e["payload"]["fitness"]).hex())
                   for e in events if e["event"] == "evaluation" and "candidate_id" in e["payload"]]
    selections = [e["payload"]["selected_ids"] for e in events if e["event"] == "selection"]
    blob = json.dumps([evaluations, selections, float(best["fitness"]).hex()])
    return hashlib.sha256(blob.encode()).hexdigest()


def reference_selection(candidates: list[tuple[int, float, str]], n: int, k: int,
                        lam: float) -> list[int]:
    """Ids kept by the paper's two-stage selection over (id, fitness, category):
    the best of each of the top-k categories, then the joint score
    (f - f_min) / (f_max - f_min) + lam / |category|, ties to the lower id."""
    ranked = sorted(candidates, key=lambda c: (-c[1], c[0]))
    best_of: dict[str, tuple] = {}
    for c in ranked:
        best_of.setdefault(c[2], c)
    elites = list(best_of.values())[:k]
    rest = [c for c in ranked if c not in elites]
    f_min, f_max = ranked[-1][1], ranked[0][1]
    crowd = Counter(c[2] for c in ranked)

    def joint(c):
        norm = (c[1] - f_min) / (f_max - f_min) if f_max > f_min else 0.0
        return norm + lam / crowd[c[2]]

    chosen = elites + sorted(rest, key=lambda c: (-joint(c), c[0]))[:max(0, n - len(elites))]
    return [c[0] for c in sorted(chosen, key=lambda c: (-c[1], c[0]))]


def check_run(events: list[dict], best: dict, entries: list[Entry],
              fitness_golden: dict[str, str]) -> list[str]:
    """Every mismatch between one run's outputs and what its transcript must give."""
    by_key = {(e.kind, e.index): e for e in entries}
    errors: list[str] = []

    consumed = Counter(e["payload"]["kind"] for e in events if e["event"] == "sample")
    expected_codes: Counter = Counter()
    expected_failures = 0
    for kind, count in consumed.items():
        for index in range(count):
            entry = by_key.get((kind, index))
            if entry is None:
                errors.append(f"sample {kind} {index} is not in the transcript")
            elif entry.broken is None:
                expected_codes[entry.code] += 1
            elif not (kind == "reflection" and entry.broken in NO_EVALUATION_IN_REFLECTION):
                expected_failures += 1

    evaluations = [e["payload"] for e in events if e["event"] == "evaluation"]
    successes = [p for p in evaluations if "candidate_id" in p]
    failures = len(evaluations) - len(successes)
    if Counter(p["code"] for p in successes) != expected_codes:
        errors.append("evaluated programs differ from the valid transcript responses consumed")
    if failures != expected_failures:
        errors.append(f"{failures} failed evaluations, expected {expected_failures}")
    for p in successes:
        want = fitness_golden.get(p["code"])
        if float(p["fitness"]).hex() != want:
            errors.append(f"candidate {p['candidate_id']}: fitness {float(p['fitness']).hex()}"
                          f" != golden {want} for {p['code']!r}")
    labels = [by_key[(CATEGORY_KIND, i)].response for i in range(len(successes))]
    if Counter(p["category"] for p in successes) != Counter(labels):
        errors.append("candidate categories differ from the transcript labels")
    if sorted(p["candidate_id"] for p in successes) != list(range(1, len(successes) + 1)):
        errors.append("candidate ids are not 1..n")

    info = {p["candidate_id"]: (p["candidate_id"], p["fitness"], p["category"]) for p in successes}
    for e in events:
        if e["event"] != "selection":
            continue
        p = e["payload"]
        try:
            want = reference_selection([info[i] for i in p["candidate_ids"]],
                                       EVOLUTION["population_size"],
                                       EVOLUTION["elite_categories"], EVOLUTION["lambda"])
        except KeyError:
            errors.append(f"generation {p['generation']}: selection names an unknown candidate")
            continue
        if p["selected_ids"] != want:
            errors.append(f"generation {p['generation']}: selected {p['selected_ids']},"
                          f" reference selection gives {want}")

    if successes:
        top = max(successes, key=lambda p: (p["fitness"], -p["candidate_id"]))
        if float(best["fitness"]).hex() != float(top["fitness"]).hex() or best["code"] != top["code"]:
            errors.append("best.json is not the best evaluated candidate")
    else:
        errors.append("no candidate was evaluated")
    return errors
