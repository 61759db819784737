#!/usr/bin/env python3
"""End-to-end offline demo: builds a scripted transcript of plausible
heuristic candidates for online bin packing, runs the full evolution loop
through the CLI, and renders the report.

Usage: python3 scripts/scripted_demo.py [workdir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from cdeoh import cli, llm
from cdeoh.llm import wrap_generation

# (thought, code, category) catalogs the fake model draws from.
INIT_CANDIDATES = [
    ("place each item into the feasible bin with the least remaining space",
     "return -(cap_remaining - item)", "greedy tightest fit"),
    ("always use the earliest opened bin that still fits",
     "return -bin_index", "sequential scan"),
    ("spread load: prefer the emptiest feasible bin",
     "return cap_remaining - item", "load balancing"),
    ("prefer near-exact fits, otherwise fall back to tight packing",
     "let slack = cap_remaining - item; return where((slack < 2), 100 - slack, -slack)",
     "threshold rule"),
]

BROKEN_CANDIDATE = ("squeeze items using a helper that does not exist",
                    "return squeeze(cap_remaining, item)")
REPAIRED_CANDIDATE = ("score bins by inverse slack so tight fits dominate",
                      "return 1 / (cap_remaining - item + 0.5)", "nonlinear scoring")

REFINEMENTS = [
    ("tighten the near-exact window and boost exact fits",
     "let slack = cap_remaining - item; return where((slack < 1), 200 - slack, -slack)",
     "threshold rule"),
    ("weight slack by item size so large items pack tighter",
     "let slack = cap_remaining - item; return 0 - slack / (item + 1)", "greedy tightest fit"),
    ("penalize old bins slightly to keep early bins closed",
     "return -(cap_remaining - item) - 0.01 * bin_index", "greedy tightest fit"),
    ("sharpen the inverse-slack curve",
     "return 1 / (cap_remaining - item + 0.1)", "nonlinear scoring"),
    ("least-loaded with a small tiebreak toward early bins",
     "return cap_remaining - item - 0.001 * bin_index", "load balancing"),
    ("exact fits first, then first fit",
     "let slack = cap_remaining - item; return where((slack == 0), 1000, 0 - bin_index)",
     "threshold rule"),
    ("bounded inverse slack to avoid runaway scores",
     "let slack = cap_remaining - item; return min(50, 1 / (slack + 0.2))", "nonlinear scoring"),
    ("quadratic slack penalty",
     "let slack = cap_remaining - item; return 0 - slack * slack", "greedy tightest fit"),
]

INNOVATIONS = [
    ("close bins once they are nearly full and never revisit them",
     "return where((cap_remaining > 5), -(cap_remaining - item), log(0 - cap_remaining))",
     "threshold rule"),
    ("rank bins by fullness relative to the mean remaining capacity",
     "return mean(cap_remaining) - cap_remaining", "statistical scoring"),
    ("log-scaled tight fit, softening huge slack differences",
     "return 0 - log(cap_remaining - item + 1)", "nonlinear scoring"),
    ("prefer bins whose remaining space is a near-multiple of the item",
     "let ratio = cap_remaining / item; return 0 - abs(ratio - floor(ratio) - 0.5)",
     "modular arithmetic"),
    ("reserve big bins: avoid bins much larger than the item",
     "let slack = cap_remaining - item; return where((slack > 20), -100 - slack, -slack)",
     "threshold rule"),
    ("soft best fit with exponential decay on slack",
     "return exp(0 - (cap_remaining - item))", "nonlinear scoring"),
    ("first fit among tight bins only",
     "let slack = cap_remaining - item; return where((slack < 10), 0 - bin_index, 0 - 1000 - slack)",
     "sequential scan"),
    ("tight fit with a bonus for reusing the newest bin",
     "return -(cap_remaining - item) + 0.01 * bin_index", "greedy tightest fit"),
]


def build_transcript(path: Path) -> None:
    entries = []
    counters: dict[str, int] = {}

    def add(kind: str, response: str) -> None:
        i = counters.get(kind, 0)
        counters[kind] = i + 1
        entries.append((kind, i, response))

    labels: list[str] = []
    for thought, code, category in INIT_CANDIDATES[:2]:
        add("initialization", wrap_generation(thought, code))
        labels.append(category)
    add("initialization", wrap_generation(*BROKEN_CANDIDATE))
    add("reflection", wrap_generation(REPAIRED_CANDIDATE[0], REPAIRED_CANDIDATE[1]))
    labels.append(REPAIRED_CANDIDATE[2])
    for thought, code, category in INIT_CANDIDATES[2:]:
        add("initialization", wrap_generation(thought, code))
        labels.append(category)
    for label in labels:
        add("category-induction", label)

    # two generations of offspring; candidates are sampled refinement-first
    # per parent, so induction labels interleave pairwise
    refinements = list(REFINEMENTS)
    innovations = list(INNOVATIONS)
    for _ in range(2):
        for _ in range(4):  # population size
            r_thought, r_code, r_cat = refinements.pop(0)
            i_thought, i_code, i_cat = innovations.pop(0)
            add("refinement", wrap_generation(r_thought, r_code))
            add("innovation", wrap_generation(i_thought, i_code))
            add("category-induction", r_cat)
            add("category-induction", i_cat)

    llm.write_transcript(path, entries)


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_run")
    workdir.mkdir(parents=True, exist_ok=True)
    transcript = workdir / "transcript.jsonl"
    build_transcript(transcript)

    config = {
        "task": "obp",
        "suite": {"sizes": [200], "capacities": [100], "seeds": [1, 2, 3]},
        "evolution": {"population_size": 4, "elite_categories": 4, "lambda": 0.7,
                      "reflection_budget": 3, "max_samples": 100, "max_generations": 2},
        "provider": {"provider": "scripted", "transcript_path": "transcript.jsonl"},
        "output_dir": str(workdir / "runs"),
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))

    rc = cli.main(["run", str(config_path)])
    if rc != 0:
        return rc
    run_dir = sorted((workdir / "runs").iterdir())[-1]
    report_rc = cli.main(["report", str(run_dir)])
    replay_rc = cli.main(["replay", str(run_dir)])
    print(f"\ndemo artifacts in {run_dir}")
    if report_rc == 0:
        print((run_dir / "report.md").read_text())
    return report_rc or replay_rc


if __name__ == "__main__":
    sys.exit(main())
