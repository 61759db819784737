"""Record goldens.json: the expected outputs the benchmark checks runs against.

Usage (from the root of a checkout): python3 perfbench/record_goldens.py

Run it only on a commit whose outputs are known to be right; every later
run is compared bit for bit with what it writes.  It records the fitness bits
of every program in each workload's catalog on the workload's suite, the
checksum fitness of the reference programs on the default suites, and the
output digest of one run per workload for each seed in DIGEST_SEEDS.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import inputs
import run as bench

sys.path.insert(0, str(bench.SRC))
from cdeoh import cli, dsl, problems  # noqa: E402

DIGEST_SEEDS = range(1, 11)


def catalog_fitness(workload: inputs.Workload) -> dict[str, str]:
    suite = cli.build_suite(workload.task, workload.suite)
    signature = problems.input_signature(workload.task)
    return {code: problems.evaluate_candidate(suite, dsl.parse(code, signature)).fitness.hex()
            for _, code in inputs.catalog(workload)}


def main() -> int:
    work = bench.HERE / "_work" / "record"
    shutil.rmtree(work, ignore_errors=True)

    goldens = {"fitness": {}, "checksum": {}, "digests": {}}
    spec = {"mode": "checksum", "src": str(bench.SRC), "result": str(work / "checksum.json")}
    if bench.spawn(spec, work / "checksum")[0] != 0:
        raise SystemExit("checksum run failed")
    goldens["checksum"] = json.loads((work / "checksum.json").read_text())["fitness"]
    for name, workload in inputs.WORKLOADS.items():
        goldens["fitness"][name] = catalog_fitness(workload)
        digests = goldens["digests"][name] = {}
        for seed in DIGEST_SEEDS:
            config, entries = inputs.write_inputs(workload, seed, work / name / str(seed))
            result = bench.run_once(workload, seed, config, work / name / f"run{seed}", traced=False)
            errors = result.errors or check.check_run(result.events, result.best, entries,
                                                      goldens["fitness"][name])
            if errors:
                raise SystemExit(f"{name} seed {seed}: {errors[:3]}")
            digests[str(seed)] = check.digest(result.events, result.best)
            print(f"{name} seed {seed}: {result.wall_s:.1f} s, digest {digests[str(seed)][:12]}")
    check.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
