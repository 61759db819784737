"""Smoke tests: the scripts under scripts/ run end to end against the package,
and the names the package and the benchmark rely on resolve."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import cdeoh
from cdeoh import cli

from conftest import LADDER_CAPACITY, LADDER_ITEMS, TranscriptBuilder, ladder_response

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_scripted_demo_runs_reports_and_replays(tmp_path):
    proc = run_script("scripted_demo.py", str(tmp_path / "demo"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "replay ok" in proc.stdout
    run_dir = next((tmp_path / "demo" / "runs").iterdir())
    assert (run_dir / "report.md").exists()


def test_benchmark_trace_hooks_resolve(tmp_path):
    """Every name the benchmark's tracer hooks (perfbench/child.py) still exists."""
    code = "import child; child.install_tracer(child.Tracer())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve():
    """`from cdeoh import *` works and binds every name `cdeoh.__all__` exports."""
    namespace = {}
    exec("from cdeoh import *", namespace)
    assert set(cdeoh.__all__) <= set(namespace)


def test_benchmark_suites_build(monkeypatch):
    """Every benchmark workload's suite (perfbench/inputs.py) builds through cli.build_suite."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    labels = {name: cli.build_suite(w.task, w.suite).labels
              for name, w in inputs.WORKLOADS.items()}
    assert labels == {"obp-evolve": ("1kC100", "1kC500"),
                      "tsp-evolve": ("size100",) * 2 + ("size200",) * 2,
                      "llm-latency": ("25C100",)}


def test_bench_baselines_quick(tmp_path):
    proc = run_script("bench_baselines.py", "--quick", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "best-fit" in proc.stdout
    assert "nearest-neighbor" in proc.stdout


_IMPORT_CHECK = """
import importlib.util, sys
package = importlib.util.find_spec("cdeoh").submodule_search_locations[0]
spec = importlib.util.spec_from_file_location("jsonio_alone", package + "/jsonio.py")
spec.loader.exec_module(importlib.util.module_from_spec(spec))
assert not [m for m in sys.modules if m.split(".")[0] == "cdeoh"], "jsonio imported cdeoh"
import cdeoh.cli
assert not {"urllib.request", "http.client"} & set(sys.modules), "cli imported an HTTP client"
assert not {"multiprocessing", "concurrent.futures.process"} & set(sys.modules), \
    "cli imported the process pool"
"""


def test_cli_import_loads_no_http_client_and_jsonio_no_other_cdeoh_module(tmp_path):
    """Only HttpProvider.complete imports the HTTP client, so `cdeoh run` with a
    scripted provider never pays for it, and only a run on a large enough suite
    imports the process pool it simulates on, so no command starts slower for
    it; jsonio stands alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHECK], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_FORK_CHECK = """
import json, os, sys
forks = []
os.register_at_fork(before=lambda: forks.append(None))
from cdeoh import cli, evolution
assert cli.main(["run", sys.argv[1]]) == 0
pool = {"multiprocessing", "concurrent.futures.process"} & set(sys.modules)
print(json.dumps({"forks": len(forks), "workers": evolution.SIM_WORKERS, "pool": sorted(pool)}))
"""


def test_run_on_a_small_suite_forks_nothing(tmp_path):
    """`cdeoh run` on a suite whose instances all have fewer than
    `evolution.WORKER_MIN_STEPS` steps scores on the caller: it neither imports
    the process pool nor forks.  The 60-item ladder suite forks one worker per
    `SIM_WORKERS`."""
    TranscriptBuilder().add_many("initialization", [ladder_response(t) for t in (0, 1)]) \
        .add_many("refinement", [ladder_response(t) for t in (2, 3)]) \
        .add_many("innovation", [ladder_response(t) for t in (4, 5)]) \
        .add_many("category-induction", ["a", "b", "c", "d", "e", "f"]) \
        .write(tmp_path / "transcript.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = {}
    for items, capacity in ((25, 100), (LADDER_ITEMS, LADDER_CAPACITY)):
        config = tmp_path / f"config{items}.json"
        config.write_text(json.dumps({
            "task": "obp", "suite": {"sizes": [items], "capacities": [capacity], "seeds": [1]},
            "evolution": {"population_size": 2, "elite_categories": 2, "max_generations": 1},
            "provider": {"provider": "scripted", "transcript_path": "transcript.jsonl"},
            "output_dir": str(tmp_path / "runs")}))
        proc = subprocess.run([sys.executable, "-c", _FORK_CHECK, str(config)], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[items] = json.loads(proc.stdout.splitlines()[-1])
    assert runs[25]["forks"] == 0 and runs[25]["pool"] == []
    ladder = runs[LADDER_ITEMS]
    assert ladder["forks"] == ladder["workers"] > 0
    assert ladder["pool"] == ["concurrent.futures.process", "multiprocessing"]


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names a def, class or assignment statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _names_read(node: ast.AST) -> set[str]:
    """The names and attributes that `node` reads."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            | {n.attr for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)})


def _unused_names(path: Path) -> list[str]:
    """The module-level imports, the module-private (`_name`) functions, classes
    and constants, and the private methods and class attributes of the module
    at `path` that the module never reads.  A class member counts as read
    where the module reads an attribute or a name of its name.  An import on
    a `# noqa: F401` line, and every import of `__init__.py`, counts as read."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    members_read = _names_read(tree)
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            if path.name == "__init__.py" or getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: import {name}")
            continue
        unused += [f"{path.name}:{stmt.lineno}: {name}" for name in _bound_names(stmt)
                   if _is_private(name) and name not in read]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            unused += [f"{path.name}:{stmt.lineno}: {cls.name}.{name}"
                       for stmt in cls.body for name in _bound_names(stmt)
                       if _is_private(name) and name not in members_read]
    return unused


_LINT_SAMPLE = """
import os
import sys


def _helper():
    return sys.argv


class _Orphan:
    pass


class Parser:
    _LEVELS = (1, 2)
    _UNUSED_TABLE = (3,)

    def parse(self):
        return self._atom(self._LEVELS)

    def _atom(self, levels):
        return levels

    def _orphaned_rule(self):
        return _helper()
"""


def test_unused_name_lint_flags_orphaned_private_members(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_LINT_SAMPLE)
    assert _unused_names(path) == ["sample.py:2: import os", "sample.py:10: _Orphan",
                                   "sample.py:16: Parser._UNUSED_TABLE",
                                   "sample.py:24: Parser._orphaned_rule"]


def _unused_public_names(package: Path, roots: list[Path]) -> list[str]:
    """The public module-level functions and classes of the modules in `package`
    that no file under `roots` names, apart from their own definitions."""
    def names_named(node: ast.AST) -> set[str]:  # read, or imported from a module
        return _names_read(node) | {alias.name for n in ast.walk(node)
                                    if isinstance(n, ast.ImportFrom) for alias in n.names}

    trees = {path: ast.parse(path.read_text()) for root in roots for path in sorted(root.rglob("*.py"))}
    named = {path: names_named(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(package.glob("*.py")):
        body = trees[path].body
        named_by_stmt = [names_named(stmt) for stmt in body]
        for stmt in body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _is_private(stmt.name)
                    and not any(stmt.name in names for other, names in named.items() if other != path)
                    and not any(stmt.name in names for s, names in zip(body, named_by_stmt) if s is not stmt)):
                unused.append(f"{path.name}:{stmt.lineno}: {stmt.name}")
    return unused


def test_unused_name_lint_flags_public_names_named_nowhere_else(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "class Orphan:\n    pass\n")
    (tests / "test_mod.py").write_text("import mod\n\nassert mod.used() == 1\n")
    assert _unused_public_names(package, [package, tests]) == ["mod.py:9: recursive",
                                                               "mod.py:13: Orphan"]


def test_package_has_no_unused_import_or_private_name():
    """A lint the package keeps without a linter: every module-level import and
    every module-private definition of src/cdeoh is read somewhere, and every
    public module-level function and class is named somewhere besides its
    definition under src/, tests/, scripts/ or perfbench/."""
    package = ROOT / "src" / "cdeoh"
    paths = sorted(package.glob("*.py"))
    assert [found for path in paths for found in _unused_names(path)] == []
    roots = [ROOT / name for name in ("src", "tests", "scripts", "perfbench")]
    assert _unused_public_names(package, roots) == []
