"""Smoke tests: the scripts under scripts/ run end to end against the package,
and the names the package and the benchmark rely on resolve."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import cdeoh
from cdeoh import cli

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
    scripted provider never pays for it, and only a run imports the process pool
    it simulates on, so no command starts slower for it; jsonio stands alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHECK], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
