"""Import budget: a CLI command loads only the modules it runs.

Every command runs in a fresh interpreter and reports the modules it
imported beyond those loaded at start-up.  A warm ``repro table3``
reads cached JSON, so it must not compile the simulator, and no command
but ``--version`` may resolve the package version through
``importlib.metadata``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Prints, as its last line, the modules ``python -m repro <argv>``
#: imported.
_PROBE = """
import json, runpy, sys
before = set(sys.modules)
sys.argv = ["repro", *json.loads(sys.argv[1])]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print()
print(json.dumps(sorted(set(sys.modules) - before)))
"""

#: Modules (or packages, with every submodule) that only a simulation
#: or the version lookup needs.
SIMULATION_ONLY = (
    "repro.core.processor",
    "repro.core.simulation",
    "repro.interconnect.network",
    "repro.power",
    "repro.faults",
    "repro.memory.lsq",
    "repro.workloads.generator",
    "repro.clusters",
    "repro.frontend",
    "importlib.metadata",
)

TABLE3 = ["table3", "--benchmarks", "gzip", "mcf",
          "--instructions", "300", "--warmup", "100"]


def _env(cache_dir):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _imports(argv, cache_dir):
    """(stdout without the probe line, modules imported) of one run."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=_env(cache_dir), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    output, _, modules = proc.stdout.rstrip("\n").rpartition("\n")
    return output, json.loads(modules)


def _simulation_only(modules):
    return sorted(
        name for name in modules
        if any(name == banned or name.startswith(banned + ".")
               for banned in SIMULATION_ONLY)
    )


def test_warm_table3_loads_no_simulator(tmp_path):
    cold, cold_modules = _imports(TABLE3, tmp_path)
    assert "executed, 0 cache hits" in cold
    # The probe sees what a cold sweep loads: the guard below is only
    # meaningful if these modules exist to be avoided.
    assert "repro.core.simulation" in cold_modules
    warm, modules = _imports(TABLE3, tmp_path)
    assert "sweep: 0 executed, 20 cache hits" in warm
    assert _simulation_only(modules) == []


@pytest.mark.parametrize("argv", [["--help"], ["models"], ["benchmarks"]],
                         ids=" ".join)
def test_listing_commands_load_no_simulator(argv, tmp_path):
    _, modules = _imports(argv, tmp_path)
    assert _simulation_only(modules) == []


def test_bare_import_runs_only_the_lazy_helper(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; before = set(sys.modules); import repro; "
         "print(json.dumps(sorted(set(sys.modules) - before)))"],
        env=_env(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert [m for m in modules if m.startswith("repro")] == [
        "repro", "repro._lazy"]
    assert "importlib.metadata" not in modules
