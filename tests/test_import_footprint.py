"""What each entry point imports: the PRA and service paths stay off scipy.

``scipy.stats`` costs about a second to import and only the Student-t
calls of Table 3 and the swarm error bars use it; numpy is needed only by
the vec engine, the stats helpers and the figure modules.  Every check here
runs in a fresh interpreter, because the test process itself has long
imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports the PRA modules (``repro.core.study``, ``repro.core.space``,
#: ``repro.experiments.base``), runs a smoke-scale fast PRA sweep into
#: ``argv[1]`` and prints the heavy modules loaded.  ``argv[2] == "numpy"``
#: imports numpy first.
SWEEP = """
import json, sys
if sys.argv[2] == "numpy":
    import numpy
from repro.core.space import DesignSpace
from repro.core.study import PRAStudy
from repro.experiments import base
from repro.runner.cache import ResultCache
from repro.runner.runner import ExperimentRunner
from repro.sim.engine import using_engine

protocols = DesignSpace.default().sample(
    6, seed=0, method="stratified", include=base.named_protocols()
)
runner = ExperimentRunner(cache=ResultCache(sys.argv[1]))
with using_engine("fast"):
    PRAStudy(protocols, base.pra_config("smoke", seed=1), runner=runner).run(
        use_cache=False
    )
print(json.dumps({
    "executed": runner.stats().executed,
    "loaded": sorted(m for m in ("numpy", "scipy") if m in sys.modules),
}))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for variable in ("REPRO_SIM_ENGINE", "REPRO_JOBS", "REPRO_CACHE_DIR"):
        env.pop(variable, None)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def loaded_after(code: str) -> set:
    """The heavy modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys\nprint(' '.join(m for m in ('numpy', 'scipy') if m in sys.modules))"
    return set(python("-c", probe).stdout.split())


def sweep(cache_dir: Path, preload: str = "") -> dict:
    return json.loads(python("-c", SWEEP, str(cache_dir), preload).stdout)


def cache_files(root: Path) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestPRAPath:
    def test_pra_sweep_loads_neither_numpy_nor_scipy(self, tmp_path):
        outcome = sweep(tmp_path / "cache")
        assert outcome["executed"] > 0
        assert outcome["loaded"] == []

    def test_numpy_free_payloads_match_numpy_loaded_ones(self, tmp_path):
        lean = sweep(tmp_path / "lean")
        loaded = sweep(tmp_path / "loaded", preload="numpy")
        assert lean["loaded"] == [] and loaded["loaded"] == ["numpy"]
        lean_files = cache_files(tmp_path / "lean")
        assert len(lean_files) >= lean["executed"]
        assert lean_files == cache_files(tmp_path / "loaded")


class TestServiceAndCli:
    def test_service_worker_and_atlas_experiment_load_no_scipy(self):
        assert "scipy" not in loaded_after("import repro.service.worker, repro.experiments.atlas")

    @pytest.mark.parametrize("argv", [["list"], ["scenario", "--list"]])
    def test_cli_listing_loads_neither(self, argv):
        # -X importtime names every module the real command line imports.
        run = python("-X", "importtime", "-m", "repro.cli", *argv)
        imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()}
        assert "repro.experiments.base" in imported and run.stdout.strip()
        assert not {name.split(".")[0] for name in imported} & {"numpy", "scipy"}

    def test_stats_loads_scipy_only_when_an_interval_is_asked_for(self):
        assert loaded_after("import repro.stats") == {"numpy"}
        code = "from repro.stats import confidence_interval; confidence_interval([1.0, 2.0, 4.0])"
        assert loaded_after(code) == {"numpy", "scipy"}


class TestLazyVecExport:
    def test_vec_simulation_is_resolved_on_first_use(self):
        code = (
            "import sys, repro.sim\n"
            "assert 'numpy' not in sys.modules\n"
            "from repro.sim import VecSimulation\n"
            "from repro.sim.population_vec import VecSimulation as direct\n"
            "assert VecSimulation is direct\n"
        )
        assert loaded_after(code) == {"numpy"}

    def test_star_import_exports_everything(self):
        code = (
            "import repro.sim\n"
            "namespace = {}\n"
            "exec('from repro.sim import *', namespace)\n"
            "missing = set(repro.sim.__all__) - set(namespace)\n"
            "assert not missing, missing\n"
        )
        loaded_after(code)

    def test_unknown_attribute_still_raises(self):
        import repro.sim

        with pytest.raises(AttributeError, match="NoSuchEngine"):
            repro.sim.NoSuchEngine  # noqa: B018
