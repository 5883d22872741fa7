"""``campaign run`` loads only the modules it executes.

Every process of a campaign (the CLI and each worker) compiles the modules
it imports, so a module the campaign path never runs is pure start-up cost.
Two rules keep them out:

* package ``__init__`` modules import no submodule when they load; they
  name their exports and import them on first use (``repro._lazy``);
* modules on the campaign path import the analysis engine, the protection
  subsystem, the figure renderer and the Prometheus writer only inside the
  functions that run them.

The subprocess test runs a set-up-only campaign (``--max-shards 0``: golden
trace, artifact, plan, no injection) and checks which ``repro`` modules it
loaded.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a set-up-only ``campaign run cg`` must not load.
_NOT_ON_CAMPAIGN_PATH = (
    "repro.core.advf",
    "repro.core.propagation",
    "repro.core.passes",
    "repro.core.reexec",
    "repro.core.rfi",
    "repro.core.exhaustive",
    "repro.core.equivalence",
    "repro.protection.advisor",
    "repro.protection.apply",
    "repro.protection.schemes",
    "repro.protection.validate",
    "repro.reporting.figures",
    "repro.obs.prom",
)

#: The only workload modules a cg campaign needs.
_CG_WORKLOAD_MODULES = {
    "repro.workloads",
    "repro.workloads.base",
    "repro.workloads.registry",
    "repro.workloads.cg",
}

_WRAPPER = """
import json, sys
from repro.campaigns.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _campaign_modules(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "traces")
    env["REPRO_MEMO_CACHE"] = str(tmp_path / "memo")
    argv = [
        sys.executable, "-c", _WRAPPER,
        "campaign", "run", "cg", "--plan", "fixed:16@5", "--max-shards", "0",
        "--store", str(tmp_path / "campaigns.sqlite"),
    ]
    proc = subprocess.run(
        argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    assert payload["code"] == 0, proc.stderr
    return {name for name in payload["modules"] if name.split(".")[0] == "repro"}


def test_setup_only_campaign_loads_only_the_campaign_path(tmp_path):
    loaded = _campaign_modules(tmp_path)
    # the job really ran: golden trace, artifact and plan modules are in
    assert {
        "repro.campaigns.orchestrator",
        "repro.core.sites",
        "repro.tracing.cache",
        "repro.workloads.cg",
    } <= loaded
    assert sorted(loaded & set(_NOT_ON_CAMPAIGN_PATH)) == []
    workload_modules = {
        name for name in loaded if name.startswith("repro.workloads")
    }
    assert sorted(workload_modules - _CG_WORKLOAD_MODULES) == []


def _module_level_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_package_inits_import_no_submodules():
    """An ``__init__`` may load the lazy-export helper and the version
    string, nothing else from ``repro``."""
    allowed = {"repro._lazy", "repro.version"}
    inits = sorted(SRC.rglob("__init__.py"))
    assert inits, f"no packages found under {SRC}"
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in inits
        for name in _module_level_imports(path)
        if name.split(".")[0] == "repro" and name not in allowed
    ]
    assert offenders == []


def test_lazy_exports_resolve():
    """Every name a package exports imports and resolves."""
    import importlib

    for path in sorted(SRC.rglob("__init__.py")):
        package = ".".join(path.parent.relative_to(SRC).parts)
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name) is not None, f"{package}.{name}"
