"""Hermetic run directories, timed child processes and the workload table.

Every job the benchmark times runs in a fresh child process with its own
empty campaign store, golden-trace cache and convergence-memo cache, all
under ``<checkout>/.perfbench/``, so no run can warm-start from another
run's artifacts (or from ``~/.cache/repro``).  Inherited ``REPRO_*``
variables are dropped and the worker count is pinned.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

#: Directory of this package; the repository checkout is its parent.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Parent of the run directories (listed in the root ``.gitignore``).
RUNS_ROOT = ROOT / ".perfbench"

#: Seconds one child job may take before it is killed.
JOB_TIMEOUT_S = 120.0

_run_ids = itertools.count()


def counter_totals(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Each counter of a metrics-registry snapshot, summed over labels."""
    totals: Dict[str, float] = {}
    for entry in snapshot.get("counters", ()):
        totals[entry["name"]] = totals.get(entry["name"], 0) + entry["value"]
    return totals


def program_present(root: Path = ROOT) -> bool:
    """Whether the checkout holds the program under test."""
    return (root / "src" / "repro" / "__init__.py").is_file()


@dataclass
class RunDir:
    """One hermetic job's private store and cache directories."""

    path: Path

    @property
    def store(self) -> Path:
        return self.path / "campaigns.sqlite"

    @property
    def trace_cache(self) -> Path:
        return self.path / "traces"

    @property
    def memo_cache(self) -> Path:
        return self.path / "memo"

    @property
    def tmp(self) -> Path:
        return self.path / "tmp"

    def env(self, workers: int) -> Dict[str, str]:
        """The child environment: no inherited ``REPRO_*`` knobs, caches
        and store here, ``src`` importable, worker count pinned."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_TRACE_CACHE=str(self.trace_cache),
            REPRO_MEMO_CACHE=str(self.memo_cache),
            REPRO_WORKERS=str(workers),
            TMPDIR=str(self.tmp),
        )
        return env


class hermetic_dir:
    """Context manager: a fresh, empty :class:`RunDir`, removed on exit."""

    def __init__(self, parent: Path = RUNS_ROOT) -> None:
        self.run_dir = RunDir(parent / f"{os.getpid()}-{next(_run_ids)}")

    def __enter__(self) -> RunDir:
        run_dir = self.run_dir
        shutil.rmtree(run_dir.path, ignore_errors=True)
        for sub in (run_dir.trace_cache, run_dir.memo_cache, run_dir.tmp):
            sub.mkdir(parents=True)
            if any(sub.iterdir()):  # pragma: no cover - fresh mkdir
                raise RuntimeError(f"run directory {sub} is not empty")
        return run_dir

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.run_dir.path, ignore_errors=True)


@dataclass
class Job:
    """A finished child process: wall time, peak RSS and its errors."""

    argv: List[str]
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0

    def describe_failure(self) -> str:
        tail = self.stderr.strip().splitlines()[-5:]
        return f"{' '.join(self.argv)} exited {self.returncode}: " + " | ".join(tail)


def run_job(
    argv: Sequence[str], run_dir: RunDir, workers: int = 1,
    timeout: float = JOB_TIMEOUT_S,
) -> Job:
    """Run ``argv`` from the checkout root and wait for it (and only it).

    ``wait4`` reports the child's peak RSS, which on Linux already folds
    in every descendant it reaped (the worker pool), so ``peak_rss_mb`` is
    the largest process of the job.  A child still running at ``timeout``,
    or when this wait is interrupted (``SIGTERM`` to the benchmark raises
    ``SystemExit``), is killed with its whole process group and reaped
    before this returns or raises.
    """
    err_path = run_dir.path / "stderr.txt"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=ROOT, env=run_dir.env(workers),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(
        argv=list(argv),
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=err_path.read_text(),
    )


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignWorkload:
    """``python -m repro campaign run`` of one registry workload."""

    program: str
    tests: int
    workers: int
    #: Seconds one job takes on a 2-vCPU VM; sets the job count of a run.
    nominal_s: float

    #: Workloads sharing a reference group must agree fault for fault.
    @property
    def reference_group(self) -> str:
        return f"campaign-{self.program}-{self.tests}"

    def cli_args(self, seed: int, store: Path) -> List[str]:
        return [
            "campaign", "run", self.program,
            "--plan", f"fixed:{self.tests}@{seed}",
            "--set", f"seed={seed}",
            "--workers", str(self.workers),
            "--store", str(store),
        ]

    def argv(self, seed: int, store: Path, setup_only: bool = False) -> List[str]:
        argv = [sys.executable, "-m", "repro", *self.cli_args(seed, store)]
        if setup_only:
            argv += ["--max-shards", "0"]
        return argv

    def traced_argv(self, seed: int, store: Path, out: Path) -> List[str]:
        return [
            sys.executable, str(BENCH_DIR / "child.py"), "campaign",
            "--out", str(out), "--", *self.cli_args(seed, store),
        ]


@dataclass(frozen=True)
class AdvfWorkload:
    """aDVF reports for the Table I objects, in one process."""

    workers: int = 1
    nominal_s: float = 6.0

    @property
    def reference_group(self) -> str:
        return "advf-fig4"

    def argv(self, seed: int, out: Path, setup_only: bool = False,
             traced: bool = False) -> List[str]:
        argv = [sys.executable, str(BENCH_DIR / "child.py"), "advf",
                "--seed", str(seed), "--out", str(out)]
        if setup_only:
            argv.append("--setup-only")
        if traced:
            argv.append("--trace")
        return argv


#: The campaign is sized so that a run holds a dozen jobs: the more jobs,
#: the more likely every shard has one run at the host's best speed
#: (``run.floor_corrected``).
WORKLOADS = {
    "inject-cg-2w": CampaignWorkload("cg", tests=512, workers=2, nominal_s=3.75),
    "advf-fig4": AdvfWorkload(),
}
