"""Tests of the benchmark's own code (not of the program it measures)."""

import copy
import json
import os
import re
from pathlib import Path

import pytest

import checks
import harness
import run
import tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# --------------------------------------------------------------------- #
# self time across nesting
# --------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    outer = t.begin("outer")          # 0 .. 10
    clock.now = 1.0
    mid = t.begin("mid")              # 1 .. 6
    clock.now = 2.0
    inner = t.begin("inner")          # 2 .. 4
    clock.now = 4.0
    t.end(inner)
    clock.now = 6.0
    t.end(mid)
    clock.now = 7.0
    again = t.begin("inner")          # 7 .. 8, a second call
    clock.now = 8.0
    t.end(again, units=5)
    clock.now = 10.0
    t.end(outer)

    totals = t.totals()
    assert totals["outer"].total_s == 10.0
    assert totals["outer"].self_s == 10.0 - 5.0 - 1.0
    assert totals["mid"].self_s == 5.0 - 2.0
    assert totals["inner"].calls == 2
    assert totals["inner"].self_s == 3.0
    assert totals["inner"].units == 5
    # self times partition the outermost span: nothing counted twice
    assert sum(layer.self_s for layer in totals.values()) == 10.0


def test_spans_must_close_in_order():
    t = tracer.Tracer(clock=FakeClock())
    outer = t.begin("outer")
    t.begin("inner")
    with pytest.raises(RuntimeError):
        t.end(outer)


def test_wrapper_records_calls_and_exceptions():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def work(n):
        clock.now += n
        if n < 0:
            raise ValueError("negative")
        return n

    wrapped = t.wrap("work", work, units=lambda result: result)
    assert wrapped(2) == 2
    with pytest.raises(ValueError):
        wrapped(-1)
    totals = t.totals()["work"]
    assert (totals.calls, totals.units) == (2, 2)


def test_wrapper_is_a_pass_through_in_other_processes():
    t = tracer.Tracer(clock=FakeClock())
    t._pid = os.getpid() + 1  # as seen from a forked worker
    assert t.wrap("work", lambda: 7)() == 7
    assert t.spans == []


def test_every_layer_call_resolves_and_install_is_reversible():
    originals = {
        name: tracer._resolve(module, path)
        for name, (module, path) in tracer.LAYER_CALLS.items()
    }
    before = {name: getattr(owner, attr) for name, (owner, attr) in originals.items()}
    uninstall = tracer.install(tracer.Tracer())
    try:
        for name, (owner, attr) in originals.items():
            assert getattr(owner, attr) is not before[name], name
    finally:
        uninstall()
    for name, (owner, attr) in originals.items():
        assert getattr(owner, attr) is before[name], name


# --------------------------------------------------------------------- #
# hermetic runs
# --------------------------------------------------------------------- #
TINY = harness.CampaignWorkload("cg", tests=2, workers=1, nominal_s=1.0)


def _listing(path: Path):
    if not path.exists():
        return None
    return sorted((str(p), p.stat().st_mtime_ns) for p in path.rglob("*"))


@pytest.fixture(scope="module")
def tiny_campaign(tmp_path_factory):
    """A real 4-injection cg campaign run hermetically; yields its
    fingerprint plus what the cache directories looked like."""
    from repro.campaigns.store import CampaignStore

    home_cache = Path("~/.cache/repro").expanduser()
    home_before = _listing(home_cache)
    with harness.hermetic_dir(tmp_path_factory.mktemp("runs")) as run_dir:
        caches = (run_dir.trace_cache, run_dir.memo_cache)
        empty_at_start = [list(path.iterdir()) == [] for path in caches]
        job = harness.run_job(TINY.argv(3, run_dir.store), run_dir)
        filled = [list(path.iterdir()) for path in caches]
        with CampaignStore(run_dir.store) as store:
            fingerprint = checks.campaign_fingerprint(store)
            outcomes = store.outcomes(store.campaigns()[0].campaign_id)
        path_after = run_dir.path
    yield {
        "job": job, "fingerprint": fingerprint, "outcomes": outcomes,
        "empty_at_start": empty_at_start, "filled": filled,
        "home_before": home_before, "home_after": _listing(home_cache),
        "removed": not path_after.exists(),
    }


def test_run_uses_only_its_own_empty_caches(tiny_campaign):
    assert tiny_campaign["job"].ok, tiny_campaign["job"].describe_failure()
    assert tiny_campaign["empty_at_start"] == [True, True]
    assert tiny_campaign["filled"][0], "golden trace not written to the run's cache"
    assert tiny_campaign["home_after"] == tiny_campaign["home_before"]
    assert tiny_campaign["removed"]


def test_child_environment_is_pinned(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", "op")
    monkeypatch.setenv("REPRO_LOG", str(tmp_path / "log.jsonl"))
    env = harness.RunDir(tmp_path).env(workers=2)
    assert env["REPRO_WORKERS"] == "2"
    assert env["REPRO_TRACE_CACHE"] == str(tmp_path / "traces")
    assert env["REPRO_MEMO_CACHE"] == str(tmp_path / "memo")
    for name in ("REPRO_ENGINE_BACKEND", "REPRO_LOG", "REPRO_OBS_PORT",
                 "REPRO_ADVF_SPECULATION", "REPRO_METRICS"):
        assert name not in env


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
class FakeStore:
    """The three store reads a campaign fingerprint uses, over a list of
    stored outcomes."""

    class Record:
        campaign_id = "c0"

    def __init__(self, outcomes) -> None:
        self._outcomes = outcomes

    def campaigns(self):
        return [self.Record()]

    def outcomes(self, campaign_id):
        return self._outcomes

    def outcome_histograms(self, campaign_id):
        hist = {}
        for outcome in self._outcomes:
            per = hist.setdefault(outcome.object_name, {})
            per[outcome.outcome.value] = per.get(outcome.outcome.value, 0) + 1
        return hist


def test_campaign_check_catches_one_perturbed_outcome(tiny_campaign):
    from dataclasses import replace

    from repro.core.acceptance import OutcomeClass

    fingerprint = tiny_campaign["fingerprint"]
    outcomes = list(tiny_campaign["outcomes"])
    assert checks.campaign_fingerprint(FakeStore(outcomes)) == fingerprint
    reference = checks.campaign_reference(fingerprint)
    expected = sum(fingerprint["injections"].values())
    assert checks.campaign_failures(fingerprint, reference, expected) == 0

    first = outcomes[0]
    other = next(c for c in OutcomeClass if c != first.outcome)
    outcomes[0] = replace(first, outcome=other)
    perturbed = checks.campaign_fingerprint(FakeStore(outcomes))
    failed = checks.campaign_failures(perturbed, reference, expected)
    assert failed == fingerprint["injections"][first.object_name]
    # an injection that was never committed counts as failed too
    assert checks.campaign_failures(fingerprint, reference, expected + 1) == 1


def test_advf_check_catches_one_perturbed_value():
    reports = {
        "cg/r": {"result": {"value": 0.6941, "participations": 10},
                 "injections": 56},
        "cg/colidx": {"result": {"value": 0.0, "participations": 4},
                      "injections": 6},
    }
    reference = checks.advf_fingerprint(reports)
    assert checks.advf_failures(checks.advf_fingerprint(reports), reference) == 0
    perturbed = copy.deepcopy(reports)
    perturbed["cg/r"]["result"]["value"] += 1e-12
    assert checks.advf_failures(checks.advf_fingerprint(perturbed), reference) == 1
    missing = {"cg/r": reports["cg/r"]}
    assert checks.advf_failures(checks.advf_fingerprint(missing), reference) == 1


# --------------------------------------------------------------------- #
# metric definitions
# --------------------------------------------------------------------- #
def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    e2e = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    layers = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert {entry["name"] for entry in spec["workloads"]} == set(harness.WORKLOADS)
    layer_map = json.loads((BENCHMARK_JSON.parent / "perfbench" / "layers.json").read_text())
    assert set(layer_map["workloads"]) == set(harness.WORKLOADS)
    assert set(layer_map["per_layer"]) == set(layers)
    assert set(e2e) <= set(layer_map["end_to_end"])
    for name in [*e2e, *layers, *harness.WORKLOADS]:
        assert NAME.match(name), name


def test_layer_metrics_cover_every_per_layer_name():
    layers = {
        "vm.walk": {"calls": 1, "total_s": 3.0, "self_s": 2.0, "units": 0},
        "vm.restore": {"calls": 1, "total_s": 1.0, "self_s": 1.0, "units": 0},
    }
    metrics = run.layer_metrics(layers, {"replay.faults": 4, "replay.evicted": 1},
                                wall_s=4.0)
    assert set(metrics) | {"trace_overhead"} == set(run.PER_LAYER)
    assert metrics["other_s"] == 1.0
    assert metrics["core.evicted_ratio"] == 0.25


def test_fast_half_keeps_the_better_half():
    assert run.fast_half([5.0, 1.0, 2.0, 9.0]) == 1.5
    assert run.fast_half([5.0, 1.0, 2.0]) == 1.5


def _rep(job_s, **segments):
    return run.Rep(1, 0, job_s, 1, 1.0, segments=segments)


def test_floor_corrected_takes_each_job_to_the_best_speed_seen():
    # job 1 ran piece a slowly, job 2 piece b; floors are a=1, b=2
    reps = [_rep(5.0, a=2.0, b=2.0), _rep(8.0, a=1.0, b=4.0), _rep(3.0, a=1.0, b=2.0)]
    assert run.floor_corrected(reps) == [5.0 * 3 / 4, 8.0 * 3 / 5, 3.0]


def test_floor_corrected_keeps_a_uniform_slowdown():
    # a program twice as slow in every piece reads twice as slow
    fast = [_rep(4.0, a=1.0, b=2.0), _rep(5.0, a=1.5, b=2.0)]
    slow = [_rep(8.0, a=2.0, b=4.0), _rep(10.0, a=3.0, b=4.0)]
    assert run.floor_corrected(slow) == pytest.approx(
        [2 * t for t in run.floor_corrected(fast)])


def test_floor_corrected_ignores_pieces_not_in_every_job():
    reps = [_rep(4.0, a=1.0, b=9.0), _rep(4.0, a=2.0)]
    assert run.floor_corrected(reps) == [4.0, 2.0]
    assert run.floor_corrected([_rep(4.0), _rep(5.0)]) == [4.0, 5.0]


def test_job_count_depends_only_on_seconds():
    workload = harness.WORKLOADS["inject-cg-2w"]
    assert run.jobs_per_run(workload, 4 * workload.nominal_s) == 4
    assert run.jobs_per_run(workload, 1.0) == run.MIN_JOBS
