"""Memoised fault results: the injector's table and its persisted artifact.

:class:`~repro.core.injector.DeterministicFaultInjector` keeps a
``{FaultSpec: FaultInjectionResult}`` table of the faults that left the
lockstep walk and answers a spec it holds without replaying it;
:class:`~repro.tracing.cache.MemoCache` persists the table's rows keyed
by trace digest + format version (not by engine backend: rows learned on
one backend serve the other).  The bar: a spec submitted twice in one
call replays once and each result keeps its own ``note``; a hit — from
this process or from the artifact — returns the submitted spec with the
outcome and detail of a from-scratch run; rows survive the JSON round
trip; merges are order-independent on disjoint deltas; any mismatch reads
as a *cold* memo (never a crash); and a fresh process — campaign worker,
resumed campaign, fresh-store rerun — answers from the persisted artifact
(``memo_persist_hits``).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.campaigns.cli import main
from repro.campaigns.store import CampaignStore
from repro.core.acceptance import OutcomeClass
from repro.core.injector import DeterministicFaultInjector, FaultInjectionResult
from repro.core.sites import enumerate_fault_sites
from repro.obs.metrics import configure
from repro.tracing.cache import (
    MEMO_FORMAT_VERSION,
    MemoCache,
    merge_memo_payloads,
    trace_digest,
)
from repro.vm.faults import FaultSpec
from repro.workloads.registry import get_workload

from mir_helpers import engine_backend
from oracles.rerun import RerunInjector


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Every test starts with an enabled, empty process registry."""
    configure(True)
    yield
    configure(None)


def _row(dynamic_id, outcome=OutcomeClass.UNACCEPTABLE, detail=""):
    return FaultInjectionResult(
        FaultSpec(dynamic_id, 3, note=f"n{dynamic_id}"), outcome, detail
    ).to_row()


def _payload(*rows):
    return {"format": MEMO_FORMAT_VERSION, "rows": list(rows)}


#: Small lulesh: some low-bit flips of its target objects evict from the
#: lockstep walk (a divergent branch or store address) and run to
#: completion — the faults the table records.  (cg's ``colidx`` flips no
#: longer evict: the walk carries a divergent load address and resolves
#: one that raises in place.)
LULESH = {"num_elem": 12}


def _lulesh():
    return get_workload("lulesh", **LULESH)


def _divergent_specs(workload, limit=40):
    """The first ``limit`` low-bit flips of each target object of small
    lulesh, among them faults that evict and complete."""
    trace = workload.traced_run().trace
    specs = []
    for name in workload.target_objects:
        sites = enumerate_fault_sites(trace, name, bit_stride=7)
        specs.extend(site.to_spec() for site in sites[:limit])
    return specs


def _triples(results):
    return [(r.spec, r.outcome, r.detail) for r in results]


def _learn(tmp_path, monkeypatch, specs):
    """Inject ``specs`` on a learner with a memo key, persist its delta,
    and return the learner's results and its trace digest."""
    monkeypatch.setenv("REPRO_MEMO_CACHE", str(tmp_path))
    digest = trace_digest("lulesh", LULESH)
    learner = DeterministicFaultInjector(_lulesh(), memo_key=digest)
    results = learner.inject_many(specs)
    MemoCache.from_env().merge_store(digest, learner.consume_memo_delta())
    return results, digest


class TestMemoRoundTrip:
    def test_outcome_entry_round_trips_bit_exact(self, tmp_path, monkeypatch):
        """Every learned row comes back through the JSON artifact as the
        result the learner returned: spec (with its note), outcome and
        detail."""
        specs = _divergent_specs(_lulesh())
        results, digest = _learn(tmp_path, monkeypatch, specs)
        rows = MemoCache.from_env().load(digest)["rows"]
        assert rows
        by_spec = {r.spec: r for r in results}
        for row in rows:
            restored = FaultInjectionResult.from_row(row)
            original = by_spec[restored.spec]
            assert restored.spec.note == original.spec.note
            assert (restored.outcome, restored.detail) == (
                original.outcome, original.detail
            )

    def test_version_mismatch_reads_cold(self, tmp_path):
        """A payload of another version under the current file name reads
        cold, and the next merge replaces it with current rows only."""
        cache = MemoCache(tmp_path)
        wrong = _payload(_row(1))
        wrong["format"] = MEMO_FORMAT_VERSION + 1
        with open(cache.path_for("t"), "w") as fh:
            json.dump(wrong, fh)
        assert cache.load("t") is None
        assert cache.merge_store("t", _payload(_row(2))) is not None
        assert cache.load("t")["rows"] == [_row(2)]

    def test_delta_ships_only_locally_learned_entries(
        self, tmp_path, monkeypatch
    ):
        specs = _divergent_specs(_lulesh())
        half = len(specs) // 2
        _, digest = _learn(tmp_path, monkeypatch, specs[:half])

        warm = DeterministicFaultInjector(_lulesh(), memo_key=digest)
        warm.inject_many(specs[:half])
        assert warm.consume_memo_delta() is None  # warm rows are not learned
        warm.inject_many(specs)
        delta = warm.consume_memo_delta()
        learned = {FaultSpec.from_dict(row) for row in delta["rows"]}
        assert learned and learned.isdisjoint(specs[:half])
        assert warm.consume_memo_delta() is None  # consumed

    def test_merge_payloads_order_independent_on_disjoint_deltas(self):
        a, b = _payload(_row(1), _row(2)), _payload(_row(3, detail="crash"))
        ab = merge_memo_payloads(merge_memo_payloads(None, a), b)
        ba = merge_memo_payloads(merge_memo_payloads(None, b), a)
        key = lambda row: row["dynamic_id"]  # noqa: E731
        assert sorted(ab["rows"], key=key) == sorted(ba["rows"], key=key)
        assert len(ab["rows"]) == 3
        # on a shared spec the base's row wins, and a delta adding nothing
        # returns the base itself
        clash = _payload(_row(1, OutcomeClass.CRASH))
        assert merge_memo_payloads(a, clash) is a
        merged = merge_memo_payloads(clash, a)
        assert [r["outcome"] for r in merged["rows"]] == [
            OutcomeClass.CRASH.value, OutcomeClass.UNACCEPTABLE.value
        ]


class TestMemoCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = MemoCache(tmp_path)
        path = cache.store("tdigest", _payload(_row(3)))
        assert path.name == f"tdigest.memo.v{MEMO_FORMAT_VERSION}.json"
        loaded = cache.load("tdigest")
        assert loaded is not None
        assert loaded["trace"] == "tdigest" and "backend" not in loaded
        assert loaded["rows"] == [_row(3)]

    def test_mismatches_read_cold(self, tmp_path):
        cache = MemoCache(tmp_path)
        # a missing artifact misses
        assert cache.load("t2") is None
        # corrupt artifacts miss instead of crashing
        cache.path_for("t3").write_text("not json{")
        assert cache.load("t3") is None
        # format version participates in the file name too
        wrong = _payload(_row(3))
        wrong["format"] = MEMO_FORMAT_VERSION + 1
        with open(cache.path_for("t4"), "w") as fh:
            json.dump(wrong, fh)
        assert cache.load("t4") is None

    def test_from_env_follows_trace_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_MEMO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        cache = MemoCache.from_env()
        assert cache is not None and cache.root == tmp_path / "traces"
        monkeypatch.setenv("REPRO_MEMO_CACHE", str(tmp_path / "memos"))
        assert MemoCache.from_env().root == tmp_path / "memos"
        for off in ("0", "off", "none", "DISABLED"):
            monkeypatch.setenv("REPRO_MEMO_CACHE", off)
            assert MemoCache.from_env() is None

    def test_merge_store_commutes_on_disjoint_deltas(self, tmp_path):
        delta_a = _payload(_row(1))
        delta_b = _payload(_row(2, OutcomeClass.CRASH, "segfault"))
        one, two = MemoCache(tmp_path / "ab"), MemoCache(tmp_path / "ba")
        one.merge_store("t", delta_a)
        one.merge_store("t", delta_b)
        two.merge_store("t", delta_b)
        two.merge_store("t", delta_a)
        key = lambda row: row["dynamic_id"]  # noqa: E731
        assert sorted(one.load("t")["rows"], key=key) == sorted(
            two.load("t")["rows"], key=key
        ) == [_row(1), _row(2, OutcomeClass.CRASH, "segfault")]
        # a delta the artifact already holds writes nothing
        assert one.merge_store("t", delta_a) is None


class TestInjectorMemo:
    def test_duplicate_spec_replays_once_and_keeps_its_note(self):
        """A spec submitted twice in one call replays once; each result
        carries the spec submitted at its position, note included."""
        workload = _lulesh()
        specs = _divergent_specs(workload, limit=4)
        twins = [replace(spec, note="twin") for spec in specs]
        injector = DeterministicFaultInjector(workload)
        results = injector.inject_many(specs + twins)
        assert injector.context.stats.faults == len(specs)
        assert [r.spec.note for r in results] == (
            [s.note for s in specs] + ["twin"] * len(twins)
        )
        assert [(r.outcome, r.detail) for r in results[:len(specs)]] == [
            (r.outcome, r.detail) for r in results[len(specs):]
        ]

    def test_hit_returns_submitted_spec_with_rerun_outcome(
        self, tmp_path, monkeypatch
    ):
        """A hit from this process's table and a hit from the artifact both
        return the submitted spec with the outcome and detail of a
        from-scratch interpreted run."""
        workload = _lulesh()
        specs = _divergent_specs(workload, limit=12)
        resubmitted = [replace(spec, note="again") for spec in specs]
        expected = _triples(RerunInjector(workload).inject_many(resubmitted))

        _, digest = _learn(tmp_path, monkeypatch, specs)
        local = DeterministicFaultInjector(_lulesh())
        local.inject_many(specs)
        local_hits = local.inject_many(resubmitted)
        warm = DeterministicFaultInjector(_lulesh(), memo_key=digest)
        warm_hits = warm.inject_many(resubmitted)

        local_stats = local.consume_batch_stats()
        warm_stats = warm.consume_batch_stats()
        assert local_stats["memo_hits"] == local_stats["memo_misses"] >= 1
        assert local_stats["memo_persist_hits"] == 0
        assert warm_stats["memo_persist_hits"] == warm_stats["memo_hits"]
        assert warm_stats["memo_hits"] == local_stats["memo_hits"]
        assert _triples(local_hits) == expected
        assert _triples(warm_hits) == expected

    def test_only_faults_that_ran_a_private_replay_are_recorded(self):
        """Of amg's two raising faults below, the first raises in the
        lockstep walk (a divergent load address: no replay of its own), the
        second in the private replay a divergent store address evicted it
        to.  Only the second is recorded, shipped and answered again."""
        in_walk = FaultSpec(17922, 50, note="load address")
        private = FaultSpec(17337, 48, note="store address")
        injector = DeterministicFaultInjector(
            get_workload("amg"), memo_key="t-private"
        )
        paths = injector.context.replay_many([in_walk, private])
        assert [(r.via, r.private) for r in paths] == [
            ("error", False), ("error", True)
        ]
        results = injector.inject_many([in_walk, private])
        assert [r.outcome for r in results] == [OutcomeClass.CRASH] * 2
        assert injector.consume_batch_stats()["memo_misses"] == 1
        delta = injector.consume_memo_delta()
        assert [FaultSpec.from_dict(row) for row in delta["rows"]] == [private]
        again = injector.inject_many([in_walk, private])
        stats = injector.consume_batch_stats()
        assert (stats["memo_hits"], stats["memo_misses"]) == (1, 0)
        assert stats["faults"] == 1  # only the in-walk fault walked again
        assert _triples(again) == _triples(results)

    @pytest.mark.parametrize("payload", [
        {"format": 3, "entries": [], "keys": [[5, "00", 0]]},
        {"format": MEMO_FORMAT_VERSION},
    ], ids=["v3", "no-rows"])
    def test_v3_artifact_and_rowless_payload_read_cold(
        self, tmp_path, monkeypatch, payload
    ):
        monkeypatch.setenv("REPRO_MEMO_CACHE", str(tmp_path))
        digest = trace_digest("lulesh", LULESH)
        cache = MemoCache.from_env()
        with open(cache.path_for(digest), "w") as fh:
            json.dump(payload, fh)
        # the v3 artifact's own file name is never read either
        (tmp_path / f"{digest}.memo.v3.json").write_text(json.dumps(payload))
        assert cache.load(digest) is None
        injector = DeterministicFaultInjector(_lulesh(), memo_key=digest)
        injector.inject_many(_divergent_specs(injector.workload, limit=8))
        assert injector.consume_batch_stats()["memo_hits"] == 0


class TestInjectorWarmStart:
    def test_fresh_injector_answers_from_persisted_memo(
        self, tmp_path, monkeypatch
    ):
        """The pinned cross-process path: injector A learns rows and ships a
        delta; the orchestrator-side merge persists it; a fresh injector B
        (new context, same trace digest) warm-starts and answers the
        evicted faults from the artifact, bit-identically."""
        specs = _divergent_specs(_lulesh())
        monkeypatch.setenv("REPRO_MEMO_CACHE", str(tmp_path))
        digest = trace_digest("lulesh", LULESH)
        learner = DeterministicFaultInjector(_lulesh(), memo_key=digest)
        first = learner.inject_many(specs)
        delta = learner.consume_memo_delta()
        assert delta is not None and delta["rows"]
        assert delta["trace"] == digest and "backend" not in delta
        MemoCache.from_env().merge_store(digest, delta)

        fresh = DeterministicFaultInjector(_lulesh(), memo_key=digest)
        second = fresh.inject_many(specs)
        stats = fresh.consume_batch_stats()
        assert stats["memo_persist_hits"] >= 1
        assert stats["memo_persist_hits"] <= stats["memo_hits"]
        assert stats["memo_misses"] == 0
        assert _triples(first) == _triples(second)

    def test_memo_learned_on_block_warm_starts_op(self, tmp_path, monkeypatch):
        """The artifact is keyed by trace digest alone: rows a ``block``
        injector learned answer an ``op`` injector's faults, whose results
        equal a cold ``op`` run fault for fault."""
        specs = _divergent_specs(_lulesh())
        with engine_backend("block"):
            _, digest = _learn(tmp_path, monkeypatch, specs)

        with engine_backend("op"):
            warm = DeterministicFaultInjector(_lulesh(), memo_key=digest)
            warmed = warm.inject_many(specs)
            cold = DeterministicFaultInjector(_lulesh())
            expected = cold.inject_many(specs)
        assert warm.consume_batch_stats()["memo_persist_hits"] >= 1
        assert cold.consume_batch_stats()["memo_persist_hits"] == 0
        assert _triples(warmed) == _triples(expected)

    def test_no_memo_key_never_touches_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_CACHE", str(tmp_path))
        workload = _lulesh()
        injector = DeterministicFaultInjector(workload)
        injector.inject_many(_divergent_specs(workload, limit=8))
        assert injector.consume_memo_delta() is None
        assert list(tmp_path.iterdir()) == []


CAMPAIGN = ["lulesh", "--plan", "fixed:64@1", "--set", "num_elem=12"]
CAMPAIGN_ARGS = ["campaign", "run", *CAMPAIGN]


def _memo_counters(store_path, run_id=None):
    with CampaignStore(store_path) as store:
        (record,) = store.campaigns()
        if run_id is None:
            merged = store.campaign_metrics(record.campaign_id)
        else:
            merged = store.run_metrics(record.campaign_id)[run_id]
    totals = {}
    for entry in merged.get("counters", []):
        totals[entry["name"]] = totals.get(entry["name"], 0) + entry["value"]
    return totals


def _histogram(store_path):
    with CampaignStore(store_path) as store:
        (record,) = store.campaigns()
        return store.outcome_histograms(record.campaign_id)


class TestCampaignWarmStart:
    @pytest.fixture()
    def caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "trace"))
        monkeypatch.setenv("REPRO_MEMO_CACHE", str(tmp_path / "memo"))
        return tmp_path

    def test_fresh_store_rerun_with_workers_answers_from_memo(
        self, caches, capsys
    ):
        """A completed campaign persists the memo artifact; rerunning the
        identical campaign into a *fresh* store (fresh injectors, pooled
        workers) answers every recorded fault from it — identical outcome
        histogram, no fault left the walk again."""
        seed_store = str(caches / "seed.sqlite")
        assert main([*CAMPAIGN_ARGS, "--workers", "1",
                     "--store", seed_store]) == 0
        artifact = (caches / "memo") / (
            f"{trace_digest('lulesh', LULESH)}.memo.v{MEMO_FORMAT_VERSION}.json"
        )
        assert artifact.exists()
        seed = _memo_counters(seed_store)
        assert seed.get("replay.memo_persist_merges", 0) >= 1
        assert seed.get("replay.memo_misses", 0) >= 1

        rerun_store = str(caches / "rerun.sqlite")
        assert main([*CAMPAIGN_ARGS, "--workers", "2",
                     "--store", rerun_store]) == 0
        capsys.readouterr()
        rerun = _memo_counters(rerun_store)
        assert rerun.get("replay.memo_persist_hits", 0) >= 1
        assert rerun.get("replay.memo_misses", 0) == 0
        assert _histogram(rerun_store) == _histogram(seed_store)

        # the stats command surfaces the persisted-memo warm-start line
        assert main(["stats", *CAMPAIGN, "--store", rerun_store]) == 0
        out = capsys.readouterr().out
        assert "memo store" in out and "warm-start hits" in out
        assert "speculation" in out

    def test_campaign_persists_the_memo_once_per_run(
        self, caches, capsys, monkeypatch
    ):
        """Shards' learned rows are folded in memory and merged into the
        artifact once per run — an interrupted run included — not once per
        shard."""
        merges = []
        merge_store = MemoCache.merge_store

        def counting(self, digest, delta):
            merges.append(len(delta["rows"]))
            return merge_store(self, digest, delta)

        monkeypatch.setattr(MemoCache, "merge_store", counting)
        store_path = str(caches / "once.sqlite")
        assert main([*CAMPAIGN_ARGS, "--workers", "1", "--max-shards", "2",
                     "--store", store_path]) == 0
        assert len(merges) == 1 and merges[0] > 0
        assert main([*CAMPAIGN_ARGS, "--workers", "1",
                     "--store", store_path]) == 0
        capsys.readouterr()
        assert len(merges) == 2
        with CampaignStore(store_path) as store:
            (record,) = store.campaigns()
            shards = store.completed_shards(record.campaign_id)
            runs = sorted(store.run_metrics(record.campaign_id))
        assert len(shards) > 3
        for run_id in runs:
            counters = _memo_counters(store_path, run_id=run_id)
            assert counters.get("replay.memo_persist_merges", 0) == 1

    def test_resumed_campaign_answers_from_memo(self, caches, capsys):
        """An interrupted campaign resumes with a warm memo: the artifact
        persisted by earlier runs answers faults in the resumed run."""
        seed_store = str(caches / "seed.sqlite")
        assert main([*CAMPAIGN_ARGS, "--workers", "1",
                     "--store", seed_store]) == 0

        store_path = str(caches / "resumable.sqlite")
        assert main([*CAMPAIGN_ARGS, "--workers", "1", "--max-shards", "2",
                     "--store", store_path]) == 0
        assert main(["campaign", "resume", *CAMPAIGN, "--workers", "1",
                     "--store", store_path]) == 0
        capsys.readouterr()
        with CampaignStore(store_path) as store:
            (record,) = store.campaigns()
            resumed_run = max(store.run_metrics(record.campaign_id))
        resumed = _memo_counters(store_path, run_id=resumed_run)
        assert resumed.get("replay.memo_persist_loads", 0) >= 1
        assert resumed.get("replay.memo_persist_hits", 0) >= 1
