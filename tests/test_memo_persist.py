"""Persisted convergence memo: artifact round-trips + cross-process warm starts.

The :class:`~repro.core.replay.ReplayMemo` a batched replay context grows
is serialisable (``to_payload`` / ``consume_delta`` / ``merge_payload``)
and persisted by :class:`~repro.tracing.cache.MemoCache` keyed by trace
digest + format version (not by engine backend: a memo learned on one
backend serves the other).  The bar: entries survive the
JSON round trip **bit-exactly** (output arrays compared as raw bytes,
numpy scalar dtypes preserved, crash entries reconstructing exception
type + message), merges are order-independent on disjoint deltas, any
key mismatch reads as a *cold* memo (never a crash), and a fresh
process — campaign worker, resumed campaign, fresh-store rerun — answers
replays from the persisted artifact (``memo_persist_hits``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaigns.cli import main
from repro.campaigns.store import CampaignStore
from repro.core.injector import DeterministicFaultInjector
from repro.core.replay import (
    MEMO_FORMAT_VERSION,
    ReplayMemo,
    _MemoEntry,
)
from repro.core.sites import enumerate_fault_sites
from repro.obs.metrics import configure
from repro.tracing.cache import MemoCache, trace_digest
from repro.vm.errors import SegmentationFault, VMError
from repro.workloads.registry import get_workload

from mir_helpers import engine_backend


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Every test starts with an enabled, empty process registry."""
    configure(True)
    yield
    configure(None)


def _key(position, seed):
    return (position, bytes([seed] * 8))


def _outcome_entry():
    return _MemoEntry(
        "outcome",
        outputs={
            "C": np.arange(6, dtype=np.float32).reshape(2, 3) * 1.25,
            "v": np.array([1, -7, 42], dtype=np.int64),
        },
        return_value=np.float64(3.141592653589793),
        steps=128,
    )


def _round_trip(payload):
    """Through JSON text, as the artifact file stores it."""
    return json.loads(json.dumps(payload))


class TestMemoRoundTrip:
    def test_outcome_entry_round_trips_bit_exact(self):
        memo = ReplayMemo()
        memo.record([_key(10, 1), _key(20, 2)], _outcome_entry())
        payload = _round_trip(memo.to_payload())

        fresh = ReplayMemo()
        assert fresh.merge_payload(payload) == 2
        for key in (_key(10, 1), _key(20, 2)):
            entry = fresh.lookup(*key)
            original = memo.lookup(*key)
            assert entry.kind == "outcome"
            assert entry.steps == original.steps
            assert type(entry.return_value) is np.float64
            assert entry.return_value == original.return_value
            for name, array in original.outputs.items():
                restored = entry.outputs[name]
                assert restored.dtype == array.dtype
                assert restored.shape == array.shape
                assert np.array_equal(
                    restored.view(np.uint8), array.view(np.uint8)
                )
        # both keys point at ONE shared entry, exactly like the original
        assert fresh.lookup(*_key(10, 1)) is fresh.lookup(*_key(20, 2))

    def test_error_entry_reconstructs_exception(self):
        memo = ReplayMemo()
        error = SegmentationFault(0xDEADBEEF, note="gather out of bounds")
        memo.record([_key(5, 3)], _MemoEntry("error", error=error))
        fresh = ReplayMemo()
        fresh.merge_payload(_round_trip(memo.to_payload()))
        restored = fresh.lookup(*_key(5, 3)).error
        assert type(restored) is SegmentationFault
        assert str(restored) == str(error)

    def test_unknown_error_type_falls_back_to_vmerror(self):
        payload = {
            "format": MEMO_FORMAT_VERSION,
            "entries": [
                {"kind": "error", "error_type": "NotARealError",
                 "error_message": "boom"}
            ],
            "keys": [[7, bytes([9] * 8).hex(), 0]],
        }
        memo = ReplayMemo()
        assert memo.merge_payload(payload) == 1
        restored = memo.lookup(*_key(7, 9)).error
        assert type(restored) is VMError
        assert str(restored) == "boom"

    def test_golden_entry_round_trips(self):
        memo = ReplayMemo()
        memo.record([_key(1, 4)], _MemoEntry("golden", converged_at=321))
        fresh = ReplayMemo()
        fresh.merge_payload(_round_trip(memo.to_payload()))
        entry = fresh.lookup(*_key(1, 4))
        assert entry.kind == "golden" and entry.converged_at == 321

    def test_fifo_eviction_and_counter(self):
        memo = ReplayMemo(max_entries=3)
        for seed in range(4):
            evicted = memo.record([_key(seed, seed)], _outcome_entry())
        assert evicted == 1
        assert memo.evictions == 1
        assert len(memo) == 3
        assert memo.lookup(*_key(0, 0)) is None  # oldest went first
        assert memo.lookup(*_key(3, 3)) is not None

    def test_version_mismatch_reads_cold(self):
        memo = ReplayMemo()
        memo.record([_key(2, 2)], _outcome_entry())
        payload = memo.to_payload()
        payload["format"] = MEMO_FORMAT_VERSION + 1
        fresh = ReplayMemo()
        assert fresh.merge_payload(payload) == 0
        assert len(fresh) == 0

    def test_delta_ships_only_locally_learned_entries(self):
        source = ReplayMemo()
        source.record([_key(1, 1)], _outcome_entry())
        delta = source.consume_delta()
        assert delta is not None and len(delta["keys"]) == 1
        assert source.consume_delta() is None  # consumed

        warm = ReplayMemo()
        warm.merge_payload(delta)
        assert warm.consume_delta() is None  # warm merges are not dirty
        warm.record([_key(9, 9)], _MemoEntry("golden", converged_at=7))
        fresh_delta = warm.consume_delta()
        assert [tuple(row[:2]) for row in fresh_delta["keys"]] == [
            (9, bytes([9] * 8).hex())
        ]

    def test_merge_payloads_order_independent_on_disjoint_deltas(self):
        a = ReplayMemo()
        a.record([_key(1, 1)], _outcome_entry())
        b = ReplayMemo()
        b.record([_key(2, 2)], _MemoEntry("golden", converged_at=11))
        delta_a, delta_b = a.consume_delta(), b.consume_delta()

        ab = ReplayMemo.merge_payloads(
            ReplayMemo.merge_payloads(None, delta_a), delta_b
        )
        ba = ReplayMemo.merge_payloads(
            ReplayMemo.merge_payloads(None, delta_b), delta_a
        )
        memo_ab, memo_ba = ReplayMemo(), ReplayMemo()
        assert memo_ab.merge_payload(_round_trip(ab)) == 2
        assert memo_ba.merge_payload(_round_trip(ba)) == 2
        for key in (_key(1, 1), _key(2, 2)):
            one, two = memo_ab.lookup(*key), memo_ba.lookup(*key)
            assert one.kind == two.kind
            assert one.steps == two.steps and one.converged_at == two.converged_at


class TestMemoCache:
    def _payload(self):
        memo = ReplayMemo()
        memo.record([_key(3, 3)], _outcome_entry())
        return memo.to_payload()

    def test_store_load_round_trip(self, tmp_path):
        cache = MemoCache(tmp_path)
        path = cache.store("tdigest", self._payload())
        assert path.name == f"tdigest.memo.v{MEMO_FORMAT_VERSION}.json"
        loaded = cache.load("tdigest")
        assert loaded is not None
        assert loaded["trace"] == "tdigest" and "backend" not in loaded
        memo = ReplayMemo()
        assert memo.merge_payload(loaded) == 1

    def test_mismatches_read_cold(self, tmp_path):
        cache = MemoCache(tmp_path)
        # a missing artifact misses
        assert cache.load("t2") is None
        # corrupt artifacts miss instead of crashing
        cache.path_for("t3").write_text("not json{")
        assert cache.load("t3") is None
        # format version participates in the file name too
        wrong = self._payload()
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
        a = ReplayMemo()
        a.record([_key(1, 1)], _outcome_entry())
        b = ReplayMemo()
        b.record([_key(2, 2)], _MemoEntry("golden", converged_at=5))
        delta_a, delta_b = a.consume_delta(), b.consume_delta()

        one, two = MemoCache(tmp_path / "ab"), MemoCache(tmp_path / "ba")
        one.merge_store("t", delta_a)
        one.merge_store("t", delta_b)
        two.merge_store("t", delta_b)
        two.merge_store("t", delta_a)
        memo_ab, memo_ba = ReplayMemo(), ReplayMemo()
        assert memo_ab.merge_payload(one.load("t")) == 2
        assert memo_ba.merge_payload(two.load("t")) == 2
        for key in (_key(1, 1), _key(2, 2)):
            assert memo_ab.lookup(*key).kind == memo_ba.lookup(*key).kind


#: Small lulesh: some low-bit flips of its target objects evict from the
#: lockstep walk (a divergent branch or store address) and run to
#: completion — the evict-then-complete shape the memo records.  (cg's
#: ``colidx`` flips no longer evict: the walk carries a divergent load
#: address and resolves one that raises in place.)
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


class TestInjectorWarmStart:
    def test_fresh_injector_answers_from_persisted_memo(
        self, tmp_path, monkeypatch
    ):
        """The pinned cross-process path: injector A learns entries and
        ships a delta; the orchestrator-side merge persists it; a fresh
        injector B (new context, same trace digest) warm-starts and
        answers divergent replays from the artifact, bit-identically."""
        monkeypatch.setenv("REPRO_MEMO_CACHE", str(tmp_path))
        digest = trace_digest("lulesh", LULESH)
        workload = _lulesh()
        specs = _divergent_specs(workload)

        learner = DeterministicFaultInjector(workload, memo_key=digest)
        first = learner.inject_many(specs)
        delta = learner.consume_memo_delta()
        assert delta is not None and delta["keys"]
        assert delta["trace"] == digest and "backend" not in delta
        MemoCache.from_env().merge_store(digest, delta)

        fresh = DeterministicFaultInjector(
            _lulesh(), memo_key=digest
        )
        second = fresh.inject_many(specs)
        stats = fresh.context.stats
        assert stats.memo_persist_hits >= 1
        assert stats.memo_persist_hits <= stats.memo_hits
        for a, b in zip(first, second):
            assert a.outcome == b.outcome and a.detail == b.detail

    def test_memo_learned_on_block_warm_starts_op(self, tmp_path, monkeypatch):
        """The artifact is keyed by trace digest alone: entries a ``block``
        injector learned answer an ``op`` injector's replays, whose results
        equal a cold ``op`` run fault for fault."""
        monkeypatch.setenv("REPRO_MEMO_CACHE", str(tmp_path))
        digest = trace_digest("lulesh", LULESH)
        specs = _divergent_specs(_lulesh())
        with engine_backend("block"):
            learner = DeterministicFaultInjector(
                _lulesh(), memo_key=digest
            )
            learner.inject_many(specs)
        MemoCache.from_env().merge_store(digest, learner.consume_memo_delta())

        with engine_backend("op"):
            warm = DeterministicFaultInjector(
                _lulesh(), memo_key=digest
            )
            warmed = warm.inject_many(specs)
            cold = DeterministicFaultInjector(_lulesh())
            expected = cold.inject_many(specs)
        assert warm.context.stats.memo_persist_hits >= 1
        assert cold.context.stats.memo_persist_hits == 0
        assert [(r.spec, r.outcome, r.detail) for r in warmed] == [
            (r.spec, r.outcome, r.detail) for r in expected
        ]

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
        workers) answers replays from it — identical outcome histogram."""
        seed_store = str(caches / "seed.sqlite")
        assert main([*CAMPAIGN_ARGS, "--workers", "1",
                     "--store", seed_store]) == 0
        artifact = (caches / "memo") / (
            f"{trace_digest('lulesh', LULESH)}.memo.v{MEMO_FORMAT_VERSION}.json"
        )
        assert artifact.exists()
        seed = _memo_counters(seed_store)
        assert seed.get("replay.memo_persist_merges", 0) >= 1

        rerun_store = str(caches / "rerun.sqlite")
        assert main([*CAMPAIGN_ARGS, "--workers", "2",
                     "--store", rerun_store]) == 0
        capsys.readouterr()
        rerun = _memo_counters(rerun_store)
        assert rerun.get("replay.memo_persist_hits", 0) >= 1
        assert _histogram(rerun_store) == _histogram(seed_store)

        # the stats command surfaces the persisted-memo warm-start line
        assert main(["stats", *CAMPAIGN, "--store", rerun_store]) == 0
        out = capsys.readouterr().out
        assert "memo store" in out and "warm-start hits" in out
        assert "speculation" in out

    def test_campaign_persists_the_memo_once_per_run(
        self, caches, capsys, monkeypatch
    ):
        """Shards' learned entries are folded in memory and merged into the
        artifact once per run — an interrupted run included — not once per
        shard."""
        merges = []
        merge_store = MemoCache.merge_store

        def counting(self, digest, delta):
            merges.append(len(delta["keys"]))
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
        persisted by earlier runs answers replays in the resumed run."""
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
