"""Tests for the parallel campaign runner and the text reporting layer."""

import multiprocessing

import pytest

import repro.parallel.campaign as parallel_campaign
from repro.parallel.campaign import CampaignChunkError, _default_workers

from repro.core.advf import AdvfResult, AnalysisConfig
from repro.core.masking import MaskingCategory, MaskingLevel
from repro.core.patterns import SingleBitModel
from repro.core.sites import enumerate_fault_sites
from repro.parallel import CampaignRunner, chunk_evenly, interleave
from repro.reporting import (
    advf_category_breakdown_rows,
    advf_level_breakdown_rows,
    bar_chart,
    stacked_bar_chart,
    format_table,
    table1_rows,
)
from repro.reporting.tables import format_shard_table, format_table1


class TestPartitioning:
    def test_chunk_evenly(self):
        chunks = chunk_evenly(list(range(10)), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert sum(chunks, []) == list(range(10))

    def test_chunk_more_workers_than_items(self):
        chunks = chunk_evenly([1, 2], 4)
        assert [len(c) for c in chunks] == [1, 1, 0, 0]

    def test_interleave(self):
        chunks = interleave(list(range(7)), 3)
        assert chunks == [[0, 3, 6], [1, 4], [2, 5]]

    @pytest.mark.parametrize("fn", [chunk_evenly, interleave])
    def test_invalid_chunks(self, fn):
        with pytest.raises(ValueError):
            fn([1], 0)


class TestCampaignRunner:
    def test_sequential_injections(self, lulesh_workload):
        trace = lulesh_workload.traced_run().trace
        sites = enumerate_fault_sites(trace, "m_elemBC", bit_stride=32)[:6]
        runner = CampaignRunner("lulesh", {"num_elem": 10}, workers=1)
        results = runner.run_injections([s.to_spec() for s in sites])
        assert len(results) == 6
        assert all(r.outcome is not None for r in results)

    def test_parallel_matches_sequential(self, lulesh_workload):
        trace = lulesh_workload.traced_run().trace
        sites = enumerate_fault_sites(trace, "m_delv_zeta", bit_stride=16)[:8]
        specs = [s.to_spec() for s in sites]
        sequential = CampaignRunner("lulesh", {"num_elem": 10}, workers=1).run_injections(specs)
        parallel = CampaignRunner("lulesh", {"num_elem": 10}, workers=2).run_injections(specs)
        assert [r.outcome for r in sequential] == [r.outcome for r in parallel]

    def test_analyze_objects(self):
        config = AnalysisConfig(
            max_injections=5,
            equivalence_samples=1,
            injection_samples_per_class=1,
            error_model=SingleBitModel(bit_stride=16),
        )
        runner = CampaignRunner("lulesh", {"num_elem": 8}, workers=1)
        reports = runner.analyze_objects(["m_elemBC"], config)
        assert set(reports) == {"m_elemBC"}
        assert 0.0 <= reports["m_elemBC"].result.value <= 1.0

    def test_empty_inputs(self):
        runner = CampaignRunner("lulesh", {}, workers=1)
        assert runner.run_injections([]) == []
        assert runner.analyze_objects([]) == {}

    def test_progress_callback(self, lulesh_workload):
        trace = lulesh_workload.traced_run().trace
        sites = enumerate_fault_sites(trace, "m_elemBC", bit_stride=32)[:4]
        seen = []
        runner = CampaignRunner("lulesh", {"num_elem": 10}, workers=1)
        runner.run_injections(
            [s.to_spec() for s in sites],
            on_progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 1)]


#: Small analysis budgets: a chunk of three matmul objects takes ~0.1 s.
QUICK = AnalysisConfig(
    max_injections=5,
    equivalence_samples=1,
    injection_samples_per_class=1,
    error_model=SingleBitModel(bit_stride=16),
)
MATMUL = ("matmul", {"n": 4})
OBJECTS = ["A", "B", "C"]


def _pool_spy(monkeypatch):
    """Count the worker pools the pipeline builds."""
    built = []

    class Spy(parallel_campaign.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel_campaign, "ProcessPoolExecutor", Spy)
    return built


class TestAnalysisPool:
    """``analyze_objects`` over more than one worker: object chunks run in
    the pipeline's worker pool."""

    def test_two_workers_equal_one_worker(self, monkeypatch):
        serial = CampaignRunner(*MATMUL, workers=1).analyze_objects(
            OBJECTS, QUICK
        )
        built = _pool_spy(monkeypatch)
        seen = []
        paired = CampaignRunner(*MATMUL, workers=2).analyze_objects(
            OBJECTS, QUICK, on_progress=lambda done, total: seen.append(
                (done, total)
            ),
        )
        assert built == [2]
        assert list(paired) == OBJECTS
        assert {name: report.to_dict() for name, report in paired.items()} == {
            name: report.to_dict() for name, report in serial.items()
        }
        assert seen == [(1, 2), (2, 2)]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="patching the engine reaches pool workers only through fork",
    )
    def test_chunk_failing_in_a_worker_names_workload_and_chunk(
        self, monkeypatch
    ):
        from repro.core.advf import AdvfEngine

        original = AdvfEngine.analyze_object

        def analyze_object(self, name):
            if name == "C":
                raise RuntimeError("engine blew up")
            return original(self, name)

        monkeypatch.setattr(AdvfEngine, "analyze_object", analyze_object)
        built = _pool_spy(monkeypatch)
        with pytest.raises(CampaignChunkError) as excinfo:
            CampaignRunner(*MATMUL, workers=2).analyze_objects(OBJECTS, QUICK)
        assert built == [2]
        error = excinfo.value
        # chunks are [A, B] and [C]
        assert error.chunk_index == 1 and error.items == ["C"]
        assert "campaign chunk 1 of workload 'matmul'" in str(error)
        assert "engine blew up" in str(error)
        assert isinstance(error.__cause__, RuntimeError)

    @pytest.mark.parametrize("workers, names", [(2, ["C"]), (1, OBJECTS)])
    def test_one_object_or_one_worker_spawns_no_pool(
        self, monkeypatch, workers, names
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(parallel_campaign, "ProcessPoolExecutor", no_pool)
        seen = []
        reports = CampaignRunner(*MATMUL, workers=workers).analyze_objects(
            names, QUICK, on_progress=lambda done, total: seen.append(
                (done, total)
            ),
        )
        assert list(reports) == names
        assert seen == [(1, 1)]


class TestWorkerConfig:
    def test_repro_workers_env_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert _default_workers() == 3
        assert CampaignRunner("lulesh").workers == 3

    def test_repro_workers_env_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            _default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match=">= 1"):
            _default_workers()

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert 1 <= _default_workers() <= 8

    def test_explicit_workers_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert CampaignRunner("lulesh", workers=2).workers == 2


class TestChunkErrorContext:
    def test_failure_names_workload_chunk_and_specs(self):
        # a workload name no worker can rebuild fails inside the chunk
        runner = CampaignRunner("definitely-not-a-workload", {}, workers=1)
        from repro.vm.faults import FaultSpec

        specs = [FaultSpec(dynamic_id=i, bit=0) for i in range(3)]
        with pytest.raises(CampaignChunkError) as excinfo:
            runner.run_injections(specs)
        message = str(excinfo.value)
        assert "definitely-not-a-workload" in message
        assert "chunk 0" in message and "3 items" in message
        assert excinfo.value.__cause__ is not None

    def test_analyze_failure_wrapped_too(self):
        runner = CampaignRunner("not-a-workload", {}, workers=1)
        with pytest.raises(CampaignChunkError, match="not-a-workload"):
            runner.analyze_objects(["u"])


class TestReporting:
    def _results(self):
        return {
            "r": AdvfResult(
                object_name="r",
                value=0.9,
                participations=100,
                masked_events=90.0,
                by_level={MaskingLevel.OPERATION: 70.0, MaskingLevel.ALGORITHM: 20.0},
                by_category={
                    MaskingCategory.OVERWRITE: 40.0,
                    MaskingCategory.OVERSHADOW: 30.0,
                },
            ),
            "colidx": AdvfResult(
                object_name="colidx",
                value=0.2,
                participations=50,
                masked_events=10.0,
                by_level={MaskingLevel.ALGORITHM: 10.0},
                by_category={},
            ),
        }

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, "xy"], [22, "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_shard_table_replay_columns_are_per_unit(self):
        # two units of one run: shards 0-2 (r) and 3 (r); then shard 4 of
        # another object and a pre-batching shard 5, which are no unit's
        def row(shard, obj, run, specs, batches=0, hits=0, misses=0):
            return {"shard": shard, "object": obj, "batch": 0, "run": run,
                    "specs": specs, "inject_s": 0.5, "analysis_s": 0.0,
                    "rbatches": batches, "memo_hits": hits,
                    "memo_misses": misses}

        rows = [row(0, "r", 1, 32, batches=2, hits=1, misses=3),
                row(1, "r", 1, 32), row(2, "r", 1, 32),
                row(3, "r", 1, 32, batches=1), row(4, "x", 1, 32),
                row(5, "x", 2, 32)]
        lines = format_shard_table(rows).splitlines()[2:]
        cells = [[c.strip() for c in line.split("|")] for line in lines]
        # rbatch, faults/restore, memo hit
        assert [c[-3:] for c in cells] == [
            ["2", "48.0", "0.25"], ["-", "-", "-"], ["-", "-", "-"],
            ["1", "32.0", "-"], ["-", "-", "-"], ["-", "-", "-"],
        ]
        # ``limit`` keeps the last rows, rendered as in the whole table
        assert format_shard_table(rows, limit=5).splitlines()[2:] == lines[1:]

    def test_format_table_shape_check(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_table1_contains_all_benchmarks(self):
        rows = table1_rows()
        names = {row["name"] for row in rows}
        assert names == {"cg", "mg", "ft", "bt", "sp", "lu", "lulesh", "amg"}
        rendered = format_table1()
        assert "CG" in rendered and "colidx" in rendered

    def test_bar_chart(self):
        chart = bar_chart({"r": 0.9, "colidx": 0.2})
        assert "r" in chart and "0.900" in chart

    def test_stacked_chart_and_breakdowns(self):
        results = self._results()
        level_rows = advf_level_breakdown_rows(results)
        category_rows = advf_category_breakdown_rows(results)
        assert len(level_rows) == len(category_rows) == 2
        level_chart = stacked_bar_chart(level_rows)
        assert "0.900" in level_chart
        # level fractions of r sum to its aDVF
        total = sum(level_rows[0][1].values())
        assert total == pytest.approx(0.9)

    def test_level_and_category_fractions(self):
        result = self._results()["r"]
        assert result.level_fraction(MaskingLevel.OPERATION) == pytest.approx(0.7)
        assert result.category_fraction(MaskingCategory.OVERWRITE) == pytest.approx(0.4)
        empty = AdvfResult("x", 0.0, 0, 0.0)
        assert empty.level_fraction(MaskingLevel.OPERATION) == 0.0
        assert empty.category_fraction(MaskingCategory.OVERWRITE) == 0.0
