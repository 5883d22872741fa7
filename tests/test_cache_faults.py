"""Damaged and hostile cache artifacts: the campaign harness repairs or
ignores them, and its results do not change.

* a truncated golden-trace artifact is rebuilt by ``campaign report`` (at
  one and at two workers), with the same report rows;
* a pickle planted at an artifact path runs nothing: ``ColumnarTrace.load``
  opens artifacts with ``allow_pickle=False`` and unpickles object columns
  through a loader that admits only NumPy's array globals;
* a well-formed artifact whose columns disagree in length reads as a miss,
  and ``campaign run`` rebuilds it;
* a truncated memo artifact reads as a cold memo, so a campaign's
  outcomes equal those of a cold run;
* a memo or trace cache directory that cannot be written (a path below a
  regular file) costs the artifact, not the campaign: the run completes
  with its metrics, spans and rows.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.campaigns.cli import main
from repro.campaigns.store import CampaignStore
from repro.tracing import ColumnarTrace
from repro.tracing.cache import MemoCache, TraceCache, trace_digest
from repro.workloads.registry import get_workload

REPORT = ["campaign", "report", "matmul", "--plan", "fixed:16",
          "--max-injections", "10", "--bit-stride", "16"]


class _Touch:
    """Unpickles into ``open(path, "w")``: creates ``path`` if it runs."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.fixture()
def trace_cache(tmp_path, monkeypatch):
    root = tmp_path / "traces"
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(root))
    return TraceCache(root)


@pytest.mark.parametrize("workers", [1, 2])
def test_report_rebuilds_a_truncated_trace_artifact(
    trace_cache, tmp_path, capsys, workers
):
    store = ["--store", str(tmp_path / "campaigns.sqlite")]
    assert main(["campaign", "run", *REPORT[2:5], *store]) == 0  # the artifact
    capsys.readouterr()
    assert main([*REPORT, *store, "--workers", "1"]) == 0
    reference = capsys.readouterr().out
    path = trace_cache.path_for(trace_digest("matmul", {}))
    path.write_bytes(path.read_bytes()[:1000])

    assert main([*REPORT, *store, "--workers", str(workers), "--refresh"]) == 0
    assert capsys.readouterr().out == reference
    assert path.stat().st_size > 1000
    assert len(ColumnarTrace.load(path)) == len(
        get_workload("matmul").traced_run().trace
    )


def test_planted_pickle_runs_nothing_and_is_overwritten(trace_cache, tmp_path):
    sentinel = tmp_path / "sentinel"
    digest = trace_digest("matmul", {})
    path = trace_cache.path_for(digest)
    path.parent.mkdir(parents=True)
    with open(path, "wb") as fh:
        pickle.dump(_Touch(sentinel), fh)

    with pytest.raises(ValueError):
        ColumnarTrace.load(path)
    assert trace_cache.load(digest) is None
    golden = get_workload("matmul").traced_run().trace
    trace, hit = trace_cache.get_or_build(digest, lambda: golden)
    assert not hit and trace is golden
    assert len(trace_cache.load(digest)) == len(golden)
    assert not sentinel.exists()


def test_object_column_naming_a_foreign_global_is_refused(trace_cache, tmp_path):
    # a well-formed artifact whose object column pickles a call to ``open``
    sentinel = tmp_path / "sentinel"
    golden = get_workload("matmul").traced_run().trace
    arrays = golden._to_arrays()
    hostile = np.empty(1, dtype=object)
    hostile[0] = _Touch(sentinel)
    arrays["operand_values"] = hostile
    digest = trace_digest("matmul", {})
    path = trace_cache.path_for(digest)
    path.parent.mkdir(parents=True)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)

    with pytest.raises(pickle.UnpicklingError):
        ColumnarTrace.load(path)
    assert trace_cache.load(digest) is None
    assert not sentinel.exists()


def test_campaign_run_over_a_planted_pickle(trace_cache, tmp_path, capsys):
    sentinel = tmp_path / "sentinel"
    path = trace_cache.path_for(trace_digest("matmul", {}))
    path.parent.mkdir(parents=True)
    with open(path, "wb") as fh:
        pickle.dump(_Touch(sentinel), fh)
    assert main(["campaign", "run", "matmul", "--plan", "fixed:8",
                 "--store", str(tmp_path / "campaigns.sqlite"),
                 "--workers", "1"]) == 0
    assert "complete" in capsys.readouterr().out
    assert not sentinel.exists()
    ColumnarTrace.load(path)  # rebuilt in place


def _save_arrays(path, arrays):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("column, keep", [
    ("operand_offsets", 10),  # fewer offsets than events + 1
    ("writer_id", -1),        # a per-event column one short
    ("operand_kinds", -1),    # a flat operand column one short
])
def test_columns_of_unequal_length_read_as_a_miss(
    trace_cache, tmp_path, capsys, column, keep
):
    golden = get_workload("matmul").traced_run().trace
    arrays = golden._to_arrays()
    arrays[column] = arrays[column][:keep]
    digest = trace_digest("matmul", {})
    path = trace_cache.path_for(digest)
    _save_arrays(path, arrays)

    with pytest.raises(ValueError):
        ColumnarTrace.load(path)
    assert trace_cache.load(digest) is None
    assert main(["campaign", "run", "matmul", "--plan", "fixed:8",
                 "--store", str(tmp_path / "campaigns.sqlite"),
                 "--workers", "1"]) == 0
    assert "complete" in capsys.readouterr().out
    rebuilt = ColumnarTrace.load(path)  # rebuilt in place
    assert len(rebuilt) == len(golden)
    assert rebuilt._to_arrays()[column].shape == golden._to_arrays()[column].shape


#: A campaign that records memo rows (some small-lulesh faults evict from
#: the lockstep walk and complete).
CAMPAIGN = ["lulesh", "--plan", "fixed:64@1", "--set", "num_elem=12"]


def _outcomes(store, tmp_path, capsys):
    out = tmp_path / "export.jsonl"
    assert main(["campaign", "export", *CAMPAIGN, "--store", store,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return [line for line in out.read_text().splitlines()
            if '"type":"outcome"' in line]


def test_truncated_memo_artifact_leaves_outcomes_unchanged(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_MEMO_CACHE", str(tmp_path / "memo"))
    seed = str(tmp_path / "seed.sqlite")
    assert main(["campaign", "run", *CAMPAIGN, "--store", seed, "--workers", "1"]) == 0
    memos = MemoCache(tmp_path / "memo")
    digest = trace_digest("lulesh", {"num_elem": 12})
    memo = memos.path_for(digest)
    text = memo.read_text()
    memo.write_text(text[: len(text) // 2])
    assert memos.load(digest) is None

    rerun = str(tmp_path / "rerun.sqlite")
    assert main(["campaign", "run", *CAMPAIGN, "--store", rerun, "--workers", "1"]) == 0
    assert memos.load(digest) is not None  # rewritten from the rerun's delta
    monkeypatch.setenv("REPRO_MEMO_CACHE", "off")
    cold = str(tmp_path / "cold.sqlite")
    assert main(["campaign", "run", *CAMPAIGN, "--store", cold, "--workers", "1"]) == 0
    capsys.readouterr()
    expected = _outcomes(cold, tmp_path, capsys)
    assert expected
    assert _outcomes(rerun, tmp_path, capsys) == expected
    assert _outcomes(seed, tmp_path, capsys) == expected


SMALL = ["lulesh", "--plan", "fixed:16@1", "--set", "num_elem=12"]


def _run_small(store, capsys):
    code = main(["campaign", "run", *SMALL, "--store", store, "--workers", "1"])
    captured = capsys.readouterr()
    with CampaignStore(store) as opened:
        (record,) = opened.campaigns()
        metrics = opened.run_metrics(record.campaign_id)
        spans = opened.run_spans(record.campaign_id)
    return code, captured.out + captured.err, metrics, spans


@pytest.mark.parametrize("variable", ["REPRO_MEMO_CACHE", "REPRO_TRACE_CACHE"])
def test_unwritable_cache_directory_does_not_fail_the_campaign(
    tmp_path, monkeypatch, capsys, variable
):
    """A cache directory below a regular file cannot be created: the memo
    merge after the last shard, or the golden-trace store before the
    first, fails with ``NotADirectoryError``.  The campaign still ends
    complete, with its run metrics and spans saved, and its rows equal a
    run with both caches off."""
    monkeypatch.setenv("REPRO_METRICS", "1")
    for name in ("REPRO_MEMO_CACHE", "REPRO_TRACE_CACHE"):
        monkeypatch.setenv(name, str(tmp_path / name.lower()))
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv(variable, str(blocker / "cache"))
    store = str(tmp_path / "unwritable.sqlite")
    code, out, metrics, spans = _run_small(store, capsys)
    assert code == 0 and "complete" in out
    if variable == "REPRO_TRACE_CACHE":
        assert "not stored" in out
    assert list(metrics) == [1]
    assert any(record.name == "campaign.run" for record in spans)

    monkeypatch.setenv("REPRO_MEMO_CACHE", "off")
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    cold = str(tmp_path / "cold.sqlite")
    assert _run_small(cold, capsys)[0] == 0
    expected = _export(cold, tmp_path, capsys)
    assert expected and _export(store, tmp_path, capsys) == expected


def _export(store, tmp_path, capsys):
    out = tmp_path / "small.jsonl"
    assert main(["campaign", "export", *SMALL, "--store", store,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return [line for line in out.read_text().splitlines()
            if '"type":"outcome"' in line]
