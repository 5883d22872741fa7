"""Output checks: fingerprints of a run's results against a reference.

* A campaign is fingerprinted from its store: one hash of the per-object
  outcome histograms and, per data object, one hash of its per-fault
  outcomes (shard, fault site, bit, target, operand, outcome class).
* An aDVF run is fingerprinted with one hash per object report's
  ``to_dict()``.

``references.json`` holds the fingerprints recorded for the shipped seeds
(``record_references.py`` rewrites it).  For any other seed, a
multi-worker workload is checked against a single-worker run made before
timing, and a single-worker workload's first job is the reference for the
rest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Mapping, Optional

REFERENCES = Path(__file__).resolve().parent / "references.json"


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def load_reference(group: str, seed: int, path: Path = REFERENCES) -> Optional[dict]:
    try:
        references = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    return references.get(group, {}).get(str(seed))


# --------------------------------------------------------------------- #
# campaigns
# --------------------------------------------------------------------- #
def campaign_fingerprint(store) -> dict:
    """Fingerprint of the single campaign in ``store`` (a CampaignStore)."""
    (record,) = store.campaigns()
    faults: Dict[str, list] = {}
    for outcome in store.outcomes(record.campaign_id):
        spec = outcome.spec
        faults.setdefault(outcome.object_name, []).append([
            outcome.shard_index, spec.dynamic_id, spec.bit, spec.target.value,
            spec.operand_index, outcome.outcome.value,
        ])
    return {
        "histograms": digest(store.outcome_histograms(record.campaign_id)),
        "objects": {name: digest(rows) for name, rows in faults.items()},
        "injections": {name: len(rows) for name, rows in faults.items()},
    }


def campaign_failures(fingerprint: Mapping, reference: Mapping,
                      expected: int) -> int:
    """Injections of ``expected`` that were not committed, or belong to a
    data object whose outcomes differ from ``reference``."""
    injections = fingerprint["injections"]
    failed = max(0, expected - sum(injections.values()))
    for name, value in fingerprint["objects"].items():
        if reference["objects"].get(name) != value:
            failed += injections[name]
    if not failed and fingerprint["histograms"] != reference["histograms"]:
        failed = expected
    return failed


def campaign_reference(fingerprint: Mapping) -> dict:
    """The part of a fingerprint a reference keeps."""
    return {"histograms": fingerprint["histograms"],
            "objects": dict(fingerprint["objects"])}


# --------------------------------------------------------------------- #
# aDVF reports
# --------------------------------------------------------------------- #
def advf_fingerprint(reports: Mapping[str, dict]) -> Dict[str, str]:
    return {key: digest(report) for key, report in reports.items()}


def advf_failures(fingerprint: Mapping[str, str],
                  reference: Mapping[str, str]) -> int:
    """Reference objects missing from the run (raised) or mismatched,
    plus objects the reference does not know."""
    failed = sum(1 for key, value in reference.items()
                 if fingerprint.get(key) != value)
    return failed + sum(1 for key in fingerprint if key not in reference)
