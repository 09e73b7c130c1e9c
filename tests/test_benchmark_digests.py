"""The report bytes of every benchmark item, pinned.

Each of the perfbench items runs once at the benchmark's seed, through
``parse_config`` and ``run_scenario`` as ``oclab SCENARIO --config`` runs
it, and the SHA-256 of its canonical bytes must equal the digest recorded
in ``perfbench/digests.json``.  ``perfbench/workloads.py`` is only read
here, never changed.  The whole module takes a few seconds.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from oclab.harness import parse_config, run_scenario

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

ITEMS = [item for items in workloads.WORKLOADS.values() for item in items]
RECORDED = workloads.recorded_digests()


def test_every_item_has_a_recorded_digest():
    assert sorted(label for label, _, _ in ITEMS) == sorted(RECORDED)
    assert len(ITEMS) == 17


@pytest.mark.parametrize("label, scenario, text", ITEMS, ids=[item[0] for item in ITEMS])
def test_item_bytes_match_the_recorded_digest(label, scenario, text):
    report = run_scenario(scenario, parse_config(text), seed=workloads.DEFAULT_SEED)
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == RECORDED[label]
