"""Suite reports pinned byte for byte.

``tests/golden/`` holds the sorted-key JSON of
``run_suite(GenConfig(seed=S, trials=30)).to_dict()`` for seeds 424242 and
7.  A change that keeps every verdict leaves both files as they are; a
change that moves a verdict rewrites the file and lists the report change.
"""

import json
from pathlib import Path

import pytest

from shortops.genlab import GenConfig, run_suite

GOLDEN = Path(__file__).resolve().parent / "golden"


def suite_json(seed: int) -> str:
    report = run_suite(GenConfig(seed=seed, trials=30)).to_dict()
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("seed", [424242, 7])
def test_suite_report_is_byte_identical_to_its_golden(seed):
    golden = (GOLDEN / f"suite_seed{seed}_trials30.json").read_text(encoding="utf-8")
    assert suite_json(seed) == golden
