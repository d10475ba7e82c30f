"""The census of counted work per public call (``tests/_census.py``) against
tests/golden/census.json; a change that moves a count regenerates the golden
with ``python tests/_census.py > tests/golden/census.json``."""

import subprocess
import sys

import pytest

import _census

pytestmark = pytest.mark.census


def test_census_matches_the_golden():
    _census.check("")


def test_census_repeats_byte_for_byte():
    # the first run in this process, a second one, and a run in a fresh process
    first = _census.dumps(_census.measured())
    assert _census.dumps(_census.census()) == first
    fresh = subprocess.run([sys.executable, _census.__file__], capture_output=True,
                           text=True, check=True)
    assert fresh.stdout == first
