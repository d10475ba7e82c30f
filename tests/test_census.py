"""The census of counted work per public call (``tests/_census.py``) against
tests/golden/census.json; a change that moves a count regenerates the golden
with ``python tests/_census.py > tests/golden/census.json``."""

import json
import subprocess
import sys
import threading

import pytest

import _census
from shortops import numcore

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


def test_overlapped_minus_order_counts_as_the_golden(monkeypatch):
    # the operand SVDs factored two at a time, as on a host with 2 CPUs
    monkeypatch.setattr(numcore, "_HOST_OVERLAPS", True)
    threads, real = set(), numcore._spectrum
    monkeypatch.setattr(numcore, "_spectrum",
                        lambda *args: threads.add(threading.current_thread()) or real(*args))
    pattern = r"(minus_leq|in_minus_set) 64x64"
    got = _census.census(pattern)
    assert len(got) == 3 and len(threads) == 2
    assert not _census.moved(json.loads(_census.GOLDEN.read_text()), got, pattern)
