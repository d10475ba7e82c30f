import pytest

from _census import record


@pytest.fixture
def calls():
    """The census recorder (``_census.record``), open for the whole test."""
    with record() as counted:
        yield counted
