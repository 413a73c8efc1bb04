"""Every test starts from an empty memo, so no outcome depends on which
tests ran before it."""

import pytest

from linkage_lab import config, memo


@pytest.fixture(autouse=True)
def cold_memo():
    memo.clear()


@pytest.fixture
def set_caps(monkeypatch):
    """set_caps(MAX_DEGREE=..., MAX_RANK=...) sets the caps of `config`
    for the rest of the test and empties the memo, whose keys do not name
    them; the caps are restored after the test."""
    def set_caps(**caps):
        for name, value in caps.items():
            assert hasattr(config, name), name
            monkeypatch.setattr(config, name, value)
        memo.clear()

    return set_caps
