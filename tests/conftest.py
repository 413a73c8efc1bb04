"""Every test starts from an empty memo, so no outcome depends on which
tests ran before it."""

import pytest

from linkage_lab import memo


@pytest.fixture(autouse=True)
def cold_memo():
    memo.clear()
