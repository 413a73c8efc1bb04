"""Every test starts from an empty memo, so no outcome depends on which
tests ran before it."""

import contextlib
import sys

import pytest

from linkage_lab import config, homops, memo
from linkage_lab.modules import ModulePresentation, free_module


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


def _unminimized_transpose(M):
    """The planted fault: the dual of M's own presentation, entries
    reduced mod I, with no minimalization before or after."""
    cols = [{i: M.ring.nf(p) for i, p in col.items()} for col in M.columns]
    M = ModulePresentation(M.ring, M.gen_twists, M.rel_twists, cols)
    return homops._transpose_raw(M, free_module(M.ring, [0]))


@contextlib.contextmanager
def _transpose_fault():
    clean = homops.transpose
    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "linkage_lab"
             and vars(m).get("transpose") is clean]
    memo.clear()
    for m in bound:
        m.transpose = _unminimized_transpose
    try:
        yield
    finally:
        for m in bound:
            m.transpose = clean
        memo.clear()


@pytest.fixture
def transpose_fault():
    """`with transpose_fault(): ...` is the negative controls' fault:
    inside the block, every loaded linkage_lab module whose `transpose`
    is `homops.transpose` (homops itself, so `lambda_module` too) has it
    rebound to `_unminimized_transpose`, and the memo, whose keys do not
    name the rebinding, is emptied on entry and on exit.  A test's own
    imported `transpose` is not rebound: call `homops.transpose`."""
    return _transpose_fault
