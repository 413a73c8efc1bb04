"""Corpus report gate: the full corpus suites are byte-identical to golden.

`suite [] on corpus(R, 8)` over H, T, N, U, P and Q (see
tests/corpus_golden.py) runs through parse -> execute -> report_json and
is compared with tests/golden/corpus_R.json.  A change that moves any
verdict, witness, certificate or note of the default battery fails here
until the golden file is regenerated on purpose.  The same suites over
the other field (GF(32003) for H, T and U, QQ for N, P and Q) must agree
with the golden on the theorem id, verdict, module label and hypotheses
of every report.  Beyond k = 8, every report of each whole pool keeps
the SHA-256 stored in tests/golden/pool_digests.json, and a failure
names every report whose digest moved.
"""

import json

import pytest

import corpus_golden


@pytest.mark.parametrize("name", sorted(corpus_golden.RINGS))
def test_corpus_suite_report_matches_golden(name):
    with open(corpus_golden.golden_path(name), encoding="utf-8") as fh:
        assert corpus_golden.report(name) == fh.read()


@pytest.mark.parametrize("name", sorted(corpus_golden.RINGS))
def test_corpus_suite_over_the_other_field_agrees_with_golden(name):
    with open(corpus_golden.golden_path(name), encoding="utf-8") as fh:
        want = corpus_golden.field_free(fh.read())
    other = corpus_golden.OTHER_FIELD[name]
    got = corpus_golden.field_free(corpus_golden.report(name, field=other))
    assert want and got == want


def test_special_instances_report_matches_golden():
    with open(corpus_golden.SPECIAL_PATH, encoding="utf-8") as fh:
        assert corpus_golden.special_report() == fh.read()


@pytest.mark.parametrize("name", sorted(corpus_golden.POOLS))
def test_whole_pool_report_digests_match_golden(name):
    with open(corpus_golden.DIGESTS_PATH, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    got = corpus_golden.pool_digests(name)
    assert want
    moved = sorted(k for k in want.keys() | got.keys()
                   if want.get(k) != got.get(k))
    assert moved == []
