"""Corpus report gate: the full corpus suites are byte-identical to golden.

`suite [] on corpus(R, 8)` over H, T, N and U (see tests/corpus_golden.py)
runs through parse -> execute -> report_json and is compared with
tests/golden/corpus_R.json.  A change that moves any verdict, witness,
certificate or note of the default battery fails here until the golden
file is regenerated on purpose.  The same suites over the other field
(GF(32003) for H, T and U, QQ for N) must agree with the golden on the
theorem id, verdict, module label and hypotheses of every report.
"""

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
