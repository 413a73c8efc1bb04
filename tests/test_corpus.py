"""Lazy corpus generation: `generate_corpus(R, k)` builds entries only up
to the k-th and agrees with the full pool `corpus_pool(R)`."""

import pytest

from linkage_lab import homops
from linkage_lab.corpus import corpus_pool, generate_corpus
from linkage_lab.fields import GF, QQ
from linkage_lab.modules import twist_module
from linkage_lab.rings import make_ring

RINGS = {
    "H": make_ring(QQ, ["x", "y"], ["x*y"]),
    "T": make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"]),
    "N": make_ring(GF(32003), ["x", "y", "z", "w"],
                   ["x*z", "x*w", "y*z", "y*w"]),
}


def _keys(entries):
    return [(name, M.content_key()) for name, M in entries]


@pytest.mark.parametrize("label", sorted(RINGS))
def test_prefixes_of_the_pool_and_its_twists(label):
    ring = RINGS[label]
    pool = corpus_pool(ring)
    for k in range(len(pool) + 1):
        assert _keys(generate_corpus(ring, k)) == _keys(pool[:k]), k
    # past the pool's end, the pool again twisted by 1
    twisted = [(f"twist({name},1)", twist_module(M, 1)) for name, M in pool]
    for extra in (1, 2, 3):
        assert _keys(generate_corpus(ring, len(pool) + extra)) == \
            _keys(pool + twisted[:extra]), extra


def test_a_base_layer_prefix_builds_no_derived_module(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("syzygy, transpose or lambda_module called")

    # corpus imports these from homops when it builds a module with them
    for name in ("syzygy", "transpose", "lambda_module"):
        monkeypatch.setattr(homops, name, refuse)
    T = RINGS["T"]
    assert [name for name, _ in generate_corpus(T, 2)] == \
        ["free[0]", "residue-field"]
    with pytest.raises(AssertionError, match="syzygy, transpose"):
        corpus_pool(T)


def test_a_negative_size_is_refused():
    H = RINGS["H"]
    assert generate_corpus(H, 0) == []
    with pytest.raises(ValueError, match="-1"):
        generate_corpus(H, -1)
