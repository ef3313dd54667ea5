import numpy as np
import pytest

from glembed.analyze import (
    PairScore,
    SimilarityQuery,
    dimension_ranking,
    interaction_pairs,
    neighbor_weight_graph,
    top_similar,
)
from glembed.contexts import SpatialLayout
from glembed.core import EmbeddingBank
from glembed.errors import ConfigError, DomainError

from helpers import lexsort_interaction_pairs


def _bank(emb, cv=None, log_space=False):
    emb = np.asarray(emb, dtype=float)
    cv = emb.copy() if cv is None else np.asarray(cv, dtype=float)
    return EmbeddingBank(emb, cv, log_space=log_space)


def test_top_similar_identical_orthogonal_negated():
    bank = _bank([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    ranked = top_similar(bank, SimilarityQuery(0, 3))
    assert ranked[0] == (1, pytest.approx(1.0))       # same direction
    assert ranked[1] == (2, pytest.approx(0.0))       # orthogonal
    assert ranked[2] == (3, pytest.approx(-1.0))      # negated, last


def test_top_similar_excludes_query_and_breaks_ties_by_id():
    bank = _bank([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    ranked = top_similar(bank, SimilarityQuery(1, 2))
    assert [i for i, _ in ranked] == [0, 2]


def test_top_similar_rankings_invariant_to_positive_rescaling():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(8, 3))
    a = top_similar(_bank(emb), SimilarityQuery(2, 5))
    b = top_similar(_bank(emb * 37.5), SimilarityQuery(2, 5))
    assert [i for i, _ in a] == [i for i, _ in b]
    for (_, sa), (_, sb) in zip(a, b):
        assert sa == pytest.approx(sb)


def test_top_similar_zero_vector_query_is_domain_error():
    bank = _bank([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DomainError):
        top_similar(bank, SimilarityQuery(0, 1))


def test_top_similar_top_zero_is_empty():
    bank = _bank([[1.0, 0.0], [0.0, 1.0]])
    assert top_similar(bank, SimilarityQuery(0, 0)) == []


def test_interaction_pairs_unit_vectors():
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    bank = _bank(emb, emb)
    pairs = interaction_pairs(bank, "highest", 2)
    assert all(isinstance(p, PairScore) for p in pairs)
    assert pairs[0].score == pytest.approx(0.0)  # off-diagonal of identity


def test_interaction_pairs_zero_context_vectors():
    bank = _bank(np.ones((3, 2)), np.zeros((3, 2)))
    pairs = interaction_pairs(bank, "highest", 6)
    assert all(p.score == 0.0 for p in pairs)
    assert len(pairs) == 6  # all ordered pairs of 3 entities


def brute_force_pairs(emb, cv, direction, count):
    scored = []
    for a in range(emb.shape[0]):
        for b in range(emb.shape[0]):
            if a != b:
                scored.append((float(emb[a] @ cv[b]), a, b))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]) if direction == "highest"
                else (t[0], t[1], t[2]))
    return [(a, b, s) for s, a, b in scored[:count]]


def test_interaction_pairs_against_brute_force_oracle():
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(50, 4))
    cv = rng.normal(size=(50, 4))
    bank = _bank(emb, cv)
    for direction in ("highest", "lowest"):
        got = [(p.a, p.b, p.score) for p in interaction_pairs(bank, direction, 25)]
        want = brute_force_pairs(emb, cv, direction, 25)
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
        np.testing.assert_allclose([s for *_, s in got], [s for *_, s in want])


@pytest.mark.parametrize("direction", ["highest", "lowest"])
@pytest.mark.parametrize("count", [0, 5, 37, 40 * 39])
def test_interaction_pairs_match_the_lexsort_exactly(direction, count):
    # rows of zeros tie many scores at 0, which the (a, b) order breaks
    rng = np.random.default_rng(3)
    emb, cv = rng.normal(size=(40, 4)), rng.normal(size=(40, 4))
    emb[[3, 17, 18]] = 0.0
    cv[[5, 17]] = 0.0
    bank = _bank(emb, cv)
    got = [(p.a, p.b, p.score) for p in interaction_pairs(bank, direction, count)]
    assert got == lexsort_interaction_pairs(bank, direction, count)


def test_interaction_pairs_extremes_are_disjoint():
    rng = np.random.default_rng(2)
    bank = _bank(rng.normal(size=(10, 3)), rng.normal(size=(10, 3)))
    hi = {(p.a, p.b) for p in interaction_pairs(bank, "highest", 20)}
    lo = {(p.a, p.b) for p in interaction_pairs(bank, "lowest", 20)}
    assert not hi & lo


def test_dimension_ranking_one_hot_and_reversal():
    cv = np.eye(4)
    bank = _bank(np.ones((4, 4)), cv)
    ranked = dimension_ranking(bank, 2, 1)
    assert ranked[0][0] == 2
    flipped = _bank(np.ones((4, 4)), -cv)
    rev = dimension_ranking(flipped, 2, 4)
    assert rev[-1][0] == 2


def test_dimension_ranking_tie_break_and_permutation():
    bank = _bank(np.ones((5, 2)), np.ones((5, 2)))
    ranked = dimension_ranking(bank, 0, 5)
    assert [i for i, _ in ranked] == [0, 1, 2, 3, 4]


def test_dimension_ranking_abs_mode():
    cv = np.array([[0.5], [-2.0], [1.0]])
    bank = _bank(np.ones((3, 1)), cv)
    signed = dimension_ranking(bank, 0, 3, mode="signed")
    assert [i for i, _ in signed] == [2, 0, 1]
    by_mag = dimension_ranking(bank, 0, 3, mode="abs")
    assert [i for i, _ in by_mag] == [1, 2, 0]


def test_dimension_ranking_out_of_range():
    bank = _bank(np.ones((3, 2)))
    with pytest.raises(ConfigError):
        dimension_ranking(bank, 2, 3)


def test_negative_pair_count_and_ranking_top_are_config_errors():
    # a negative slice bound would keep all but the last few
    bank = _bank(np.arange(12.0).reshape(6, 2))
    with pytest.raises(ConfigError, match="count"):
        interaction_pairs(bank, count=-1)
    with pytest.raises(ConfigError, match="top"):
        dimension_ranking(bank, 0, -2)
    assert interaction_pairs(bank, count=0) == [] and dimension_ranking(bank, 0, 0) == []


def test_neighbor_graph_zero_context_vectors():
    layout = SpatialLayout(np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]), 1)
    bank = _bank(np.ones((3, 2)), np.zeros((3, 2)))
    edges = neighbor_weight_graph(bank, layout)
    assert len(edges) == 3
    assert all(w == 0.0 for *_, w in edges)


def test_neighbor_graph_matches_interaction_scores():
    rng = np.random.default_rng(3)
    layout = SpatialLayout(rng.uniform(size=(6, 3)), 2)
    bank = _bank(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
    scores = {(p.a, p.b): p.score for p in interaction_pairs(bank, "highest", 30)}
    for n, m, w in neighbor_weight_graph(bank, layout):
        assert w == pytest.approx(scores[(n, m)])
