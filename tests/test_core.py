import numpy as np
import pytest

from glembed.core import (
    DataIndex,
    DataMatrix,
    EmbeddingBank,
    Link,
    SharingScheme,
    natural_parameter,
    resolve_params,
)
from glembed.contexts import ExplicitContext, build_knn_context, SpatialLayout
from glembed.errors import DataError, DegenerateContextError, RateDomainError

from helpers import dense_matrix


def test_data_matrix_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        DataMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])


def test_duplicate_message_names_first_repeating_entry():
    # (0, 0) sorts first, but (2, 1) repeats an earlier entry first
    rows, cols = [2, 0, 1, 2, 0, 2], [1, 0, 3, 1, 0, 1]
    seen, first = set(), None
    for r, c in zip(rows, cols):
        if (r, c) in seen:
            first = (r, c)
            break
        seen.add((r, c))
    for implicit_zero in (False, True):
        with pytest.raises(DataError) as err:
            DataMatrix(3, 4, rows, cols, [1.0] * 6, implicit_zero=implicit_zero)
        assert str(err.value) == f"duplicate entry at (row={first[0]}, col={first[1]})"


@pytest.mark.parametrize("implicit_zero", [False, True])
def test_lookup_matches_dict_oracle(implicit_zero):
    rng = np.random.default_rng(8)
    n, t = 7, 9
    cells = rng.permutation(n * t)[:25]  # entries in no particular order
    rows, cols = cells // t, cells % t
    vals = rng.integers(1, 5, size=25).astype(np.float64)
    d = DataMatrix(n, t, rows, cols, vals, implicit_zero=implicit_zero)
    oracle = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
    qr, qc = np.indices((n, t)).reshape(2, -1)[:, rng.permutation(n * t)]
    got, stored = d.lookup(qr, qc)
    for r, c, v, s in zip(qr.tolist(), qc.tolist(), got.tolist(), stored.tolist()):
        assert s == ((r, c) in oracle)
        assert v == oracle.get((r, c), 0.0)
        if s or implicit_zero:
            assert d.value(r, c) == v
        else:
            with pytest.raises(KeyError):
                d.value(r, c)
    empty = DataMatrix(n, t, [], [], [], implicit_zero=implicit_zero)
    got, stored = empty.lookup(qr, qc)
    assert not stored.any() and not got.any()


def test_data_matrix_rejects_out_of_range():
    with pytest.raises(DataError):
        DataMatrix(2, 2, [2], [0], [1.0])


def test_data_matrix_rejects_stored_zero_when_implicit():
    with pytest.raises(DataError):
        DataMatrix(2, 2, [0], [0], [0.0], implicit_zero=True)


def test_value_lookup_semantics():
    d = DataMatrix(3, 3, [0, 1], [1, 2], [4.0, 5.0], implicit_zero=True)
    assert d.value(0, 1) == 4.0
    assert d.value(2, 2) == 0.0  # implicit zero
    e = DataMatrix(3, 3, [0], [1], [4.0], implicit_zero=False)
    with pytest.raises(KeyError):
        e.value(2, 2)
    assert d.n_terms == 9 and e.n_terms == 1


def test_resolve_params_per_row():
    bank = EmbeddingBank(np.arange(12.0).reshape(4, 3), np.arange(12.0).reshape(4, 3) + 100)
    emb, cv = resolve_params(DataIndex(2, 7), SharingScheme.PER_ROW, bank)
    np.testing.assert_array_equal(emb, [6.0, 7.0, 8.0])
    np.testing.assert_array_equal(cv, [106.0, 107.0, 108.0])


def test_resolve_params_tied_aliases():
    emb = np.arange(6.0).reshape(3, 2)
    bank = EmbeddingBank(emb, emb)
    e, c = resolve_params(DataIndex(1, 0), SharingScheme.TIED, bank)
    np.testing.assert_array_equal(e, c)
    np.testing.assert_array_equal(e, [2.0, 3.0])


def test_resolve_params_log_space():
    bank = EmbeddingBank(np.zeros((2, 2)), np.zeros((2, 2)), log_space=True)
    emb, cv = resolve_params(DataIndex(0, 0), SharingScheme.PER_ROW, bank)
    np.testing.assert_array_equal(emb, [1.0, 1.0])  # exp(0)
    np.testing.assert_array_equal(cv, [1.0, 1.0])


def test_resolve_params_out_of_range():
    bank = EmbeddingBank.zeros(3, 2)
    with pytest.raises(IndexError):
        resolve_params(DataIndex(3, 0), SharingScheme.PER_ROW, bank)


def test_natural_parameter_zero_context_vectors():
    data = dense_matrix(np.ones((3, 2)))
    ctx = ExplicitContext({(0, 0): [(1, 0), (2, 0)]})
    bank = EmbeddingBank(np.ones((3, 2)), np.zeros((3, 2)))
    assert natural_parameter(DataIndex(0, 0), data, ctx, bank, Link.IDENTITY) == 0.0


def test_natural_parameter_scalar_case():
    # K=1: emb=2, one context member with x=0.5 and context vector 3
    data = DataMatrix(2, 1, [0, 1], [0, 0], [9.0, 0.5])
    ctx = ExplicitContext({(0, 0): [(1, 0)]})
    bank = EmbeddingBank(np.array([[2.0], [0.0]]), np.array([[0.0], [3.0]]))
    expected = 2.0 * (0.5 * 3.0)  # independent scalar evaluation
    got = natural_parameter(DataIndex(0, 0), data, ctx, bank, Link.IDENTITY)
    assert got == pytest.approx(expected)
    got_log = natural_parameter(DataIndex(0, 0), data, ctx, bank, Link.LOG)
    assert got_log == pytest.approx(np.log(expected))


def test_natural_parameter_empty_context_policies():
    data = dense_matrix(np.ones((2, 1)))
    ctx = ExplicitContext({})
    bank = EmbeddingBank(np.ones((2, 1)), np.ones((2, 1)))
    assert natural_parameter(DataIndex(0, 0), data, ctx, bank, Link.IDENTITY) == 0.0
    with pytest.raises(DegenerateContextError):
        natural_parameter(DataIndex(0, 0), data, ctx, bank, Link.MEAN_IDENTITY)
    with pytest.raises(RateDomainError):
        natural_parameter(DataIndex(0, 0), data, ctx, bank, Link.LOG)


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    n, t, k = 6, 5, 3
    x = rng.normal(size=(n, t))
    pos = rng.uniform(size=(n, 3))
    data = dense_matrix(x)
    ctx = build_knn_context(SpatialLayout(pos, 2), data)
    bank = EmbeddingBank(rng.normal(size=(n, k)), rng.normal(size=(n, k)))

    perm = rng.permutation(n)
    data_p = dense_matrix(x[perm])
    ctx_p = build_knn_context(SpatialLayout(pos[perm], 2), data_p)
    bank_p = EmbeddingBank(bank.embeddings[perm], bank.context_vectors[perm])

    inv = np.argsort(perm)
    for row in range(n):
        for col in range(t):
            a = natural_parameter(DataIndex(row, col), data, ctx, bank, Link.IDENTITY)
            b = natural_parameter(DataIndex(int(inv[row]), col), data_p, ctx_p,
                                  bank_p, Link.IDENTITY)
            assert a == pytest.approx(b, rel=1e-12)


def test_linearity_in_context_values():
    # finite-difference slope in one context member's value equals emb . cv
    rng = np.random.default_rng(5)
    bank = EmbeddingBank(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
    ctx = ExplicitContext({(0, 0): [(1, 0), (2, 0)]})
    h = 1e-6
    vals = {(1, 0): 0.7, (2, 0): -0.3}

    def eta(bump):
        x = np.zeros((3, 1))
        x[1, 0] = vals[(1, 0)] + bump
        x[2, 0] = vals[(2, 0)]
        return natural_parameter(DataIndex(0, 0), dense_matrix(x), ctx, bank, Link.IDENTITY)

    slope = (eta(h) - eta(-h)) / (2 * h)
    assert slope == pytest.approx(float(bank.embeddings[0] @ bank.context_vectors[1]), rel=1e-6)


def test_context_mean_equals_identity_for_single_member():
    rng = np.random.default_rng(6)
    data = dense_matrix(rng.normal(size=(2, 1)))
    ctx = ExplicitContext({(0, 0): [(1, 0)]})
    bank = EmbeddingBank(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    a = natural_parameter(DataIndex(0, 0), data, ctx, bank, Link.IDENTITY)
    b = natural_parameter(DataIndex(0, 0), data, ctx, bank, Link.MEAN_IDENTITY)
    assert a == pytest.approx(b, rel=1e-12)


def test_tied_scheme_role_swap_is_noop():
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(3, 2))
    bank = EmbeddingBank(emb, emb)
    data = dense_matrix(rng.normal(size=(3, 2)))
    ctx = ExplicitContext({(0, 1): [(1, 1), (2, 1)]})
    a = natural_parameter(DataIndex(0, 1), data, ctx, bank, Link.IDENTITY,
                          SharingScheme.TIED)
    swapped = EmbeddingBank(bank.context_vectors, bank.embeddings)
    b = natural_parameter(DataIndex(0, 1), data, ctx, swapped, Link.IDENTITY,
                          SharingScheme.TIED)
    assert a == pytest.approx(b, rel=1e-15)


def test_bank_requires_finite_values():
    with pytest.raises(DataError):
        EmbeddingBank(np.array([[np.nan]]), np.array([[0.0]]))
