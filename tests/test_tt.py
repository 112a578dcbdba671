"""Tests for the tensor-train kernel, checked against dense oracles."""

import numpy as np
import pytest

from ttqst import tt


def random_tt(rng, dims=(4, 4, 4), ranks=(2, 2), kind="gaussian"):
    return tt.random_tt(dims, ranks, rng, kind=kind)


def tt_relative_error(t, ref):
    return tt.tt_distance(t, ref) / tt.tt_norm(ref)


def ranks_feasible(mode_dims, ranks):
    """Oracle: whether ranks satisfy the minimal-form bound at every cut."""
    return all(
        r <= min(np.prod(mode_dims[: k + 1]), np.prod(mode_dims[k + 1 :]))
        for k, r in enumerate(ranks)
    )


def dense_oracle(t):
    """Independent dense contraction: loop over all entries via tt_entry chain."""
    out = np.zeros(t.mode_dims)
    for idx in np.ndindex(*t.mode_dims):
        v = t.cores[0][0, idx[0], :]
        for k in range(1, t.n):
            v = v @ t.cores[k][:, idx[k], :]
        out[idx] = v[0]
    return out


def test_tt_entry_all_ones():
    cores = [np.ones((1, 3, 1)), np.ones((1, 3, 1)), np.ones((1, 3, 1))]
    t = tt.TtTensor(cores)
    assert tt.tt_entry(t, (0, 1, 2)) == 1.0


def test_tt_entry_zero_core():
    cores = [np.ones((1, 3, 1)), np.zeros((1, 3, 1)), np.ones((1, 3, 1))]
    t = tt.TtTensor(cores)
    assert tt.tt_entry(t, (2, 0, 1)) == 0.0


def test_tt_entry_matches_dense():
    rng = np.random.default_rng(0)
    t = random_tt(rng)
    x = dense_oracle(t)
    for idx in np.ndindex(*t.mode_dims):
        assert abs(tt.tt_entry(t, idx) - x[idx]) < 1e-12


def test_tt_entry_out_of_range():
    rng = np.random.default_rng(0)
    t = random_tt(rng)
    with pytest.raises(tt.TtError):
        tt.tt_entry(t, (0, 4, 0))


def test_tt_entries_batch():
    rng = np.random.default_rng(1)
    t = random_tt(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    idx = rng.integers(0, 4, size=(50, 4))
    vals = tt.tt_entries(t, idx)
    for b in range(50):
        assert abs(vals[b] - tt.tt_entry(t, idx[b])) < 1e-12


def test_tt_dense_matches_entrywise():
    rng = np.random.default_rng(2)
    t = random_tt(rng)
    x = tt.tt_dense(t)
    np.testing.assert_allclose(x, dense_oracle(t), atol=1e-12)


def test_tt_dense_rank1_ones():
    cores = [np.ones((1, 4, 1)), np.ones((1, 4, 1))]
    t = tt.TtTensor(cores)
    np.testing.assert_allclose(tt.tt_dense(t), np.ones((4, 4)))


def test_round_trip_dense():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4, 4))
    t = tt.ttsvd(x, (4, 4))
    np.testing.assert_allclose(tt.tt_dense(t), x, atol=1e-12)


def test_norm_equals_dense_norm():
    rng = np.random.default_rng(4)
    t = random_tt(rng)
    assert abs(tt.tt_norm(t) - np.linalg.norm(tt.tt_dense(t))) < 1e-10


def test_inner_matches_dense():
    rng = np.random.default_rng(5)
    a = random_tt(rng)
    b = random_tt(rng, ranks=(3, 3))
    val = np.sum(tt.tt_dense(a) * tt.tt_dense(b))
    assert abs(tt.tt_inner(a, b) - val) < 1e-10


def test_inner_is_norm_squared():
    rng = np.random.default_rng(6)
    t = random_tt(rng)
    assert abs(tt.tt_inner(t, t) - tt.tt_norm(t) ** 2) < 1e-10


def test_left_orthogonalize_preserves_tensor():
    rng = np.random.default_rng(7)
    for dims, ranks in [((4, 4, 4), (2, 2)), ((4, 4, 4, 4), (2, 3, 2)), ((2, 3, 4), (2, 3))]:
        t = random_tt(rng, dims, ranks)
        tl = tt.left_orthogonalize(t)
        np.testing.assert_allclose(tt.tt_dense(tl), tt.tt_dense(t), atol=1e-10 * tt.tt_norm(t))
        for k in range(t.n - 1):
            assert tt.is_left_orthogonal(tl.cores[k])
            assert tl.ortho[k] == tt.LEFT


def test_left_orthogonal_norm_is_last_core():
    rng = np.random.default_rng(8)
    t = tt.left_orthogonalize(random_tt(rng))
    assert abs(tt.tt_norm(t) - np.linalg.norm(t.cores[-1])) < 1e-12


def test_left_orthogonalize_zero():
    cores = [np.zeros((1, 4, 2)), np.zeros((2, 4, 2)), np.zeros((2, 4, 1))]
    t = tt.TtTensor(cores)
    tl = tt.left_orthogonalize(t)
    assert tt.tt_norm(tl) == 0.0
    assert tl.ortho[0] == tt.LEFT


def test_right_orthogonalize_preserves_tensor():
    rng = np.random.default_rng(9)
    t = random_tt(rng)
    cores = tt._right_orthogonalize_cores(list(t.cores))
    np.testing.assert_allclose(tt.tt_dense(tt.TtTensor(cores)), tt.tt_dense(t), atol=1e-10)
    for k in range(1, t.n):
        ru = tt.right_unfold(cores[k])
        np.testing.assert_allclose(ru @ ru.T, np.eye(ru.shape[0]), atol=1e-12)


def test_left_right_part_product_is_separation():
    rng = np.random.default_rng(10)
    t = random_tt(rng, dims=(4, 4, 4), ranks=(2, 3))
    x = tt.tt_dense(t)
    for k in (1, 2):
        sep = x.reshape(int(np.prod(t.mode_dims[:k])), -1, order="F")
        prod = tt.left_part(t, k) @ tt.right_part(t, k)
        np.testing.assert_allclose(prod, sep, atol=1e-10)


def test_left_part_cut1_is_core_fiber():
    rng = np.random.default_rng(11)
    t = random_tt(rng)
    np.testing.assert_allclose(tt.left_part(t, 1), t.cores[0][0])


def test_left_part_orthonormal_after_sweep():
    rng = np.random.default_rng(12)
    t = tt.left_orthogonalize(random_tt(rng))
    for k in (1, 2):
        lp = tt.left_part(t, k)
        np.testing.assert_allclose(lp.T @ lp, np.eye(lp.shape[1]), atol=1e-12)


def test_separation_singular_values_match_dense():
    rng = np.random.default_rng(13)
    for dims, ranks in [((4, 4, 4), (2, 2)), ((4, 4, 4, 4), (3, 4, 3))]:
        t = random_tt(rng, dims, ranks)
        x = tt.tt_dense(t)
        for k in range(1, len(dims)):
            sep = x.reshape(int(np.prod(dims[:k])), -1, order="F")
            s_dense = np.linalg.svd(sep, compute_uv=False)
            s_tt = tt.separation_spectra(t)[k - 1]
            np.testing.assert_allclose(s_tt, s_dense[: len(s_tt)], atol=1e-10)


def test_rank1_unit_norm_separations():
    cores = [np.full((1, 4, 1), 0.5), np.full((1, 4, 1), 0.5)]
    t = tt.TtTensor(cores)  # norm 1
    for k in (1,):
        s = tt.separation_spectra(t)[k - 1]
        np.testing.assert_allclose(s, [1.0], atol=1e-12)


def test_cond_at_least_one():
    rng = np.random.default_rng(14)
    for _ in range(5):
        t = random_tt(rng)
        assert tt.cond(t) >= 1.0


def test_ttsvd_exact_rank_no_truncation():
    rng = np.random.default_rng(15)
    t = random_tt(rng, dims=(4, 4, 4), ranks=(2, 2))
    x = tt.tt_dense(t)
    out = tt.ttsvd(x, (2, 2))
    assert tt_relative_error(out, t) < 1e-10
    for k in range(out.n - 1):
        assert tt.is_left_orthogonal(out.cores[k])


def test_ttsvd_quasi_optimality():
    rng = np.random.default_rng(16)
    for _ in range(20):
        x = rng.standard_normal((4, 4, 4))
        ranks = (1, 1)
        out = tt.ttsvd(x, ranks)
        err2 = np.linalg.norm(tt.tt_dense(out) - x) ** 2
        bound = 0.0
        for k in (1, 2):
            sep = x.reshape(int(np.prod(x.shape[:k])), -1, order="F")
            s = np.linalg.svd(sep, compute_uv=False)
            bound += np.sum(s[ranks[k - 1]:] ** 2)
        assert err2 <= bound + 1e-9


def test_ttsvd_single_cut_truncation_equality():
    rng = np.random.default_rng(17)
    # Build a tensor whose only over-full cut is the first: truncating there
    # must give exactly the tail energy of that separation.
    t = random_tt(rng, dims=(4, 4, 4), ranks=(3, 1))
    x = tt.tt_dense(t)
    out = tt.ttsvd(x, (2, 1))
    err2 = np.linalg.norm(tt.tt_dense(out) - x) ** 2
    sep = x.reshape(4, -1, order="F")
    s = np.linalg.svd(sep, compute_uv=False)
    assert abs(err2 - np.sum(s[2:] ** 2)) < 1e-9


def test_ttsvd_ones_tensor_exact():
    x = np.ones((4, 4, 4))
    out = tt.ttsvd(x, (1, 1))
    np.testing.assert_allclose(tt.tt_dense(out), x, atol=1e-12)


def test_ttsvd_tt_input_matches_dense_input():
    rng = np.random.default_rng(18)
    t = random_tt(rng, dims=(4, 4, 4, 4), ranks=(3, 4, 3))
    x = tt.tt_dense(t)
    a = tt.ttsvd(t, (2, 2, 2))
    b = tt.ttsvd(x, (2, 2, 2))
    np.testing.assert_allclose(tt.tt_dense(a), tt.tt_dense(b), atol=1e-9)


def test_ttsvd_pads_rank_deficient():
    rng = np.random.default_rng(19)
    t = random_tt(rng, dims=(4, 4, 4), ranks=(1, 1))
    out = tt.ttsvd(t, (2, 2))
    assert out.ranks == (2, 2)
    assert tt_relative_error(out, t) < 1e-10
    for k in range(out.n - 1):
        assert tt.is_left_orthogonal(out.cores[k])


def test_ttsvd_dense_pads_above_numerical_rank():
    # Numerical ranks (1, 2, 1), requested (3, 4, 3): every cut keeps the
    # thin SVD basis, and no cut needs the full one.
    rng = np.random.default_rng(21)
    x = tt.tt_dense(random_tt(rng, dims=(4, 4, 4, 4), ranks=(1, 2, 1)))
    out = tt.ttsvd(x, (3, 4, 3))
    assert out.ranks == (3, 4, 3)
    for k in range(out.n - 1):
        assert tt.is_left_orthogonal(out.cores[k])
    assert np.linalg.norm(tt.tt_dense(out) - x) <= 1e-12 * np.linalg.norm(x)


def test_ttsvd_infeasible_ranks():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((4, 4, 4))
    with pytest.raises(tt.TtError):
        tt.ttsvd(x, (5, 2))


def test_axpy_difference_is_zero():
    rng = np.random.default_rng(21)
    t = random_tt(rng)
    d = tt.tt_axpy(-1.0, t, t)
    assert tt.tt_norm(d) < 1e-10


def test_axpy_matches_dense():
    rng = np.random.default_rng(22)
    a = random_tt(rng)
    b = random_tt(rng, ranks=(3, 2))
    c = tt.tt_axpy(0.7, a, b)
    np.testing.assert_allclose(tt.tt_dense(c), 0.7 * tt.tt_dense(a) + tt.tt_dense(b), atol=1e-10)
    assert c.ranks == (5, 4)


def test_axpy_alpha_zero_returns_b():
    rng = np.random.default_rng(23)
    a = random_tt(rng)
    b = random_tt(rng)
    assert tt.tt_axpy(0.0, a, b) is b


def test_distance_identity_matches_dense():
    rng = np.random.default_rng(24)
    a = random_tt(rng)
    b = random_tt(rng)
    d = np.linalg.norm(tt.tt_dense(a) - tt.tt_dense(b))
    assert abs(tt.tt_distance(a, b) - d) < 1e-9
    # The algebraic identity |a-b|^2 = |a|^2 + |b|^2 - 2<a,b> agrees too, at
    # moderate separations where cancellation is harmless.
    alg = np.sqrt(tt.tt_inner(a, a) + tt.tt_inner(b, b) - 2 * tt.tt_inner(a, b))
    assert abs(alg - d) < 1e-9


def test_distance_resolves_tiny_separation_at_large_ranks():
    # Combined ranks (27, 243, 27): the identity above would floor near
    # sqrt(eps) here and read 0; the stacked QR sweep resolves 1e-10.
    rng = np.random.default_rng(25)
    a, b = (tt.random_tt((9,) * 4, (9, 81, 9), rng) for _ in range(2))
    a = tt.tt_scale(1.0 / tt.tt_norm(a), a)
    c = tt.tt_axpy(1e-10 / tt.tt_norm(b), b, a)
    d = np.linalg.norm(tt.tt_dense(a) - tt.tt_dense(c))
    assert abs(tt.tt_distance(a, c) - d) <= 1e-6 * d


def test_shape_mismatch_raises():
    rng = np.random.default_rng(25)
    a = random_tt(rng, dims=(4, 4, 4))
    b = random_tt(rng, dims=(4, 4, 2), ranks=(2, 2))
    with pytest.raises(tt.TtError):
        tt.tt_inner(a, b)
    with pytest.raises(tt.TtError):
        tt.tt_axpy(1.0, a, b)


def test_rank_consistency_enforced():
    with pytest.raises(tt.TtError):
        tt.TtTensor([np.ones((1, 4, 2)), np.ones((3, 4, 1))])


def test_ranks_feasible_helper():
    assert ranks_feasible((4, 4, 4), (4, 4))
    assert not ranks_feasible((2, 2), (3,))


def test_canonical_outputs_have_feasible_ranks():
    rng = np.random.default_rng(28)
    a = random_tt(rng)
    b = random_tt(rng, ranks=(3, 3))
    s = tt.tt_axpy(1.0, a, b)  # stacked ranks (5, 5); cut-1 bound is 4
    out = tt.ttsvd(s, (2, 2))
    assert ranks_feasible(out.mode_dims, out.ranks)


def test_spikiness_all_ones():
    cores = [np.ones((1, 4, 1)) for _ in range(3)]
    t = tt.TtTensor(cores)
    rep = tt.coherence_report(t)
    assert abs(rep.spikiness - 1.0) < 1e-12
    assert not rep.linf_is_bound


def test_coherence_mutual_bounds():
    # Spikiness <= nu implies Incoh <= nu * kappa, and Incoh <= sqrt(mu)
    # implies Spiki <= sqrt(r_max) * kappa * mu, on exact-rank instances.
    rng = np.random.default_rng(26)
    for _ in range(100):
        t = random_tt(rng, dims=(4, 4, 4), ranks=(2, 2))
        rep = tt.coherence_report(t)
        kappa = tt.cond(t)
        assert rep.incoherence <= rep.spikiness * kappa + 1e-9
        assert rep.spikiness <= np.sqrt(max(t.ranks)) * kappa * rep.incoherence**2 + 1e-9


def test_coherence_zero_tensor_raises():
    cores = [np.zeros((1, 4, 1)), np.zeros((1, 4, 1))]
    with pytest.raises(tt.TtError):
        tt.coherence_report(tt.TtTensor(cores))


def test_dense_cap_enforced():
    cores = [np.ones((1, 4, 1)) for _ in range(11)]  # 4^11 > 2^20
    t = tt.TtTensor(cores)
    with pytest.raises(tt.TtError):
        tt.tt_dense(t)


def test_lambda_min_max():
    rng = np.random.default_rng(27)
    t = random_tt(rng, dims=(4, 4, 4), ranks=(2, 2))
    x = tt.tt_dense(t)
    svals = []
    for k in (1, 2):
        sep = x.reshape(int(np.prod(x.shape[:k])), -1, order="F")
        svals.append(np.linalg.svd(sep, compute_uv=False))
    lmin = min(s[1] for s in svals)
    assert abs(tt.lambda_min(t) - lmin) < 1e-10
    assert tt.cond(t) == pytest.approx(max(s[0] for s in svals) / lmin, rel=1e-10)
