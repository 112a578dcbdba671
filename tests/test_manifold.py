"""Tangent-space tests against a dense tangent-basis oracle.

The oracle builds the dense projection matrix onto the tangent space by
orthonormalizing the ambient vectors of all delta-core perturbations of the
foot point; the fast sparse/dense projection paths must reproduce it.
"""

import numpy as np
import pytest

from ttqst import manifold, tt


def left_orth_base(rng, dims=(4, 4, 4), ranks=(2, 2)):
    return tt.left_orthogonalize(tt.random_tt(dims, ranks, rng))


def dense_tangent_projector(base):
    """Orthonormal projector onto span of all single-core perturbations."""
    n = base.n
    cols = []
    for k in range(n):
        r0, m, r1 = base.cores[k].shape
        for a in range(r0):
            for s in range(m):
                for b in range(r1):
                    pert = np.zeros((r0, m, r1))
                    pert[a, s, b] = 1.0
                    cores = [
                        pert if j == k else base.cores[j] for j in range(n)
                    ]
                    cols.append(tt.tt_dense(tt.TtTensor(cores)).reshape(-1, order="F"))
    a = np.column_stack(cols)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    q = u[:, :rank]
    return q @ q.T, rank


def ambient(v):
    return tt.tt_dense(manifold.tangent_to_tt(v)).reshape(-1, order="F")


def test_manifold_dim_formula():
    assert manifold.manifold_dim((4, 4), (1,)) == 7
    assert manifold.manifold_dim((4, 4, 4), (2, 2)) == 24


def test_manifold_dim_matches_numerical_rank():
    rng = np.random.default_rng(0)
    base = left_orth_base(rng)
    _, rank = dense_tangent_projector(base)
    assert rank == manifold.manifold_dim(base.mode_dims, base.ranks)


def test_project_dense_matches_oracle():
    rng = np.random.default_rng(1)
    base = left_orth_base(rng)
    proj, _ = dense_tangent_projector(base)
    for _ in range(5):
        x = rng.standard_normal(base.mode_dims)
        v = manifold.project_tangent_dense(base, x)
        want = proj @ x.reshape(-1, order="F")
        np.testing.assert_allclose(ambient(v), want, atol=1e-9)


def test_project_sparse_matches_oracle():
    rng = np.random.default_rng(2)
    for trial in range(30):
        base = left_orth_base(rng)
        proj, _ = dense_tangent_projector(base)
        nnz = rng.integers(1, 6)
        idx = rng.integers(0, 4, size=(nnz, 3))
        vals = rng.standard_normal(nnz)
        g = manifold.SparseTensor((4, 4, 4), indices=idx, values=vals)
        v = manifold.project_tangent_sparse(base, g)
        want = proj @ g.to_dense().reshape(-1, order="F")
        np.testing.assert_allclose(ambient(v), want, atol=1e-9)


def test_sparse_and_dense_paths_agree():
    rng = np.random.default_rng(3)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    idx = rng.integers(0, 4, size=(5, 3))
    vals = rng.standard_normal(5)
    g = manifold.SparseTensor((4, 4, 4), indices=idx, values=vals)
    vs = geom.project_sparse(g)
    vd = geom.project_dense(g.to_dense())
    np.testing.assert_allclose(ambient(vs), ambient(vd), atol=1e-9)


def test_projection_gauge_condition():
    rng = np.random.default_rng(4)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    idx = rng.integers(0, 4, size=(7, 4))
    g = manifold.SparseTensor((4, 4, 4, 4), indices=idx, values=rng.standard_normal(7))
    v = geom.project_sparse(g)
    assert v.gauge_residual() < 1e-10


def test_projection_idempotent():
    rng = np.random.default_rng(5)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    x = rng.standard_normal(base.mode_dims)
    v1 = geom.project_dense(x)
    v2 = geom.project_dense(ambient(v1).reshape(base.mode_dims, order="F"))
    np.testing.assert_allclose(ambient(v2), ambient(v1), atol=1e-10)


def test_projection_residual_orthogonal():
    rng = np.random.default_rng(6)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    x = rng.standard_normal(base.mode_dims)
    p = ambient(geom.project_dense(x))
    resid = x.reshape(-1, order="F") - p
    assert abs(resid @ p) < 1e-9


def test_self_projection_returns_foot_point():
    rng = np.random.default_rng(7)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = geom.project_dense(tt.tt_dense(base))
    np.testing.assert_allclose(
        ambient(v), tt.tt_dense(base).reshape(-1, order="F"), atol=1e-10
    )


def test_projection_nonexpansive():
    rng = np.random.default_rng(8)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    for _ in range(10):
        idx = rng.integers(0, 4, size=(1, 3))
        g = manifold.SparseTensor((4, 4, 4), indices=idx, values=[1.0])
        v = geom.project_sparse(g)
        assert np.linalg.norm(ambient(v)) <= 1.0 + 1e-12


def test_degenerate_base_rejected():
    rng = np.random.default_rng(9)
    cores = [np.zeros((1, 4, 2)), np.zeros((2, 4, 2)), np.zeros((2, 4, 1))]
    cores[0][0, 0, 0] = 1.0
    cores[1][0, 0, 0] = 1.0
    cores[2][0, 0, 0] = 1.0  # rank-2 representation of a rank-1 tensor
    base = tt.left_orthogonalize(tt.TtTensor(cores))
    with pytest.raises(manifold.ManifoldError):
        manifold.TangentGeometry(base)


def test_degenerate_interior_cut_named():
    rng = np.random.default_rng(20)
    shapes = ((1, 4, 2), (2, 4, 2), (2, 4, 2), (2, 4, 1))
    cores = [rng.standard_normal(s) for s in shapes]
    # A rank-one left unfolding of core 2 leaves cut 2 with separation rank 1
    # while cuts 1 and 3 keep rank 2.
    cores[1] = np.einsum("as,b->asb", rng.standard_normal((2, 4)), rng.standard_normal(2))
    base = tt.left_orthogonalize(tt.TtTensor(cores))
    with pytest.raises(manifold.ManifoldError, match="cut 2 "):
        manifold.TangentGeometry(base)


@pytest.mark.parametrize(
    "dims, ranks",
    [
        ((4, 4), (3,)),  # n = 2
        ((4, 4, 4, 4), (1, 1, 1)),  # rank 1
        ((9, 9, 9), (3, 4)),  # d = 3 qudits
        ((4, 4, 4, 4), (4, 16, 4)),  # ranks at the feasibility bound
    ],
)
def test_projection_edge_cases_match_oracle(dims, ranks):
    rng = np.random.default_rng(21)
    base = tt.left_orthogonalize(tt.random_tt(dims, ranks, rng))
    proj, _ = dense_tangent_projector(base)
    geom = manifold.TangentGeometry(base)
    idx = np.column_stack([rng.integers(0, m, size=6) for m in dims])
    g = manifold.SparseTensor(dims, indices=idx, values=rng.standard_normal(6))
    x = rng.standard_normal(dims)
    for v, src in ((geom.project_sparse(g), g.to_dense()), (geom.project_dense(x), x)):
        want = proj @ src.reshape(-1, order="F")
        np.testing.assert_allclose(ambient(v), want, atol=1e-9)
        assert v.gauge_residual() <= 1e-12


def test_right_cores_are_right_orthogonal():
    rng = np.random.default_rng(22)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    for c in geom.right_cores[1:]:
        r = tt.right_unfold(c)
        np.testing.assert_allclose(r @ r.T, np.eye(c.shape[0]), atol=1e-12)
    np.testing.assert_allclose(
        tt.tt_dense(tt.TtTensor(geom.right_cores)), tt.tt_dense(base), atol=1e-12
    )


def test_foot_point_entries_from_left_chain():
    rng = np.random.default_rng(23)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    idx = rng.integers(0, 4, size=(9, 4))
    got = geom.left_chain(idx)[-1][:, 0]
    np.testing.assert_allclose(got, tt.tt_entries(base, idx), atol=1e-13)


def test_non_orthogonal_base_rejected():
    rng = np.random.default_rng(10)
    base = tt.random_tt((4, 4, 4), (2, 2), rng)
    with pytest.raises(manifold.ManifoldError):
        manifold.TangentGeometry(base)


def test_tangent_to_tt_zero_variation():
    rng = np.random.default_rng(11)
    base = left_orth_base(rng)
    v = manifold.TangentVector(base, [np.zeros_like(c) for c in base.cores])
    assert tt.tt_norm(manifold.tangent_to_tt(v)) < 1e-14


def test_tangent_to_tt_matches_core_sum():
    rng = np.random.default_rng(12)
    base = left_orth_base(rng)
    vcores = [rng.standard_normal(c.shape) for c in base.cores]
    v = manifold.TangentVector(base, vcores)
    want = np.zeros(base.size)
    for k in range(base.n):
        cores = [vcores[j] if j == k else base.cores[j] for j in range(base.n)]
        want = want + tt.tt_dense(tt.TtTensor(cores)).reshape(-1, order="F")
    np.testing.assert_allclose(ambient(v), want, atol=1e-10)


def test_tangent_step_dense_check():
    rng = np.random.default_rng(13)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = geom.project_dense(rng.standard_normal(base.mode_dims))
    eta = 0.37
    stepped = manifold.tangent_step(base, v, eta)
    want = tt.tt_dense(base).reshape(-1, order="F") - eta * ambient(v)
    np.testing.assert_allclose(
        tt.tt_dense(stepped).reshape(-1, order="F"), want, atol=1e-10
    )
    assert all(r <= 2 * rr for r, rr in zip(stepped.ranks, base.ranks))


def test_tangent_step_eta_zero():
    rng = np.random.default_rng(14)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = geom.project_dense(rng.standard_normal(base.mode_dims))
    stepped = manifold.tangent_step(base, v, 0.0)
    assert tt.tt_relative_error(stepped, base) < 1e-12


def test_trim_noop_above_linf():
    rng = np.random.default_rng(15)
    t = tt.random_tt((4, 4, 4), (2, 2), rng)
    xi = tt.tt_linf_dense(t) * 1.01
    out = manifold.trim(t, xi)
    assert tt.tt_relative_error(out, t) < 1e-12


def test_trim_uniform_clip():
    cores = [np.ones((1, 4, 1)) for _ in range(3)]
    t = tt.TtTensor(cores)
    out = manifold.trim(t, 0.5)
    np.testing.assert_allclose(tt.tt_dense(out), np.full((4, 4, 4), 0.5), atol=1e-12)


def test_trim_median_threshold():
    rng = np.random.default_rng(16)
    t = tt.random_tt((4, 4, 4), (2, 2), rng)
    x = tt.tt_dense(t)
    xi = float(np.median(np.abs(x)))
    out = manifold.trim(t, xi)
    y = tt.tt_dense(out)
    assert abs(np.max(np.abs(y)) - xi) < 1e-12
    small = np.abs(x) < xi
    np.testing.assert_allclose(y[small], x[small], atol=1e-10)


def test_trim_skipped_above_cap_warns():
    cores = [np.ones((1, 4, 1)) for _ in range(11)]
    t = tt.TtTensor(cores)
    with pytest.warns(RuntimeWarning):
        out = manifold.trim(t, 0.5)
    assert out is t


def test_retract_identity_on_manifold():
    rng = np.random.default_rng(17)
    base = left_orth_base(rng)
    out = manifold.retract(base, base.ranks)
    assert tt.tt_relative_error(out, base) < 1e-10


def test_retract_huge_trim_same_as_none():
    rng = np.random.default_rng(18)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = geom.project_dense(rng.standard_normal(base.mode_dims))
    stepped = manifold.tangent_step(base, v, 1e-2)
    a = manifold.retract(stepped, base.ranks)
    b = manifold.retract(stepped, base.ranks, trim_xi=1e9)
    np.testing.assert_allclose(tt.tt_dense(a), tt.tt_dense(b), atol=1e-12)


def test_retraction_first_order():
    # |retract(base + s v) - (base + s v)| should shrink like s^2: the error
    # ratio between consecutive decades is ~100.
    rng = np.random.default_rng(19)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = geom.project_dense(rng.standard_normal(base.mode_dims))
    scale = 1.0 / v.norm()
    errs = []
    for s in (1e-2, 1e-3, 1e-4):
        stepped = manifold.tangent_step(base, v, -s * scale)
        retracted = manifold.retract(stepped, base.ranks)
        errs.append(tt.tt_distance(retracted, stepped))
    assert errs[0] / errs[1] > 30
    assert errs[1] / errs[2] > 30


def test_sparse_tensor_duplicate_sum():
    g = manifold.SparseTensor(
        (4, 4), indices=[[1, 2], [1, 2], [0, 0]], values=[1.0, 2.0, 5.0]
    )
    assert g.nnz == 2
    dense = g.to_dense()
    assert dense[1, 2] == 3.0
    assert dense[0, 0] == 5.0
