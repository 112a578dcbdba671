"""Tangent-space tests against a dense tangent-basis oracle.

The oracle builds the dense projection matrix onto the tangent space by
orthonormalizing the ambient vectors of all delta-core perturbations of the
foot point; the batch projection must reproduce it, for a few entries or,
through ``project_all``, for a dense tensor.
"""

import numpy as np
import pytest

from test_tt import tt_relative_error
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


def project_all(geom, x):
    """Projection of the dense ``x``: ``project_batch`` over every multi-index."""
    idx = np.indices(x.shape).reshape(x.ndim, -1).T
    return geom.project_batch(idx, x[tuple(idx.T)])


def sparse_dense(dims, idx, vals):
    """Dense ``sum_b vals[b] * e_{idx[b]}``; repeated indices add up."""
    x = np.zeros(dims)
    np.add.at(x, tuple(np.asarray(idx).T), vals)
    return x


def full_ranks(dims):
    """Maximal feasible TT ranks, at which TTSVD is exact."""
    return tuple(
        int(min(np.prod(dims[: k + 1]), np.prod(dims[k + 1 :]))) for k in range(len(dims) - 1)
    )


def manifold_dim(mode_dims, ranks) -> int:
    """Dimension of the fixed-rank manifold: sum m_k r_{k-1} r_k - sum r_k^2."""
    rk = (1,) + tuple(ranks) + (1,)
    total = sum(m * rk[k] * rk[k + 1] for k, m in enumerate(mode_dims))
    return total - sum(r * r for r in ranks)


def test_manifold_dim_formula():
    assert manifold_dim((4, 4), (1,)) == 7
    assert manifold_dim((4, 4, 4), (2, 2)) == 24


def test_manifold_dim_matches_numerical_rank():
    rng = np.random.default_rng(0)
    base = left_orth_base(rng)
    _, rank = dense_tangent_projector(base)
    assert rank == manifold_dim(base.mode_dims, base.ranks)


def test_project_all_entries_matches_oracle():
    rng = np.random.default_rng(1)
    base = left_orth_base(rng)
    proj, _ = dense_tangent_projector(base)
    for _ in range(5):
        x = rng.standard_normal(base.mode_dims)
        v = project_all(manifold.TangentGeometry(base), x)
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
        v = manifold.TangentGeometry(base).project_batch(idx, vals)
        want = proj @ sparse_dense((4, 4, 4), idx, vals).reshape(-1, order="F")
        np.testing.assert_allclose(ambient(v), want, atol=1e-9)


def test_sparse_and_dense_paths_agree():
    rng = np.random.default_rng(3)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    idx = rng.integers(0, 4, size=(5, 3))
    vals = rng.standard_normal(5)
    vs = geom.project_batch(idx, vals)
    vd = project_all(geom, sparse_dense((4, 4, 4), idx, vals))
    np.testing.assert_allclose(ambient(vs), ambient(vd), atol=1e-9)


def test_projection_gauge_condition():
    rng = np.random.default_rng(4)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    idx = rng.integers(0, 4, size=(7, 4))
    v = geom.project_batch(idx, rng.standard_normal(7))
    assert v.gauge_residual() < 1e-10


def test_projection_idempotent():
    rng = np.random.default_rng(5)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    x = rng.standard_normal(base.mode_dims)
    v1 = project_all(geom, x)
    v2 = project_all(geom, ambient(v1).reshape(base.mode_dims, order="F"))
    np.testing.assert_allclose(ambient(v2), ambient(v1), atol=1e-10)


def test_projection_residual_orthogonal():
    rng = np.random.default_rng(6)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    x = rng.standard_normal(base.mode_dims)
    p = ambient(project_all(geom, x))
    resid = x.reshape(-1, order="F") - p
    assert abs(resid @ p) < 1e-9


def test_self_projection_returns_foot_point():
    rng = np.random.default_rng(7)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = project_all(geom, tt.tt_dense(base))
    np.testing.assert_allclose(
        ambient(v), tt.tt_dense(base).reshape(-1, order="F"), atol=1e-10
    )


def test_projection_nonexpansive():
    rng = np.random.default_rng(8)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    for _ in range(10):
        idx = rng.integers(0, 4, size=(1, 3))
        v = geom.project_batch(idx, [1.0])
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
    vals = rng.standard_normal(6)
    x = rng.standard_normal(dims)
    for v, src in (
        (geom.project_batch(idx, vals), sparse_dense(dims, idx, vals)),
        (project_all(geom, x), x),
    ):
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
    geom = manifold.TangentGeometry(base)
    v = manifold.TangentVector(geom, [np.zeros_like(c) for c in base.cores])
    assert tt.tt_norm(manifold.tangent_to_tt(v)) < 1e-14


def test_tangent_to_tt_matches_core_sum():
    rng = np.random.default_rng(12)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    vcores = [rng.standard_normal(c.shape) for c in base.cores]
    v = manifold.TangentVector(geom, vcores)
    # Chains [U_1, ..., U_{k-1}, X_k, V_{k+1}, ..., V_n].
    right = geom.right_cores
    want = np.zeros(base.size)
    for k in range(base.n):
        cores = [*base.cores[:k], vcores[k], *right[k + 1 :]]
        want = want + tt.tt_dense(tt.TtTensor(cores)).reshape(-1, order="F")
    np.testing.assert_allclose(ambient(v), want, atol=1e-10)


def test_tangent_step_dense_check():
    rng = np.random.default_rng(13)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = project_all(geom, rng.standard_normal(base.mode_dims))
    eta = 0.37
    stepped = manifold.tangent_step(v, eta)
    want = tt.tt_dense(base).reshape(-1, order="F") - eta * ambient(v)
    np.testing.assert_allclose(
        tt.tt_dense(stepped).reshape(-1, order="F"), want, atol=1e-10
    )
    assert all(r <= 2 * rr for r, rr in zip(stepped.ranks, base.ranks))


def test_tangent_step_eta_zero():
    rng = np.random.default_rng(14)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = project_all(geom, rng.standard_normal(base.mode_dims))
    stepped = manifold.tangent_step(v, 0.0)
    assert tt_relative_error(stepped, base) < 1e-12


# The trim tests retract at full ranks, where TTSVD is exact, so the output
# is the clipped tensor itself.


def test_trim_noop_above_linf():
    rng = np.random.default_rng(15)
    t = tt.random_tt((4, 4, 4), (4, 4), rng)
    xi = np.abs(tt.tt_dense(t)).max() * 1.01
    out = manifold.retract(t, full_ranks(t.mode_dims), xi)
    assert tt_relative_error(out, t) < 1e-12


def test_trim_uniform_clip():
    t = tt.ttsvd(np.ones((4, 4, 4)), full_ranks((4, 4, 4)))
    out = manifold.retract(t, full_ranks(t.mode_dims), 0.5)
    np.testing.assert_allclose(tt.tt_dense(out), np.full((4, 4, 4), 0.5), atol=1e-12)


def test_trim_median_threshold():
    rng = np.random.default_rng(16)
    t = tt.random_tt((4, 4, 4), (4, 4), rng)
    x = tt.tt_dense(t)
    xi = float(np.median(np.abs(x)))
    out = manifold.retract(t, full_ranks(t.mode_dims), xi)
    y = tt.tt_dense(out)
    assert abs(np.max(np.abs(y)) - xi) < 1e-12
    small = np.abs(x) < xi
    np.testing.assert_allclose(y[small], x[small], atol=1e-10)


def test_trim_skipped_above_cap_warns():
    cores = [np.ones((1, 4, 1)) for _ in range(11)]
    t = tt.TtTensor(cores)
    with pytest.warns(RuntimeWarning, match="trim skipped"):
        out = manifold.retract(t, t.ranks, 0.5)
    # Untrimmed: the all-ones tensor, not one clipped to 0.5.
    assert tt_relative_error(out, t) < 1e-12


def test_retract_identity_on_manifold():
    rng = np.random.default_rng(17)
    base = left_orth_base(rng)
    out = tt.ttsvd(base, base.ranks)
    assert tt_relative_error(out, base) < 1e-10


def test_retract_huge_trim_same_as_none():
    rng = np.random.default_rng(18)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = project_all(geom, rng.standard_normal(base.mode_dims))
    stepped = manifold.tangent_step(v, 1e-2)
    a = tt.ttsvd(stepped, base.ranks)
    b = manifold.retract(stepped, base.ranks, 1e9)
    np.testing.assert_allclose(tt.tt_dense(a), tt.tt_dense(b), atol=1e-12)


def test_retraction_first_order():
    # |retract(base + s v) - (base + s v)| should shrink like s^2: the error
    # ratio between consecutive decades is ~100.
    rng = np.random.default_rng(19)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = project_all(geom, rng.standard_normal(base.mode_dims))
    scale = 1.0 / tt.tt_norm(manifold.tangent_to_tt(v))
    errs = []
    for s in (1e-2, 1e-3, 1e-4):
        stepped = manifold.tangent_step(v, -s * scale)
        retracted = tt.ttsvd(stepped, base.ranks)
        errs.append(tt.tt_distance(retracted, stepped))
    assert errs[0] / errs[1] > 30
    assert errs[1] / errs[2] > 30


def test_sparse_tensor_duplicate_sum():
    # Repeated indices of a batch add up: the projection of the batch equals
    # that of its dense sum, and that of the batch with duplicates merged.
    rng = np.random.default_rng(24)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    idx = np.array([[1, 2, 3], [1, 2, 3], [0, 0, 0], [1, 2, 3]])
    vals = np.array([1.0, 2.0, 5.0, -0.5])
    got = ambient(geom.project_batch(idx, vals))
    dense = sparse_dense((4, 4, 4), idx, vals)
    assert dense[1, 2, 3] == 2.5 and dense[0, 0, 0] == 5.0
    np.testing.assert_allclose(got, ambient(project_all(geom, dense)), atol=1e-12)
    merged = ambient(geom.project_batch(idx[1:3], [2.5, 5.0]))
    np.testing.assert_allclose(got, merged, atol=1e-12)


def test_ksl_retract_names_non_finite_core():
    rng = np.random.default_rng(25)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    xcores = project_all(geom, rng.standard_normal(base.mode_dims)).variation_cores
    # A non-finite variation core is named before the sweep runs.
    bad = [c.copy() for c in xcores]
    bad[2][0, 1, 0] = np.inf
    with pytest.raises(manifold.ManifoldError, match="core 2") as info:
        manifold.ksl_retract(manifold.TangentVector(geom, bad), 0.1)
    assert info.value.core == 2 and info.value.cut is None
    # Finite scaled cores whose sum overflows: core 1's X̂ = c V puts c I into
    # the environment right of core 0, so core 0's K = U (c I + ...) +
    # c U / max|U| holds an entry of size >= 1.5 c.  The sweep names core 0
    # rather than handing inf to the QR.
    c = 1.2e308
    huge = [np.zeros_like(x) for x in xcores]
    huge[0] = -c / np.abs(base.cores[0]).max() * base.cores[0]
    huge[1] = -c * geom.right_cores[1]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(manifold.ManifoldError, match="core 0") as info:
            manifold.ksl_retract(manifold.TangentVector(geom, huge), 1.0)
    assert info.value.core == 0


def test_ksl_retract_second_order_for_vector_built_from_geometry():
    # A tangent vector built from its geometry and bare variation cores
    # carries the right-orthogonal V_k that the projector-splitting sweep
    # needs, so the sweep agrees with the TTSVD of the step to O(eta^3): the
    # gap shrinks about 1000x per decade.  Right cores that are not the V_k
    # leave a first-order gap (10x per decade).
    rng = np.random.default_rng(3)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    v = manifold.TangentVector(geom, [rng.standard_normal(c.shape) for c in base.cores])
    gaps = [
        tt.tt_distance(
            manifold.ksl_retract(v, eta), tt.ttsvd(manifold.tangent_step(v, eta), base.ranks)
        )
        / tt.tt_norm(base)
        for eta in (1e-2, 1e-3)
    ]
    assert gaps[1] <= gaps[0] / 300.0
