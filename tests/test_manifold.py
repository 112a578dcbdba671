"""Tangent-space tests against a dense tangent-basis oracle.

The oracle builds the dense projection matrix onto the tangent space by
orthonormalizing the ambient vectors of all delta-core perturbations of the
foot point; the batch projection must reproduce it, for a few entries or,
through ``project_all``, for a dense tensor.
"""

import re

import numpy as np
import pytest

from test_tt import batch_with_repeats, dense_oracle, left_part, tt_relative_error
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


def tangent_to_tt(v):
    """Exact TT form of the ambient tangent tensor (ranks at most 2r)."""
    return tt.TtTensor(manifold._chain_sum_cores(v.geom, v.variation_cores))


def tangent_step(v, eta):
    """Exact TT form of ``base - eta * ambient(v)`` (ranks at most 2r), the
    step that ``manifold.trimmed_retract`` truncates."""
    return tt.TtTensor(manifold._chain_sum_cores(v.geom, manifold._step_cores(v, eta)))


def gauge_residual(v):
    """Max violation of the gauge condition ``L(X_k)^T L(U_k) = 0`` over k < n."""
    base = v.geom.base
    return max(
        float(np.max(np.abs(x.reshape(-1, x.shape[2]).T @ u.reshape(-1, u.shape[2]))))
        for x, u in zip(v.variation_cores[:-1], base.cores[:-1])
    )


def ambient(v):
    return tt.tt_dense(tangent_to_tt(v)).reshape(-1, order="F")


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
    assert gauge_residual(v) < 1e-10


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


def separated(c1, c2):
    """A (4, 4, 4) tensor whose cut spectra are both ``(1, c1)`` and ``(1, c2)``, as TT."""
    e = np.eye(4)
    x = np.einsum("i,j,k->ijk", e[0], e[0], e[0]) + c1 * np.einsum("i,j,k->ijk", e[1], e[1], e[1])
    x += c2 * np.einsum("i,j,k->ijk", e[2], e[2], e[2])
    return tt.ttsvd(x / np.linalg.norm(x), (2, 2))


@pytest.mark.parametrize("small, fails", [(5e-12, False), (5e-13, True)])
def test_uncertified_cut_takes_the_svd_ratio_test(monkeypatch, small, fails):
    # Cut spectra (1, small): below the certificate's margin, so each cut
    # takes the values-only SVD, and only a ratio below DEGENERATE_TOL fails,
    # with the SVD's ratio in its message.  Cut 2 is checked first.
    base = separated(small, 0.0)
    factors = tt.right_qr_sweep(base.cores)[1]
    assert not any(manifold._certified(f) for f in factors)
    calls = []
    svd = tt._svd
    monkeypatch.setattr(tt, "_svd", lambda a, *a2, **kw: calls.append(a.shape) or svd(a, *a2, **kw))
    if not fails:
        manifold.TangentGeometry(base)
        assert calls == [(2, 2), (2, 2)]
        return
    s = svd(factors[1], compute_uv=False)
    want = ("rank-deficient foot point: separation at cut 2 is singular "
            f"(sigma_r/sigma_1 = {s[-1] / s[0]:.3g})")
    with pytest.raises(manifold.ManifoldError) as e:
        manifold.TangentGeometry(base)
    assert str(e.value) == want and e.value.cut == 2
    assert calls == [(2, 2)]


def test_rank_above_right_side_bound_named():
    # Rank 16 at cut 2 of dims (4, 4, 4) exceeds the 4 columns of the right
    # side: the cut's factor has 4 singular values, and the error says so.
    rng = np.random.default_rng(30)
    base = tt.left_orthogonalize(tt.random_tt((4, 4, 4), (4, 16), rng))
    with pytest.raises(manifold.ManifoldError, match="rank 16 at cut 2 exceeds the bound 4 ") as e:
        manifold.TangentGeometry(base)
    assert e.value.cut == 2


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
        assert gauge_residual(v) <= 1e-12


def test_right_cores_are_right_orthogonal():
    rng = np.random.default_rng(22)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    for c in geom.right_cores[1:]:
        r = c.reshape(c.shape[0], -1)
        np.testing.assert_allclose(r @ r.T, np.eye(c.shape[0]), atol=1e-12)
    np.testing.assert_allclose(
        tt.tt_dense(tt.TtTensor(geom.right_cores)), tt.tt_dense(base), atol=1e-12
    )


def test_foot_point_entries_from_left_chain():
    rng = np.random.default_rng(23)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    idx = rng.integers(0, 4, size=(9, 4))
    got = geom.left_chain(idx)[1][-1][:, 0]
    np.testing.assert_allclose(got, tt.tt_entries(base, idx), atol=1e-13)


def test_non_orthogonal_base_rejected():
    rng = np.random.default_rng(10)
    base = tt.random_tt((4, 4, 4), (2, 2), rng)
    with pytest.raises(manifold.ManifoldError):
        manifold.TangentGeometry(base)


@pytest.mark.parametrize("core", [0, 1, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_base_rejected(value, core):
    # The left-orthogonal flags are trusted, so the bad entry reaches the sweep.
    base = left_orth_base(np.random.default_rng(26), dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    cores = [c.copy() for c in base.cores]
    cores[core][0, 1, 0] = value
    with pytest.raises((np.linalg.LinAlgError, manifold.ManifoldError)):
        manifold.TangentGeometry(tt.TtTensor(cores, base.left_orthogonal))


@pytest.mark.parametrize(
    "cores, message",
    [
        (lambda b: b.cores[:-1], "need one variation core per site"),
        (lambda b: [*b.cores[:-1], np.zeros((2, 4, 2))],
         r"variation core shape \(2, 4, 2\) != base \(2, 4, 1\)"),
    ],
    ids=["count", "shape"],
)
def test_tangent_vector_checks_its_cores(cores, message):
    geom = manifold.TangentGeometry(left_orth_base(np.random.default_rng(12)))
    with pytest.raises(manifold.ManifoldError, match=message):
        manifold.TangentVector(geom, cores(geom.base))


def test_left_orthogonal_flag_trusted_else_every_core_checked():
    # A flagged foot point is trusted as it is; an unflagged one passes when
    # all of its cores 1..n-1 are left-orthogonal.
    base = left_orth_base(np.random.default_rng(13), dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    assert not tt.TtTensor(base.cores).left_orthogonal
    manifold.TangentGeometry(tt.TtTensor(base.cores))
    for k in range(base.n - 1):
        cores = list(base.cores)
        cores[k] = 2.0 * cores[k]
        manifold.TangentGeometry(tt.TtTensor(cores, left_orthogonal=True))
        with pytest.raises(manifold.ManifoldError, match="left-orthogonal cores 1..n-1"):
            manifold.TangentGeometry(tt.TtTensor(cores))


def test_tangent_to_tt_zero_variation():
    rng = np.random.default_rng(11)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = manifold.TangentVector(geom, [np.zeros_like(c) for c in base.cores])
    assert tt.tt_norm(tangent_to_tt(v)) < 1e-14


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
    stepped = tangent_step(v, eta)
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
    stepped = tangent_step(v, 0.0)
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
    stepped = tangent_step(v, 1e-2)
    a = tt.ttsvd(stepped, base.ranks)
    b = manifold.retract(stepped, base.ranks, 1e9)
    np.testing.assert_allclose(tt.tt_dense(a), tt.tt_dense(b), atol=1e-12)


TRIM_CASES = {
    "n = 2": ((4, 4), (3,)),
    "rank 1": ((4, 4, 4, 4), (1, 1, 1)),
    "qutrits": ((9, 9, 9), (3, 4)),
    "full bound": ((4, 4, 4, 4), (4, 16, 4)),
}


def random_step_vector(dims, ranks, seed):
    """A tangent vector of a random left-orthogonal foot point, from a batch."""
    rng = np.random.default_rng(seed)
    base = tt.left_orthogonalize(tt.random_tt(dims, ranks, rng))
    geom = manifold.TangentGeometry(base)
    idx = np.column_stack([rng.integers(0, m, size=8) for m in dims])
    return geom.project_batch(idx, rng.standard_normal(8))


@pytest.mark.parametrize("case", list(TRIM_CASES))
def test_unclipped_retract_matches_dense_clip_path(case):
    # At xi = max|z| the clip changes nothing, so retract truncates z in TT
    # form; that matches the dense TTSVD of the clipped array.
    dims, ranks = TRIM_CASES[case]
    z = tangent_step(random_step_vector(dims, ranks, 31), 0.3)
    dense = tt.tt_dense(z)
    xi = float(np.abs(dense).max())
    want = tt.tt_dense(tt.ttsvd(np.clip(dense, -xi, xi), ranks))
    got = manifold.retract(z, ranks, xi)
    assert got.ranks == ranks
    assert np.linalg.norm(tt.tt_dense(got) - want) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("case", list(TRIM_CASES))
def test_trimmed_retract_reads_step_norm_off_its_cores(monkeypatch, case):
    # By the gauge condition the step's chains are orthogonal, so the norm
    # behind the clipping level is the norm of the step cores: it equals
    # tt_norm of the step's TT form.
    dims, ranks = TRIM_CASES[case]
    v = random_step_vector(dims, ranks, 32)
    seen = []
    monkeypatch.setattr(manifold, "retract", lambda z, r, xi: seen.append((z, xi)))
    manifold.trimmed_retract(v, 0.3, ranks, 2.0)
    [(z, xi)] = seen
    want = manifold.trim_level(tt.tt_norm(tangent_step(v, 0.3)), z.size, 2.0)
    assert abs(xi - want) <= 1e-13 * want


def test_retraction_first_order():
    # |retract(base + s v) - (base + s v)| should shrink like s^2: the error
    # ratio between consecutive decades is ~100.
    rng = np.random.default_rng(19)
    base = left_orth_base(rng)
    geom = manifold.TangentGeometry(base)
    v = project_all(geom, rng.standard_normal(base.mode_dims))
    scale = 1.0 / tt.tt_norm(tangent_to_tt(v))
    errs = []
    for s in (1e-2, 1e-3, 1e-4):
        stepped = tangent_step(v, -s * scale)
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


@pytest.mark.parametrize("site", [1, 2])
def test_ksl_retract_names_interior_core_of_first_non_finite_k(monkeypatch, site):
    # A huge finite step at one interior core overflows that core's K_k
    # while every earlier K_k and its q-only QR stay finite, as the spy's
    # record shows.  The one check after the sweep names the core a check of
    # each K_k would have named.
    rng = np.random.default_rng(3)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    xcores = [np.zeros(c.shape) for c in base.cores]
    xcores[site] = rng.standard_normal(base.cores[site].shape)
    xcores[site] *= -0.9 * np.finfo(float).max / np.abs(xcores[site]).max()
    kernels = []
    householder_q = tt._householder_q

    def spy(a):
        q = householder_q(a)
        kernels.append((a, q))
        return q

    monkeypatch.setattr(tt, "_householder_q", spy)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(manifold.ManifoldError, match=f"core {site}") as info:
            manifold.ksl_retract(manifold.TangentVector(geom, xcores), 1.0)
    assert info.value.core == site
    assert all(np.isfinite(k).all() and np.isfinite(q).all() for k, q in kernels[:site])
    assert not np.isfinite(kernels[site][0]).all()


def test_finite_ksl_retract_takes_no_checked_qr(monkeypatch):
    # The sweep's QRs form only their q, unchecked; a finite step is checked
    # once, after the sweep, and never through the r-forming tt._householder
    # of the checked QR sweeps.
    rng = np.random.default_rng(26)
    base = left_orth_base(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    geom = manifold.TangentGeometry(base)
    v = project_all(geom, rng.standard_normal(base.mode_dims))
    calls = []
    qr = tt._householder

    def spy(a):
        calls.append(a.shape)
        return qr(a)

    monkeypatch.setattr(tt, "_householder", spy)
    out = manifold.ksl_retract(v, 1e-2)
    assert calls == []
    assert out.ranks == base.ranks


CHAIN_CASES = {
    # Qutrit modes (m = 9) at ranks below m: each GEMM is wider than a gather.
    "qutrits": ((9, 9, 9), (2, 3), [[0, 8, 4], [8, 0, 1], [3, 3, 8], [5, 7, 2]]),
    "rank 1": ((4, 4, 4, 4), (1, 1, 1), [[0, 1, 2, 3], [3, 3, 0, 1], [2, 0, 0, 2]]),
    "batch of one": ((4, 4, 4), (2, 2), [[1, 2, 3]]),
    "empty batch": ((4, 4, 4), (2, 2), np.zeros((0, 3), dtype=np.int64)),
    "repeated rows": ((4, 4, 4), (2, 2), [[1, 2, 3], [0, 0, 0], [1, 2, 3], [1, 2, 3]]),
}


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_chain_kernels_match_dense_oracle(case):
    # tt_entries, left_chain and project_batch against the dense contraction
    # and the dense tangent projector.
    dims, ranks, idx = CHAIN_CASES[case]
    idx = np.asarray(idx, dtype=np.int64)
    rng = np.random.default_rng(29)
    base = left_orth_base(rng, dims, ranks)
    dense = dense_oracle(base)
    entries = dense[tuple(idx.T)]
    np.testing.assert_allclose(tt.tt_entries(base, idx), entries, rtol=0, atol=1e-12)
    geom = manifold.TangentGeometry(base)
    sel, lefts = geom.left_chain(idx)
    np.testing.assert_array_equal(sel, tt._flat_rows(idx, dims))
    assert [l.shape for l in lefts] == [(idx.shape[0], r) for r in (1, *ranks, 1)]
    for k in range(1, base.n):
        rows = np.ravel_multi_index(tuple(idx[:, :k].T), dims[:k], order="F")
        np.testing.assert_allclose(lefts[k], left_part(base, k)[rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(lefts[-1][:, 0], entries, rtol=0, atol=1e-12)
    vals = rng.standard_normal(idx.shape[0])
    proj, _ = dense_tangent_projector(base)
    want = proj @ sparse_dense(dims, idx, vals).reshape(-1, order="F")
    np.testing.assert_allclose(ambient(geom.project_batch(idx, vals)), want, atol=1e-9)


RANGE_DIMS = (4, 9, 16, 4, 9)


# An unsigned index cannot be negative; it can still run past its mode.
RANGE_CASES = [
    (False, np.int64), (True, np.int64), (True, np.uint8), (True, np.uint16), (True, np.uint64)
]


@pytest.mark.parametrize("past_end, dtype", RANGE_CASES)
@pytest.mark.parametrize("site", [0, 2, 4])
def test_out_of_range_index_raises_naming_its_site(site, past_end, dtype):
    # A flat-row select would read an index of -1 or m_k from a neighbouring
    # row's entry, so every chain entry point rejects it.
    rng = np.random.default_rng(site)
    base = left_orth_base(rng, RANGE_DIMS, (2, 3, 3, 2))
    geom = manifold.TangentGeometry(base)
    idx = rng.integers(0, RANGE_DIMS, size=(5, len(RANGE_DIMS))).astype(dtype)
    idx[3, site] = RANGE_DIMS[site] if past_end else -1
    calls = [
        lambda: tt.tt_entries(base, idx),
        lambda: geom.left_chain(idx),
        lambda: geom.project_batch(idx, np.ones(5)),
    ]
    bad = RANGE_DIMS[site] if past_end else -1
    for call in calls:
        with pytest.raises(tt.TtError, match=rf"index {bad} at site {site} outside \[0, "):
            call()
    idx[3, site] = RANGE_DIMS[site] - 1
    for call in calls:
        call()


def dense_projection(geom, x):
    """Oracle: the tangent projection of the dense C-order ``x`` by the projector formula.

    With the left parts ``A_k = U^{<=k}`` and the right parts ``B_k = V^{>k}``
    of cut k, both orthonormal, the projection is
    ``sum_k (A_{k-1} A_{k-1}^T (x) I (x) B_k^T B_k) x - sum_{k<n} (A_k A_k^T (x) B_k^T B_k) x``,
    with ``A_0`` and ``B_n`` the 1 x 1 identity: ``lefts[k]`` is ``A_k`` and
    ``rights[k]`` is ``B_{k+1}``, k from 0.  Each part is contracted
    densely by ``einsum``, site by site.
    """
    n, dims = geom.base.n, geom.base.mode_dims
    lefts = [np.ones((1, 1))]
    for core in geom.base.cores[:-1]:
        lefts.append(np.einsum("ia,ajb->ijb", lefts[-1], core).reshape(-1, core.shape[2]))
    rights = [np.ones((1, 1))]
    for core in reversed(geom.right_cores[1:]):
        rights.insert(0, np.einsum("ajb,bJ->ajJ", core, rights[0]).reshape(core.shape[0], -1))
    out = np.zeros(x.size)
    for k in range(n):
        a, b = lefts[k], rights[k]
        x3 = x.reshape(a.shape[0], dims[k], b.shape[1])
        out += np.einsum("ia,Ia,Ijk,bk,bK->ijK", a, a, x3, b, b, optimize=True).ravel()
        if k < n - 1:
            a = lefts[k + 1]
            out -= (a @ (a.T @ x.reshape(a.shape[0], -1) @ b.T) @ b).ravel()
    return out.reshape(dims)


def test_dense_projection_oracle_matches_tangent_projector():
    rng = np.random.default_rng(44)
    base = left_orth_base(rng)
    proj, _ = dense_tangent_projector(base)
    x = rng.standard_normal(base.mode_dims)
    got = dense_projection(manifold.TangentGeometry(base), x)
    np.testing.assert_allclose(got.reshape(-1, order="F"), proj @ x.reshape(-1, order="F"),
                               rtol=0, atol=1e-12)


PROJECTION_CASES = {
    # The ising-n6 iterate ranks, where the right chain's GEMMs are widest.
    "ising ranks": ((4,) * 6, (4, 16, 16, 16, 4), 20),
    "qutrits": ((9, 9, 9, 9), (3, 9, 3), 20),
    "one row": ((4,) * 6, (4, 16, 16, 16, 4), 1),
}


@pytest.mark.parametrize("case", list(PROJECTION_CASES))
def test_project_batch_matches_dense_projection(case):
    dims, ranks, rows = PROJECTION_CASES[case]
    rng = np.random.default_rng(45)
    geom = manifold.TangentGeometry(left_orth_base(rng, dims, ranks))
    idx = batch_with_repeats(rng, dims, rows, np.uint8)
    vals = rng.standard_normal(rows)
    v = geom.project_batch(idx, vals)
    want = dense_projection(geom, sparse_dense(dims, idx, vals))
    np.testing.assert_allclose(tt.tt_dense(tangent_to_tt(v)), want, rtol=0, atol=1e-12)
    assert gauge_residual(v) <= 1e-12


@pytest.mark.parametrize("shape", [(), (1,), (4,), (6,), (5, 1)])
def test_project_batch_rejects_values_not_of_batch_shape(shape):
    # The right chain's product broadcasts, so only this check stops a
    # length-1 ``values`` from standing in for every row.
    rng = np.random.default_rng(46)
    geom = manifold.TangentGeometry(left_orth_base(rng))
    idx = rng.integers(0, 4, size=(5, 3))
    want = f"values of shape {shape} for indices of shape (5, 3): need (5,)"
    with pytest.raises(manifold.ManifoldError, match=re.escape(want)):
        geom.project_batch(idx, np.ones(shape))


def test_project_batch_of_repeated_rows_is_sum_of_single_rows():
    dims = (9, 4, 16)
    rng = np.random.default_rng(31)
    geom = manifold.TangentGeometry(left_orth_base(rng, dims, (3, 4)))
    idx = batch_with_repeats(rng, dims, 20, np.uint8)
    vals = rng.standard_normal(20)
    got = geom.project_batch(idx, vals).variation_cores
    parts = [geom.project_batch(idx[b : b + 1], vals[b : b + 1]).variation_cores
             for b in range(20)]
    for k, core in enumerate(got):
        np.testing.assert_allclose(core, sum(p[k] for p in parts), rtol=0, atol=1e-12)


def unchecked_builds():
    """``name -> (build, count)``: each site that builds by ``TtTensor._from_cores``,
    and how many tensors it builds so."""
    rng = np.random.default_rng(47)
    dims = (4, 9, 4, 4)
    base = left_orth_base(rng, dims, (3, 4, 2))
    geom = manifold.TangentGeometry(base)
    v = geom.project_batch(batch_with_repeats(rng, dims, 20, np.uint8), rng.standard_normal(20))
    return {
        "ksl_retract": (lambda: manifold.ksl_retract(v, 1e-2), 1),
        "ttsvd of a TtTensor": (lambda: tt.ttsvd(tangent_step(v, 1e-2), base.ranks), 1),
        # The stacked step and, as the trim clips nothing, its TT-path TTSVD.
        "trimmed_retract": (lambda: manifold.trimmed_retract(v, 1e-2, base.ranks, 1e6), 2),
    }


@pytest.mark.parametrize("site", list(unchecked_builds()))
def test_unchecked_builds_match_the_constructor(monkeypatch, site):
    build, count = unchecked_builds()[site]
    built = []
    from_cores = tt.TtTensor._from_cores
    monkeypatch.setattr(tt.TtTensor, "_from_cores",
                        lambda *args: built.append(from_cores(*args)) or built[-1])
    build()
    assert len(built) == count
    for t in built:
        ref = tt.TtTensor(t.cores, t.left_orthogonal)
        assert all(c.dtype == np.float64 and not c.flags.writeable for c in t.cores)
        assert (t.mode_dims, t.ranks, t.left_orthogonal) == (
            ref.mode_dims, ref.ranks, ref.left_orthogonal)
        idx = np.zeros((1, t.n), dtype=np.uint8)
        assert tt.tt_entries(t, idx).tobytes() == tt.tt_entries(ref, idx).tobytes()


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
            manifold.ksl_retract(v, eta), tt.ttsvd(tangent_step(v, eta), base.ranks)
        )
        / tt.tt_norm(base)
        for eta in (1e-2, 1e-3)
    ]
    assert gaps[1] <= gaps[0] / 300.0


def test_ksl_retract_same_bytes_for_constructed_and_projected_vectors():
    # The public constructor folds 3-D cores into the unfoldings that the
    # projection hands over, so the retraction cannot tell them apart.
    rng = np.random.default_rng(41)
    dims = (4, 9, 4, 4)
    geom = manifold.TangentGeometry(left_orth_base(rng, dims, (3, 4, 2)))
    idx = batch_with_repeats(rng, dims, 20, np.uint8)
    v = geom.project_batch(idx, rng.standard_normal(20))
    w = manifold.TangentVector(geom, [c.copy() for c in v.variation_cores])
    for got, want in zip(w.variation_cores, v.variation_cores):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for eta in (1e-3, 0.5):
        a, b = manifold.ksl_retract(v, eta), manifold.ksl_retract(w, eta)
        assert [c.tobytes() for c in a.cores] == [c.tobytes() for c in b.cores]
