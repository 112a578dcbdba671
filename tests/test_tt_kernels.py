"""Property tests for the TT kernels and primitives.

The QR/SVD kernels are checked against numpy's own factorizations, the
TT-path retraction against the right-orthogonalization + truncated-SVD sweep
written with ``np.linalg``, the projector-splitting retraction against a
dense projector-splitting oracle, the QR sweep's cut spectra against a
sweep of thin SVDs, and the QR sweep, the chain stacking of ``tt_axpy`` and
of the tangent step against dense oracles.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_manifold import project_all, tangent_step, tangent_to_tt
from ttqst import manifold, solvers, tt

PROPS = settings(max_examples=80, deadline=None)


@st.composite
def matrices(draw, max_dim=10):
    """Random tall, wide or square matrices, some rank-deficient, at varied scales."""
    m = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    rank = draw(st.integers(0, min(m, k)))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(seed)
    if rank == min(m, k):
        a = rng.standard_normal((m, k))
    else:
        a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, k))
    return scale * a


def orthonormality_error(q):
    return float(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))))


@PROPS
@given(matrices())
@example(np.arange(1.0, 8.0).reshape(1, 7))
@example(np.arange(1.0, 8.0).reshape(7, 1))
@example(np.zeros((3, 5)))
def test_qr_orthonormal_and_reproduces(a):
    q, r = tt._householder(a)
    assert q.shape == (a.shape[0], min(a.shape))
    assert r.shape == (min(a.shape), a.shape[1])
    assert orthonormality_error(q) <= 1e-13
    assert np.linalg.norm(a - q @ r) <= 1e-13 * np.linalg.norm(a)


@PROPS
@given(matrices())
@example(np.arange(1.0, 8.0).reshape(1, 7))
@example(np.arange(1.0, 8.0).reshape(7, 1))
def test_svd_matches_numpy(a):
    u, s, vh = tt._svd(a)
    want = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(s, want, rtol=0, atol=1e-12 * want[0])
    np.testing.assert_allclose(tt._svd(a, compute_uv=False), s, rtol=0, atol=1e-12 * want[0])
    assert np.linalg.norm(a - (u * s) @ vh) <= 1e-13 * np.linalg.norm(a)


@PROPS
@given(matrices())
def test_svd_full_matrices_bases_orthonormal(a):
    u, s, vh = tt._svd(a, full_matrices=True)
    assert u.shape == (a.shape[0],) * 2 and vh.shape == (a.shape[1],) * 2
    assert orthonormality_error(u) <= 1e-13
    assert orthonormality_error(vh.T) <= 1e-13


@PROPS
@given(matrices(), st.data())
def test_truncate_factor_padding_keeps_u_orthonormal(a, data):
    rows, cols = a.shape
    r = data.draw(st.integers(1, rows))
    u, c = tt._truncate_factor(a, r)
    assert u.shape == (rows, r) and c.shape == (r, cols)
    assert orthonormality_error(u) <= 1e-13
    if r >= min(a.shape):
        assert np.linalg.norm(a - u @ c) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("shape", [(2, 5), (4, 4), (16, 4)])
def test_householder_q_matches_numpy_q(shape):
    # A wide input's reflectors are sliced off dgeqrf's output before dorgqr;
    # a tall or square one goes to dorgqr as it is.
    a = np.random.default_rng(shape[1]).standard_normal(shape)
    np.testing.assert_allclose(tt._householder_q(a), np.linalg.qr(a)[0], rtol=0, atol=1e-14)


def split_qr(a):
    """The QR of ``a`` by the checked split of ``solvers._split_block_core``.

    ``a`` is the core ``(1, rows, cols)`` split over the modes ``(rows, 1)``,
    so the split takes exactly one QR, of ``a``, and checks its factor.
    """
    return solvers._split_block_core(a[None], (a.shape[0], 1))


@pytest.mark.parametrize("kernel", [split_qr, tt._svd])
def test_kernels_raise_on_nan(kernel):
    for shape in [(6, 3), (3, 6), (4, 4)]:
        a = np.ones(shape)
        a[1, -1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            kernel(a)


def test_qr_kernels_tell_overflow_from_non_finite_input():
    # Columns of length above the largest double overflow R although every
    # entry is finite; an inf entry is non-finite input.
    huge = np.full((4, 2), 1e308)
    bad = np.ones((4, 2))
    bad[1, 0] = np.inf
    cores = [np.ones((1, 4, 2)), np.ones((2, 4, 2)), np.full((2, 4, 1), 1e308)]
    bad_cores = [c.copy() for c in cores[:2]] + [bad.T.reshape(2, 4, 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        for run, finite, broken in (
            (split_qr, huge, bad),
            (tt.right_qr_sweep, cores, bad_cores),
        ):
            with pytest.raises(np.linalg.LinAlgError, match="^QR overflowed on finite input$"):
                run(finite)
            with pytest.raises(np.linalg.LinAlgError, match="^QR of a matrix with non-finite"):
                run(broken)


def reference_ttsvd(t, ranks):
    """The TT-path TTSVD written with np.linalg: QR sweep right-to-left, then
    truncated SVDs left-to-right on first-index-fastest unfoldings."""
    cores = list(t.cores)
    for k in range(t.n - 1, 0, -1):
        r0, m, r1 = cores[k].shape
        q, r = np.linalg.qr(cores[k].reshape(r0, m * r1, order="F").T)
        cores[k] = q.T.reshape(-1, m, r1, order="F")
        cores[k - 1] = np.tensordot(cores[k - 1], r.T, axes=(2, 0))
    out = []
    cur = cores[0]
    for k in range(t.n - 1):
        r0, m, r1 = cur.shape
        u, s, vh = np.linalg.svd(cur.reshape(r0 * m, r1, order="F"), full_matrices=False)
        out.append(u[:, : ranks[k]].reshape(r0, m, ranks[k], order="F"))
        cur = np.tensordot(s[: ranks[k], None] * vh[: ranks[k]], cores[k + 1], axes=(1, 0))
    out.append(cur)
    return tt.TtTensor(out)


@PROPS
@given(
    n=st.integers(2, 5),
    m=st.sampled_from([2, 4, 9]),
    rank=st.integers(1, 3),
    eta=st.sampled_from([1e-3, 1e-2, 1e-1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ttsvd_of_tangent_step_matches_numpy_reference(n, m, rank, eta, seed):
    rng = np.random.default_rng(seed)
    dims = (m,) * n
    ranks = tuple(min(rank, m**k, m ** (n - k)) for k in range(1, n))
    base = tt.left_orthogonalize(tt.random_tt(dims, ranks, rng))
    base = tt.tt_scale(1.0 / tt.tt_norm(base), base)
    geom = manifold.TangentGeometry(base)
    idx = rng.integers(0, m, size=(5, n))
    stepped = tangent_step(geom.project_batch(idx, rng.standard_normal(5)), eta)
    got = tt.ttsvd(stepped, ranks)
    want = reference_ttsvd(stepped, ranks)
    assert got.ranks == ranks
    assert tt.tt_distance(got, want) <= 1e-12 * tt.tt_norm(want)


def tt_case(n, m, cap, seed):
    """Random left-orthogonal TT on ``n`` modes of size ``m``; ranks ``min(cap, bound)``.

    ``cap=0`` puts every rank at the feasibility bound.
    """
    dims = (m,) * n
    bound = [min(m**k, m ** (n - k)) for k in range(1, n)]
    ranks = tuple(b if cap == 0 else min(cap, b) for b in bound)
    rng = np.random.default_rng(seed)
    return tt.left_orthogonalize(tt.random_tt(dims, ranks, rng)), rng


# n=2, rank 1, d=3 qudits (mode size 9) and ranks at the feasibility bound.
TT_CASES = dict(
    n=st.integers(2, 4),
    m=st.sampled_from([4, 9]),
    cap=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)


def edge_cases(**extra):
    """Always run the edge cases, with ``extra`` for the test's other arguments."""

    def add(test):
        for n, m, cap in [(2, 4, 1), (2, 9, 1), (3, 9, 0), (4, 4, 0), (4, 9, 2)]:
            test = example(n=n, m=m, cap=cap, seed=0, **extra)(test)
        return test

    return add


SWEEP_PROPS = settings(max_examples=40, deadline=None)


@SWEEP_PROPS
@given(**TT_CASES)
@edge_cases()
def test_right_qr_sweep_matches_dense(n, m, cap, seed):
    t, _ = tt_case(n, m, cap, seed)
    x = tt.tt_dense(t)
    scale = np.linalg.norm(x)
    right, factors = tt.right_qr_sweep(t.cores)
    for c in right[1:]:
        assert orthonormality_error(c.reshape(c.shape[0], -1).T) <= 1e-12
    assert np.linalg.norm(tt.tt_dense(tt.TtTensor(right)) - x) <= 1e-12 * scale
    assert len(factors) == n - 1
    for k, r in enumerate(factors, start=1):
        s = tt._svd(r, compute_uv=False)
        want = np.linalg.svd(x.reshape(m**k, -1, order="F"), compute_uv=False)
        np.testing.assert_allclose(s, want[: len(s)], rtol=0, atol=1e-12 * scale)
        assert np.all(want[len(s) :] <= 1e-12 * scale)


def svd_sweep_spectra(cores):
    """Cut spectra of left-orthogonal cores by a right-to-left sweep of thin SVDs."""
    svals = []
    cur = cores[-1]
    for prev in cores[-2::-1]:
        u, s, _ = np.linalg.svd(cur.reshape(cur.shape[0], -1, order="F"), full_matrices=False)
        svals.insert(0, s)
        cur = np.tensordot(prev, u * s, axes=(2, 0))
    return svals


@pytest.mark.parametrize(
    "n, ranks", [(6, (4, 16, 16, 16, 4)), (16, (4,) * 15)], ids=["ising-n6", "online-n16"]
)
def test_geometry_spectra_match_svd_sweep(n, ranks):
    # The iterate shapes of the benchmark's ising-n6 and online-n16 workloads.
    base = tt.left_orthogonalize(tt.random_tt((4,) * n, ranks, np.random.default_rng(n)))
    want = svd_sweep_spectra(base.cores)
    for got, s in zip(manifold.TangentGeometry(base).singular_values, want, strict=True):
        np.testing.assert_allclose(got, s, rtol=0, atol=1e-12 * s[0])


@pytest.mark.parametrize(
    "n, ranks", [(6, (4, 16, 16, 16, 4)), (16, (4,) * 15)], ids=["ising-n6", "online-n16"]
)
def test_lazy_singular_values_bit_equal_to_eager_list(monkeypatch, n, ranks):
    # The spectra are computed on first read, by the values-only SVDs of the
    # sweep's factors that an eager list would hold, and kept.
    base = tt.left_orthogonalize(tt.random_tt((4,) * n, ranks, np.random.default_rng(n)))
    calls = []
    svd = tt._svd
    monkeypatch.setattr(tt, "_svd", lambda a, *a2, **kw: calls.append(a.shape) or svd(a, *a2, **kw))
    geom = manifold.TangentGeometry(base)
    assert calls == []
    got = geom.singular_values
    assert geom.singular_values is got and calls == [(r, r) for r in ranks]
    want = [svd(r, compute_uv=False) for r in tt.right_qr_sweep(base.cores)[1]]
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(1, 16),
    tall=st.integers(1, 4),
    decades=st.floats(0.0, 15.0),
    grading=st.sampled_from(["geometric", "one small", "random"]),
    lower=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(r=16, tall=4, decades=11.0, grading="one small", lower=1.0, seed=0)
@example(r=2, tall=1, decades=11.9, grading="geometric", lower=1.0, seed=1)
@example(r=1, tall=1, decades=15.0, grading="one small", lower=0.0, seed=2)
def test_certificate_never_certifies_what_the_svd_rejects(r, tall, decades, grading, lower, seed):
    # Factors of graded spectra from 1 down to 10^-decades, by the QR of a
    # tall matrix, plus a strictly lower part of up to r eps |R|_F: whatever
    # the certificate certifies, the SVD's ratio test passes.
    rng = np.random.default_rng(seed)
    if grading == "geometric":
        s = np.logspace(0.0, -decades, r)
    elif grading == "one small":
        s = np.ones(r)
        s[-1] = 10.0**-decades
    else:
        s = 10.0 ** -(decades * np.sort(rng.uniform(size=r)))
    u = np.linalg.qr(rng.standard_normal((tall * r, r)))[0]
    v = np.linalg.qr(rng.standard_normal((r, r)))[0]
    f = tt._householder(np.dot(u * s, v.T))[1]
    noise = np.tril(rng.uniform(-1.0, 1.0, size=(r, r)), -1)
    noise *= lower * r * np.finfo(float).eps * np.linalg.norm(f) / max(np.linalg.norm(noise), 1.0)
    f += noise
    if manifold._certified(f):
        got = tt._svd(f, compute_uv=False)
        assert got[-1] / got[0] >= manifold.DEGENERATE_TOL


@pytest.mark.parametrize("r", [2, 4, 16])
def test_certificate_certifies_well_conditioned_factors(r):
    # Not vacuous: a factor whose smallest singular value is 1e-10 of its
    # others is certified, one at 1e-12 is not; a 1 x 1 factor unless zero.
    assert manifold._certified(np.array([[1e-300]]))
    rng = np.random.default_rng(r)
    u = np.linalg.qr(rng.standard_normal((4 * r, r)))[0]
    for small, want in ((1e-10, True), (1e-12, False)):
        s = np.ones(r)
        s[-1] = small
        assert manifold._certified(tt._householder(u * s)[1]) is want
    assert not manifold._certified(np.zeros((r, r)))


def test_ttsvd_rejects_inf_input():
    # With vectors, dgesdd never returns on a matrix holding inf.
    x = np.random.default_rng(0).standard_normal((4, 4, 4))
    x[0, 1, 0] = np.inf
    with pytest.raises(np.linalg.LinAlgError):
        tt.ttsvd(x, (2, 2))


@SWEEP_PROPS
@given(alpha=st.sampled_from([-1.0, 0.0, 0.5, 3.0]), **TT_CASES)
@edge_cases(alpha=0.5)
def test_tt_axpy_matches_dense(alpha, n, m, cap, seed):
    a, rng = tt_case(n, m, cap, seed)
    b = tt.random_tt(a.mode_dims, [max(1, r - 1) for r in a.ranks], rng)
    want = alpha * tt.tt_dense(a) + tt.tt_dense(b)
    got = tt.tt_dense(tt.tt_axpy(alpha, a, b))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@SWEEP_PROPS
@given(eta=st.sampled_from([0.0, 1e-2, 0.7]), **TT_CASES)
@edge_cases(eta=0.7)
def test_tangent_step_matches_dense(eta, n, m, cap, seed):
    base, rng = tt_case(n, m, cap, seed)
    geom = manifold.TangentGeometry(base)
    right = geom.right_cores
    xcores = [rng.standard_normal(c.shape) for c in base.cores]
    v = manifold.TangentVector(geom, xcores)
    # The ambient tangent tensor is the sum of the chains [U.., X_k, R..].
    ambient = sum(
        tt.tt_dense(tt.TtTensor([*base.cores[:k], xcores[k], *right[k + 1 :]]))
        for k in range(n)
    )
    got = tt.tt_dense(tangent_to_tt(v))
    np.testing.assert_allclose(got, ambient, rtol=0, atol=1e-12 * np.abs(ambient).max())
    want = tt.tt_dense(base) - eta * ambient
    got = tt.tt_dense(tangent_step(v, eta))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def dense_ksl(y, a, ranks):
    """Projector-splitting retraction of the dense step ``a`` at the foot point ``y``.

    ``Ũ^{<=k}`` is the QR of ``(Ũ^{<=k-1} Ũ^{<=k-1 T} (x) I) A_(k) V_k^T``, with
    ``A_(k)`` the k-th separation of ``a`` and ``V_k`` the top ``r_k`` right
    singular vectors of ``y``'s; the result is ``Ũ^{<=n-1} Ũ^{<=n-1 T} A``.
    """
    dims = y.shape
    flat = a.reshape(-1, order="F")
    q = np.ones((1, 1))
    for k, r in enumerate(ranks):
        x = flat.reshape(q.shape[0], -1, order="F")
        x = (q @ (q.T @ x)).reshape(q.shape[0] * dims[k], -1, order="F")
        vh = np.linalg.svd(y.reshape(x.shape[0], -1, order="F"), full_matrices=False)[2]
        q = np.linalg.qr(x @ vh[:r].T)[0]
    x = flat.reshape(q.shape[0], -1, order="F")
    return (q @ (q.T @ x)).reshape(dims, order="F")


def dense_distance(a, b):
    # A dense oracle, independent of the QR sweep that tt_distance runs.
    return float(np.linalg.norm(tt.tt_dense(a) - tt.tt_dense(b)))


def unit_step(n, m, cap, seed):
    """Unit-norm foot point and a unit-norm tangent vector at it."""
    base, rng = tt_case(n, m, cap, seed)
    base = tt.left_orthogonalize(tt.tt_scale(1.0 / tt.tt_norm(base), base))
    geom = manifold.TangentGeometry(base)
    v = project_all(geom, rng.standard_normal(base.mode_dims))
    scale = 1.0 / tt.tt_norm(tangent_to_tt(v))
    return base, manifold.TangentVector(geom, [scale * c for c in v.variation_cores])


@SWEEP_PROPS
@given(eta=st.sampled_from([1e-3, 1e-1, 0.7]), **TT_CASES)
@edge_cases(eta=0.1)
def test_ksl_retract_matches_dense_oracle(eta, n, m, cap, seed):
    base, v = unit_step(n, m, cap, seed)
    y = tt.tt_dense(base)
    want = dense_ksl(y, y - eta * tt.tt_dense(tangent_to_tt(v)), base.ranks)
    got = tt.tt_dense(manifold.ksl_retract(v, eta))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@SWEEP_PROPS
@given(eta=st.sampled_from([1e-2, 0.3]), **TT_CASES)
@edge_cases(eta=0.3)
def test_ksl_retract_left_orthogonal_exact_ranks_identity_at_zero(eta, n, m, cap, seed):
    base, v = unit_step(n, m, cap, seed)
    out = manifold.ksl_retract(v, eta)
    assert out.ranks == base.ranks
    assert out.left_orthogonal
    for c in out.cores[:-1]:
        assert orthonormality_error(c.reshape(-1, c.shape[2])) <= 1e-12
    assert dense_distance(manifold.ksl_retract(v, 0.0), base) <= 1e-14


@SWEEP_PROPS
@given(**TT_CASES)
@edge_cases()
def test_ksl_retract_gap_to_ttsvd_is_third_order(n, m, cap, seed):
    # Both are second-order retractions, so they differ at O(eta^3): the gap
    # shrinks 1000x per decade of eta, or sits at the rounding floor when
    # the ranks are at the feasibility bound and both are exact.
    base, v = unit_step(n, m, cap, seed)
    gaps = [
        dense_distance(
            manifold.ksl_retract(v, eta),
            tt.ttsvd(tangent_step(v, eta), base.ranks),
        )
        for eta in (1e-2, 1e-3)
    ]
    assert gaps[1] <= max(gaps[0] / 300.0, 1e-13)
