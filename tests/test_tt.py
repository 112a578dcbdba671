"""Tests for the tensor-train kernel, checked against dense oracles."""

import sys
import threading
from functools import partial

import numpy as np
import pytest

from ttqst import manifold, states, tt


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
    """Independent dense contraction: loop over all entries, chaining core slices."""
    out = np.zeros(t.mode_dims)
    for idx in np.ndindex(*t.mode_dims):
        v = t.cores[0][0, idx[0], :]
        for k in range(1, t.n):
            v = v @ t.cores[k][:, idx[k], :]
        out[idx] = v[0]
    return out


def left_part(t, k):
    """Oracle: the k-th left part ``T^{<=k}`` of shape ``(prod(dims[:k]), r_k)``,
    rows first-index-fastest."""
    if not 1 <= k <= t.n - 1:
        raise tt.TtError(f"cut {k} out of range")
    sz = int(np.prod(t.mode_dims[:k])) * t.ranks[k - 1]
    if sz > tt.PART_CAP:
        raise tt.TtError(f"left part at cut {k} has {sz} entries, above cap {tt.PART_CAP}")
    x = t.cores[0][0]
    for j in range(1, k):
        x = np.tensordot(x, t.cores[j], axes=(x.ndim - 1, 0))
        x = x.reshape(-1, x.shape[-1], order="F")
    return x


def right_part(t, k):
    """Oracle: the (k+1)-th right part ``T^{>=k+1}`` of shape ``(r_k, prod(dims[k:]))``,
    columns first-index-fastest."""
    if not 1 <= k <= t.n - 1:
        raise tt.TtError(f"cut {k} out of range")
    sz = int(np.prod(t.mode_dims[k:])) * t.ranks[k - 1]
    if sz > tt.PART_CAP:
        raise tt.TtError(f"right part at cut {k} has {sz} entries, above cap {tt.PART_CAP}")
    x = t.cores[-1][:, :, 0]
    for j in range(t.n - 2, k - 1, -1):
        c = t.cores[j]
        x = np.tensordot(c, x, axes=(2, 0))
        x = x.reshape(c.shape[0], -1, order="F")
    return x


def oracle_per_cut(t, k):
    """Oracle: cut k's two incoherence ratios, from orthonormal bases of its parts.

    The row norms of an orthonormal basis of a column space do not depend on
    the basis, so a QR of each full-rank part gives them.
    """
    r = t.ranks[k - 1]
    bases = (np.linalg.qr(left_part(t, k))[0], np.linalg.qr(right_part(t, k).T)[0])
    return tuple(np.sqrt(q.shape[0] / r) * np.max(np.linalg.norm(q, axis=1)) for q in bases)


def dense_spectra(t):
    """Oracle: singular values of the dense separations at cuts 1..n-1."""
    x = tt.tt_dense(t)
    return [
        np.linalg.svd(x.reshape(int(np.prod(t.mode_dims[:k])), -1, order="F"), compute_uv=False)
        for k in range(1, t.n)
    ]


def dense_lambda_min(t):
    """Oracle: smallest r_k-th separation singular value over all cuts."""
    return float(min(s[r - 1] for s, r in zip(dense_spectra(t), t.ranks)))


def dense_cond(t):
    """Oracle: largest separation singular value over ``dense_lambda_min``."""
    return float(max(s[0] for s in dense_spectra(t))) / dense_lambda_min(t)


def sweep_spectra(t):
    """The separation spectra of ``t`` as the tangent geometry's one QR sweep reads them."""
    return manifold.TangentGeometry(tt.left_orthogonalize(t)).singular_values


def test_tt_entry_all_ones():
    cores = [np.ones((1, 3, 1)), np.ones((1, 3, 1)), np.ones((1, 3, 1))]
    t = tt.TtTensor(cores)
    assert tt.tt_entries(t, [(0, 1, 2)])[0] == 1.0


def test_tt_entry_zero_core():
    cores = [np.ones((1, 3, 1)), np.zeros((1, 3, 1)), np.ones((1, 3, 1))]
    t = tt.TtTensor(cores)
    assert tt.tt_entries(t, [(2, 0, 1)])[0] == 0.0


def test_tt_entry_matches_dense():
    rng = np.random.default_rng(0)
    t = random_tt(rng)
    idx = np.array(list(np.ndindex(*t.mode_dims)))
    np.testing.assert_allclose(
        tt.tt_entries(t, idx), dense_oracle(t)[tuple(idx.T)], rtol=0, atol=1e-12
    )


def test_tt_entries_batch():
    rng = np.random.default_rng(1)
    t = random_tt(rng, dims=(4, 4, 4, 4), ranks=(2, 3, 2))
    idx = rng.integers(0, 4, size=(50, 4))
    vals = tt.tt_entries(t, idx)
    np.testing.assert_allclose(vals, dense_oracle(t)[tuple(idx.T)], rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
def test_blocked_tt_entries_bit_equal_to_one_pass_chain(order):
    # Above CHUNK_ROWS rows the chain runs block by block; every entry must
    # come out as in one pass over the whole batch.  Stream draws arrive in
    # F order, arrays built row by row in C order.
    rng = np.random.default_rng(3)
    t = random_tt(rng, dims=(4, 4, 4, 4, 4), ranks=(3, 4, 4, 2))
    rows = 2 * tt.CHUNK_ROWS + 123
    idx = np.asarray(rng.integers(0, 4, size=(rows, t.n)), order=order)
    v = t.cores[0][0, idx[:, 0], :]
    for k, core in enumerate(t.cores[1:], start=1):
        r0, m, r1 = core.shape
        v = (v @ core.reshape(r0, m * r1)).reshape(rows, m, r1)[np.arange(rows), idx[:, k]]
    assert tt.tt_entries(t, idx).tobytes() == v[:, 0].tobytes()


def integer_tt(rng, dims, ranks):
    """TT with small integer entries, so every product and sum of a chain is exact.

    Exact arithmetic makes a bit-for-bit comparison with an einsum oracle
    test the row selection alone, whatever order each side sums in.
    """
    rk = (1, *ranks, 1)
    return tt.TtTensor(
        [rng.integers(-3, 4, size=(rk[k], m, rk[k + 1])).astype(float) for k, m in enumerate(dims)]
    )


def einsum_chain_step(v, core, col):
    """Oracle: row ``b`` is ``v[b] @ core[:, col[b], :]``, by einsum over the batch."""
    return np.einsum("bi,bij->bj", v, core[:, col, :].transpose(1, 0, 2))


def batch_with_repeats(rng, dims, rows, dtype):
    """``rows`` multi-indices drawn from a pool of ``rows // 2`` distinct ones."""
    pool = rng.integers(0, dims, size=(max(1, rows // 2), len(dims)))
    return pool[rng.integers(0, pool.shape[0], size=rows)].astype(dtype)


CHAIN_DIMS = {"mixed": ((9, 4, 16), (3, 4)), "qubits": ((4, 4, 4, 4, 4), (2, 4, 4, 2))}


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
@pytest.mark.parametrize("rows", [1, 20, 2 * tt.CHUNK_ROWS + 123])
@pytest.mark.parametrize("case", list(CHAIN_DIMS))
def test_flat_row_chain_bit_equal_to_einsum_chain(case, rows, dtype):
    dims, ranks = CHAIN_DIMS[case]
    rng = np.random.default_rng(rows)
    t = integer_tt(rng, dims, ranks)
    idx = batch_with_repeats(rng, dims, rows, dtype)
    sel = tt._flat_rows(idx, dims)
    v = t.cores[0][0, idx[:, 0], :]
    for k, core in enumerate(t.cores[1:], start=1):
        # Each step from its own rows, so a wrong select cannot cancel out.
        w = rng.integers(-3, 4, size=(rows, core.shape[0])).astype(float)
        got = tt._chain_rows(w, core.reshape(core.shape[0], -1), core.shape[2], sel[k])
        assert got.tobytes() == einsum_chain_step(w, core, idx[:, k]).tobytes()
        v = einsum_chain_step(v, core, idx[:, k])
    assert tt.tt_entries(t, idx).tobytes() == v[:, 0].tobytes()


SELECTOR_DIMS = (4, 9, 16, 4)


def selector_batch(rows, dtype, seed=0):
    return np.random.default_rng(seed).integers(0, SELECTOR_DIMS, size=(rows, 4)).astype(dtype)


def kept_selector_base(dims, rows):
    """The base ``tt._selector_base`` keeps for ``(dims, rows)``, or None."""
    hits = tt._selector_base.cache_info().hits
    base = tt._selector_base(dims, rows)
    return base if tt._selector_base.cache_info().hits > hits else None


def test_kept_selector_base_is_read_only():
    idx = selector_batch(20, np.uint8)
    sel = tt._flat_rows(idx, SELECTOR_DIMS)
    base = kept_selector_base(SELECTOR_DIMS, 20)
    assert base is not None
    with pytest.raises(ValueError, match="read-only"):
        base[0, 0] = 1
    # The selector itself is a fresh, writeable array over the kept base.
    assert sel.flags.writeable and not np.shares_memory(sel, base)
    np.testing.assert_array_equal(base, np.multiply.outer(SELECTOR_DIMS, np.arange(20)))


def test_selector_bases_differ_per_dims_and_rows():
    other = (4, 9, 16, 5)
    keys = [(SELECTOR_DIMS, 20), (SELECTOR_DIMS, 21), (other, 20)]
    bases = []
    for dims, rows in keys:
        idx = selector_batch(rows, np.int64)
        want = np.arange(rows) * np.array(dims)[:, None] + idx.T
        # Twice: the second call reads the kept base.
        for _ in range(2):
            np.testing.assert_array_equal(tt._flat_rows(idx, dims), want)
        base = kept_selector_base(dims, rows)
        np.testing.assert_array_equal(base, np.multiply.outer(dims, np.arange(rows)))
        bases.append(base)
    assert len({id(b) for b in bases}) == len(keys)
    assert not any(np.shares_memory(a, b) for a, b in zip(bases, bases[1:] + bases[:1]))
    # Only the last base asked for is kept.
    assert tt._selector_base.cache_info().currsize == 1
    assert kept_selector_base(SELECTOR_DIMS, 20) is None


def test_selector_equal_for_every_index_dtype():
    want = tt._flat_rows(selector_batch(20, np.int64), SELECTOR_DIMS)
    assert want.dtype == np.intp
    for dtype in (np.uint8, np.int64, np.uint64):
        got = tt._flat_rows(selector_batch(20, dtype), SELECTOR_DIMS)
        assert got.dtype == np.intp and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_selector_range_check_with_kept_base(dtype):
    idx = selector_batch(20, dtype)
    # The first call keeps the base that the second reads.
    tt._flat_rows(idx, SELECTOR_DIMS)
    idx[7, 2] = 16
    with pytest.raises(tt.TtError, match=r"index 16 at site 2 outside \[0, 16\)"):
        tt._flat_rows(idx, SELECTOR_DIMS)


def test_selector_bases_kept_within_byte_budget():
    # A base above the budget is built per call and not kept; the one kept
    # base never holds more than the budget.
    rows = tt.SELECTOR_CACHE_BYTES // (8 * len(SELECTOR_DIMS)) + 1
    tt._flat_rows(selector_batch(20, np.uint8), SELECTOR_DIMS)
    info = tt._selector_base.cache_info()
    idx = selector_batch(rows, np.uint8)
    np.testing.assert_array_equal(tt._flat_rows(idx, SELECTOR_DIMS),
                                  np.arange(rows) * np.array(SELECTOR_DIMS)[:, None] + idx.T)
    assert tt._selector_base.cache_info() == info
    assert kept_selector_base(SELECTOR_DIMS, 20) is not None
    for b in range(rows // 4, rows, rows // 8):
        tt._flat_rows(selector_batch(b, np.uint8), SELECTOR_DIMS)
        base = kept_selector_base(SELECTOR_DIMS, b)
        assert base is not None and base.nbytes <= tt.SELECTOR_CACHE_BYTES


def test_selector_bases_shared_between_threads():
    # Threads that share the kept base, replacing each other's, each get
    # their own batch's selector, and only bases within the budget reach
    # the cache, which keeps one.
    errors = []
    within = []
    limit = tt.SELECTOR_CACHE_BYTES // (8 * len(SELECTOR_DIMS))

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            count = 0
            for _ in range(200):
                rows = int(rng.integers(1, 2 * limit))
                count += rows <= limit
                idx = selector_batch(rows, np.uint8, seed=int(rng.integers(1 << 30)))
                want = np.arange(rows) * np.array(SELECTOR_DIMS)[:, None] + idx.T
                if not np.array_equal(tt._flat_rows(idx, SELECTOR_DIMS), want):
                    errors.append(f"wrong selector in thread {seed}")
            within.append(count)
        except Exception as exc:  # reported below: a thread's error would be lost
            errors.append(repr(exc))

    before = tt._selector_base.cache_info()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    after = tt._selector_base.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == sum(within)
    assert after.currsize == 1


def test_entry_plan_kept_on_the_tensor():
    rng = np.random.default_rng(4)
    t = random_tt(rng, dims=(4, 9, 4), ranks=(3, 2))
    idx = rng.integers(0, (4, 9, 4), size=(30, 3))
    want = tt.tt_entries(tt.TtTensor([c.copy() for c in t.cores]), idx)
    first = tt.tt_entries(t, idx)
    plan = t._plan
    assert tt.tt_entries(t, idx).tobytes() == first.tobytes() == want.tobytes()
    assert t._plan is plan
    rows, steps, block = plan
    assert rows.base is not None and not rows.flags.writeable
    assert [(m.shape, r1) for m, r1 in steps] == [((3, 18), 2), ((2, 4), 1)]
    assert block == tt.ENTRY_BLOCK_BYTES // (8 * 18)


def test_tt_dense_matches_entrywise():
    rng = np.random.default_rng(2)
    t = random_tt(rng)
    x = tt.tt_dense(t)
    np.testing.assert_allclose(x, dense_oracle(t), atol=1e-12)


def tensordot_dense(t):
    """Oracle: contract by ``tensordot`` and refold each step's result in F order."""
    x = t.cores[0][0]
    for k in range(1, t.n):
        x = np.tensordot(x, t.cores[k], axes=(x.ndim - 1, 0))
        x = x.reshape(-1, x.shape[-1], order="F")
    return x[:, 0].reshape(t.mode_dims, order="F")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_tt_dense_bit_equal_to_tensordot_oracle(n, d, rank):
    # The C-order GEMM chain sums the same products in the same order as the
    # F-order tensordot chain, so the two agree to the bit.
    rng = np.random.default_rng(100 * n + 10 * d + rank)
    t = random_tt(rng, dims=(d * d,) * n, ranks=(rank,) * (n - 1))
    x = tt.tt_dense(t)
    assert x.shape == t.mode_dims
    np.testing.assert_array_equal(x, tensordot_dense(t))


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
        assert tl.left_orthogonal


def test_left_orthogonal_norm_is_last_core():
    rng = np.random.default_rng(8)
    t = tt.left_orthogonalize(random_tt(rng))
    assert abs(tt.tt_norm(t) - np.linalg.norm(t.cores[-1])) < 1e-12


def test_left_orthogonalize_zero():
    cores = [np.zeros((1, 4, 2)), np.zeros((2, 4, 2)), np.zeros((2, 4, 1))]
    t = tt.TtTensor(cores)
    tl = tt.left_orthogonalize(t)
    assert tt.tt_norm(tl) == 0.0
    assert tl.left_orthogonal


@pytest.mark.parametrize("dims, ranks, kept", [
    ((4, 4, 4), (2, 3), (2, 3)),
    # Over-full ranks shrink to the QR width, min(r_{k-1} * m_k, r_k).
    ((2, 3, 2), (5, 4), (2, 4)),
    ((4, 4, 4), (1, 1), (1, 1)),
    ((4, 4), (3,), (3,)),
    # Qutrit coefficient modes, d^2 = 9.
    ((9, 9, 9), (4, 3), (4, 3)),
])
def test_left_orthogonalize_by_mirrored_sweep(dims, ranks, kept):
    t = random_tt(np.random.default_rng(9), dims=dims, ranks=ranks)
    tl = tt.left_orthogonalize(t)
    assert tl.left_orthogonal and tl.ranks == kept and tl.mode_dims == t.mode_dims
    # C-contiguous cores, so every unfolding is a view.
    assert all(c.flags.c_contiguous for c in tl.cores)
    for c in tl.cores[:-1]:
        assert tt.is_left_orthogonal(c)
    np.testing.assert_allclose(tt.tt_dense(tl), tt.tt_dense(t), rtol=0,
                               atol=1e-12 * tt.tt_norm(t))


@pytest.mark.parametrize("site", [0, 1, 2])
def test_left_sweep_tells_overflow_from_non_finite_input(site):
    # The messages of right_qr_sweep, checked once per sweep: a column of
    # length above the largest double overflows a factor although every
    # entry is finite; a NaN in any core, the last one included, is
    # non-finite input.  tt_distance passes both through.
    ones = tt.TtTensor([np.ones((1, 4, 2)), np.ones((2, 4, 2)), np.ones((2, 4, 1))])
    huge = tt.TtTensor([np.full((1, 4, 2), 1e308), *ones.cores[1:]])
    cores = [c.copy() for c in ones.cores]
    cores[site][0, 1, 0] = np.nan
    bad = tt.TtTensor(cores)
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (tt.left_orthogonalize, partial(tt.tt_distance, b=ones)):
            with pytest.raises(np.linalg.LinAlgError, match="^QR overflowed on finite input$"):
                run(huge)
            with pytest.raises(
                np.linalg.LinAlgError, match="^QR of a matrix with non-finite entries$"
            ):
                run(bad)


def test_right_orthogonalize_preserves_tensor():
    rng = np.random.default_rng(9)
    t = random_tt(rng)
    cores = tt.right_qr_sweep(t.cores)[0]
    np.testing.assert_allclose(tt.tt_dense(tt.TtTensor(cores)), tt.tt_dense(t), atol=1e-10)
    for k in range(1, t.n):
        ru = cores[k].reshape(cores[k].shape[0], -1)
        np.testing.assert_allclose(ru @ ru.T, np.eye(ru.shape[0]), atol=1e-12)


def test_left_right_part_product_is_separation():
    rng = np.random.default_rng(10)
    t = random_tt(rng, dims=(4, 4, 4), ranks=(2, 3))
    x = tt.tt_dense(t)
    for k in (1, 2):
        sep = x.reshape(int(np.prod(t.mode_dims[:k])), -1, order="F")
        prod = left_part(t, k) @ right_part(t, k)
        np.testing.assert_allclose(prod, sep, atol=1e-10)


def test_left_part_cut1_is_core_fiber():
    rng = np.random.default_rng(11)
    t = random_tt(rng)
    np.testing.assert_allclose(left_part(t, 1), t.cores[0][0])


def test_left_part_orthonormal_after_sweep():
    rng = np.random.default_rng(12)
    t = tt.left_orthogonalize(random_tt(rng))
    for k in (1, 2):
        lp = left_part(t, k)
        np.testing.assert_allclose(lp.T @ lp, np.eye(lp.shape[1]), atol=1e-12)


def test_separation_singular_values_match_dense():
    rng = np.random.default_rng(13)
    for dims, ranks in [((4, 4, 4), (2, 2)), ((4, 4, 4, 4), (3, 4, 3))]:
        t = random_tt(rng, dims, ranks)
        x = tt.tt_dense(t)
        for k in range(1, len(dims)):
            sep = x.reshape(int(np.prod(dims[:k])), -1, order="F")
            s_dense = np.linalg.svd(sep, compute_uv=False)
            s_tt = sweep_spectra(t)[k - 1]
            np.testing.assert_allclose(s_tt, s_dense[: len(s_tt)], atol=1e-10)


def test_rank1_unit_norm_separations():
    cores = [np.full((1, 4, 1), 0.5), np.full((1, 4, 1), 0.5)]
    t = tt.TtTensor(cores)  # norm 1
    for k in (1,):
        s = sweep_spectra(t)[k - 1]
        np.testing.assert_allclose(s, [1.0], atol=1e-12)


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


@pytest.mark.parametrize("ranks", [(5, 2), (4, 16), (4, 5), (0, 2)])
def test_ttsvd_paths_share_one_rank_feasibility_rule(ranks):
    # The dense and TT paths reject the same ranks with the same message: a
    # rank above the bound of either side of its cut, or below 1.
    t = random_tt(np.random.default_rng(21), dims=(4, 4, 4), ranks=(4, 4))
    messages = []
    for x in (tt.tt_dense(t), t):
        with pytest.raises(tt.TtError) as info:
            tt.ttsvd(x, ranks)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


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


@pytest.mark.parametrize("dims, ranks", [
    ((4, 4, 4), (2, 3)), ((4, 4), (3,)), ((9, 9, 9), (3, 2)), ((4,) * 6, (2, 3, 4, 3, 2)),
])
def test_distance_matches_dense_and_resolves_tiny_differences(dims, ranks):
    rng = np.random.default_rng(26)
    a, b = (random_tt(rng, dims=dims, ranks=ranks) for _ in range(2))
    d = np.linalg.norm(tt.tt_dense(a) - tt.tt_dense(b))
    assert abs(tt.tt_distance(a, b) - d) <= 1e-12 * d
    # c = a + s * b, with |c - a| = 1e-12 * |a| up to the rounding of s * b's
    # first core: far below what the norm identity could tell from 0.
    gap = 1e-12 * tt.tt_norm(a)
    c = tt.tt_axpy(gap / tt.tt_norm(b), b, a)
    assert abs(tt.tt_distance(a, c) - gap) <= 1e-3 * gap
    assert abs(tt.tt_distance(c, a) - gap) <= 1e-3 * gap


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
        kappa = dense_cond(t)
        assert rep.incoherence <= rep.spikiness * kappa + 1e-9
        assert rep.spikiness <= np.sqrt(max(t.ranks)) * kappa * rep.incoherence**2 + 1e-9


COHERENCE_CASES = {
    "qutrits": ((9, 9, 9), (3, 4)),
    "rank 1": ((4, 4, 4, 4), (1, 1, 1)),
    "n=2": ((4, 4), (3,)),
}


@pytest.mark.parametrize("case", list(COHERENCE_CASES))
def test_coherence_report_matches_oracle_parts(case):
    dims, ranks = COHERENCE_CASES[case]
    t = random_tt(np.random.default_rng(28), dims, ranks)
    rep = tt.coherence_report(t)
    want = [oracle_per_cut(t, k) for k in range(1, t.n)]
    np.testing.assert_allclose(rep.per_cut, want, rtol=1e-12, atol=0)
    assert rep.incoherence == pytest.approx(np.max(want), rel=1e-12)
    x = dense_oracle(t)
    assert not rep.linf_is_bound
    assert rep.spikiness == pytest.approx(
        np.sqrt(x.size) * np.max(np.abs(x)) / np.linalg.norm(x), rel=1e-12
    )


def test_coherence_report_reads_the_minimal_form():
    # A stacked sum carries ranks (6, 6) where the separation ranks are at
    # most (4, 4): both forms are one tensor and read one report.
    rng = np.random.default_rng(29)
    s = tt.tt_axpy(1.0, random_tt(rng, ranks=(3, 3)), random_tt(rng, ranks=(3, 3)))
    exact = tt.ttsvd(s, (4, 4))
    assert s.ranks == (6, 6) and tt.tt_distance(s, exact) < 1e-12 * tt.tt_norm(s)
    got, want = tt.coherence_report(s), tt.coherence_report(exact)
    np.testing.assert_allclose(got.per_cut, want.per_cut, rtol=0, atol=1e-10)
    assert got.incoherence == pytest.approx(want.incoherence, abs=1e-10)
    np.testing.assert_allclose(
        want.per_cut, [oracle_per_cut(exact, k) for k in (1, 2)], rtol=1e-12, atol=0
    )


def test_coherence_report_bounds_max_entry_above_dense_cap():
    # n=11 qubits: 4^11 entries, above the dense cap but every part within
    # the part cap, so the max entry is bounded off the cuts.
    t = states.pure_state_coeff(states.random_mps(11, 2, 2, seed=5))
    assert tt.DENSE_CAP < t.size and max(t.ranks) * 4**10 <= tt.PART_CAP
    rep = tt.coherence_report(t)
    assert rep.linf_is_bound
    want = [oracle_per_cut(t, k) for k in range(1, t.n)]
    np.testing.assert_allclose(rep.per_cut, want, rtol=1e-12, atol=0)
    assert rep.incoherence == pytest.approx(np.max(want), rel=1e-12)
    linf = np.max(np.abs(left_part(t, 5) @ right_part(t, 5)))
    assert rep.spikiness >= np.sqrt(t.size) * linf / tt.tt_norm(t) * (1 - 1e-12)


def test_coherence_report_skips_cuts_above_part_cap():
    # n=12 qubits at bond 2 (ranks 4): the right part of cut 1 and the left
    # part of cut 11 have 4^12 entries, above the part cap; cuts 2 and 10
    # sit exactly at it.
    t = states.pure_state_coeff(states.random_mps(12, 2, 2, seed=5))
    assert set(t.ranks) == {4} and 4**12 > tt.PART_CAP == 4**11
    rep = tt.coherence_report(t)
    assert rep.per_cut[0] == (None, None) and rep.per_cut[-1] == (None, None)
    assert all(None not in cut for cut in rep.per_cut[1:-1])
    assert rep.incoherence is None
    for k in (2, 6, 10):
        np.testing.assert_allclose(rep.per_cut[k - 1], oracle_per_cut(t, k), rtol=1e-12, atol=0)
    assert rep.linf_is_bound and np.isfinite(rep.spikiness)


def test_coherence_zero_tensor_raises():
    cores = [np.zeros((1, 4, 1)), np.zeros((1, 4, 1))]
    with pytest.raises(tt.TtError):
        tt.coherence_report(tt.TtTensor(cores))


# (mode size, mode count, rank) of tensors whose entry count is above 2^63.
BIG_SHAPES = {"qubits-32": (4, 32, 2), "qubits-64": (4, 64, 2), "qutrits-20": (9, 20, 3)}


@pytest.mark.parametrize("case", list(BIG_SHAPES))
def test_sizes_exact_past_int64(case):
    # An int64 product of the mode sizes wraps here: 4^32 reads 0 and 9^20
    # reads negative, and the rank bound of a cut reads 0.
    m, n, r = BIG_SHAPES[case]
    ranks = (r,) * (n - 1)
    t = tt.random_tt((m,) * n, ranks, np.random.default_rng(n))
    assert t.size == m**n
    assert tt.ttsvd(t, ranks).ranks == ranks
    rep = tt.coherence_report(t)
    assert rep.linf_is_bound and rep.incoherence is None
    assert 1.0 <= rep.spikiness < np.inf


def test_dense_cap_enforced():
    cores = [np.ones((1, 4, 1)) for _ in range(11)]  # 4^11 > 2^20
    t = tt.TtTensor(cores)
    with pytest.raises(tt.TtError):
        tt.tt_dense(t)


def test_lambda_min_max():
    # lambda_min and kappa off the geometry's sweep, as the solver trace reads
    # lambda_min, match the dense separations and the dense oracles.
    rng = np.random.default_rng(27)
    t = random_tt(rng, dims=(4, 4, 4), ranks=(2, 2))
    x = tt.tt_dense(t)
    svals = []
    for k in (1, 2):
        sep = x.reshape(int(np.prod(x.shape[:k])), -1, order="F")
        svals.append(np.linalg.svd(sep, compute_uv=False))
    lmin = min(s[1] for s in svals)
    kappa = max(s[0] for s in svals) / lmin
    spectra = sweep_spectra(t)
    sweep_lmin = min(s[-1] for s in spectra)
    assert abs(sweep_lmin - lmin) < 1e-10
    assert max(s[0] for s in spectra) / sweep_lmin == pytest.approx(kappa, rel=1e-10)
    assert dense_lambda_min(t) == lmin and dense_cond(t) == kappa
