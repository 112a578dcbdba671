"""Real tensor trains: storage, contraction, orthogonalization, TTSVD, diagnostics.

A tensor train (TT) stores an n-mode real tensor as a chain of order-3 cores.
Cores unfold in C order (last index fastest), on views: core ``A`` of shape
``(r0, m, r1)`` unfolds to ``A.reshape(r0 * m, r1)`` or ``A.reshape(r0, m * r1)``,
and a dense tensor is the C-order array ``X[i_1, ..., i_n]``.  The other
modules follow the same order; Fortran order remains only in the TTR1/TTC1
byte layout of ``serialize``.  Every 2-D product is the ``ndarray.dot``
method: for float64 matrices it runs the same GEMM as ``np.dot`` and ``@``,
to the same bytes, without ``np.dot``'s ``__array_function__`` dispatch
(about 0.12 us a call) or the matmul ufunc's (about 0.25 us).  Sizes are
Python integers (``math.prod``), exact past 2^63 entries.

Batched entries step a chain of GEMMs and flat-row selects.  What depends
only on the tensor or the batch shape is made once: ``tt_entries`` keeps a
tensor's entry plan (its cores' unfoldings and block size) on the tensor,
and ``_flat_rows`` keeps the last read-only selector base of at most
``SELECTOR_CACHE_BYTES``.

A chain of cores, real or complex and of any order, keeps one contract,
checked by ``_chain_ranks``: at least 2 cores, boundary ranks 1, and each
core's last axis equal to the next core's first.  The ``TtTensor``
constructor checks it and that every core is order 3; ``mpo.Mps`` and
``mpo.Mpo`` check it too.  A tensor whose cores an algorithm here has just
shaped skips those checks through ``TtTensor._from_cores``, which only
freezes the cores and reads the sizes off their shapes.  The gauge is one
flag, ``TtTensor.left_orthogonal``: cores 1..n-1 are left-orthogonal.
One thin-QR sweep, ``right_qr_sweep``, runs over a chain; its mirror is
``left_orthogonalize``, and ``_check_factors`` checks every sweep's factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

# Size caps for dense materialization.  Anything above DENSE_CAP entries is
# never densified; left or right parts above PART_CAP entries are not built.
DENSE_CAP = 2**20
PART_CAP = 2**22

# Rows of a draw handled at a time: groups its random numbers and bounds its
# noise blocks.
CHUNK_ROWS = 65536

# Bytes of the widest chain step's (rows, m * r) GEMM product in one block of
# ``tt_entries``: the block's row count is derived from it, so evaluating any
# batch holds a bounded transient whatever the mode sizes and ranks.
ENTRY_BLOCK_BYTES = 2**20

# Bytes of the flat-row selector base that ``_flat_rows`` keeps between calls.
SELECTOR_CACHE_BYTES = 2**16

ORTHO_TOL = 1e-12

# Singular values below RANK_TOL * sigma_1 are treated as exact zeros when a
# truncation rank exceeds the numerical rank.
RANK_TOL = 1e-13


class TtError(ValueError):
    """Raised for invalid tensor-train inputs (shapes, ranks, indices)."""


def _householder_q(a: np.ndarray) -> np.ndarray:
    """The ``q`` of the thin QR of ``a`` by LAPACK ``dgeqrf`` + ``dorgqr``.

    ``q`` has ``min(a.shape)`` orthonormal columns.  ``dorgqr`` overwrites
    ``dgeqrf``'s reflectors, a temporary, in place; only a wide ``a`` has
    columns past its reflectors to slice off first.  Raises ``LinAlgError``
    on a LAPACK error.  Nothing checks finiteness here: ``dgeqrf`` passes
    NaN through silently, and an overflow inside it turns ``q`` NaN.
    """
    qr, tau, _, info = lapack.dgeqrf(a)
    if info == 0:
        if a.shape[0] < a.shape[1]:
            qr = qr[:, : a.shape[0]]
        q, _, info = lapack.dorgqr(qr, tau, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"QR failed (LAPACK info {info})")
    return q


def _householder(a: np.ndarray):
    """Thin QR ``a = q @ r``: ``q`` by ``_householder_q``, and ``r = q.T @ a``.

    ``r`` is upper triangular up to rounding.  Raises ``LinAlgError`` on a
    LAPACK error.  Nothing checks finiteness here, so callers check ``r``,
    which picks it up from any non-finite entry.
    """
    q = _householder_q(a)
    return q, q.T.dot(a)


def _check_factors(factors, inputs):
    """Raise ``LinAlgError`` unless every QR factor in ``factors`` is finite.

    One check per sweep.  A non-finite factor comes from a non-finite entry
    of ``inputs``, the arrays the sweep factorized, or else from an overflow
    inside the factorization; the message says which.
    """
    if not np.isfinite(np.concatenate(factors, axis=None)).all():
        if np.isfinite(np.concatenate(inputs, axis=None)).all():
            raise np.linalg.LinAlgError("QR overflowed on finite input")
        raise np.linalg.LinAlgError("QR of a matrix with non-finite entries")


def _svd(a: np.ndarray, full_matrices: bool = False, compute_uv: bool = True):
    """SVD by LAPACK ``dgesdd``; returns ``(u, s, vh)``, or ``s`` alone.

    Same factorization and arguments as numpy's ``svd``, without numpy's
    per-call overhead.  Raises ``LinAlgError`` when ``dgesdd`` reports an
    error: no convergence, or NaN input (``info = -4``).  With vectors,
    ``dgesdd`` never returns on a matrix holding ``inf``, so such input is
    rejected before LAPACK sees it; values alone come back NaN.
    """
    if compute_uv and not np.isfinite(a).all():
        raise np.linalg.LinAlgError("SVD of a matrix with non-finite entries")
    u, s, vh, info = lapack.dgesdd(a, compute_uv=compute_uv, full_matrices=full_matrices)
    if info != 0:
        raise np.linalg.LinAlgError(f"SVD did not converge (LAPACK info {info})")
    return (u, s, vh) if compute_uv else s


def _chain_ranks(cores) -> tuple:
    """The bond ranks ``r_1..r_{n-1}`` of a chain of cores, checked.

    Core k's first axis is ``r_{k-1}`` and its last ``r_k``, whatever its
    order.  Raises ``TtError`` unless there are at least 2 cores,
    ``r_0 = r_n = 1`` and each core's last axis matches the next core's first.
    """
    if len(cores) < 2:
        raise TtError(f"a chain needs at least 2 cores, got {len(cores)}")
    if cores[0].shape[0] != 1 or cores[-1].shape[-1] != 1:
        raise TtError("boundary ranks must be 1")
    for k in range(len(cores) - 1):
        if cores[k].shape[-1] != cores[k + 1].shape[0]:
            raise TtError(f"rank mismatch at bond {k + 1}: "
                          f"{cores[k].shape[-1]} vs {cores[k + 1].shape[0]}")
    return tuple([c.shape[-1] for c in cores[:-1]])


class TtTensor:
    """Real n-mode tensor in tensor-train format.

    Parameters
    ----------
    cores : sequence of ndarray
        n >= 2 order-3 arrays; core k has shape ``(r_{k-1}, mode_dims[k], r_k)``
        with ``r_0 = r_n = 1``.
    left_orthogonal : bool, optional
        Whether cores 1..n-1 are left-orthogonal.  The flag is trusted
        metadata; it is set by the operations in this library and never
        guessed.

    Core arrays are frozen (non-writeable views); instances are immutable and
    safe to share between threads.  ``tt_entries`` keeps the tensor's entry
    plan in a private slot the first time it evaluates it; two threads that
    race to build it build equal plans.
    """

    __slots__ = ("cores", "mode_dims", "ranks", "left_orthogonal", "_plan")

    def __init__(self, cores, left_orthogonal=False):
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        for c in cores:
            if c.ndim != 3:
                raise TtError(f"core must be order 3, got shape {c.shape}")
        _chain_ranks(cores)
        # Representation ranks may exceed the separation-rank bounds for
        # transient stacked forms (sums, tangent steps); minimal-form
        # feasibility is checked by ttsvd instead.
        self._freeze(cores, left_orthogonal)

    @classmethod
    def _from_cores(cls, cores, left_orthogonal) -> TtTensor:
        """The tensor of ``cores``, float64 and order 3 with chained ranks, unchecked.

        For cores whose shapes the algorithm fixed: they are frozen as in the
        constructor, and nothing else is checked or converted.
        """
        t = cls.__new__(cls)
        t._freeze(cores, left_orthogonal)
        return t

    def _freeze(self, cores, left_orthogonal):
        """Fill the slots: ``cores`` frozen, and the sizes read off their shapes."""
        for c in cores:
            c.setflags(write=False)
        self.cores = tuple(cores)
        # tuple() of a list is faster than of a generator; this runs every round.
        self.mode_dims = tuple([c.shape[1] for c in cores])
        self.ranks = tuple([c.shape[2] for c in cores[:-1]])
        self.left_orthogonal = bool(left_orthogonal)
        self._plan = None

    @property
    def n(self) -> int:
        return len(self.cores)

    @property
    def size(self) -> int:
        return math.prod(self.mode_dims)

    def __repr__(self):
        return f"TtTensor(dims={self.mode_dims}, ranks={self.ranks})"


@functools.lru_cache(maxsize=64)
def _mode_widths(dims) -> np.ndarray:
    """The mode sizes ``dims`` as a read-only ``intp`` array, made once per ``dims``."""
    width = np.array(dims, dtype=np.intp)
    width.setflags(write=False)
    return width


@functools.lru_cache(maxsize=1)
def _selector_base(dims, rows: int) -> np.ndarray:
    """``dims ⊗ arange(rows)``, read-only; the last base asked for is kept.

    ``_flat_rows`` asks the cache only for a base of at most
    ``SELECTOR_CACHE_BYTES``, which a round's draw and left chain share, and
    builds a larger one per call through ``_selector_base.__wrapped__``.
    """
    base = np.multiply.outer(_mode_widths(dims), np.arange(rows))
    base.setflags(write=False)
    return base


def _flat_rows(idx: np.ndarray, dims) -> np.ndarray:
    """Flat-row selector of a batch: ``sel[k, b] = b * m_k + idx[b, k]``, shape (n, B).

    ``idx`` is a (B, n) array of any integer dtype and ``dims`` the tuple of
    mode sizes.  Row ``sel[k, b]`` of a (B * m_k, r) unfolding is row b's
    mode ``idx[b, k]``, so one ``take`` selects a chain step's rows.  The
    selector is a fresh ``intp`` array, ``base + idx.T``, over the read-only
    base ``dims ⊗ arange(B)`` of ``_selector_base``.
    A flat row would read an index outside ``[0, m_k)`` from a neighbouring
    row, so such an index raises ``TtError`` naming its site.  The check is
    one comparison of the batch against ``dims`` (and one against 0 for a
    signed dtype); only a batch that fails it is scanned site by site.
    """
    if idx.ndim != 2 or idx.shape[1] != len(dims) or idx.dtype.kind not in "iu":
        raise TtError(f"need integer indices of shape (B, {len(dims)}), got {idx.dtype} "
                      f"{idx.shape}")
    width = _mode_widths(dims)
    if (idx >= width).any() or (idx.dtype.kind == "i" and (idx < 0).any()):
        hi = idx.max(axis=0).tolist()
        lo = idx.min(axis=0).tolist()
        for k, m in enumerate(dims):
            if lo[k] < 0 or hi[k] >= m:
                i = lo[k] if lo[k] < 0 else hi[k]
                raise TtError(f"index {i} at site {k} outside [0, {m})")
    rows = idx.shape[0]
    kept = width.nbytes * rows <= SELECTOR_CACHE_BYTES
    base = (_selector_base if kept else _selector_base.__wrapped__)(dims, rows)
    # Checked indices fit in intp, so even a uint64 batch adds in intp.
    return np.add(base, idx.T, dtype=np.intp, casting="unsafe")


def _chain_rows(v: np.ndarray, mat: np.ndarray, r1: int, sel: np.ndarray) -> np.ndarray:
    """One step of a batched chain: row ``b`` is ``v[b] @ core[:, idx[b, k], :]``.

    ``v`` is ``(B, r0)``, ``mat`` is the core's ``(r0, m * r1)`` unfolding
    and ``sel`` is row k of ``_flat_rows(idx, dims)``.  One GEMM against
    every mode slice, then a flat-row ``take``: at core-sized ranks this is
    cheaper than gathering B slices and running B one-row products, or than
    a two-array index.  It takes the unfolding, not the core, so the
    geometry's left chain steps on the unfoldings it keeps.
    """
    return v.dot(mat).reshape(-1, r1).take(sel, axis=0)


def _entry_plan(t: TtTensor):
    """``(first, steps, block)``: what ``tt_entries`` reads of ``t``, built once.

    ``first`` holds the rows ``(m_1, r_1)`` of the first core, ``steps`` each
    later core's ``(r0, m * r1)`` unfolding with its ``r1``, and ``block``
    the rows whose widest step product, ``(rows, m_k * r_k)`` float64, fits
    in ``ENTRY_BLOCK_BYTES``.  The plan is kept on ``t``; its arrays are
    views of the read-only cores, so it never goes stale.
    """
    plan = t._plan
    if plan is None:
        cores = t.cores
        steps = tuple((c.reshape(c.shape[0], -1), c.shape[2]) for c in cores[1:])
        width = max(c.shape[1] * c.shape[2] for c in cores)
        plan = t._plan = (cores[0][0], steps, max(1, ENTRY_BLOCK_BYTES // (8 * width)))
    return plan


def _chain_entries(t: TtTensor, idx: np.ndarray) -> np.ndarray:
    """Entries of ``t`` at the rows of ``idx`` by one pass of the batched chain."""
    first, steps, _ = _entry_plan(t)
    sel = _flat_rows(idx, t.mode_dims)
    v = first.take(idx[:, 0], axis=0)  # (B, r1)
    for k, (mat, r1) in enumerate(steps, start=1):
        v = _chain_rows(v, mat, r1, sel[k])
    return v[:, 0]


def tt_entries(t: TtTensor, idx: np.ndarray) -> np.ndarray:
    """Evaluate a batch of entries.

    The chain runs over blocks of rows whose widest step product,
    ``(rows, m_k * r_k)`` float64, fits in ``ENTRY_BLOCK_BYTES`` (8192 rows
    at m=4, r=4), so its transient products stay bounded in bytes whatever
    the batch size; a row's value does not depend on the block it falls in.
    The cores' unfoldings and the block size are ``t``'s entry plan
    (``_entry_plan``), made on the first call and kept; a batch of one block
    returns the chain's output as it is.

    Parameters
    ----------
    idx : ndarray of shape (B, n), of any integer dtype
        Row ``b`` is one multi-index, each index in ``[0, m_k)``, else
        ``TtError``.  A block's rows are selected by its flat-row selector,
        one ``intp`` array of the block's size, so a compact batch is never
        copied whole.
    """
    idx = np.asarray(idx)
    block = _entry_plan(t)[2]
    total = idx.shape[0]
    if total <= block:
        return _chain_entries(t, idx)
    out = np.empty(total)
    for lo in range(0, total, block):
        out[lo : lo + block] = _chain_entries(t, idx[lo : lo + block])
    return out


def _left_parts(cores):
    """The left parts ``T^{<=k}``, k = 1..n, lazily, one GEMM and no copy each.

    Part k is ``(prod(dims[:k]), r_k)``, its rows C-order over ``(i_1..i_k)``.
    Over the mirrored chain ``[c.T for c in reversed(cores)]`` the parts are
    the transposed right parts ``T^{>k}``, k = n-1..0.
    """
    x = cores[0][0]  # (m1, r1)
    yield x
    for core in cores[1:]:
        r0, m, r1 = core.shape
        x = x.dot(core.reshape(r0, m * r1)).reshape(-1, r1)
        yield x


def tt_dense(t: TtTensor) -> np.ndarray:
    """Materialize the full tensor, C-contiguous.  Only legal below the dense size cap."""
    if t.size > DENSE_CAP:
        raise TtError(f"dense materialization of {t.size} entries exceeds cap {DENSE_CAP}")
    for x in _left_parts(t.cores):
        pass
    return x.reshape(t.mode_dims)


def tt_inner(a: TtTensor, b: TtTensor) -> float:
    """Frobenius inner product via left-to-right environment contraction."""
    if a.mode_dims != b.mode_dims:
        raise TtError(f"mode dims differ: {a.mode_dims} vs {b.mode_dims}")
    env = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        half = env.T.dot(ca.reshape(ca.shape[0], -1))  # (rb, m * rc)
        env = half.reshape(-1, ca.shape[2]).T.dot(cb.reshape(-1, cb.shape[2]))
    return float(env[0, 0])


def tt_norm(t: TtTensor) -> float:
    return float(np.sqrt(max(tt_inner(t, t), 0.0)))


def tt_scale(alpha: float, t: TtTensor) -> TtTensor:
    cores = list(t.cores)
    cores[-1] = cores[-1] * float(alpha)
    return TtTensor(cores, t.left_orthogonal)


def tt_axpy(alpha: float, a: TtTensor, b: TtTensor) -> TtTensor:
    """Exact TT representation of ``alpha * a + b``; ranks add."""
    if a.mode_dims != b.mode_dims:
        raise TtError(f"mode dims differ: {a.mode_dims} vs {b.mode_dims}")
    if alpha == 0.0:
        return b
    return TtTensor(_stack_chains((a.cores[0] * float(alpha),) + a.cores[1:], b.cores))


def _stack_chains(a, b, c=None) -> list:
    """Cores of the sum of the chains ``a`` and ``b``.

    ``[a_1 b_1]``, then ``[[a_k c_k], [0 b_k]]`` (upper block zero when ``c``
    is None), then ``[a_n; b_n]``.  The stacked cores take the dtype of ``a``.
    """
    cores = [np.concatenate([a[0], b[0]], axis=2)]
    for k in range(1, len(a) - 1):
        ak, bk = a[k], b[k]
        r0, m, r1 = ak.shape
        core = np.zeros((r0 + bk.shape[0], m, r1 + bk.shape[2]), dtype=ak.dtype)
        core[:r0, :, :r1] = ak
        if c is not None:
            core[:r0, :, r1:] = c[k]
        core[r0:, :, r1:] = bk
        cores.append(core)
    cores.append(np.concatenate([a[-1], b[-1]], axis=0))
    return cores


def tt_distance(a: TtTensor, b: TtTensor) -> float:
    """Frobenius distance between two TT tensors.

    Right-orthogonalizing the stacked difference ``b - a`` by
    ``right_qr_sweep`` performs the cancellation inside backward-stable QR;
    the norm is then read off the first core with absolute error
    O(eps * (|a| + |b|)), so distances far below ``sqrt(eps) * |a|`` are
    resolved.
    """
    if a.mode_dims != b.mode_dims:
        raise TtError(f"mode dims differ: {a.mode_dims} vs {b.mode_dims}")
    first = right_qr_sweep(_stack_chains((-a.cores[0],) + a.cores[1:], b.cores))[0][0]
    return float(np.linalg.norm(first))


def left_orthogonalize(t: TtTensor) -> TtTensor:
    """Left-to-right thin-QR sweep: ``right_qr_sweep`` over the mirrored chain.

    The mirror ``[c.transpose(2, 1, 0) for c in reversed(cores)]`` turns left
    unfoldings into transposed right ones, so its right-orthogonal cores,
    mirrored back, are left-orthogonal; they are copied C-contiguous, so each
    reshape of them stays a view.  The tensor is unchanged up to rounding.
    Ranks are kept whenever ``r_k <= r_{k-1} * m_k``, else shrink to the QR
    width.  Raises ``LinAlgError`` as ``right_qr_sweep`` does.
    """
    right = right_qr_sweep([c.transpose(2, 1, 0) for c in reversed(t.cores)])[0]
    return TtTensor._from_cores(
        [np.ascontiguousarray(c.transpose(2, 1, 0)) for c in reversed(right)], True)


def is_left_orthogonal(core: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    l = core.reshape(-1, core.shape[2])
    g = l.T.dot(l)
    return bool(np.max(np.abs(g - np.eye(g.shape[0]))) <= tol)


def right_qr_sweep(cores):
    """Right-to-left thin-QR sweep; returns ``(right_cores, factors)``.

    At cut k the QR ``q r`` of the current core's transposed right unfolding
    gives the right-orthogonal core ``V_{k+1} = q.T``, and ``r.T`` moves into
    the previous core.  ``right_cores = [C_1, V_2, ..., V_n]`` is the same
    tensor, and ``factors`` holds the ``r`` of cuts 1..n-1 in that order:
    ``T = C^{<=k} r_k^T V^{>k}`` over the input cores ``C``.  So when cores
    1..n-1 are left-orthogonal, the singular values of ``r_k`` are the
    separation singular values of cut k.

    QR is invariant under row permutations, so each core is unfolded in C
    order: the reshape is a view and its transpose is F-contiguous, as
    LAPACK takes it.  Raises ``LinAlgError`` on a LAPACK error, or, through
    ``_check_factors``, when a non-finite core or an overflow has reached a
    factor or the first core.
    """
    right = list(cores)
    factors = [None] * (len(right) - 1)
    # The current core as its (r0 * m, r1) rows, 2-D from cut to cut.
    rows = cores[-1].reshape(-1, 1)
    for k in range(len(right) - 1, 0, -1):
        r0, m, _ = cores[k].shape
        r1 = rows.shape[1]
        q, r = _householder(rows.reshape(r0, m * r1).T)
        factors[k - 1] = r
        right[k] = q.T.reshape(-1, m, r1)
        prev = cores[k - 1]
        rows = prev.reshape(-1, prev.shape[2]).dot(r.T)
    right[0] = rows.reshape(cores[0].shape[:2] + (-1,))
    _check_factors([right[0], *factors], cores)
    return right, factors


def _check_ranks_feasible(dims, ranks):
    if len(ranks) != len(dims) - 1:
        raise TtError(f"need {len(dims) - 1} ranks, got {len(ranks)}")
    prev = 1
    right = math.prod(dims)
    for k, r in enumerate(ranks):
        right //= dims[k]
        if r < 1:
            raise TtError("ranks must be positive")
        if r > prev * dims[k] or r > right:
            raise TtError(
                f"rank {r} at cut {k + 1} infeasible (bounds {prev * dims[k]}, {right})"
            )
        prev = r


def _truncate_factor(mat: np.ndarray, r: int):
    """Leading-r left factor of ``mat`` with zero-padding of the remainder.

    Returns ``(u, c)`` with ``u`` of shape ``(rows, r)`` orthonormal and
    ``c = u.T @ mat`` where singular values below ``RANK_TOL * s1`` have been
    zeroed, so ``u @ c`` equals the best rank-r approximation of ``mat``.
    When r exceeds the numerical rank, the extra columns of u are singular
    vectors of (numerically) zero singular values, or, when r exceeds the
    column count, columns of the full SVD basis; the matching rows of c are
    zero, keeping the output rank exactly as requested.
    """
    width = min(mat.shape)
    u, s, vh = _svd(mat, full_matrices=r > width)
    # s is descending: only a smallest value below the floor needs the mask.
    if s[-1] < RANK_TOL * s[0]:
        s[s < RANK_TOL * s[0]] = 0.0
    if r <= width:
        return u[:, :r], s[:r, None] * vh[:r]
    c = np.zeros((r, mat.shape[1]))
    c[:width] = s[:, None] * vh[:width]
    return u[:, :r], c


def ttsvd(x, ranks) -> TtTensor:
    """Quasi-optimal low-TT-rank approximation by sweeping truncated SVDs.

    Accepts a dense array or a TtTensor (the TT path never densifies: the
    input is right-orthogonalized and the sweep truncates contracted cores).
    Output cores 1..n-1 are left-orthogonal and the output ranks equal
    ``ranks`` exactly.  Both paths raise ``TtError`` for a rank below 1 or
    above the size of either side of its cut.
    """
    ranks = tuple(int(r) for r in ranks)
    if isinstance(x, TtTensor):
        return _ttsvd_tt(x, ranks)
    x = np.asarray(x, dtype=np.float64)
    dims = x.shape
    _check_ranks_feasible(dims, ranks)
    cores = []
    c = x.reshape(1, -1)
    for k, r in enumerate(ranks):
        u, c = _truncate_factor(c.reshape(c.shape[0] * dims[k], -1), r)
        cores.append(u.reshape(-1, dims[k], r))
    cores.append(c.reshape(-1, dims[-1], 1))
    return TtTensor(cores, left_orthogonal=True)


def _ttsvd_tt(t: TtTensor, ranks) -> TtTensor:
    n = t.n
    _check_ranks_feasible(t.mode_dims, ranks)
    cores = right_qr_sweep(t.cores)[0]
    out = []
    cur = cores[0]
    for k in range(n - 1):
        # C-order unfoldings, as in the right sweep: the SVD's u only
        # inherits the row permutation, which the C-order fold undoes.
        r0, m, _ = cur.shape
        u, c = _truncate_factor(cur.reshape(r0 * m, -1), ranks[k])
        out.append(u.reshape(r0, m, -1))
        nxt = cores[k + 1]
        cur = c.dot(nxt.reshape(nxt.shape[0], -1)).reshape((-1,) + nxt.shape[1:])
    out.append(cur)
    return TtTensor._from_cores(out, True)


def random_tt(mode_dims, ranks, rng, kind: str = "gaussian") -> TtTensor:
    """Random TT tensor with the given ranks and standard normal cores.

    ``kind`` names the core distribution; ``"gaussian"`` is the only one.
    """
    if kind != "gaussian":
        raise TtError(f"unknown core distribution {kind!r}")
    dims = tuple(int(m) for m in mode_dims)
    rk = (1,) + tuple(int(r) for r in ranks) + (1,)
    return TtTensor([rng.standard_normal((rk[k], m, rk[k + 1])) for k, m in enumerate(dims)])


@dataclass(frozen=True, slots=True)
class CoherenceReport:
    """Spikiness and incoherence diagnostics of a TT tensor.

    Attributes
    ----------
    spikiness : float
        ``sqrt(total size) * |T|_inf / |T|_F`` (for n modes of size d^2 the
        prefactor is d^n).  When the tensor is above the dense cap the max
        entry is replaced by an upper bound and ``linf_is_bound`` is set.
    incoherence : float or None
        Max over cuts of the two scaled row-norm ratios of the orthonormal
        left and right parts of the minimal form, whose ranks are the cuts'
        numerical ranks; None when a part is above ``PART_CAP``.
    per_cut : list of (float, float)
        The two quantities per cut (left, right), where available.
    """

    spikiness: float
    incoherence: float | None
    per_cut: list
    linf_is_bound: bool


def _max_row_norms(cores, wanted) -> list:
    """Max row norm of left part k of ``cores`` where ``wanted[k - 1]``, else None.

    The chain stops at the last wanted part.
    """
    out = [None] * len(wanted)
    last = max((k + 1 for k, w in enumerate(wanted) if w), default=0)
    for k, part in zip(range(last), _left_parts(cores)):
        if wanted[k]:
            out[k] = float(np.max(np.linalg.norm(part, axis=1)))
    return out


def coherence_report(t: TtTensor) -> CoherenceReport:
    nrm = tt_norm(t)
    if nrm == 0.0:
        raise TtError("coherence report undefined for the zero tensor")
    tl = left_orthogonalize(t)
    # One sweep gives the right-orthogonal cores and every cut's factor.
    # Its right parts differ from other right-orthogonalizations by a rotation
    # of the rows, which leaves their column norms unchanged.
    right, factors = right_qr_sweep(tl.cores)
    # Read the parts off the minimal form: the exact truncation to each cut's
    # numerical rank drops the null directions a stacked form carries.
    spectra = [_svd(f, compute_uv=False) for f in factors]
    ranks = tuple(int(np.sum(s > RANK_TOL * s[0])) for s in spectra)
    if ranks != tl.ranks:
        tl = _ttsvd_tt(t, ranks)
        right = right_qr_sweep(tl.cores)[0]
    total = t.size
    dl = [math.prod(t.mode_dims[:k]) for k in range(1, t.n)]
    dr = [total // a for a in dl]
    within = [max(a, b) * r <= PART_CAP for a, b, r in zip(dl, dr, ranks)]
    # Row norms of the orthonormal left parts off the chain over the
    # left-orthogonal cores, and column norms of the orthonormal right parts
    # off the mirrored chain over the right-orthogonal cores.
    lrow = _max_row_norms(tl.cores, within)
    rrow = _max_row_norms([c.T for c in reversed(right)], within[::-1])[::-1]
    per_cut = [
        (np.sqrt(a / r) * lr, np.sqrt(b / r) * rr) if ok else (None, None)
        for ok, a, b, r, lr, rr in zip(within, dl, dr, ranks, lrow, rrow)
    ]

    if total <= DENSE_CAP:
        linf = float(np.max(np.abs(tt_dense(t))))
        linf_is_bound = False
    else:
        # Upper bound |T|_inf <= sigma_max(cut) * max row norms of the two
        # orthonormal factors, minimized over cuts within the cap.
        bounds = [s[0] * lr * rr for s, lr, rr in zip(spectra, lrow, rrow) if lr is not None]
        best = min(bounds, default=np.inf)
        linf = float(best) if np.isfinite(best) else nrm
        linf_is_bound = True

    spiki = math.sqrt(total) * linf / nrm
    return CoherenceReport(
        spikiness=float(spiki),
        incoherence=(float(max(max(c) for c in per_cut)) if all(within) else None),
        per_cut=per_cut,
        linf_is_bound=linf_is_bound,
    )
