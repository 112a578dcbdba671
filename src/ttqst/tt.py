"""Real tensor trains: storage, contraction, orthogonalization, TTSVD, diagnostics.

A tensor train (TT) stores an n-mode real tensor as a chain of order-3 cores.
All index linearization in this package is first-index-fastest (Fortran order):
the left unfolding of a core ``A`` of shape ``(r0, m, r1)`` is
``A.reshape(r0 * m, r1, order="F")`` and the k-th separation of a dense tensor
``X`` is ``X.reshape(prod(dims[:k]), prod(dims[k:]), order="F")``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

# Size caps for dense materialization.  Anything above DENSE_CAP entries is
# never densified; separation factors above PART_CAP entries are not built.
DENSE_CAP = 2**20
PART_CAP = 2**22

ORTHO_TOL = 1e-12

LEFT = "left"
UNKNOWN = "unknown"

# Singular values below RANK_TOL * sigma_1 are treated as exact zeros when a
# truncation rank exceeds the numerical rank.
RANK_TOL = 1e-13


class TtError(ValueError):
    """Raised for invalid tensor-train inputs (shapes, ranks, indices)."""


def _qr(a: np.ndarray):
    """Thin QR ``a = q @ r`` of a real matrix by LAPACK ``dgeqrf`` + ``dorgqr``.

    The factorizations on the TT hot path are of core-sized matrices, where
    numpy's wrapper costs several times the LAPACK call itself.  ``q`` has
    ``min(a.shape)`` orthonormal columns; ``r = q.T @ a`` (upper triangular
    up to rounding).  Raises ``LinAlgError`` on a LAPACK error or a
    non-finite ``a`` (``dgeqrf`` passes NaN through silently; ``r`` picks it
    up from any non-finite entry).
    """
    qr, tau, _, info = lapack.dgeqrf(a)
    if info == 0:
        q, _, info = lapack.dorgqr(qr[:, : tau.shape[0]], tau)
    if info != 0:
        raise np.linalg.LinAlgError(f"QR failed (LAPACK info {info})")
    r = q.T @ a
    if not np.isfinite(r).all():
        raise np.linalg.LinAlgError("QR of a matrix with non-finite entries")
    return q, r


def _svd(a: np.ndarray, full_matrices: bool = False, compute_uv: bool = True):
    """SVD by LAPACK ``dgesdd``; returns ``(u, s, vh)``, or ``s`` alone.

    Same factorization and arguments as numpy's ``svd``, without numpy's
    per-call overhead.  Raises ``LinAlgError`` when ``dgesdd`` reports an
    error: no convergence, or NaN input (``info = -4``).  Input with ``inf``
    entries is not detected by LAPACK; callers check finiteness upstream.
    """
    u, s, vh, info = lapack.dgesdd(a, compute_uv=compute_uv, full_matrices=full_matrices)
    if info != 0:
        raise np.linalg.LinAlgError(f"SVD did not converge (LAPACK info {info})")
    return (u, s, vh) if compute_uv else s


def _as_core(a) -> np.ndarray:
    c = np.asarray(a, dtype=np.float64)
    if c.ndim != 3:
        raise TtError(f"core must be order 3, got shape {c.shape}")
    return c


def left_unfold(core: np.ndarray) -> np.ndarray:
    r0, m, r1 = core.shape
    return core.reshape(r0 * m, r1, order="F")


def right_unfold(core: np.ndarray) -> np.ndarray:
    r0, m, r1 = core.shape
    return core.reshape(r0, m * r1, order="F")


def fold_left(mat: np.ndarray, r0: int, m: int) -> np.ndarray:
    return mat.reshape(r0, m, mat.shape[1], order="F")


def fold_right(mat: np.ndarray, m: int, r1: int) -> np.ndarray:
    return mat.reshape(mat.shape[0], m, r1, order="F")


class TtTensor:
    """Real n-mode tensor in tensor-train format.

    Parameters
    ----------
    cores : sequence of ndarray
        n order-3 arrays; core k has shape ``(r_{k-1}, mode_dims[k], r_k)``
        with ``r_0 = r_n = 1``.
    ortho : sequence of str, optional
        Per-core orthogonality flag, ``"left"`` or ``"unknown"``.  Flags are
        trusted metadata; they are set by the operations in this module and
        never guessed.

    Core arrays are frozen (non-writeable views); instances are immutable and
    safe to share between threads.
    """

    __slots__ = ("cores", "mode_dims", "ranks", "ortho")

    def __init__(self, cores, ortho=None):
        cores = [_as_core(c) for c in cores]
        if len(cores) < 2:
            raise TtError("a tensor train needs at least 2 cores")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise TtError("boundary ranks must be 1")
        for k in range(len(cores) - 1):
            if cores[k].shape[2] != cores[k + 1].shape[0]:
                raise TtError(
                    f"rank mismatch between cores {k} and {k + 1}: "
                    f"{cores[k].shape[2]} vs {cores[k + 1].shape[0]}"
                )
        mode_dims = tuple(c.shape[1] for c in cores)
        ranks = tuple(c.shape[2] for c in cores[:-1])
        # Representation ranks may exceed the separation-rank bounds for
        # transient stacked forms (sums, tangent steps); minimal-form
        # feasibility is checked by ttsvd instead.
        for c in cores:
            c.setflags(write=False)
        self.cores = tuple(cores)
        self.mode_dims = mode_dims
        self.ranks = ranks
        if ortho is None:
            ortho = (UNKNOWN,) * len(cores)
        else:
            ortho = tuple(ortho)
            if len(ortho) != len(cores):
                raise TtError("ortho flags must match core count")
        self.ortho = ortho

    @property
    def n(self) -> int:
        return len(self.cores)

    @property
    def size(self) -> int:
        return int(np.prod(self.mode_dims))

    def __repr__(self):
        return f"TtTensor(dims={self.mode_dims}, ranks={self.ranks})"


def tt_entry(t: TtTensor, idx) -> float:
    """Evaluate a single entry by chaining row-vector/matrix products."""
    idx = tuple(int(i) for i in idx)
    if len(idx) != t.n:
        raise TtError(f"index length {len(idx)} != mode count {t.n}")
    for k, (i, m) in enumerate(zip(idx, t.mode_dims)):
        if not 0 <= i < m:
            raise TtError(f"index {i} out of range for mode {k} (dim {m})")
    v = t.cores[0][0, idx[0], :]
    for k in range(1, t.n):
        v = v @ t.cores[k][:, idx[k], :]
    return float(v[0])


def tt_entries(t: TtTensor, idx: np.ndarray) -> np.ndarray:
    """Evaluate a batch of entries.

    Parameters
    ----------
    idx : ndarray of shape (B, n)
        Row ``b`` is one multi-index.
    """
    idx = np.asarray(idx, dtype=np.int64)
    v = t.cores[0][0, idx[:, 0], :]  # (B, r1)
    for k in range(1, t.n):
        sl = t.cores[k].transpose(1, 0, 2)[idx[:, k]]  # (B, r, r')
        v = np.matmul(v[:, None, :], sl)[:, 0, :]
    return v[:, 0]


def tt_dense(t: TtTensor) -> np.ndarray:
    """Materialize the full tensor.  Only legal below the dense size cap."""
    if t.size > DENSE_CAP:
        raise TtError(f"dense materialization of {t.size} entries exceeds cap {DENSE_CAP}")
    x = t.cores[0][0]  # (m1, r1)
    for k in range(1, t.n):
        x = np.tensordot(x, t.cores[k], axes=(x.ndim - 1, 0))
        x = x.reshape(-1, x.shape[-1], order="F")
    return x[:, 0].reshape(t.mode_dims, order="F")


def tt_inner(a: TtTensor, b: TtTensor) -> float:
    """Frobenius inner product via left-to-right environment contraction."""
    if a.mode_dims != b.mode_dims:
        raise TtError(f"mode dims differ: {a.mode_dims} vs {b.mode_dims}")
    env = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        half = env.T @ ca.reshape(ca.shape[0], -1)  # (rb, m * rc)
        env = half.reshape(-1, ca.shape[2]).T @ cb.reshape(-1, cb.shape[2])
    return float(env[0, 0])


def tt_norm(t: TtTensor) -> float:
    return float(np.sqrt(max(tt_inner(t, t), 0.0)))


def tt_scale(alpha: float, t: TtTensor) -> TtTensor:
    cores = list(t.cores)
    cores[-1] = cores[-1] * float(alpha)
    ortho = list(t.ortho)
    ortho[-1] = UNKNOWN
    return TtTensor(cores, ortho)


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

    Left-orthogonalizing the stacked difference ``tt_axpy(-1, a, b)`` performs
    the cancellation inside backward-stable QR sweeps; the norm is then read
    off the last core with absolute error O(eps * (|a| + |b|)), so distances
    far below ``sqrt(eps) * |a|`` are resolved.
    """
    d = left_orthogonalize(tt_axpy(-1.0, a, b))
    return float(np.linalg.norm(d.cores[-1]))


def left_orthogonalize(t: TtTensor) -> TtTensor:
    """Sweep thin QR left-to-right; cores 1..n-1 become left-orthogonal.

    The represented tensor is unchanged up to floating point.  Ranks are
    preserved whenever ``r_k <= r_{k-1} * m_k`` (always true for tensors
    produced by this module); otherwise the rank shrinks to the QR width.
    """
    cores = list(t.cores)
    for k in range(t.n - 1):
        q, r = _qr(left_unfold(cores[k]))
        cores[k] = fold_left(q, cores[k].shape[0], cores[k].shape[1])
        cores[k + 1] = np.tensordot(r, cores[k + 1], axes=(1, 0))
    ortho = [LEFT] * (t.n - 1) + [UNKNOWN]
    return TtTensor(cores, ortho)


def _right_orthogonalize_cores(cores: list) -> list:
    """Right-to-left QR sweep over a list of cores, in place; returns the list.

    QR is invariant under row permutations, so each core is unfolded in C
    order, where the reshapes of a C-contiguous core are views.
    """
    for k in range(len(cores) - 1, 0, -1):
        r0, m, r1 = cores[k].shape
        q, r = _qr(cores[k].reshape(r0, m * r1).T)
        cores[k] = q.T.reshape(-1, m, r1)
        prev = cores[k - 1]
        cores[k - 1] = (prev.reshape(-1, prev.shape[2]) @ r.T).reshape(prev.shape[:2] + (-1,))
    return cores


def is_left_orthogonal(core: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    l = left_unfold(core)
    g = l.T @ l
    return bool(np.max(np.abs(g - np.eye(g.shape[0]))) <= tol)


def left_part(t: TtTensor, k: int) -> np.ndarray:
    """The k-th left part ``T^{<=k}`` of shape ``(prod(dims[:k]), r_k)``."""
    if not 1 <= k <= t.n - 1:
        raise TtError(f"cut {k} out of range")
    sz = int(np.prod(t.mode_dims[:k])) * t.ranks[k - 1]
    if sz > PART_CAP:
        raise TtError(f"left part at cut {k} has {sz} entries, above cap {PART_CAP}")
    x = t.cores[0][0]
    for j in range(1, k):
        x = np.tensordot(x, t.cores[j], axes=(x.ndim - 1, 0))
        x = x.reshape(-1, x.shape[-1], order="F")
    return x


def right_part(t: TtTensor, k: int) -> np.ndarray:
    """The (k+1)-th right part ``T^{>=k+1}`` of shape ``(r_k, prod(dims[k:]))``."""
    if not 1 <= k <= t.n - 1:
        raise TtError(f"cut {k} out of range")
    sz = int(np.prod(t.mode_dims[k:])) * t.ranks[k - 1]
    if sz > PART_CAP:
        raise TtError(f"right part at cut {k} has {sz} entries, above cap {PART_CAP}")
    x = t.cores[-1][:, :, 0]
    for j in range(t.n - 2, k - 1, -1):
        c = t.cores[j]
        x = np.tensordot(c, x, axes=(2, 0))
        x = x.reshape(c.shape[0], -1, order="F")
    return x


def right_svd_sweep(cores):
    """Right-to-left thin-SVD sweep over left-orthogonal cores.

    At cut k the thin SVD ``u diag(s) vh`` of the current core's right
    unfolding gives the right-orthogonal core ``V_{k+1} = vh`` and the
    separation singular values ``s`` of cut k; ``u diag(s)`` moves into the
    previous core.  Returns ``(right_cores, singular_values)``: the cores
    ``[U_1 S_1, V_2, ..., V_n]`` of the same tensor, and the singular values
    of cuts 1..n-1 in that order.
    """
    n = len(cores)
    right = list(cores)
    svals = [None] * (n - 1)
    cur = cores[-1]
    for k in range(n - 1, 0, -1):
        _, m, r1 = cur.shape
        u, s, vh = _svd(right_unfold(cur))
        svals[k - 1] = s
        right[k] = fold_right(vh, m, r1)
        prev = cores[k - 1]
        cur = (prev.reshape(-1, prev.shape[2]) @ (u * s)).reshape(prev.shape[:2] + (-1,))
    right[0] = cur
    return right, svals


def separation_spectra(t: TtTensor) -> list[np.ndarray]:
    """Nonincreasing singular values of cuts 1..n-1: one left-orthogonalization, one SVD sweep."""
    return right_svd_sweep(left_orthogonalize(t).cores)[1]


def _lambda_min(spectra, ranks) -> float:
    return float(min(s[r - 1] if len(s) >= r else 0.0 for s, r in zip(spectra, ranks)))


def lambda_min(t: TtTensor) -> float:
    """Smallest r_k-th separation singular value over all cuts."""
    return _lambda_min(separation_spectra(t), t.ranks)


def cond(t: TtTensor) -> float:
    """Largest over smallest separation singular value, from one sweep."""
    spectra = separation_spectra(t)
    lmin = _lambda_min(spectra, t.ranks)
    if lmin == 0.0:
        return np.inf
    return float(max(s[0] for s in spectra)) / lmin


def _check_ranks_feasible(dims, ranks):
    if len(ranks) != len(dims) - 1:
        raise TtError(f"need {len(dims) - 1} ranks, got {len(ranks)}")
    prev = 1
    right = int(np.prod(dims))
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
    ``ranks`` exactly.
    """
    ranks = tuple(int(r) for r in ranks)
    if isinstance(x, TtTensor):
        return _ttsvd_tt(x, ranks)
    x = np.asarray(x, dtype=np.float64)
    dims = x.shape
    n = len(dims)
    _check_ranks_feasible(dims, ranks)
    cores = []
    m = x.reshape(dims[0], -1, order="F")
    prev = 1
    for k in range(n - 1):
        u, c = _truncate_factor(m, ranks[k])
        cores.append(fold_left(u, prev, dims[k]))
        prev = ranks[k]
        if k < n - 2:
            m = c.reshape(prev * dims[k + 1], -1, order="F")
        else:
            m = c
    cores.append(m.reshape(prev, dims[-1], 1, order="F"))
    return TtTensor(cores, [LEFT] * (n - 1) + [UNKNOWN])


def _ttsvd_tt(t: TtTensor, ranks) -> TtTensor:
    n = t.n
    if len(ranks) != n - 1:
        raise TtError(f"need {n - 1} ranks, got {len(ranks)}")
    for k, r in enumerate(ranks):
        if r < 1:
            raise TtError("ranks must be positive")
        prev = ranks[k - 1] if k else 1
        if r > prev * t.mode_dims[k]:
            raise TtError(f"rank {r} at cut {k + 1} infeasible for the sweep")
    cores = _right_orthogonalize_cores(list(t.cores))
    out = []
    cur = cores[0]
    for k in range(n - 1):
        # C-order unfoldings, as in the right sweep: the SVD's u only
        # inherits the row permutation, which the C-order fold undoes.
        r0, m, _ = cur.shape
        u, c = _truncate_factor(cur.reshape(r0 * m, -1), ranks[k])
        out.append(u.reshape(r0, m, -1))
        nxt = cores[k + 1]
        cur = (c @ nxt.reshape(nxt.shape[0], -1)).reshape((-1,) + nxt.shape[1:])
    out.append(cur)
    return TtTensor(out, [LEFT] * (n - 1) + [UNKNOWN])


def random_tt(mode_dims, ranks, rng, kind: str = "gaussian") -> TtTensor:
    """Random TT tensor with the given ranks (gaussian or uniform cores)."""
    dims = tuple(int(m) for m in mode_dims)
    rk = (1,) + tuple(int(r) for r in ranks) + (1,)
    cores = []
    for k in range(len(dims)):
        shape = (rk[k], dims[k], rk[k + 1])
        if kind == "gaussian":
            cores.append(rng.standard_normal(shape))
        elif kind == "uniform":
            cores.append(rng.uniform(0.0, 1.0, size=shape))
        else:
            raise TtError(f"unknown core distribution {kind!r}")
    return TtTensor(cores)


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
        separation factors; None when factors exceed the materialization cap.
    per_cut : list of (float, float)
        The two quantities per cut (left, right), where available.
    """

    __slots__ = ("spikiness", "incoherence", "per_cut", "linf_is_bound")

    def __init__(self, spikiness, incoherence, per_cut, linf_is_bound):
        self.spikiness = spikiness
        self.incoherence = incoherence
        self.per_cut = per_cut
        self.linf_is_bound = linf_is_bound

    def __repr__(self):
        return (
            f"CoherenceReport(spikiness={self.spikiness:.4g}, "
            f"incoherence={self.incoherence}, linf_is_bound={self.linf_is_bound})"
        )


def coherence_report(t: TtTensor) -> CoherenceReport:
    nrm = tt_norm(t)
    if nrm == 0.0:
        raise TtError("coherence report undefined for the zero tensor")
    tl = left_orthogonalize(t)
    # One sweep gives the right-orthogonal cores and every cut's spectrum.
    # Its right parts differ from other right-orthogonalizations by a rotation
    # of the rows, which leaves their column norms unchanged.
    right, svals = right_svd_sweep(tl.cores)
    tr = TtTensor(right)

    per_cut = []
    incoh = 0.0
    incoh_available = True
    total = t.size
    for k in range(1, t.n):
        r = t.ranks[k - 1]
        dl = int(np.prod(t.mode_dims[:k]))
        dr = int(np.prod(t.mode_dims[k:]))
        if dl * r > PART_CAP or dr * r > PART_CAP:
            incoh_available = False
            per_cut.append((None, None))
            continue
        lp = left_part(tl, k)  # orthonormal columns
        rp = right_part(tr, k)  # orthonormal rows
        lnorm = np.sqrt(dl / r) * float(np.max(np.linalg.norm(lp, axis=1)))
        rnorm = np.sqrt(dr / r) * float(np.max(np.linalg.norm(rp, axis=0)))
        per_cut.append((lnorm, rnorm))
        incoh = max(incoh, lnorm, rnorm)

    if total <= DENSE_CAP:
        linf = float(np.max(np.abs(tt_dense(t))))
        linf_is_bound = False
    else:
        # Upper bound |T|_inf <= sigma_max(cut) * max row norms of the two
        # orthonormal factors, minimized over cuts within the cap.
        best = np.inf
        for k in range(1, t.n):
            l, rrow = per_cut[k - 1]
            if l is None:
                continue
            r = t.ranks[k - 1]
            dl = int(np.prod(t.mode_dims[:k]))
            dr = int(np.prod(t.mode_dims[k:]))
            smax = svals[k - 1][0]
            best = min(best, smax * l * rrow * np.sqrt(r / dl) * np.sqrt(r / dr))
        linf = float(best) if np.isfinite(best) else nrm
        linf_is_bound = True

    spiki = np.sqrt(total) * linf / nrm
    return CoherenceReport(
        spikiness=float(spiki),
        incoherence=(float(incoh) if incoh_available else None),
        per_cut=per_cut,
        linf_is_bound=linf_is_bound,
    )
