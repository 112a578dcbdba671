"""Real tensor trains: storage, contraction, orthogonalization, TTSVD, diagnostics.

A tensor train (TT) stores an n-mode real tensor as a chain of order-3 cores.
All index linearization in this package is first-index-fastest (Fortran order):
the left unfolding of a core ``A`` of shape ``(r0, m, r1)`` is
``A.reshape(r0 * m, r1, order="F")`` and the k-th separation of a dense tensor
``X`` is ``X.reshape(prod(dims[:k]), prod(dims[k:]), order="F")``.
"""

from __future__ import annotations

import warnings

import numpy as np

# Size caps for dense materialization.  Anything above DENSE_CAP entries is
# never densified; separation factors above PART_CAP entries are not built.
DENSE_CAP = 2**20
PART_CAP = 2**22

ORTHO_TOL = 1e-12

LEFT = "left"
RIGHT = "right"
UNKNOWN = "unknown"

# Singular values below RANK_TOL * sigma_1 are treated as exact zeros when a
# truncation rank exceeds the numerical rank.
RANK_TOL = 1e-13


class TtError(ValueError):
    """Raised for invalid tensor-train inputs (shapes, ranks, indices)."""


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
        Per-core orthogonality flag, each one of ``"left"``, ``"right"``,
        ``"unknown"``.  Flags are trusted metadata; they are set by the
        operations in this module and never guessed.

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
        # feasibility is checked by ranks_feasible / ttsvd instead.
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

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

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


def tt_from_dense(x: np.ndarray, ranks=None) -> TtTensor:
    """Exact TT of a dense array (``ranks=None`` uses maximal feasible ranks)."""
    x = np.asarray(x, dtype=np.float64)
    if ranks is None:
        dims = x.shape
        ranks = tuple(
            int(min(np.prod(dims[: k + 1]), np.prod(dims[k + 1 :])))
            for k in range(len(dims) - 1)
        )
    return ttsvd(x, ranks)


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
    n = a.n
    cores = []
    for k in range(n):
        ca, cb = a.cores[k], b.cores[k]
        if k == 0:
            ca = ca * float(alpha)
            cores.append(np.concatenate([ca, cb], axis=2))
        elif k == n - 1:
            cores.append(np.concatenate([ca, cb], axis=0))
        else:
            ra0, m, ra1 = ca.shape
            rb0, _, rb1 = cb.shape
            c = np.zeros((ra0 + rb0, m, ra1 + rb1))
            c[:ra0, :, :ra1] = ca
            c[ra0:, :, ra1:] = cb
            cores.append(c)
    return TtTensor(cores)


def tt_distance(a: TtTensor, b: TtTensor) -> float:
    """Frobenius distance between two TT tensors.

    Small combined ranks use the expanded difference ``tt_axpy(-1, a, b)``,
    which resolves distances down to machine precision.  Large ranks fall
    back to the identity ``|a-b|^2 = |a|^2 + |b|^2 - 2<a,b>``, which avoids
    the rank-sum contraction but floors out near ``sqrt(eps) * |a|`` due to
    cancellation.
    """
    if max(ra + rb for ra, rb in zip(a.ranks, b.ranks)) <= 128:
        # Orthogonalizing the stacked difference performs the cancellation
        # inside backward-stable QR sweeps; the norm is then read off the
        # last core with absolute error O(eps * (|a| + |b|)).
        d = left_orthogonalize(tt_axpy(-1.0, a, b))
        return float(np.linalg.norm(d.cores[-1]))
    d2 = tt_inner(a, a) + tt_inner(b, b) - 2.0 * tt_inner(a, b)
    return float(np.sqrt(max(d2, 0.0)))


def left_orthogonalize(t: TtTensor) -> TtTensor:
    """Sweep thin QR left-to-right; cores 1..n-1 become left-orthogonal.

    The represented tensor is unchanged up to floating point.  Ranks are
    preserved whenever ``r_k <= r_{k-1} * m_k`` (always true for tensors
    produced by this module); otherwise the rank shrinks to the QR width.
    """
    cores = [np.array(c) for c in t.cores]
    for k in range(t.n - 1):
        q, r = np.linalg.qr(left_unfold(cores[k]))
        cores[k] = fold_left(q, cores[k].shape[0], cores[k].shape[1])
        cores[k + 1] = np.tensordot(r, cores[k + 1], axes=(1, 0))
    ortho = [LEFT] * (t.n - 1) + [UNKNOWN]
    return TtTensor(cores, ortho)


def right_orthogonalize(t: TtTensor) -> TtTensor:
    """Sweep QR right-to-left; cores 2..n become right-orthogonal."""
    cores = list(t.cores)
    for k in range(t.n - 1, 0, -1):
        q, r = np.linalg.qr(right_unfold(cores[k]).T)
        cores[k] = fold_right(q.T, cores[k].shape[1], cores[k].shape[2])
        prev = cores[k - 1]
        cores[k - 1] = (prev.reshape(-1, prev.shape[2]) @ r.T).reshape(prev.shape[:2] + (-1,))
    ortho = [UNKNOWN] + [RIGHT] * (t.n - 1)
    return TtTensor(cores, ortho)


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


class SeparationSpectrum:
    """Singular values of one separation, nonincreasing."""

    __slots__ = ("k", "singular_values")

    def __init__(self, k: int, singular_values: np.ndarray):
        self.k = k
        self.singular_values = np.asarray(singular_values, dtype=np.float64)

    def __repr__(self):
        return f"SeparationSpectrum(k={self.k}, sv={self.singular_values})"


def separation_spectra(t: TtTensor) -> list[SeparationSpectrum]:
    """Singular values of every separation, computed in TT form.

    One left-orthogonalization followed by a right-to-left sweep; at each
    step the spectrum of the current cut is the SVD of a core-sized matrix.
    """
    tl = left_orthogonalize(t)
    cores = [np.array(c) for c in tl.cores]
    spectra: list[SeparationSpectrum] = [None] * (t.n - 1)
    for k in range(t.n - 1, 0, -1):
        ru = right_unfold(cores[k])
        s = np.linalg.svd(ru, compute_uv=False)
        spectra[k - 1] = SeparationSpectrum(k, s)
        q, r = np.linalg.qr(ru.T)
        cores[k] = fold_right(q.T, cores[k].shape[1], cores[k].shape[2])
        cores[k - 1] = np.tensordot(cores[k - 1], r.T, axes=(2, 0))
    return spectra


def separation_singular_values(t: TtTensor, k: int) -> SeparationSpectrum:
    if not 1 <= k <= t.n - 1:
        raise TtError(f"cut {k} out of range")
    return separation_spectra(t)[k - 1]


def lambda_min(t: TtTensor) -> float:
    """Smallest r_k-th separation singular value over all cuts."""
    vals = []
    for spectrum, r in zip(separation_spectra(t), t.ranks):
        s = spectrum.singular_values
        vals.append(s[r - 1] if len(s) >= r else 0.0)
    return float(min(vals))


def lambda_max(t: TtTensor) -> float:
    return float(max(spectrum.singular_values[0] for spectrum in separation_spectra(t)))


def cond(t: TtTensor) -> float:
    lmin = lambda_min(t)
    if lmin == 0.0:
        return np.inf
    return lambda_max(t) / lmin


def ranks_feasible(mode_dims, ranks) -> bool:
    """Whether ranks satisfy the minimal-form bound at every cut."""
    dims = tuple(mode_dims)
    for k, r in enumerate(ranks):
        if r > min(np.prod(dims[: k + 1]), np.prod(dims[k + 1 :])):
            return False
    return True


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
    u, s, vh = np.linalg.svd(mat, full_matrices=r > min(mat.shape))
    u = u[:, :r]
    p = min(r, s.shape[0])
    if s.shape[0] and s[0] > 0.0:
        s = np.where(s < RANK_TOL * s[0], 0.0, s)
    c = np.zeros((r, mat.shape[1]))
    c[:p] = s[:p, None] * vh[:p]
    return u, c


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
    cores = right_orthogonalize(t).cores
    out = []
    cur = cores[0]
    for k in range(n - 1):
        u, c = _truncate_factor(left_unfold(cur), ranks[k])
        out.append(fold_left(u, cur.shape[0], cur.shape[1]))
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
    tr = right_orthogonalize(t)
    spectra = separation_spectra(t)

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
            smax = spectra[k - 1].singular_values[0]
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


def tt_linf_dense(t: TtTensor) -> float:
    """Exact max-abs entry via dense scan (below the cap only)."""
    return float(np.max(np.abs(tt_dense(t))))


def tt_relative_error(t: TtTensor, ref: TtTensor) -> float:
    return tt_distance(t, ref) / tt_norm(ref)
