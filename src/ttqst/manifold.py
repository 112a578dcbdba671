"""Geometry of the fixed-TT-rank manifold: tangent spaces, projection, retraction.

A foot point ``T`` is held in mixed-canonical form: its left-orthogonal cores
``U_1, ..., U_{n-1}`` (the last core ``U_n`` carries the norm) and the
right-orthogonal cores ``V_2, ..., V_n`` of one right-to-left sweep.  The
tangent space is parametrized by gauge-fixed variation cores ``X_k``
(``L(X_k)^T L(U_k) = 0`` for k < n); the represented ambient tensor is the
sum over k of the chains ``[U_1, ..., U_{k-1}, X_k, V_{k+1}, ..., V_n]``.
With orthonormal right parts, projecting a sparse ambient tensor costs
``O(n d^2 r^2)`` per entry and needs no linear solve.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import tt
from .tt import TtTensor, fold_left, fold_right, left_unfold, right_unfold

# Rank-deficiency rejection threshold: smallest/largest separation singular
# value below this ratio at any cut means the foot point is off-manifold.
DEGENERATE_TOL = 1e-12


class ManifoldError(ValueError):
    """Raised for invalid tangent-space inputs (degenerate bases, shapes)."""


class SparseTensor:
    """Sparse n-mode tensor as (multi-index, value) pairs.

    Duplicate indices are summed on construction.
    """

    __slots__ = ("mode_dims", "indices", "values")

    def __init__(self, mode_dims, entries=None, indices=None, values=None):
        self.mode_dims = tuple(int(m) for m in mode_dims)
        if entries is not None:
            indices = np.asarray([e[0] for e in entries], dtype=np.int64)
            values = np.asarray([e[1] for e in entries], dtype=np.float64)
        else:
            indices = np.asarray(indices, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 2 or indices.shape[1] != len(self.mode_dims):
            raise ManifoldError(f"index array must be (N, {len(self.mode_dims)})")
        if indices.shape[0] != values.shape[0]:
            raise ManifoldError("index/value count mismatch")
        for k, m in enumerate(self.mode_dims):
            col = indices[:, k]
            if col.size and (col.min() < 0 or col.max() >= m):
                raise ManifoldError(f"index out of range in mode {k}")
        # Sum duplicates to keep the representation canonical.
        if indices.shape[0] > 1:
            order = np.lexsort(indices.T[::-1])
            indices = indices[order]
            values = values[order]
            keep = np.ones(indices.shape[0], dtype=bool)
            keep[1:] = np.any(indices[1:] != indices[:-1], axis=1)
            group = np.cumsum(keep) - 1
            summed = np.zeros(int(group[-1]) + 1)
            np.add.at(summed, group, values)
            indices = indices[keep]
            values = summed
        self.indices = indices
        self.values = values

    @property
    def nnz(self) -> int:
        return self.indices.shape[0]

    def to_dense(self) -> np.ndarray:
        if int(np.prod(self.mode_dims)) > tt.DENSE_CAP:
            raise ManifoldError("sparse tensor too large to densify")
        x = np.zeros(self.mode_dims)
        np.add.at(x, tuple(self.indices.T), self.values)
        return x


class TangentVector:
    """First-order variation of a TT tensor at a left-orthogonal foot point.

    ``X_k`` enters the chain ``[U_1, ..., X_k, R_{k+1}, ..., R_n]`` of the
    cores ``U`` of ``base`` and ``right_cores`` ``R`` (default: ``U``).
    """

    __slots__ = ("base", "variation_cores", "right_cores")

    def __init__(self, base: TtTensor, variation_cores, right_cores=None):
        if len(variation_cores) != base.n:
            raise ManifoldError("need one variation core per site")
        if right_cores is None:
            right_cores = base.cores
        elif [c.shape for c in right_cores] != [c.shape for c in base.cores]:
            raise ManifoldError("right cores must match the base core shapes")
        vcs = []
        for c, bc in zip(variation_cores, base.cores):
            c = np.asarray(c, dtype=np.float64)
            if c.shape != bc.shape:
                raise ManifoldError(f"variation core shape {c.shape} != base {bc.shape}")
            vcs.append(c)
        self.base = base
        self.variation_cores = vcs
        self.right_cores = tuple(right_cores)

    def gauge_residual(self) -> float:
        """Max violation of ``L(X_k)^T L(T_k) = 0`` over k < n."""
        worst = 0.0
        for k in range(self.base.n - 1):
            g = left_unfold(self.variation_cores[k]).T @ left_unfold(self.base.cores[k])
            worst = max(worst, float(np.max(np.abs(g))) if g.size else 0.0)
        return worst

    def norm(self) -> float:
        return tt.tt_norm(tangent_to_tt(self))


def manifold_dim(mode_dims, ranks) -> int:
    """Dimension of the fixed-rank manifold: sum m_k r_{k-1} r_k - sum r_k^2."""
    dims = tuple(int(m) for m in mode_dims)
    rk = (1,) + tuple(int(r) for r in ranks) + (1,)
    if not tt.ranks_feasible(dims, ranks):
        raise ManifoldError("infeasible ranks")
    total = sum(dims[k] * rk[k] * rk[k + 1] for k in range(len(dims)))
    return total - sum(r * r for r in ranks)


def _require_left_orthogonal(base: TtTensor):
    for k in range(base.n - 1):
        if base.ortho[k] == tt.LEFT:
            continue
        if not tt.is_left_orthogonal(base.cores[k], tol=1e-10):
            raise ManifoldError(
                "projection foot point must have left-orthogonal cores 1..n-1 "
                "(run left_orthogonalize first)"
            )


class TangentGeometry:
    """Mixed-canonical form of a foot point, for tangent projection.

    Keeps the left-orthogonal cores ``U_k`` of the foot point and builds its
    right-orthogonal cores ``V_k`` by one right-to-left sweep of thin SVDs, so
    ``T = U^{<=k} S_k V^{>k}`` at every cut k and projection needs no solve.
    ``singular_values[k-1]`` are those of ``S_k``, the separation singular
    values of cut k; sigma_r / sigma_1 below ``DEGENERATE_TOL`` rejects the
    foot point as off-manifold.
    """

    def __init__(self, base: TtTensor):
        _require_left_orthogonal(base)
        self.base = base
        n = base.n
        right = list(base.cores)
        self.singular_values = [None] * (n - 1)
        cur = base.cores[-1]
        for k in range(n - 1, 0, -1):
            # T = U^{<=k} cur V^{>k+1}; the thin SVD u diag(s) vh of cur's
            # right unfolding gives V_{k+1} = vh and S_k = u diag(s).
            r0, m, r1 = cur.shape
            u, s, vh = np.linalg.svd(right_unfold(cur), full_matrices=False)
            ratio = s[-1] / s[0] if s[0] > 0.0 else 0.0
            if s.shape[0] < r0 or not ratio >= DEGENERATE_TOL:
                raise ManifoldError(
                    f"rank-deficient foot point: separation at cut {k} is singular "
                    f"(sigma_r/sigma_1 = {ratio:.3g})"
                )
            self.singular_values[k - 1] = s
            right[k] = fold_right(vh, m, r1)
            prev = base.cores[k - 1]
            cur = (prev.reshape(-1, r0) @ (u * s)).reshape(prev.shape)
        right[0] = cur
        # right_cores = [U_1 S_1, V_2, ..., V_n] is the foot point right-orthogonalized.
        self.right_cores = tuple(right)
        # Mode-major copies (m, r0, r1) so a batch gathers (B, r0, r1) slices.
        self._left_slices = [np.ascontiguousarray(c.transpose(1, 0, 2)) for c in base.cores]
        self._right_slices = [np.ascontiguousarray(c.transpose(1, 0, 2)) for c in right]
        # Projectors are applied as X -= L(U_k) (L(U_k)^T X).
        self.left_unfolds = [left_unfold(c) for c in base.cores]

    def left_chain(self, idx: np.ndarray) -> list:
        """Rows ``U^{<=k}[idx_1..idx_k, :]``, k = 0..n, each of shape (B, r_k).

        The last one, of shape (B, 1), holds the foot point's entries at idx.
        """
        idx = np.asarray(idx, dtype=np.int64)
        lefts = [np.ones((idx.shape[0], 1))]
        for k in range(self.base.n):
            sl = self._left_slices[k][idx[:, k]]
            lefts.append(np.matmul(lefts[k][:, None, :], sl)[:, 0, :])
        return lefts

    def project_batch(self, idx: np.ndarray, values: np.ndarray, lefts=None) -> TangentVector:
        """Project ``sum_b values[b] * e_{idx[b]}``; ``lefts`` is ``left_chain(idx)``."""
        base = self.base
        n = base.n
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        bsz = idx.shape[0]
        if lefts is None:
            lefts = self.left_chain(idx)
        rows = np.arange(bsz)
        # right = rows V^{>k}[:, idx_{k+1}..idx_n] of the right parts, (B, r_k).
        right = np.ones((bsz, 1))
        vcores = [None] * n
        for k in range(n - 1, -1, -1):
            r0, m, r1 = base.cores[k].shape
            # One GEMM scatters every rank-one term l_b (x) e_{idx_k[b]} (x) w_b.
            onehot = np.zeros((bsz, m, r1))
            onehot[rows, idx[:, k]] = right
            weighted = values[:, None] * lefts[k]
            xk = (weighted.T @ onehot.reshape(bsz, m * r1)).reshape(r0, m, r1)
            if k < n - 1:
                lu = left_unfold(xk)
                lt = self.left_unfolds[k]
                xk = fold_left(lu - lt @ (lt.T @ lu), r0, m)
            vcores[k] = xk
            if k:
                right = np.matmul(self._right_slices[k][idx[:, k]], right[:, :, None])[:, :, 0]
        return TangentVector(base, vcores, self.right_cores)

    def project_sparse(self, g: SparseTensor) -> TangentVector:
        if g.mode_dims != self.base.mode_dims:
            raise ManifoldError("sparse tensor shape mismatch")
        return self.project_batch(g.indices, g.values)

    def project_dense(self, x: np.ndarray) -> TangentVector:
        base = self.base
        n = base.n
        x = np.asarray(x, dtype=np.float64)
        if x.shape != base.mode_dims:
            raise ManifoldError(f"dense shape {x.shape} != {base.mode_dims}")
        if x.size > tt.DENSE_CAP:
            raise ManifoldError("dense input above size cap")
        # rights[k] = V^{>k}, of shape (r_k, prod(dims[k+1:])), orthonormal rows.
        rights = [np.ones((1, 1))] * n
        for k in range(n - 2, -1, -1):
            c = self.right_cores[k + 1]
            rights[k] = np.tensordot(c, rights[k + 1], axes=(2, 0)).reshape(
                c.shape[0], -1, order="F"
            )
        vcores = []
        flat = x.reshape(-1, order="F")
        for k in range(n):
            m = base.mode_dims[k]
            r0 = base.cores[k].shape[0]
            sep = flat.reshape(int(np.prod(base.mode_dims[:k], dtype=int)), -1, order="F")
            # Contract the left environment, regroup rows as (r_{k-1}, m).
            m1 = tt.left_part(base, k).T @ sep if k > 0 else sep
            m2 = m1.reshape(r0 * m, -1, order="F") @ rights[k].T
            if k < n - 1:
                lt = self.left_unfolds[k]
                m2 = m2 - lt @ (lt.T @ m2)
            vcores.append(fold_left(m2, r0, m))
        return TangentVector(base, vcores, self.right_cores)


def project_tangent_sparse(base: TtTensor, g: SparseTensor) -> TangentVector:
    return TangentGeometry(base).project_sparse(g)


def project_tangent_dense(base: TtTensor, x: np.ndarray) -> TangentVector:
    return TangentGeometry(base).project_dense(x)


def _chain_sum_cores(base: TtTensor, xcores, right_cores) -> list:
    """``[U_1, X_1]``, ``[[U_k, X_k], [0, R_k]]``, ``[X_n; R_n]``: sum of the chains."""
    n = base.n
    cores = [np.concatenate([base.cores[0], xcores[0]], axis=2)]
    for k in range(1, n - 1):
        tk = base.cores[k]
        r0, m, r1 = tk.shape
        c = np.zeros((2 * r0, m, 2 * r1))
        c[:r0, :, :r1] = tk
        c[:r0, :, r1:] = xcores[k]
        c[r0:, :, r1:] = right_cores[k]
        cores.append(c)
    cores.append(np.concatenate([xcores[-1], right_cores[-1]], axis=0))
    return cores


def tangent_to_tt(v: TangentVector) -> TtTensor:
    """Exact TT form of the ambient tangent tensor (ranks at most 2r)."""
    return TtTensor(_chain_sum_cores(v.base, v.variation_cores, v.right_cores))


def tangent_step(base: TtTensor, v: TangentVector, eta: float) -> TtTensor:
    """TT representation of ``base - eta * ambient(v)``, ranks at most 2r."""
    if v.base.mode_dims != base.mode_dims or v.base.ranks != base.ranks:
        raise ManifoldError("tangent vector base mismatch")
    xcores = [-eta * c for c in v.variation_cores]
    # The base enters through the last core: [U_1 ... U_{n-1}] U_n.
    xcores[-1] = xcores[-1] + base.cores[-1]
    return TtTensor(_chain_sum_cores(base, xcores, v.right_cores))


def trim(t: TtTensor, xi: float) -> TtTensor:
    """Entrywise clip to ``[-xi, xi]`` preserving sign.

    Dense below the size cap; above the cap trimming is skipped with a
    warning (in practice the online solver behaves identically without it).
    """
    if xi < 0:
        raise ManifoldError("trim threshold must be nonnegative")
    if t.size > tt.DENSE_CAP:
        warnings.warn(
            f"trim skipped: {t.size} entries above dense cap {tt.DENSE_CAP}",
            RuntimeWarning,
            stacklevel=2,
        )
        return t
    x = np.clip(tt.tt_dense(t), -xi, xi)
    return tt.tt_from_dense(x)


def retract(t_plus: TtTensor, ranks, trim_xi: float | None = None) -> TtTensor:
    """Retraction onto the rank-``ranks`` manifold: optional trim, then TTSVD."""
    ranks = tuple(int(r) for r in ranks)
    if any(rp < r for rp, r in zip(t_plus.ranks, ranks)):
        raise ManifoldError(f"input ranks {t_plus.ranks} below target {ranks}")
    if trim_xi is not None:
        if t_plus.size <= tt.DENSE_CAP:
            x = np.clip(tt.tt_dense(t_plus), -trim_xi, trim_xi)
            return tt.ttsvd(x, ranks)
        warnings.warn(
            f"trim skipped in retraction: {t_plus.size} entries above cap",
            RuntimeWarning,
            stacklevel=2,
        )
    return tt.ttsvd(t_plus, ranks)
