"""Geometry of the fixed-TT-rank manifold: tangent spaces, projection, retraction.

A foot point ``T`` is held in mixed-canonical form: its left-orthogonal cores
``U_1, ..., U_{n-1}`` (the last core ``U_n`` carries the norm) and the
right-orthogonal cores ``V_2, ..., V_n`` of one right-to-left sweep.  The
tangent space is parametrized by gauge-fixed variation cores ``X_k``
(``L(X_k)^T L(U_k) = 0`` for k < n); the represented ambient tensor is the
sum over k of the chains ``[U_1, ..., U_{k-1}, X_k, V_{k+1}, ..., V_n]``.
With orthonormal right parts, projecting a sparse ambient tensor costs
``O(n d^2 r^2)`` per entry and needs no linear solve.

A tangent vector holds its ``TangentGeometry``.  A tangent step is retracted
by one sweep of the projector-splitting (KSL) integrator (``ksl_retract``):
r-wide QRs, no rank-2r core and no SVD.  ``retract`` is the trimmed
truncation ``H_r(Trim_xi(.))`` of trimmed steps and the spectral initializer.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import tt
from .tt import TtTensor, fold_left, left_unfold

# Rank-deficiency rejection threshold: smallest/largest separation singular
# value below this ratio at any cut means the foot point is off-manifold.
DEGENERATE_TOL = 1e-12


class ManifoldError(ValueError):
    """Raised for invalid tangent-space inputs (degenerate bases, shapes).

    ``cut`` names the singular separation of a degenerate foot point and
    ``core`` the first core of a step that holds a non-finite value.
    """

    def __init__(self, message, cut=None, core=None):
        super().__init__(message)
        self.cut = cut
        self.core = core


class TangentVector:
    """First-order variation of a TT tensor at the foot point of ``geom``.

    ``X_k`` enters the chain ``[U_1, ..., X_k, V_{k+1}, ..., V_n]`` of the
    geometry's left-orthogonal cores ``U`` and right-orthogonal cores ``V``.
    """

    __slots__ = ("geom", "variation_cores")

    def __init__(self, geom: TangentGeometry, variation_cores):
        base = geom.base
        if len(variation_cores) != base.n:
            raise ManifoldError("need one variation core per site")
        vcs = []
        for c, bc in zip(variation_cores, base.cores):
            c = np.asarray(c, dtype=np.float64)
            if c.shape != bc.shape:
                raise ManifoldError(f"variation core shape {c.shape} != base {bc.shape}")
            vcs.append(c)
        self.geom = geom
        self.variation_cores = vcs

    def gauge_residual(self) -> float:
        """Max violation of ``L(X_k)^T L(T_k) = 0`` over k < n."""
        base = self.geom.base
        worst = 0.0
        for k in range(base.n - 1):
            g = left_unfold(self.variation_cores[k]).T @ left_unfold(base.cores[k])
            worst = max(worst, float(np.max(np.abs(g))) if g.size else 0.0)
        return worst


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
        right, self.singular_values = tt.right_svd_sweep(base.cores)
        for k in range(base.n - 1, 0, -1):
            s = self.singular_values[k - 1]
            ratio = s[-1] / s[0] if s[0] > 0.0 else 0.0
            if s.shape[0] < base.ranks[k - 1] or not ratio >= DEGENERATE_TOL:
                raise ManifoldError(
                    f"rank-deficient foot point: separation at cut {k} is singular "
                    f"(sigma_r/sigma_1 = {ratio:.3g})",
                    cut=k,
                )
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
        """Project ``sum_b values[b] * e_{idx[b]}``; ``lefts`` is ``left_chain(idx)``.

        Repeated rows of ``idx`` add up, as in the sum.
        """
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
        return TangentVector(self, vcores)


def _chain_sum_cores(geom: TangentGeometry, xcores) -> list:
    """``[U_1, X_1]``, ``[[U_k, X_k], [0, V_k]]``, ``[X_n; V_n]``: sum of the chains."""
    return tt._stack_chains(
        [*geom.base.cores[:-1], xcores[-1]], [xcores[0], *geom.right_cores[1:]], xcores
    )


def tangent_to_tt(v: TangentVector) -> TtTensor:
    """Exact TT form of the ambient tangent tensor (ranks at most 2r)."""
    return TtTensor(_chain_sum_cores(v.geom, v.variation_cores))


def tangent_step(v: TangentVector, eta: float) -> TtTensor:
    """TT representation of ``base - eta * ambient(v)``, ranks at most 2r."""
    return TtTensor(_chain_sum_cores(v.geom, _step_cores(v, eta)))


def _step_cores(v: TangentVector, eta: float) -> list:
    """Variation cores ``-eta X_k`` of the step, with ``U_n`` added to the last.

    The base enters through the last chain ``[U_1 ... U_{n-1}] U_n``.
    """
    xcores = [-eta * c for c in v.variation_cores]
    xcores[-1] = xcores[-1] + v.geom.base.cores[-1]
    return xcores


def _non_finite(core: int) -> ManifoldError:
    return ManifoldError(f"non-finite values in core {core}", core=core)


def require_finite(cores):
    """Raise ``ManifoldError`` naming the first core with a non-finite entry."""
    # One check over all cores; naming the core is for the failure path only.
    if not np.isfinite(np.concatenate(cores, axis=None)).all():
        raise _non_finite(next(k for k, c in enumerate(cores) if not np.isfinite(c).all()))


def ksl_retract(v: TangentVector, eta: float) -> TtTensor:
    """Retract ``base - eta * ambient(v)`` to the base's ranks by projector splitting.

    One left-to-right sweep of the projector-splitting (KSL) integrator of
    Lubich, Oseledets & Vandereycken (*Time integration of tensor trains*,
    SINUM 2015) applied to the step ``A = base - eta * ambient(v)``: the new
    left-orthogonal cores are ``Ũ_k = qr(L(K_k))`` with
    ``K_k = Ũ^{<=k-1 T} A V^{>k T}``, and the last core is ``Ũ^{<=n-1 T} A``,
    where ``V_k`` are the right-orthogonal cores of ``v.geom``.  ``K_k`` is
    formed from r x r environments of the chains of ``A``, so no core wider
    than r is built and no SVD runs.  This is a second-order retraction (Absil & Oseledets,
    *Low-rank retractions: a survey and new results*, COAP 2015): it agrees
    with the TTSVD of the stepped tensor to O(eta^3).

    Raises ``ManifoldError`` with ``core`` set when a scaled variation core,
    a ``K_k`` or the last core holds a non-finite value, and ``LinAlgError``
    when a QR fails on finite input.
    """
    ucores = v.geom.base.cores
    vcores = v.geom.right_cores
    n = len(ucores)
    xhat = _step_cores(v, eta)
    require_finite(xhat)
    # Right sweep: env[k] = <U_{k+1} env[k+1] + X̂_{k+1}, V_{k+1}> over (mode,
    # right bond) is A's chains with X̂ after cut k, projected on V^{>k}.
    env = [None] * (n - 1)
    r0 = xhat[-1].shape[0]
    env[-1] = xhat[-1].reshape(r0, -1) @ vcores[-1].reshape(r0, -1).T
    for k in range(n - 2, 0, -1):
        r0, _, r1 = ucores[k].shape
        w = (ucores[k].reshape(-1, r1) @ env[k]).reshape(r0, -1) + xhat[k].reshape(r0, -1)
        env[k - 1] = w @ vcores[k].reshape(r0, -1).T
    # Left sweep: p = Ũ^{<=k-1 T} U^{<=k-1}, and q is Ũ^{<=k-1 T} times A's
    # chains with X̂ before cut k, so K_k = (p U_k) env + p X̂_k + q V_k; at
    # the first core p = 1 and there is no q.  C-order unfoldings, as in the
    # TT-path TTSVD: QR is invariant under row permutations, and the C-order
    # fold undoes the permutation.
    out = []
    for k in range(n - 1):
        r0, m, r1 = ucores[k].shape
        if k:
            pu = (p @ ucores[k].reshape(r0, -1)).reshape(-1, r1)
            w = (p @ xhat[k].reshape(r0, -1) + q @ vcores[k].reshape(r0, -1)).reshape(-1, r1)
        else:
            pu = ucores[0].reshape(-1, r1)
            w = xhat[0].reshape(-1, r1)
        kk = pu @ env[k] + w
        if not np.isfinite(kk).all():
            raise _non_finite(k)
        u, _ = tt._qr(kk)
        out.append(u.reshape(-1, m, u.shape[1]))
        p = u.T @ pu
        q = u.T @ w
    r0, m, _ = ucores[-1].shape
    last = p @ xhat[-1].reshape(r0, m) + q @ vcores[-1].reshape(r0, m)
    if not np.isfinite(last).all():
        raise _non_finite(n - 1)
    out.append(last.reshape(-1, m, 1))
    return TtTensor(out, [tt.LEFT] * (n - 1) + [tt.UNKNOWN])


def trim_level(z: TtTensor, nu: float) -> float:
    """Clipping level ``xi = 10 ||z|| nu / (9 sqrt(size))`` for spikiness bound ``nu``."""
    return (10.0 * tt.tt_norm(z) / (9.0 * float(np.sqrt(z.size)))) * nu


def retract(z: TtTensor, ranks, xi: float) -> TtTensor:
    """Trimmed truncation ``H_r(Trim_xi(z))`` onto the rank-``ranks`` manifold.

    ``z`` is clipped entrywise to ``[-xi, xi]`` (sign kept) in dense form and
    truncated by TTSVD.  Above the dense size cap the trim is skipped with a
    warning and ``z`` is truncated as it is.
    """
    if z.size <= tt.DENSE_CAP:
        return tt.ttsvd(np.clip(tt.tt_dense(z), -xi, xi), ranks)
    warnings.warn(
        f"trim skipped in retraction: {z.size} entries above cap",
        RuntimeWarning,
        stacklevel=2,
    )
    return tt.ttsvd(z, ranks)
