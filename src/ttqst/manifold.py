"""Geometry of the fixed-TT-rank manifold: tangent spaces, projection, retraction.

A foot point ``T`` is held in mixed-canonical form: its left-orthogonal cores
``U_1, ..., U_{n-1}`` (the last core ``U_n`` carries the norm) and the
right-orthogonal cores ``V_2, ..., V_n`` of one right-to-left sweep of thin
QRs, whose r x r factors also give every cut's separation spectrum.  The
tangent space is parametrized by gauge-fixed variation cores ``X_k``
(``L(X_k)^T L(U_k) = 0`` for k < n); the represented ambient tensor is the
sum over k of the chains ``[U_1, ..., U_{k-1}, X_k, V_{k+1}, ..., V_n]``.
With orthonormal right parts, projecting a sparse ambient tensor costs
``O(n d^2 r^2)`` per entry and needs no linear solve.

The batched left chain of a projection steps site by site with
``tt._chain_rows``: one GEMM against all mode slices of a core, then a
``take`` of the batch's flat rows ``b * m_k + idx[b, k]`` (``tt._flat_rows``).
The one-hot scatter of the projection writes through the same flat rows, and
the right chain steps through the one-hot: its row b holds the right part of
row b at mode ``idx[b, k]`` and zeros elsewhere, so one GEMM against the
transposed unfolding of ``V_k`` gives the next right parts, with no select.
Every 2-D product is the ``ndarray.dot`` method, as in ``tt``: the same GEMM
as ``np.dot`` and ``@`` without their dispatch.  The geometry unfolds each
core of the foot point once, as views, and the projection, the left chain
and the retraction read those unfoldings.  A tangent vector holds its
``TangentGeometry`` and its variation cores as the ``(r0, m * r1)``
unfoldings that the projection forms and the retraction reads;
``variation_cores`` are order-3 views of them.  A tangent step is retracted
by one sweep of the projector-splitting (KSL) integrator (``ksl_retract``):
r-wide unchecked QRs that form only their ``q``, no rank-2r core and no SVD,
and one finiteness check after the sweep; the new iterate's shapes come from
the sweep, so it is built unchecked (``TtTensor._from_cores``).
``retract`` is the trimmed truncation ``H_r(Trim_xi(.))`` of trimmed steps
(``trimmed_retract``) and the spectral initializer.  When no entry exceeds
``xi`` the trim is the identity, and ``retract`` truncates its TT input by
the TT-path TTSVD, with no dense SVD; only a trim that clips takes the dense
TTSVD.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from scipy.linalg import blas, lapack

from . import tt
from .tt import TtTensor

# Rank-deficiency rejection threshold: smallest/largest separation singular
# value below this ratio at any cut means the foot point is off-manifold.
DEGENERATE_TOL = 1e-12

# A cut factor is certified well conditioned, with no SVD, when a lower bound
# on its sigma_r is at least CERT_MARGIN * DEGENERATE_TOL times its Frobenius
# norm.  The margin absorbs the rounding of the triangular inverse (relative
# error up to about kappa * r * eps, below 1e-3 for r <= 16 wherever a factor
# is certified) and of the SVD's own values.  CERT_SLACK * r * eps * |R|_F bounds the strictly
# lower part of a computed factor ``q.T @ a``, measured at most 0.6 r eps |R|_F
# over graded test spectra; the slack covers its growth with the row count.
CERT_MARGIN = 10.0
CERT_SLACK = 256.0
_EPS = float(np.finfo(np.float64).eps)


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
    The vector holds each ``X_k`` as its ``(r0, m * r1)`` unfolding, the
    layout the projection forms and both sweeps of ``ksl_retract`` read;
    ``variation_cores`` are order-3 views of them.
    """

    __slots__ = ("geom", "_cols")

    def __init__(self, geom: TangentGeometry, variation_cores):
        base = geom.base
        if len(variation_cores) != base.n:
            raise ManifoldError("need one variation core per site")
        cols = []
        for c, bc in zip(variation_cores, base.cores):
            c = np.asarray(c, dtype=np.float64)
            if c.shape != bc.shape:
                raise ManifoldError(f"variation core shape {c.shape} != base {bc.shape}")
            cols.append(c.reshape(c.shape[0], -1))
        self.geom = geom
        self._cols = cols

    @classmethod
    def _from_cols(cls, geom: TangentGeometry, cols) -> TangentVector:
        """The vector of the unfoldings ``cols``, float64 and of the base's shapes, unchecked."""
        v = cls.__new__(cls)
        v.geom = geom
        v._cols = cols
        return v

    @property
    def variation_cores(self) -> list:
        """The ``X_k`` as order-3 views of the kept unfoldings."""
        return [c.reshape(bc.shape) for c, bc in zip(self._cols, self.geom.base.cores)]


def _require_left_orthogonal(base: TtTensor):
    """Trust ``base.left_orthogonal``; check cores 1..n-1 of an unflagged base."""
    if base.left_orthogonal:
        return
    if not all(tt.is_left_orthogonal(c, tol=1e-10) for c in base.cores[:-1]):
        raise ManifoldError(
            "projection foot point must have left-orthogonal cores 1..n-1 "
            "(run left_orthogonalize first)"
        )


def _certified(r: np.ndarray) -> bool:
    """True when the r x r cut factor ``r`` provably passes the ``DEGENERATE_TOL`` test.

    ``r`` is upper triangular up to rounding.  One LAPACK ``dtrtri`` gives
    ``triu(r)^-1``, and with ``|r|_F >= sigma_1`` and
    ``sigma_r >= 1 / |triu(r)^-1|_F - CERT_SLACK * r * eps * |r|_F`` a
    factor whose bound reaches ``CERT_MARGIN * DEGENERATE_TOL * |r|_F`` is one
    whose computed ratio ``sigma_r / sigma_1`` passes too.  False, which
    only defers to the SVD, on a zero pivot, on a bound short of the margin,
    or when a norm is not finite.
    """
    inv, info = lapack.dtrtri(r)
    if info != 0:
        return False
    norm = blas.dnrm2(r.ravel())
    bound = 1.0 / blas.dnrm2(inv.T.ravel()) - CERT_SLACK * r.shape[0] * _EPS * norm
    return bool(bound >= CERT_MARGIN * DEGENERATE_TOL * norm)


class TangentGeometry:
    """Mixed-canonical form of a foot point, for tangent projection.

    Keeps the left-orthogonal cores ``U_k`` of the foot point and builds its
    right-orthogonal cores ``V_k`` by one right-to-left sweep of thin QRs
    (``tt.right_qr_sweep``), so ``T = U^{<=k} R_k^T V^{>k}`` at every cut k
    and projection needs no solve.  Any rotation of the ``V_k`` would serve:
    projection and ``ksl_retract`` are gauge-invariant.  With ``U`` and ``V``
    orthonormal, the singular values of the r x r factor ``R_k`` are the
    separation singular values of cut k; sigma_r / sigma_1 below
    ``DEGENERATE_TOL`` rejects the foot point as off-manifold, and so does a
    rank r above the width of the right side, where ``R_k`` has fewer than r
    rows.  Each cut is first certified by ``_certified``, which takes no SVD;
    only a cut it cannot certify takes the values-only SVD and its ratio
    test.  ``singular_values[k-1]``, cut k's spectrum, is computed from the
    factors the first time it is read.
    """

    def __init__(self, base: TtTensor):
        _require_left_orthogonal(base)
        self.base = base
        right, self._factors = tt.right_qr_sweep(base.cores)
        for k in range(base.n - 1, 0, -1):
            r = self._factors[k - 1]
            if r.shape[0] < base.ranks[k - 1]:
                raise ManifoldError(
                    f"rank-deficient foot point: rank {base.ranks[k - 1]} at cut {k} "
                    f"exceeds the bound {r.shape[0]} of the right side",
                    cut=k,
                )
            if _certified(r):
                continue
            s = tt._svd(r, compute_uv=False)
            ratio = s[-1] / s[0] if s[0] > 0.0 else 0.0
            if not ratio >= DEGENERATE_TOL:
                raise ManifoldError(
                    f"rank-deficient foot point: separation at cut {k} is singular "
                    f"(sigma_r/sigma_1 = {ratio:.3g})",
                    cut=k,
                )
        # right_cores = [U_1 R_1^T, V_2, ..., V_n] is the foot point right-orthogonalized.
        self.right_cores = tuple(right)
        # The C-order unfoldings that every round reads, made once per foot
        # point, all views: U_k as (r0 * m, r1) rows and (r0, m * r1)
        # columns, and V_k as (r0, m * r1) columns.
        self._urows = [c.reshape(-1, c.shape[2]) for c in base.cores]
        self._ucols = [c.reshape(c.shape[0], -1) for c in base.cores]
        self._vcols = [None] + [c.reshape(c.shape[0], -1) for c in right[1:]]

    @functools.cached_property
    def singular_values(self) -> list:
        """Separation singular values of cuts 1..n-1, by values-only SVDs of the factors."""
        return [tt._svd(r, compute_uv=False) for r in self._factors]

    def left_chain(self, idx: np.ndarray):
        """``(sel, lefts)``: the batch's selector and its rows of the left parts.

        ``sel`` is ``tt._flat_rows(idx, mode_dims)``, and ``lefts[k]`` holds
        the rows ``U^{<=k}[idx_1..idx_k, :]``, k = 0..n, each of shape
        (B, r_k).  The last one, of shape (B, 1), holds the foot point's
        entries at idx.  ``idx`` is (B, n), of any integer dtype; an index
        outside its mode raises ``TtError``.
        """
        idx = np.asarray(idx)
        sel = tt._flat_rows(idx, self.base.mode_dims)
        lefts = [np.ones((idx.shape[0], 1)), self._urows[0].take(idx[:, 0], axis=0)]
        for k in range(1, self.base.n):
            lefts.append(tt._chain_rows(lefts[k], self._ucols[k], self._urows[k].shape[1], sel[k]))
        return sel, lefts

    def project_batch(self, idx: np.ndarray, values: np.ndarray, chain=None) -> TangentVector:
        """Project ``sum_b values[b] * e_{idx[b]}``; ``chain`` is ``left_chain(idx)``.

        The projection reads the batch through the chain's selector and rows;
        without ``chain`` it runs ``left_chain`` itself, so a batch's
        selector is built once either way.  Repeated rows of ``idx`` add up,
        as in the sum.  ``values`` of a shape other than (B,) raise
        ``ManifoldError``.
        """
        base = self.base
        n = base.n
        sel, lefts = self.left_chain(idx) if chain is None else chain
        values = np.asarray(values, dtype=np.float64)
        bsz = sel.shape[1]
        if values.shape != (bsz,):
            raise ManifoldError(f"values of shape {values.shape} for indices of shape "
                                f"{np.shape(idx)}: need ({bsz},)")
        # right = values times the rows V^{>k}[:, idx_{k+1}..idx_n] of the
        # right parts, (B, r_k).
        right = values[:, None]
        xcols = [None] * n
        for k in range(n - 1, -1, -1):
            r0, m, r1 = base.cores[k].shape
            # One GEMM scatters every rank-one term l_b (x) e_{idx_k[b]} (x) w_b;
            # row b's terms land in its own m rows of the (B * m, r1) unfolding.
            onehot = np.zeros((bsz * m, r1))
            onehot[sel[k]] = right
            onehot = onehot.reshape(bsz, m * r1)
            xk = lefts[k].T.dot(onehot)
            if k < n - 1:
                # Gauge projection X -= L(U_k) (L(U_k)^T X) on C-order
                # unfoldings, which are views: the projector is invariant
                # under the same row permutation of U_k and X.
                xk = xk.reshape(r0 * m, r1)
                u = self._urows[k]
                xk = (xk - u.dot(u.T.dot(xk))).reshape(r0, m * r1)
            xcols[k] = xk
            if k:
                # Row b of the one-hot is w_b at mode idx_k[b] and zero at
                # the other modes, so its product with L(V_k)^T is the next
                # right row V_k[:, idx_k[b], :] w_b.
                right = onehot.dot(self._vcols[k].T)
        return TangentVector._from_cols(self, xcols)


def _chain_sum_cores(geom: TangentGeometry, xcores) -> list:
    """``[U_1, X_1]``, ``[[U_k, X_k], [0, V_k]]``, ``[X_n; V_n]``: sum of the chains."""
    return tt._stack_chains(
        [*geom.base.cores[:-1], xcores[-1]], [xcores[0], *geom.right_cores[1:]], xcores
    )


def _step_cores(v: TangentVector, eta: float) -> list:
    """Variation cores ``-eta X_k`` of the step, with ``U_n`` added to the last.

    The base enters through the last chain ``[U_1 ... U_{n-1}] U_n``.
    """
    xcores = [-eta * c for c in v.variation_cores]
    xcores[-1] = xcores[-1] + v.geom.base.cores[-1]
    return xcores


def _non_finite(core: int) -> ManifoldError:
    return ManifoldError(f"non-finite values in core {core}", core=core)


def require_finite(cores) -> np.ndarray:
    """Raise ``ManifoldError`` naming the first core with a non-finite entry.

    Returns the entries of all cores, concatenated.
    """
    # One check over all cores; naming the core is for the failure path only.
    flat = np.concatenate(cores, axis=None)
    if not np.isfinite(flat).all():
        raise _non_finite(next(k for k, c in enumerate(cores) if not np.isfinite(c).all()))
    return flat


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
    when a QR fails or overflows on finite input.  The ``K_k`` are checked
    once, after the sweep; the error names what a check of each ``K_k`` in
    turn would name.
    """
    geom = v.geom
    ucores, urows, ucols, vcols = geom.base.cores, geom._urows, geom._ucols, geom._vcols
    n = len(ucores)
    # The step's variation cores -eta X_k, with U_n added to the last, in the
    # vector's (r0, m * r1) unfoldings: both sweeps read them.
    xcols = [-eta * c for c in v._cols]
    xcols[-1] = xcols[-1] + ucols[-1]
    require_finite(xcols)
    # Right sweep: env[k] = <U_{k+1} env[k+1] + X̂_{k+1}, V_{k+1}> over (mode,
    # right bond) is A's chains with X̂ after cut k, projected on V^{>k}.
    env = [None] * (n - 1)
    env[-1] = xcols[-1].dot(vcols[-1].T)
    for k in range(n - 2, 0, -1):
        w = urows[k].dot(env[k]).reshape(xcols[k].shape) + xcols[k]
        env[k - 1] = w.dot(vcols[k].T)
    # Left sweep: p = Ũ^{<=k-1 T} U^{<=k-1}, and q is Ũ^{<=k-1 T} times A's
    # chains with X̂ before cut k, so K_k = (p U_k) env + p X̂_k + q V_k; at
    # the first core p = 1 and there is no q.  C-order unfoldings, as in the
    # TT-path TTSVD: QR is invariant under row permutations, and the C-order
    # fold undoes the permutation.  Only the QR's q is formed.  Each K_k and
    # its new core are kept for one finiteness check after the sweep; only a
    # failed check scans them.
    out = []
    kks = []
    for k in range(n - 1):
        r0, m, r1 = ucores[k].shape
        if k:
            pu = p.dot(ucols[k]).reshape(-1, r1)
            w = (p.dot(xcols[k]) + q.dot(vcols[k])).reshape(-1, r1)
        else:
            pu = urows[0]
            w = xcols[0].reshape(-1, r1)
        kk = pu.dot(env[k]) + w
        u = tt._householder_q(kk)
        kks.append(kk)
        out.append(u.reshape(-1, m, u.shape[1]))
        ut = u.T
        p = ut.dot(pu)
        q = ut.dot(w)
    m = ucores[-1].shape[1]
    last = p.dot(xcols[-1]) + q.dot(vcols[-1])
    if not np.isfinite(np.concatenate([*kks, *out, last], axis=None)).all():
        for k, (kk, u) in enumerate(zip(kks, out)):
            if not np.isfinite(kk).all():
                raise _non_finite(k)
            tt._check_factors([u], [kk])
        raise _non_finite(n - 1)
    out.append(last.reshape(-1, m, 1))
    return TtTensor._from_cores(out, True)


def trim_level(norm: float, size: int, nu: float) -> float:
    """Clipping level ``xi = 10 norm nu / (9 sqrt(size))`` for spikiness bound ``nu``.

    ``norm`` is the Frobenius norm of the tensor to trim and ``size`` its
    entry count.
    """
    return (10.0 * norm / (9.0 * math.sqrt(size))) * nu


def retract(z: TtTensor, ranks, xi: float) -> TtTensor:
    """Trimmed truncation ``H_r(Trim_xi(z))`` onto the rank-``ranks`` manifold.

    ``z`` is materialized once.  When no entry exceeds ``xi`` in magnitude
    the trim is the identity, and ``z`` is truncated by the TT-path TTSVD:
    one right QR sweep and SVDs at most as wide as ``z``'s ranks.  Otherwise
    its entries are clipped to ``[-xi, xi]`` (sign kept) and the clipped
    array is truncated by the dense TTSVD.  Above the dense size cap the
    trim is skipped with a warning and ``z`` is truncated as it is.
    """
    if z.size <= tt.DENSE_CAP:
        dense = tt.tt_dense(z)
        if np.abs(dense).max() <= xi:
            return tt.ttsvd(z, ranks)
        return tt.ttsvd(np.clip(dense, -xi, xi, out=dense), ranks)
    warnings.warn(
        f"trim skipped in retraction: {z.size} entries above cap",
        RuntimeWarning,
        stacklevel=2,
    )
    return tt.ttsvd(z, ranks)


def trimmed_retract(v: TangentVector, eta: float, ranks, nu: float) -> TtTensor:
    """Retract ``base - eta * ambient(v)`` to ``ranks`` by the trimmed truncation.

    The step is formed exactly at ranks up to 2r and handed to ``retract`` at
    ``xi = trim_level(|step|, size, nu)``.  By the gauge condition the step's
    chains are mutually orthogonal, and ``U`` and ``V`` are orthonormal, so
    ``|step|^2`` is the sum of the squared step cores: no TT inner product.
    Raises ``ManifoldError`` with ``core`` set when a step core holds a
    non-finite value.
    """
    xhat = _step_cores(v, eta)
    norm = float(np.linalg.norm(require_finite(xhat)))
    z = TtTensor._from_cores(_chain_sum_cores(v.geom, xhat), False)
    return retract(z, ranks, trim_level(norm, z.size, nu))
