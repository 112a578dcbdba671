"""Reconstruction algorithms: online RGD, offline RGD, RSGD, spectral init.

One online round: project the sampled-entry gradient onto the tangent space
of the current iterate, step, optionally trim, and retract back to rank r by
TTSVD.  The iterate stays left-orthogonal with exact target ranks
throughout, so the per-round cost is polynomial in the mode count.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import manifold, measurement, mpo, tt
from .manifold import SparseTensor, TangentGeometry
from .measurement import MeasurementStream
from .tt import TtTensor


class SolverError(RuntimeError):
    pass


class InitError(SolverError):
    """Spectral initialization failure (usually: not enough samples)."""


@dataclass
class SolverConfig:
    """Online/offline RGD settings.

    The per-round step is ``eta`` when given explicitly; otherwise it is
    resolved as ``alpha * batch_size / n^2`` against the averaged minibatch
    gradient, i.e. every sample in the batch contributes one projected
    gradient step of size ``alpha / n^2``.  Iterations to a fixed error then
    scale as ``n^2 / alpha`` independent of batch size.
    """

    ranks: tuple
    max_iters: int
    batch_size: int = 1
    eta: float | None = None
    alpha: float | None = None
    trim_nu: float | None = None  # enables trimming when set
    stop_rel_error: float | None = None
    stop_move_tol: float | None = None
    stop_move_window: int = 50
    log_every: int = 50
    epochs: int = 1  # RSGD
    epoch_decay: float = 0.9  # RSGD step decay per epoch
    shuffle_seed: int = 0  # RSGD reshuffling

    def __post_init__(self):
        self.ranks = tuple(int(r) for r in self.ranks)
        if self.eta is None and self.alpha is None:
            raise SolverError("one of eta / alpha must be set")
        if self.eta is not None and self.eta < 0:
            raise SolverError("eta must be nonnegative")
        if self.alpha is not None and self.alpha < 0:
            raise SolverError("alpha must be nonnegative")
        if self.batch_size < 1:
            raise SolverError("batch size must be at least 1")
        if self.trim_nu is not None and self.trim_nu <= 0:
            raise SolverError("spikiness parameter must be positive when trimming")

    def resolve_eta(self, n: int) -> float:
        if self.eta is not None:
            return self.eta
        return self.alpha * self.batch_size / float(n * n)


@dataclass
class InitConfig:
    """Sequential second-order spectral initializer settings.

    The mode axis is split into three groups of sizes ceil(n/3), floor(n/3)
    and the remainder; the three stages consume disjoint stream prefixes of
    2*k1, 2*k2 and k3 samples.
    """

    k1: int
    k2: int
    k3: int
    mu: float
    nu: float

    def split(self, n: int):
        m1 = -(-n // 3)
        m2 = n // 3
        return m1, m2, n - m1 - m2


@dataclass
class RunTrace:
    """Per-logged-step solver progress."""

    iters: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    rel_error: list = field(default_factory=list)
    fidelity: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    lambda_min: list = field(default_factory=list)

    HEADER = "iter,samples,rel_error,fidelity,wall_ms,lambda_min"

    def append(self, it, samples, rel_error, fidelity, wall_ms, lam):
        self.iters.append(it)
        self.samples.append(samples)
        self.rel_error.append(rel_error)
        self.fidelity.append(fidelity)
        self.wall_ms.append(wall_ms)
        self.lambda_min.append(lam)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.HEADER + "\n")
            for i in range(len(self.iters)):
                rel = "nan" if self.rel_error[i] is None else repr(self.rel_error[i])
                fid = "nan" if self.fidelity[i] is None else repr(self.fidelity[i])
                fh.write(
                    f"{self.iters[i]},{self.samples[i]},{rel},{fid},"
                    f"{self.wall_ms[i]:.3f},{repr(self.lambda_min[i])}\n"
                )

    @staticmethod
    def rows_excluding_wall(path):
        """Rows of a trace CSV with the wall-time column blanked."""
        out = []
        with open(path) as fh:
            for line in fh:
                cols = line.rstrip("\n").split(",")
                if len(cols) == 6 and cols[0] != "iter":
                    cols[4] = ""
                out.append(",".join(cols))
        return out


def _as_batch_arrays(batch, mode_dims):
    """Convert a list of (SparseTensor, Y) pairs into index/value arrays."""
    scale = float(np.sqrt(np.prod(mode_dims)))
    idx = []
    ys = []
    for e, y in batch:
        if not isinstance(e, SparseTensor):
            raise SolverError("batch elements must be (SparseTensor, value) pairs")
        if e.nnz != 1:
            raise SolverError("each measurement indicator has exactly one entry")
        if abs(e.values[0] - scale) > 1e-9 * scale:
            raise SolverError("indicator tensors must carry the d^n scaling")
        idx.append(e.indices[0])
        ys.append(y)
    return np.asarray(idx, dtype=np.int64), np.asarray(ys, dtype=np.float64)


class _IterateState:
    """Left-orthogonal iterate plus its mixed-canonical tangent geometry."""

    __slots__ = ("t", "geom", "scale")

    def __init__(self, t: TtTensor):
        self.t = t
        self.geom = TangentGeometry(t)
        self.scale = float(np.sqrt(t.size))

    def step(self, idx, y_scaled, eta, trim_nu, ranks):
        # The iterate's entries come off the projection's own left chain.
        lefts = self.geom.left_chain(idx)
        resid = self.scale * lefts[-1][:, 0] - y_scaled
        values = resid * (self.scale / idx.shape[0])
        grad = self.geom.project_batch(idx, values, lefts)
        stepped = manifold.tangent_step(self.t, grad, eta)
        trim_xi = None
        if trim_nu is not None:
            trim_xi = (10.0 * tt.tt_norm(stepped) / (9.0 * self.scale)) * trim_nu
        return _IterateState(manifold.retract(stepped, ranks, trim_xi=trim_xi))


def _prepare_t0(t0: TtTensor, cfg: SolverConfig) -> _IterateState:
    if t0.ranks != cfg.ranks:
        raise SolverError(f"initial ranks {t0.ranks} != target {cfg.ranks}")
    if any(f != tt.LEFT for f in t0.ortho[:-1]):
        t0 = tt.left_orthogonalize(t0)
    return _IterateState(t0)


def orgd_step(t_cur: TtTensor, batch, cfg: SolverConfig) -> TtTensor:
    """One online RGD round on a minibatch of scaled observations.

    With ``batch_size=1`` this is exactly one round of the single-sample
    online algorithm; larger batches average the per-sample gradients.
    """
    idx, ys = _as_batch_arrays(batch, t_cur.mode_dims)
    state = _prepare_t0(t_cur, cfg)
    eta = cfg.resolve_eta(t_cur.n)
    return state.step(idx, ys, eta, cfg.trim_nu, cfg.ranks).t


class _TraceLogger:
    def __init__(self, cfg, ground_truth, pure_target):
        self.cfg = cfg
        self.gt = ground_truth
        self.gt_norm = tt.tt_norm(ground_truth) if ground_truth is not None else None
        self.psi = pure_target
        self.basis = mpo.make_basis(pure_target.d) if pure_target is not None else None
        self.trace = RunTrace()
        self.t0 = time.perf_counter()

    def log(self, it, samples, state):
        rel = None
        if self.gt is not None:
            rel = tt.tt_distance(state.t, self.gt) / self.gt_norm
        fid = None
        if self.psi is not None:
            fid = mpo.fidelity(self.psi, mpo.coeff_to_mpo(state.t, self.basis))
        wall = (time.perf_counter() - self.t0) * 1e3
        # The geometry's sweep already holds every cut's separation spectrum.
        lam = float(min(s[-1] for s in state.geom.singular_values))
        self.trace.append(it, samples, rel, fid, wall, lam)
        return rel


def orgd_run(
    t0: TtTensor,
    stream: MeasurementStream,
    cfg: SolverConfig,
    ground_truth: TtTensor | None = None,
    pure_target: mpo.Mps | None = None,
):
    """Online RGD over a measurement stream; returns ``(iterate, RunTrace)``."""
    state = _prepare_t0(t0, cfg)
    eta = cfg.resolve_eta(t0.n)
    logger = _TraceLogger(cfg, ground_truth, pure_target)
    window_start = state.t
    rel = logger.log(0, 0, state)
    for it in range(1, cfg.max_iters + 1):
        idx, y = stream.draw_batch(cfg.batch_size)
        state = state.step(idx, state.scale * y, eta, cfg.trim_nu, cfg.ranks)
        if it % cfg.log_every == 0 or it == cfg.max_iters:
            rel = logger.log(it, it * cfg.batch_size, state)
            if cfg.stop_rel_error is not None and rel is not None and rel <= cfg.stop_rel_error:
                break
        if cfg.stop_move_tol is not None and it % cfg.stop_move_window == 0:
            move = tt.tt_distance(state.t, window_start) / max(tt.tt_norm(state.t), 1e-300)
            window_start = state.t
            if move < cfg.stop_move_tol:
                break
    return state.t, logger.trace


def rgd_offline_step(t_cur: TtTensor, dataset, cfg: SolverConfig) -> TtTensor:
    """One offline RGD round using the entire resident dataset as the batch."""
    idx, y = dataset
    state = _prepare_t0(t_cur, cfg)
    eta = cfg.resolve_eta(t_cur.n)
    return _offline_step(state, idx, y, eta, cfg).t


def _offline_step(state, idx, y, eta, cfg, chunk=65536):
    """Full-dataset gradient, accumulated in chunks to bound memory."""
    total = idx.shape[0]
    scale = state.scale
    vcores = None
    for lo in range(0, total, chunk):
        sl = slice(lo, min(lo + chunk, total))
        lefts = state.geom.left_chain(idx[sl])
        values = (scale * lefts[-1][:, 0] - scale * y[sl]) * (scale / total)
        part = state.geom.project_batch(idx[sl], values, lefts)
        if vcores is None:
            vcores = part.variation_cores
        else:
            vcores = [a + b for a, b in zip(vcores, part.variation_cores)]
    grad = manifold.TangentVector(state.t, vcores, state.geom.right_cores)
    stepped = manifold.tangent_step(state.t, grad, eta)
    trim_xi = None
    if cfg.trim_nu is not None:
        trim_xi = (10.0 * tt.tt_norm(stepped) / (9.0 * scale)) * cfg.trim_nu
    return _IterateState(manifold.retract(stepped, cfg.ranks, trim_xi=trim_xi))


def rgd_offline_run(
    t0: TtTensor,
    dataset,
    cfg: SolverConfig,
    ground_truth: TtTensor | None = None,
    pure_target: mpo.Mps | None = None,
):
    """Offline RGD baseline: every round consumes the full dataset."""
    idx, y = dataset
    state = _prepare_t0(t0, cfg)
    eta = cfg.resolve_eta(t0.n)
    logger = _TraceLogger(cfg, ground_truth, pure_target)
    rel = logger.log(0, 0, state)
    for it in range(1, cfg.max_iters + 1):
        state = _offline_step(state, idx, y, eta, cfg)
        if it % cfg.log_every == 0 or it == cfg.max_iters:
            rel = logger.log(it, idx.shape[0], state)
            if cfg.stop_rel_error is not None and rel is not None and rel <= cfg.stop_rel_error:
                break
    return state.t, logger.trace


def rsgd_run(
    t0: TtTensor,
    dataset,
    cfg: SolverConfig,
    ground_truth: TtTensor | None = None,
    pure_target: mpo.Mps | None = None,
):
    """Riemannian SGD over a fixed dataset with epoch-wise step decay.

    Each epoch reshuffles the dataset and sweeps it in minibatches (a final
    partial batch is dropped); epoch k uses the decayed rate
    ``alpha_k = alpha * decay^(k-1)``.
    """
    idx, y = dataset
    if cfg.alpha is None:
        raise SolverError("RSGD needs the alpha form of the step size")
    state = _prepare_t0(t0, cfg)
    n = t0.n
    logger = _TraceLogger(cfg, ground_truth, pure_target)
    rng = measurement.make_rng(cfg.shuffle_seed)
    total = idx.shape[0]
    nbatches = total // cfg.batch_size
    if nbatches == 0:
        raise SolverError("dataset smaller than one batch")
    it = 0
    logger.log(0, 0, state)
    logged_at = 0
    for epoch in range(cfg.epochs):
        alpha_k = cfg.alpha * cfg.epoch_decay**epoch
        eta = alpha_k * cfg.batch_size / float(n * n)
        perm = rng.permutation(total)
        for b in range(nbatches):
            sl = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            it += 1
            state = state.step(
                idx[sl], state.scale * y[sl], eta, cfg.trim_nu, cfg.ranks
            )
            if it % cfg.log_every == 0:
                logger.log(it, it * cfg.batch_size, state)
                logged_at = it
    if logged_at != it:
        logger.log(it, it * cfg.batch_size, state)
    return state.t, logger.trace


def collect_dataset(stream: MeasurementStream, count: int):
    """Draw a fixed dataset (index array, raw value array) from a stream."""
    return stream.draw_batch(count)


# ---------------------------------------------------------------------------
# Sequential second-order spectral initialization


def _ravel_f(idx_cols, dims):
    """First-index-fastest linearization of multi-index columns."""
    return np.ravel_multi_index(tuple(idx_cols.T), dims, order="F")


def _pair_gram(rows_a, vals_a, cols_a, rows_b, vals_b, cols_b, nrows, k):
    """Symmetrized cross-group second-moment matrix.

    Implements ``(1/(2k^2)) * sum_{a,b} Ya Yb (xa xb^T + xb xa^T)`` where the
    x's are scaled one-hot (or block) columns; pairs only interact when their
    trailing multi-indices match, so the sum factorizes through sparse
    matrices keyed by the trailing index.
    """
    ncols = int(max(cols_a.max(), cols_b.max())) + 1
    a = sp.coo_matrix((vals_a, (rows_a, cols_a)), shape=(nrows, ncols)).tocsr()
    b = sp.coo_matrix((vals_b, (rows_b, cols_b)), shape=(nrows, ncols)).tocsr()
    cross = (a @ b.T).toarray()
    return (cross + cross.T) / (2.0 * k * k)


def _top_subspace(moment: np.ndarray, r: int, what: str) -> np.ndarray:
    """Top-r left singular vectors; fails when the subspace is unidentifiable."""
    u, s, _ = np.linalg.svd(moment)
    if s[r - 1] <= 1e-12 * max(s[0], 1e-300):
        raise InitError(
            f"{what}: sampled moment matrix has rank below {r}; collect more "
            "samples per stage (or reduce the target ranks)"
        )
    return u[:, :r]


def _truncate_rows(z: np.ndarray, cap: float) -> np.ndarray:
    norms = np.linalg.norm(z, axis=1)
    factor = np.ones_like(norms)
    over = norms > cap
    factor[over] = cap / norms[over]
    return z * factor[:, None]


def _renormalize_columns(z: np.ndarray, what: str) -> np.ndarray:
    gram = z.T @ z
    w, v = np.linalg.eigh(gram)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise InitError(
            f"{what}: Gram matrix singular after row truncation; "
            "increase the stage sample counts"
        )
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    return z @ inv_sqrt


def _split_block_core(core: np.ndarray, dims) -> list[np.ndarray]:
    """Exact QR split of a wide core ``(R1, prod(dims), R2)`` into a chain."""
    r1, _, r2 = core.shape
    out = []
    m = core.reshape(r1, -1, order="F")
    prev = r1
    for j, d in enumerate(dims[:-1]):
        rest = int(np.prod(dims[j + 1 :]))
        mat = m.reshape(prev * d, rest * r2, order="F")
        q, r = np.linalg.qr(mat)
        out.append(q.reshape(prev, d, q.shape[1], order="F"))
        prev = q.shape[1]
        m = r
    out.append(m.reshape(prev, dims[-1], r2, order="F"))
    return out


def spectral_init(stream: MeasurementStream, cfg: InitConfig, ranks, return_info: bool = False):
    """Warm start from sampled second moments of the coefficient tensor.

    Stage one estimates the row space of the first-group separation from a
    symmetrized cross product of two sample groups; stage two repeats for
    the second cut inside the projected column space; stage three solves for
    the last block core by sample averaging.  The assembled third-order
    tensor is trimmed and retracted to the full target ranks.
    """
    n = stream.n
    dims = stream.mode_dims
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != n - 1:
        raise InitError(f"need {n - 1} ranks, got {len(ranks)}")
    m1, m2, m3 = cfg.split(n)
    if m3 < 1:
        raise InitError("mode count too small for a three-way split")
    p1 = int(np.prod(dims[:m1]))
    p2 = int(np.prod(dims[m1 : m1 + m2]))
    p3 = int(np.prod(dims[m1 + m2 :]))
    if p1 * p1 > tt.DENSE_CAP:
        raise InitError(
            f"stage-one moment matrix needs {p1}^2 entries, above the dense cap"
        )
    r1 = ranks[m1 - 1]
    r2 = ranks[m1 + m2 - 1]
    if (r1 * p2) ** 2 > 2**26:
        raise InitError("stage-two projected moment matrix above the size cap")
    scale = stream.scale

    # Stage one: row space of the cut-m1 separation.  Each term carries
    # Y_k * (scaled indicator), i.e. a weight of scale * Y_k per factor.
    idx, y = stream.draw_batch(2 * cfg.k1)
    yv = scale * (scale * y)
    rows = _ravel_f(idx[:, :m1], dims[:m1])
    cols = _ravel_f(idx[:, m1:], dims[m1:])
    k1 = cfg.k1
    n1 = _pair_gram(
        rows[:k1], yv[:k1], cols[:k1], rows[k1:], yv[k1:], cols[k1:], p1, k1
    )
    u = _top_subspace(n1, r1, "stage one")
    z1 = _truncate_rows(u, np.sqrt(cfg.mu * r1) / np.sqrt(p1))
    z1 = _renormalize_columns(z1, "stage one")

    # Stage two: projected second cut.  Each sample's left block becomes
    # r1 stacked rows (l + r1 * mid), scaled by the z1 row of its prefix.
    idx, y = stream.draw_batch(2 * cfg.k2)
    yv = scale * (scale * y)
    pref = _ravel_f(idx[:, :m1], dims[:m1])
    mid = _ravel_f(idx[:, m1 : m1 + m2], dims[m1 : m1 + m2])
    cols = _ravel_f(idx[:, m1 + m2 :], dims[m1 + m2 :])
    k2 = cfg.k2
    block_rows = (np.arange(r1)[None, :] + r1 * mid[:, None]).ravel()
    block_vals = (yv[:, None] * z1[pref]).ravel()
    block_cols = np.repeat(cols, r1)
    half = k2 * r1
    n2 = _pair_gram(
        block_rows[:half],
        block_vals[:half],
        block_cols[:half],
        block_rows[half:],
        block_vals[half:],
        block_cols[half:],
        r1 * p2,
        k2,
    )
    u = _top_subspace(n2, r2, "stage two")
    lz2 = _truncate_rows(u, np.sqrt(cfg.mu * r2) / np.sqrt(p2))
    lz2 = _renormalize_columns(lz2, "stage two")
    z2 = lz2.reshape(r1, p2, r2, order="F")

    # Stage three: last block core by sample averaging.
    idx, y = stream.draw_batch(cfg.k3)
    yv = scale * (scale * y)
    pref = _ravel_f(idx[:, :m1], dims[:m1])
    mid = _ravel_f(idx[:, m1 : m1 + m2], dims[m1 : m1 + m2])
    cols = _ravel_f(idx[:, m1 + m2 :], dims[m1 + m2 :])
    rowvecs = np.einsum("bl,blr->br", z1[pref], z2[:, mid, :].transpose(1, 0, 2))
    z3 = np.zeros((p3, r2))
    np.add.at(z3, cols, yv[:, None] * rowvecs)
    z3 = z3.T / cfg.k3

    zhat = TtTensor(
        [z1.reshape(1, p1, r1), np.ascontiguousarray(z2), z3.reshape(r2, p3, 1)]
    )
    zhat_norm = tt.tt_norm(zhat)
    xi = (10.0 * zhat_norm / (9.0 * scale)) * cfg.nu
    total = int(np.prod(dims))
    if total <= tt.DENSE_CAP:
        x = np.clip(tt.tt_dense(zhat), -xi, xi).reshape(dims, order="F")
        out = tt.ttsvd(x, ranks)
        trimmed = True
    else:
        warnings.warn(
            "initializer trim skipped above the dense cap", RuntimeWarning, stacklevel=2
        )
        cores = (
            _split_block_core(zhat.cores[0], dims[:m1])
            + _split_block_core(zhat.cores[1], dims[m1 : m1 + m2])
            + _split_block_core(zhat.cores[2], dims[m1 + m2 :])
        )
        out = tt.ttsvd(TtTensor(cores), ranks)
        trimmed = False
    if return_info:
        info = {"zhat_norm": zhat_norm, "trim_xi": xi, "trimmed": trimmed,
                "split": (m1, m2, m3)}
        return out, info
    return out
