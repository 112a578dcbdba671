"""Reconstruction algorithms: online RGD, offline RGD, RSGD, spectral init.

One online round: project the sampled-entry gradient onto the tangent space
of the current iterate, step, and retract back to rank r.  An untrimmed step
retracts by one projector-splitting (KSL) sweep of r-wide QRs
(``manifold.ksl_retract``); a trimmed step, like the spectral initializer,
ends in the trimmed truncation ``manifold.retract``.  The iterate stays
left-orthogonal with exact target ranks, so a round costs polynomial time.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import manifold, measurement, mpo, states, tt
from .manifold import TangentGeometry
from .measurement import MeasurementStream
from .tt import TtTensor

# Rounds between the iterate snapshots that the ``stop_move_tol`` rule compares.
STOP_MOVE_WINDOW = 50


class SolverError(RuntimeError):
    pass


class InitError(SolverError):
    """Spectral initialization failure (usually: not enough samples)."""


class StepError(SolverError):
    """A step failed; ``iteration`` numbers it and ``last_iterate`` is its start.

    Raised as is when a finite step cannot be retracted: its values overflow
    the retraction's factorizations, or it collapses the rank and ``cut``
    names the singular separation of the new iterate (None when unknown).
    A solver run that raises it sets ``trace``: the ``RunTrace`` logged so
    far, ending at ``last_iterate``.
    """

    def __init__(self, reason, iteration, last_iterate, cut=None):
        super().__init__(reason)
        self.reason = reason
        self.iteration = iteration
        self.last_iterate = last_iterate
        self.cut = cut
        self.trace = None

    def __str__(self):
        return f"step could not be retracted at iteration {self.iteration}: {self.reason}"


class NonFiniteError(StepError):
    """A step produced non-finite values, usually from a divergent step size.

    ``core`` is the first core of the step holding a non-finite entry: a
    scaled variation core or a core of the projector-splitting sweep, or on
    the trimmed path a core of the rank-2r stepped tensor.
    """

    def __init__(self, core, iteration, last_iterate):
        super().__init__(f"non-finite values in core {core}", iteration, last_iterate)
        self.core = core

    def __str__(self):
        return (
            f"step produced non-finite values at iteration {self.iteration} in core "
            f"{self.core} (step size too large?)"
        )


@dataclass
class SolverConfig:
    """Settings of online RGD, offline RGD and RSGD.

    The per-round step is ``eta`` when given explicitly; otherwise it is
    resolved as ``alpha * batch_size / n^2`` against the averaged minibatch
    gradient, i.e. every sample in the batch contributes one projected
    gradient step of size ``alpha / n^2``.  Iterations to a fixed error then
    scale as ``n^2 / alpha`` independent of batch size.

    ``max_iters`` bounds the rounds of every algorithm; RSGD also stops after
    ``epochs`` passes over its dataset, and steps by the resolved step times
    ``epoch_decay**k`` in epoch k (from 0).  All three log round 0,
    every ``log_every``-th round and the last round run, so the trace ends
    at the returned iterate; they stop once a logged ``rel_error`` is at
    most ``stop_rel_error``, or once the iterate moved by less than
    ``stop_move_tol`` (relative) over the last ``STOP_MOVE_WINDOW`` (50)
    rounds.
    """

    ranks: tuple
    max_iters: int
    batch_size: int = 1
    eta: float | None = None
    alpha: float | None = None
    trim_nu: float | None = None  # enables trimming when set, up to the dense cap
    stop_rel_error: float | None = None
    stop_move_tol: float | None = None
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
        if self.max_iters < 0:
            raise SolverError("max_iters must be nonnegative")
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
    # Columns that time the run rather than describe it; replay ignores them.
    TIMING_COLUMNS = ("wall_ms",)

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
        """Rows of a trace CSV with its timing columns, found by header name, blanked."""
        out = []
        blank = []
        with open(path) as fh:
            for i, line in enumerate(fh):
                cols = line.rstrip("\n").split(",")
                if i == 0:
                    blank = [j for j, name in enumerate(cols) if name in RunTrace.TIMING_COLUMNS]
                else:
                    for j in blank:
                        if j < len(cols):
                            cols[j] = ""
                out.append(",".join(cols))
        return out


class _IterateState:
    """Left-orthogonal iterate after ``iteration`` steps, plus its tangent geometry."""

    __slots__ = ("t", "geom", "scale", "iteration")

    # Rows projected at once: bounds the memory of a full-dataset gradient.
    CHUNK_ROWS = 65536

    def __init__(self, t: TtTensor, iteration: int = 0):
        self.t = t
        self.geom = TangentGeometry(t)
        self.scale = float(np.sqrt(t.size))
        self.iteration = iteration

    def gradient(self, idx, y):
        """Projected gradient of the residuals on ``(idx, y)``, averaged over its rows.

        ``y`` holds raw observed values; the iterate's entries come off the
        projection's own left chain.  Rows are projected ``CHUNK_ROWS`` at a
        time and the variation cores summed.
        """
        total = idx.shape[0]
        grad = None
        for lo in range(0, total, self.CHUNK_ROWS):
            rows = slice(lo, lo + self.CHUNK_ROWS)
            lefts = self.geom.left_chain(idx[rows])
            values = (self.scale * lefts[-1][:, 0] - self.scale * y[rows]) * (self.scale / total)
            part = self.geom.project_batch(idx[rows], values, lefts)
            if grad is not None:
                part.variation_cores = [
                    a + b for a, b in zip(grad.variation_cores, part.variation_cores)
                ]
            grad = part
        return grad

    def step(self, idx, y, eta, trim_nu, ranks):
        """One round on the batch ``(idx, y)``: project its gradient, step, retract.

        An untrimmed step retracts by one projector-splitting sweep at the
        current ranks.  A trimmed step is formed at rank 2r and retracted to
        ``ranks`` by the trimmed truncation at ``trim_level(., trim_nu)``.  A
        failed step raises ``StepError``.
        """
        grad = self.gradient(idx, y)
        it = self.iteration + 1
        try:
            if trim_nu is None:
                t = manifold.ksl_retract(grad, eta)
            else:
                stepped = manifold.tangent_step(grad, eta)
                manifold.require_finite(stepped.cores)
                t = manifold.retract(stepped, ranks, manifold.trim_level(stepped, trim_nu))
            return _IterateState(t, it)
        except manifold.ManifoldError as exc:
            if exc.core is not None:
                raise NonFiniteError(exc.core, it, self.t) from exc
            # A rank collapse the new geometry rejects names its cut.
            raise StepError(str(exc), it, self.t, exc.cut) from exc
        except np.linalg.LinAlgError as exc:
            # A factorization that overflows on finite input.
            raise StepError(str(exc), it, self.t) from exc


class _TraceLogger:
    """Trace rows of a run.  The fidelity is read by Parseval: ``<psi|rho|psi>``
    is the inner product ``<t, c_psi>`` of real coefficient tensors."""

    def __init__(self, ground_truth, pure_target):
        self.gt = ground_truth
        self.gt_norm = tt.tt_norm(ground_truth) if ground_truth is not None else None
        self.c_psi = states.pure_state_coeff(pure_target) if pure_target is not None else None
        self.trace = RunTrace()
        self.t0 = time.perf_counter()

    def log(self, samples, state):
        rel = None
        if self.gt is not None:
            rel = tt.tt_distance(state.t, self.gt) / self.gt_norm
        fid = None
        if self.c_psi is not None:
            fid = abs(tt.tt_inner(state.t, self.c_psi))
        wall = (time.perf_counter() - self.t0) * 1e3
        # The geometry's sweep already holds every cut's separation spectrum.
        lam = float(min(s[-1] for s in state.geom.singular_values))
        self.trace.append(state.iteration, samples, rel, fid, wall, lam)
        return rel

    def finish(self, samples, state):
        """The trace, ending at ``state``."""
        if self.trace.iters[-1] != state.iteration:
            self.log(samples, state)
        return self.trace


def _descend(t0, rounds, cfg, ground_truth, pure_target):
    """The descent loop of every solver; returns ``(iterate, RunTrace)``.

    ``rounds`` yields ``(idx, y, eta, samples)``: a batch, its step size and
    the trace's sample count; ``max_iters`` of them at most.  Above the dense
    cap a trimmed run warns once and steps untrimmed.  Logging and stopping
    follow ``SolverConfig``.  A ``StepError`` leaves with its ``trace`` set.
    """
    if t0.ranks != cfg.ranks:
        raise SolverError(f"initial ranks {t0.ranks} != target {cfg.ranks}")
    trim_nu = cfg.trim_nu
    if trim_nu is not None and t0.size > tt.DENSE_CAP:
        msg = f"trim skipped in every step: {t0.size} entries above the dense cap"
        warnings.warn(msg, RuntimeWarning, stacklevel=3)
        trim_nu = None
    if any(f != tt.LEFT for f in t0.ortho[:-1]):
        t0 = tt.left_orthogonalize(t0)
    state = _IterateState(t0)
    logger = _TraceLogger(ground_truth, pure_target)
    logger.log(0, state)
    window_start = state.t
    samples = 0
    try:
        for idx, y, eta, round_samples in itertools.islice(rounds, cfg.max_iters):
            state = state.step(idx, y, eta, trim_nu, cfg.ranks)
            samples = round_samples
            it = state.iteration
            if it % cfg.log_every == 0:
                rel = logger.log(samples, state)
                if cfg.stop_rel_error is not None and rel is not None and rel <= cfg.stop_rel_error:
                    break
            if cfg.stop_move_tol is not None and it % STOP_MOVE_WINDOW == 0:
                move = tt.tt_distance(state.t, window_start) / max(tt.tt_norm(state.t), 1e-300)
                window_start = state.t
                if move < cfg.stop_move_tol:
                    break
    except StepError as exc:
        exc.trace = logger.finish(samples, state)
        raise
    return state.t, logger.finish(samples, state)


def orgd_run(
    t0: TtTensor,
    stream: MeasurementStream,
    cfg: SolverConfig,
    ground_truth: TtTensor | None = None,
    pure_target: mpo.Mps | None = None,
):
    """Online RGD: up to ``max_iters`` rounds, each on a fresh minibatch from ``stream``.

    A round averages the gradients of its ``batch_size`` raw observations.
    Returns ``(iterate, RunTrace)``.
    """
    eta = cfg.resolve_eta(t0.n)
    rounds = (
        (*stream.draw_batch(cfg.batch_size), eta, it * cfg.batch_size)
        for it in itertools.count(1)
    )
    return _descend(t0, rounds, cfg, ground_truth, pure_target)


def rgd_offline_run(
    t0: TtTensor,
    dataset,
    cfg: SolverConfig,
    ground_truth: TtTensor | None = None,
    pure_target: mpo.Mps | None = None,
):
    """Offline RGD baseline: each of up to ``max_iters`` rounds consumes the full dataset."""
    idx, y = dataset
    if idx.shape[0] == 0:
        raise SolverError("offline RGD needs a non-empty dataset")
    rounds = itertools.repeat((idx, y, cfg.resolve_eta(t0.n), idx.shape[0]))
    return _descend(t0, rounds, cfg, ground_truth, pure_target)


def rsgd_run(
    t0: TtTensor,
    dataset,
    cfg: SolverConfig,
    ground_truth: TtTensor | None = None,
    pure_target: mpo.Mps | None = None,
):
    """Riemannian SGD over a fixed dataset with epoch-wise step decay.

    Each of ``epochs`` epochs reshuffles the dataset and sweeps it in
    minibatches (a final partial batch is dropped); epoch k (from 0) steps by
    ``cfg.resolve_eta(n) * epoch_decay**k``, for ``max_iters`` rounds at most.
    """
    idx, y = dataset
    total = idx.shape[0]
    nbatches = total // cfg.batch_size
    if nbatches == 0:
        raise SolverError("dataset smaller than one batch")

    def rounds():
        rng = measurement.make_rng(cfg.shuffle_seed)
        it = 0
        for epoch in range(cfg.epochs):
            eta = cfg.resolve_eta(t0.n) * cfg.epoch_decay**epoch
            perm = rng.permutation(total)
            for b in range(nbatches):
                sl = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                it += 1
                yield idx[sl], y[sl], eta, it * cfg.batch_size

    return _descend(t0, rounds(), cfg, ground_truth, pure_target)


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
    u, s, _ = tt._svd(moment)
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
        q, r = tt._qr(mat)
        out.append(q.reshape(prev, d, q.shape[1], order="F"))
        prev = q.shape[1]
        m = r
    out.append(m.reshape(prev, dims[-1], r2, order="F"))
    return out


def spectral_init(stream: MeasurementStream, cfg: InitConfig, ranks):
    """Warm start from sampled second moments of the coefficient tensor.

    Stage one estimates the row space of the first-group separation from a
    symmetrized cross product of two sample groups; stage two repeats for
    the second cut inside the projected column space; stage three solves for
    the last block core by sample averaging.  The assembled third-order
    tensor is split into a chain, trimmed and retracted to the full target
    ranks by ``manifold.retract``.  Returns ``(iterate, info)``.
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
    chain = TtTensor(
        _split_block_core(zhat.cores[0], dims[:m1])
        + _split_block_core(zhat.cores[1], dims[m1 : m1 + m2])
        + _split_block_core(zhat.cores[2], dims[m1 + m2 :])
    )
    xi = manifold.trim_level(zhat, cfg.nu)
    out = manifold.retract(chain, ranks, xi)
    info = {"zhat_norm": tt.tt_norm(zhat), "trim_xi": xi,
            "trimmed": zhat.size <= tt.DENSE_CAP, "split": (m1, m2, m3)}
    return out, info
