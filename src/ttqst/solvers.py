"""Reconstruction algorithms: online RGD, offline RGD, RSGD, spectral init.

One online round: project the sampled-entry gradient onto the tangent space
of the current iterate, step, and retract back to rank r.  An untrimmed step
retracts by one projector-splitting (KSL) sweep of r-wide QRs
(``manifold.ksl_retract``); a trimmed step (``manifold.trimmed_retract``),
like the spectral initializer, ends in the trimmed truncation
``manifold.retract``, which stays in TT form when the trim clips nothing.
The iterate stays left-orthogonal with exact target ranks, so a round costs
polynomial time, and its norm is that of its last core: a run whose norm
passes ``DIVERGED_FACTOR`` times that of its start has diverged.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas

from . import manifold, measurement, mpo, states, tt
from .manifold import TangentGeometry
from .measurement import MeasurementStream
from .tt import TtTensor

# Rounds between the iterate snapshots that the ``stop_move_tol`` rule compares.
STOP_MOVE_WINDOW = 50

# Bytes that one block of a gradient holds: per row its selector, its rows of
# every left part and, while a site is projected, the widest (rows, m * r)
# chain product and the (rows * m, r) one-hot.  The block's row count is
# derived from it, so a gradient over any dataset holds a bounded transient.
GRADIENT_BLOCK_BYTES = 2**23

# A run has diverged once its iterate's norm exceeds this factor times
# max(1, norm of the start).  A density operator's coefficient tensor has
# norm sqrt(Tr rho^2) <= 1.
DIVERGED_FACTOR = 100.0


class SolverError(RuntimeError):
    pass


class InitError(SolverError):
    """Spectral initialization failure (usually: not enough samples)."""


class StepError(SolverError):
    """A step failed; ``iteration`` numbers it and ``last_iterate`` is its start.

    Raised as is when a finite step cannot be retracted: its values overflow
    the retraction's factorizations, or it collapses the rank and ``cut``
    names the singular separation of the new iterate (None when unknown).
    Also raised as is when the run diverges: the new iterate's norm exceeds
    ``DIVERGED_FACTOR`` times max(1, norm of the run's start).  A solver run
    that raises it sets ``trace``: the ``RunTrace`` logged so far, ending at
    ``last_iterate``.
    """

    def __init__(self, reason, iteration, last_iterate, cut=None):
        super().__init__(reason)
        self.reason = reason
        self.iteration = iteration
        self.last_iterate = last_iterate
        self.cut = cut
        self.trace = None

    def __str__(self):
        return f"step failed at iteration {self.iteration}: {self.reason}"


class NonFiniteError(StepError):
    """A step produced non-finite values, usually from a divergent step size.

    ``core`` is the first core of the step holding a non-finite entry: a
    scaled variation core or a core of the projector-splitting sweep.
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
    gradient step of size ``alpha / n^2``.  At fixed ``alpha`` the *samples*
    to a fixed error are then about independent of batch size, and the
    rounds are not: at n=6, batch 200 took 580 rounds where batch 20 took
    5780, on about the same number of samples.

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
    max_iters: int = 10000
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
            raise SolverError("eta must be set when alpha is not")
        for key in ("eta", "alpha"):
            value = getattr(self, key)
            if value is not None and not 0 <= value < np.inf:
                raise SolverError(f"{key} must be finite and nonnegative, got {value}")
        for key, low in (("batch_size", 1), ("max_iters", 0), ("log_every", 1), ("epochs", 1)):
            if getattr(self, key) < low:
                raise SolverError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if self.trim_nu is not None and not 0 < self.trim_nu < np.inf:
            raise SolverError(f"trim_nu must be finite and positive, got {self.trim_nu}")
        for key in ("epoch_decay", "stop_rel_error", "stop_move_tol"):
            value = getattr(self, key)
            if value is not None and not np.isfinite(value):
                raise SolverError(f"{key} must be finite, got {value}")

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

    def __post_init__(self):
        for key in ("k1", "k2", "k3"):
            if getattr(self, key) < 1:
                raise SolverError(f"{key} must be at least 1, got {getattr(self, key)}")
        for key in ("mu", "nu"):
            value = getattr(self, key)
            if not 0 < value < np.inf:
                raise SolverError(f"{key} must be finite and positive, got {value}")

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

    __slots__ = ("t", "geom", "scale", "block", "iteration")

    def __init__(self, t: TtTensor, iteration: int = 0, prev: _IterateState | None = None):
        self.t = t
        self.geom = TangentGeometry(t)
        # sqrt of the entry count, and the rows of a gradient block.  A step
        # keeps the mode sizes and ranks, so the next state carries both.
        if prev is None:
            self.scale = math.sqrt(t.size)
            widest = max(c.shape[1] * max(c.shape[0], c.shape[2]) for c in t.cores)
            per_row = 8 * (t.n + sum(t.ranks) + 2 + 2 * widest)
            self.block = max(1, GRADIENT_BLOCK_BYTES // per_row)
        else:
            self.scale, self.block = prev.scale, prev.block
        self.iteration = iteration

    def gradient(self, idx, y):
        """Projected gradient of the residuals on ``(idx, y)``, averaged over its rows.

        ``y`` holds raw observed values; the iterate's entries come off the
        projection's own left chain, which also hands the projection its
        flat-row selector.  Rows are projected ``block`` at a time, so the
        transient stays near ``GRADIENT_BLOCK_BYTES``, and the blocks'
        variation cores are summed in their kept unfoldings.
        """
        total = idx.shape[0]
        grad = None
        for lo in range(0, total, self.block):
            rows = slice(lo, lo + self.block)
            sel, lefts = self.geom.left_chain(idx[rows])
            values = (self.scale * lefts[-1][:, 0] - self.scale * y[rows]) * (self.scale / total)
            part = self.geom.project_batch(idx[rows], values, (sel, lefts))
            if grad is not None:
                part._cols = [a + b for a, b in zip(grad._cols, part._cols)]
            grad = part
        return grad

    def step(self, idx, y, eta, trim_nu, ranks, max_norm):
        """One round on the batch ``(idx, y)``: project its gradient, step, retract.

        An untrimmed step retracts by one projector-splitting sweep at the
        current ranks.  A trimmed step is formed at rank 2r and retracted to
        ``ranks`` by ``manifold.trimmed_retract``.  A failed step raises
        ``StepError``, and so does a new iterate of norm above ``max_norm``.
        """
        grad = self.gradient(idx, y)
        it = self.iteration + 1
        try:
            if trim_nu is None:
                t = manifold.ksl_retract(grad, eta)
            else:
                t = manifold.trimmed_retract(grad, eta, ranks, trim_nu)
            # The iterate is left-orthogonal: its last core carries its norm.
            # dnrm2 scales, so a finite core's norm does not overflow.
            norm = float(blas.dnrm2(t.cores[-1].ravel()))
            if not norm <= max_norm:
                raise StepError(
                    f"iterate diverged: norm {norm:.3g} above {max_norm:.3g}, "
                    f"{DIVERGED_FACTOR:g} times max(1, norm of the start)",
                    it,
                    self.t,
                )
            return _IterateState(t, it, self)
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
        # The geometry's sweep already holds every cut's factor, whose values
        # are the cut's separation spectrum.
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
    if not t0.left_orthogonal:
        t0 = tt.left_orthogonalize(t0)
    max_norm = DIVERGED_FACTOR * max(1.0, float(blas.dnrm2(t0.cores[-1].ravel())))
    state = _IterateState(t0)
    logger = _TraceLogger(ground_truth, pure_target)
    logger.log(0, state)
    window_start = state.t
    samples = 0
    try:
        for idx, y, eta, round_samples in itertools.islice(rounds, cfg.max_iters):
            state = state.step(idx, y, eta, trim_nu, cfg.ranks, max_norm)
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


def _dataset(dataset, n: int):
    """``(idx, y)`` of ``dataset``; ``SolverError`` unless they are (N, n) and (N,)."""
    idx, y = dataset
    shape, yshape = np.shape(idx), np.shape(y)
    if len(shape) != 2 or shape[1] != n or yshape != shape[:1]:
        raise SolverError(f"dataset needs indices of shape (N, {n}) and values of shape "
                          f"(N,), got {shape} and {yshape}")
    return idx, y


def rgd_offline_run(
    t0: TtTensor,
    dataset,
    cfg: SolverConfig,
    ground_truth: TtTensor | None = None,
    pure_target: mpo.Mps | None = None,
):
    """Offline RGD baseline: each of up to ``max_iters`` rounds consumes the full dataset.

    ``dataset`` is ``(idx, y)``: (N, n) indices and their (N,) observed values.
    """
    idx, y = _dataset(dataset, t0.n)
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
    ``dataset`` is ``(idx, y)``: (N, n) indices and their (N,) observed values.
    """
    idx, y = _dataset(dataset, t0.n)
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


def _pair_gram(a, b, k):
    """Symmetrized cross-group second-moment matrix.

    Implements ``(1/(2k^2)) * sum_{s,t} Ys Yt (xs xt^T + xt xs^T)`` over the
    pairs of a first-group sample s and a second-group sample t, where the
    x's are scaled one-hot columns.  Pairs only interact when their trailing
    multi-indices match, so the sum factorizes through the sparse matrices
    ``a`` and ``b`` of the two groups: column c of each sums the weighted
    x's of its group's samples whose trailing index is c.
    """
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
    """Exact QR split of a wide core ``(R1, prod(dims), R2)`` into a chain.

    Raises ``LinAlgError`` as ``tt.right_qr_sweep`` does, checked once on
    every factor after the split.
    """
    out = []
    factors = []
    m = core  # (bond, remaining modes and R2), unfolded in C order at each mode
    for d in dims[:-1]:
        q, m = tt._householder(m.reshape(m.shape[0] * d, -1))
        factors.append(m)
        out.append(q.reshape(-1, d, q.shape[1]))
    if factors:
        tt._check_factors(factors, [core])
    out.append(m.reshape(m.shape[0], dims[-1], core.shape[2]))
    return out


def _draw_keys(stream: MeasurementStream, count: int, groups):
    """Draw ``count`` samples; return their weights and one linear key per mode group.

    Each moment term carries Y_k times a scaled indicator, i.e. a weight of
    ``scale * Y_k`` per factor, so the weight is ``scale^2 * y``.  Group
    ``(lo, hi)`` keys modes ``lo..hi-1`` in C order, and an empty group keys
    every sample 0 (a zero-stride view).  The drawn indices are dropped on return.
    """
    idx, y = stream.draw_batch(count)
    dims = stream.mode_dims
    keys = [np.ravel_multi_index(tuple(idx[:, lo:hi].T), dims[lo:hi]) if hi > lo
            else np.broadcast_to(np.intp(0), (count,)) for lo, hi in groups]
    return stream.scale * (stream.scale * y), keys


def _sample_matrix(yv, pref, mid, cols, z, p, ncols):
    """Sparse ``(r * p, ncols)`` matrix of the samples projected onto the r columns of ``z``.

    Sample s puts ``yv[s] * z[pref[s], l]`` in row ``l * p + mid[s]``, column
    ``cols[s]``.  The matrix is built one rank slice ``l`` at a time, so every
    row receives its entries in sample order, as from one matrix of them all.
    """
    slices = [sp.csr_matrix((yv * z[pref, l], (mid, cols)), shape=(p, ncols))
              for l in range(z.shape[1])]
    return sp.vstack(slices, format="csr")


def _stage_basis(stream, k, groups, z, p, r, mu, what):
    """One stage's ``(r_prev * p, r)`` basis from ``2 * k`` fresh samples.

    The samples are projected onto the previous stage's basis ``z``
    (``r_prev`` columns, one row per prefix key) in two halves; the top-r
    subspace of their cross moment is truncated to row norm
    ``sqrt(mu * r / p)`` and its columns renormalized.
    """
    yv, (pref, mid, cols) = _draw_keys(stream, 2 * k, groups)
    ncols = int(cols.max()) + 1
    a = _sample_matrix(yv[:k], pref[:k], mid[:k], cols[:k], z, p, ncols)
    b = _sample_matrix(yv[k:], pref[k:], mid[k:], cols[k:], z, p, ncols)
    del yv, pref, mid, cols
    u = _top_subspace(_pair_gram(a, b, k), r, what)
    return _renormalize_columns(_truncate_rows(u, np.sqrt(mu * r) / np.sqrt(p)), what)


def spectral_init(stream: MeasurementStream, cfg: InitConfig, ranks):
    """Warm start from sampled second moments of the coefficient tensor.

    Each stage projects fresh samples onto the previous stage's basis with
    one sparse sample-matrix builder and takes the top subspace of the
    symmetrized cross moment of two sample halves.  Stage one is the stage
    with an empty prefix (basis ``[[1]]``), stage two repeats it for the
    second cut, and the last block core is the first moment of stage three's
    projected samples against stage two's basis.  One stage's samples are
    held at a time.  The assembled third-order tensor is split into a chain,
    trimmed and retracted to the full target ranks by ``manifold.retract``.
    Returns ``(iterate, info)``.
    """
    n = stream.n
    dims = stream.mode_dims
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != n - 1:
        raise InitError(f"need {n - 1} ranks, got {len(ranks)}")
    m1, m2, m3 = cfg.split(n)
    if m3 < 1:
        raise InitError("mode count too small for a three-way split")
    p1 = math.prod(dims[:m1])
    p2 = math.prod(dims[m1 : m1 + m2])
    p3 = math.prod(dims[m1 + m2 :])
    if p1 * p1 > tt.DENSE_CAP:
        raise InitError(
            f"stage-one moment matrix needs {p1}^2 entries, above the dense cap"
        )
    r1 = ranks[m1 - 1]
    r2 = ranks[m1 + m2 - 1]
    if (r1 * p2) ** 2 > 2**26:
        raise InitError("stage-two projected moment matrix above the size cap")
    groups = ((0, m1), (m1, m1 + m2), (m1 + m2, n))

    z1 = _stage_basis(stream, cfg.k1, ((0, 0), (0, m1), (m1, n)), np.ones((1, 1)),
                      p1, r1, cfg.mu, "stage one")
    lz2 = _stage_basis(stream, cfg.k2, groups, z1, p2, r2, cfg.mu, "stage two")
    yv, (pref, mid, cols) = _draw_keys(stream, cfg.k3, groups)
    z3 = (_sample_matrix(yv, pref, mid, cols, z1, p2, p3).T @ lz2).T / cfg.k3
    del yv, pref, mid, cols

    zhat = TtTensor([z1.reshape(1, p1, r1), lz2.reshape(r1, p2, r2), z3.reshape(r2, p3, 1)])
    chain = []
    for core, (lo, hi) in zip(zhat.cores, groups):
        chain += _split_block_core(core, dims[lo:hi])
    zhat_norm = tt.tt_norm(zhat)
    xi = manifold.trim_level(zhat_norm, zhat.size, cfg.nu)
    out = manifold.retract(TtTensor(chain), ranks, xi)
    info = {"zhat_norm": zhat_norm, "trim_xi": xi,
            "trimmed": zhat.size <= tt.DENSE_CAP, "split": (m1, m2, m3)}
    return out, info
