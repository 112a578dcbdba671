"""Solver tests: fixed points, dense one-step oracle, RSGD semantics, init."""

import collections
import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from test_manifold import project_all, tangent_to_tt
from test_tt import dense_lambda_min, tt_relative_error
from test_tt_kernels import dense_ksl
from ttqst import manifold, measurement as meas, solvers, states, tt


def warm_start(tstar, ranks, delta, seed):
    rng = meas.make_rng(seed)
    pert = tt.random_tt(tstar.mode_dims, ranks, rng)
    pert = tt.tt_scale(delta / tt.tt_norm(pert), pert)
    return tt.ttsvd(tt.tt_axpy(1.0, pert, tstar), ranks)


def exact_batch(tstar, idx):
    """``(idx, y)`` with the exact raw values, as ``draw_batch`` returns them."""
    return idx, tt.tt_entries(tstar, idx)


def one_round(t, batch, cfg):
    """``t`` after one solver round on the batch ``(idx, y)`` at ``cfg``'s step."""
    state = solvers._IterateState(t)
    return state.step(*batch, cfg.resolve_eta(t.n), cfg.trim_nu, cfg.ranks, np.inf).t


def trace_columns(trace):
    """Every trace column but the wall time."""
    return trace.iters, trace.samples, trace.rel_error, trace.fidelity, trace.lambda_min


class CountingStream:
    """Stream proxy that counts ``draw_batch`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0

    def draw_batch(self, batch_size):
        self.draws += 1
        return self.inner.draw_batch(batch_size)


@pytest.fixture(scope="module")
def small_target():
    psi = states.random_mps(3, 2, 2, seed=9)
    return states.pure_state_coeff(psi)


def test_noiseless_fixed_point(small_target):
    tstar = tt.left_orthogonalize(small_target)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 4, size=(6, 3))
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, batch_size=6, alpha=5e-2)
    out = one_round(tstar, exact_batch(tstar, idx), cfg)
    assert tt_relative_error(out, tstar) < 1e-12


def test_eta_zero_identity(small_target):
    tstar = tt.left_orthogonalize(small_target)
    t0 = warm_start(tstar, tstar.ranks, 0.2, 1)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, 4, size=(4, 3))
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, batch_size=4, eta=0.0)
    out = one_round(t0, exact_batch(tstar, idx), cfg)
    assert tt_relative_error(out, t0) < 1e-12


def test_orgd_step_matches_dense_reference():
    # Dense reference: projection matrix from the tangent basis, dense
    # gradient, dense projector-splitting retraction; one minibatch round must
    # agree to rounding.  The middle cut's rank 4 is below its bound 16, so
    # the retraction is not the identity.
    tstar = states.pure_state_coeff(states.random_mps(4, 2, 2, seed=9))
    t0 = warm_start(tstar, tstar.ranks, 0.3, 2)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 4, size=(5, 4))
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, batch_size=5, alpha=4e-2)
    eta = cfg.resolve_eta(4)
    out = one_round(t0, exact_batch(tstar, idx), cfg)

    scale = float(np.sqrt(tstar.size))
    x0 = tt.tt_dense(t0)
    xstar = tt.tt_dense(tstar)
    grad = np.zeros_like(x0)
    for row in idx:
        r = tuple(row)
        resid = scale * x0[r] - scale * xstar[r]
        grad[r] += resid * scale / idx.shape[0]
    geom = manifold.TangentGeometry(tt.left_orthogonalize(t0))
    pg = tt.tt_dense(tangent_to_tt(project_all(geom, grad)))
    want = dense_ksl(x0, x0 - eta * pg, tstar.ranks)
    assert np.linalg.norm(tt.tt_dense(out) - want) < 1e-12 * np.linalg.norm(want)
    # The TTSVD retraction of the same step differs at third order in the
    # step length s (here by about 1.6 s^3).
    s = eta * np.linalg.norm(pg)
    assert tt.tt_distance(out, tt.ttsvd(x0 - eta * pg, tstar.ranks)) < 10.0 * s**3


def test_orgd_step_trimming_path(small_target):
    tstar = small_target
    t0 = warm_start(tstar, tstar.ranks, 0.3, 4)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 4, size=(3, 3))
    rep = tt.coherence_report(tstar)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=1, batch_size=3, alpha=4e-2, trim_nu=rep.spikiness
    )
    out = one_round(t0, exact_batch(tstar, idx), cfg)
    assert out.ranks == tstar.ranks


@pytest.mark.parametrize("clips", [False, True])
def test_trimmed_round_truncates_tt_form_unless_the_trim_clips(monkeypatch, small_target, clips):
    # A trim that clips nothing is the identity, so the round hands the
    # rank-2r step itself to the TT-path TTSVD; a trim that clips hands the
    # clipped dense array to the dense TTSVD.
    tstar = small_target
    t0 = tt.left_orthogonalize(warm_start(tstar, tstar.ranks, 0.3, 4))
    idx = np.random.default_rng(5).integers(0, 4, size=(3, 3))
    nu = 0.5 if clips else 1e3
    trims, truncations = [], []
    retract, ttsvd = manifold.retract, tt.ttsvd
    monkeypatch.setattr(
        manifold, "retract", lambda z, r, xi: trims.append((z, xi)) or retract(z, r, xi)
    )
    monkeypatch.setattr(tt, "ttsvd", lambda x, r: truncations.append(x) or ttsvd(x, r))
    solvers._IterateState(t0).step(*exact_batch(tstar, idx), 1e-2, nu, tstar.ranks, np.inf)
    [(z, xi)] = trims
    [x] = truncations
    dense = tt.tt_dense(z)
    if clips:
        assert np.abs(dense).max() > xi
        assert isinstance(x, np.ndarray)
        np.testing.assert_array_equal(x, np.clip(dense, -xi, xi))
    else:
        assert np.abs(dense).max() <= xi
        assert x is z


def test_orgd_run_converges_and_reports():
    psi = states.random_mps(6, 2, 2, seed=3)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.1, 5)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=6)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=4000, batch_size=20, alpha=1e-2,
        stop_rel_error=1e-6, log_every=25,
    )
    out, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=tstar, pure_target=psi)
    assert trace.rel_error[-1] <= 1e-6
    assert trace.samples[-1] <= 80000
    assert trace.samples[-1] == trace.iters[-1] * 20
    assert trace.fidelity[-1] > 1 - 1e-5
    assert all(l > 0 for l in trace.lambda_min)
    # Iterates stay feasible: final iterate has exact ranks, orthogonal cores.
    assert out.ranks == tstar.ranks
    for k in range(out.n - 1):
        assert tt.is_left_orthogonal(out.cores[k])


def test_well_conditioned_untrimmed_round_takes_no_svd(monkeypatch):
    # At the ising-n6 iterate ranks every cut of a well-conditioned iterate
    # is certified without an SVD, so an untrimmed round takes none.
    rng = np.random.default_rng(27)
    t = tt.left_orthogonalize(tt.random_tt((4,) * 6, (4, 16, 16, 16, 4), rng))
    t = tt.tt_scale(1.0 / tt.tt_norm(t), t)
    state = solvers._IterateState(t)
    idx = rng.integers(0, 4, size=(20, 6))
    calls = []
    svd = tt._svd

    def spy(a, full_matrices=False, compute_uv=True):
        calls.append((a.shape, compute_uv))
        return svd(a, full_matrices, compute_uv)

    monkeypatch.setattr(tt, "_svd", spy)
    new = state.step(idx, rng.standard_normal(20), 1e-3, None, t.ranks, np.inf)
    assert calls == []
    # Reading the spectrum, as a logged round does, takes the values-only SVDs.
    assert len(new.geom.singular_values) == t.n - 1
    assert calls == [((r, r), False) for r in t.ranks]


def test_untrimmed_round_call_counts(monkeypatch):
    # One untrimmed round at the online-n16 shapes, each kernel call counted
    # by its caller: one flat-row selector for the one gradient block, n - 1
    # chain steps in its left chain and none in the projection, whose right
    # chain steps through its one-hot, n - 1 q-only QRs in the retraction's
    # sweep, whose q.T @ K_k is never formed, the new geometry's n - 1 QRs
    # with their factors, and no SVD.
    n = 16
    rng = np.random.default_rng(28)
    t = tt.left_orthogonalize(tt.random_tt((4,) * n, (4,) * (n - 1), rng))
    t = tt.tt_scale(1.0 / tt.tt_norm(t), t)
    state = solvers._IterateState(t)
    idx = rng.integers(0, 4, size=(20, n), dtype=np.uint8)
    calls = collections.Counter()

    def count(name):
        kernel = getattr(tt, name)

        def spy(*args, **kwargs):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(tt, name, spy)

    for name in ("_flat_rows", "_chain_rows", "_householder_q", "_householder", "_svd"):
        count(name)
    state.step(idx, rng.standard_normal(20), 1e-3, None, t.ranks, np.inf)
    assert calls == {
        ("_flat_rows", "left_chain"): 1,
        ("_chain_rows", "left_chain"): n - 1,
        ("_householder_q", "ksl_retract"): n - 1,
        ("_householder_q", "_householder"): n - 1,
        ("_householder", "right_qr_sweep"): n - 1,
    }


@pytest.mark.parametrize("rows", [20, tt.CHUNK_ROWS + 5])
def test_gradient_builds_one_selector_per_block(monkeypatch, rows):
    # The left chain's selector is handed to the projection, so a gradient
    # builds one per block of ``state.block`` rows (20971 here).
    tstar = states.pure_state_coeff(states.random_mps(4, 2, 2, seed=9))
    state = solvers._IterateState(warm_start(tstar, tstar.ranks, 0.3, 19))
    idx = np.random.default_rng(19).integers(0, 4, size=(rows, 4), dtype=np.uint8)
    y = tt.tt_entries(tstar, idx)
    calls = []
    flat_rows = tt._flat_rows
    monkeypatch.setattr(tt, "_flat_rows", lambda i, d: calls.append(i.shape[0]) or flat_rows(i, d))
    state.gradient(idx, y)
    assert calls == [min(state.block, rows - lo) for lo in range(0, rows, state.block)]


def ising_shaped_state(rows):
    """A state at the ising-n6 iterate ranks and a batch of ``rows`` rows for it."""
    rng = np.random.default_rng(27)
    t = tt.left_orthogonalize(tt.random_tt((4,) * 6, (4, 16, 16, 16, 4), rng))
    t = tt.tt_scale(1.0 / tt.tt_norm(t), t)
    idx = rng.integers(0, 4, size=(rows, 6), dtype=np.uint8)
    return solvers._IterateState(t), idx, rng.standard_normal(rows)


def test_gradient_memory_bounded_in_bytes():
    # One CHUNK_ROWS batch at the ising-n6 ranks.  Projected CHUNK_ROWS rows
    # at a time it peaked at 112.5 MiB traced: the kept left-chain rows, the
    # widest chain product and the one-hot.  In blocks derived from
    # GRADIENT_BLOCK_BYTES (5461 rows here) it peaked at 9.4 MiB.
    state, idx, y = ising_shaped_state(tt.CHUNK_ROWS)
    assert _peak_mib(lambda: state.gradient(idx, y)) <= 16


def test_blocked_gradient_matches_one_block():
    state, idx, y = ising_shaped_state(3 * 5461 + 17)
    whole = solvers._IterateState(state.t)
    whole.block = idx.shape[0]
    assert state.block < idx.shape[0]
    got = np.concatenate(state.gradient(idx, y).variation_cores, axis=None)
    want = np.concatenate(whole.gradient(idx, y).variation_cores, axis=None)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("m, n, r", [(4, 32, 2), (4, 64, 2), (9, 20, 3)],
                         ids=["qubits-32", "qubits-64", "qutrits-20"])
def test_online_rounds_move_past_int64_sizes(m, n, r):
    # With the entry count wrapped in int64 the scale read sqrt(0), so every
    # gradient was zero and 20 rounds moved the iterate by 1e-14 (qubits), or
    # NaN, which failed the first step (qutrits).
    dims, ranks = (m,) * n, (r,) * (n - 1)
    rng = meas.make_rng(n)
    target = tt.random_tt(dims, ranks, rng)
    target = tt.tt_scale(1.0 / tt.tt_norm(target), target)
    t0 = tt.left_orthogonalize(tt.random_tt(dims, ranks, rng))
    t0 = tt.tt_scale(1.0 / tt.tt_norm(t0), t0)
    stream = meas.make_stream(target, meas.ExactSource(), seed=n)
    cfg = solvers.SolverConfig(ranks=ranks, max_iters=20, batch_size=20, alpha=1e-2,
                               log_every=20)
    out, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=target)
    assert trace.iters == [0, 20]
    assert np.isfinite(trace.rel_error).all()
    assert tt.tt_distance(out, t0) > 1e-9
    assert solvers._IterateState(t0).scale == math.sqrt(m**n)


def test_unflagged_start_runs_as_its_left_orthogonalization():
    # The descent left-orthogonalizes a start not flagged left-orthogonal,
    # so the run is the run from tt.left_orthogonalize of it, to the byte.
    tstar = states.pure_state_coeff(states.random_mps(4, 2, 2, seed=4))
    t = warm_start(tstar, tstar.ranks, 0.1, 5)
    # The same tensor in a gauge whose first core is not left-orthogonal.
    t0 = tt.TtTensor([2.0 * t.cores[0], *t.cores[1:-1], 0.5 * t.cores[-1]])
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=40, batch_size=20, alpha=8e-3,
                               log_every=10)
    runs = []
    for start in (t0, tt.left_orthogonalize(t0)):
        stream = meas.make_stream(tstar, meas.ExactSource(), seed=6)
        runs.append(solvers.orgd_run(start, stream, cfg, ground_truth=tstar))
    assert not tt.is_left_orthogonal(t0.cores[0])
    (got, got_trace), (want, want_trace) = runs
    assert [c.tobytes() for c in got.cores] == [c.tobytes() for c in want.cores]
    assert trace_columns(got_trace) == trace_columns(want_trace)


def test_trace_lambda_min_matches_separation_spectra():
    psi = states.random_mps(6, 2, 2, seed=3)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.1, 5)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=6)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=100, batch_size=20, alpha=1e-2, log_every=50
    )
    out, trace = solvers.orgd_run(t0, stream, cfg)
    assert trace.lambda_min[0] == pytest.approx(dense_lambda_min(t0), rel=1e-12)
    assert trace.lambda_min[-1] == pytest.approx(dense_lambda_min(out), rel=1e-12)


def test_orgd_log_linear_decay():
    psi = states.random_mps(6, 2, 2, seed=4)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.1, 7)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=8)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=2500, batch_size=20, alpha=8e-3,
        stop_rel_error=1e-6, log_every=25,
    )
    _, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=tstar)
    errs = np.array([e for e in trace.rel_error if e is not None])
    its = np.array(trace.iters[: len(errs)], dtype=float)
    mask = errs > 1e-6
    y = np.log10(errs[mask])
    x = its[mask]
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    r2 = 1 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
    assert r2 >= 0.98


def test_orgd_monotone_windows():
    # Median error over 10-logged-step windows is nonincreasing with small
    # stochastic slack.
    psi = states.random_mps(6, 2, 2, seed=5)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.1, 9)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=10)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=1500, batch_size=20, alpha=8e-3, log_every=10,
    )
    _, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=tstar)
    errs = [e for e in trace.rel_error if e is not None]
    medians = [float(np.median(errs[i : i + 10])) for i in range(0, len(errs) - 9, 10)]
    violations = sum(
        1 for a, b in zip(medians, medians[1:]) if b > a * 1.10
    )
    assert violations <= max(1, int(0.05 * len(medians)))


def test_blind_stopping_rule():
    psi = states.random_mps(5, 2, 2, seed=6)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.05, 11)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=12)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=50000, batch_size=20, alpha=8e-3,
        stop_move_tol=1e-7, log_every=1000,
    )
    stream = CountingStream(stream)
    out, trace = solvers.orgd_run(t0, stream, cfg)
    # The run stops between logs; its trace still ends at the returned iterate.
    assert trace.iters[-1] == stream.draws < cfg.max_iters
    assert trace.iters[-1] % solvers.STOP_MOVE_WINDOW == 0
    assert trace.samples[-1] == 20 * trace.iters[-1]
    assert tt_relative_error(out, tstar) < 1e-4


def test_offline_and_rsgd_honour_both_stop_rules():
    # Offline RGD stops on the iterate's movement over a window, RSGD on the
    # error; each trace ends at the round the run stopped.
    psi = states.random_mps(5, 2, 2, seed=6)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.1, 11)
    data = meas.make_stream(tstar, meas.ExactSource(), seed=12).draw_batch(3000)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=2000, eta=0.2, stop_move_tol=1e-6, log_every=50,
    )
    out, trace = solvers.rgd_offline_run(t0, data, cfg, ground_truth=tstar)
    stop = trace.iters[-1]
    window = solvers.STOP_MOVE_WINDOW
    assert stop < cfg.max_iters and stop % window == 0
    assert trace.samples[-1] == 3000
    fixed = dataclasses.replace(cfg, stop_move_tol=None)
    at = {
        k: solvers.rgd_offline_run(t0, data, dataclasses.replace(fixed, max_iters=k))[0]
        for k in (stop - 2 * window, stop - window)
    }

    def move(a, b):
        return tt.tt_distance(a, b) / tt.tt_norm(a)

    assert (
        move(out, at[stop - window])
        < cfg.stop_move_tol
        <= move(at[stop - window], at[stop - 2 * window])
    )

    data = meas.make_stream(tstar, meas.ExactSource(), seed=13).draw_batch(10000)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=800, batch_size=50, alpha=8e-3, epochs=4,
        shuffle_seed=1, stop_rel_error=1e-3, log_every=20,
    )
    _, trace = solvers.rsgd_run(t0, data, cfg, ground_truth=tstar)
    assert trace.rel_error[-1] <= cfg.stop_rel_error < trace.rel_error[-2]
    assert trace.iters[-1] < cfg.epochs * 200 and trace.iters[-1] % cfg.log_every == 0
    assert trace.samples[-1] == 50 * trace.iters[-1]


def test_chunked_gradient_matches_one_projection():
    # Above CHUNK_ROWS rows the gradient is summed over chunks of the batch;
    # the sum must equal one projection of the whole batch.
    tstar = states.pure_state_coeff(states.random_mps(4, 2, 2, seed=9))
    t0 = warm_start(tstar, tstar.ranks, 0.3, 19)
    rows = 2 * tt.CHUNK_ROWS + 123
    rng = np.random.default_rng(19)
    idx = rng.integers(0, 4, size=(rows, 4))
    y = tt.tt_entries(tstar, idx) + 0.01 * rng.standard_normal(rows)
    state = solvers._IterateState(t0)
    got = np.concatenate([c.ravel() for c in state.gradient(idx, y).variation_cores])
    scale = state.scale
    values = (scale * tt.tt_entries(t0, idx) - scale * y) * (scale / rows)
    want = state.geom.project_batch(idx, values).variation_cores
    want = np.concatenate([c.ravel() for c in want])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_offline_fixed_point_and_dense(small_target):
    tstar = tt.left_orthogonalize(small_target)
    rng = np.random.default_rng(13)
    idx = rng.integers(0, 4, size=(40, 3))
    y = tt.tt_entries(tstar, idx)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, alpha=4e-2)
    out = one_round(tstar, (idx, y), cfg)
    assert tt_relative_error(out, tstar) < 1e-12
    cfg0 = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, eta=0.0)
    t0 = warm_start(tstar, tstar.ranks, 0.2, 14)
    out0 = one_round(t0, (idx, y), cfg0)
    assert tt_relative_error(out0, t0) < 1e-12
    with pytest.raises(solvers.SolverError):
        solvers.rgd_offline_run(t0, (idx[:0], y[:0]), cfg)


DATASET_CASES = {
    # A length-1 y was broadcast to every row, and 199 values ran until the
    # shuffle reached row 199.
    "1 value": (200, 1),
    "199 values": (200, 199),
    "201 values": (200, 201),
    "values as a column": (200, (200, 1)),
    "indices of another width": ((200, 3), 200),
    "flat indices": ((200,), 200),
}


@pytest.mark.parametrize("run", [solvers.rgd_offline_run, solvers.rsgd_run])
@pytest.mark.parametrize("case", list(DATASET_CASES))
def test_dataset_shapes_checked_before_round_one(monkeypatch, run, case):
    tstar = states.pure_state_coeff(states.random_mps(4, 2, 2, seed=3))
    idx, y = meas.make_stream(tstar, meas.ExactSource(), seed=4).draw_batch(200)
    rows, values = DATASET_CASES[case]
    ishape = (rows, 4) if isinstance(rows, int) else rows
    idx = np.resize(idx, ishape)
    y = np.resize(y, values)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=3, batch_size=20, alpha=1e-2)
    monkeypatch.setattr(solvers._IterateState, "step", lambda *a: pytest.fail("a round ran"))
    want = f"indices of shape (N, 4) and values of shape (N,), got {idx.shape} and {y.shape}"
    with pytest.raises(solvers.SolverError, match=re.escape(want)):
        run(tstar, (idx, y), cfg)


def test_offline_matches_orgd_step_on_same_batch(small_target):
    tstar = small_target
    t0 = warm_start(tstar, tstar.ranks, 0.3, 15)
    rng = np.random.default_rng(16)
    idx = rng.integers(0, 4, size=(7, 3))
    y = tt.tt_entries(tstar, idx)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, batch_size=7, alpha=3e-2)
    a, _ = solvers.rgd_offline_run(t0, (idx, y), cfg)
    b = one_round(t0, exact_batch(tstar, idx), cfg)
    assert tt.tt_distance(a, b) < 1e-11


def test_rsgd_decay_schedule_and_epoch_equivalence():
    psi = states.random_mps(4, 2, 2, seed=7)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.2, 17)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=18)
    idx, y = stream.draw_batch(200)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=20, batch_size=20, alpha=6e-3,
        epochs=2, shuffle_seed=5, log_every=10**9,
    )
    out, _ = solvers.rsgd_run(t0, (idx, y), cfg, ground_truth=tstar)

    # Replaying the same shuffled sequences through plain minibatch steps,
    # epoch 0 at the alpha-form step and epoch 1 at that step times the
    # decay, reproduces the two-epoch RSGD result exactly.
    rng = meas.make_rng(5)
    state = solvers._IterateState(tt.left_orthogonalize(t0))
    for eta in (cfg.resolve_eta(4), cfg.resolve_eta(4) * cfg.epoch_decay):
        perm = rng.permutation(200)
        for b in range(10):
            sl = perm[b * 20 : (b + 1) * 20]
            state = state.step(idx[sl], y[sl], eta, None, cfg.ranks, np.inf)
    assert tt.tt_distance(state.t, out) < 1e-10


def test_rsgd_honours_explicit_eta():
    psi = states.random_mps(4, 2, 2, seed=7)
    tstar = states.pure_state_coeff(psi)
    t0 = tt.left_orthogonalize(warm_start(tstar, tstar.ranks, 0.2, 21))
    idx, y = meas.make_stream(tstar, meas.ShotSource(shots=100), seed=22).draw_batch(200)
    # An explicit eta wins over alpha, as in the other solvers.
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=20, batch_size=20, eta=0.0, alpha=8e-3,
        epochs=2, shuffle_seed=5, log_every=10**9,
    )
    out, _ = solvers.rsgd_run(t0, (idx, y), cfg)
    assert tt_relative_error(out, t0) < 1e-12
    # Epoch k steps by eta * decay^k.
    cfg = dataclasses.replace(cfg, eta=0.05, alpha=None)
    out, _ = solvers.rsgd_run(t0, (idx, y), cfg)
    rng = meas.make_rng(5)
    state = solvers._IterateState(t0)
    for epoch in range(2):
        perm = rng.permutation(200)
        for b in range(10):
            sl = perm[b * 20 : (b + 1) * 20]
            eta = 0.05 * cfg.epoch_decay**epoch
            state = state.step(idx[sl], y[sl], eta, None, cfg.ranks, np.inf)
    assert tt.tt_distance(state.t, out) < 1e-10


def test_rsgd_stops_at_max_iters(monkeypatch):
    psi = states.random_mps(4, 2, 2, seed=7)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.2, 23)
    data = meas.make_stream(tstar, meas.ExactSource(), seed=24).draw_batch(200)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=13, batch_size=20, alpha=6e-3,
        epochs=3, log_every=5,
    )
    out, trace = solvers.rsgd_run(t0, data, cfg)
    assert trace.iters == [0, 5, 10, 13] and trace.samples[-1] == 13 * 20
    # A bound above epochs x batches runs all 30 rounds; the first 13 of them
    # give the bounded run's iterate.
    steps = []
    step = solvers._IterateState.step

    def recording_step(self, *args):
        steps.append(step(self, *args))
        return steps[-1]

    monkeypatch.setattr(solvers._IterateState, "step", recording_step)
    solvers.rsgd_run(t0, data, dataclasses.replace(cfg, max_iters=1000))
    assert len(steps) == 30
    assert all(np.array_equal(a, b) for a, b in zip(steps[12].t.cores, out.cores))


def test_rsgd_improves_across_epochs():
    improved = 0
    for seed in (1, 2, 3):
        psi = states.random_mps(5, 2, 2, seed=seed)
        tstar = states.pure_state_coeff(psi)
        t0 = warm_start(tstar, tstar.ranks, 0.1, 20 + seed)
        stream = meas.make_stream(tstar, meas.ExactSource(), seed=30 + seed)
        data = stream.draw_batch(10000)
        cfg = solvers.SolverConfig(
            ranks=tstar.ranks, max_iters=800, batch_size=50, alpha=8e-3,
            epochs=4, shuffle_seed=seed, log_every=200,
        )
        _, trace = solvers.rsgd_run(t0, data, cfg, ground_truth=tstar)
        if trace.rel_error[-1] < trace.rel_error[0] * 0.2:
            improved += 1
    assert improved >= 3


def test_trace_csv_round_trip(tmp_path):
    tr = solvers.RunTrace()
    tr.append(0, 0, 0.5, None, 1.25, 0.01)
    tr.append(50, 1000, 0.25, 0.99, 2.5, 0.011)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    rows = solvers.RunTrace.rows_excluding_wall(path)
    assert rows[0] == "iter,samples,rel_error,fidelity,wall_ms,lambda_min"
    assert rows[1].startswith("0,0,0.5,nan,,")
    assert rows[2].startswith("50,1000,0.25,0.99,,")


def test_trace_rows_blank_timing_columns_by_name(tmp_path):
    # Traces that differ only in wall time compare equal; any other column counts.
    rows = []
    for wall, lam in ((1.25, 0.01), (7.5, 0.01), (1.25, 0.02)):
        tr = solvers.RunTrace()
        tr.append(50, 1000, 0.25, 0.99, wall, lam)
        path = tmp_path / f"trace_{len(rows)}.csv"
        tr.to_csv(path)
        rows.append(solvers.RunTrace.rows_excluding_wall(path))
    assert rows[0] == rows[1] != rows[2]
    # The blanked column follows its header name, wherever it sits.
    path = tmp_path / "reordered.csv"
    path.write_text("wall_ms,iter,rel_error\n3.5,10,0.25\n")
    assert solvers.RunTrace.rows_excluding_wall(path) == ["wall_ms,iter,rel_error", ",10,0.25"]
    path.write_text(
        "iter,samples,rel_error,fidelity,lambda_min,wall_ms,residual\n1,20,0.5,nan,0.01,9.75,7e-3\n"
    )
    assert solvers.RunTrace.rows_excluding_wall(path)[1] == "1,20,0.5,nan,0.01,,7e-3"


# ------------------------------------------------------------------ init


def test_pair_gram_exhaustive_limit():
    # With every index pair observed once at its exact value, the stage-one
    # moment matrix is exactly (a multiple of) the separation Gram, so the
    # top singular subspace matches the dense SVD to tiny principal angle.
    psi = states.random_mps(4, 2, 2, seed=8)
    tstar = states.pure_state_coeff(psi)
    dims = tstar.mode_dims
    m1 = 2
    p1 = 16
    x = tt.tt_dense(tstar)
    sep = x.reshape(p1, -1, order="F")
    scale = float(np.sqrt(tstar.size))
    all_idx = np.array(list(np.ndindex(*dims)), dtype=np.int64)
    rows = np.ravel_multi_index(tuple(all_idx[:, :m1].T), dims[:m1], order="F")
    cols = np.ravel_multi_index(tuple(all_idx[:, m1:].T), dims[m1:], order="F")
    vals = scale * scale * tt.tt_entries(tstar, all_idx)
    x = sp.csr_matrix((vals, (rows, cols)), shape=(p1, cols.max() + 1))
    n1 = solvers._pair_gram(x, x, all_idx.shape[0])
    u = np.linalg.svd(n1)[0][:, :4]
    ud = np.linalg.svd(sep)[0][:, :4]
    angles = np.linalg.svd(u.T @ ud, compute_uv=False)
    assert np.max(np.abs(angles - 1.0)) < 1e-8


def test_stage_one_moment_unbiased_and_concentrating():
    psi = states.random_mps(4, 2, 2, seed=9)
    tstar = states.pure_state_coeff(psi)
    dims = tstar.mode_dims
    m1, p1 = 2, 16
    x = tt.tt_dense(tstar)
    sep = x.reshape(p1, -1, order="F")
    want = sep @ sep.T
    scale = float(np.sqrt(tstar.size))
    errs = []
    for k in (500, 4000):
        acc = np.zeros((p1, p1))
        reps = 200
        stream = meas.make_stream(tstar, meas.ExactSource(), seed=1000 + k)
        for _ in range(reps):
            idx, y = stream.draw_batch(2 * k)
            yv = scale * scale * y
            rows = np.ravel_multi_index(tuple(idx[:, :m1].T), dims[:m1], order="F")
            cols = np.ravel_multi_index(tuple(idx[:, m1:].T), dims[m1:], order="F")
            shape = (p1, cols.max() + 1)
            acc += solvers._pair_gram(
                sp.csr_matrix((yv[:k], (rows[:k], cols[:k])), shape=shape),
                sp.csr_matrix((yv[k:], (rows[k:], cols[k:])), shape=shape),
                k,
            )
        errs.append(np.linalg.norm(acc / reps - want, ord=2))
    assert errs[1] < errs[0]
    assert errs[1] < 0.05 * np.linalg.norm(want, ord=2)


def test_spectral_init_accuracy():
    psi = states.random_mps(6, 2, 2, seed=1)
    tstar = states.pure_state_coeff(psi)
    rep = tt.coherence_report(tstar)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=40)
    cfg = solvers.InitConfig(k1=100000, k2=100000, k3=100000,
                             mu=rep.incoherence**2, nu=rep.spikiness)
    t0, info = solvers.spectral_init(stream, cfg, tstar.ranks)
    rel = tt.tt_distance(t0, tstar) / tt.tt_norm(tstar)
    assert rel <= 0.3
    assert info["trimmed"]
    # Trim-derived spikiness bound.
    spiki = tt.coherence_report(t0).spikiness
    bound = (10.0 / 9.0) * cfg.nu * info["zhat_norm"] / tt.tt_norm(t0)
    assert spiki <= bound + 1e-9
    # Disjoint prefixes: exactly 2 k1 + 2 k2 + k3 draws consumed.
    assert stream.consumed == 5 * 100000


@pytest.mark.parametrize("tail", [1, 123])
def test_stage_three_core_matches_per_sample_sum(tail):
    # Stage three's last block core is the first moment of its sample matrix
    # against stage two's basis; it must match one einsum and one np.add.at
    # over the samples, which sum in another order.
    tstar = states.pure_state_coeff(states.random_mps(6, 2, 2, seed=5))
    dims = tstar.mode_dims
    groups = ((0, 2), (2, 4), (4, 6))
    r1, r2 = 3, 4
    rng = np.random.default_rng(tail)
    z1 = rng.standard_normal((16, r1))
    z2 = rng.standard_normal((r1, 16, r2))
    k3 = 2 * tt.CHUNK_ROWS + tail
    source = meas.ShotSource(100)
    yv, (pref, mid, cols) = solvers._draw_keys(meas.make_stream(tstar, source, seed=6), k3, groups)
    s = solvers._sample_matrix(yv, pref, mid, cols, z1, 16, 16)
    got = (s.T @ z2.reshape(r1 * 16, r2)).T / k3
    stream = meas.make_stream(tstar, source, seed=6)
    idx, y = stream.draw_batch(k3)
    yv = stream.scale * (stream.scale * y)
    pref, mid, cols = (
        np.ravel_multi_index(tuple(idx[:, lo:hi].T), dims[lo:hi]) for lo, hi in groups
    )
    rowvecs = np.einsum("bl,blr->br", z1[pref], z2[:, mid, :].transpose(1, 0, 2))
    z3 = np.zeros((16, r2))
    np.add.at(z3, cols, yv[:, None] * rowvecs)
    want = z3.T / k3
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("r_prev", [1, 2, 3])
def test_stage_two_moment_bit_equal_to_one_block_matrix(r_prev):
    # A stage builds each half's sample matrix one rank slice at a time; its
    # moment must equal the one built from a single COO matrix of all the
    # 2*k*r_prev block entries, bit for bit, repeated (mid, col) pairs
    # included.  r_prev = 1 is the same stage run as stage one: an empty
    # prefix and basis [[1]].
    tstar = states.pure_state_coeff(states.random_mps(6, 2, 2, seed=5))
    dims = tstar.mode_dims
    if r_prev == 1:
        groups, z = ((0, 0), (0, 2), (2, 6)), np.ones((1, 1))
    else:
        groups = ((0, 2), (2, 4), (4, 6))
        z = np.random.default_rng(r_prev).standard_normal((16, r_prev))
    p = 16
    k = 5000
    source = meas.ShotSource(100)
    stream = meas.make_stream(tstar, source, seed=7)
    yv, (pref, mid, cols) = solvers._draw_keys(stream, 2 * k, groups)
    ncols = int(cols.max()) + 1
    got = solvers._pair_gram(
        solvers._sample_matrix(yv[:k], pref[:k], mid[:k], cols[:k], z, p, ncols),
        solvers._sample_matrix(yv[k:], pref[k:], mid[k:], cols[k:], z, p, ncols),
        k,
    )
    stream = meas.make_stream(tstar, source, seed=7)
    idx, y = stream.draw_batch(2 * k)
    yv = stream.scale * (stream.scale * y)
    pref, mid, cols = (
        np.ravel_multi_index(tuple(idx[:, lo:hi].T), dims[lo:hi]) if hi > lo
        else np.zeros(2 * k, dtype=np.intp)
        for lo, hi in groups
    )
    pairs = mid[:k] * (cols.max() + 1) + cols[:k]
    assert np.unique(pairs).size < k
    block_rows = (np.arange(r_prev)[None, :] * p + mid[:, None]).ravel()
    block_vals = (yv[:, None] * z[pref]).ravel()
    block_cols = np.repeat(cols, r_prev)
    shape = (r_prev * p, cols.max() + 1)
    half = k * r_prev
    a = sp.coo_matrix(
        (block_vals[:half], (block_rows[:half], block_cols[:half])), shape=shape
    ).tocsr()
    b = sp.coo_matrix(
        (block_vals[half:], (block_rows[half:], block_cols[half:])), shape=shape
    ).tocsr()
    cross = (a @ b.T).toarray()
    assert got.tobytes() == ((cross + cross.T) / (2.0 * k * k)).tobytes()


def _peak_mib(fn):
    """Peak traced memory of ``fn()`` above what was traced before it, in MiB.

    Tracing is stopped afterwards only if it was started here, so a session
    run under ``-X tracemalloc`` keeps its traces.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def test_sampling_and_spectral_init_memory_bounded():
    # n=6, k1=k2=k3=2e5, shot source.  One pass of the entry chain over the
    # 4e5 draws peaked at 95 MiB, and the initializer, with earlier stages'
    # arrays alive during later draws, at 125 MiB.  Blocked, they peaked at
    # 34 and 52 MiB, of which the draw's int64 indices were 18 MiB and stage
    # two's 2*k2*r1 block arrays 12 MiB each.  With one-byte indices and
    # stage two built one rank slice at a time, both peaked at about 21 MiB.
    # Entry blocks bounded in bytes, 8192 rows here, take the draw to 10 MiB,
    # set by its shot blocks, and the initializer to stage two's 18 MiB.
    tstar = states.pure_state_coeff(states.random_mps(6, 2, 2, seed=1))
    rep = tt.coherence_report(tstar)
    k = 200_000
    cfg = solvers.InitConfig(k1=k, k2=k, k3=k, mu=rep.incoherence**2, nu=rep.spikiness)
    source = meas.ShotSource(4000)
    draw = _peak_mib(lambda: meas.make_stream(tstar, source, seed=5).draw_batch(2 * k))
    assert draw <= 12
    init = _peak_mib(
        lambda: solvers.spectral_init(meas.make_stream(tstar, source, seed=5), cfg, tstar.ranks)
    )
    assert init <= 30


def test_peak_mib_leaves_outer_tracing_on():
    # Under ``-X tracemalloc`` the measurement must not end the session's
    # tracing, and must not count what was traced before it.
    tracemalloc.start()
    try:
        held = np.ones(2**20)  # 8 MiB traced before the measurement
        assert _peak_mib(lambda: np.ones(2**17)) < 4
        assert tracemalloc.is_tracing()
        del held
    finally:
        tracemalloc.stop()


def test_spectral_init_small_k_fails():
    psi = states.random_mps(6, 2, 2, seed=2)
    tstar = states.pure_state_coeff(psi)
    rep = tt.coherence_report(tstar)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=41)
    cfg = solvers.InitConfig(k1=5, k2=5, k3=5,
                             mu=rep.incoherence**2, nu=rep.spikiness)
    with pytest.raises(solvers.InitError):
        solvers.spectral_init(stream, cfg, tstar.ranks)


def test_truncation_noop_when_rows_small():
    z = np.full((8, 2), 0.1)
    out = solvers._truncate_rows(z, cap=10.0)
    np.testing.assert_array_equal(out, z)


def test_config_validation():
    with pytest.raises(solvers.SolverError):
        solvers.SolverConfig(ranks=(2,), max_iters=1)
    with pytest.raises(solvers.SolverError):
        solvers.SolverConfig(ranks=(2,), max_iters=1, eta=-1.0)
    with pytest.raises(solvers.SolverError):
        solvers.SolverConfig(ranks=(2,), max_iters=1, alpha=1e-3, batch_size=0)
    with pytest.raises(solvers.SolverError):
        solvers.SolverConfig(ranks=(2,), max_iters=-1, alpha=1e-3)
    cfg = solvers.SolverConfig(ranks=(2,), max_iters=1, alpha=2e-3, batch_size=10)
    assert abs(cfg.resolve_eta(4) - 2e-3 * 10 / 16) < 1e-18


@pytest.mark.parametrize(
    "key, value",
    [("eta", np.nan), ("eta", np.inf), ("alpha", np.nan), ("alpha", -1.0),
     ("trim_nu", np.nan), ("trim_nu", 0.0), ("trim_nu", np.inf), ("trim_nu", -1.0),
     ("epoch_decay", np.nan), ("stop_rel_error", np.nan), ("stop_move_tol", np.inf)],
)
def test_solver_config_rejects_non_finite_settings(key, value):
    # Each check is a comparison that NaN fails.
    settings = {"alpha": 1e-3, key: value}
    with pytest.raises(solvers.SolverError, match=f"^{key} must be finite"):
        solvers.SolverConfig(ranks=(2,), max_iters=1, **settings)


@pytest.mark.parametrize("key", ["mu", "nu"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_init_config_rejects_non_finite_or_non_positive(key, value):
    settings = {"mu": 2.0, "nu": 2.0, key: value}
    with pytest.raises(solvers.SolverError, match=f"^{key} must be finite and positive"):
        solvers.InitConfig(k1=10, k2=10, k3=10, **settings)


def test_divergent_online_run_raises_located_step_error():
    # The alpha=5 probe: the iterate's norm grows by orders of magnitude
    # within a few dozen rounds, while every entry stays finite.  The run
    # stops once the norm passes DIVERGED_FACTOR times that of the start.
    tstar = states.pure_state_coeff(states.random_mps(6, 2, 2, seed=1))
    t0 = tt.left_orthogonalize(tstar)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=2000, batch_size=20, alpha=5.0, log_every=10**9
    )
    with pytest.raises(solvers.StepError) as info:
        solvers.orgd_run(t0, meas.make_stream(tstar, meas.ExactSource(), seed=2), cfg)
    exc = info.value
    assert type(exc) is solvers.StepError and exc.iteration == 19
    assert str(exc).startswith("step failed at iteration 19: iterate diverged: norm ")
    cap = solvers.DIVERGED_FACTOR * max(1.0, tt.tt_norm(t0))
    assert tt.tt_norm(exc.last_iterate) <= cap
    # The last iterate is the one a run stopped one round earlier returns.
    # So are the trace rows logged up to the failure.
    cfg.max_iters = exc.iteration - 1
    out, want = solvers.orgd_run(t0, meas.make_stream(tstar, meas.ExactSource(), seed=2), cfg)
    for a, b in zip(out.cores, exc.last_iterate.cores):
        np.testing.assert_array_equal(a, b)
    assert trace_columns(exc.trace) == trace_columns(want)


def test_divergent_offline_run_raises_located_non_finite_error(small_target):
    # Observations near the largest double overflow the first step's
    # residuals: the step holds non-finite values, named by core.
    tstar = tt.left_orthogonalize(small_target)
    rng = np.random.default_rng(13)
    idx = rng.integers(0, 4, size=(40, 3))
    y = 1e308 * tt.tt_entries(tstar, idx)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=5, eta=1e-2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(solvers.NonFiniteError) as info:
            solvers.rgd_offline_run(tstar, (idx, y), cfg)
    exc = info.value
    assert exc.iteration == 1 and exc.core == 0
    assert all(np.isfinite(c).all() for c in exc.last_iterate.cores)
    # The trace logged up to the failure is that of a run stopped one round earlier.
    cfg.max_iters = exc.iteration - 1
    out, want = solvers.rgd_offline_run(tstar, (idx, y), cfg)
    for a, b in zip(out.cores, exc.last_iterate.cores):
        np.testing.assert_array_equal(a, b)
    assert trace_columns(exc.trace) == trace_columns(want)


def test_rank_collapse_raises_located_step_error():
    # Offline RGD at ranks (2, 2) on every entry of a rank-one target: the
    # iterate converges to the target, so its second singular value at
    # cut 2 halves each round until the new geometry rejects it.  The run
    # names the iteration and the singular cut and keeps the last iterate.
    tstar = states.pure_state_coeff(states.random_mps(3, 2, 1, seed=3))
    t0 = warm_start(tstar, (2, 2), 0.1, 5)
    idx = np.array(list(np.ndindex(4, 4, 4)))
    data = exact_batch(tstar, idx)
    cfg = solvers.SolverConfig(ranks=(2, 2), max_iters=200, eta=0.5, log_every=10**9)
    with pytest.raises(solvers.StepError) as info:
        solvers.rgd_offline_run(t0, data, cfg)
    exc = info.value
    assert not isinstance(exc, solvers.NonFiniteError)
    assert isinstance(exc.__cause__, manifold.ManifoldError)
    assert exc.cut == exc.__cause__.cut == 2
    assert exc.iteration == 36
    assert "iteration 36: " in str(exc) and "cut 2 is singular" in str(exc)
    # The last iterate and the trace rows logged up to the failure are those
    # of a run stopped one round earlier.
    cfg.max_iters = exc.iteration - 1
    out, want = solvers.rgd_offline_run(t0, data, cfg)
    for a, b in zip(out.cores, exc.last_iterate.cores):
        np.testing.assert_array_equal(a, b)
    assert trace_columns(exc.trace) == trace_columns(want)


def test_retraction_overflow_raises_located_step_error(small_target):
    # Observations near the largest double and a step of 10: the first step
    # is finite, but its columns are so long that the retraction's QR
    # overflows.
    tstar = tt.left_orthogonalize(small_target)
    rng = np.random.default_rng(13)
    idx = rng.integers(0, 4, size=(40, 3))
    y = 2e307 * tt.tt_entries(tstar, idx)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=5, eta=10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(solvers.StepError) as info:
            solvers.rgd_offline_run(tstar, (idx, y), cfg)
    exc = info.value
    assert not isinstance(exc, solvers.NonFiniteError)
    assert isinstance(exc.__cause__, np.linalg.LinAlgError)
    assert exc.iteration == 1 and exc.cut is None
    assert str(exc) == "step failed at iteration 1: QR overflowed on finite input"
    assert all(np.isfinite(c).all() for c in exc.last_iterate.cores)


def test_trimmed_run_above_dense_cap_is_untrimmed_run(monkeypatch):
    # 4^11 entries, above the dense cap: the run warns once, then every step
    # is the untrimmed projector-splitting step, with no TTSVD.
    tstar = states.pure_state_coeff(states.random_mps(11, 2, 2, seed=5))
    assert tstar.size > tt.DENSE_CAP
    t0 = warm_start(tstar, tstar.ranks, 0.1, 25)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=30, batch_size=20, alpha=4e-3)
    want, _ = solvers.orgd_run(t0, meas.make_stream(tstar, meas.ExactSource(), seed=26), cfg)
    calls = []
    ttsvd = tt.ttsvd
    monkeypatch.setattr(tt, "ttsvd", lambda *a: calls.append(a) or ttsvd(*a))
    trimmed = dataclasses.replace(cfg, trim_nu=3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _ = solvers.orgd_run(
            t0, meas.make_stream(tstar, meas.ExactSource(), seed=26), trimmed
        )
    assert [w.category for w in caught] == [RuntimeWarning]
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(got.cores, want.cores))
