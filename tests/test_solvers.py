"""Solver tests: fixed points, dense one-step oracle, RSGD semantics, init."""

import dataclasses
import warnings

import numpy as np
import pytest

from test_manifold import project_all
from test_tt import tt_relative_error
from test_tt_kernels import dense_ksl
from ttqst import manifold, measurement as meas, solvers, states, tt


def warm_start(tstar, ranks, delta, seed):
    rng = meas.make_rng(seed)
    pert = tt.random_tt(tstar.mode_dims, ranks, rng)
    pert = tt.tt_scale(delta / tt.tt_norm(pert), pert)
    return tt.ttsvd(tt.tt_axpy(1.0, pert, tstar), ranks)


def exact_batch(tstar, idx):
    """``(idx, y)`` with the exact raw values, as ``draw_batch`` returns them."""
    return idx, np.array([tt.tt_entry(tstar, row) for row in idx])


def one_round(t, batch, cfg):
    """``t`` after one solver round on the batch ``(idx, y)`` at ``cfg``'s step."""
    return solvers._IterateState(t).step(*batch, cfg.resolve_eta(t.n), cfg.trim_nu, cfg.ranks).t


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
    grad = np.zeros_like(x0)
    for row in idx:
        r = tuple(row)
        resid = scale * x0[r] - scale * tt.tt_entry(tstar, r)
        grad[r] += resid * scale / idx.shape[0]
    geom = manifold.TangentGeometry(tt.left_orthogonalize(t0))
    pg = tt.tt_dense(manifold.tangent_to_tt(project_all(geom, grad)))
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


def test_trace_lambda_min_matches_separation_spectra():
    psi = states.random_mps(6, 2, 2, seed=3)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.1, 5)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=6)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=100, batch_size=20, alpha=1e-2, log_every=50
    )
    out, trace = solvers.orgd_run(t0, stream, cfg)
    assert trace.lambda_min[0] == pytest.approx(tt.lambda_min(t0), rel=1e-12)
    assert trace.lambda_min[-1] == pytest.approx(tt.lambda_min(out), rel=1e-12)


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
    rows = 2 * solvers._IterateState.CHUNK_ROWS + 123
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
            state = state.step(idx[sl], y[sl], eta, None, cfg.ranks)
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
            state = state.step(idx[sl], y[sl], eta, None, cfg.ranks)
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
    n1 = solvers._pair_gram(rows, vals, cols, rows, vals, cols, p1, all_idx.shape[0])
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
            acc += solvers._pair_gram(
                rows[:k], yv[:k], cols[:k], rows[k:], yv[k:], cols[k:], p1, k
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


def test_divergent_online_run_raises_located_non_finite_error():
    # The alpha=5 probe: entries blow up over a few hundred rounds.
    tstar = states.pure_state_coeff(states.random_mps(6, 2, 2, seed=1))
    t0 = tt.left_orthogonalize(tstar)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=2000, batch_size=20, alpha=5.0, log_every=10**9
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(solvers.NonFiniteError) as info:
            solvers.orgd_run(t0, meas.make_stream(tstar, meas.ExactSource(), seed=2), cfg)
    exc = info.value
    assert 1 < exc.iteration < cfg.max_iters
    assert f"iteration {exc.iteration} in core {exc.core}" in str(exc)
    assert all(np.isfinite(c).all() for c in exc.last_iterate.cores)
    # The last finite iterate is the one a run stopped one round earlier returns.
    # So are the trace rows logged up to the failure.
    cfg.max_iters = exc.iteration - 1
    with np.errstate(over="ignore", invalid="ignore"):
        out, want = solvers.orgd_run(t0, meas.make_stream(tstar, meas.ExactSource(), seed=2), cfg)
    for a, b in zip(out.cores, exc.last_iterate.cores):
        np.testing.assert_array_equal(a, b)
    assert trace_columns(exc.trace) == trace_columns(want)


def test_divergent_offline_run_raises_located_non_finite_error(small_target):
    tstar = tt.left_orthogonalize(small_target)
    rng = np.random.default_rng(13)
    idx = rng.integers(0, 4, size=(40, 3))
    y = 1.5 * tt.tt_entries(tstar, idx)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=5, eta=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(solvers.NonFiniteError) as info:
            solvers.rgd_offline_run(tstar, (idx, y), cfg)
    exc = info.value
    assert exc.iteration == 2
    assert all(np.isfinite(c).all() for c in exc.last_iterate.cores)
    # The trace logged up to the failure is that of a run stopped one round earlier.
    cfg.max_iters = exc.iteration - 1
    out, want = solvers.rgd_offline_run(tstar, (idx, y), cfg)
    for a, b in zip(out.cores, exc.last_iterate.cores):
        np.testing.assert_array_equal(a, b)
    assert trace_columns(exc.trace) == trace_columns(want)


def test_rank_collapse_raises_located_step_error():
    # A large offline step collapses the rank of the retracted iterate; the
    # run names the iteration and the singular cut and keeps the last iterate.
    tstar = states.pure_state_coeff(states.random_mps(6, 2, 2, seed=3))
    t0 = warm_start(tstar, tstar.ranks, 0.1, 5)
    data = meas.make_stream(tstar, meas.ExactSource(), seed=6).draw_batch(400)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=200, alpha=50.0, log_every=10**9)
    with pytest.raises(solvers.StepError) as info:
        solvers.rgd_offline_run(t0, data, cfg)
    exc = info.value
    assert not isinstance(exc, solvers.NonFiniteError)
    assert isinstance(exc.__cause__, manifold.ManifoldError)
    assert exc.cut == exc.__cause__.cut == 1
    assert f"iteration {exc.iteration}: " in str(exc) and "cut 1 " in str(exc)
    # The last iterate and the trace rows logged up to the failure are those
    # of a run stopped one round earlier.
    cfg.max_iters = exc.iteration - 1
    out, want = solvers.rgd_offline_run(t0, data, cfg)
    for a, b in zip(out.cores, exc.last_iterate.cores):
        np.testing.assert_array_equal(a, b)
    assert trace_columns(exc.trace) == trace_columns(want)


def test_retraction_overflow_raises_located_step_error(small_target):
    # At this step size the second step is finite, but its entries are so
    # large that the retraction's QR overflows.
    tstar = tt.left_orthogonalize(small_target)
    rng = np.random.default_rng(13)
    idx = rng.integers(0, 4, size=(40, 3))
    y = 1.5 * tt.tt_entries(tstar, idx)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=5, eta=1e154)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(solvers.StepError) as info:
            solvers.rgd_offline_run(tstar, (idx, y), cfg)
    exc = info.value
    assert not isinstance(exc, solvers.NonFiniteError)
    assert isinstance(exc.__cause__, np.linalg.LinAlgError)
    assert exc.iteration == 2 and exc.cut is None
    assert "iteration 2: " in str(exc)
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
