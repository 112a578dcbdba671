"""Solver tests: fixed points, dense one-step oracle, RSGD semantics, init."""

import numpy as np
import pytest

from ttqst import manifold, measurement as meas, solvers, states, tt


def warm_start(tstar, ranks, delta, seed):
    rng = meas.make_rng(seed)
    pert = tt.random_tt(tstar.mode_dims, ranks, rng)
    pert = tt.tt_scale(delta / tt.tt_norm(pert), pert)
    return tt.ttsvd(tt.tt_axpy(1.0, pert, tstar), ranks)


def exact_batch(tstar, idx):
    scale = float(np.sqrt(tstar.size))
    batch = []
    for row in idx:
        e = manifold.SparseTensor(tstar.mode_dims, indices=[row], values=[scale])
        batch.append((e, scale * tt.tt_entry(tstar, row)))
    return batch


@pytest.fixture(scope="module")
def small_target():
    psi = states.random_mps(3, 2, 2, seed=9)
    return states.pure_state_coeff(psi)


def test_noiseless_fixed_point(small_target):
    tstar = tt.left_orthogonalize(small_target)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 4, size=(6, 3))
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, batch_size=6, alpha=5e-2)
    out = solvers.orgd_step(tstar, exact_batch(tstar, idx), cfg)
    assert tt.tt_relative_error(out, tstar) < 1e-12


def test_eta_zero_identity(small_target):
    tstar = tt.left_orthogonalize(small_target)
    t0 = warm_start(tstar, tstar.ranks, 0.2, 1)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, 4, size=(4, 3))
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, batch_size=4, eta=0.0)
    out = solvers.orgd_step(t0, exact_batch(tstar, idx), cfg)
    assert tt.tt_relative_error(out, t0) < 1e-12


def test_orgd_step_matches_dense_reference(small_target):
    # Dense reference: projection matrix from the tangent basis, dense
    # gradient, dense TTSVD; one minibatch round must agree to 1e-9.
    tstar = small_target
    t0 = warm_start(tstar, tstar.ranks, 0.3, 2)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 4, size=(5, 3))
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, batch_size=5, alpha=4e-2)
    eta = cfg.resolve_eta(3)
    out = solvers.orgd_step(t0, exact_batch(tstar, idx), cfg)

    scale = float(np.sqrt(tstar.size))
    x0 = tt.tt_dense(t0)
    grad = np.zeros_like(x0)
    for row in idx:
        r = tuple(row)
        resid = scale * x0[r] - scale * tt.tt_entry(tstar, r)
        grad[r] += resid * scale / idx.shape[0]
    geom = manifold.TangentGeometry(tt.left_orthogonalize(t0))
    pg = tt.tt_dense(manifold.tangent_to_tt(geom.project_dense(grad)))
    want = tt.ttsvd(x0 - eta * pg, tstar.ranks)
    assert tt.tt_distance(out, want) < 1e-9


def test_orgd_step_trimming_path(small_target):
    tstar = small_target
    t0 = warm_start(tstar, tstar.ranks, 0.3, 4)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 4, size=(3, 3))
    rep = tt.coherence_report(tstar)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=1, batch_size=3, alpha=4e-2, trim_nu=rep.spikiness
    )
    out = solvers.orgd_step(t0, exact_batch(tstar, idx), cfg)
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
        stop_move_tol=1e-7, log_every=100,
    )
    out, trace = solvers.orgd_run(t0, stream, cfg)
    assert trace.iters[-1] < 50000 or len(trace.iters) > 0
    assert tt.tt_relative_error(out, tstar) < 1e-4


def test_offline_fixed_point_and_dense(small_target):
    tstar = tt.left_orthogonalize(small_target)
    rng = np.random.default_rng(13)
    idx = rng.integers(0, 4, size=(40, 3))
    y = tt.tt_entries(tstar, idx)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, alpha=4e-2)
    out = solvers.rgd_offline_step(tstar, (idx, y), cfg)
    assert tt.tt_relative_error(out, tstar) < 1e-12
    cfg0 = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, eta=0.0)
    t0 = warm_start(tstar, tstar.ranks, 0.2, 14)
    out0 = solvers.rgd_offline_step(t0, (idx, y), cfg0)
    assert tt.tt_relative_error(out0, t0) < 1e-12


def test_offline_matches_orgd_step_on_same_batch(small_target):
    tstar = small_target
    t0 = warm_start(tstar, tstar.ranks, 0.3, 15)
    rng = np.random.default_rng(16)
    idx = rng.integers(0, 4, size=(7, 3))
    y = tt.tt_entries(tstar, idx)
    cfg = solvers.SolverConfig(ranks=tstar.ranks, max_iters=1, batch_size=7, alpha=3e-2)
    a = solvers.rgd_offline_step(t0, (idx, y), cfg)
    b = solvers.orgd_step(t0, exact_batch(tstar, idx), cfg)
    assert tt.tt_distance(a, b) < 1e-11


def test_rsgd_decay_schedule_and_epoch_equivalence():
    psi = states.random_mps(4, 2, 2, seed=7)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.2, 17)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=18)
    idx, y = solvers.collect_dataset(stream, 200)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=0, batch_size=20, alpha=6e-3,
        epochs=1, shuffle_seed=5, log_every=10**9,
    )
    out, _ = solvers.rsgd_run(t0, (idx, y), cfg, ground_truth=tstar)

    # Replaying the same shuffled sequence through plain minibatch steps
    # reproduces the single-epoch RSGD result exactly.
    rng = meas.make_rng(5)
    perm = rng.permutation(200)
    cur = tt.left_orthogonalize(t0)
    scale = float(np.sqrt(tstar.size))
    for b in range(10):
        sl = perm[b * 20 : (b + 1) * 20]
        batch = [
            (
                manifold.SparseTensor(tstar.mode_dims, indices=[idx[j]], values=[scale]),
                scale * y[j],
            )
            for j in sl
        ]
        cur = solvers.orgd_step(cur, batch, cfg)
    assert tt.tt_distance(cur, out) < 1e-10

    # Epoch-wise decay: alpha_3 = 0.81 alpha_1.
    assert abs(cfg.alpha * cfg.epoch_decay**2 - 0.81 * cfg.alpha) < 1e-15


def test_rsgd_improves_across_epochs():
    improved = 0
    for seed in (1, 2, 3):
        psi = states.random_mps(5, 2, 2, seed=seed)
        tstar = states.pure_state_coeff(psi)
        t0 = warm_start(tstar, tstar.ranks, 0.1, 20 + seed)
        stream = meas.make_stream(tstar, meas.ExactSource(), seed=30 + seed)
        data = solvers.collect_dataset(stream, 10000)
        cfg = solvers.SolverConfig(
            ranks=tstar.ranks, max_iters=0, batch_size=50, alpha=8e-3,
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
    t0, info = solvers.spectral_init(stream, cfg, tstar.ranks, return_info=True)
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
    cfg = solvers.SolverConfig(ranks=(2,), max_iters=1, alpha=2e-3, batch_size=10)
    assert abs(cfg.resolve_eta(4) - 2e-3 * 10 / 16) < 1e-18
