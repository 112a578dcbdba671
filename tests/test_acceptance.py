"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Several criteria execute full solver runs; the whole module takes a
few minutes at desk scale.
"""

import json
import time

import numpy as np
import pytest

from test_mpo import mpo_dense
from test_tt import dense_cond
from ttqst import (
    cli,
    manifold,
    measurement as meas,
    mpo,
    solvers,
    states,
    tt,
)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def random_hermitian_mpo(rng, n, r):
    ranks = [1] + [min(4**k, 4 ** (n - k), r) for k in range(1, n)] + [1]
    cores = []
    for k in range(n):
        c = rng.standard_normal((ranks[k], 2, 2, ranks[k + 1])) + 1j * rng.standard_normal(
            (ranks[k], 2, 2, ranks[k + 1])
        )
        cores.append((c + np.conj(c.transpose(0, 2, 1, 3))) / 2.0)
    return mpo.Mpo(cores)


def warm_start(tstar, ranks, delta, seed):
    rng = meas.make_rng(seed)
    pert = tt.random_tt(tstar.mode_dims, ranks, rng)
    pert = tt.tt_scale(delta / tt.tt_norm(pert), pert)
    base = tstar if tstar.ranks == ranks else tt.ttsvd(tstar, ranks)
    return tt.ttsvd(tt.tt_axpy(1.0, pert, base), ranks)


def test_criterion_01_hermiticity_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_rt = 0.0
    worst_herm = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 5))
        src = random_hermitian_mpo(rng, n, r)
        rho = mpo_dense(src)
        # Forward: cores satisfying the condition materialize Hermitian.
        worst_herm = max(
            worst_herm, np.linalg.norm(rho - rho.conj().T) / np.linalg.norm(rho)
        )
        # Reverse: the decomposition reconstructs and passes the core check.
        out = mpo.hermitian_decompose(rho, src.ranks)
        assert mpo.is_hermitian_cores(out)
        err = np.linalg.norm(mpo_dense(out) - rho) / np.linalg.norm(rho)
        worst_rt = max(worst_rt, err)
    elapsed = time.perf_counter() - start
    assert worst_rt <= 1e-9
    assert worst_herm <= 1e-10
    assert elapsed < 10.0
    _report(1, f"50 round trips worst {worst_rt:.2e}, hermiticity {worst_herm:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_02_coefficient_transform():
    rng = np.random.default_rng(102)
    basis = mpo.make_basis(2)
    worst_parseval = 0.0
    for _ in range(20):
        a = random_hermitian_mpo(rng, 4, 3)
        b = random_hermitian_mpo(rng, 4, 3)
        ta, tb = mpo.mpo_to_coeff(a), mpo.mpo_to_coeff(b)
        dense = np.linalg.norm(mpo_dense(a) - mpo_dense(b))
        worst_parseval = max(worst_parseval, abs(tt.tt_distance(ta, tb) - dense))
    assert worst_parseval <= 1e-10

    worst_imag = 0.0
    worst_orth = 0.0
    for _ in range(10):
        src = random_hermitian_mpo(rng, 4, 4)
        m = mpo.hermitian_decompose(src, src.ranks)  # left-orthogonal cores
        raw = [
            np.einsum("lijm,sij->lsm", c, basis.conj(), optimize=True)
            for c in m.cores
        ]
        worst_imag = max(worst_imag, max(float(np.max(np.abs(c.imag))) for c in raw))
        t = mpo.mpo_to_coeff(m)
        for k in range(t.n - 1):
            l = t.cores[k].reshape(-1, t.cores[k].shape[2])
            worst_orth = max(
                worst_orth, float(np.max(np.abs(l.T @ l - np.eye(l.shape[1]))))
            )
    assert worst_imag <= 1e-12
    assert worst_orth <= 1e-12
    _report(2, f"Parseval {worst_parseval:.2e}, imag residue {worst_imag:.2e}, "
               f"orthogonality transfer {worst_orth:.2e}")


def test_criterion_03_shot_noise_model():
    n, m, total = 4, 100, 10**4
    psi = states.random_mps(n, 2, 2, seed=33)
    tstar = states.pure_state_coeff(psi)
    idx = (3, 0, 1, 2)
    e = tt.tt_entries(tstar, [idx])[0]
    rng = meas.make_rng(103)
    values = meas._shot_means(np.full(total, e), n, m, rng)
    z = values - e
    var_bound = 1.1 / (2**n * m)
    assert np.var(z) <= var_bound
    se = np.sqrt(1.0 / (2**n * m * total))
    assert abs(np.mean(values) - e) <= 5 * se
    _report(3, f"Var(z) {np.var(z):.3e} <= {var_bound:.3e}, "
               f"mean offset {abs(np.mean(values) - e) / se:.2f} SE")


def test_criterion_04_ttsvd_quasi_optimality():
    rng = np.random.default_rng(104)
    worst_gap = -np.inf
    for trial in range(100):
        n = 3 if trial % 2 == 0 else 4
        dims = (4,) * n
        x = rng.standard_normal(dims)
        ranks = tuple(int(rng.integers(1, 4)) for _ in range(n - 1))
        ranks = tuple(
            min(r, int(np.prod(dims[: k + 1])), int(np.prod(dims[k + 1 :])))
            for k, r in enumerate(ranks)
        )
        out = tt.ttsvd(x, ranks)
        err2 = np.linalg.norm(tt.tt_dense(out) - x) ** 2
        bound = 0.0
        for k in range(1, n):
            sep = x.reshape(int(np.prod(dims[:k])), -1, order="F")
            s = np.linalg.svd(sep, compute_uv=False)
            bound += float(np.sum(s[ranks[k - 1]:] ** 2))
        worst_gap = max(worst_gap, err2 - bound)
        assert err2 <= bound + 1e-9
    # Equality when exactly one cut truncates.
    worst_eq = 0.0
    for _ in range(20):
        base = tt.random_tt((4, 4, 4), (3, 1), rng)
        x = tt.tt_dense(base)
        out = tt.ttsvd(x, (2, 1))
        err2 = np.linalg.norm(tt.tt_dense(out) - x) ** 2
        s = np.linalg.svd(x.reshape(4, -1, order="F"), compute_uv=False)
        worst_eq = max(worst_eq, abs(err2 - float(np.sum(s[2:] ** 2))))
    assert worst_eq <= 1e-9
    _report(4, f"100 tensors, worst bound gap {worst_gap:.2e}, "
               f"single-cut equality {worst_eq:.2e}")


def test_criterion_05_tangent_projection_oracle():
    from test_manifold import ambient, dense_tangent_projector, project_all, sparse_dense

    rng = np.random.default_rng(105)
    worst = 0.0
    worst_idem = 0.0
    worst_orth = 0.0
    for _ in range(30):
        base = tt.left_orthogonalize(tt.random_tt((4, 4, 4), (2, 2), rng))
        proj, _ = dense_tangent_projector(base)
        geom = manifold.TangentGeometry(base)
        nnz = int(rng.integers(1, 6))
        idx = rng.integers(0, 4, size=(nnz, 3))
        vals = rng.standard_normal(nnz)
        g = sparse_dense((4, 4, 4), idx, vals)
        got = ambient(geom.project_batch(idx, vals))
        want = proj @ g.reshape(-1, order="F")
        worst = max(worst, float(np.max(np.abs(got - want))))
        v2 = project_all(geom, got.reshape((4, 4, 4), order="F"))
        worst_idem = max(worst_idem, float(np.max(np.abs(ambient(v2) - got))))
        resid = g.reshape(-1, order="F") - got
        worst_orth = max(worst_orth, abs(float(resid @ got)))
    assert worst <= 1e-9
    assert worst_idem <= 1e-9
    assert worst_orth <= 1e-9
    _report(5, f"30 pairs: oracle gap {worst:.2e}, idempotence {worst_idem:.2e}, "
               f"residual orthogonality {worst_orth:.2e}")


@pytest.mark.slow
def test_criterion_06_orgd_linear_convergence():
    start = time.perf_counter()
    # Random target, pinned configuration.
    psi = states.random_mps(8, 2, 2, seed=1)
    tstar = states.pure_state_coeff(psi)
    t0 = warm_start(tstar, tstar.ranks, 0.1, 5)
    stream = meas.make_stream(tstar, meas.ExactSource(), seed=7)
    cfg = solvers.SolverConfig(
        ranks=tstar.ranks, max_iters=50000, batch_size=20, alpha=4e-3,
        stop_rel_error=1e-6, log_every=100,
    )
    _, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=tstar)
    assert trace.rel_error[-1] <= 1e-6
    assert trace.samples[-1] <= 10**6
    errs = np.array(trace.rel_error, dtype=float)
    its = np.array(trace.iters, dtype=float)
    mask = errs > 1e-6
    y = np.log10(errs[mask])
    coef = np.polyfit(its[mask], y, 1)
    resid = y - np.polyval(coef, its[mask])
    r2 = 1 - np.sum(resid**2) / np.sum((y - np.mean(y)) ** 2)
    assert r2 >= 0.98

    # GHZ target to fidelity 0.999.
    ghz = states.ghz(8)
    t_ghz = states.pure_state_coeff(ghz)
    t0g = warm_start(t_ghz, t_ghz.ranks, 0.1, 11)
    sg = meas.make_stream(t_ghz, meas.ExactSource(), seed=13)
    cfgg = solvers.SolverConfig(
        ranks=t_ghz.ranks, max_iters=20000, batch_size=20, alpha=4e-3,
        stop_rel_error=8e-4, log_every=100,
    )
    _, trg = solvers.orgd_run(t0g, sg, cfgg, ground_truth=t_ghz, pure_target=ghz)
    assert trg.fidelity[-1] >= 0.999

    # Ising ground state (n=8, D=16, g=1) at capped solver ranks.
    psi_i, _ = states.ising_ground(8, 1.0, 16)
    t_ising = states.pure_state_coeff(psi_i)
    ranks = tuple(min(4**k, 4 ** (8 - k), 16) for k in range(1, 8))
    t0i = warm_start(t_ising, ranks, 0.1, 21)
    si = meas.make_stream(t_ising, meas.ExactSource(), seed=23)
    cfgi = solvers.SolverConfig(
        ranks=ranks, max_iters=12000, batch_size=20, alpha=4e-3,
        stop_rel_error=8e-4, log_every=100,
    )
    _, tri = solvers.orgd_run(t0i, si, cfgi, ground_truth=t_ising, pure_target=psi_i)
    assert tri.fidelity[-1] >= 0.999

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(6, f"random: R2 {r2:.4f}, {trace.samples[-1]} samples to 1e-6; "
               f"GHZ fid {trg.fidelity[-1]:.5f}; Ising fid {tri.fidelity[-1]:.5f}; "
               f"{elapsed:.0f}s total")


@pytest.mark.slow
def test_criterion_07_quadratic_iteration_scaling():
    alpha, batch, target = 4e-3, 50, 1e-3
    mean_iters = []
    ns = (6, 7, 8, 9, 10)
    for n in ns:
        counts = []
        for seed in (1, 2, 3, 4, 5):
            psi = states.random_mps(n, 2, 2, seed=seed)
            tstar = states.pure_state_coeff(psi)
            t0 = warm_start(tstar, tstar.ranks, 0.1, 100 + seed)
            stream = meas.make_stream(tstar, meas.ExactSource(), seed=200 + 10 * n + seed)
            cfg = solvers.SolverConfig(
                ranks=tstar.ranks, max_iters=20000, batch_size=batch,
                alpha=alpha, stop_rel_error=target, log_every=25,
            )
            _, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=tstar)
            assert trace.rel_error[-1] <= target
            counts.append(trace.iters[-1])
        mean_iters.append(float(np.mean(counts)))
    exponent = np.polyfit(np.log(ns), np.log(mean_iters), 1)[0]
    assert 1.5 <= exponent <= 2.5
    _report(7, f"iterations {dict(zip(ns, mean_iters))}, exponent {exponent:.2f}")


@pytest.mark.slow
def test_criterion_08_noise_floor_ordering():
    def floor_of(alpha, shots, seed):
        psi = states.random_mps(6, 2, 2, seed=seed)
        tstar = states.pure_state_coeff(psi)
        t0 = warm_start(tstar, tstar.ranks, 0.1, 500 + seed)
        stream = meas.make_stream(tstar, meas.ShotSource(shots), seed=600 + seed)
        cfg = solvers.SolverConfig(
            ranks=tstar.ranks, max_iters=3500, batch_size=50, alpha=alpha,
            log_every=50,
        )
        _, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=tstar)
        return float(np.median(trace.rel_error[-10:]))

    floors = {}
    for shots in (4000, 8000):
        for alpha in (1e-3, 4e-3):
            floors[(shots, alpha)] = float(
                np.median([floor_of(alpha, shots, s) for s in (1, 2, 3)])
            )
    assert floors[(4000, 1e-3)] < floors[(4000, 4e-3)]
    assert floors[(8000, 1e-3)] < floors[(8000, 4e-3)]
    assert floors[(8000, 1e-3)] < floors[(4000, 1e-3)]
    assert floors[(8000, 4e-3)] < floors[(4000, 4e-3)]
    _report(8, f"floors {{(M, alpha): err}} = "
               f"{ {k: f'{v:.2e}' for k, v in floors.items()} }")


def _fastest_of(repeats, run):
    """Fastest wall time of ``repeats`` calls; steadier than one on a shared host."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


class _RoundClock:
    """Stream proxy that timestamps each ``draw_batch``; the gaps are rounds."""

    def __init__(self, inner):
        self._inner = inner
        self.stamps = []

    def draw_batch(self, batch_size):
        self.stamps.append(time.perf_counter())
        return self._inner.draw_batch(batch_size)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_criterion_09_per_iteration_cost_scaling():
    ns = list(range(6, 13))
    problems, f_times = [], []
    for n in ns:
        psi = states.random_mps(n, 2, 2, seed=1)
        tstar = states.pure_state_coeff(psi)
        t0 = warm_start(tstar, tstar.ranks, 0.1, 1)
        cfg = solvers.SolverConfig(
            ranks=tstar.ranks, max_iters=60, batch_size=20, alpha=4e-3,
            log_every=10**9,
        )
        problems.append((tstar, t0, cfg))

        stream = meas.make_stream(tstar, meas.ExactSource(), seed=2)
        dataset = stream.draw_batch(100 * 2**n)
        cfgf = solvers.SolverConfig(
            ranks=tstar.ranks, max_iters=3, batch_size=1, alpha=4e-3,
            log_every=10**9,
        )
        f_times.append(_fastest_of(3, lambda: solvers.rgd_offline_run(t0, dataset, cfgf)) / 3)
    # Each n is timed by its fastest single round over repeats interleaved
    # across n, so a slow stretch of a shared host cannot cover one n alone.
    o_times = [np.inf] * len(ns)
    for _ in range(5):
        for i, (tstar, t0, cfg) in enumerate(problems):
            clock = _RoundClock(meas.make_stream(tstar, meas.ExactSource(), seed=2))
            solvers.orgd_run(t0, clock, cfg)
            o_times[i] = min(o_times[i], np.min(np.diff(clock.stamps)))
    po = np.polyfit(np.log(ns), np.log(o_times), 1)[0]
    pf = np.polyfit(np.log(ns), np.log(f_times), 1)[0]
    assert po <= 1.5
    assert pf > 1.5
    _report(9, f"online per-iter exponent {po:.2f} (<= 1.5), "
               f"offline with 100*2^n samples {pf:.2f} (superlinear)")


def test_criterion_10_dmrg_oracle():
    from test_states import dense_ising_h

    psi, energy = states.ising_ground(8, 1.0, 16)
    exact = float(np.linalg.eigvalsh(dense_ising_h(8, 1.0))[0])
    assert abs(energy - exact) < 1e-8
    _, e0 = states.ising_ground(8, 0.0, 16)
    assert abs(e0 - (-(8 - 1))) < 1e-9
    _report(10, f"n=8 g=1 energy {energy:.10f} vs exact {exact:.10f}; "
                f"g=0 energy {e0:.10f}")


def test_criterion_11_spectral_initializer():
    k = 2 * 10**5
    rels = []
    soft = []
    for seed in (1, 2, 3, 4, 5):
        psi = states.random_mps(6, 2, 2, seed=seed)
        tstar = states.pure_state_coeff(psi)
        rep = tt.coherence_report(tstar)
        stream = meas.make_stream(tstar, meas.ExactSource(), seed=700 + seed)
        cfg = solvers.InitConfig(
            k1=k, k2=k, k3=k, mu=rep.incoherence**2, nu=rep.spikiness
        )
        t0, info = solvers.spectral_init(stream, cfg, tstar.ranks)
        rel = tt.tt_distance(t0, tstar) / tt.tt_norm(tstar)
        rels.append(rel)
        assert rel <= 0.3
        # Hard assertion: the trim-derived spikiness bound.
        spiki = tt.coherence_report(t0).spikiness
        bound = (10.0 / 9.0) * cfg.nu * info["zhat_norm"] / tt.tt_norm(t0)
        assert spiki <= bound + 1e-9
        # Soft property (reported, not asserted): Incoh(t0) <= 2 kappa^2 nu.
        kappa = dense_cond(tstar)
        soft.append(tt.coherence_report(t0).incoherence <= 2 * kappa**2 * cfg.nu)
    _report(11, f"rel errors {[f'{r:.3f}' for r in rels]} (all <= 0.3), "
                f"trim-derived spikiness bound holds; soft incoherence "
                f"property held on {sum(soft)}/5 seeds")


def test_criterion_12_replay_determinism(tmp_path):
    plan = {
        "seed": 42,
        "output_dir": str(tmp_path / "run"),
        "repetitions": 2,
        "state": {"family": "random_mps", "n": 5, "d": 2, "rank": 2, "seed": 3},
        "measurement": {"source": "shot", "shots": 200},
        "solver": {
            "algorithm": "orgd", "ranks": "target", "alpha": 4e-3,
            "batch_size": 20, "max_iters": 400, "log_every": 20,
        },
        "init": {"mode": "perturbed_truth", "delta": 0.1},
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == 0
    assert cli.main(["replay", "--run-dir", str(tmp_path / "run")]) == 0
    for i in range(2):
        a = solvers.RunTrace.rows_excluding_wall(tmp_path / "run" / f"trace_rep{i:03d}.csv")
        b = solvers.RunTrace.rows_excluding_wall(
            tmp_path / "run" / "replay" / f"trace_rep{i:03d}.csv"
        )
        assert a == b
    _report(12, "replayed traces byte-identical excluding wall time (2 repetitions)")
