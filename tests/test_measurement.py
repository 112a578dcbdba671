"""Measurement pipeline tests: exactness, shot-noise moments, determinism."""

import numpy as np
import pytest
from scipy import stats

from ttqst import measurement as meas
from ttqst import mpo, tt


def identity_coeff(n):
    """Coefficient tensor of rho = I / 2^n."""
    cores = []
    for _ in range(n):
        c = np.zeros((1, 4, 1))
        c[0, 0, 0] = 2**-0.5
        cores.append(c)
    return tt.TtTensor(cores)


def ghz_coeff(n):
    c = np.zeros((1, 2, 2), dtype=complex)
    c[0, 0, 0] = c[0, 1, 1] = 2**-0.25
    mid = np.zeros((2, 2, 2), dtype=complex)
    mid[0, 0, 0] = mid[1, 1, 1] = 1.0
    last = np.zeros((2, 2, 1), dtype=complex)
    last[0, 0, 0] = last[1, 1, 0] = 2**-0.25
    psi = mpo.Mps([c] + [mid] * (n - 2) + [last])
    return mpo.mpo_to_coeff(mpo.mps_to_mpo(psi), mpo.make_basis(2))


def test_identity_expectations():
    n = 4
    t = identity_coeff(n)
    assert abs(tt.tt_entry(t, (0,) * n) - 2 ** (-n / 2)) < 1e-14
    assert abs(tt.tt_entry(t, (0, 2, 0, 0))) < 1e-14


def test_ghz_expectations_match_dense():
    n = 3
    t = ghz_coeff(n)
    basis = mpo.make_basis(2)
    rho = mpo.mpo_dense(mpo.coeff_to_mpo(t, basis))
    for idx in np.ndindex(4, 4, 4):
        a = np.array([[1.0]], dtype=complex)
        for s in idx:
            a = np.kron(basis.mats[s], a)
        want = np.vdot(a, rho).real
        assert abs(tt.tt_entry(t, idx) - want) < 1e-12


def test_shot_sampling_eigenstate_deterministic():
    # Single qubit |0><0|: the Z-direction outcome has zero variance.
    psi = mpo.Mps([np.array([[[1.0], [0.0]]]), np.array([[[1.0], [0.0]]])])
    t = mpo.mpo_to_coeff(mpo.mps_to_mpo(psi), mpo.make_basis(2))
    rng = meas.make_rng(0)
    e = np.array([tt.tt_entry(t, (3, 3))])
    for m in (1, 10, 100):
        y = meas._shot_means(e, t.n, m, rng)
        assert abs(y[0] - 0.5) < 1e-14  # <Z/sqrt2 (x) Z/sqrt2> = 1/2


def test_shot_mean_zero_expectation():
    # Observable with exact value zero: the sample mean concentrates.
    n, m, reps = 3, 4, 10**5
    t = identity_coeff(n)
    idx = (1, 0, 0)
    assert abs(tt.tt_entry(t, idx)) < 1e-14
    rng = meas.make_rng(7)
    e = np.zeros(reps)
    y = meas._shot_means(e, n, m, rng)
    bound = 4.0 / np.sqrt(2**n * m * reps)
    assert abs(np.mean(y)) <= bound


def test_shot_variance_bound():
    n, m, reps = 4, 100, 10**4
    rng = meas.make_rng(11)
    e = np.full(reps, 0.3 * 2 ** (-n / 2))
    y = meas._shot_means(e, n, m, rng)
    z = y - e
    assert np.var(z) <= 1.1 / (2**n * m)
    assert np.max(np.abs(z)) <= 2 ** (1 - n / 2) + 1e-12


def test_shot_tail_bound():
    n, m, reps = 3, 50, 20000
    rng = meas.make_rng(13)
    e = np.zeros(reps)
    z = meas._shot_means(e, n, m, rng)
    for xi in (np.sqrt(1.0 / (2**n * m)), 2 * np.sqrt(1.0 / (2**n * m))):
        frac = np.mean(np.abs(z) >= xi)
        assert frac <= 2 * np.exp(-(xi**2) * m * 2 ** (n - 1)) * 1.5


def test_unphysical_target_rejected():
    t = tt.tt_scale(10.0, identity_coeff(2))
    rng = meas.make_rng(0)
    e = np.array([tt.tt_entry(t, (0, 0))])
    with pytest.raises(meas.MeasurementError):
        meas._shot_means(e, t.n, 10, rng)


def test_unbiasedness_fixed_index():
    n, m, reps = 3, 20, 10**4
    t = ghz_coeff(n)
    idx = (3, 3, 0)
    e = tt.tt_entry(t, idx)
    rng = meas.make_rng(17)
    y = meas._shot_means(np.full(reps, e), n, m, rng)
    se = np.sqrt(1.0 / (2**n * m * reps))
    assert abs(np.mean(y) - e) <= 5 * se


def test_stream_exact_reproduces_entries():
    n = 3
    t = ghz_coeff(n)
    s = meas.make_stream(t, meas.ExactSource(), seed=5)
    idx, y = s.draw_batch(64)
    np.testing.assert_array_equal(y, tt.tt_entries(t, idx))


def test_stream_determinism():
    t = ghz_coeff(3)
    a = meas.make_stream(t, meas.ShotSource(100), seed=42)
    b = meas.make_stream(t, meas.ShotSource(100), seed=42)
    ia, ya = a.draw_batch(200)
    ib, yb = b.draw_batch(200)
    np.testing.assert_array_equal(ia, ib)
    np.testing.assert_array_equal(ya, yb)


@pytest.mark.parametrize("qudit", [False, True])
def test_stream_matches_per_mode_draws(qudit):
    """Consecutive batches, noise included, equal a draw of one call per mode."""
    if qudit:
        target = tt.random_tt((9, 9, 9), (2, 2), np.random.default_rng(4))
        sources = [meas.ExactSource(), meas.GaussianSource(0.1)]
    else:
        target = ghz_coeff(4)
        sources = [meas.ExactSource(), meas.ShotSource(50), meas.GaussianSource(0.1)]
    for source in sources:
        for seed in (0, 7, 7919):
            stream = meas.make_stream(target, source, seed)
            rng = meas.make_rng(seed)
            for size in (1, 20, 7, 50, 3):
                idx, y = stream.draw_batch(size)
                want = np.empty((size, target.n), dtype=np.int64)
                for k, m in enumerate(target.mode_dims):
                    want[:, k] = rng.integers(0, m, size=size)
                e = tt.tt_entries(target, want)
                if isinstance(source, meas.ShotSource):
                    e = meas._shot_means(e, target.n, source.shots, rng)
                elif isinstance(source, meas.GaussianSource):
                    e = e + rng.normal(0.0, source.sigma, size=size)
                assert idx.shape == (size, target.n) and idx.dtype == np.int64
                np.testing.assert_array_equal(idx, want)
                np.testing.assert_array_equal(y, e)


def test_stream_uniform_indices():
    t = identity_coeff(3)
    s = meas.make_stream(t, meas.ExactSource(), seed=3)
    idx, _ = s.draw_batch(10**6)
    flat = np.ravel_multi_index(idx.T, t.mode_dims)
    counts = np.bincount(flat, minlength=t.size)
    _, p = stats.chisquare(counts)
    assert p > 1e-4


def test_next_batch_scaling():
    t = ghz_coeff(3)
    s = meas.make_stream(t, meas.ExactSource(), seed=9)
    idx, y = s.draw_batch(8)
    # The solvers scale raw values by d^n, the stream's ``scale``.
    dn = 2**3
    assert idx.shape == (8, 3) and s.scale == dn
    for row, value in zip(idx, y):
        assert abs(s.scale * value - dn * tt.tt_entry(t, row)) < 1e-12


def test_gaussian_surrogate_variance():
    t = identity_coeff(3)
    sigma = 0.01
    s = meas.make_stream(t, meas.GaussianSource(sigma), seed=23)
    idx, y = s.draw_batch(20000)
    e = tt.tt_entries(t, idx)
    z = y - e
    assert abs(np.var(z) - sigma**2) < 0.1 * sigma**2
    assert abs(s.noise_proxy_variance - (2**3) ** 2 * sigma**2) < 1e-12


def test_shot_source_rejects_qudits():
    rng = np.random.default_rng(0)
    t = tt.random_tt((9, 9), (2,), rng)
    with pytest.raises(meas.MeasurementError):
        meas.make_stream(t, meas.ShotSource(10), seed=0)


def test_log_round_trip(tmp_path):
    t = ghz_coeff(3)
    s = meas.make_stream(t, meas.ShotSource(50), seed=1)
    idx, y = s.draw_batch(20)
    records = [
        meas.MeasurementRecord(tuple(idx[b]), float(y[b]), 50) for b in range(20)
    ]
    path = tmp_path / "log.csv"
    meas.write_log(path, records, n=3)
    back = meas.read_log(path)
    assert len(back) == 20
    for a, b in zip(records, back):
        assert a.index == b.index
        assert a.value == b.value
        assert a.shots == b.shots
