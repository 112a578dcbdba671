"""Measurement pipeline tests: exactness, shot-noise moments, determinism."""

import itertools

import numpy as np
import pytest
from scipy import stats

from test_mpo import mpo_dense
from ttqst import measurement as meas
from ttqst import mpo, tt


def entry(t, idx):
    """One entry of ``t``, by the batch evaluator."""
    return tt.tt_entries(t, [idx])[0]


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
    return mpo.mpo_to_coeff(mpo.mps_to_mpo(psi))


def test_identity_expectations():
    n = 4
    t = identity_coeff(n)
    assert abs(entry(t, (0,) * n) - 2 ** (-n / 2)) < 1e-14
    assert abs(entry(t, (0, 2, 0, 0))) < 1e-14


def test_ghz_expectations_match_dense():
    n = 3
    t = ghz_coeff(n)
    basis = mpo.make_basis(2)
    rho = mpo_dense(mpo.coeff_to_mpo(t))
    for idx in np.ndindex(4, 4, 4):
        a = np.array([[1.0]], dtype=complex)
        for s in idx:
            a = np.kron(basis[s], a)
        want = np.vdot(a, rho).real
        assert abs(entry(t, idx) - want) < 1e-12


def test_shot_sampling_eigenstate_deterministic():
    # Single qubit |0><0|: the Z-direction outcome has zero variance.
    psi = mpo.Mps([np.array([[[1.0], [0.0]]]), np.array([[[1.0], [0.0]]])])
    t = mpo.mpo_to_coeff(mpo.mps_to_mpo(psi))
    rng = meas.make_rng(0)
    e = np.array([entry(t, (3, 3))])
    for m in (1, 10, 100):
        y = meas._shot_means(e, t.n, m, rng)
        assert abs(y[0] - 0.5) < 1e-14  # <Z/sqrt2 (x) Z/sqrt2> = 1/2


def test_shot_mean_zero_expectation():
    # Observable with exact value zero: the sample mean concentrates.
    n, m, reps = 3, 4, 10**5
    t = identity_coeff(n)
    idx = (1, 0, 0)
    assert abs(entry(t, idx)) < 1e-14
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
    e = np.array([entry(t, (0, 0))])
    with pytest.raises(meas.MeasurementError):
        meas._shot_means(e, t.n, 10, rng)


def test_unbiasedness_fixed_index():
    n, m, reps = 3, 20, 10**4
    t = ghz_coeff(n)
    idx = (3, 3, 0)
    e = entry(t, idx)
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
    """Consecutive batches, noise included, equal a draw of one call per mode
    and one noise call per batch, bit for bit.  One batch spans several
    ``CHUNK_ROWS`` blocks, which the stream draws and evaluates block-wise."""
    if qudit:
        rng = np.random.default_rng(4)
        targets = [tt.random_tt(dims, (2, 2), rng) for dims in ((9, 9, 9), (9, 4, 16))]
        sources = [meas.ExactSource(), meas.GaussianSource(0.1)]
    else:
        targets = [ghz_coeff(4)]
        sources = [meas.ExactSource(), meas.ShotSource(50), meas.GaussianSource(0.1)]
    for target, source in itertools.product(targets, sources):
        n = target.n
        for seed in (0, 7, 7919):
            stream = meas.make_stream(target, source, seed)
            rng = meas.make_rng(seed)
            for size in (1, 20, 7, 2 * tt.CHUNK_ROWS + 123, 50, 3):
                idx, y = stream.draw_batch(size)
                want = np.empty((size, n), dtype=np.int64)
                for k, m in enumerate(target.mode_dims):
                    want[:, k] = rng.integers(0, m, size=size)
                e = tt.tt_entries(target, want)
                if isinstance(source, meas.ShotSource):
                    scale = 2.0 ** (n / 2.0)
                    p = np.clip((1.0 + scale * e) / 2.0, 0.0, 1.0)
                    e = (2.0 * rng.binomial(source.shots, p) / source.shots - 1.0) / scale
                elif isinstance(source, meas.GaussianSource):
                    e = e + rng.normal(0.0, source.sigma, size=size)
                assert idx.shape == (size, n) and idx.dtype == np.uint8
                np.testing.assert_array_equal(idx, want)
                assert y.tobytes() == e.tobytes()


def test_index_dtype_is_smallest_that_holds_the_mode_size():
    rng = np.random.default_rng(0)
    for m, dtype in ((4, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16)):
        t = tt.random_tt((m, 4), (2,), rng)
        idx, _ = meas.make_stream(t, meas.ExactSource(), seed=1).draw_batch(7)
        assert idx.dtype == dtype


@pytest.mark.parametrize("m", [255, 256])
def test_log_writes_the_largest_index_at_the_dtype_edge(tmp_path, m):
    # ``idx + 1`` must not wrap: the largest index m - 1 is written as m.
    t = tt.random_tt((m, 4), (2,), np.random.default_rng(m))
    idx, y = meas.make_stream(t, meas.ExactSource(), seed=3).draw_batch(4000)
    assert (idx[:, 0] == m - 1).any()
    path = tmp_path / "log.csv"
    meas.write_log(path, idx, y, None)
    omegas = [int(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
    assert max(omegas) == m and min(omegas) == 1
    back_idx, back_y, _ = meas.read_log(path)
    assert back_idx.dtype == np.int64
    np.testing.assert_array_equal(back_idx, idx)
    np.testing.assert_array_equal(back_y, y)


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
        assert abs(s.scale * value - dn * entry(t, row)) < 1e-12


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


@pytest.mark.parametrize(
    "source, field",
    [
        (meas.ShotSource(2.5), "shots"),
        (meas.ShotSource(4.0), "shots"),
        (meas.ShotSource(True), "shots"),
        (meas.ShotSource(np.nan), "shots"),
        (meas.ShotSource(0), "shots"),
        (meas.GaussianSource(np.nan), "sigma"),
        (meas.GaussianSource(np.inf), "sigma"),
        (meas.GaussianSource(-1.0), "sigma"),
    ],
    ids=repr,
)
def test_stream_rejects_bad_source_parameters(source, field):
    # A fractional shot count would put the means off the +-1/M grid, and a
    # non-finite sigma would hand the solver non-finite observations.
    with pytest.raises(meas.MeasurementError, match=f"^{field} must be "):
        meas.make_stream(ghz_coeff(3), source, seed=0)


@pytest.mark.parametrize("source", [meas.ShotSource(np.int64(7)), meas.GaussianSource(0)])
def test_stream_accepts_numpy_integer_shots_and_zero_sigma(source):
    y = meas.make_stream(ghz_coeff(3), source, seed=0).draw_batch(5)[1]
    assert np.isfinite(y).all()


def test_log_round_trip(tmp_path):
    t = ghz_coeff(3)
    s = meas.make_stream(t, meas.ShotSource(50), seed=1)
    idx, y = s.draw_batch(20)
    path = tmp_path / "log.csv"
    meas.write_log(path, idx, y, 50)
    back_idx, back_y, shots = meas.read_log(path)
    assert back_idx.dtype == np.int64
    np.testing.assert_array_equal(back_idx, idx)
    np.testing.assert_array_equal(back_y, y)
    assert shots == 50
    # The columns read back write the same bytes.
    again = tmp_path / "again.csv"
    meas.write_log(again, back_idx, back_y, shots)
    assert again.read_bytes() == path.read_bytes()


def test_exact_log_has_empty_shots(tmp_path):
    t = ghz_coeff(3)
    idx, y = meas.make_stream(t, meas.ExactSource(), seed=2).draw_batch(5)
    path = tmp_path / "log.csv"
    meas.write_log(path, idx, y, None)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,omega_1,omega_2,omega_3,value,shots"
    assert lines[1] == f"0,{idx[0, 0] + 1},{idx[0, 1] + 1},{idx[0, 2] + 1},{float(y[0])!r},"
    back_idx, back_y, shots = meas.read_log(path)
    np.testing.assert_array_equal(back_idx, idx)
    np.testing.assert_array_equal(back_y, y)
    assert shots is None


def test_log_with_mixed_shot_counts_rejected(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("step,omega_1,omega_2,value,shots\n0,1,2,0.5,50\n1,3,4,0.25,60\n")
    with pytest.raises(meas.MeasurementError, match="shot count"):
        meas.read_log(path)


def copy_tt(t):
    """``t`` rebuilt from copies of its cores: equal entries, no kept entry plan."""
    return tt.TtTensor([c.copy() for c in t.cores])


DRAW_TARGETS = {"qubits-6": ((4,) * 6, (2, 4, 4, 4, 2)), "qutrits-4": ((9,) * 4, (3, 3, 3))}


@pytest.mark.parametrize("source", [meas.ExactSource(), meas.GaussianSource(0.01)],
                         ids=["exact", "gaussian"])
@pytest.mark.parametrize("case", list(DRAW_TARGETS))
def test_draws_byte_equal_to_entries_of_a_fresh_copy(case, source):
    # The target's entry plan, made on the first draw and kept, gives the
    # bytes a plan made afresh gives, for batches below, at and above the
    # entry block.
    dims, ranks = DRAW_TARGETS[case]
    target = tt.random_tt(dims, ranks, np.random.default_rng(11))
    meas.make_stream(target, source, 3).draw_batch(20)
    block = tt.ENTRY_BLOCK_BYTES // (8 * max(c.shape[1] * c.shape[2] for c in target.cores))
    for rows in (1, block - 1, block, block + 1):
        idx, y = meas.make_stream(target, source, rows).draw_batch(rows)
        idx_ref, y_ref = meas.make_stream(copy_tt(target), source, rows).draw_batch(rows)
        assert idx.tobytes() == idx_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()
        if isinstance(source, meas.ExactSource):
            assert y.tobytes() == tt.tt_entries(copy_tt(target), idx).tobytes()


def test_draws_build_the_target_entry_plan_once():
    target = tt.random_tt((4,) * 5, (2, 3, 3, 2), np.random.default_rng(12))
    assert target._plan is None
    stream = meas.make_stream(target, meas.ExactSource(), 4)
    stream.draw_batch(20)
    plan = target._plan
    assert plan is not None
    for _ in range(9):
        stream.draw_batch(20)
        assert target._plan is plan
