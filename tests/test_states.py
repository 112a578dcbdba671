"""State-generator tests with exact-diagonalization oracles."""

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh

from test_mpo import mpo_dense, mps_dense
from test_tt import dense_spectra
from ttqst import mpo, states


def dense_ising_h(n, g):
    """Independent dense Hamiltonian via Kronecker products (site 1 the first factor)."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])

    def site_op(op, i):
        out = np.array([[1.0]])
        for k in range(n):
            out = np.kron(out, op if k == i else np.eye(2))
        return out

    h = np.zeros((2**n, 2**n))
    for i in range(n - 1):
        h -= site_op(z, i) @ site_op(z, i + 1)
    for i in range(n):
        h += g * site_op(x, i)
    return h


def test_random_mps_norm_and_determinism():
    a = states.random_mps(6, 2, 2, seed=3)
    b = states.random_mps(6, 2, 2, seed=3)
    assert abs(mpo.mps_norm(a) - 1.0) < 1e-12
    for ca, cb in zip(a.cores, b.cores):
        np.testing.assert_array_equal(ca, cb)
    c = states.random_mps(6, 2, 2, seed=4)
    assert any(np.any(x != y) for x, y in zip(a.cores, c.cores))


def test_random_mps_induced_mpo_ranks():
    psi = states.random_mps(6, 2, 2, seed=0)
    m = mpo.mps_to_mpo(psi)
    assert m.ranks == (4, 4, 4, 4, 4)
    # Separation ranks of the coefficient tensor match numerically.
    t = states.pure_state_coeff(psi)
    for s in dense_spectra(t):
        numrank = int(np.sum(s > 1e-10 * s[0]))
        assert numrank == 4


def test_ghz_amplitudes():
    for n in (2, 3, 5):
        psi = states.ghz(n)
        v = mps_dense(psi)
        nz = np.nonzero(np.abs(v) > 1e-14)[0]
        np.testing.assert_array_equal(nz, [0, 2**n - 1])
        np.testing.assert_allclose(v[nz], [2**-0.5, 2**-0.5], atol=1e-14)
        assert abs(mpo.mps_inner(psi, psi) - 1.0) < 1e-12


def test_ghz_induced_mpo_rank_4():
    psi = states.ghz(4)
    assert mpo.mps_to_mpo(psi).ranks == (4, 4, 4)


def test_ising_mpo_matches_dense():
    for n, g in ((3, 0.7), (5, 1.3)):
        h = states.ising_hamiltonian_mpo(n, g)
        np.testing.assert_allclose(mpo_dense(h).real, dense_ising_h(n, g), atol=1e-12)


# DMRG contractions against einsum oracles on random, non-symmetric inputs:
# (bra/ket bond, MPO bonds, local dimension), with bond 1 and a qutrit site.
_DMRG_SHAPES = [(1, (1, 3), 2), (4, (3, 3), 2), (3, (2, 4), 3), (5, (3, 1), 2)]


@pytest.mark.parametrize("r,bonds,d", _DMRG_SHAPES)
def test_dmrg_environments_match_einsum(r, bonds, d):
    rng = np.random.default_rng(31)
    nw, nv = bonds
    w = rng.standard_normal((nw, d, d, nv))
    a = rng.standard_normal((r, d, r + 1))
    le = rng.standard_normal((r, nw, r))
    re = rng.standard_normal((r + 1, nv, r + 1))
    np.testing.assert_allclose(
        states._env_left(le, a, w),
        np.einsum("xwy,xib,wijv,yjc->bvc", le, a, w, a), rtol=1e-12, atol=1e-12,
    )
    np.testing.assert_allclose(
        states._env_right(re, a, w),
        np.einsum("bvc,xib,wijv,yjc->xwy", re, a, w, a), rtol=1e-12, atol=1e-12,
    )


@pytest.mark.parametrize("r,bonds,d", _DMRG_SHAPES)
def test_two_site_operator_matches_einsum(r, bonds, d):
    rng = np.random.default_rng(32)
    nw, nu = bonds
    rc = r + 1
    le = rng.standard_normal((r, nw, r))
    w1 = rng.standard_normal((nw, d, d, nu))
    w2 = rng.standard_normal((nu, d, d, 2))
    re = rng.standard_normal((rc, 2, rc))
    theta = rng.standard_normal((r, d, d, rc))
    dim = theta.size
    h = np.einsum("awb,wiju,ulkv,xvc->ailxbjkc", le, w1, w2, re).reshape(dim, dim)
    left, right = states._two_site_halves(le, w1, w2, re)
    np.testing.assert_allclose(
        states._two_site_apply(left, right, theta).ravel(), h @ theta.ravel(),
        rtol=1e-12, atol=1e-12,
    )
    np.testing.assert_allclose(
        states._two_site_dense(left, right, theta.shape), h, rtol=1e-12, atol=1e-12
    )


# np.tensordot oracles: each library contraction spells out the transpose,
# reshape and dot that np.tensordot performs, so it must agree to the bit.
def tensordot_env_left(env, a, w):
    t = np.tensordot(env, a, axes=(0, 0))
    t = np.tensordot(t, w, axes=([0, 2], [0, 1]))
    return np.tensordot(t, a, axes=([0, 2], [0, 1]))


def tensordot_env_right(env, a, w):
    t = np.tensordot(a, env, axes=(2, 0))
    t = np.tensordot(t, w, axes=([1, 2], [1, 3]))
    return np.tensordot(t, a, axes=([1, 3], [2, 1]))


def tensordot_two_site_halves(le, w1, w2, re):
    ra, rb, d, nu = le.shape[0], le.shape[2], w1.shape[1], w1.shape[3]
    left = np.tensordot(le, w1, axes=(1, 0))
    left = left.transpose(0, 2, 4, 1, 3).reshape(ra * d, nu * rb * d)
    rx, rc = re.shape[0], re.shape[2]
    right = np.tensordot(w2, re, axes=(3, 1))
    right = right.transpose(0, 1, 3, 2, 4).reshape(nu * d * rx, d * rc)
    return left, right


def tensordot_two_site_dense(left, right, shape):
    rb, d, _, rc = shape
    nu = left.shape[1] // (rb * d)
    h = np.tensordot(left.reshape(-1, nu, rb * d), right.reshape(nu, -1, d * rc), axes=(1, 0))
    dim = rb * d * d * rc
    return h.transpose(0, 2, 1, 3).reshape(dim, dim)


def _draw(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if dtype == np.complex128:
        x = x + 1j * rng.standard_normal(shape)
    return x


# (bond, MPO bonds, local dimension) of the DMRG shapes above, plus the
# n=6 Ising chain's widest site (bond 8, MPO bond 3).
@pytest.mark.parametrize("r,bonds,d", _DMRG_SHAPES + [(8, (3, 3), 2)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_dmrg_contractions_bit_equal_to_tensordot(r, bonds, d, dtype):
    rng = np.random.default_rng(33)
    nw, nv = bonds
    rc = r + 1
    a = _draw(rng, (r, d, rc), dtype)
    b = _draw(rng, (rc, d, r), dtype)
    w1 = _draw(rng, (nw, d, d, nv), dtype)
    w2 = _draw(rng, (nv, d, d, 2), dtype)
    le = _draw(rng, (r, nw, r), dtype)
    re = _draw(rng, (rc, nv, rc), dtype)
    assert np.array_equal(states._env_left(le, a, w1), tensordot_env_left(le, a, w1))
    assert np.array_equal(states._env_right(re, a, w1), tensordot_env_right(re, a, w1))
    assert np.array_equal(states._two_site_theta(a, b), np.tensordot(a, b, axes=(2, 0)))
    re2 = _draw(rng, (r, 2, r), dtype)
    halves = states._two_site_halves(le, w1, w2, re2)
    want = tensordot_two_site_halves(le, w1, w2, re2)
    for got, oracle in zip(halves, want):
        assert np.array_equal(got, oracle)
    shape = (r, d, d, r)
    assert np.array_equal(
        states._two_site_dense(*halves, shape), tensordot_two_site_dense(*want, shape)
    )


def _ising_local_problems(monkeypatch, n, bond):
    """The last local problem of each size that ``ising_ground(n, 1, bond)`` solves."""
    seen = {}
    solve = states._two_site_ground

    def record(le, w1, w2, re, theta0):
        seen[theta0.size] = (le, w1, w2, re, theta0)
        return solve(le, w1, w2, re, theta0)

    monkeypatch.setattr(states, "_two_site_ground", record)
    states.ising_ground(n, 1.0, bond)
    monkeypatch.setattr(states, "_two_site_ground", solve)
    return seen


def test_local_solve_agrees_with_lanczos(monkeypatch):
    # n=7 at bond 16 solves problems of 16, 64 and 128 unknowns; 128 is the
    # first size above the dense limit.
    problems = _ising_local_problems(monkeypatch, 7, 16)
    above = min(dim for dim in problems if dim > states.DENSE_LOCAL_MAX)
    for dim in (16, 64, above):
        le, w1, w2, re, theta0 = problems[dim]
        e, theta = states._two_site_ground(le, w1, w2, re, theta0)
        left, right = states._two_site_halves(le, w1, w2, re)
        op = LinearOperator(
            (dim, dim), dtype=np.float64,
            matvec=lambda v: states._two_site_apply(left, right, v.reshape(theta0.shape)).ravel(),
        )
        vals, vecs = eigsh(op, k=1, which="SA", v0=theta0.ravel())
        assert abs(e - vals[0]) <= 1e-12 * abs(vals[0])
        v = theta.ravel()
        sign = np.sign(v @ vecs[:, 0])
        np.testing.assert_allclose(sign * v, vecs[:, 0], rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "n,exact",
    [(6, -7.296229810558749), (8, -9.837951447459385), (10, -12.381489999654752)],
)
def test_ising_ground_matches_exact_energy(n, exact):
    # Exact-diagonalization ground energies of the g=1 chain.
    _, energy = states.ising_ground(n, 1.0, 16)
    assert abs(energy - exact) <= 1e-10


def test_ising_ground_ferromagnetic_limit():
    psi, energy = states.ising_ground(6, 0.0, 8)
    assert abs(energy - (-(6 - 1))) < 1e-9
    assert abs(mpo.mps_norm(psi) - 1.0) < 1e-12


def test_ising_ground_strong_field_limit():
    n, g = 6, 10.0
    _, energy = states.ising_ground(n, g, 8)
    assert abs(energy - (-g * n)) / (g * n) < 0.01


@pytest.mark.parametrize("n,g,bond", [(6, 1.0, 8), (8, 1.0, 16)])
def test_ising_ground_matches_exact_diag(n, g, bond):
    psi, energy = states.ising_ground(n, g, bond)
    exact = np.linalg.eigvalsh(dense_ising_h(n, g))[0]
    assert abs(energy - exact) < 1e-8
    assert energy >= exact - 1e-10  # variational
    # The state itself achieves the reported energy.
    v = mps_dense(psi)
    rayleigh = np.vdot(v, dense_ising_h(n, g) @ v).real
    assert abs(rayleigh - energy) < 1e-8


def test_ising_ground_variational_upper_bound_small_bond():
    n, g = 8, 1.0
    _, energy = states.ising_ground(n, g, 2)
    exact = np.linalg.eigvalsh(dense_ising_h(n, g))[0]
    assert energy >= exact - 1e-10


def test_state_spec_validation():
    with pytest.raises(states.StateError):
        states.StateSpec(family="ghz", n=1)
    with pytest.raises(states.StateError):
        states.StateSpec(family="nope", n=4)
    with pytest.raises(states.StateError):
        states.StateSpec(family="ising_ground", n=4, d=3)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"d": 0}, "d must be at least 2, got 0"),
        ({"d": 1}, "d must be at least 2, got 1"),
        ({"family": "ising_ground", "coupling": float("inf")}, "coupling must be finite, got inf"),
        ({"family": "ising_ground", "coupling": float("nan")}, "coupling must be finite, got nan"),
    ],
)
def test_state_spec_names_the_field_at_fault(settings, message):
    with pytest.raises(states.StateError, match=f"^{message}$"):
        states.StateSpec(**{"family": "random_mps", "n": 4, **settings})


def test_make_state_metadata():
    psi, meta = states.make_state(states.StateSpec(family="ising_ground", n=4, coupling=1.0, max_bond=8))
    assert meta["family"] == "ising_ground"
    assert "energy" in meta
    assert abs(mpo.mps_norm(psi) - 1.0) < 1e-12
