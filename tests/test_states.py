"""State-generator tests with exact-diagonalization oracles."""

import numpy as np
import pytest

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


def test_make_state_metadata():
    psi, meta = states.make_state(states.StateSpec(family="ising_ground", n=4, coupling=1.0, max_bond=8))
    assert meta["family"] == "ising_ground"
    assert "energy" in meta
    assert abs(mpo.mps_norm(psi) - 1.0) < 1e-12
