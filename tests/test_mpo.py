"""Tests for MPO/MPS structures, Hermitian cores, and basis transforms."""

import ast
from pathlib import Path

import numpy as np
import pytest

from ttqst import manifold, mpo, solvers, states, tt


def random_mps(rng, n=3, d=2, r=2):
    ranks = [1] + [min(d**k, d ** (n - k), r) for k in range(1, n)] + [1]
    cores = [
        rng.uniform(size=(ranks[k], d, ranks[k + 1]))
        + 1j * rng.uniform(size=(ranks[k], d, ranks[k + 1]))
        for k in range(n)
    ]
    return mpo.mps_normalize(mpo.Mps(cores))


def random_hermitian_mpo(rng, n=3, d=2, r=3):
    """Random MPO with cores symmetrized to satisfy the Hermitian condition."""
    ranks = [1] + [min(d ** (2 * k), d ** (2 * (n - k)), r) for k in range(1, n)] + [1]
    cores = []
    for k in range(n):
        c = rng.standard_normal((ranks[k], d, d, ranks[k + 1])) + 1j * rng.standard_normal(
            (ranks[k], d, d, ranks[k + 1])
        )
        cores.append((c + np.conj(c.transpose(0, 2, 1, 3))) / 2.0)
    return mpo.Mpo(cores)


def mps_dense(psi):
    """Oracle: state vector of length d^n (C order, site 1 slowest)."""
    x = psi.cores[0][0]
    for k in range(1, psi.n):
        x = np.tensordot(x, psi.cores[k], axes=(x.ndim - 1, 0))
        x = x.reshape(-1, x.shape[-1])
    return x[:, 0]


def mpo_dense(m):
    """Oracle: dense ``d^n x d^n`` matrix (row/column indices C order, site 1 slowest)."""
    x = m.cores[0][0]  # (d, d, r)
    for c in m.cores[1:]:
        x = np.tensordot(x, c, axes=(x.ndim - 1, 0))  # (rows, cols, d, d, r)
        x = x.transpose(0, 2, 1, 3, 4)
        x = x.reshape(x.shape[0] * m.d, x.shape[2] * m.d, c.shape[3])
    return x[:, :, 0]


def gauge_transform(m, gauges):
    """Oracle: insert invertible bond gauges, ``U_k -> G_{k-1}^{-1} U_k G_k``.

    The represented operator is unchanged; real gauges keep the Hermitian
    core condition.
    """
    cores = []
    for k, c in enumerate(m.cores):
        if k > 0:
            c = np.tensordot(np.linalg.inv(gauges[k - 1]), c, axes=(1, 0))
        if k < m.n - 1:
            c = np.tensordot(c, gauges[k], axes=(3, 0))
        cores.append(c)
    return mpo.Mpo(cores)


def dense_observable(basis, idx):
    """Kronecker product in site order, site 1 the first factor."""
    out = np.array([[1.0]], dtype=np.complex128)
    for s in idx:
        out = np.kron(out, basis[s])
    return out


# ---------------------------------------------------------------- basis


def test_pauli_basis_values():
    b = mpo.make_basis(2)
    s = np.sqrt(2) / 2
    np.testing.assert_allclose(b[1], s * np.array([[0, 1], [1, 0]]), atol=1e-15)
    np.testing.assert_allclose(b[0], s * np.eye(2), atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_orthonormal_hermitian(d):
    b = mpo.make_basis(d)
    assert b.shape == (d * d, d, d) and not b.flags.writeable
    gram = np.einsum("aij,bij->ab", b.conj(), b)
    np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-14)
    for m in b:
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
    np.testing.assert_allclose(b[0], np.eye(d) / np.sqrt(d), atol=1e-14)


def test_basis_d1_rejected():
    with pytest.raises(mpo.MpoError):
        mpo.make_basis(1)


# ---------------------------------------------------------------- chain contract

# The three chains: constructor, its error, and a core at bond ranks (r0, r1)
# with local dimension 2 (mode size 4 for the real tensor train).
CHAINS = {
    "TtTensor": (tt.TtTensor, tt.TtError, lambda r0, r1: np.ones((r0, 4, r1))),
    "Mps": (mpo.Mps, mpo.MpoError, lambda r0, r1: np.ones((r0, 2, r1))),
    "Mpo": (mpo.Mpo, mpo.MpoError, lambda r0, r1: np.ones((r0, 2, 2, r1))),
}

# Bond ranks (r0, r1) of each core of a chain that breaks the contract, and
# the message every chain type raises for it.
BROKEN_CHAINS = {
    "empty": ([], "a chain needs at least 2 cores, got 0"),
    "one core": ([(1, 1)], "a chain needs at least 2 cores, got 1"),
    "left boundary": ([(2, 2), (2, 1)], "boundary ranks must be 1"),
    "right boundary": ([(1, 2), (2, 2)], "boundary ranks must be 1"),
    "bond mismatch": ([(1, 2), (3, 3), (3, 1)], "rank mismatch at bond 1: 2 vs 3"),
}


@pytest.mark.parametrize("broken", list(BROKEN_CHAINS))
@pytest.mark.parametrize("chain", list(CHAINS))
def test_chain_contract_checked_once_for_every_chain(chain, broken):
    # TtTensor, Mps and Mpo share one bond check; an empty Mps or Mpo used to
    # fail with an IndexError, and a one-core one was accepted.
    make, error, core = CHAINS[chain]
    bonds, message = BROKEN_CHAINS[broken]
    with pytest.raises(error, match=f"^{message}$"):
        make([core(*b) for b in bonds])


@pytest.mark.parametrize("chain", list(CHAINS))
def test_chain_keeps_its_ranks_and_freezes_its_cores(chain):
    make, _, core = CHAINS[chain]
    built = make([core(1, 2), core(2, 3), core(3, 1)])
    assert built.ranks == (2, 3)
    assert all(not c.flags.writeable for c in built.cores)


@pytest.mark.parametrize(
    "chain, cores, message",
    [
        ("TtTensor", [np.ones((1, 4, 4, 2)), np.ones((2, 4, 1))], "core must be order 3"),
        ("Mps", [np.ones((1, 2, 2, 2)), np.ones((2, 2, 1))], "Mps core must be order 3"),
        ("Mpo", [np.ones((1, 2, 2)), np.ones((2, 2, 2, 1))], "Mpo core must be order 4"),
        ("Mps", [np.ones((1, 2, 2)), np.ones((2, 3, 1))], "local dimension 2"),
        ("Mpo", [np.ones((1, 2, 2, 2)), np.ones((2, 3, 3, 1))], "local dimension 2"),
        ("Mpo", [np.ones((1, 2, 2, 2)), np.ones((2, 2, 3, 1))], "local dimension 2"),
    ],
    ids=["TtTensor order", "Mps order", "Mpo order", "Mps sites", "Mpo sites",
         "Mpo bra and ket"],
)
def test_chain_core_orders_and_local_dimensions_checked(chain, cores, message):
    make, error, _ = CHAINS[chain]
    with pytest.raises(error, match=message):
        make(cores)


# ---------------------------------------------------------------- hermitian cores


def test_real_symmetric_cores_pass():
    rng = np.random.default_rng(0)
    cores = []
    ranks = [1, 2, 2, 1]
    for k in range(3):
        c = rng.standard_normal((ranks[k], 2, 2, ranks[k + 1]))
        cores.append((c + c.transpose(0, 2, 1, 3)) / 2)
    assert mpo.is_hermitian_cores(mpo.Mpo(cores))


def test_phase_gauge_breaks_condition_not_hermiticity():
    rng = np.random.default_rng(1)
    m = random_hermitian_mpo(rng, n=3)
    cores = list(m.cores)
    cores[1] = 1j * cores[1]
    cores[2] = -1j * cores[2]
    m2 = mpo.Mpo(cores)
    rho = mpo_dense(m2)
    np.testing.assert_allclose(rho, mpo_dense(m), atol=1e-12)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert not mpo.is_hermitian_cores(m2)


def test_random_complex_cores_fail():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cores = [
            rng.standard_normal((1, 2, 2, 2)) + 1j * rng.standard_normal((1, 2, 2, 2)),
            rng.standard_normal((2, 2, 2, 1)) + 1j * rng.standard_normal((2, 2, 2, 1)),
        ]
        assert not mpo.is_hermitian_cores(mpo.Mpo(cores))


def test_hermitian_cores_materialize_hermitian():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        m = random_hermitian_mpo(rng, n=n)
        rho = mpo_dense(m)
        assert np.linalg.norm(rho - rho.conj().T) <= 1e-10 * np.linalg.norm(rho)


def tiny_non_hermitian_mpo():
    """``1e-13 |0><1|`` on site 1 and identities after it: every entry lies
    below the core tolerance, yet the first core is wholly non-Hermitian."""
    tiny = np.zeros((1, 2, 2, 1))
    tiny[0, 0, 1, 0] = 1e-13
    eye = np.eye(2).reshape(1, 2, 2, 1)
    return mpo.Mpo([tiny, eye, eye])


def test_hermitian_core_test_is_relative_per_core():
    m = tiny_non_hermitian_mpo()
    assert not mpo.is_hermitian_cores(m)
    with pytest.raises(mpo.MpoError, match="Hermitian condition"):
        mpo.mpo_to_coeff(m)


def test_hermitian_core_test_ignores_gauge_scaling():
    # |psi><psi| has Hermitian cores up to rounding; scaling one core by 1e-8
    # and the next by 1e8 leaves the operator and each core's relative defect.
    m = mpo.mps_to_mpo(states.random_mps(4, 2, 2, seed=5))
    scaled = mpo.Mpo([1e-8 * m.cores[0], 1e8 * m.cores[1], *m.cores[2:]])
    assert mpo.is_hermitian_cores(scaled)
    np.testing.assert_allclose(
        tt.tt_dense(mpo.mpo_to_coeff(scaled)), tt.tt_dense(mpo.mpo_to_coeff(m)),
        rtol=0, atol=1e-13,
    )


# ---------------------------------------------------------------- decomposition


def test_hermitian_decompose_identity():
    n = 3
    rho = np.eye(2**n, dtype=np.complex128) / 2**n
    m = mpo.hermitian_decompose(rho, (1, 1))
    assert mpo.is_hermitian_cores(m)
    np.testing.assert_allclose(mpo_dense(m), rho, atol=1e-12)
    for c in m.cores:
        assert np.max(np.abs(c.imag)) < 1e-12
        np.testing.assert_allclose(c, c.transpose(0, 2, 1, 3), atol=1e-12)


def test_hermitian_decompose_round_trip():
    rng = np.random.default_rng(4)
    for trial in range(10):
        src = random_hermitian_mpo(rng, n=3, r=3)
        rho = mpo_dense(src)
        m = mpo.hermitian_decompose(rho, src.ranks)
        assert mpo.is_hermitian_cores(m)
        err = np.linalg.norm(mpo_dense(m) - rho) / np.linalg.norm(rho)
        assert err < 1e-9


def test_hermitian_decompose_ghz_density():
    rng = np.random.default_rng(5)
    psi = random_mps(rng, n=4, r=2)
    v = mps_dense(psi)
    rho = np.outer(v, v.conj())
    ranks = tuple(r * r for r in psi.ranks)
    m = mpo.hermitian_decompose(rho, ranks)
    assert mpo.is_hermitian_cores(m)
    assert np.linalg.norm(mpo_dense(m) - rho) < 1e-10 * np.linalg.norm(rho)


@pytest.mark.parametrize("n,d", [(3, 2), (2, 3)])
def test_hermitian_decompose_reads_dense_sites_in_kron_order(n, d):
    # A dense operator's site 1 is its slowest index, the first np.kron
    # factor, as in tt_dense: each factor lands on its own site.
    rng = np.random.default_rng(8 + n)
    factors = []
    for _ in range(n):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        factors.append(a + a.conj().T)
    rho = factors[0]
    for a in factors[1:]:
        rho = np.kron(rho, a)
    m = mpo.hermitian_decompose(rho, (1,) * (n - 1), d=d)
    for c, a in zip(m.cores, factors):
        overlap = abs(np.vdot(a, c[0, :, :, 0]))
        assert overlap == pytest.approx(np.linalg.norm(a) * np.linalg.norm(c), rel=1e-12)
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    coeff = tt.tt_dense(mpo.mpo_to_coeff(mpo.hermitian_decompose(np.kron(z, np.eye(2)), (1,))))
    want = np.zeros((4, 4))
    want[3, 0] = 2.0  # Z x I = 2 (Z/sqrt2) x (I/sqrt2)
    np.testing.assert_allclose(coeff, want, atol=1e-12)


def test_hermitian_decompose_shape_error_names_assumed_d():
    # Without d, a qutrit operator is read as qubits and fails; the message
    # must say that d=2 was assumed and that d= must be passed.
    rho = np.eye(9, dtype=np.complex128)
    with pytest.raises(mpo.MpoError, match=r"d=2 assumed; pass d= .*got \(9, 9\)"):
        mpo.hermitian_decompose(rho, (1,))
    with pytest.raises(mpo.MpoError, match=r"\(d=3\), got \(8, 8\)"):
        mpo.hermitian_decompose(np.eye(8, dtype=np.complex128), (1,), d=3)
    assert len(mpo.hermitian_decompose(rho, (1,), d=3).cores) == 2


def test_hermitian_decompose_rejects_non_hermitian():
    rng = np.random.default_rng(6)
    rho = np.eye(8, dtype=np.complex128)
    e = rng.standard_normal((8, 8))
    rho = rho + 1j * (e + e.T)
    with pytest.raises(mpo.MpoError):
        mpo.hermitian_decompose(rho, (2, 2))


@pytest.mark.parametrize(
    "ranks, message",
    [((5,), "rank 5 at cut 1 infeasible (bounds 4, 4)"), ((0,), "ranks must be positive"),
     ((2, 2), "need 1 ranks, got 2")],
    ids=["above bound", "zero", "count"],
)
def test_hermitian_decompose_rejects_infeasible_ranks_by_the_tt_rule(ranks, message):
    # The TT rank rule over n modes of size d^2, raised as MpoError.
    rho = np.eye(4, dtype=np.complex128)
    with pytest.raises(mpo.MpoError) as info:
        mpo.hermitian_decompose(rho, ranks)
    assert str(info.value) == message


def test_hermitian_decompose_mpo_input_no_densify():
    rng = np.random.default_rng(7)
    src = random_hermitian_mpo(rng, n=4, r=3)
    out = mpo.hermitian_decompose(src, src.ranks)
    assert mpo.is_hermitian_cores(out)
    a, b = mpo_dense(out), mpo_dense(src)
    assert np.linalg.norm(a - b) < 1e-9 * np.linalg.norm(b)


def test_hermitian_defect_resolves_tiny_violations():
    # The coefficient-space defect 2 |Im T| is |rho - rho^dagger|_F by Parseval.
    rng = np.random.default_rng(40)
    m = random_hermitian_mpo(rng, n=4, r=4)
    _, re, im = mpo._coeff_parts(m)
    assert 2.0 * im < 1e-12 * np.hypot(re, im)
    cores = list(m.cores)
    bump = np.zeros_like(cores[1])
    bump[0, 0, 1, 0] = 1e-6j
    cores[1] = cores[1] + bump
    defect = 2.0 * mpo._coeff_parts(mpo.Mpo(cores))[2]
    dense = mpo_dense(mpo.Mpo(cores))
    assert abs(defect - np.linalg.norm(dense - dense.conj().T)) < 1e-10


def test_hermitian_decompose_mpo_rejects_non_hermitian():
    rng = np.random.default_rng(41)
    cores = [
        rng.standard_normal((1, 2, 2, 2)) + 1j * rng.standard_normal((1, 2, 2, 2)),
        rng.standard_normal((2, 2, 2, 1)) + 1j * rng.standard_normal((2, 2, 2, 1)),
    ]
    with pytest.raises(mpo.MpoError):
        mpo.hermitian_decompose(mpo.Mpo(cores), (2,))


def test_hermitian_decompose_orthonormal_cores():
    rng = np.random.default_rng(8)
    src = random_hermitian_mpo(rng, n=3, r=2)
    m = mpo.hermitian_decompose(mpo_dense(src), src.ranks)
    for c in m.cores[:-1]:
        l = c.reshape(-1, c.shape[3], order="F")
        np.testing.assert_allclose(l.conj().T @ l, np.eye(c.shape[3]), atol=1e-12)


@pytest.mark.parametrize("n,r,cap", [(4, 3, 2), (5, 4, 2), (4, 4, 3)])
def test_hermitian_decompose_truncates_gauged_mpo_and_dense_alike(n, r, cap):
    # Below the true ranks, a complex-gauged MPO and its dense operator give
    # the same Hermitian-core operator, whose error is the TT-SVD error of
    # the dense coefficient tensor.
    rng = np.random.default_rng(50 + n + r)
    src = random_hermitian_mpo(rng, n=n, r=r)
    gs = [np.eye(b) + 0.5j * rng.standard_normal((b, b)) + 0.3 * rng.standard_normal((b, b))
          for b in src.ranks]
    gauged = gauge_transform(src, gs)
    assert not mpo.is_hermitian_cores(gauged)
    rho = mpo_dense(src)
    ranks = tuple(min(b, cap) for b in src.ranks)
    assert ranks != src.ranks
    coeff = tt.tt_dense(mpo.mpo_to_coeff(src))
    want = np.linalg.norm(tt.tt_dense(tt.ttsvd(coeff, ranks)) - coeff) / np.linalg.norm(coeff)
    outs = [mpo.hermitian_decompose(x, ranks) for x in (gauged, rho)]
    a, b = (mpo_dense(m) for m in outs)
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
    for m, dense in zip(outs, (a, b)):
        assert mpo.is_hermitian_cores(m) and m.ranks == ranks
        err = np.linalg.norm(dense - rho) / np.linalg.norm(rho)
        assert err == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitian_decompose_rejects_non_finite_input(bad):
    # The Hermitian check reads NaN as passing, so both input kinds are
    # checked for finite entries before anything is factorized.
    rho = np.eye(8, dtype=np.complex128)
    rho[2, 3] = rho[3, 2] = bad
    with pytest.raises(mpo.MpoError, match="^input operator has a non-finite entry$"):
        mpo.hermitian_decompose(rho, (2, 2))
    cores = list(random_hermitian_mpo(np.random.default_rng(42), n=3).cores)
    cores[1] = cores[1].copy()
    cores[1][0, 1, 1, 0] = bad
    with pytest.raises(mpo.MpoError, match="^input MPO has a non-finite core entry$"):
        mpo.hermitian_decompose(mpo.Mpo(cores), (2, 2))


# ---------------------------------------------------------------- gauges


def test_gauge_identity():
    rng = np.random.default_rng(9)
    m = random_hermitian_mpo(rng, n=3)
    out = gauge_transform(m, [np.eye(r) for r in m.ranks])
    for a, b in zip(out.cores, m.cores):
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_real_gauge_preserves_condition_and_operator():
    rng = np.random.default_rng(10)
    for n in (3, 4):
        m = random_hermitian_mpo(rng, n=n)
        gs = [np.eye(r) + 0.3 * rng.standard_normal((r, r)) for r in m.ranks]
        out = gauge_transform(m, gs)
        assert mpo.is_hermitian_cores(out)
        a, b = mpo_dense(out), mpo_dense(m)
        assert np.linalg.norm(a - b) < 1e-9 * np.linalg.norm(b)


def test_complex_gauge_generally_breaks_condition():
    rng = np.random.default_rng(11)
    m = random_hermitian_mpo(rng, n=3)
    gs = [
        np.eye(r) + 0.5j * rng.standard_normal((r, r)) + 0.3 * rng.standard_normal((r, r))
        for r in m.ranks
    ]
    out = gauge_transform(m, gs)
    assert not mpo.is_hermitian_cores(out)


# ---------------------------------------------------------------- coefficient transform


def test_coeff_identity_operator():
    n = 3
    rho_mpo = mpo.hermitian_decompose(np.eye(2**n, dtype=np.complex128) / 2**n, (1, 1))
    t = mpo.mpo_to_coeff(rho_mpo)
    x = tt.tt_dense(t)
    want = np.zeros((4, 4, 4))
    want[0, 0, 0] = 2 ** (-n / 2)
    np.testing.assert_allclose(x, want, atol=1e-12)


def test_coeff_single_qubit_ground_state():
    # For |0><0| the coefficients are (1/sqrt2, 0, 0, 1/sqrt2); checked on a
    # two-site product rho = |00><00| via both sites.
    psi = mpo.Mps([np.array([[[1.0], [0.0]]]), np.array([[[1.0], [0.0]]])])
    m = mpo.mps_to_mpo(psi)
    t = mpo.mpo_to_coeff(m)
    x = tt.tt_dense(t)
    v = np.array([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    np.testing.assert_allclose(x, np.outer(v, v), atol=1e-12)


def test_coeff_matches_dense_inner_products():
    rng = np.random.default_rng(13)
    basis = mpo.make_basis(2)
    m = random_hermitian_mpo(rng, n=3, r=2)
    t = mpo.mpo_to_coeff(m)
    rho = mpo_dense(m)
    for idx in np.ndindex(4, 4, 4):
        a = dense_observable(basis, idx)
        want = np.vdot(a, rho).real
        assert abs(tt.tt_entries(t, [idx])[0] - want) < 1e-12


def test_parseval_norm():
    rng = np.random.default_rng(14)
    for _ in range(5):
        m = random_hermitian_mpo(rng, n=4, r=2)
        t = mpo.mpo_to_coeff(m)
        assert abs(tt.tt_norm(t) - np.linalg.norm(mpo_dense(m))) < 1e-12


def test_parseval_distance():
    rng = np.random.default_rng(15)
    for _ in range(5):
        a = random_hermitian_mpo(rng, n=4, r=2)
        b = random_hermitian_mpo(rng, n=4, r=2)
        ta, tb = mpo.mpo_to_coeff(a), mpo.mpo_to_coeff(b)
        want = np.linalg.norm(mpo_dense(a) - mpo_dense(b))
        assert abs(tt.tt_distance(ta, tb) - want) < 1e-10


def test_left_orthogonality_transfer():
    rng = np.random.default_rng(16)
    src = random_hermitian_mpo(rng, n=4, r=3)
    m = mpo.hermitian_decompose(src, src.ranks)
    t = mpo.mpo_to_coeff(m)
    assert t.left_orthogonal
    for k in range(t.n - 1):
        assert tt.is_left_orthogonal(t.cores[k], tol=1e-12)


def test_coeff_round_trip():
    rng = np.random.default_rng(17)
    m = random_hermitian_mpo(rng, n=4, r=2)
    t = mpo.mpo_to_coeff(m)
    t2 = mpo.mpo_to_coeff(mpo.coeff_to_mpo(t))
    for a, b in zip(t.cores, t2.cores):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_coeff_to_mpo_zero():
    t = tt.TtTensor([np.zeros((1, 4, 1)), np.zeros((1, 4, 1))])
    m = mpo.coeff_to_mpo(t)
    assert all(not c.any() for c in m.cores)


@pytest.mark.parametrize("dims", [(5, 5), (4, 9), (1, 1)])
def test_coeff_to_mpo_rejects_modes_not_d_squared(dims):
    t = tt.random_tt(dims, (1,), np.random.default_rng(0))
    with pytest.raises(mpo.MpoError, match="d\\^2"):
        mpo.coeff_to_mpo(t)


def test_coeff_to_mpo_always_hermitian_cores():
    rng = np.random.default_rng(18)
    for _ in range(20):
        t = tt.random_tt((4, 4, 4), (2, 2), rng)
        m = mpo.coeff_to_mpo(t)
        assert mpo.is_hermitian_cores(m)
        rho = mpo_dense(m)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)


def test_qudit_coeff_round_trip():
    rng = np.random.default_rng(19)
    cores = []
    ranks = [1, 2, 1]
    for k in range(2):
        c = rng.standard_normal((ranks[k], 3, 3, ranks[k + 1])) + 1j * rng.standard_normal(
            (ranks[k], 3, 3, ranks[k + 1])
        )
        cores.append((c + np.conj(c.transpose(0, 2, 1, 3))) / 2)
    m = mpo.Mpo(cores)
    t = mpo.mpo_to_coeff(m)
    assert abs(tt.tt_norm(t) - np.linalg.norm(mpo_dense(m))) < 1e-12


# ---------------------------------------------------------------- pure states


def test_mps_to_mpo_product_state():
    psi = mpo.Mps([np.array([[[1.0], [0.0]]]) for _ in range(3)])
    m = mpo.mps_to_mpo(psi)
    assert m.ranks == (1, 1)
    rho = mpo_dense(m)
    want = np.zeros((8, 8))
    want[0, 0] = 1.0
    np.testing.assert_allclose(rho, want, atol=1e-14)
    assert mpo.is_hermitian_cores(m)


def test_mps_to_mpo_matches_outer_product():
    rng = np.random.default_rng(20)
    for n in (2, 3, 4):
        psi = random_mps(rng, n=n, r=2)
        m = mpo.mps_to_mpo(psi)
        v = mps_dense(psi)
        np.testing.assert_allclose(mpo_dense(m), np.outer(v, v.conj()), atol=1e-12)
        assert mpo.is_hermitian_cores(m)
        assert m.ranks == tuple(r * r for r in psi.ranks)


def test_mps_to_mpo_trace_is_norm():
    rng = np.random.default_rng(21)
    psi = random_mps(rng, n=4, r=2)
    m = mpo.mps_to_mpo(psi)
    assert abs(np.trace(mpo_dense(m)) - 1.0) < 1e-12


def test_trace_identity_mpo():
    n = 3
    m = mpo.hermitian_decompose(np.eye(2**n, dtype=np.complex128) / 2**n, (1, 1))
    assert abs(np.trace(mpo_dense(m)) - 1.0) < 1e-12


def test_fidelity_self():
    # Parseval: <psi|rho|psi> = Tr(rho |psi><psi|) = <c_rho, c_psi>.
    rng = np.random.default_rng(22)
    psi = random_mps(rng, n=3, r=2)
    c = states.pure_state_coeff(psi)
    assert abs(abs(tt.tt_inner(c, c)) - 1.0) < 1e-12


def test_fidelity_matches_dense():
    rng = np.random.default_rng(23)
    psi = random_mps(rng, n=3, r=2)
    m = random_hermitian_mpo(rng, n=3, r=2)
    v = mps_dense(psi)
    want = abs(np.vdot(v, mpo_dense(m) @ v))
    c_m = mpo.mpo_to_coeff(m)
    got = abs(tt.tt_inner(c_m, states.pure_state_coeff(psi)))
    assert abs(got - want) < 1e-10


# ---------------------------------------------------------------- fixed contractions


@pytest.mark.parametrize("n,d,r", [(2, 2, 1), (3, 2, 2), (3, 3, 2), (4, 2, 3), (3, 3, 1)])
def test_fixed_contractions_match_einsum(n, d, r):
    """Each transfer contraction against its einsum form, bond 1 and qutrits included."""
    rng = np.random.default_rng(40 + 7 * n + d + r)
    psi, phi = random_mps(rng, n=n, d=d, r=r), random_mps(rng, n=n, d=d, r=r)
    m = random_hermitian_mpo(rng, n=n, d=d, r=r * r)
    basis = mpo.make_basis(d)
    tol = dict(rtol=1e-12, atol=1e-13)

    env = np.ones((1, 1))
    for ca, cb in zip(psi.cores, phi.cores):
        env = np.einsum("ab,aic,bid->cd", env, ca.conj(), cb)
    np.testing.assert_allclose(mpo.mps_inner(psi, phi), env[0, 0], **tol)

    env = np.ones((1, 1, 1))
    for ps, op in zip(psi.cores, m.cores):
        env = np.einsum("abc,aix,bijy,cjz->xyz", env, ps.conj(), op, ps)
    t = mpo.mpo_to_coeff(m)
    parseval = tt.tt_inner(t, states.pure_state_coeff(psi))
    np.testing.assert_allclose(parseval, env[0, 0, 0].real, **tol)

    for got, c in zip(t.cores, m.cores):
        want = np.einsum("lijm,sij->lsm", c, basis.conj()).real
        np.testing.assert_allclose(got, want, **tol)
    for got, c in zip(mpo.coeff_to_mpo(t).cores, t.cores):
        np.testing.assert_allclose(got, np.einsum("lsm,sij->lijm", c, basis), **tol)

    raw = [
        np.einsum("lim,pjq->lpijmq", c, c.conj()).reshape(
            c.shape[0] ** 2, d, d, c.shape[2] ** 2
        )
        for c in psi.cores
    ]
    gauges = [mpo._herm_basis_gauge(b) for b in psi.ranks]
    want = gauge_transform(mpo.Mpo(raw), gauges)
    for got, c in zip(mpo.mps_to_mpo(psi).cores, want.cores):
        np.testing.assert_allclose(got, c, **tol)


# np.tensordot oracles: each library contraction spells out the transpose,
# reshape and dot that np.tensordot performs, so it must agree to the bit.
def tensordot_mps_inner(a, b):
    env = np.ones((1, 1), dtype=np.complex128)
    for ca, cb in zip(a.cores, b.cores):
        t = np.tensordot(env, cb, axes=(1, 0))
        env = ca.reshape(-1, ca.shape[2]).conj().T @ t.reshape(-1, t.shape[2])
    return complex(env[0, 0])


def tensordot_coeff_cores(m):
    mats = mpo.make_basis(m.d).conj()
    return [np.tensordot(c, mats, axes=([1, 2], [1, 2])).transpose(0, 2, 1) for c in m.cores]


def tensordot_mps_to_mpo(psi):
    gauges = [mpo._herm_basis_gauge(r) for r in psi.ranks]
    out = []
    for k, c in enumerate(psi.cores):
        r0, d, r1 = c.shape
        w = c.conj()[None, :, None, :, None, :] * c[:, None, :, None, :, None]
        w = w.reshape(r0 * r0, d, d, r1 * r1)
        if k > 0:
            w = np.tensordot(gauges[k - 1].conj().T, w, axes=(1, 0))
        if k < psi.n - 1:
            w = np.tensordot(w, gauges[k], axes=(3, 0))
        out.append(w)
    return out


# Real and complex states of the pure-state shapes: GHZ, the Ising ground
# state (bond 8 at n=6), random MPS of bond 2 and 3, and a qutrit chain.
_PURE_STATES = [
    lambda: states.ghz(5),
    lambda: states.ising_ground(6, 1.0, 16)[0],
    lambda: states.random_mps(16, 2, 2, seed=1),
    lambda: states.random_mps(5, 2, 3, seed=4),
    lambda: states.random_mps(4, 3, 2, seed=2),
]


@pytest.mark.parametrize("make", _PURE_STATES)
def test_pure_state_maps_bit_equal_to_tensordot(make):
    psi = make()
    phi = mpo.Mps([c[::-1] for c in psi.cores[:1]] + [c[:, ::-1] for c in psi.cores[1:]])
    assert mpo.mps_inner(psi, phi) == tensordot_mps_inner(psi, phi)
    m = mpo.mps_to_mpo(psi)
    for got, want in zip(m.cores, tensordot_mps_to_mpo(psi)):
        assert np.array_equal(got, want)
    for got, want in zip(mpo._coeff_cores(m), tensordot_coeff_cores(m)):
        assert np.array_equal(got, want)


def test_mps_to_mpo_builds_one_gauge_per_distinct_rank(monkeypatch):
    calls = []
    build = mpo._herm_basis_gauge
    monkeypatch.setattr(mpo, "_herm_basis_gauge", lambda r: calls.append(r) or build(r))
    mpo.mps_to_mpo(states.random_mps(16, 2, 2, seed=1))
    assert calls == [2]


def test_no_einsum_path_search_in_library():
    """Library contractions use fixed transpose, reshape and dot/matmul forms,
    never einsum path search.

    Every QR and SVD is real and goes through the direct LAPACK kernels
    ``tt._householder`` and ``tt._svd``: the library calls no numpy QR or SVD.
    """
    src = Path(mpo.__file__).parent
    hits = [
        f"{path.name}:{no}"
        for path in sorted(src.glob("*.py"))
        for no, line in enumerate(path.read_text().splitlines(), 1)
        if "optimize=True" in line
    ]
    assert hits == []
    factorizations = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("qr", "svd")
                    and ast.unparse(node.value) == "np.linalg"
                ):
                    factorizations.add((path.stem, fn.name))
    assert factorizations == set()


def test_tt_unfolds_in_c_order_only():
    """The library reshapes and ravels in C order: an ``order="F"`` argument
    appears only in ``serialize``, for the TTR1/TTC1 byte layout.  No module
    calls ``tensordot``: every contraction is a fixed transpose, reshape and
    product on views."""
    f_order = set()
    for path in sorted(Path(tt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.keyword)
                and node.arg == "order"
                and isinstance(node.value, ast.Constant)
                and node.value.value == "F"
            ):
                f_order.add(path.stem)
    assert f_order == {"serialize"}
    assert not hasattr(solvers, "_ravel_f")
    tensordot = {
        path.stem
        for path in sorted(Path(tt.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "tensordot"
        or isinstance(node, ast.Name) and node.id == "tensordot"
    }
    assert tensordot == set()


def _np_attr(node, name):
    """Whether ``node`` is the attribute ``np.<name>``."""
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == "np")


def test_tt_and_manifold_products_skip_the_dispatcher():
    """Every product in the function bodies of ``tt`` and ``manifold`` is an
    ``ndarray.dot`` method call: no ``np.dot``, whose ``__array_function__``
    wrapper reaches the same C routine a call later, and no ``@``."""
    found = []
    for mod in (tt, manifold):
        for fn in ast.walk(ast.parse(Path(mod.__file__).read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    found.append((mod.__name__, fn.name, node.lineno, "@"))
                elif isinstance(node, ast.Call) and _np_attr(node.func, "dot"):
                    found.append((mod.__name__, fn.name, node.lineno, "np.dot"))
    assert found == []


def test_no_numpy_product_of_sizes():
    """``np.prod`` multiplies in int64, which wraps past 2^63 entries (4^32
    reads 0), so the library takes every product of sizes with ``math.prod``."""
    found = []
    for path in sorted(Path(tt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _np_attr(node, "prod"):
                found.append((path.stem, node.lineno))
    assert found == []

