"""Tests for MPO/MPS structures, Hermitian cores, and basis transforms."""

import ast
from pathlib import Path

import numpy as np
import pytest

from ttqst import mpo, states, tt


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
    """Oracle: state vector of length d^n (first site index fastest)."""
    x = psi.cores[0][0]
    for k in range(1, psi.n):
        x = np.tensordot(x, psi.cores[k], axes=(x.ndim - 1, 0))
        x = x.reshape(-1, x.shape[-1], order="F")
    return x[:, 0]


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
    """Kronecker product with the first site index fastest."""
    out = np.array([[1.0]], dtype=np.complex128)
    for s in idx:
        out = np.kron(basis.mats[s], out)
    return out


# ---------------------------------------------------------------- basis


def test_pauli_basis_values():
    b = mpo.make_basis(2)
    s = np.sqrt(2) / 2
    np.testing.assert_allclose(b.mats[1], s * np.array([[0, 1], [1, 0]]), atol=1e-15)
    np.testing.assert_allclose(b.mats[0], s * np.eye(2), atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_orthonormal_hermitian(d):
    b = mpo.make_basis(d)
    assert len(b) == d * d
    gram = np.einsum("aij,bij->ab", b.mats.conj(), b.mats)
    np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-14)
    for m in b.mats:
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
    np.testing.assert_allclose(b.mats[0], np.eye(d) / np.sqrt(d), atol=1e-14)


def test_basis_d1_rejected():
    with pytest.raises(mpo.MpoError):
        mpo.make_basis(1)


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
    rho = mpo.mpo_dense(m2)
    np.testing.assert_allclose(rho, mpo.mpo_dense(m), atol=1e-12)
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
        rho = mpo.mpo_dense(m)
        assert np.linalg.norm(rho - rho.conj().T) <= 1e-10 * np.linalg.norm(rho)


# ---------------------------------------------------------------- decomposition


def test_hermitian_decompose_identity():
    n = 3
    rho = np.eye(2**n, dtype=np.complex128) / 2**n
    m = mpo.hermitian_decompose(rho, (1, 1))
    assert mpo.is_hermitian_cores(m)
    np.testing.assert_allclose(mpo.mpo_dense(m), rho, atol=1e-12)
    for c in m.cores:
        assert np.max(np.abs(c.imag)) < 1e-12
        np.testing.assert_allclose(c, c.transpose(0, 2, 1, 3), atol=1e-12)


def test_hermitian_decompose_round_trip():
    rng = np.random.default_rng(4)
    for trial in range(10):
        src = random_hermitian_mpo(rng, n=3, r=3)
        rho = mpo.mpo_dense(src)
        m = mpo.hermitian_decompose(rho, src.ranks)
        assert mpo.is_hermitian_cores(m)
        err = np.linalg.norm(mpo.mpo_dense(m) - rho) / np.linalg.norm(rho)
        assert err < 1e-9


def test_hermitian_decompose_ghz_density():
    rng = np.random.default_rng(5)
    psi = random_mps(rng, n=4, r=2)
    v = mps_dense(psi)
    rho = np.outer(v, v.conj())
    ranks = tuple(r * r for r in psi.ranks)
    m = mpo.hermitian_decompose(rho, ranks)
    assert mpo.is_hermitian_cores(m)
    assert np.linalg.norm(mpo.mpo_dense(m) - rho) < 1e-10 * np.linalg.norm(rho)


def test_hermitian_decompose_rejects_non_hermitian():
    rng = np.random.default_rng(6)
    rho = np.eye(8, dtype=np.complex128)
    e = rng.standard_normal((8, 8))
    rho = rho + 1j * (e + e.T)
    with pytest.raises(mpo.MpoError):
        mpo.hermitian_decompose(rho, (2, 2))


def test_hermitian_decompose_mpo_input_no_densify():
    rng = np.random.default_rng(7)
    src = random_hermitian_mpo(rng, n=4, r=3)
    out = mpo.hermitian_decompose(src, src.ranks)
    assert mpo.is_hermitian_cores(out)
    a, b = mpo.mpo_dense(out), mpo.mpo_dense(src)
    assert np.linalg.norm(a - b) < 1e-9 * np.linalg.norm(b)


def test_hermitian_defect_resolves_tiny_violations():
    rng = np.random.default_rng(40)
    m = random_hermitian_mpo(rng, n=4, r=4)
    assert mpo._hermitian_defect(m) < 1e-12 * mpo.mpo_frobenius(m)
    cores = list(m.cores)
    bump = np.zeros_like(cores[1])
    bump[0, 0, 1, 0] = 1e-6j
    cores[1] = cores[1] + bump
    defect = mpo._hermitian_defect(mpo.Mpo(cores))
    dense = mpo.mpo_dense(mpo.Mpo(cores))
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
    m = mpo.hermitian_decompose(mpo.mpo_dense(src), src.ranks)
    for c in m.cores[:-1]:
        l = c.reshape(-1, c.shape[3], order="F")
        np.testing.assert_allclose(l.conj().T @ l, np.eye(c.shape[3]), atol=1e-12)


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
        a, b = mpo.mpo_dense(out), mpo.mpo_dense(m)
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
    t = mpo.mpo_to_coeff(rho_mpo, mpo.make_basis(2))
    x = tt.tt_dense(t)
    want = np.zeros((4, 4, 4))
    want[0, 0, 0] = 2 ** (-n / 2)
    np.testing.assert_allclose(x, want, atol=1e-12)


def test_coeff_single_qubit_ground_state():
    # For |0><0| the coefficients are (1/sqrt2, 0, 0, 1/sqrt2); checked on a
    # two-site product rho = |00><00| via both sites.
    psi = mpo.Mps([np.array([[[1.0], [0.0]]]), np.array([[[1.0], [0.0]]])])
    m = mpo.mps_to_mpo(psi)
    t = mpo.mpo_to_coeff(m, mpo.make_basis(2))
    x = tt.tt_dense(t)
    v = np.array([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    np.testing.assert_allclose(x, np.outer(v, v), atol=1e-12)


def test_coeff_matches_dense_inner_products():
    rng = np.random.default_rng(13)
    basis = mpo.make_basis(2)
    m = random_hermitian_mpo(rng, n=3, r=2)
    t = mpo.mpo_to_coeff(m, basis)
    rho = mpo.mpo_dense(m)
    for idx in np.ndindex(4, 4, 4):
        a = dense_observable(basis, idx)
        want = np.vdot(a, rho).real
        assert abs(tt.tt_entry(t, idx) - want) < 1e-12


def test_parseval_norm():
    rng = np.random.default_rng(14)
    basis = mpo.make_basis(2)
    for _ in range(5):
        m = random_hermitian_mpo(rng, n=4, r=2)
        t = mpo.mpo_to_coeff(m, basis)
        assert abs(tt.tt_norm(t) - np.linalg.norm(mpo.mpo_dense(m))) < 1e-12


def test_parseval_distance():
    rng = np.random.default_rng(15)
    basis = mpo.make_basis(2)
    for _ in range(5):
        a = random_hermitian_mpo(rng, n=4, r=2)
        b = random_hermitian_mpo(rng, n=4, r=2)
        ta, tb = mpo.mpo_to_coeff(a, basis), mpo.mpo_to_coeff(b, basis)
        want = np.linalg.norm(mpo.mpo_dense(a) - mpo.mpo_dense(b))
        assert abs(tt.tt_distance(ta, tb) - want) < 1e-10


def test_left_orthogonality_transfer():
    rng = np.random.default_rng(16)
    src = random_hermitian_mpo(rng, n=4, r=3)
    m = mpo.hermitian_decompose(src, src.ranks)
    t = mpo.mpo_to_coeff(m, mpo.make_basis(2))
    for k in range(t.n - 1):
        assert t.ortho[k] == tt.LEFT
        assert tt.is_left_orthogonal(t.cores[k], tol=1e-12)


def test_coeff_round_trip():
    rng = np.random.default_rng(17)
    basis = mpo.make_basis(2)
    m = random_hermitian_mpo(rng, n=4, r=2)
    t = mpo.mpo_to_coeff(m, basis)
    t2 = mpo.mpo_to_coeff(mpo.coeff_to_mpo(t, basis), basis)
    for a, b in zip(t.cores, t2.cores):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_coeff_to_mpo_zero():
    t = tt.TtTensor([np.zeros((1, 4, 1)), np.zeros((1, 4, 1))])
    m = mpo.coeff_to_mpo(t, mpo.make_basis(2))
    assert mpo.mpo_frobenius(m) == 0.0


def test_coeff_to_mpo_always_hermitian_cores():
    rng = np.random.default_rng(18)
    basis = mpo.make_basis(2)
    for _ in range(20):
        t = tt.random_tt((4, 4, 4), (2, 2), rng)
        m = mpo.coeff_to_mpo(t, basis)
        assert mpo.is_hermitian_cores(m)
        rho = mpo.mpo_dense(m)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)


def test_qudit_coeff_round_trip():
    rng = np.random.default_rng(19)
    basis = mpo.make_basis(3)
    cores = []
    ranks = [1, 2, 1]
    for k in range(2):
        c = rng.standard_normal((ranks[k], 3, 3, ranks[k + 1])) + 1j * rng.standard_normal(
            (ranks[k], 3, 3, ranks[k + 1])
        )
        cores.append((c + np.conj(c.transpose(0, 2, 1, 3))) / 2)
    m = mpo.Mpo(cores)
    t = mpo.mpo_to_coeff(m, basis)
    assert abs(tt.tt_norm(t) - np.linalg.norm(mpo.mpo_dense(m))) < 1e-12


# ---------------------------------------------------------------- pure states


def test_mps_to_mpo_product_state():
    psi = mpo.Mps([np.array([[[1.0], [0.0]]]) for _ in range(3)])
    m = mpo.mps_to_mpo(psi)
    assert m.ranks == (1, 1)
    rho = mpo.mpo_dense(m)
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
        np.testing.assert_allclose(mpo.mpo_dense(m), np.outer(v, v.conj()), atol=1e-12)
        assert mpo.is_hermitian_cores(m)
        assert m.ranks == tuple(r * r for r in psi.ranks)


def test_mps_to_mpo_trace_is_norm():
    rng = np.random.default_rng(21)
    psi = random_mps(rng, n=4, r=2)
    m = mpo.mps_to_mpo(psi)
    assert abs(mpo.mpo_trace(m) - 1.0) < 1e-12


def test_trace_identity_mpo():
    n = 3
    m = mpo.hermitian_decompose(np.eye(2**n, dtype=np.complex128) / 2**n, (1, 1))
    assert abs(mpo.mpo_trace(m) - 1.0) < 1e-12


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
    want = abs(np.vdot(v, mpo.mpo_dense(m) @ v))
    c_m = mpo.mpo_to_coeff(m, mpo.make_basis(2))
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

    env = np.ones((1, 1))
    for c in m.cores:
        env = np.einsum("ab,aijc,bijd->cd", env, c.conj(), c)
    np.testing.assert_allclose(mpo.mpo_frobenius(m), np.sqrt(env[0, 0].real), **tol)

    env = np.ones((1, 1, 1))
    for ps, op in zip(psi.cores, m.cores):
        env = np.einsum("abc,aix,bijy,cjz->xyz", env, ps.conj(), op, ps)
    t = mpo.mpo_to_coeff(m, basis)
    parseval = tt.tt_inner(t, states.pure_state_coeff(psi))
    np.testing.assert_allclose(parseval, env[0, 0, 0].real, **tol)

    for got, c in zip(t.cores, m.cores):
        want = np.einsum("lijm,sij->lsm", c, basis.mats.conj()).real
        np.testing.assert_allclose(got, want, **tol)
    for got, c in zip(mpo.coeff_to_mpo(t, basis).cores, t.cores):
        np.testing.assert_allclose(got, np.einsum("lsm,sij->lijm", c, basis.mats), **tol)

    raw = [
        np.einsum("lim,pjq->lpijmq", c, c.conj()).reshape(
            c.shape[0] ** 2, d, d, c.shape[2] ** 2, order="F"
        )
        for c in psi.cores
    ]
    gauges = [mpo._herm_basis_gauge(b) for b in psi.ranks]
    want = gauge_transform(mpo.Mpo(raw), gauges)
    for got, c in zip(mpo.mps_to_mpo(psi).cores, want.cores):
        np.testing.assert_allclose(got, c, **tol)


def test_no_einsum_path_search_in_library():
    """Library contractions use fixed tensordot/matmul forms, never einsum path search.

    Real QR and SVD go through the direct LAPACK kernels ``tt._qr`` and
    ``tt._svd``; numpy's wrappers remain only for the complex QR of
    ``mpo._stacked_chain_norm``.
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
    assert factorizations == {("mpo", "_stacked_chain_norm")}
