"""Complex MPO/MPS representations, Hermitian core structure, basis transforms.

An MPO stores a ``d^n x d^n`` operator as a chain of order-4 cores
``U_k(l, i, j, m)``; the operator is Hermitian iff it admits cores with
``U_k(l, i, j, m) = conj(U_k(l, j, i, m))`` for every k.  For such cores the
coefficient tensor in an orthonormal Hermitian product basis (Pauli matrices
for qubits, generalized Gell-Mann matrices for qudits) is real with the same
bond ranks, which is what links tomography to real TT completion.
"""

from __future__ import annotations

import numpy as np

from . import tt
from .tt import TtTensor

HERMITIAN_CORE_TOL = 1e-12


class MpoError(ValueError):
    """Raised for invalid MPO/MPS inputs."""


class LocalBasis:
    """Orthonormal Hermitian basis of d x d matrices (Hilbert-Schmidt).

    ``mats[0]`` is proportional to the identity; the rest follow the
    diagonal-first generalized Gell-Mann ordering (for qubits: X, Y, Z).
    """

    __slots__ = ("d", "mats")

    def __init__(self, d: int, mats: np.ndarray):
        self.d = d
        self.mats = mats
        mats.setflags(write=False)

    def __len__(self):
        return self.mats.shape[0]


def make_basis(d: int) -> LocalBasis:
    """Scaled Pauli basis for d=2, scaled generalized Gell-Mann for d>=3."""
    if d < 2:
        raise MpoError("local dimension must be at least 2")
    if d == 2:
        s = np.sqrt(2.0) / 2.0
        mats = np.array(
            [
                s * np.eye(2),
                s * np.array([[0, 1], [1, 0]]),
                s * np.array([[0, -1j], [1j, 0]]),
                s * np.array([[1, 0], [0, -1]]),
            ],
            dtype=np.complex128,
        )
        return LocalBasis(2, mats)
    mats = [np.eye(d, dtype=np.complex128) / np.sqrt(d)]
    for l in range(1, d):
        m = np.zeros((d, d), dtype=np.complex128)
        m[np.diag_indices(l)] = 1.0
        m[l, l] = -l
        mats.append(m / np.sqrt(l * (l + 1)))
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = -1j / np.sqrt(2.0)
            m[k, j] = 1j / np.sqrt(2.0)
            mats.append(m)
    return LocalBasis(d, np.array(mats))


def _as_mps_core(a):
    c = np.asarray(a, dtype=np.complex128)
    if c.ndim != 3:
        raise MpoError(f"MPS core must be order 3, got shape {c.shape}")
    return c


def _as_mpo_core(a):
    c = np.asarray(a, dtype=np.complex128)
    if c.ndim != 4:
        raise MpoError(f"MPO core must be order 4, got shape {c.shape}")
    if c.shape[1] != c.shape[2]:
        raise MpoError("MPO core physical dimensions must match")
    return c


class Mps:
    """Complex matrix product state: n order-3 cores ``(r_{k-1}, d, r_k)``."""

    __slots__ = ("cores", "n", "d", "ranks")

    def __init__(self, cores):
        cores = [_as_mps_core(c) for c in cores]
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise MpoError("boundary ranks must be 1")
        for k in range(len(cores) - 1):
            if cores[k].shape[2] != cores[k + 1].shape[0]:
                raise MpoError(f"rank mismatch at bond {k + 1}")
        d = cores[0].shape[1]
        if any(c.shape[1] != d for c in cores):
            raise MpoError("all sites must share the local dimension")
        for c in cores:
            c.setflags(write=False)
        self.cores = tuple(cores)
        self.n = len(cores)
        self.d = d
        self.ranks = tuple(c.shape[2] for c in cores[:-1])


class Mpo:
    """Complex matrix product operator: n order-4 cores ``(r_{k-1}, d, d, r_k)``."""

    __slots__ = ("cores", "n", "d", "ranks")

    def __init__(self, cores):
        cores = [_as_mpo_core(c) for c in cores]
        if cores[0].shape[0] != 1 or cores[-1].shape[3] != 1:
            raise MpoError("boundary ranks must be 1")
        for k in range(len(cores) - 1):
            if cores[k].shape[3] != cores[k + 1].shape[0]:
                raise MpoError(f"rank mismatch at bond {k + 1}")
        d = cores[0].shape[1]
        if any(c.shape[1] != d for c in cores):
            raise MpoError("all sites must share the local dimension")
        for c in cores:
            c.setflags(write=False)
        self.cores = tuple(cores)
        self.n = len(cores)
        self.d = d
        self.ranks = tuple(c.shape[3] for c in cores[:-1])


def _chain_inner(acores, bcores) -> complex:
    """``sum conj(a) b`` over two chains of order-3 cores, by transfer matrices."""
    env = np.ones((1, 1), dtype=np.complex128)
    for ca, cb in zip(acores, bcores):
        t = np.tensordot(env, cb, axes=(1, 0))  # (a, i, d)
        env = ca.reshape(-1, ca.shape[2]).conj().T @ t.reshape(-1, t.shape[2])
    return complex(env[0, 0])


def mps_inner(a: Mps, b: Mps) -> complex:
    """``<a|b>`` via transfer contraction."""
    if a.n != b.n or a.d != b.d:
        raise MpoError("MPS shape mismatch")
    return _chain_inner(a.cores, b.cores)


def mps_norm(psi: Mps) -> float:
    return float(np.sqrt(max(mps_inner(psi, psi).real, 0.0)))


def mps_normalize(psi: Mps) -> Mps:
    nrm = mps_norm(psi)
    if nrm == 0.0:
        raise MpoError("cannot normalize the zero state")
    scale = nrm ** (-1.0 / psi.n)
    return Mps([scale * c for c in psi.cores])


def mpo_dense(m: Mpo) -> np.ndarray:
    """Dense ``d^n x d^n`` matrix (row/column indices first-site-fastest)."""
    dn = m.d**m.n
    if dn * dn > tt.DENSE_CAP:
        raise MpoError("operator too large to densify")
    x = m.cores[0][0]  # (d, d, r)
    rows, cols = m.d, m.d
    for k in range(1, m.n):
        c = m.cores[k]
        x = np.tensordot(x, c, axes=(x.ndim - 1, 0))  # (rows, cols, d, d, r)
        x = x.transpose(0, 2, 1, 3, 4)
        rows *= m.d
        cols *= m.d
        x = x.reshape(rows, cols, c.shape[3], order="F")
    return x[:, :, 0]


def mpo_trace(m: Mpo) -> complex:
    env = np.ones(1, dtype=np.complex128)
    for c in m.cores:
        env = env @ np.einsum("liim->lm", c)
    return complex(env[0])


def mpo_frobenius(m: Mpo) -> float:
    flat = [c.reshape(c.shape[0], -1, c.shape[3]) for c in m.cores]
    return float(np.sqrt(max(_chain_inner(flat, flat).real, 0.0)))


def _swap_conj(core: np.ndarray) -> np.ndarray:
    return np.conj(core.transpose(0, 2, 1, 3))


def is_hermitian_cores(m: Mpo, tol: float = HERMITIAN_CORE_TOL) -> bool:
    """Whether every core satisfies ``U(l,i,j,m) = conj(U(l,j,i,m))``."""
    for c in m.cores:
        scale = max(float(np.max(np.abs(c))), 1.0)
        if float(np.max(np.abs(c - _swap_conj(c)))) > tol * scale:
            return False
    return True


def _hermitian_eigvec_select(v: np.ndarray, eigvals: np.ndarray, r_prev: int, d: int):
    """Real-combination step: build F-fixed orthonormal eigenvectors.

    ``v`` holds the selected eigenvector columns of ``M M^dagger`` (rows are
    bond x (i, j) with the bond index fastest); F is the conjugate-linear
    swap-conjugation involution.  Within each eigenvalue cluster the columns
    are replaced by real linear combinations of ``(v + Fv)/2`` and
    ``(v - Fv)/2i``, which are F-fixed and span the same eigenspace.
    """
    r = v.shape[1]
    lam_max = float(np.max(np.abs(eigvals))) if r else 0.0
    cluster_tol = 1e-10 * max(lam_max, 1.0)
    out = []
    start = 0
    while start < r:
        stop = start + 1
        while stop < r and abs(eigvals[stop] - eigvals[stop - 1]) <= cluster_tol:
            stop += 1
        vc = v[:, start:stop]
        v4 = vc.reshape(r_prev, d, d, stop - start, order="F")
        vhat = np.conj(v4.transpose(0, 2, 1, 3)).reshape(vc.shape, order="F")
        w = np.concatenate([(vc + vhat) / 2.0, (vc - vhat) / 2j], axis=1)
        gram = w.conj().T @ w
        if float(np.max(np.abs(gram.imag))) > 1e-8 * max(1.0, float(np.max(np.abs(gram)))):
            raise MpoError("inner products of symmetrized eigenvectors are not real")
        gr = gram.real
        evals, evecs = np.linalg.eigh(gr)
        keep = evals > 1e-12 * max(evals[-1], 1e-300)
        if int(np.sum(keep)) < stop - start:
            raise MpoError("eigenvector symmetrization lost rank; input not Hermitian?")
        order = np.argsort(evals)[::-1][: stop - start]
        coeff = evecs[:, order] / np.sqrt(evals[order])
        out.append(w @ coeff)
        start = stop
    return np.concatenate(out, axis=1) if out else v


def _feasible_mpo_ranks(n: int, d: int, ranks):
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != n - 1:
        raise MpoError(f"need {n - 1} ranks, got {len(ranks)}")
    prev = 1
    for k, r in enumerate(ranks):
        if r < 1 or r > prev * d * d or r > d ** (2 * (n - k - 1)):
            raise MpoError(f"rank {r} at bond {k + 1} infeasible")
        prev = r
    return ranks


def hermitian_decompose(rho, ranks, d: int | None = None) -> Mpo:
    """Decompose a Hermitian operator into cores satisfying the swap-conjugation
    condition (sweep of bond-space eigenproblems with F-fixed eigenvector
    selection).

    ``rho`` is either a dense ``d^n x d^n`` matrix or an Mpo (the MPO path
    contracts right Gram environments and never densifies).
    """
    if isinstance(rho, Mpo):
        return _hermitian_decompose_mpo(rho, ranks)
    rho = np.asarray(rho, dtype=np.complex128)
    if d is None:
        d = 2
    n = int(round(np.log(rho.shape[0]) / np.log(d)))
    if rho.shape != (d**n, d**n) or d**n > 2**10:
        raise MpoError(f"dense input must be d^n x d^n with d^n <= 1024, got {rho.shape}")
    scale = np.linalg.norm(rho)
    if scale == 0.0:
        raise MpoError("zero operator")
    if np.linalg.norm(rho - rho.conj().T) > 1e-10 * scale:
        raise MpoError("input operator is not Hermitian")
    ranks = _feasible_mpo_ranks(n, d, ranks)

    # Interleave row/column site indices: Y((i1,j1), ..., (in,jn)).
    a = rho.reshape((d,) * (2 * n), order="F")
    perm = [None] * (2 * n)
    perm[0::2] = range(n)
    perm[1::2] = range(n, 2 * n)
    y = a.transpose(perm).reshape((d * d,) * n, order="F")

    cores = []
    m = y.reshape(d * d, -1, order="F")
    prev = 1
    for k in range(n - 1):
        mmh = m @ m.conj().T
        w, vecs = np.linalg.eigh(mmh)
        order = np.argsort(w)[::-1][: ranks[k]]
        u = _hermitian_eigvec_select(vecs[:, order], w[order], prev, d)
        cores.append(u.reshape(prev, d, d, ranks[k], order="F"))
        m = u.conj().T @ m
        prev = ranks[k]
        m = m.reshape(prev * d * d, -1, order="F")
    cores.append(m.reshape(prev, d, d, 1, order="F"))
    return Mpo(cores)


def _stacked_chain_norm(a, b) -> float:
    """Frobenius norm of the sum of two complex core chains, cancellation-safe.

    The chains are stacked block-diagonally and left-orthogonalized; QR
    performs the cancellation backward-stably, so tiny norms of differences
    of near-equal chains are resolved to absolute accuracy O(eps * scale).
    """
    cores = tt._stack_chains(a, b)
    n = len(cores)
    cur = None
    for k in range(n - 1):
        c = cores[k] if cur is None else np.tensordot(cur, cores[k], axes=(1, 0))
        q, r = np.linalg.qr(c.reshape(-1, c.shape[-1], order="F"))
        cur = r
    last = np.tensordot(cur, cores[-1], axes=(1, 0))
    return float(np.linalg.norm(last))


def _hermitian_defect(m: Mpo) -> float:
    """``|rho - rho^dagger|_F`` via the exact difference chain."""
    flat = [c.reshape(c.shape[0], -1, c.shape[3], order="F") for c in m.cores]
    adj = [
        _swap_conj(c).reshape(c.shape[0], -1, c.shape[3], order="F") for c in m.cores
    ]
    adj[-1] = -adj[-1]
    return _stacked_chain_norm(flat, adj)


def _hermitian_decompose_mpo(m: Mpo, ranks) -> Mpo:
    n, d = m.n, m.d
    ranks = _feasible_mpo_ranks(n, d, ranks)
    nrm = mpo_frobenius(m)
    if nrm == 0.0:
        raise MpoError("zero operator")
    if _hermitian_defect(m) > 1e-10 * nrm:
        raise MpoError("input operator is not Hermitian")

    # Combine (i, j) into one physical index of size d^2 (i fastest).
    work = [c.reshape(c.shape[0], d * d, c.shape[3], order="F") for c in m.cores]
    # Right Gram environments of the untouched tail cores.
    envs = [None] * (n + 1)
    envs[n] = np.ones((1, 1), dtype=np.complex128)
    for k in range(n - 1, -1, -1):
        c = work[k]
        t = np.tensordot(c, envs[k + 1], axes=(2, 0))  # (a, s, c)
        envs[k] = t.reshape(t.shape[0], -1) @ c.reshape(c.shape[0], -1).conj().T

    cores = []
    cur = work[0]
    prev = 1
    for k in range(n - 1):
        l = cur.reshape(prev * d * d, cur.shape[2], order="F")
        mmh = l @ envs[k + 1] @ l.conj().T
        mmh = (mmh + mmh.conj().T) / 2.0
        w, vecs = np.linalg.eigh(mmh)
        order = np.argsort(w)[::-1][: ranks[k]]
        u = _hermitian_eigvec_select(vecs[:, order], w[order], prev, d)
        cores.append(u.reshape(prev, d, d, ranks[k], order="F"))
        carry = u.conj().T @ l  # (r_k, old_rank)
        cur = np.tensordot(carry, work[k + 1], axes=(1, 0))
        prev = ranks[k]
    cores.append(cur.reshape(prev, d, d, 1, order="F"))
    return Mpo(cores)


def mpo_to_coeff(m: Mpo, basis: LocalBasis) -> TtTensor:
    """Real coefficient tensor of a Hermitian-core MPO.

    Core contraction ``T_k(l, s, m) = sum_{ij} U_k(l,i,j,m) conj(P_s(i,j))``
    (the per-site Hilbert-Schmidt inner product).  The imaginary residue is
    asserted below tolerance and dropped; bond ranks carry over, and
    left-orthogonal MPO cores yield left-orthogonal TT cores.
    """
    if basis.d != m.d:
        raise MpoError("basis dimension mismatch")
    if not is_hermitian_cores(m):
        raise MpoError("mpo_to_coeff requires cores satisfying the Hermitian condition")
    cores = []
    flags = []
    mats = basis.mats.conj()
    for c in m.cores:
        t = np.tensordot(c, mats, axes=([1, 2], [1, 2])).transpose(0, 2, 1)  # (l, s, m)
        scale = max(float(np.max(np.abs(t))), 1.0)
        if float(np.max(np.abs(t.imag))) > 1e-12 * scale:
            raise MpoError("coefficient core has imaginary residue above tolerance")
        real = t.real
        cores.append(real)
        flags.append(tt.LEFT if tt.is_left_orthogonal(real) else tt.UNKNOWN)
    flags[-1] = tt.UNKNOWN
    return TtTensor(cores, flags)


def coeff_to_mpo(t: TtTensor, basis: LocalBasis) -> Mpo:
    """Inverse transform: ``U_k(l,i,j,m) = sum_s T_k(l,s,m) P_s(i,j)``."""
    if any(md != basis.d**2 for md in t.mode_dims):
        raise MpoError("mode dimensions must equal d^2 for the chosen basis")
    d = basis.d
    mats = basis.mats.reshape(len(basis), -1).T  # ((i, j), s)
    return Mpo([(mats @ c).reshape(c.shape[0], d, d, c.shape[2]) for c in t.cores])


def _herm_basis_gauge(r: int) -> np.ndarray:
    """Unitary whose columns are vectorized Hermitian basis matrices of C^{r x r}.

    Expressing bond outer-product matrices in this basis turns the
    swap-conjugation covariance of pure-state product cores into the literal
    Hermitian core condition.
    """
    if r == 1:
        return np.ones((1, 1), dtype=np.complex128)
    basis = make_basis(r)
    return np.stack([m.ravel(order="F") for m in basis.mats], axis=1)


def mps_to_mpo(psi: Mps) -> Mpo:
    """Pure-state density operator ``|psi><psi|`` as an MPO.

    Bond pairs (l, l') are combined with l fastest; a Hermitian-basis unitary
    gauge at every bond restores the literal Hermitian core condition, so the
    output passes ``is_hermitian_cores`` directly.  Bond dimensions square.
    """
    n, d = psi.n, psi.d
    cores = []
    for c in psi.cores:
        r0, _, r1 = c.shape
        # w(l, p, i, j, m, q) = conj(c(p, j, q)) c(l, i, m)
        w = c.conj()[None, :, None, :, None, :] * c[:, None, :, None, :, None]
        cores.append(w.reshape(r0 * r0, d, d, r1 * r1, order="F"))
    gauges = [_herm_basis_gauge(r) for r in psi.ranks]
    out = []
    for k, c in enumerate(cores):
        if k > 0:
            c = np.tensordot(gauges[k - 1].conj().T, c, axes=(1, 0))
        if k < n - 1:
            c = np.tensordot(c, gauges[k], axes=(3, 0))
        out.append(c)
    return Mpo(out)
