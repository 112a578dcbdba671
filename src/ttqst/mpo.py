"""Complex MPO/MPS representations, Hermitian core structure, basis transforms.

An MPO stores a ``d^n x d^n`` operator as a chain of order-4 cores
``U_k(l, i, j, m)``; the operator is Hermitian iff it admits cores with
``U_k(l, i, j, m) = conj(U_k(l, j, i, m))`` for every k.  For such cores the
coefficient tensor in an orthonormal Hermitian product basis (Pauli matrices
for qubits, generalized Gell-Mann matrices for qudits) is real with the same
bond ranks, which is what links tomography to real TT completion.  So
``hermitian_decompose`` truncates an operator as ``tt.ttsvd`` of that real
tensor, mapped back by ``coeff_to_mpo``, whose real cores always meet the
Hermitian condition.

An operator is tested for Hermiticity once, in its coefficient tensor ``T``:
by Parseval ``|rho|_F = |T|`` and ``|rho - rho^dagger|_F = 2 |Im T|``, and
``hermitian_decompose`` refuses ``2 |Im T| > 1e-10 |T|`` for dense and MPO
input alike.  Cores are tested by ``is_hermitian_cores``, the one check of
``mpo_to_coeff``.

``Mps`` and ``Mpo`` are one complex chain (``_Chain``) of order-3 or order-4
cores.  They keep the chain contract of ``tt.TtTensor``, checked by the same
``tt._chain_ranks`` (at least 2 cores, boundary ranks 1, matching bonds), and
one local dimension d on every physical axis; a violation raises ``MpoError``.

Arrays unfold in C order, as in ``tt``: a core's ``(i, j)`` read as one
index of size d^2 is ``i * d + j``, and a dense operator's site 1 is its
slowest index.  Fortran order remains only in the TTR1/TTC1 byte layout.
"""

from __future__ import annotations

import math

import numpy as np

from . import tt
from .tt import TtTensor

HERMITIAN_CORE_TOL = 1e-12


class MpoError(ValueError):
    """Raised for invalid MPO/MPS inputs."""


def make_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices (Hilbert-Schmidt), shape (d^2, d, d).

    Scaled Pauli matrices for d=2 (I, X, Y, Z), scaled generalized Gell-Mann
    matrices for d>=3: the identity first, then diagonal-first ordering.  The
    array is read-only.
    """
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
        mats.setflags(write=False)
        return mats
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
    mats = np.array(mats)
    mats.setflags(write=False)
    return mats


class _Chain:
    """A complex chain of order-``ORDER`` cores ``(r_{k-1}, d, ..., d, r_k)``.

    The cores are converted to complex128 and frozen.  They keep the chain
    contract of ``tt._chain_ranks`` (at least 2 cores, boundary ranks 1,
    matching bonds), and every physical axis of every core has the local
    dimension d.  Any violation raises ``MpoError``.
    """

    __slots__ = ("cores", "n", "d", "ranks")
    ORDER = None

    def __init__(self, cores):
        cores = [np.asarray(c, dtype=np.complex128) for c in cores]
        for c in cores:
            if c.ndim != self.ORDER:
                raise MpoError(f"{type(self).__name__} core must be order {self.ORDER}, "
                               f"got shape {c.shape}")
        try:
            ranks = tt._chain_ranks(cores)
        except tt.TtError as exc:
            raise MpoError(str(exc)) from exc
        d = cores[0].shape[1]
        if any(m != d for c in cores for m in c.shape[1:-1]):
            raise MpoError(f"every physical axis must have the local dimension {d}")
        for c in cores:
            c.setflags(write=False)
        self.cores = tuple(cores)
        self.n = len(cores)
        self.d = d
        self.ranks = ranks


class Mps(_Chain):
    """Complex matrix product state: n >= 2 order-3 cores ``(r_{k-1}, d, r_k)``."""

    __slots__ = ()
    ORDER = 3


class Mpo(_Chain):
    """Complex matrix product operator: n >= 2 order-4 cores ``(r_{k-1}, d, d, r_k)``."""

    __slots__ = ()
    ORDER = 4


def mps_inner(a: Mps, b: Mps) -> complex:
    """``<a|b>`` via transfer contraction."""
    if a.n != b.n or a.d != b.d:
        raise MpoError("MPS shape mismatch")
    env = np.ones((1, 1), dtype=np.complex128)
    for ca, cb in zip(a.cores, b.cores):
        t = np.tensordot(env, cb, axes=(1, 0))  # (a, i, d)
        env = ca.reshape(-1, ca.shape[2]).conj().T @ t.reshape(-1, t.shape[2])
    return complex(env[0, 0])


def mps_norm(psi: Mps) -> float:
    return float(np.sqrt(max(mps_inner(psi, psi).real, 0.0)))


def mps_normalize(psi: Mps) -> Mps:
    nrm = mps_norm(psi)
    if nrm == 0.0:
        raise MpoError("cannot normalize the zero state")
    scale = nrm ** (-1.0 / psi.n)
    return Mps([scale * c for c in psi.cores])


def is_hermitian_cores(m: Mpo, tol: float = HERMITIAN_CORE_TOL) -> bool:
    """Whether every core satisfies ``U(l,i,j,m) = conj(U(l,j,i,m))``."""
    for c in m.cores:
        scale = max(float(np.max(np.abs(c))), 1.0)
        if float(np.max(np.abs(c - c.transpose(0, 2, 1, 3).conj()))) > tol * scale:
            return False
    return True


def _check_hermitian(scale: float, defect: float):
    """``MpoError`` for a zero operator, or one whose anti-Hermitian part
    ``defect`` exceeds ``1e-10 * scale``."""
    if scale == 0.0:
        raise MpoError("zero operator")
    if defect > 1e-10 * scale:
        raise MpoError("input operator is not Hermitian")


def _dense_coeff(rho: np.ndarray, n: int, d: int) -> np.ndarray:
    """Complex coefficient tensor, shape ``(d^2,) * n``, of a dense operator.

    The row and column indices are interleaved site by site into
    ``Y((i1, j1), ..., (in, jn))``; each step contracts the slowest site with
    the conjugate basis and moves its coefficient index last, so after n steps
    the sites are back in order.  The real part is the coefficient tensor of
    ``(rho + rho^dagger) / 2`` and ``i`` times the imaginary part that of
    ``(rho - rho^dagger) / 2``; the basis is orthonormal, so their norms are
    the Frobenius norms of those parts.
    """
    q = d * d
    y = rho.reshape((d,) * (2 * n)).transpose([a for k in range(n) for a in (k, n + k)])
    conj_basis = make_basis(d).reshape(q, q).conj()  # (s, (i, j))
    for _ in range(n):
        y = y.reshape(q, -1).T.dot(conj_basis.T)
    return y.reshape((q,) * n)


def _coeff_parts(m: Mpo):
    """``(Re T as a real TT, |Re T|, |Im T|)`` for the coefficient tensor ``T`` of ``m``.

    Each complex coefficient core ``C`` (``_coeff_cores``) becomes
    ``[[Re C, -Im C], [Im C, Re C]]``, the real form of a complex bond matrix,
    at twice the ranks; the product of such forms is the form of the product,
    so with the last core's first block column the first core's two block
    rows give ``Re T`` and ``Im T``.  Their norms are read off the first core
    of ``tt.right_qr_sweep`` over the chain with those rows as one mode, as
    ``tt.tt_distance`` reads its norm: to absolute O(eps * |T|) even when tiny.
    """
    cores = []
    for c in _coeff_cores(m):
        top = np.concatenate([c.real, -c.imag], axis=2)
        cores.append(np.concatenate([top, np.concatenate([c.imag, c.real], axis=2)], axis=0))
    cores[-1] = cores[-1][:, :, :1]
    first = cores[0].reshape(1, -1, cores[0].shape[2])
    re, im = np.linalg.norm(tt.right_qr_sweep([first, *cores[1:]])[0][0].reshape(2, -1), axis=1)
    cores[0] = cores[0][:1]
    return TtTensor(cores), float(re), float(im)


def hermitian_decompose(rho, ranks, d: int | None = None) -> Mpo:
    """Truncate a Hermitian operator to the given bond ranks as Hermitian cores.

    The operator's real coefficient tensor in ``make_basis(d)`` is truncated
    by ``tt.ttsvd`` and mapped back by ``coeff_to_mpo``, so the cores meet the
    Hermitian condition by construction and cores 1..n-1 are left-orthogonal.
    The basis change is unitary per site, so this is TT-SVD of the operator.

    ``rho`` is either a dense ``d^n x d^n`` matrix or an Mpo in any gauge.  A
    dense row or column index is C order over the sites, site 1 slowest, as
    in ``np.kron``: ``np.kron(A_1, ..., A_n)`` puts ``A_k`` on site k.  An Mpo
    is never densified: its complex coefficient cores are taken to the real
    TT of their chain's real part, which ``tt.ttsvd`` truncates on its cores,
    and ``|Im T|`` and ``|T|`` are read off one ``tt.right_qr_sweep``.
    A non-finite entry, a zero or non-Hermitian operator and infeasible ranks
    raise ``MpoError``.
    """
    if isinstance(rho, Mpo):
        if not all(np.isfinite(c).all() for c in rho.cores):
            raise MpoError("input MPO has a non-finite core entry")
        coeff, re, im = _coeff_parts(rho)
        _check_hermitian(math.hypot(re, im), 2.0 * im)
    else:
        rho = np.asarray(rho, dtype=np.complex128)
        given = d is not None
        d = d if given else 2
        n = int(round(np.log(rho.shape[0]) / np.log(d)))
        if rho.shape != (d**n, d**n) or d**n > 2**10:
            which = f"d={d}" if given else f"d={d} assumed; pass d= for other local dimensions"
            raise MpoError(
                f"dense input must be d^n x d^n with d^n <= 1024 ({which}), got {rho.shape}"
            )
        if not np.isfinite(rho).all():
            raise MpoError("input operator has a non-finite entry")
        coeff = _dense_coeff(rho, n, d)
        _check_hermitian(np.linalg.norm(coeff), 2.0 * np.linalg.norm(coeff.imag))
        coeff = coeff.real
    try:
        t = tt.ttsvd(coeff, ranks)
    except tt.TtError as exc:
        raise MpoError(str(exc)) from exc
    return coeff_to_mpo(t)


def _coeff_cores(m: Mpo) -> list:
    """Complex coefficient cores ``C_k(l, s, m) = sum_{ij} U_k(l,i,j,m) conj(P_s(i,j))``.

    The per-site Hilbert-Schmidt inner products with ``make_basis(m.d)``; the
    chain of the ``C_k`` is the coefficient tensor of the MPO in any gauge.
    """
    mats = make_basis(m.d).conj()
    return [np.tensordot(c, mats, axes=([1, 2], [1, 2])).transpose(0, 2, 1) for c in m.cores]


def mpo_to_coeff(m: Mpo) -> TtTensor:
    """Real coefficient tensor of a Hermitian-core MPO in ``make_basis(m.d)``.

    ``is_hermitian_cores`` is the one check.  A basis matrix is Hermitian, so
    the imaginary part of a coefficient core ``_coeff_cores(m)`` is that of
    half the core's defect ``U - conj(U^T)`` against it: Hermitian cores have
    real coefficient cores, and the residue the check allows is dropped.
    Bond ranks carry over, and left-orthogonal MPO cores yield left-orthogonal
    TT cores: the output is flagged ``left_orthogonal`` when its cores 1..n-1
    check so.
    """
    if not is_hermitian_cores(m):
        raise MpoError("mpo_to_coeff requires cores satisfying the Hermitian condition")
    cores = [c.real for c in _coeff_cores(m)]
    return TtTensor(cores, all(tt.is_left_orthogonal(c) for c in cores[:-1]))


def coeff_to_mpo(t: TtTensor) -> Mpo:
    """Inverse transform: ``U_k(l,i,j,m) = sum_s T_k(l,s,m) P_s(i,j)``.

    The local dimension d is read off the modes, which must all equal d^2.
    """
    d = math.isqrt(t.mode_dims[0])
    if d < 2 or any(md != d * d for md in t.mode_dims):
        raise MpoError(f"mode dimensions {t.mode_dims} are not all d^2 for one d >= 2")
    mats = make_basis(d).reshape(d * d, -1).T  # ((i, j), s)
    return Mpo([(mats @ c).reshape(c.shape[0], d, d, c.shape[2]) for c in t.cores])


def _herm_basis_gauge(r: int) -> np.ndarray:
    """Unitary whose columns are vectorized Hermitian basis matrices of C^{r x r}.

    Expressing bond outer-product matrices in this basis turns the
    swap-conjugation covariance of pure-state product cores into the literal
    Hermitian core condition.
    """
    if r == 1:
        return np.ones((1, 1), dtype=np.complex128)
    return make_basis(r).reshape(r * r, -1).T


def mps_to_mpo(psi: Mps) -> Mpo:
    """Pure-state density operator ``|psi><psi|`` as an MPO.

    Bond pairs (l, l') are combined in C order, l' fastest; a Hermitian-basis
    unitary gauge at every bond restores the literal Hermitian core condition,
    so the output passes ``is_hermitian_cores`` directly.  Bond dimensions
    square.
    """
    gauges = [_herm_basis_gauge(r) for r in psi.ranks]
    out = []
    for k, c in enumerate(psi.cores):
        r0, d, r1 = c.shape
        # w(l, p, i, j, m, q) = conj(c(p, j, q)) c(l, i, m)
        w = c.conj()[None, :, None, :, None, :] * c[:, None, :, None, :, None]
        w = w.reshape(r0 * r0, d, d, r1 * r1)
        if k > 0:
            w = np.tensordot(gauges[k - 1].conj().T, w, axes=(1, 0))
        if k < psi.n - 1:
            w = np.tensordot(w, gauges[k], axes=(3, 0))
        out.append(w)
    return Mpo(out)
