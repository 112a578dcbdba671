"""Target-state generators: random MPS, GHZ, and Ising ground states via DMRG.

The two-site DMRG local problem contracts the left environment with the first
MPO core and the second MPO core with the right environment once per site
pair.  A problem of at most ``DENSE_LOCAL_MAX`` unknowns builds its dense
operator from those two halves and takes the lowest eigenpair from one LAPACK
``dsyevr`` call; a larger one runs ARPACK's Lanczos, each matvec two GEMMs and
one transpose copy.

Every contraction is the fixed transpose, reshape and ``ndarray.dot`` that
``np.tensordot`` would perform for it, so the results are bit-equal to
``np.tensordot``'s without its per-call axis bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevr
from scipy.sparse.linalg import LinearOperator, eigsh

from . import mpo, tt
from .measurement import make_rng
from .mpo import Mpo, Mps
from .tt import TtTensor

DMRG_MAX_SWEEPS = 50
DMRG_ENERGY_TOL = 1e-10
_DMRG_INIT_SEED = 0x1517
# Largest two-site problem (unknowns) solved by dense ``dsyevr``.  On the
# Ising chain dsyevr took 0.11 ms at 64 against 0.40 ms for ARPACK, and the
# two broke even at 128.
DENSE_LOCAL_MAX = 64


class StateError(ValueError):
    pass


class DmrgError(RuntimeError):
    """Raised when the ground-state sweep fails to converge."""

    def __init__(self, message, last_energy):
        super().__init__(message)
        self.last_energy = last_energy


@dataclass(frozen=True)
class StateSpec:
    """Parameters of a target-state family."""

    family: str  # random_mps | ghz | ising_ground
    n: int
    d: int = 2
    rank: int = 2  # bond cap for random_mps
    max_bond: int = 16  # DMRG bond cap D
    coupling: float = 1.0  # transverse field g
    seed: int = 0

    def __post_init__(self):
        # Each message names the field at fault first.
        if self.family not in ("random_mps", "ghz", "ising_ground"):
            raise StateError(f"family must be random_mps, ghz or ising_ground, got {self.family!r}")
        for key, low in (("n", 2), ("d", 2), ("rank", 1), ("max_bond", 2)):
            if getattr(self, key) < low:
                raise StateError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if self.family != "random_mps" and self.d != 2:
            raise StateError(f"d must be 2 for {self.family}, got {self.d}")
        if not np.isfinite(self.coupling):
            raise StateError(f"coupling must be finite, got {self.coupling}")


def make_state(spec: StateSpec):
    """Build the state; returns ``(Mps, metadata dict)``."""
    if spec.family == "random_mps":
        psi = random_mps(spec.n, spec.d, spec.rank, spec.seed)
        return psi, {"family": "random_mps", "n": spec.n, "d": spec.d,
                     "rank": spec.rank, "seed": spec.seed}
    if spec.family == "ghz":
        return ghz(spec.n), {"family": "ghz", "n": spec.n, "d": 2}
    psi, energy = ising_ground(spec.n, spec.coupling, spec.max_bond)
    return psi, {"family": "ising_ground", "n": spec.n, "d": 2,
                 "coupling": spec.coupling, "max_bond": spec.max_bond,
                 "energy": energy}


def random_mps(n: int, d: int, r: int, seed: int) -> Mps:
    """Random MPS with Unif[0,1] real and imaginary core entries, unit norm.

    Bond dimensions follow ``min(d^k, d^(n-k), r)`` so the induced density
    operator has bond dimensions ``min(d^2k, d^2(n-k), r^2)``.
    """
    if r < 1:
        raise StateError("rank must be positive")
    rng = make_rng(seed)
    ranks = [1] + [min(d**k, d ** (n - k), r) for k in range(1, n)] + [1]
    cores = [
        rng.uniform(size=(ranks[k], d, ranks[k + 1]))
        + 1j * rng.uniform(size=(ranks[k], d, ranks[k + 1]))
        for k in range(n)
    ]
    return mpo.mps_normalize(Mps(cores))


def ghz(n: int) -> Mps:
    """(|0...0> + |1...1>)/sqrt(2) with bond dimension 2."""
    if n < 2:
        raise StateError("need at least two sites")
    amp = 2.0**-0.25
    first = np.zeros((1, 2, 2), dtype=np.complex128)
    first[0, 0, 0] = first[0, 1, 1] = amp
    mid = np.zeros((2, 2, 2), dtype=np.complex128)
    mid[0, 0, 0] = mid[1, 1, 1] = 1.0
    last = np.zeros((2, 2, 1), dtype=np.complex128)
    last[0, 0, 0] = last[1, 1, 0] = amp
    return Mps([first] + [mid] * (n - 2) + [last])


def pure_state_coeff(psi: Mps) -> TtTensor:
    """Coefficient tensor of |psi><psi| in the local Hermitian basis."""
    return mpo.mpo_to_coeff(mpo.mps_to_mpo(psi))


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_EYE2 = np.eye(2)


def ising_hamiltonian_mpo(n: int, g: float) -> Mpo:
    """``H = -sum Z_i Z_{i+1} + g sum X_i`` in the 3x3 transfer-matrix form."""
    w = np.zeros((3, 2, 2, 3))
    w[0, :, :, 0] = _EYE2
    w[1, :, :, 0] = _PAULI_Z
    w[2, :, :, 0] = g * _PAULI_X
    w[2, :, :, 1] = -_PAULI_Z
    w[2, :, :, 2] = _EYE2
    first = w[2:3]
    last = w[:, :, :, 0:1]
    return Mpo([first] + [w] * (n - 2) + [last])


def _env_left(env, a, w):
    """``env(a_bra, w, a_ket)`` advanced by one site to the right."""
    x, nw, y = env.shape
    _, d, b = a.shape
    nv = w.shape[3]
    t = env.transpose(1, 2, 0).reshape(nw * y, x).dot(a.reshape(x, d * b))  # (w, a_ket, i, b)
    t = t.reshape(nw, y, d, b).transpose(1, 3, 0, 2).reshape(y * b, nw * d)
    t = t.dot(w.reshape(nw * d, d * nv))  # (a_ket, b, j, v)
    t = t.reshape(y, b, d, nv).transpose(1, 3, 0, 2).reshape(b * nv, y * d)
    return t.dot(a.reshape(y * d, b)).reshape(b, nv, b)  # (b, v, c)


def _env_right(env, a, w):
    """``env(b_bra, v, b_ket)`` advanced by one site to the left."""
    x, d, b = a.shape
    nv, nw = env.shape[1], w.shape[0]
    t = a.reshape(x * d, b).dot(env.reshape(b, nv * b))  # (x, i, v, c)
    t = t.reshape(x, d, nv, b).transpose(0, 3, 1, 2).reshape(x * b, d * nv)
    t = t.dot(w.transpose(1, 3, 0, 2).reshape(d * nv, nw * d))  # (x, c, w, j)
    t = t.reshape(x, b, nw, d).transpose(0, 2, 1, 3).reshape(x * nw, b * d)
    return t.dot(a.transpose(2, 1, 0).reshape(b * d, x)).reshape(x, nw, x)  # (x, w, y)


def _two_site_theta(a, b):
    """``theta(l, i, j, r) = sum_m a(l, i, m) b(m, j, r)``."""
    r0, d, r1 = a.shape
    return a.reshape(r0 * d, r1).dot(b.reshape(r1, -1)).reshape(r0, d, d, b.shape[2])


def _two_site_halves(le, w1, w2, re):
    """Pre-contracted halves of the two-site effective Hamiltonian.

    ``H[(a,i,l,x), (b,j,k,c)] = sum_u left[(a,i), (u,b,j)] right[(u,l,x), (k,c)]``
    with ``left = le . W1`` and ``right = W2 . re`` (Schollwöck, Ann. Phys.
    2011); both are C-contiguous matrices, built once per local problem.
    """
    ra, nw, rb = le.shape
    d, nu = w1.shape[1], w1.shape[3]
    left = le.transpose(0, 2, 1).reshape(ra * rb, nw).dot(w1.reshape(nw, d * d * nu))
    left = left.reshape(ra, rb, d, d, nu).transpose(0, 2, 4, 1, 3).reshape(ra * d, nu * rb * d)
    rx, nv, rc = re.shape
    right = w2.reshape(nu * d * d, nv).dot(re.transpose(1, 0, 2).reshape(nv, rx * rc))
    right = right.reshape(nu, d, d, rx, rc).transpose(0, 1, 3, 2, 4).reshape(nu * d * rx, d * rc)
    return left, right


def _two_site_apply(left, right, theta):
    """``H theta`` for ``theta(b, j, k, c)``: two GEMMs and one transpose copy."""
    rb, d, _, rc = theta.shape
    nu = left.shape[1] // (rb * d)
    t = right @ theta.reshape(rb * d, d * rc).T  # ((u, l, x), (b, j))
    t = t.reshape(nu, -1, rb * d).transpose(0, 2, 1).reshape(nu * rb * d, -1)
    return left @ t  # ((a, i), (l, x))


def _two_site_dense(left, right, shape):
    """The dense two-site operator, rows ``(a,i,l,x)`` and columns ``(b,j,k,c)``."""
    rb, d, _, rc = shape
    ai, nu = left.shape[0], left.shape[1] // (rb * d)
    h = left.reshape(ai, nu, rb * d).transpose(0, 2, 1).reshape(ai * rb * d, nu)
    h = h.dot(right.reshape(nu, -1))  # ((a, i), (b, j)) x ((l, x), (k, c))
    dim = rb * d * d * rc
    return h.reshape(ai, rb * d, -1, d * rc).transpose(0, 2, 1, 3).reshape(dim, dim)


def _two_site_ground(le, w1, w2, re, theta0):
    """Lowest eigenpair of the two-site effective Hamiltonian.

    Up to ``DENSE_LOCAL_MAX`` unknowns the dense operator goes to one LAPACK
    ``dsyevr`` call for its lowest eigenpair alone, which reads one triangle
    of the operator, symmetric up to rounding; a failed call raises
    ``LinAlgError``.  Larger problems run ARPACK's Lanczos (``eigsh``) on the
    matrix-free operator, started from ``theta0``.
    """
    shape = theta0.shape
    dim = theta0.size
    left, right = _two_site_halves(le, w1, w2, re)
    if dim <= DENSE_LOCAL_MAX:
        h = _two_site_dense(left, right, shape)
        vals, vecs, _, _, info = dsyevr(h, range="I", il=1, iu=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"dsyevr failed on a {dim}-dimensional local problem (info {info})"
            )
        return float(vals[0]), vecs[:, 0].reshape(shape)

    def matvec(v):
        return _two_site_apply(left, right, v.reshape(shape)).reshape(dim)

    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    vals, vecs = eigsh(op, k=1, which="SA", v0=theta0.reshape(dim), maxiter=400)
    return float(vals[0]), vecs[:, 0].reshape(shape)


def ising_ground(n: int, g: float, max_bond: int):
    """Two-site DMRG ground-state search; returns ``(Mps, energy)``.

    Sweeps until the energy change per sweep drops below 1e-10, failing
    explicitly after 50 sweeps.  The energy is monotonically nonincreasing
    across sweeps (asserted).
    """
    if n > 20:
        raise StateError("two-site DMRG here is desk-scale: n <= 20")
    if max_bond < 2:
        raise StateError("max_bond must be at least 2")
    ham = ising_hamiltonian_mpo(n, g)
    wcores = [c.real for c in ham.cores]
    rng = make_rng(_DMRG_INIT_SEED)
    ranks = [1] + [min(2**k, 2 ** (n - k), max_bond) for k in range(1, n)] + [1]
    cores = [rng.standard_normal((ranks[k], 2, ranks[k + 1])) for k in range(n)]
    # Right-orthogonalize so right environments are valid from the start.
    cores = tt.right_qr_sweep(cores)[0]
    cores[0] /= np.linalg.norm(cores[0])

    les = [None] * n
    res = [None] * n
    les[0] = np.ones((1, 1, 1))
    res[n - 1] = np.ones((1, 1, 1))
    for k in range(n - 1, 0, -1):
        res[k - 1] = _env_right(res[k], cores[k], wcores[k])

    discarded = 0.0

    def split(theta, direction):
        nonlocal discarded
        rl = theta.shape[0]
        rr = theta.shape[3]
        m = theta.reshape(rl * 2, 2 * rr)
        u, s, vh = tt._svd(m)
        keep = min(max_bond, int(np.sum(s > 1e-14 * s[0])))
        keep = max(keep, 1)
        discarded += float(np.sum(s[keep:] ** 2))
        u, s, vh = u[:, :keep], s[:keep], vh[:keep]
        if direction == "right":
            left = u.reshape(rl, 2, keep)
            right = (s[:, None] * vh).reshape(keep, 2, rr)
        else:
            left = (u * s).reshape(rl, 2, keep)
            right = vh.reshape(keep, 2, rr)
        return left, right

    energy = np.inf
    for sweep in range(DMRG_MAX_SWEEPS):
        discarded = 0.0
        for k in range(n - 1):
            theta0 = _two_site_theta(cores[k], cores[k + 1])
            e, theta = _two_site_ground(les[k], wcores[k], wcores[k + 1], res[k + 1], theta0)
            cores[k], cores[k + 1] = split(theta, "right")
            les[k + 1] = _env_left(les[k], cores[k], wcores[k])
        for k in range(n - 2, -1, -1):
            theta0 = _two_site_theta(cores[k], cores[k + 1])
            e, theta = _two_site_ground(les[k], wcores[k], wcores[k + 1], res[k + 1], theta0)
            cores[k], cores[k + 1] = split(theta, "left")
            res[k] = _env_right(res[k + 1], cores[k + 1], wcores[k + 1])
        if discarded < 1e-12:
            # Exact two-site updates lower the energy monotonically; active
            # truncation voids that guarantee, so only then is it asserted.
            assert e <= energy + 1e-9 * max(1.0, abs(e)), "DMRG energy increased"
        if abs(energy - e) < DMRG_ENERGY_TOL:
            energy = e
            break
        energy = e
    else:
        raise DmrgError(
            f"DMRG did not converge within {DMRG_MAX_SWEEPS} sweeps", energy
        )
    psi = Mps([c.astype(np.complex128) for c in cores])
    return mpo.mps_normalize(psi), energy
