"""Target-state generators: random MPS, GHZ, and Ising ground states via DMRG.

The two-site DMRG local problem contracts the left environment with the first
MPO core and the second MPO core with the right environment once per site
pair; each Lanczos matvec is then two GEMMs and one transpose copy, and the
dense branch builds the operator from the same two halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from . import mpo, tt
from .measurement import make_rng
from .mpo import Mpo, Mps
from .tt import TtTensor

DMRG_MAX_SWEEPS = 50
DMRG_ENERGY_TOL = 1e-10
_DMRG_INIT_SEED = 0x1517


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
        if self.n < 2:
            raise StateError("need at least two sites")
        if self.family not in ("random_mps", "ghz", "ising_ground"):
            raise StateError(f"unknown state family {self.family!r}")
        if self.family in ("ghz", "ising_ground") and self.d != 2:
            raise StateError(f"{self.family} is defined for qubits")
        if self.rank < 1 or self.max_bond < 2:
            raise StateError("bond caps must be positive (max_bond >= 2)")


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
    t = np.tensordot(env, a, axes=(0, 0))  # (w, a_ket, i, b)
    t = np.tensordot(t, w, axes=([0, 2], [0, 1]))  # (a_ket, b, j, v)
    return np.tensordot(t, a, axes=([0, 2], [0, 1]))  # (b, v, c)


def _env_right(env, a, w):
    """``env(b_bra, v, b_ket)`` advanced by one site to the left."""
    t = np.tensordot(a, env, axes=(2, 0))  # (x, i, v, c)
    t = np.tensordot(t, w, axes=([1, 2], [1, 3]))  # (x, c, w, j)
    return np.tensordot(t, a, axes=([1, 3], [2, 1]))  # (x, w, y)


def _two_site_halves(le, w1, w2, re):
    """Pre-contracted halves of the two-site effective Hamiltonian.

    ``H[(a,i,l,x), (b,j,k,c)] = sum_u left[(a,i), (u,b,j)] right[(u,l,x), (k,c)]``
    with ``left = le . W1`` and ``right = W2 . re`` (Schollwöck, Ann. Phys.
    2011); both are C-contiguous matrices, built once per local problem.
    """
    ra, rb, d, nu = le.shape[0], le.shape[2], w1.shape[1], w1.shape[3]
    left = np.tensordot(le, w1, axes=(1, 0))  # (a, b, i, j, u)
    left = left.transpose(0, 2, 4, 1, 3).reshape(ra * d, nu * rb * d)
    rx, rc = re.shape[0], re.shape[2]
    right = np.tensordot(w2, re, axes=(3, 1))  # (u, l, k, x, c)
    right = right.transpose(0, 1, 3, 2, 4).reshape(nu * d * rx, d * rc)
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
    nu = left.shape[1] // (rb * d)
    h = np.tensordot(
        left.reshape(-1, nu, rb * d), right.reshape(nu, -1, d * rc), axes=(1, 0)
    )  # ((a, i), (b, j), (l, x), (k, c))
    dim = rb * d * d * rc
    return h.transpose(0, 2, 1, 3).reshape(dim, dim)


def _two_site_ground(le, w1, w2, re, theta0):
    shape = theta0.shape
    dim = theta0.size
    left, right = _two_site_halves(le, w1, w2, re)
    if dim <= 32:
        h = _two_site_dense(left, right, shape)
        vals, vecs = np.linalg.eigh((h + h.T) / 2)
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
            theta0 = np.tensordot(cores[k], cores[k + 1], axes=(2, 0))
            e, theta = _two_site_ground(les[k], wcores[k], wcores[k + 1], res[k + 1], theta0)
            cores[k], cores[k + 1] = split(theta, "right")
            les[k + 1] = _env_left(les[k], cores[k], wcores[k])
        for k in range(n - 2, -1, -1):
            theta0 = np.tensordot(cores[k], cores[k + 1], axes=(2, 0))
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
