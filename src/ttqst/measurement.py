"""Simulated tensor-product measurements of a target coefficient tensor.

Exact expectations are entries of the target's coefficient tensor.  Shot
noise for qubit systems draws M two-outcome measurements per observable
(mean-zero noise with variance at most ``1/(2^n M)``); qudit systems use an
additive Gaussian surrogate with a user-set sigma, because exact shot
simulation of product GGM observables is not implemented (the coefficient
tensor alone would determine their outcome distributions).

Streams draw indices uniformly with replacement from a counter-based
generator (numpy Philox, identifier "philox4x64") so runs replay exactly
from (seed, order).  A draw evaluates the target by ``tt.tt_entries``, which
builds the fixed target's entry plan on the first draw and reads it on every
later one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import tt
from .tt import TtTensor

RNG_ALGORITHM = "philox4x64"


class MeasurementError(ValueError):
    pass


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class ExactSource:
    """Noiseless observations: the target's entries."""


@dataclass(frozen=True)
class ShotSource:
    shots: int


@dataclass(frozen=True)
class GaussianSource:
    sigma: float


def _shot_means(e: np.ndarray, n: int, shots: int, rng) -> np.ndarray:
    """Empirical means of M two-outcome measurements per entry of ``e``.

    Every entry is checked before the first draw.  The means are then drawn
    ``tt.CHUNK_ROWS`` entries at a time; ``binomial`` draws element by
    element, so the blocks draw what one call would.
    """
    scale = 2.0 ** (n / 2.0)
    blocks = [slice(lo, lo + tt.CHUNK_ROWS) for lo in range(0, e.shape[0], tt.CHUNK_ROWS)]
    over = max((scale * np.abs(e[b]).max() for b in blocks), default=0.0)
    if over > 1.0 + 1e-9:
        raise MeasurementError(
            f"expectation magnitude {over:.3e} exceeds the physical bound; "
            "target is not a physical state"
        )
    out = np.empty(e.shape[0])
    for b in blocks:
        p = np.clip((1.0 + scale * e[b]) / 2.0, 0.0, 1.0)
        out[b] = (2.0 * rng.binomial(shots, p) / shots - 1.0) / scale
    return out


class MeasurementStream:
    """Sequential sampler of (index, empirical value) pairs.

    Single-owner object: the draw order is semantically meaningful.  Two
    streams built from equal (target, source, seed) produce identical
    sequences.
    """

    def __init__(self, t_star: TtTensor, source, seed: int):
        if isinstance(source, ShotSource):
            if any(m != 4 for m in t_star.mode_dims):
                raise MeasurementError(
                    "shot source is defined for qubits only; use GaussianSource "
                    "for qudit targets"
                )
            shots = source.shots
            if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
                raise MeasurementError(f"shots must be an integer of at least 1, got {shots!r}")
        elif isinstance(source, GaussianSource):
            if not 0 <= source.sigma < np.inf:
                raise MeasurementError(
                    f"sigma must be finite and nonnegative, got {source.sigma!r}"
                )
        elif not isinstance(source, ExactSource):
            raise MeasurementError(f"unknown source {source!r}")
        self.target = t_star
        self.source = source
        self.rng = make_rng(seed)
        self.n = t_star.n
        self.mode_dims = t_star.mode_dims
        self.scale = math.sqrt(t_star.size)  # d^n for d^2-sized modes
        self.consumed = 0
        # Index bounds: one per mode, or one scalar when all modes are equal,
        # which numpy draws in half the time and to the same numbers.
        dims = np.array(self.mode_dims)
        self._highs = int(dims[0]) if (dims == dims[0]).all() else dims[:, None]
        # Holds every index and, for write_log, every index plus one.
        self._idx_dtype = np.min_scalar_type(max(self.mode_dims))

    def draw_batch(self, batch_size: int):
        """Uniform indices with replacement and their observed values.

        Returns ``(idx, y)`` with ``idx`` of shape (B, n), in the smallest
        unsigned dtype that holds the largest mode size (``uint8`` for qubits
        and qutrits), and raw empirical means ``y`` (unscaled).
        """
        n = self.n
        idx = np.empty((n, batch_size), dtype=self._idx_dtype)
        # One mode-major call draws the same numbers as one call per mode, so
        # the modes are drawn in groups of at most CHUNK_ROWS numbers, or one
        # mode at a time for a larger batch.
        group = max(1, tt.CHUNK_ROWS // max(batch_size, 1))
        for lo in range(0, n, group):
            hi = min(lo + group, n)
            high = self._highs if isinstance(self._highs, int) else self._highs[lo:hi]
            idx[lo:hi] = self.rng.integers(0, high, size=(hi - lo, batch_size))
        idx = idx.T
        y = tt.tt_entries(self.target, idx)
        if isinstance(self.source, ShotSource):
            y = _shot_means(y, n, self.source.shots, self.rng)
        elif isinstance(self.source, GaussianSource):
            # normal draws element by element, so blocks draw what one call would.
            for lo in range(0, batch_size, tt.CHUNK_ROWS):
                e = y[lo : lo + tt.CHUNK_ROWS]
                e += self.rng.normal(0.0, self.source.sigma, size=e.shape[0])
        self.consumed += batch_size
        return idx, y

    @property
    def noise_proxy_variance(self) -> float:
        """Variance of the scaled noise ``eps = d^n z`` for this source."""
        if isinstance(self.source, ExactSource):
            return 0.0
        if isinstance(self.source, ShotSource):
            return self.scale**2 / (2**self.n * self.source.shots)
        return self.scale**2 * self.source.sigma**2


def make_stream(t_star: TtTensor, source, seed: int) -> MeasurementStream:
    return MeasurementStream(t_star, source, seed)


def write_log(path, idx, y, shots):
    """Measurement log: ``step,omega_1,...,omega_n,value,shots`` (1-based omegas).

    Row b holds the index ``idx[b]`` and observed value ``y[b]``; ``shots``
    is the shot count of every row, or None (written empty) for exact values.
    """
    n = idx.shape[1]
    shots = "" if shots is None else shots
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step"] + [f"omega_{k + 1}" for k in range(n)] + ["value", "shots"])
        for step, (row, value) in enumerate(zip((idx + 1).tolist(), y.tolist())):
            w.writerow([step, *row, repr(value), shots])


def read_log(path):
    """``(idx, y, shots)`` of a measurement log written by ``write_log``.

    ``idx`` is an int64 array of shape (B, n) with 0-based indices, ``y`` the
    float64 values and ``shots`` the shared shot count, None for exact values.
    """
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        n = len(next(r)) - 3
        rows = list(r)
    shots = {row[-1] for row in rows}
    if len(shots) > 1:
        raise MeasurementError(f"log rows disagree on the shot count: {sorted(shots)}")
    idx = np.array([row[1:-2] for row in rows], dtype=np.int64).reshape(-1, n) - 1
    y = np.array([float(row[-2]) for row in rows])
    shots = shots.pop() if shots else ""
    return idx, y, int(shots) if shots else None
