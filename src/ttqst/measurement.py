"""Simulated tensor-product measurements of a target coefficient tensor.

Exact expectations are entries of the target's coefficient tensor.  Shot
noise for qubit systems draws M two-outcome measurements per observable
(mean-zero noise with variance at most ``1/(2^n M)``); qudit systems use an
additive Gaussian surrogate with a user-set sigma, since exact shot
simulation of product GGM observables needs global state access.

Streams draw indices uniformly with replacement from a counter-based
generator (numpy Philox, identifier "philox4x64") so runs replay exactly
from (seed, order).
"""

from __future__ import annotations

import csv
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
class MeasurementRecord:
    """One observed empirical mean for a tensor-product observable."""

    index: tuple
    value: float
    shots: int | None  # None means exact


@dataclass(frozen=True)
class ExactSource:
    kind: str = "exact"


@dataclass(frozen=True)
class ShotSource:
    shots: int
    kind: str = "shot"


@dataclass(frozen=True)
class GaussianSource:
    sigma: float
    kind: str = "gaussian"


def _shot_means(e: np.ndarray, n: int, shots: int, rng) -> np.ndarray:
    """Empirical means of M two-outcome measurements per entry of ``e``."""
    scale = 2.0 ** (n / 2.0)
    spectral = scale * e
    over = np.max(np.abs(spectral))
    if over > 1.0 + 1e-9:
        raise MeasurementError(
            f"expectation magnitude {over:.3e} exceeds the physical bound; "
            "target is not a physical state"
        )
    p = np.clip((1.0 + spectral) / 2.0, 0.0, 1.0)
    ups = rng.binomial(shots, p)
    return (2.0 * ups / shots - 1.0) / scale


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
            if source.shots < 1:
                raise MeasurementError("need at least one shot")
        elif isinstance(source, GaussianSource):
            if source.sigma < 0:
                raise MeasurementError("sigma must be nonnegative")
        elif not isinstance(source, ExactSource):
            raise MeasurementError(f"unknown source {source!r}")
        self.target = t_star
        self.source = source
        self.seed = int(seed)
        self.rng = make_rng(seed)
        self.n = t_star.n
        self.mode_dims = t_star.mode_dims
        self.scale = float(np.sqrt(t_star.size))  # d^n for d^2-sized modes
        self.consumed = 0

    def draw_batch(self, batch_size: int):
        """Uniform indices with replacement and their observed values.

        Returns ``(idx, y)`` with ``idx`` of shape (B, n) and raw empirical
        means ``y`` (unscaled).
        """
        # One mode-major call draws the same numbers as one call per mode.
        highs = np.array(self.mode_dims)[:, None]
        idx = self.rng.integers(0, highs, size=(self.n, batch_size)).T
        e = tt.tt_entries(self.target, idx)
        if isinstance(self.source, ExactSource):
            y = e
        elif isinstance(self.source, ShotSource):
            y = _shot_means(e, self.n, self.source.shots, self.rng)
        else:
            y = e + self.rng.normal(0.0, self.source.sigma, size=batch_size)
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


def write_log(path, records, n: int):
    """Measurement log: ``step,omega_1,...,omega_n,value,shots`` (1-based omegas)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step"] + [f"omega_{k + 1}" for k in range(n)] + ["value", "shots"])
        for step, rec in enumerate(records):
            shots = "" if rec.shots is None else rec.shots
            w.writerow(
                [step] + [int(i) + 1 for i in rec.index] + [repr(rec.value), shots]
            )


def read_log(path):
    """Read back a measurement log written by write_log."""
    records = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        n = len(header) - 3
        for row in r:
            idx = tuple(int(v) - 1 for v in row[1 : 1 + n])
            value = float(row[1 + n])
            shots = None if row[2 + n] == "" else int(row[2 + n])
            records.append(MeasurementRecord(idx, value, shots))
    return records
