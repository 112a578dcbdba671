"""The benchmark's workloads: how each sets up, solves once and checks its output.

Every workload drives ttqst only through public entry points
(``solvers.orgd_run``, ``cli.main``) on inputs generated here from the
workload seed.  The seed drives the target, the warm-start perturbation and
the Philox measurement stream, so one seed always gives the same inputs and,
single-threaded, the same final iterate.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from ttqst import cli, measurement, serialize, solvers, states, tt

# Distinct Philox keys per input, derived from the workload seed.
_INIT_SALT = 0x1A17
_STREAM_SALT = 0x57EA


@dataclass
class Problem:
    """Inputs one set-up produces for the solves that follow it."""

    target: object
    t0: object = None
    psi: object = None
    plan_path: Path = None
    stream_seed: int = 0


@dataclass
class Solve:
    """What one timed solve produced."""

    wall_s: float
    round_s: list
    rounds: int
    samples: int
    start_error: float
    final_error: float
    final_bytes: bytes
    problems: list = field(default_factory=list)


class TimedStream:
    """Stream proxy that timestamps every ``draw_batch``, as ``cli._RecordingStream`` wraps one."""

    def __init__(self, inner):
        self._inner = inner
        self.draws = []  # (perf_counter at the call, batch size)

    def draw_batch(self, batch_size):
        self.draws.append((time.perf_counter(), batch_size))
        return self._inner.draw_batch(batch_size)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def round_times(self, batch_size, end=None):
        """Seconds between consecutive draws of one round's batch, plus the last to ``end``."""
        stamps = [t for t, size in self.draws if size == batch_size]
        if end is not None:
            stamps.append(end)
        return [b - a for a, b in zip(stamps, stamps[1:])]


def iterate_bytes(t):
    return b"".join(c.tobytes() for c in t.cores)


def perturbed_truth(target, ranks, delta, seed):
    """Warm start: the target at ``ranks`` plus a random TT of norm ``delta``, retracted."""
    rng = measurement.make_rng(seed)
    pert = tt.random_tt(target.mode_dims, ranks, rng, kind="gaussian")
    pert = tt.tt_scale(delta / tt.tt_norm(pert), pert)
    base = tt.ttsvd(target, ranks) if target.ranks != ranks else target
    return tt.ttsvd(tt.tt_axpy(1.0, pert, base), ranks)


def _orgd_solve(problem, cfg, pure_target=None):
    stream = TimedStream(
        measurement.make_stream(problem.target, measurement.ExactSource(), problem.stream_seed)
    )
    start = time.perf_counter()
    out, trace = solvers.orgd_run(
        problem.t0, stream, cfg, ground_truth=problem.target, pure_target=pure_target
    )
    end = time.perf_counter()
    return Solve(
        wall_s=end - start,
        round_s=stream.round_times(cfg.batch_size, end),
        rounds=trace.iters[-1],
        samples=trace.samples[-1],
        start_error=trace.rel_error[0],
        final_error=trace.rel_error[-1],
        final_bytes=iterate_bytes(out),
    ), trace


class OnlineRandom:
    """Online RGD on a long chain of tiny cores.

    Per-call overhead (geometry build, projection, TT-path retraction, einsum
    path search) sets the round time; BLAS does little, and logging and
    trimming are bypassed.  At n=16 the error drifts down slowly while single
    samples of spiky targets kick it up, so over a fixed round count it may
    end above its start; the check only rules out divergence.
    """

    def __init__(self, n=16, bond=2, batch=20, alpha=2e-3, delta=0.1, rounds=50):
        self.n, self.bond, self.batch = n, bond, batch
        self.alpha, self.delta, self.rounds = alpha, delta, rounds

    def setup(self, seed, workdir):
        target = states.pure_state_coeff(states.random_mps(self.n, 2, self.bond, seed=seed))
        t0 = perturbed_truth(target, target.ranks, self.delta, seed ^ _INIT_SALT)
        return Problem(target=target, t0=t0, stream_seed=seed ^ _STREAM_SALT)

    def solve(self, problem, workdir):
        # Logging only at round 0 and the last round.
        cfg = solvers.SolverConfig(
            ranks=problem.target.ranks, max_iters=self.rounds, batch_size=self.batch,
            alpha=self.alpha, log_every=self.rounds,
        )
        result, _ = _orgd_solve(problem, cfg)
        # A relative error of 1 is the zero tensor's.
        if not (math.isfinite(result.final_error) and result.final_error < 1.0):
            result.problems.append(f"final rel. error {result.final_error!r} diverged")
        return result


class IsingToTarget:
    """The paper's metric: time and samples to a target error.

    Short, wide rank-16 cores, where SVDs and the fidelity logging weigh more.
    """

    def __init__(self, n=6, coupling=1.0, max_bond=16, rank_cap=16, batch=20,
                 alpha=4e-3, delta=0.1, log_every=10, target=8e-4, max_rounds=6000,
                 min_fidelity=0.999):
        self.n, self.coupling, self.max_bond, self.rank_cap = n, coupling, max_bond, rank_cap
        self.batch, self.alpha, self.delta, self.log_every = batch, alpha, delta, log_every
        self.target, self.max_rounds, self.min_fidelity = target, max_rounds, min_fidelity

    def setup(self, seed, workdir):
        # The ground state does not depend on the seed; the start and stream do.
        psi, _ = states.ising_ground(self.n, self.coupling, self.max_bond)
        target = states.pure_state_coeff(psi)
        ranks = tuple(min(4**k, 4 ** (self.n - k), self.rank_cap) for k in range(1, self.n))
        t0 = perturbed_truth(target, ranks, self.delta, seed ^ _INIT_SALT)
        return Problem(target=target, t0=t0, psi=psi, stream_seed=seed ^ _STREAM_SALT)

    def solve(self, problem, workdir):
        cfg = solvers.SolverConfig(
            ranks=problem.t0.ranks, max_iters=self.max_rounds, batch_size=self.batch,
            alpha=self.alpha, stop_rel_error=self.target, log_every=self.log_every,
        )
        result, trace = _orgd_solve(problem, cfg, pure_target=problem.psi)
        if not result.final_error <= self.target:
            result.problems.append(
                f"rel. error {result.final_error!r} after {result.rounds} rounds "
                f"did not reach {self.target}"
            )
        if not trace.fidelity[-1] >= self.min_fidelity:
            result.problems.append(
                f"fidelity {trace.fidelity[-1]!r} is below {self.min_fidelity}"
            )
        return result


class CliShotTrim:
    """``ttqst reconstruct`` in process, on a generated plan.

    The only workload through the CLI, serialization, shot sampling, spectral
    init and the dense trimmed retraction.
    """

    def __init__(self, n=6, bond=2, shots=4000, k=200_000, batch=20, alpha=4e-3,
                 log_every=25, rounds=50):
        self.n, self.bond, self.shots, self.k = n, bond, shots, k
        self.batch, self.alpha, self.log_every, self.rounds = batch, alpha, log_every, rounds

    def setup(self, seed, workdir):
        target = states.pure_state_coeff(states.random_mps(self.n, 2, self.bond, seed=seed))
        plan = {
            "seed": seed,
            "repetitions": 1,
            "state": {"family": "random_mps", "n": self.n, "d": 2, "rank": self.bond,
                      "seed": seed},
            "measurement": {"source": "shot", "shots": self.shots},
            "solver": {
                "algorithm": "orgd", "ranks": "target", "alpha": self.alpha,
                "batch_size": self.batch, "max_iters": self.rounds,
                "log_every": self.log_every, "stop_rel_error": None,
                # Trimming at the target's own spikiness takes the dense path.
                "trim_nu": tt.coherence_report(target).spikiness,
            },
            "init": {"mode": "spectral", "k1": self.k, "k2": self.k, "k3": self.k},
            # A log of every measurement would dominate the run.
            "log_measurements": False,
        }
        plan_path = Path(workdir) / "plan.json"
        plan_path.write_text(json.dumps(plan))
        return Problem(target=target, plan_path=plan_path)

    def solve(self, problem, workdir):
        outdir = Path(workdir) / "run"
        streams = []
        make_stream = measurement.make_stream

        def timed_make_stream(*args, **kwargs):
            streams.append(TimedStream(make_stream(*args, **kwargs)))
            return streams[-1]

        measurement.make_stream = timed_make_stream
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(["reconstruct", "--plan", str(problem.plan_path),
                                 "--out", str(outdir)])
                wall = time.perf_counter() - start
        finally:
            measurement.make_stream = make_stream
        if code != 0:
            raise RuntimeError(f"ttqst reconstruct exited with code {code}")
        with open(outdir / "trace_rep000.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            missing = {"iter", "rel_error"} - set(reader.fieldnames or ())
            if missing:
                raise RuntimeError(f"trace CSV header lacks {sorted(missing)}")
            rows = list(reader)
        back = serialize.read_ttr1(outdir / "reconstruction_rep000.ttr")
        result = Solve(
            wall_s=wall,
            round_s=streams[0].round_times(self.batch),
            rounds=int(rows[-1]["iter"]),
            samples=streams[0].consumed,
            start_error=float(rows[0]["rel_error"]),
            final_error=float(rows[-1]["rel_error"]),
            final_bytes=iterate_bytes(back),
        )
        replayed = tt.tt_distance(back, problem.target) / tt.tt_norm(problem.target)
        if replayed != result.final_error:
            result.problems.append(
                f"read-back rel. error {replayed!r} != trace final {result.final_error!r}"
            )
        return result


WORKLOADS = {
    "online-n16": OnlineRandom,
    "ising-n6": IsingToTarget,
    "cli-shot-trim-n6": CliShotTrim,
}

# Small sizes for the benchmark's own smoke check (``--tiny``).
TINY = {
    "online-n16": dict(n=5, rounds=40),
    "ising-n6": dict(n=4, max_bond=4, target=5e-2),
    "cli-shot-trim-n6": dict(n=4, k=20_000, rounds=20, log_every=10),
}
