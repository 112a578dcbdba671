"""Experiment harness: state generation, reconstruction, evaluation, scaling.

Subcommands
    generate-state   write a target state as TTC1 plus a metadata record
    reconstruct      run a full plan: state -> measurements -> init -> solver
    init             run only the spectral initializer from a plan
    evaluate         relative Frobenius error / fidelity of a reconstruction
    benchmark-scaling  iterations-to-target-error versus mode count
    replay           re-run a finished plan and compare traces byte-for-byte

Plans are JSON files (see README for the schema); any entry can be
overridden on the command line with ``--set path.to.key=value``.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, manifold, measurement, mpo, serialize, solvers, states, tt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_STREAM_SALT = 0x53544D  # distinct rng lanes within one repetition
_INIT_SALT = 0x494E49


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _load_plan(path, overrides):
    try:
        with open(path) as fh:
            plan = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"plan file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"plan is not valid JSON: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key.path=value: {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = plan
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return plan


def _state_spec(plan):
    s = plan.get("state")
    if not isinstance(s, dict) or "family" not in s:
        raise ConfigError("plan.state must be an object with a 'family'")
    try:
        return states.StateSpec(
            family=s["family"],
            n=int(s.get("n", 0)),
            d=int(s.get("d", 2)),
            rank=int(s.get("rank", 2)),
            max_bond=int(s.get("max_bond", 16)),
            coupling=float(s.get("coupling", 1.0)),
            seed=int(s.get("seed", 0)),
        )
    except (states.StateError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid state spec: {exc}") from exc


def _load_state_file(path):
    try:
        obj = serialize.read_ttc1(path)
    except FileNotFoundError as exc:
        raise DataError(f"state file not found: {path}") from exc
    except serialize.SerializationError as exc:
        raise DataError(f"cannot parse state file {path}: {exc}") from exc
    return obj


def _load_coeff(path):
    """Coefficient tensor of a TTC1 state file, and its pure ``Mps`` or None.

    An ``Mps`` maps through ``pure_state_coeff``; an MPO must satisfy the
    Hermitian core form and maps through ``mpo_to_coeff``.
    """
    obj = _load_state_file(path)
    if isinstance(obj, mpo.Mps):
        return states.pure_state_coeff(obj), obj
    if not mpo.is_hermitian_cores(obj):
        raise DataError(f"MPO in {path} does not satisfy the Hermitian core form")
    return mpo.mpo_to_coeff(obj, mpo.make_basis(obj.d)), None


def _target_from_plan(plan):
    """Returns (coefficient tensor, pure Mps or None, metadata)."""
    if "state_file" in plan:
        target, psi = _load_coeff(plan["state_file"])
        return target, psi, {"source": plan["state_file"]}
    spec = _state_spec(plan)
    psi, meta = states.make_state(spec)
    return states.pure_state_coeff(psi), psi, meta


def _measurement_source(plan):
    m = plan.get("measurement", {"source": "exact"})
    kind = m.get("source", "exact")
    if kind == "exact":
        return measurement.ExactSource()
    if kind == "shot":
        if "shots" not in m:
            raise ConfigError("shot source needs 'shots'")
        return measurement.ShotSource(int(m["shots"]))
    if kind == "gaussian":
        if "sigma" not in m:
            raise ConfigError("gaussian source needs 'sigma'")
        return measurement.GaussianSource(float(m["sigma"]))
    raise ConfigError(f"unknown measurement source {kind!r}")


def _solver_ranks(plan_solver, target):
    ranks = plan_solver.get("ranks", "target")
    n = target.n
    d2 = target.mode_dims[0]
    if ranks == "target":
        return target.ranks
    if isinstance(ranks, int):
        return tuple(min(d2**k, d2 ** (n - k), ranks) for k in range(1, n))
    if isinstance(ranks, list):
        if len(ranks) != n - 1:
            raise ConfigError(f"need {n - 1} ranks, got {len(ranks)}")
        return tuple(int(r) for r in ranks)
    raise ConfigError("solver.ranks must be 'target', an integer cap, or a list")


def _solver_config(plan, target):
    s = dict(plan.get("solver", {}))
    algorithm = s.pop("algorithm", "orgd")
    if algorithm not in ("orgd", "rgd", "rsgd"):
        raise ConfigError(f"unknown solver algorithm {algorithm!r}")
    ranks = _solver_ranks(s, target)
    try:
        cfg = solvers.SolverConfig(
            ranks=ranks,
            max_iters=int(s.get("max_iters", 10000)),
            batch_size=int(s.get("batch_size", 1)),
            eta=(None if s.get("eta") is None else float(s["eta"])),
            alpha=(None if s.get("alpha") is None else float(s["alpha"])),
            trim_nu=(None if s.get("trim_nu") is None else float(s["trim_nu"])),
            stop_rel_error=(
                None if s.get("stop_rel_error") is None else float(s["stop_rel_error"])
            ),
            stop_move_tol=(
                None if s.get("stop_move_tol") is None else float(s["stop_move_tol"])
            ),
            log_every=int(s.get("log_every", 50)),
            epochs=int(s.get("epochs", 1)),
            epoch_decay=float(s.get("epoch_decay", 0.9)),
            shuffle_seed=int(s.get("shuffle_seed", 0)),
        )
    except (solvers.SolverError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc
    dataset_size = int(s.get("dataset_size", 0))
    if algorithm in ("rgd", "rsgd") and dataset_size < 1:
        raise ConfigError(f"{algorithm} needs solver.dataset_size >= 1")
    return algorithm, cfg, dataset_size


def _initial_iterate(plan, target, ranks, stream, rep_seed):
    init = plan.get("init", {"mode": "perturbed_truth", "delta": 0.1})
    mode = init.get("mode", "perturbed_truth")
    if mode == "perturbed_truth":
        delta = float(init.get("delta", 0.1))
        if delta < 0:
            raise ConfigError("perturbed-truth delta must be nonnegative")
        rng = measurement.make_rng(rep_seed ^ _INIT_SALT)
        pert = tt.random_tt(target.mode_dims, ranks, rng, kind="gaussian")
        pert = tt.tt_scale(delta / tt.tt_norm(pert), pert)
        base = tt.ttsvd(target, ranks) if target.ranks != ranks else target
        return tt.ttsvd(tt.tt_axpy(1.0, pert, base), ranks), {"mode": mode, "delta": delta}
    if mode == "random_mpo":
        rank = int(init.get("rank", 2))
        psi = states.random_mps(target.n, int(np.sqrt(target.mode_dims[0])), rank,
                                seed=rep_seed ^ _INIT_SALT)
        t0 = states.pure_state_coeff(psi)
        if t0.ranks != ranks:
            t0 = tt.ttsvd(t0, ranks)
        return t0, {"mode": mode, "rank": rank}
    if mode == "spectral":
        try:
            k1 = int(init["k1"])
            k2 = int(init["k2"])
            k3 = int(init["k3"])
        except KeyError as exc:
            raise ConfigError("spectral init needs k1, k2, k3") from exc
        mu, nu = init.get("mu"), init.get("nu")
        if mu is None or nu is None:
            rep = tt.coherence_report(target)
            mu = rep.incoherence**2 if mu is None else mu
            nu = rep.spikiness if nu is None else nu
        icfg = solvers.InitConfig(k1=k1, k2=k2, k3=k3, mu=float(mu), nu=float(nu))
        t0, info = solvers.spectral_init(stream, icfg, ranks)
        return t0, {"mode": mode, "k1": k1, "k2": k2, "k3": k3,
                    "mu": float(mu), "nu": float(nu), **info}
    raise ConfigError(f"unknown init mode {mode!r}")


class _RecordingStream:
    """Stream wrapper that keeps every drawn (index, value) pair."""

    def __init__(self, stream):
        self._inner = stream
        src = stream.source
        self._shots = src.shots if isinstance(src, measurement.ShotSource) else None
        self.records = []

    def draw_batch(self, batch_size):
        idx, y = self._inner.draw_batch(batch_size)
        self.records.extend(
            measurement.MeasurementRecord(tuple(idx[i]), float(y[i]), self._shots)
            for i in range(idx.shape[0])
        )
        return idx, y

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _run_repetition(plan, target, psi, cfg, algorithm, dataset_size, rep_index):
    seed = int(plan.get("seed", 0)) ^ rep_index
    source = _measurement_source(plan)
    stream = measurement.make_stream(target, source, seed ^ _STREAM_SALT)
    if plan.get("log_measurements"):
        stream = _RecordingStream(stream)
    t0, init_meta = _initial_iterate(plan, target, cfg.ranks, stream, seed)
    if algorithm == "orgd":
        out, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=target, pure_target=psi)
    else:
        idx, y = stream.draw_batch(dataset_size)
        if algorithm == "rgd":
            out, trace = solvers.rgd_offline_run(t0, (idx, y), cfg, ground_truth=target,
                                                 pure_target=psi)
        else:
            out, trace = solvers.rsgd_run(t0, (idx, y), cfg, ground_truth=target,
                                          pure_target=psi)
    log = stream.records if isinstance(stream, _RecordingStream) else []
    init_meta["noise_proxy_variance"] = stream.noise_proxy_variance
    return out, trace, init_meta, log, seed


def cmd_generate_state(args):
    plan = _load_plan(args.plan, args.set) if args.plan else {"state": {}}
    if args.family:
        plan.setdefault("state", {})["family"] = args.family
    for key, val in (("n", args.n), ("rank", args.rank), ("max_bond", args.max_bond),
                     ("coupling", args.coupling), ("seed", args.seed), ("d", args.d)):
        if val is not None:
            plan.setdefault("state", {})[key] = val
    spec = _state_spec(plan)
    psi, meta = states.make_state(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    serialize.write_ttc1(out, psi)
    meta_record = {
        "format": "TTC1",
        "rng": measurement.RNG_ALGORITHM,
        "versions": _versions(),
        "state": meta,
    }
    with open(out.with_suffix(out.suffix + ".meta.json"), "w") as fh:
        json.dump(meta_record, fh, indent=2, sort_keys=True)
    print(f"wrote {out} ({meta['family']}, n={meta['n']})")
    return EXIT_OK


def _versions():
    import scipy

    return {"ttqst": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _write_run_outputs(outdir, plan, reps_meta, traces, iterates, logs, target_n):
    outdir.mkdir(parents=True, exist_ok=True)
    for i, (trace, it) in enumerate(zip(traces, iterates)):
        trace.to_csv(outdir / f"trace_rep{i:03d}.csv")
        serialize.write_ttr1(outdir / f"reconstruction_rep{i:03d}.ttr", it)
    if plan.get("log_measurements"):
        for i, log in enumerate(logs):
            if log:
                measurement.write_log(outdir / f"measurements_rep{i:03d}.csv", log, target_n)
    metadata = {
        "plan": plan,
        "rng": measurement.RNG_ALGORITHM,
        "versions": _versions(),
        "repetitions": reps_meta,
    }
    with open(outdir / "metadata.json", "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)


def _execute_plan(plan):
    target, psi, state_meta = _target_from_plan(plan)
    algorithm, cfg, dataset_size = _solver_config(plan, target)
    repetitions = int(plan.get("repetitions", 1))
    if repetitions < 1:
        raise ConfigError("repetitions must be at least 1")
    traces, iterates, logs, reps_meta = [], [], [], []
    for rep in range(repetitions):
        out, trace, init_meta, log, seed = _run_repetition(
            plan, target, psi, cfg, algorithm, dataset_size, rep
        )
        traces.append(trace)
        iterates.append(out)
        logs.append(log)
        reps_meta.append(
            {
                "repetition": rep,
                "seed": seed,
                "init": init_meta,
                "state": state_meta,
                "iterations": trace.iters[-1],
                "samples": trace.samples[-1],
                "final_rel_error": trace.rel_error[-1],
                "final_fidelity": trace.fidelity[-1],
            }
        )
    return target, traces, iterates, logs, reps_meta


def cmd_reconstruct(args):
    plan = _load_plan(args.plan, args.set)
    outdir = Path(args.out or plan.get("output_dir", "run"))
    target, traces, iterates, logs, reps_meta = _execute_plan(plan)
    _write_run_outputs(outdir, plan, reps_meta, traces, iterates, logs, target.n)
    for meta in reps_meta:
        rel = meta["final_rel_error"]
        fid = meta["final_fidelity"]
        print(
            f"rep {meta['repetition']}: iters {meta['iterations']} "
            f"samples {meta['samples']} rel_error "
            f"{'n/a' if rel is None else f'{rel:.3e}'} fidelity "
            f"{'n/a' if fid is None else f'{fid:.6f}'}"
        )
    print(f"outputs in {outdir}")
    return EXIT_OK


def cmd_init(args):
    plan = _load_plan(args.plan, args.set)
    init = plan.get("init", {})
    if init.get("mode") != "spectral":
        raise ConfigError("the init subcommand requires init.mode = 'spectral'")
    target, psi, _ = _target_from_plan(plan)
    ranks = _solver_ranks(dict(plan.get("solver", {})), target)
    seed = int(plan.get("seed", 0))
    source = _measurement_source(plan)
    stream = measurement.make_stream(target, source, seed ^ _STREAM_SALT)
    t0, info = _initial_iterate(plan, target, ranks, stream, seed)
    outdir = Path(args.out or plan.get("output_dir", "run"))
    outdir.mkdir(parents=True, exist_ok=True)
    serialize.write_ttr1(outdir / "t0.ttr", t0)
    rel = tt.tt_distance(t0, target) / tt.tt_norm(target)
    report = {"rel_error": rel, "samples": stream.consumed, "init": info,
              "rng": measurement.RNG_ALGORITHM, "versions": _versions()}
    with open(outdir / "init_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"init rel_error {rel:.4f} using {stream.consumed} samples -> {outdir}")
    return EXIT_OK


def _coeff_from_any(path):
    p = str(path)
    try:
        head = open(p, "rb").read(4)
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {p}") from exc
    if head == b"TTR1":
        return serialize.read_ttr1(p)
    return _load_coeff(p)[0]


def cmd_evaluate(args):
    t_ref, psi = _load_coeff(args.state)
    t_rec = _coeff_from_any(args.reconstruction)
    if t_rec.mode_dims != t_ref.mode_dims:
        raise DataError("state and reconstruction shapes do not match")
    d = tt.tt_distance(t_rec, t_ref) / tt.tt_norm(t_ref)
    line = f"D {repr(d)}"
    if psi is not None:
        # t_ref is psi's coefficient tensor: Parseval gives <psi|rho|psi>.
        f = abs(tt.tt_inner(t_rec, t_ref))
        line += f" f {repr(f)}"
    print(line)
    return EXIT_OK


def cmd_benchmark_scaling(args):
    plan = _load_plan(args.plan, args.set)
    ns = [int(x) for x in args.ns.split(",")]
    if len(ns) < 2:
        raise ConfigError("need at least two n values to fit a scaling exponent")
    if (args.target_error is None) == (args.target_fidelity is None):
        raise ConfigError("set exactly one of --target-error / --target-fidelity")
    repetitions = args.repetitions
    rows = []
    mean_iters = []
    for n in ns:
        plan_n = copy.deepcopy(plan)
        plan_n.setdefault("state", {})["n"] = n
        plan_n["repetitions"] = repetitions
        plan_n.setdefault("solver", {})
        if args.target_error is not None:
            plan_n["solver"]["stop_rel_error"] = args.target_error
        target, traces, _, _, reps_meta = _execute_plan(plan_n)
        counts = []
        for trace in traces:
            if args.target_error is not None:
                ok = trace.rel_error[-1] is not None and trace.rel_error[-1] <= args.target_error
            else:
                ok = trace.fidelity[-1] is not None and trace.fidelity[-1] >= args.target_fidelity
            if not ok:
                raise solvers.SolverError(
                    f"run at n={n} did not reach the target within max_iters"
                )
            counts.append(trace.iters[-1])
        rows.append((n, float(np.mean(counts)), counts))
        mean_iters.append(float(np.mean(counts)))
        print(f"n={n}: iterations {counts} mean {np.mean(counts):.1f}")
    logn = np.log(np.asarray(ns, dtype=float))
    logi = np.log(np.asarray(mean_iters))
    exponent, intercept = np.polyfit(logn, logi, 1)
    print(f"fitted iterations ~ {np.exp(intercept):.3g} * n^{exponent:.3f}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            fh.write("n,mean_iterations," +
                     ",".join(f"rep{i}" for i in range(repetitions)) + "\n")
            for n, mean, counts in rows:
                fh.write(f"{n},{mean}," + ",".join(str(c) for c in counts) + "\n")
            fh.write(f"# exponent,{exponent}\n")
    return EXIT_OK


def cmd_replay(args):
    rundir = Path(args.run_dir)
    meta_path = rundir / "metadata.json"
    try:
        with open(meta_path) as fh:
            metadata = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"no metadata.json in {rundir}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt metadata.json: {exc}") from exc
    plan = metadata.get("plan")
    if plan is None:
        raise DataError("metadata.json carries no plan echo")
    outdir = Path(args.out) if args.out else rundir / "replay"
    target, traces, iterates, logs, reps_meta = _execute_plan(plan)
    _write_run_outputs(outdir, plan, reps_meta, traces, iterates, logs, target.n)
    ok = True
    for i in range(len(traces)):
        orig = rundir / f"trace_rep{i:03d}.csv"
        new = outdir / f"trace_rep{i:03d}.csv"
        if not orig.exists():
            raise DataError(f"missing original trace {orig}")
        same = (
            solvers.RunTrace.rows_excluding_wall(orig)
            == solvers.RunTrace.rows_excluding_wall(new)
        )
        print(f"trace_rep{i:03d}: {'identical' if same else 'MISMATCH'} (wall-time excluded)")
        ok = ok and same
    return EXIT_OK if ok else EXIT_NUMERIC


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ttqst",
        description="MPO state tomography via online Riemannian TT completion",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-state", help="write a target state as TTC1")
    g.add_argument("--plan", help="optional plan JSON carrying a state section")
    g.add_argument("--set", action="append", help="override plan entries")
    g.add_argument("--family", choices=["random_mps", "ghz", "ising_ground"])
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--rank", type=int)
    g.add_argument("--max-bond", dest="max_bond", type=int)
    g.add_argument("--coupling", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate_state)

    r = sub.add_parser("reconstruct", help="run a reconstruction plan end to end")
    r.add_argument("--plan", required=True)
    r.add_argument("--set", action="append")
    r.add_argument("--out", help="output directory (defaults to plan.output_dir)")
    r.set_defaults(func=cmd_reconstruct)

    i = sub.add_parser("init", help="run the spectral initializer only")
    i.add_argument("--plan", required=True)
    i.add_argument("--set", action="append")
    i.add_argument("--out")
    i.set_defaults(func=cmd_init)

    e = sub.add_parser("evaluate", help="D and fidelity of a reconstruction")
    e.add_argument("--state", required=True, help="TTC1 state file")
    e.add_argument("--reconstruction", required=True, help="TTR1 or TTC1 file")
    e.set_defaults(func=cmd_evaluate)

    b = sub.add_parser("benchmark-scaling", help="iterations-to-target vs n")
    b.add_argument("--plan", required=True)
    b.add_argument("--set", action="append")
    b.add_argument("--ns", required=True, help="comma-separated mode counts")
    b.add_argument("--target-error", type=float)
    b.add_argument("--target-fidelity", type=float)
    b.add_argument("--repetitions", type=int, default=5)
    b.add_argument("--out", help="scaling CSV path")
    b.set_defaults(func=cmd_benchmark_scaling)

    p = sub.add_parser("replay", help="re-run a plan and compare traces")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_replay)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error code.
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        solvers.SolverError,
        manifold.ManifoldError,
        mpo.MpoError,
        tt.TtError,
        states.DmrgError,
        measurement.MeasurementError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except states.StateError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
