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
import dataclasses
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

# The plan keys that no library record owns, with their defaults; a section
# (a dict here) also takes the fields of its records in _RECORDS.
_CLI_KEYS = {
    "seed": 0, "output_dir": "run", "repetitions": 1, "log_measurements": False,
    "state_file": None,
    "state": {},
    "measurement": {"source": "exact"},
    "solver": {"algorithm": "orgd", "ranks": "target", "dataset_size": 0},
    "init": {"mode": "perturbed_truth", "delta": 0.1, "rank": 2},
}
_SOURCES = {"exact": measurement.ExactSource, "shot": measurement.ShotSource,
            "gaussian": measurement.GaussianSource}
_RECORDS = {"state": (states.StateSpec,), "measurement": tuple(_SOURCES.values()),
            "solver": (solvers.SolverConfig,), "init": (solvers.InitConfig,)}
_KINDS = {"int": int, "float": float, "float | None": float, "str": str}


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _plan_value(kind, value, what):
    """``kind(value)`` for the plan entry ``what``; ``ConfigError`` when it does not convert.

    A bool is refused, and an ``int`` entry must be integral: an integer, an
    integral float or a digit string, never a fractional float rounded down.
    """
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise TypeError("not a number the entry can hold")
        return kind(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}") from exc


def _seed(value, what):
    """The plan seed ``what``: an int in [0, 2^64), the Philox key range."""
    seed = _plan_value(int, value, what)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{what} must be in [0, 2^64), got {seed}")
    return seed


def _section_keys(name):
    """The keys plan section ``name`` accepts: its CLI keys and its records' fields."""
    return {*_CLI_KEYS[name], *(f.name for cls in _RECORDS[name] for f in dataclasses.fields(cls))}


def _section(plan, name):
    """Plan section ``name`` over the defaults of its CLI keys."""
    return {**_CLI_KEYS[name], **plan.get(name, {})}


def _record(cls, section, name, **given):
    """The record ``cls`` with the ``given`` fields, and every other read from ``section``.

    A field takes the key of its name, or the record's default when the key
    is absent.  Its annotation picks the conversion: ``_plan_value`` to int,
    float or str, None kept for an optional float, ``_seed`` for a seed.
    The record checks the values, and it names the field at fault first, so
    its error reads as one about the plan key ``name.field``.
    """
    for f in dataclasses.fields(cls):
        if f.name in given:
            continue
        value = section.get(f.name, f.default)
        if value is dataclasses.MISSING:
            raise ConfigError(f"plan.{name} needs {f.name!r}")
        key = f"{name}.{f.name}"
        if f.name in ("seed", "shuffle_seed"):
            given[f.name] = _seed(value, key)
        elif value is None and f.type.endswith("| None"):
            given[f.name] = None
        else:
            given[f.name] = _plan_value(_KINDS[f.type], value, key)
    try:
        return cls(**given)
    except (states.StateError, solvers.SolverError) as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def _load_plan(path, overrides):
    """The plan in ``path`` (empty when None), with ``overrides`` applied."""
    plan = {}
    if path is not None:
        try:
            with open(path) as fh:
                plan = json.load(fh)
        except FileNotFoundError as exc:
            raise DataError(f"plan file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"plan is not valid JSON: {exc}") from exc
    return _checked_plan(plan, overrides)


def _checked_plan(plan, overrides=None):
    """``plan`` with the ``--set key.path=value`` items applied; unknown keys rejected."""
    if not isinstance(plan, dict):
        raise ConfigError("plan must be a JSON object")
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
    for key, value in plan.items():
        if key not in _CLI_KEYS:
            raise ConfigError(f"unknown plan key {key!r}")
        if key not in _RECORDS:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"plan.{key} must be an object")
        unknown = sorted(set(value) - _section_keys(key))
        if unknown:
            raise ConfigError(f"unknown plan key '{key}.{unknown[0]}'")
    return plan


def _read_chain(read, path, what):
    """``read(path)``, whose cores must all be finite; ``DataError`` naming the file else."""
    try:
        obj = read(path)
    except (OSError, serialize.SerializationError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not np.isfinite(np.concatenate(obj.cores, axis=None)).all():
        raise DataError(f"{what} {path} holds non-finite entries")
    return obj


def _load_coeff(path):
    """Coefficient tensor of a TTC1 state file, and its pure ``Mps`` or None.

    An ``Mps`` maps through ``pure_state_coeff``; an MPO must satisfy the
    Hermitian core form and maps through ``mpo_to_coeff``.  A file with a
    non-finite entry or of the zero state is a ``DataError``.
    """
    obj = _read_chain(serialize.read_ttc1, path, "state file")
    psi = obj if isinstance(obj, mpo.Mps) else None
    if psi is None and not mpo.is_hermitian_cores(obj):
        raise DataError(f"MPO in {path} does not satisfy the Hermitian core form")
    coeff = mpo.mpo_to_coeff(obj) if psi is None else states.pure_state_coeff(psi)
    if tt.tt_norm(coeff) == 0.0:
        raise DataError(f"state file {path} holds the zero state")
    return coeff, psi


def _target_from_plan(plan):
    """Returns (coefficient tensor, pure Mps or None, metadata, resolved state entry)."""
    if "state_file" in plan:
        target, psi = _load_coeff(plan["state_file"])
        return target, psi, {"source": plan["state_file"]}, {"state_file": plan["state_file"]}
    spec = _record(states.StateSpec, _section(plan, "state"), "state")
    psi, meta = states.make_state(spec)
    return states.pure_state_coeff(psi), psi, meta, {"state": dataclasses.asdict(spec)}


def _measurement_source(plan):
    """The plan's measurement source record and its resolved section."""
    m = _section(plan, "measurement")
    kind = m["source"]
    if not isinstance(kind, str) or kind not in _SOURCES:
        raise ConfigError(f"unknown measurement source {kind!r}")
    source = _record(_SOURCES[kind], m, "measurement")
    return source, {"source": kind, **dataclasses.asdict(source)}


def _make_stream(source, target, seed):
    """The stream of ``source``; ``ConfigError`` when the stream refuses the source."""
    try:
        return measurement.make_stream(target, source, seed ^ _STREAM_SALT)
    except measurement.MeasurementError as exc:
        raise ConfigError(f"invalid measurement plan: {exc}") from exc


def _solver_ranks(ranks, target):
    """The ranks of the plan entry ``solver.ranks`` for ``target``."""
    n = target.n
    d2 = target.mode_dims[0]
    if ranks == "target":
        return target.ranks
    if isinstance(ranks, list):
        if len(ranks) != n - 1:
            raise ConfigError(f"need {n - 1} ranks, got {len(ranks)}")
        ranks = tuple(_plan_value(int, r, "solver.ranks") for r in ranks)
        try:
            tt._check_ranks_feasible(target.mode_dims, ranks)
        except tt.TtError as exc:
            raise ConfigError(f"solver.ranks: {exc}") from exc
        return ranks
    try:
        cap = _plan_value(int, ranks, "solver.ranks")
    except ConfigError:
        raise ConfigError("solver.ranks must be 'target', an integer cap, or a list") from None
    if cap < 1:
        raise ConfigError(f"solver.ranks cap must be at least 1, got {cap}")
    return tuple(min(d2**k, d2 ** (n - k), cap) for k in range(1, n))


def _solver_config(plan, target):
    """The plan's algorithm, ``SolverConfig`` and dataset size."""
    s = _section(plan, "solver")
    algorithm = s["algorithm"]
    if algorithm not in ("orgd", "rgd", "rsgd"):
        raise ConfigError(f"unknown solver algorithm {algorithm!r}")
    cfg = _record(solvers.SolverConfig, s, "solver", ranks=_solver_ranks(s["ranks"], target))
    dataset_size = _plan_value(int, s["dataset_size"], "solver.dataset_size")
    if algorithm in ("rgd", "rsgd") and dataset_size < 1:
        raise ConfigError(f"{algorithm} needs solver.dataset_size >= 1")
    return algorithm, cfg, dataset_size


def _initial_iterate(plan, target, ranks, stream, rep_seed):
    """The start iterate of the plan's init section, that section resolved, and run info.

    A spectral init without ``mu`` or ``nu`` takes it from the target's coherence report.
    """
    init = _section(plan, "init")
    mode = init["mode"]
    if mode == "perturbed_truth":
        delta = _plan_value(float, init["delta"], "init.delta")
        if not 0 <= delta < np.inf:
            raise ConfigError(f"init.delta must be finite and nonnegative, got {delta}")
        rng = measurement.make_rng(rep_seed ^ _INIT_SALT)
        pert = tt.random_tt(target.mode_dims, ranks, rng, kind="gaussian")
        pert = tt.tt_scale(delta / tt.tt_norm(pert), pert)
        base = tt.ttsvd(target, ranks) if target.ranks != ranks else target
        return tt.ttsvd(tt.tt_axpy(1.0, pert, base), ranks), {"mode": mode, "delta": delta}, {}
    if mode == "random_mpo":
        rank = _plan_value(int, init["rank"], "init.rank")
        psi = states.random_mps(target.n, int(np.sqrt(target.mode_dims[0])), rank,
                                seed=rep_seed ^ _INIT_SALT)
        t0 = states.pure_state_coeff(psi)
        if t0.ranks != ranks:
            t0 = tt.ttsvd(t0, ranks)
        return t0, {"mode": mode, "rank": rank}, {}
    if mode == "spectral":
        if init.get("mu") is None or init.get("nu") is None:
            rep = tt.coherence_report(target)
            coherence = {"mu": rep.incoherence**2, "nu": rep.spikiness}
            init.update((k, v) for k, v in coherence.items() if init.get(k) is None)
        icfg = _record(solvers.InitConfig, init, "init")
        t0, info = solvers.spectral_init(stream, icfg, ranks)
        return t0, {"mode": mode, **dataclasses.asdict(icfg)}, info
    raise ConfigError(f"unknown init mode {mode!r}")


class _RecordingStream:
    """Stream wrapper that keeps every drawn ``(idx, y)`` batch."""

    def __init__(self, stream):
        self._inner = stream
        self.batches = []

    def draw_batch(self, batch_size):
        idx, y = self._inner.draw_batch(batch_size)
        self.batches.append((idx, y))
        return idx, y

    def log(self):
        """``(idx, y, shots)`` of every draw so far, as ``measurement.write_log`` takes them."""
        if not self.batches:
            return None
        src = self._inner.source
        shots = src.shots if isinstance(src, measurement.ShotSource) else None
        idx, y = zip(*self.batches)
        return np.concatenate(idx), np.concatenate(y), shots

    def __getattr__(self, name):
        return getattr(self._inner, name)


def cmd_generate_state(args):
    # The flags fill the plan's state section; --set overrides both.
    plan = _load_plan(args.plan, None)
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(states.StateSpec)}
    plan.setdefault("state", {}).update({k: v for k, v in flags.items() if v is not None})
    plan = _checked_plan(plan, args.set)
    psi, meta = states.make_state(_record(states.StateSpec, _section(plan, "state"), "state"))
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


def _write_run_outputs(outdir, plan, resolved, traces, iterates, logs, reps_meta):
    outdir.mkdir(parents=True, exist_ok=True)
    for i, (trace, it) in enumerate(zip(traces, iterates)):
        trace.to_csv(outdir / f"trace_rep{i:03d}.csv")
        serialize.write_ttr1(outdir / f"reconstruction_rep{i:03d}.ttr", it)
    for i, log in enumerate(logs):
        if log is not None:
            measurement.write_log(outdir / f"measurements_rep{i:03d}.csv", *log)
    metadata = {
        "plan": plan,
        "resolved_plan": {**resolved, "output_dir": str(outdir)},
        "rng": measurement.RNG_ALGORITHM,
        "versions": _versions(),
        "repetitions": reps_meta,
    }
    with open(outdir / "metadata.json", "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)


def _execute_plan(plan):
    """Runs every repetition of ``plan``.

    Returns the plan resolved, with every setting as the run used it, then
    the traces, iterates, measurement logs and per-repetition metadata.
    """
    target, psi, state_meta, resolved = _target_from_plan(plan)
    algorithm, cfg, dataset_size = _solver_config(plan, target)
    source, resolved["measurement"] = _measurement_source(plan)
    top = {**_CLI_KEYS, **plan}
    repetitions = _plan_value(int, top["repetitions"], "repetitions")
    if repetitions < 1:
        raise ConfigError("repetitions must be at least 1")
    resolved.update(seed=_seed(top["seed"], "seed"), repetitions=repetitions,
                    log_measurements=top["log_measurements"],
                    solver={"algorithm": algorithm, "dataset_size": dataset_size,
                            **dataclasses.asdict(cfg)})
    traces, iterates, logs, reps_meta = [], [], [], []
    for rep in range(repetitions):
        seed = resolved["seed"] ^ rep
        stream = _make_stream(source, target, seed)
        if top["log_measurements"]:
            stream = _RecordingStream(stream)
        t0, resolved["init"], info = _initial_iterate(plan, target, cfg.ranks, stream, seed)
        if algorithm == "orgd":
            out, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=target, pure_target=psi)
        else:
            run = solvers.rgd_offline_run if algorithm == "rgd" else solvers.rsgd_run
            out, trace = run(t0, stream.draw_batch(dataset_size), cfg, ground_truth=target,
                             pure_target=psi)
        traces.append(trace)
        iterates.append(out)
        logs.append(stream.log() if top["log_measurements"] else None)
        reps_meta.append(
            {
                "repetition": rep,
                "seed": seed,
                "init": {**resolved["init"], **info,
                         "noise_proxy_variance": stream.noise_proxy_variance},
                "state": state_meta,
                "iterations": trace.iters[-1],
                "samples": trace.samples[-1],
                "final_rel_error": trace.rel_error[-1],
                "final_fidelity": trace.fidelity[-1],
            }
        )
    return resolved, traces, iterates, logs, reps_meta


def cmd_reconstruct(args):
    plan = _load_plan(args.plan, args.set)
    outdir = Path(args.out or plan.get("output_dir", _CLI_KEYS["output_dir"]))
    run = _execute_plan(plan)
    _write_run_outputs(outdir, plan, *run)
    for meta in run[-1]:
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
    if _section(plan, "init")["mode"] != "spectral":
        raise ConfigError("the init subcommand requires init.mode = 'spectral'")
    target, psi, _, _ = _target_from_plan(plan)
    ranks = _solver_ranks(_section(plan, "solver")["ranks"], target)
    seed = _seed({**_CLI_KEYS, **plan}["seed"], "seed")
    stream = _make_stream(_measurement_source(plan)[0], target, seed)
    t0, init, info = _initial_iterate(plan, target, ranks, stream, seed)
    outdir = Path(args.out or plan.get("output_dir", _CLI_KEYS["output_dir"]))
    outdir.mkdir(parents=True, exist_ok=True)
    serialize.write_ttr1(outdir / "t0.ttr", t0)
    rel = tt.tt_distance(t0, target) / tt.tt_norm(target)
    report = {"rel_error": rel, "samples": stream.consumed, "init": {**init, **info},
              "rng": measurement.RNG_ALGORITHM, "versions": _versions()}
    with open(outdir / "init_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"init rel_error {rel:.4f} using {stream.consumed} samples -> {outdir}")
    return EXIT_OK


def _coeff_from_any(path):
    """Coefficient tensor of a TTR1 reconstruction or a TTC1 state file."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
    except OSError as exc:
        raise DataError(f"cannot read reconstruction {path}: {exc}") from exc
    if head == b"TTR1":
        return _read_chain(serialize.read_ttr1, path, "reconstruction")
    return _load_coeff(path)[0]


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
    if "state_file" in plan:
        raise ConfigError("benchmark-scaling sets state.n, which a state_file plan does not read")
    ns = [_plan_value(int, x, "--ns entry") for x in args.ns.split(",")]
    if len(set(ns)) < 2:
        raise ConfigError("need at least two distinct n values to fit a scaling exponent")
    if (args.target_error is None) == (args.target_fidelity is None):
        raise ConfigError("set exactly one of --target-error / --target-fidelity")
    repetitions = args.repetitions
    rows = []
    for n in ns:
        plan_n = copy.deepcopy(plan)
        plan_n.setdefault("state", {})["n"] = n
        plan_n["repetitions"] = repetitions
        plan_n.setdefault("solver", {})
        if args.target_error is not None:
            plan_n["solver"]["stop_rel_error"] = args.target_error
        traces = _execute_plan(plan_n)[1]
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
        print(f"n={n}: iterations {counts} mean {np.mean(counts):.1f}")
    logn = np.log(np.asarray(ns, dtype=float))
    logi = np.log([mean for _, mean, _ in rows])
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
    # Older run directories echo only the plan as given.
    plans = [_checked_plan(metadata[k]) for k in ("plan", "resolved_plan") if k in metadata]
    if not plans:
        raise DataError("metadata.json carries no plan echo")
    outdir = Path(args.out) if args.out else rundir / "replay"
    run = _execute_plan(plans[-1])
    _write_run_outputs(outdir, plans[0], *run)
    ok = True
    for i in range(len(run[1])):
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
    for f in dataclasses.fields(states.StateSpec):  # one flag per state key
        g.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=_KINDS[f.type])
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
